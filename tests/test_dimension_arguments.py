"""Dimension arguments and facet entries of the wrong type end in a
``GalepolyError``.

Every dimension goes through ``linalg.check_dimension`` (an int, not a
bool, of at least the function's least dimension), so a string or a float
is a ``BadParametersError``, never a bare ``TypeError`` from a comparison.
A facet entry that is no label is an ``UnknownVertexError``, the error
``is_edge`` gives for the same label.
"""

import pytest

from galepoly import mani
from galepoly.errors import BadParametersError, UnknownVertexError
from galepoly.mani import build_block_diagram, construct_nonsimplicial_mani, mani_simplicial
from galepoly.polytope import crosspolytope, cyclic_polytope, is_edge, simplex, stack_simplex_facet

CALLS = {
    "crosspolytope('2')": lambda: crosspolytope("2"),
    "simplex('2')": lambda: simplex("2"),
    "cyclic_polytope('3', 5)": lambda: cyclic_polytope("3", 5),
    "cyclic_polytope(3, '5')": lambda: cyclic_polytope(3, "5"),
    "default_block_size('6')": lambda: mani.default_block_size("6"),
    "formulas('6')": lambda: mani.formulas("6"),
    "formula_table('6')": lambda: mani.formula_table("6"),
    "mani_simplicial('6')": lambda: mani_simplicial("6"),
    "construct_nonsimplicial_mani('6')": lambda: construct_nonsimplicial_mani("6"),
    "build_block_diagram(6.0)": lambda: build_block_diagram(6.0),
    "build_block_diagram(6, p='3')": lambda: build_block_diagram(6, p="3"),
    "build_block_diagram(6, ell='1')": lambda: build_block_diagram(6, ell="1"),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_a_dimension_that_is_no_int_is_a_bad_parameter(call):
    with pytest.raises(BadParametersError, match="must be an int"):
        CALLS[call]()


def test_the_int_dimensions_keep_their_verdicts():
    assert crosspolytope(2).f0 == 4 and simplex(2).f0 == 3 and cyclic_polytope(3, 5).f0 == 5
    assert mani.default_block_size(6) == 2 and mani.formulas(6).nu == 12
    for bad, message in (
        (lambda: crosspolytope(0), "must be at least 1"),
        (lambda: cyclic_polytope(3, 3), "n >= d"),
        (lambda: build_block_diagram(5), "d >= 6"),
        (lambda: mani_simplicial(2), "d >= 3"),
    ):
        with pytest.raises(BadParametersError, match=message):
            bad()


def test_a_facet_entry_that_is_no_label_is_an_unknown_vertex():
    poly = simplex(2)
    with pytest.raises(UnknownVertexError):
        is_edge(poly, ["1"], "2")
    with pytest.raises(UnknownVertexError):
        stack_simplex_facet(poly, [["1"], "2"])
    # a hashable entry that is no label is reported as before
    with pytest.raises(UnknownVertexError, match="no vertex labeled 1"):
        stack_simplex_facet(poly, [1, "2"])
