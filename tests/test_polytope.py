"""Combinatorial polytopes: incidence data, illumination, stacking, families."""

import itertools
import json
import os
import subprocess
import sys
import textwrap

import pytest

from galepoly import polytope as polytope_module
from galepoly.jsonio import dumps, polytope_from_json, polytope_to_json, verify_document
from galepoly.errors import (
    BadParametersError,
    NotAFacetError,
    NotASimplexFacetError,
    TooLargeForBruteForceError,
    UnknownVertexError,
)
from galepoly.polytope import (
    IncidencePolytope,
    crosspolytope,
    cyclic_polytope,
    gamma,
    illumination_report,
    inner_diagonal_matching,
    inner_diagonals,
    is_edge,
    missing_edges,
    simplex,
    stack_simplex_facet,
)

SQUARE = IncidencePolytope(
    d=2,
    vertices=("1", "2", "3", "4"),
    facets=(("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")),
)

PYRAMID = IncidencePolytope(
    d=3,
    vertices=("a", "b", "c", "d", "e"),
    facets=(
        ("a", "b", "c", "d"),
        ("a", "b", "e"),
        ("b", "c", "e"),
        ("c", "d", "e"),
        ("d", "a", "e"),
    ),
)


def test_validation_rejects_malformed_incidence_data():
    with pytest.raises(BadParametersError):
        IncidencePolytope(d=0, vertices=("a",), facets=(("a",),))
    with pytest.raises(BadParametersError):
        IncidencePolytope(d=1, vertices=("a", "a"), facets=(("a",),))
    with pytest.raises(UnknownVertexError):
        IncidencePolytope(d=1, vertices=("a", "b"), facets=(("c",),))
    with pytest.raises(BadParametersError):
        IncidencePolytope(d=1, vertices=("a", "b"), facets=(("a", "b"),))
    with pytest.raises(BadParametersError):
        IncidencePolytope(
            d=2,
            vertices=("a", "b", "c"),
            facets=(("a", "b"), ("b",), ("c", "a")),
        )
    with pytest.raises(BadParametersError):
        IncidencePolytope(d=2, vertices=("a", "b", "c"), facets=(("a", "b"),))


def test_facets_are_canonicalized():
    p = IncidencePolytope(
        d=2,
        vertices=("x", "y", "z", "w"),
        facets=(("w", "z"), ("y", "x"), ("y", "z"), ("x", "w")),
    )
    assert p.facets == (("x", "y"), ("x", "w"), ("y", "z"), ("z", "w"))


def test_accessors():
    assert SQUARE.f0 == 4
    assert SQUARE.vertex_index("3") == 2
    with pytest.raises(UnknownVertexError):
        SQUARE.vertex_index("9")
    assert SQUARE.facets_containing("1") == (("1", "2"), ("1", "4"))
    assert SQUARE.is_simplicial()
    assert not PYRAMID.is_simplicial()


def test_edges_of_the_square():
    assert is_edge(SQUARE, "1", "2")
    assert not is_edge(SQUARE, "1", "3")
    with pytest.raises(BadParametersError):
        is_edge(SQUARE, "1", "1")
    assert inner_diagonals(SQUARE) == (("1", "3"), ("2", "4"))
    assert missing_edges(SQUARE) == (("1", "3"), ("2", "4"))


def test_pyramid_base_diagonals_are_not_inner():
    # the base diagonals a-c and b-d lie on the base facet, so the pyramid
    # has missing edges but no inner diagonal at all
    report = illumination_report(PYRAMID)
    assert not report.illuminated
    assert not report.unneighborly
    assert all(p is None for _, p in report.diagonal_partner)
    edge_partners = dict(report.missing_edge_partner)
    assert edge_partners["a"] == "c" and edge_partners["b"] == "d"
    assert edge_partners["e"] is None
    assert inner_diagonals(PYRAMID) == ()
    assert missing_edges(PYRAMID) == (("a", "c"), ("b", "d"))


def test_simplices_have_no_missing_edges():
    # d = 1 is the degenerate segment whose endpoints count as a diagonal,
    # so the non-illumination claim starts at d = 2
    for d in range(2, 6):
        s = simplex(d)
        assert s.f0 == d + 1
        assert len(s.facets) == d + 1
        assert s.is_simplicial()
        assert missing_edges(s) == ()
        report = illumination_report(s)
        assert not report.illuminated
        assert not report.unneighborly


def test_crosspolytopes_are_illuminated_with_antipodal_diagonals():
    for d in range(1, 6):
        c = crosspolytope(d)
        assert c.f0 == 2 * d
        assert len(c.facets) == 2**d
        assert c.is_simplicial()
        report = illumination_report(c)
        assert report.illuminated
        if d >= 2:
            assert report.unneighborly
        diagonals = inner_diagonals(c)
        assert diagonals == tuple((f"+{i}", f"-{i}") for i in range(1, d + 1))


def test_crosspolytope_matching_is_perfect():
    for d in (2, 3, 4):
        match = inner_diagonal_matching(crosspolytope(d))
        assert match.perfect
        assert match.pairs == tuple((f"+{i}", f"-{i}") for i in range(1, d + 1))
    no_match = inner_diagonal_matching(simplex(3))
    assert not no_match.perfect
    assert no_match.pairs == ()


def test_cyclic_polytope_pinned_cases():
    pentagon = cyclic_polytope(2, 5)
    assert pentagon.facets == (
        ("1", "2"),
        ("1", "5"),
        ("2", "3"),
        ("3", "4"),
        ("4", "5"),
    )
    assert cyclic_polytope(3, 4).facets == simplex(3).facets
    c46 = cyclic_polytope(4, 6)
    assert c46.f0 == 6
    assert len(c46.facets) == 9
    assert c46.is_simplicial()
    # neighborly: every pair of the 6 vertices is an edge in dimension 4
    assert missing_edges(c46) == ()


def test_cyclic_polytope_validation():
    with pytest.raises(BadParametersError):
        cyclic_polytope(2, 2)
    with pytest.raises(BadParametersError):
        cyclic_polytope(0, 5)


def test_cyclic_facets_obey_gale_evenness():
    n = 7
    poly = cyclic_polytope(4, n)
    index = {v: i for i, v in enumerate(poly.vertices)}
    for facet in poly.facets:
        chosen = {index[v] for v in facet}
        # collect maximal runs of consecutive chosen indices
        runs = []
        start = None
        for i in range(n + 1):
            if i < n and i in chosen:
                if start is None:
                    start = i
            elif start is not None:
                runs.append((start, i - 1))
                start = None
        for lo, hi in runs:
            if lo > 0 and hi < n - 1:
                assert (hi - lo + 1) % 2 == 0, f"odd interior run in {facet}"


def test_gamma_pinned_values():
    assert gamma(crosspolytope(3)).value == 1
    assert gamma(crosspolytope(4)).value == 1
    assert gamma(simplex(3)).value == 0
    report = gamma(crosspolytope(2))
    assert report.value == 1
    assert report.vertex is not None and len(report.witness) == 1


def test_gamma_respects_the_brute_force_cap():
    with pytest.raises(TooLargeForBruteForceError):
        gamma(crosspolytope(8), cap=10)


def test_stacking_a_crosspolytope_facet():
    c3 = crosspolytope(3)
    stacked = stack_simplex_facet(c3, ("+1", "+2", "+3"))
    assert stacked.f0 == 7
    assert len(stacked.facets) == 2**3 - 1 + 3
    assert stacked.vertices[-1] == "z0"
    # the apex replaces the stacked facet: three new simplex facets
    apex_facets = [f for f in stacked.facets if "z0" in f]
    assert len(apex_facets) == 3
    assert stacked.is_simplicial()
    report = illumination_report(stacked)
    assert report.illuminated
    partners = dict(report.diagonal_partner)
    assert partners["z0"] == "-1"


def test_stacking_validation():
    c3 = crosspolytope(3)
    with pytest.raises(UnknownVertexError):
        stack_simplex_facet(c3, ("+1", "+2", "nope"))
    with pytest.raises(NotAFacetError):
        stack_simplex_facet(c3, ("+1", "+2", "-1"))
    with pytest.raises(NotASimplexFacetError):
        stack_simplex_facet(PYRAMID, ("a", "b", "c", "d"))
    with pytest.raises(BadParametersError):
        stack_simplex_facet(c3, ("+1", "+2", "+3"), new_label="-1")


def test_stack_label_defaults_skip_used_names():
    c3 = crosspolytope(3)
    once = stack_simplex_facet(c3, ("+1", "+2", "+3"))
    twice = stack_simplex_facet(once, ("-1", "-2", "-3"))
    assert twice.vertices[-1] == "z1"
    named = stack_simplex_facet(c3, ("+1", "+2", "+3"), new_label="apex")
    assert named.vertices[-1] == "apex"


def _round_trip(poly: IncidencePolytope) -> IncidencePolytope:
    return polytope_from_json(json.loads(dumps(polytope_to_json(poly))))


def test_a_polytope_either_round_trips_or_is_refused_for_its_labels():
    # the document of any polytope the library builds must read back; a
    # label that is not a string would be written out and then refused
    for make in (
        lambda: IncidencePolytope(2, (1, 2, 3), ((1, 2), (1, 3), (2, 3))),
        lambda: IncidencePolytope(2, ("1", "2", 3), (("1", "2"), ("1", 3), ("2", 3))),
        lambda: stack_simplex_facet(simplex(2), ("1", "2"), new_label=7),
        lambda: stack_simplex_facet(simplex(2), ("1", "2"), new_label=("z",)),
    ):
        with pytest.raises(BadParametersError, match="vertex labels must be strings"):
            make()
    for poly in (
        SQUARE,
        PYRAMID,
        stack_simplex_facet(simplex(2), ("1", "2"), new_label="7"),
        stack_simplex_facet(stack_simplex_facet(crosspolytope(3), ("+1", "+2", "+3")), ("-1", "-2", "-3")),
    ):
        back = _round_trip(poly)
        assert (back, back._rows, back._masks) == (poly, poly._rows, poly._masks)


def test_vertex_labels_must_be_a_tuple():
    # a list passed construction and then made a polytope unequal to the
    # same one built from a tuple, on which stacking raised a TypeError
    with pytest.raises(BadParametersError, match="vertex labels must be a tuple"):
        IncidencePolytope(2, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    poly = IncidencePolytope(2, ("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    assert stack_simplex_facet(poly, ("a", "b")).f0 == 4


def test_a_pair_on_a_simplex_facet_need_not_be_an_edge():
    # a and b lie on the simplex facet abc, yet abc is the only facet
    # through both, so they are no edge.  The shortcut "two vertices of a
    # simplex facet span an edge" holds on a polytope but not on every
    # facet family a polytope document may carry, which is why edges are
    # decided by the exact scan over all vertices
    poly = IncidencePolytope(
        3, ("a", "b", "c", "x", "y"), (("a", "b", "c"), ("a", "x", "y"), ("b", "x", "y"), ("c", "x", "y"))
    )
    assert not is_edge(poly, "a", "b")
    doc = polytope_to_json(poly)
    (payload,) = verify_document(doc, ["unneighborly"])
    assert payload["verdict"] is True
    assert payload["partners"][0] == ["a", "b"]


def test_illumination_implies_unneighborly_on_catalogue():
    catalogue = [crosspolytope(d) for d in range(2, 6)]
    catalogue += [cyclic_polytope(2, n) for n in range(4, 8)]
    catalogue += [simplex(d) for d in range(2, 6)]
    catalogue.append(PYRAMID)
    catalogue.append(stack_simplex_facet(crosspolytope(3), ("+1", "+2", "+3")))
    for poly in catalogue:
        report = illumination_report(poly)
        if report.illuminated:
            assert report.unneighborly
        # diagonals are always missing edges
        assert set(inner_diagonals(poly)) <= set(missing_edges(poly))


def test_verdict_checks_survive_optimized_mode():
    """The matching and illumination self-checks raise under ``python -O``."""
    code = textwrap.dedent(
        """
        import sys
        from galepoly import polytope
        from galepoly.errors import CertificateError

        cross = polytope.crosspolytope(3)

        def forged_matching(pairs):
            # indices 0, 1, 2 are +1, -1, +2
            polytope._max_matching = lambda adj: pairs
            return polytope.inner_diagonal_matching(cross)

        def every_pair_an_edge():
            polytope._edge = lambda masks, i, j: True
            return polytope.illumination_report(cross)

        calls = [
            lambda: forged_matching([(0, 1), (1, 0)]),
            lambda: forged_matching([(0, 2)]),
            lambda: forged_matching([(0, 1)]),
            every_pair_an_edge,
        ]
        for call in calls:
            try:
                call()
            except CertificateError:
                continue
            sys.exit("a forged verdict went unnoticed")
        print(sys.flags.optimize)
        """
    )
    src = os.path.dirname(os.path.dirname(polytope_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_building_matchings_does_not_load_networkx():
    code = textwrap.dedent(
        """
        import sys
        import galepoly.cli, galepoly.jsonio
        from galepoly import mani, polytope

        assert polytope.inner_diagonal_matching(polytope.crosspolytope(3)).perfect
        c = mani.construct_nonsimplicial_mani(12, 1, mode="full")
        assert polytope.inner_diagonal_matching(c.stacked).pairs
        print('networkx' in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(polytope_module.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_illumination_report_is_computed_once_per_polytope(monkeypatch):
    from galepoly import jsonio, mani

    computed = []
    compute = polytope_module._illumination
    monkeypatch.setattr(
        polytope_module, "_illumination", lambda poly: computed.append(poly) or compute(poly)
    )
    c = mani.construct_nonsimplicial_mani(6, 1, mode="full")
    doc = jsonio.build_report(c)
    assert [id(p) for p in computed] == [id(c.stacked)]
    assert illumination_report(c.stacked) is illumination_report(c.stacked)
    assert len(computed) == 1
    # a full report's verify decodes the polytope once for all its checks
    jsonio.verify_document(doc, ["illuminated", "unneighborly"])
    assert len(computed) == 2
    # the kept report is no field: equality and repr ignore it
    fresh = IncidencePolytope(d=c.stacked.d, vertices=c.stacked.vertices, facets=c.stacked.facets)
    assert fresh == c.stacked and hash(fresh) == hash(c.stacked)
    assert repr(fresh) == repr(c.stacked)
    assert illumination_report(fresh) == illumination_report(c.stacked)
