"""Hostile values given to the constructors only ever raise a GalepolyError.

Hypothesis feeds lists, floats, bools, None, strings that are no rationals,
nested tuples and dimensions that are no ints into ``VectorConfiguration``,
``PointConfiguration``, ``IncidencePolytope`` and ``from_pairs``.  Each call
either returns, and then holds hashable Fraction rows, or raises a
``GalepolyError``.  A fixed list of such values is run once more under
``python -O``.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import galepoly
from galepoly.errors import GalepolyError
from galepoly.gale import PointConfiguration
from galepoly.polytope import IncidencePolytope
from galepoly.spanning import VectorConfiguration

CONFIGURATIONS = (VectorConfiguration, PointConfiguration)

ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.sampled_from(["1/2", "-3", "1/0", "abc", "", "0.5", "1e3", " 2 "]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)
DIMENSIONS = st.one_of(st.integers(-1, 3), VALUES)
LABELS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=4).map(tuple),
    VALUES,
)
ROWS = st.one_of(
    st.lists(st.lists(ATOMS, max_size=3), max_size=4),
    st.lists(st.lists(ATOMS, max_size=3).map(tuple), max_size=4).map(tuple),
    VALUES,
)


def _call(make):
    """The result of ``make()``, or None when it raised a GalepolyError."""
    try:
        return make()
    except GalepolyError:
        return None


def _check_rows(config) -> None:
    if config is None:
        return
    hash(config)
    assert isinstance(config.coords, tuple)
    assert all(isinstance(row, tuple) for row in config.coords)
    assert all(type(a) is Fraction for row in config.coords for a in row)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CONFIGURATIONS), DIMENSIONS, LABELS, ROWS)
def test_configurations_return_or_raise_a_galepoly_error(cls, dim, labels, rows):
    _check_rows(_call(lambda: cls(dim, labels, rows)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(CONFIGURATIONS),
    DIMENSIONS,
    st.one_of(st.lists(st.tuples(VALUES, ROWS | VALUES), max_size=4), VALUES),
)
def test_from_pairs_returns_or_raises_a_galepoly_error(cls, dim, pairs):
    _check_rows(_call(lambda: cls.from_pairs(dim, pairs)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    DIMENSIONS,
    LABELS,
    st.one_of(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=3), max_size=4), VALUES),
)
def test_polytopes_return_or_raise_a_galepoly_error(d, vertices, facets):
    poly = _call(lambda: IncidencePolytope(d, vertices, facets))
    if poly is not None:
        hash(poly)


BAD_CALLS = textwrap.dedent(
    """
    import sys
    from galepoly.errors import GalepolyError
    from galepoly.gale import PointConfiguration
    from galepoly.polytope import IncidencePolytope
    from galepoly.spanning import VectorConfiguration

    calls = []
    for cls in (VectorConfiguration, PointConfiguration):
        calls += [
            lambda cls=cls: cls(1, ("a", "b"), ((0.5,), (-1,))),
            lambda cls=cls: cls(1, ("a",), ((True,),)),
            lambda cls=cls: cls(1, ("a",), (None,)),
            lambda cls=cls: cls(1, ("a",), (((1,),),)),
            lambda cls=cls: cls(1, ("a",), ("1",)),
            lambda cls=cls: cls("1", ("a",), ((1,),)),
            lambda cls=cls: cls(True, ("a",), ((1,),)),
            lambda cls=cls: cls(1, ["a"], ((1,),)),
            lambda cls=cls: cls(1, ("a", "a"), ((1,), (2,))),
            lambda cls=cls: cls.from_pairs(1, [("a", ["abc"])]),
            lambda cls=cls: cls.from_pairs(1, [("a", ["1/0"])]),
            lambda cls=cls: cls.from_pairs(1, None),
        ]
    calls += [
        lambda: IncidencePolytope("1", ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))),
        lambda: IncidencePolytope(2, ("a", "b", "c"), None),
        lambda: IncidencePolytope(2, ("a", "b", "c"), ((["a"], "b"),)),
    ]
    for call in calls:
        try:
            call()
        except GalepolyError:
            continue
        sys.exit("a bad value was accepted")
    print(sys.flags.optimize, len(calls))
    """
)


def test_bad_values_raise_a_galepoly_error_under_optimize():
    src = os.path.dirname(os.path.dirname(galepoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BAD_CALLS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "27"]
