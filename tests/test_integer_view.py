"""Coface LPs on a configuration's integer view, against its Fraction rows.

``VectorConfiguration.integer_coords`` is the vectors times one common lcm
of all their denominators.  ``gale.is_coface`` and ``gale.realize`` solve
their LPs on it, and ``gale._StiemkePool`` reads its sign masks off it.  A
factor common to all vectors changes no pivot, so each certificate must be
``==`` the one the Fraction rows give, and the Fraction reference
(``fraction_kernels.strict_positive_dependence``) gives, and each mask the
one Fraction dot products give: on every coface LP of round 0 (seed 1) of
the ``enumerate`` workload, on every ``realize`` LP of round 0 of
``certify``, and on hypothesis configurations.

``PointConfiguration.lifted`` is the same kind of view of a point set: the
rows (1, p_u) times one common lcm, each a positive integer multiple of
the row's own ``integer_multiple``.
"""

import functools
from fractions import Fraction

import fraction_kernels as ref
import incidence_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_certificate_checker import _no_fraction_coercion, _workloads

from galepoly import gale, linalg, mani
from galepoly.gale import PointConfiguration
from galepoly.linalg import ExactMatrix, common_scale, dot, integer_multiple
from galepoly.lp import strict_positive_dependence
from galepoly.spanning import VectorConfiguration

QQ = Fraction


@functools.cache
def _recorded(name: str, owner, attr: str) -> tuple:
    """``(args, result)`` of every call of ``owner.attr`` in round 0 (seed 1)
    of a workload."""
    workloads = _workloads()
    cls = {"certify": workloads.Certify, "enumerate": workloads.Enumerate}[name]
    real = getattr(owner, attr)
    calls = []

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    setattr(owner, attr, recording)
    try:
        for req in cls(1).round(0):
            cls.execute(req)
    finally:
        setattr(owner, attr, real)
    return tuple(calls)


def _fraction_masks(config, functional) -> tuple[int, int]:
    """The ``pos`` and ``neg`` masks of a functional by Fraction dot products."""
    values = [dot(functional, u) for u in config.coords]
    return (sum(1 << i for i, v in enumerate(values) if v > 0),
            sum(1 << i for i, v in enumerate(values) if v < 0))


def _pool_masks(config, functional) -> tuple[int, int]:
    pool = gale._StiemkePool(config.integer_coords)
    pool.add(functional)
    [(pos, neg, kept)] = pool.entries
    assert kept == functional
    return pos, neg


def _check_coface(config, subset, report) -> None:
    fraction = strict_positive_dependence(config.coords, subset)
    assert report.certificate == fraction == ref.strict_positive_dependence(config.coords, subset)
    if not report.is_coface:
        assert _pool_masks(config, fraction.functional) == _fraction_masks(config, fraction.functional)


def test_every_coface_lp_of_an_enumerate_round_gives_the_fraction_certificate():
    calls = _recorded("enumerate", gale, "is_coface")
    assert len(calls) == 69
    assert sum(not report.is_coface for _, report in calls) == 46
    for (config, subset), report in calls:
        _check_coface(config, subset, report)


def test_every_realize_lp_of_a_certify_round_gives_the_fraction_certificate():
    calls = _recorded("certify", mani, "realize")
    assert len(calls) == 3
    for (config,), _ in calls:
        everything = range(len(config))
        integer = strict_positive_dependence(config.integer_coords, everything)
        assert integer == strict_positive_dependence(config.coords, everything)
        assert integer == ref.strict_positive_dependence(config.coords, everything)


def test_the_integer_view_is_kept_and_leaves_equality_alone():
    coords = [(QQ(1, 2), QQ(-1, 3)), (QQ(0), QQ(2)), (QQ(-3, 4), QQ(1))]
    config = VectorConfiguration.from_pairs(2, zip("abc", coords))
    fresh = VectorConfiguration.from_pairs(2, zip("abc", coords))
    # one factor, 12, for every vector, not 6, 1 and 4 apiece
    assert config.integer_coords == ((6, -4), (0, 24), (-9, 12))
    assert config.integer_coords is config.integer_coords
    assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)
    assert VectorConfiguration.from_pairs(0, zip("ab", [(), ()])).integer_coords == ((), ())


_rationals = st.one_of(
    st.integers(-3, 3).map(QQ),
    st.builds(QQ, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def _cases(draw):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    coords = [[draw(_rationals) for _ in range(m)] for _ in range(n)]
    config = VectorConfiguration.from_pairs(m, zip(map(str, range(n)), coords))
    return config, tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_the_integer_view_gives_the_fraction_certificates_on_hypothesis_inputs(case):
    config, subset = case
    report = gale.is_coface(config, subset)
    _check_coface(config, subset, report)
    if config.m == 0:
        # the hull of any nonempty subset is the point 0
        assert report.is_coface


def test_a_full_build_enumerates_its_cofaces_in_integers(monkeypatch):
    config = mani.build_block_diagram(12).config
    expected = incidence_reference.enumerate_facet_complements(config)
    # integer rows with integer certificates never reach a Fraction; only
    # the direction classes read the Fraction vectors, as they are
    # (``primitive``)
    monkeypatch.setattr(linalg, "qq", lambda x: x if type(x) is QQ else _no_fraction_coercion(x))
    assert gale.enumerate_facet_complements(config) == expected


def test_the_kernel_runs_on_integer_views_without_a_fraction(monkeypatch):
    # ExactMatrix takes an integer view as it is: no entry of a d = 6
    # base's lifted rows or of its dual's integer rows becomes a Fraction
    # on the way in, and each rank and kernel is the one the Fraction rows
    # give; scaling the rows scales the solutions, so each solve is checked
    # by matvec on the integer rows and for which rhs it finds none
    base = mani.construct_nonsimplicial_mani(6, 1, p=3, mode="certificate").base_points
    dual = base.gale_dual
    views = [(base.lifted, [(QQ(1),) + p for p in base.coords]), (dual.integer_coords, dual.coords)]
    cases = []
    for ints, fractions in views:
        reference = ExactMatrix(fractions)
        rhs = [tuple(r[j] for r in ints) for j in range(len(ints[0]))] + [(1,) + (0,) * (len(ints) - 1)]
        solved = [x is not None for x in reference.solve_columns(rhs)]
        cases.append((ints, rhs, reference.rank(), reference.kernel_basis(), solved))
    assert [solved[-1] for *_, solved in cases] == [False, False]
    monkeypatch.setattr(linalg, "qq", _no_fraction_coercion)
    for ints, rhs, rank, kernel, solved in cases:
        matrix = ExactMatrix(ints)
        assert all(got is row for got, row in zip(matrix.entries, ints))
        assert (matrix.rank(), matrix.kernel_basis()) == (rank, kernel)
        solutions = matrix.solve_columns(rhs)
        assert [x is not None for x in solutions] == solved
        assert all(matrix.matvec(x) == b for x, b in zip(solutions, rhs) if x is not None)


_entries = st.one_of(st.integers(-9, 9), st.builds(QQ, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def _point_sets(draw):
    # ints and Fractions mixed, as PointConfiguration takes them
    d = draw(st.integers(0, 4))
    coords = draw(st.lists(st.tuples(*[_entries] * d), min_size=1, max_size=7))
    return PointConfiguration(d=d, labels=tuple(f"p{i}" for i in range(len(coords))), coords=tuple(coords))


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_the_lifted_view_is_one_common_scale_of_the_lifted_rows(points):
    rows = [(QQ(1),) + p for p in points.coords]
    lifted = points.lifted
    assert lifted == common_scale(rows) and lifted is points.lifted
    for row, view in zip(rows, lifted):
        own = integer_multiple(row)
        factor = view[0] // own[0]
        assert factor >= 1 and list(view) == [factor * a for a in own]
        assert all(type(a) is int for a in view)
        assert [(a > 0) - (a < 0) for a in view] == [(a > 0) - (a < 0) for a in own]
