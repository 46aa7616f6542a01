"""Differential tests: the integer kernels against the Fraction reference.

``fraction_kernels`` holds the Fraction-tableau simplex and elimination the
library used before it pivoted on integers, and the point-side hull test
before the library moved its inner-diagonal test to the Gale dual.  The
kernels must give exactly the same Fractions: same feasible point or
Farkas vector, same rank, kernel basis and solution.  The Gale-side
diagonal test (``mani.hull_flags``) must give the reference's verdict on
each pair's midpoint, with a certificate that is an affine dependence of
the points, positive off the pair.  ``_eliminate`` tuples are not compared, since
its rows are integers over a common denominator and row scaling
legitimately changes the reduced rhs of a zero row (though never whether it
is zero).
"""

import random
from fractions import Fraction

import certify_reference
import fraction_kernels as ref
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galepoly import lp
from galepoly.gale import PointConfiguration
from galepoly.linalg import ExactMatrix
from galepoly.mani import construct_nonsimplicial_mani, dual_spanning_report, hull_flags

QQ = Fraction


def _rational(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.3:
        return QQ(0)
    if roll < 0.7:
        return QQ(rng.randint(-3, 3))
    return QQ(rng.randint(-9, 9), rng.randint(1, 7))


def _random_lp(rng: random.Random):
    m = rng.randint(1, 5)
    n = rng.randint(1, 8)
    cols = [tuple(_rational(rng) for _ in range(m)) for _ in range(n)]
    return cols, tuple(_rational(rng) for _ in range(m))


def _degenerate_lp(rng: random.Random):
    """Repeated and scaled columns, b a nonnegative combination with ties."""
    m = rng.randint(2, 5)
    base = [tuple(QQ(rng.randint(-2, 2)) for _ in range(m)) for _ in range(rng.randint(1, 4))]
    cols = []
    for _ in range(rng.randint(2, 9)):
        v = rng.choice(base)
        cols.append(tuple(QQ(rng.choice((1, 2, 3)), rng.choice((1, 2))) * a for a in v))
    b = [QQ(0)] * m
    for c in rng.sample(cols, rng.randint(1, len(cols))):
        b = [x + y for x, y in zip(b, c)]
    if rng.random() < 0.3:
        b = [-x for x in b]
    return cols, tuple(b)


def _check_lp(cols, b):
    assert lp.solve_feasibility(cols, b) == ref.solve_feasibility(cols, b)


def _check_matrix(entries, cols, b):
    mat = ExactMatrix(entries, cols=cols)
    assert mat.rank() == ref.rank(entries, cols)
    kernel = mat.kernel_basis()
    assert [kernel.column(j) for j in range(kernel.cols)] == ref.kernel_basis(entries, cols)
    assert mat.solve(b) == ref.solve(entries, cols, b)
    # one elimination for several right-hand sides, each as if alone: b, a
    # consistent column (the sum of the columns), and b plus that column
    rowsum = [sum(row, QQ(0)) for row in entries]
    rhs = [b, rowsum, [x + y for x, y in zip(b, rowsum)]]
    assert mat.solve_columns(rhs) == tuple(ref.solve(entries, cols, v) for v in rhs)


def test_solve_feasibility_matches_reference_on_random_lps():
    rng = random.Random(20261018)
    for _ in range(1500):
        _check_lp(*_random_lp(rng))


def test_solve_feasibility_matches_reference_on_degenerate_lps():
    rng = random.Random(77)
    for _ in range(800):
        _check_lp(*_degenerate_lp(rng))


def test_solve_feasibility_matches_reference_on_zero_rhs():
    rng = random.Random(5)
    for _ in range(400):
        cols, b = _random_lp(rng)
        _check_lp(cols, tuple(QQ(0) for _ in b))
    assert lp.solve_feasibility([], ()) == ref.solve_feasibility([], ())
    assert lp.solve_feasibility([(), ()], ()) == ref.solve_feasibility([(), ()], ())


def test_solve_feasibility_matches_reference_on_a_build(monkeypatch):
    """Every LP of a d = 6 certificate build and its dual 2-spanning scan.

    The build reuses what earlier LPs proved, so the LPs of the re-solving
    reference paths (``certify_reference``) are recorded as well.
    """
    calls = []
    kernel = lp.solve_feasibility

    def recording(columns, b):
        calls.append((columns, b))
        return kernel(columns, b)

    monkeypatch.setattr(lp, "solve_feasibility", recording)
    construction = construct_nonsimplicial_mani(6, mode="certificate")
    dual = dual_spanning_report(construction, k=2).dual
    certify_reference.construct_certificate(construction)
    certify_reference.is_minimal_k_spanning(dual, 2)
    monkeypatch.undo()
    assert len(calls) > 300
    for columns, b in calls:
        _check_lp(columns, b)


def _hull_pairs(rng: random.Random, branch: str):
    """Points and index pairs (perhaps i = j) on the given side of their hull.

    ``interior`` takes random pairs of full-dimensional points, ``boundary``
    pairs of the points on which the first coordinate is largest, and
    ``flat`` puts every point on one coordinate hyperplane.
    """
    d = rng.randint(1, 4)
    n = rng.randint(d + 1, d + 5) if branch == "interior" else rng.randint(1, 7)
    pts = [[_rational(rng) for _ in range(d)] for _ in range(n)]
    if branch == "interior":
        for c in range(d):  # a simplex around the origin keeps the hull full
            pts[c] = [QQ(3) if k == c else QQ(0) for k in range(d)]
        pts[d] = [QQ(-3)] * d
        rng.shuffle(pts)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
    elif branch == "boundary":  # the first coordinate is largest at the midpoint
        top = max(p[0] for p in pts)
        face = [i for i, p in enumerate(pts) if p[0] == top]
        pairs = [(rng.choice(face), rng.choice(face)) for _ in range(2)]
    else:
        c, v = rng.randrange(d), _rational(rng)
        for p in pts:
            p[c] = v
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
    return [tuple(p) for p in pts], pairs


def _check_diagonals(points, pairs):
    flags = list(hull_flags(PointConfiguration.from_pairs(len(points[0]), enumerate(points)), (), pairs))
    lifted = [(QQ(1),) + p for p in points]
    for (i, j), c in zip(pairs, flags):
        mid = tuple((a + b) / 2 for a, b in zip(points[i], points[j]))
        assert (c is not None) == ref.interior_point_test(points, mid)[0], (points, i, j)
        if c is not None:
            assert all(c[u] > 0 for u in range(len(points)) if u not in (i, j))
            assert all(sum(w * a for w, a in zip(c, col)) == 0 for col in zip(*lifted))
    return flags


def test_gale_side_diagonals_match_reference_on_every_branch():
    rng = random.Random(1968)
    for branch in ("interior", "boundary", "flat"):
        verdicts = set()
        for _ in range(250):
            verdicts.update(c is not None for c in _check_diagonals(*_hull_pairs(rng, branch)))
        assert verdicts == ({True, False} if branch == "interior" else {False}), branch


def test_matrix_kernels_match_reference():
    rng = random.Random(314159)
    for _ in range(800):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = [[_rational(rng) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.4:
            # force dependent rows so the zero-row branch of solve runs
            entries.append([QQ(2) * a - b for a, b in zip(entries[0], entries[-1])])
        b = [_rational(rng) for _ in entries]
        _check_matrix(entries, cols, b)


def test_matrix_kernels_match_reference_on_edge_shapes():
    _check_matrix([[QQ(0), QQ(0)], [QQ(0), QQ(0)]], 2, [QQ(0), QQ(1)])
    _check_matrix([[QQ(0), QQ(0)], [QQ(0), QQ(0)]], 2, [QQ(0), QQ(0)])
    _check_matrix([[QQ(1, 2)], [QQ(-1, 3)]], 1, [QQ(1), QQ(-2, 3)])
    _check_matrix([[QQ(3, 7), QQ(0), QQ(-1)]], 3, [QQ(5, 2)])


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    cols = draw(st.lists(st.tuples(*[RATIONALS] * m), min_size=n, max_size=n))
    b = draw(st.tuples(*[RATIONALS] * m))
    return cols, b


@st.composite
def systems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entries = draw(
        st.lists(st.lists(RATIONALS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    b = draw(st.lists(RATIONALS, min_size=rows, max_size=rows))
    return entries, cols, b


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lps())
def test_solve_feasibility_matches_reference_hypothesis(case):
    _check_lp(*case)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_matrix_kernels_match_reference_hypothesis(case):
    _check_matrix(*case)


@st.composite
def hull_pairs(draw):
    """Points with pairs of their indices (perhaps i = j), sometimes pairs of
    the points on which the first coordinate is largest, so on the boundary."""
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=1, max_size=6))
    indices = range(len(points))
    if draw(st.booleans()):
        top = max(p[0] for p in points)
        indices = [i for i, p in enumerate(points) if p[0] == top]
    index = st.sampled_from(indices)
    return points, draw(st.lists(st.tuples(index, index), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hull_pairs())
def test_gale_side_diagonals_match_reference_hypothesis(case):
    _check_diagonals(*case)
