"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained, pins its expected values, and asserts its own
wall-clock budget, so ``pytest -v`` gives one pass/fail line per criterion.
The randomized suites here use different seeds from tests/test_properties.py.
"""

import math
import random
import time

from fraction_kernels import interior_point_test

from galepoly.gale import (
    all_points_are_vertices,
    enumerate_facet_complements,
    gale_dual,
    incidence_from_gale,
    realize,
    verify_facets_geometrically,
)
from galepoly.linalg import QQ, dot
from galepoly.lp import positively_spans
from galepoly.mani import (
    build_block_diagram,
    construct_nonsimplicial_mani,
    formula_table,
    formulas,
    hull_flags,
    mani_simplicial,
    spanning_bound_counterexample,
)
from galepoly.polytope import (
    crosspolytope,
    gamma,
    illumination_report,
    inner_diagonal_matching,
)
from galepoly.spanning import VectorConfiguration, is_positively_k_spanning


def test_criterion_1_vertex_count_formulas():
    t0 = time.monotonic()
    assert (formulas(36).p, formulas(36).M) == (6, 49)
    assert (formulas(16).p, formulas(16).M) == (4, 25)
    assert (formulas(6).p, formulas(6).M) == (2, 12)
    assert build_block_diagram(6).p == 3  # builds raise small p to 3
    assert (formulas(7).p, formulas(7).M) == (3, 14)

    first_below = None
    for d in range(1, 10001):
        row = formulas(d)
        # independent desk computation of every field
        p = 1
        while p * (p + 1) < d:
            p += 1
        q = -(-d // p)
        k = math.isqrt(4 * d)
        if k * k < 4 * d:
            k += 1  # k = ceil(2 sqrt(d))
        nu = d + 1 + k
        # ceil((sqrt(d) + 1)^2) = d + 1 + ceil(2 sqrt(d)) unless d is square
        s = math.isqrt(d)
        ceil_square = (s + 1) ** 2 if s * s == d else d + 1 + k
        assert (row.p, row.q, row.nu) == (p, q, nu), d
        assert row.nu == ceil_square, d
        assert row.M == min(2 * d, row.nu), d
        if first_below is None and row.nu < 2 * d:
            first_below = d
    assert first_below == 8
    assert formula_table(100)[1] == 8
    assert formula_table(7)[1] is None
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_dimension_6_full_build():
    t0 = time.monotonic()
    c = construct_nonsimplicial_mani(6)
    assert c.mode == "full" and c.all_checks_pass()

    base = c.base
    assert base.f0 == 9
    assert len(base.facets) == 15
    assert sorted(len(f) for f in base.facets) == [6] * 9 + [7] * 6

    stacked = c.stacked
    assert stacked.f0 == 12 == formulas(6).M
    assert c.is_mani_size
    rep = illumination_report(stacked)
    assert rep.illuminated and rep.unneighborly
    assert any(len(f) > 6 for f in stacked.facets)  # nonsimplicial

    # combinatorial facets agree with exact geometric facets of the
    # realized base point set
    points = realize(c.plan.config)
    assert incidence_from_gale(c.plan.config) == base
    assert verify_facets_geometrically(points, base.facets)
    assert all_points_are_vertices(points)
    assert time.monotonic() - t0 < 5.0


def test_criterion_3_dimension_16_full_build():
    t0 = time.monotonic()
    c = construct_nonsimplicial_mani(16, ell=3)
    assert (c.plan.p, c.plan.q, c.plan.ell) == (4, 4, 3)
    assert c.all_checks_pass()
    assert c.f0 == 25 == formulas(16).M

    designated = c.plan.designated
    assert [name for name, _ in designated] == ["B1", "B2", "B3", "T1", "Bprime"]
    comps = [frozenset(comp) for _, comp in designated]
    assert all(len(s) == 4 for s in comps)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert not (comps[i] & comps[j])

    # each designated complement leaves a simplex facet of the base
    facet_sets = {frozenset(f) for f in c.base.facets}
    verts = frozenset(c.base.vertices)
    for comp in comps:
        facet = verts - comp
        assert facet in facet_sets
        assert len(facet) == 16 == c.base.d

    assert any(len(f) > 16 for f in c.stacked.facets)  # nonsimplicial
    assert illumination_report(c.stacked).illuminated
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_dimension_36_counterexample():
    t0 = time.monotonic()
    report = spanning_bound_counterexample()
    c = report.construction

    assert c.f0 == 49 == formulas(36).M
    assert len(c.points) == 49 and c.points.d == 36
    assert c.checks["allPointsVertices"]
    assert c.checks["illuminated"]
    assert c.checks["unneighborly"]
    assert c.checks["nonsimplicial"]
    assert c.all_checks_pass()

    assert report.k == 2
    assert len(report.dual) == 49 and report.dual.m == 12
    assert report.classical_bound == 48
    assert report.spanning and report.minimal
    assert report.exceeds_bound  # 49 > 2 * 2 * 12
    assert len(report.per_index) == 49
    assert report.verdict()
    assert time.monotonic() - t0 < 600.0


def test_criterion_5_crosspolytope_catalogue():
    t0 = time.monotonic()
    for d in range(1, 6):
        c = crosspolytope(d)
        assert c.f0 == 2 * d == formulas(d).M
        assert all(len(f) == d for f in c.facets)  # simplicial
        rep = illumination_report(c)
        assert rep.illuminated
        matching = inner_diagonal_matching(c)
        assert matching.perfect
        assert len(matching.pairs) * 2 == c.f0
        for u, v in matching.pairs:
            assert u.lstrip("+-") == v.lstrip("+-")  # antipodal pairs
    for d in range(1, 5):
        assert gamma(crosspolytope(d)).value == 1
    assert time.monotonic() - t0 < 30.0


def _random_nonzero(rng, m):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(m))
        if any(v):
            return v


def _make_config(m, coords):
    return VectorConfiguration.from_pairs(
        m, [(f"v{i}", tuple(QQ(c) for c in v)) for i, v in enumerate(coords)]
    )


def _random_2spanning(rng):
    m = rng.randint(1, 3)
    n = rng.randint(2 * (m + 1), 9)
    if rng.random() < 0.4:
        for _ in range(20):
            config = _make_config(m, [_random_nonzero(rng, m) for _ in range(n)])
            if is_positively_k_spanning(config, 2).spanning:
                return config
    base = [tuple(QQ(int(i == j)) for j in range(m)) for i in range(m)]
    base.append(tuple(QQ(-1) for _ in range(m)))
    coords = []
    for _ in range(2):
        scale = QQ(rng.randint(1, 4))
        coords.extend(tuple(scale * x for x in u) for u in base)
    while len(coords) < n:
        coords.append(tuple(QQ(c) for c in _random_nonzero(rng, m)))
    rng.shuffle(coords)
    return _make_config(m, coords)


def test_criterion_6_property_suites():
    # suite A: >= 200 Gale round trips with geometric cross-validation,
    # the Caratheodory size bound on every enumerated coface, an
    # inner-diagonal combinatorial-vs-geometric comparison on >= 50
    # low-dimensional instances, and illumination implying unneighborliness
    # on every instance
    rng = random.Random(424242)
    low_dim_checked = 0
    for trial in range(200):
        config = _random_2spanning(rng)
        n, m = len(config), config.m
        cofaces = enumerate_facet_complements(config)
        assert all(1 <= len(cf) <= m + 1 for cf in cofaces), trial

        points = realize(config)
        assert points.d == n - m - 1
        assert all_points_are_vertices(points)
        poly = incidence_from_gale(config)
        assert verify_facets_geometrically(points, poly.facets), trial
        assert enumerate_facet_complements(gale_dual(points)) == cofaces, trial

        rep = illumination_report(poly)
        if rep.illuminated:
            assert rep.unneighborly, trial

        if points.d <= 4 and low_dim_checked < 55:
            low_dim_checked += 1
            labels, coords = points.labels, points.coords
            pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
            # the library tests the diagonals on the Gale dual, the
            # reference on the points translated by the midpoint
            for (i, j), flag in zip(pairs, hull_flags(points, (), pairs)):
                u, v = labels[i], labels[j]
                combinatorial = not any(
                    u in f and v in f for f in poly.facets
                )
                mid = tuple(
                    (a + b) / 2 for a, b in zip(coords[i], coords[j])
                )
                geometric, _ = interior_point_test(coords, mid)
                assert combinatorial == geometric == (flag is not None), (trial, u, v)
    assert low_dim_checked >= 50

    # suite B: >= 1000 positive-spanning alternatives, each certificate
    # re-verified by direct arithmetic
    rng = random.Random(424243)
    for trial in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 2 * m + 3)
        vectors = [
            tuple(QQ(rng.randint(-4, 4)) for _ in range(m)) for _ in range(n)
        ]
        if trial % 7 == 0:
            vectors = [v[:-1] + (QQ(0),) for v in vectors]
        spans, cert = positively_spans(vectors, None)
        assert spans == (cert.kind == "PositiveDependence")
        if cert.kind == "PositiveDependence":
            assert all(l > 0 for l in cert.lam)
            assert all(
                sum(l * v[i] for l, v in zip(cert.lam, vectors)) == 0
                for i in range(m)
            ), trial
        elif cert.kind == "StiemkeWitness":
            y = cert.functional
            assert any(c != 0 for c in y)
            assert all(dot(y, v) >= 0 for v in vectors), trial
            assert any(dot(y, v) > 0 for v in vectors), trial
        else:
            direction = cert.direction
            assert any(c != 0 for c in direction)
            assert all(dot(direction, v) == 0 for v in vectors), trial


def test_criterion_7_simplicial_variant():
    t0 = time.monotonic()
    s16 = mani_simplicial(16)
    assert s16.f0 == 25 == formulas(16).M
    assert s16.is_mani_size
    assert s16.all_checks_pass()
    assert set(s16.checks) == {
        "complementsCoverVertices",
        "simplicial",
        "illuminated",
        "unneighborly",
        "f0MatchesFormula",
    }
    assert all(len(f) == 16 for f in s16.stacked.facets)
    assert illumination_report(s16.stacked).illuminated

    # the same construction at d = 4 is sound but not minimum-size:
    # it has nu(4) = 9 vertices while the crosspolytope achieves M(4) = 8
    s4 = mani_simplicial(4)
    assert s4.f0 == 9
    assert s4.all_checks_pass()
    assert not s4.is_mani_size
    assert formulas(4).M == 8 == crosspolytope(4).f0
    assert time.monotonic() - t0 < 60.0
