"""Seeded randomized invariants across the whole library.

Each suite draws instances from a fixed-seed ``random.Random`` so failures
reproduce exactly.  The invariants are cross-validations between independent
computations (combinatorial vs geometric, solver vs arithmetic), not
re-assertions of a single code path.
"""

import random
from fractions import Fraction

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
from galepoly.lp import (
    positively_spans,
    strict_positive_dependence,
    verify_certificate,
)
from galepoly.polytope import illumination_report
from galepoly.spanning import (
    VectorConfiguration,
    is_minimal_k_spanning,
    is_positively_k_spanning,
    standard_minimal_config,
)


def _config(m, coords):
    return VectorConfiguration.from_pairs(
        m, [(f"v{i}", tuple(QQ(c) for c in v)) for i, v in enumerate(coords)]
    )


def _random_nonzero(rng, m):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(m))
        if any(v):
            return v


def _doubled_spanning_coords(rng, m, n):
    """n >= 2m+2 vectors containing two disjoint positively spanning sets.

    Two scaled copies of {e_1, ..., e_m, -(e_1+...+e_m)} survive any single
    deletion, so the configuration is positively 2-spanning by construction;
    leftover slots are filled with random noise vectors.
    """
    base = [tuple(QQ(int(i == j)) for j in range(m)) for i in range(m)]
    base.append(tuple(QQ(-1) for _ in range(m)))
    coords = []
    for _ in range(2):
        scale = QQ(rng.randint(1, 4))
        coords.extend(tuple(scale * x for x in u) for u in base)
    while len(coords) < n:
        coords.append(tuple(QQ(c) for c in _random_nonzero(rng, m)))
    rng.shuffle(coords)
    return coords


def _random_2spanning_config(rng):
    m = rng.randint(1, 3)
    n = rng.randint(2 * (m + 1), 9)
    if rng.random() < 0.4:
        # rejection-sampled fully random instance, if one shows up quickly
        for _ in range(20):
            coords = [_random_nonzero(rng, m) for _ in range(n)]
            config = _config(m, coords)
            if is_positively_k_spanning(config, 2).spanning:
                return config
    return _config(m, _doubled_spanning_coords(rng, m, n))


def _inner_diagonals_combinatorial(poly):
    out = set()
    verts = poly.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, v = verts[i], verts[j]
            if not any(u in f and v in f for f in poly.facets):
                out.add((u, v))
    return out


def _inner_diagonals_geometric(points):
    out = set()
    labels = points.labels
    coords = points.coords
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            mid = tuple(
                (a + b) / 2 for a, b in zip(coords[i], coords[j])
            )
            inside, _ = interior_point_test(coords, mid)
            if inside:
                out.add((labels[i], labels[j]))
    return out


def test_gale_round_trip_on_random_2spanning_configs():
    rng = random.Random(977001)
    low_dim_checked = 0
    for trial in range(120):
        config = _random_2spanning_config(rng)
        n, m = len(config), config.m
        cofaces = enumerate_facet_complements(config)
        # minimal cofaces carry one-dimensional dependencies
        assert all(1 <= len(c) <= m + 1 for c in cofaces), (trial, cofaces)

        points = realize(config)
        assert points.d == n - m - 1
        assert points.labels == config.labels
        assert all_points_are_vertices(points)

        poly = incidence_from_gale(config)
        assert poly.f0 == n
        assert verify_facets_geometrically(points, poly.facets), trial

        # dualizing the realized points recovers the same coface family
        dual = gale_dual(points)
        assert dual.m == m
        assert enumerate_facet_complements(dual) == cofaces, trial

        rep = illumination_report(poly)
        if rep.illuminated:
            assert rep.unneighborly, trial

        if points.d <= 4 and low_dim_checked < 60:
            low_dim_checked += 1
            combinatorial = _inner_diagonals_combinatorial(poly)
            geometric = _inner_diagonals_geometric(points)
            assert combinatorial == geometric, (trial, combinatorial, geometric)
    assert low_dim_checked >= 50


def test_positive_dependence_and_stiemke_witness_are_exclusive():
    rng = random.Random(977002)
    kinds = {"PositiveDependence": 0, "StiemkeWitness": 0, "RankDeficiency": 0}
    for trial in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(1, 2 * m + 3)
        vectors = [
            tuple(QQ(rng.randint(-4, 4)) for _ in range(m)) for _ in range(n)
        ]
        if trial % 5 == 0:
            # flatten into a coordinate hyperplane to exercise rank deficiency
            vectors = [v[:-1] + (QQ(0),) for v in vectors]
        spans, cert = positively_spans(vectors, None)
        kinds[cert.kind] += 1
        assert spans == (cert.kind == "PositiveDependence")
        if cert.kind != "RankDeficiency":
            # the simplex-based alternative agrees with the rank-first wrapper
            assert strict_positive_dependence(vectors, None).kind == cert.kind
        # independent arithmetic re-verification, not just the library's own
        if cert.kind == "PositiveDependence":
            assert cert.lam is not None and len(cert.lam) == n
            assert all(l > 0 for l in cert.lam)
            total = tuple(
                sum(l * v[i] for l, v in zip(cert.lam, vectors))
                for i in range(m)
            )
            assert all(x == 0 for x in total), trial
        elif cert.kind == "StiemkeWitness":
            # the witness functional is nonnegative on every vector and
            # positive on at least one, which rules out any positive
            # dependence: pairing it with sum(lam_i v_i) = 0 would force a
            # strictly positive left side
            y = cert.functional
            assert y is not None and any(c != 0 for c in y)
            assert all(dot(y, v) >= 0 for v in vectors), trial
            assert any(dot(y, v) > 0 for v in vectors), trial
        else:
            direction = cert.direction
            assert direction is not None and any(c != 0 for c in direction)
            assert all(dot(direction, v) == 0 for v in vectors), trial
        assert verify_certificate(vectors, None, cert), trial
    # the generator must actually exercise all three outcomes
    assert all(count > 0 for count in kinds.values()), kinds


def test_k_spanning_is_monotone_in_k():
    rng = random.Random(977003)
    for trial in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 9)
        config = _config(
            m, [_random_nonzero(rng, m) for _ in range(n)]
        )
        verdicts = [
            is_positively_k_spanning(config, k).spanning for k in (1, 2, 3)
        ]
        for weaker, stronger in zip(verdicts, verdicts[1:]):
            assert not stronger or weaker, (trial, verdicts)


def test_standard_configs_are_minimal_for_small_m_and_k():
    for m in range(1, 5):
        for k in range(1, 4):
            config = standard_minimal_config(m, k)
            assert len(config) == 2 * k * m
            base, minimality = is_minimal_k_spanning(config, k)
            assert base.spanning, (m, k)
            assert minimality.minimal, (m, k)


def test_greedy_pruning_lands_in_the_classical_size_window():
    # a minimal positively spanning set in dimension m has between m+1 and
    # 2m members; greedy pruning of random spanning configs must land there
    rng = random.Random(977004)
    pruned = 0
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(2 * m + 1, 2 * m + 4)
        config = _config(m, [_random_nonzero(rng, m) for _ in range(n)])
        if not is_positively_k_spanning(config, 1).spanning:
            continue
        while True:
            base, minimality = is_minimal_k_spanning(config, 1)
            assert base.spanning
            if minimality.minimal:
                break
            config = config.subconfiguration(j for j in range(len(config)) if j != minimality.removable_index)
        assert m + 1 <= len(config) <= 2 * m, (m, config.coords)
        pruned += 1
    assert pruned >= 15


def test_midpoint_interiority_matches_fraction_arithmetic():
    # spot-check the interior tester against hand arithmetic on a square
    square = [
        (QQ(1), QQ(1)),
        (QQ(-1), QQ(1)),
        (QQ(-1), QQ(-1)),
        (QQ(1), QQ(-1)),
    ]
    inside, _ = interior_point_test(square, (Fraction(1, 2), Fraction(0)))
    assert inside
    on_edge, cert = interior_point_test(square, (QQ(1), QQ(0)))
    assert not on_edge
    assert cert.kind == "StiemkeWitness"
