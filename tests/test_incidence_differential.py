"""Differential tests: the bitmask polytope, pooled enumeration, generated
cyclic facets and the coface-based 2-spanning verdict against the paths
they replaced.

``incidence_reference`` holds the frozenset polytope code, the
one-LP-per-candidate facet enumeration, the pooled enumeration that scans
every candidate against the cofaces found so far, and the evenness filter
over all d-subsets.  Each must agree exactly with the library: the same
canonical facets, edges, diagonals and partners, the same error (type and
message) on an invalid facet family or stacking request, the same minimal
cofaces in the same order (also with planted copies, multiples and zero
vectors), the coface LPs of the filtering reference run on one vector
per direction, never two on the same rows, and the same cyclic facets.  Matchings must have networkx's size and be made of inner
diagonals.  The 2-spanning verdict read off the cofaces must equal the
deletion scan's.
"""

import random
from fractions import Fraction

import incidence_reference as ref
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_certificate_checker import _workloads
from test_polytope_goldens import assert_derived_data_fresh

from galepoly import gale, polytope
from galepoly.errors import GalepolyError, NotTwoSpanningError
from galepoly.lp import KIND_STIEMKE_WITNESS, DependenceCertificate, verify_certificate
from galepoly.mani import build_block_diagram, construct_nonsimplicial_mani, mani_simplicial
from galepoly.polytope import (
    IncidencePolytope,
    crosspolytope,
    cyclic_polytope,
    illumination_report,
    inner_diagonal_matching,
    inner_diagonals,
    is_edge,
    missing_edges,
    simplex,
    stack_simplex_facet,
)
from galepoly.spanning import VectorConfiguration, is_positively_k_spanning


def _outcome(fn, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return "ok", fn(*args)
    except GalepolyError as exc:
        return type(exc), str(exc)


def _check_polytope(poly: IncidencePolytope) -> None:
    verts, facets = poly.vertices, poly.facets
    assert ref.canonical_facets(poly.d, verts, facets) == facets
    assert_derived_data_fresh(poly)
    for i, v in enumerate(verts):
        assert poly.vertex_index(v) == i
        assert poly.facets_containing(v) == tuple(f for f in facets if v in f)
        for w in verts:
            if w != v:
                assert is_edge(poly, v, w) == ref.is_edge(verts, facets, v, w)
    assert inner_diagonals(poly) == ref.inner_diagonals(verts, facets)
    assert missing_edges(poly) == ref.missing_edges(verts, facets)
    report = illumination_report(poly)
    assert (
        report.illuminated,
        report.unneighborly,
        report.diagonal_partner,
        report.missing_edge_partner,
    ) == ref.illumination_report(verts, facets)
    matching = inner_diagonal_matching(poly)
    perfect, pairs = ref.inner_diagonal_matching(verts, facets)
    # a maximum matching is not unique, so the pairs may differ from
    # networkx's (they do on cyclic_polytope(2, 5)); size and flag may not
    assert (matching.perfect, len(matching.pairs)) == (perfect, len(pairs))
    matched = [v for pair in matching.pairs for v in pair]
    assert len(set(matched)) == len(matched)
    assert set(matching.pairs) <= set(ref.inner_diagonals(verts, facets))
    index = [tuple(map(poly.vertex_index, pair)) for pair in matching.pairs]
    assert index == sorted(index) and all(i < j for i, j in index)


def _check_stack(poly: IncidencePolytope, facet, label) -> IncidencePolytope | None:
    kind, got = _outcome(stack_simplex_facet, poly, facet, label)
    want = _outcome(ref.stack_simplex_facet, poly.d, poly.vertices, poly.facets, facet, label)
    if kind != "ok":
        assert (kind, got) == want
        return None
    assert want == ("ok", (got.vertices, got.facets))
    # the stacked polytope, masks and rows included, equals one built and
    # fully validated from scratch
    assert_derived_data_fresh(got)
    return got


def test_families_match_reference():
    polys = [crosspolytope(d) for d in range(1, 6)]
    polys += [simplex(d) for d in range(1, 7)]
    polys += [cyclic_polytope(d, n) for d in range(2, 7) for n in range(d + 1, d + 5)]
    for poly in polys:
        _check_polytope(poly)


def test_stacked_builds_match_reference():
    for d in range(3, 11):
        c = mani_simplicial(d)
        _check_polytope(c.stacked)
    for d in range(6, 11):
        for ell in range(1, build_block_diagram(d).q):
            c = construct_nonsimplicial_mani(d, ell, mode="full")
            _check_polytope(c.base)
            _check_polytope(c.stacked)


def test_random_stacking_sequences_match_reference():
    rng = random.Random(1908)
    for _ in range(40):
        d = rng.randint(2, 5)
        poly = cyclic_polytope(d, d + rng.randint(1, 4))
        for step in range(rng.randint(1, 6)):
            facet = rng.choice(poly.facets)
            label = rng.choice([None, f"a{step}", poly.vertices[0], ""])
            stacked = _check_stack(poly, facet, label)
            if stacked is not None:
                poly = stacked
        _check_polytope(poly)


def test_stacking_errors_match_reference():
    square = crosspolytope(2)
    for facet, label in [
        (("+1", "nine"), None),
        (("+1", "-1"), None),
        (("+1",), None),
        ((), None),
        (("+1", "+2"), "-2"),
        (("+1", "+2"), ""),
    ]:
        assert _check_stack(square, facet, label) is None
    # d = 1: stacking a segment's endpoint leaves that endpoint on no facet
    assert _check_stack(simplex(1), ("1",), None) is None


LABELS = "abcdefg"


@st.composite
def facet_families(draw):
    """Arbitrary facet lists, valid or not, over up to seven labels."""
    d = draw(st.integers(0, 4))
    vertices = draw(st.lists(st.sampled_from(LABELS), max_size=7))
    facets = draw(st.lists(st.lists(st.sampled_from(LABELS + "x"), max_size=5), max_size=9))
    return d, tuple(vertices), tuple(tuple(f) for f in facets)


@st.composite
def antichains(draw):
    """Distinct k-subsets of n labels, which are incomparable, and at times
    one more facet repeating or lying inside one of them."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    vertices = tuple(LABELS[:n])
    facets = draw(
        st.lists(
            st.lists(st.sampled_from(vertices), min_size=k, max_size=k, unique=True),
            min_size=1,
            max_size=12,
            unique_by=frozenset,
        )
    )
    if draw(st.booleans()):
        # a repeated facet, or one inside another: comparable, so invalid
        inner = draw(st.sampled_from(facets))
        facets.append(inner[: draw(st.integers(1, len(inner)))])
    d = draw(st.sampled_from([k, max(1, k - 1), k + 1]))
    return d, vertices, tuple(tuple(f) for f in draw(st.permutations(facets)))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(facet_families(), antichains()))
def test_construction_matches_reference_hypothesis(case):
    d, vertices, facets = case
    kind, got = _outcome(IncidencePolytope, d, vertices, facets)
    want = _outcome(ref.canonical_facets, d, vertices, facets)
    if kind != "ok":
        assert (kind, got) == want
        return
    assert want == ("ok", got.facets)
    _check_polytope(got)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(antichains(), st.data())
def test_stacking_matches_reference_hypothesis(case, data):
    kind, poly = _outcome(IncidencePolytope, *case)
    if kind != "ok":
        return
    facet = data.draw(
        st.one_of(st.sampled_from(poly.facets), st.lists(st.sampled_from(LABELS), max_size=4))
    )
    label = data.draw(st.sampled_from([None, "z0", "new", "a", ""]))
    stacked = _check_stack(poly, tuple(facet), label)
    if stacked is not None:
        _check_polytope(stacked)


# ---------------------------------------------------------------------------
# Facet enumeration with the Stiemke-witness pool


def _block_diagrams(dims=range(6, 16)):
    for d in dims:
        for ell in range(1, build_block_diagram(d).q):
            yield build_block_diagram(d, ell=ell).config


def _random_configs(seed: int, count: int):
    """Random small-integer configurations, half of them built to be
    positively 2-spanning (two copies of a positive basis plus extras)."""
    rng = random.Random(seed)
    for t in range(count):
        m = rng.randint(1, 3)
        if t % 2:
            basis = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
            basis.append(tuple(-1 for _ in range(m)))
            vectors = basis + basis
            vectors += [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(vectors)
        else:
            vectors = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(2, 8))]
        yield VectorConfiguration.from_pairs(m, [(f"v{i}", v) for i, v in enumerate(vectors)])


def test_pooled_enumeration_matches_plain_lps_on_block_diagrams():
    for config in _block_diagrams():
        got = gale.enumerate_facet_complements(config)
        assert got == ref.enumerate_facet_complements(config) == ref.enumerate_by_filtering(config)


def test_pooled_enumeration_matches_plain_lps_on_random_configurations():
    for config in _random_configs(6, 300):
        assert gale.enumerate_facet_complements(config) == ref.enumerate_facet_complements(config)


@pytest.mark.parametrize("source", ["block", "random"])
def test_every_pooled_rejection_is_certified(monkeypatch, source):
    rejections = []
    witness = gale._StiemkePool.witness

    def recording(pool, subset):
        functional = witness(pool, subset)
        if functional is not None:
            rejections.append((pool.coords, subset, functional))
        return functional

    monkeypatch.setattr(gale._StiemkePool, "witness", recording)
    configs = (
        [build_block_diagram(d).config for d in range(6, 13)]
        if source == "block"
        else list(_random_configs(7, 150))
    )
    for config in configs:
        gale.enumerate_facet_complements(config)
    monkeypatch.undo()
    assert len(rejections) > 100
    for coords, subset, functional in rejections:
        selection = [i for i in range(len(coords)) if subset >> i & 1]
        cert = DependenceCertificate(KIND_STIEMKE_WITNESS, functional=functional)
        assert verify_certificate(coords, selection, cert)


def _coface_tests(monkeypatch, enumerate_, config):
    """The minimal cofaces and the subsets sent to ``is_coface``, in order."""
    tested = []
    is_coface = gale.is_coface

    def recording(config_, subset):
        tested.append(tuple(subset))
        return is_coface(config_, subset)

    monkeypatch.setattr(gale, "is_coface", recording)
    found = enumerate_(config)
    monkeypatch.undo()
    return found, tested


def _direction(u) -> tuple:
    """u divided by the absolute value of its first nonzero entry; the
    zero vector as it is."""
    pivot = next((abs(a) for a in u if a), 1)
    return tuple(a / pivot for a in u)


def _representatives(config: VectorConfiguration):
    """The first index of each direction, in order, and the configuration
    of those vectors alone."""
    first = {}
    for i, u in enumerate(config.coords):
        first.setdefault(_direction(u), i)
    reps = sorted(first.values())
    sub = VectorConfiguration(
        config.m, tuple(config.labels[i] for i in reps), tuple(config.coords[i] for i in reps)
    )
    return reps, sub


def test_generated_candidates_run_the_same_coface_lps(monkeypatch):
    # the LPs are those of the filtering reference on one vector per
    # direction; the cofaces are the reference's on every vector
    configs = list(_block_diagrams((6, 9, 12))) + list(_random_configs(8, 150))
    for config in configs:
        found, tested = _coface_tests(monkeypatch, gale.enumerate_facet_complements, config)
        assert found == ref.enumerate_by_filtering(config)
        reps, sub = _representatives(config)
        _, on_reps = _coface_tests(monkeypatch, ref.enumerate_by_filtering, sub)
        assert tested == [tuple(reps[i] for i in subset) for subset in on_reps]


def test_no_two_coface_lps_of_an_enumeration_select_the_same_rows(monkeypatch):
    # copies of one vector select the same row, and positive multiples
    # the same direction: a minimal coface holds at most one of them, so
    # an enumeration tests each set of directions once
    configs = list(_block_diagrams((6, 9, 12))) + list(_random_configs(10, 150))
    for config in configs:
        _, tested = _coface_tests(monkeypatch, gale.enumerate_facet_complements, config)
        rows = [tuple(sorted(config.integer_coords[i] for i in subset)) for subset in tested]
        directions = [frozenset(_direction(config.coords[i]) for i in subset) for subset in tested]
        assert len(set(rows)) == len(rows)
        assert len(set(directions)) == len(directions)


# exact copies, positive multiples, an opposite vector and the zero vector
PLANTED_FACTORS = (1, 2, Fraction(3, 2), -1, 0)


@st.composite
def planted_configurations(draw):
    """Small-integer configurations in R^0..R^3, plus vectors planted as
    multiples of drawn ones, in a drawn order."""
    m = draw(st.integers(0, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * m)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    planted = draw(
        st.lists(st.tuples(st.sampled_from(base), st.sampled_from(PLANTED_FACTORS)), max_size=5)
    )
    vectors = base + [tuple(c * a for a in u) for u, c in planted]
    vectors = draw(st.permutations(vectors))
    return VectorConfiguration.from_pairs(m, [(f"v{i}", v) for i, v in enumerate(vectors)])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_configurations())
def test_enumeration_matches_the_filtering_reference_with_planted_directions(config):
    assert gale.enumerate_facet_complements(config) == ref.enumerate_by_filtering(config)


def test_full_builds_keep_the_benchmark_facet_counts():
    counts = _workloads().FULL_BASE_FACETS
    assert len(counts) == 12
    for (d, ell), count in counts.items():
        assert len(construct_nonsimplicial_mani(d, ell, mode="full").base.facets) == count, (d, ell)


# ---------------------------------------------------------------------------
# Cyclic facets from the evenness condition


def test_cyclic_generator_matches_evenness_filter():
    for d in range(2, 14):
        for n in range(d + 1, d + 9):
            rows = ref.cyclic_facets(d, n)
            assert polytope._evenness_rows(d, n) == [tuple(i - 1 for i in r) for r in rows], (d, n)
            assert cyclic_polytope(d, n).facets == tuple(
                tuple(str(i) for i in row) for row in rows
            )


# ---------------------------------------------------------------------------
# 2-spanning read off the minimal cofaces


def _check_two_spanning(config: VectorConfiguration) -> bool:
    """The coface verdict equals the scan's; ``incidence_from_gale`` fails
    exactly when it is false, with the scan's report."""
    scan = is_positively_k_spanning(config, 2)
    cofaces = gale.enumerate_facet_complements(config)
    assert gale._two_spanning_from_cofaces(config, cofaces) == scan.spanning
    if any(not any(v) for v in config.coords):
        return scan.spanning  # rejected before the verdict is read
    if scan.spanning:
        gale.incidence_from_gale(config)
    else:
        with pytest.raises(NotTwoSpanningError) as info:
            gale.incidence_from_gale(config)
        assert info.value.report == scan
    return scan.spanning


def test_two_spanning_from_cofaces_matches_the_scan():
    configs = list(_random_configs(9, 240)) + list(_block_diagrams())
    verdicts = [_check_two_spanning(config) for config in configs]
    assert 40 < sum(verdicts) < len(verdicts) - 40


@st.composite
def configurations(draw):
    """Small-integer configurations in R^1..R^3, 2-spanning or not."""
    m = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * m)
    vectors = draw(st.lists(vector, max_size=8))
    if draw(st.booleans()):
        # two copies of a positive basis make it 2-spanning before the extras
        basis = [tuple(int(i == j) for i in range(m)) for j in range(m)] + [(-1,) * m]
        vectors = draw(st.permutations(basis + basis + vectors[:3]))
    return VectorConfiguration.from_pairs(m, [(f"v{i}", v) for i, v in enumerate(vectors)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configurations())
def test_two_spanning_from_cofaces_matches_the_scan_hypothesis(config):
    _check_two_spanning(config)
