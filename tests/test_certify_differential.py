"""Differential tests: certification that reuses answers against re-solving.

``certify_reference`` holds the minimality scan without its memo of removed
sets and the geometric stacking that solves every vertex and midpoint LP at
every trial.  The library keeps each LP answer of a minimality scan by the
set of vectors it removes and keeps one separating functional per point
across stacking trials; all of it must give exactly the reference's
reports, certificates, apex placements and flags.  The library tests each
inner diagonal on the Gale dual of its hull, the reference on the points
translated by the midpoint; the verdicts must agree at every trial.  The
dual of a certificate build is proved 2-spanning and minimal without any
scan, from the vertex functionals and the midpoint certificates; its
verdicts must be the LP scans', each witness it derives must break
positive spanning by an LP of its own, and forged inputs must leave the
verdict unproven with no LP.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import certify_reference as ref
import fraction_kernels
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from galepoly import linalg, lp, mani
from galepoly.errors import NoEpsilonFoundError
from galepoly.gale import PointConfiguration, gale_dual, supporting_hyperplane
from galepoly.jsonio import (
    _ReportObjects,
    build_report,
    digest,
    dumps,
    rederive_report_payload,
    verify_report,
)
from galepoly.mani import (
    construct_nonsimplicial_mani,
    dual_spanning_report,
    hull_flags,
)
from galepoly.spanning import (
    VectorConfiguration,
    is_minimal_k_spanning,
    is_positively_k_spanning,
    standard_minimal_config,
)

QQ = Fraction

# every certificate build at d = 6..9 with p = 3, 4, 5 and each valid ell
BUILDS = [
    (d, p, ell)
    for d in range(6, 10)
    for p in (3, 4, 5)
    for ell in range(1, -(-d // p))
]


@functools.lru_cache(maxsize=None)
def _build(d, p, ell):
    return construct_nonsimplicial_mani(d, ell, p=p, mode="certificate")


@pytest.mark.parametrize("d,p,ell", BUILDS)
def test_certificate_build_matches_the_reference(d, p, ell):
    c = _build(d, p, ell)
    points, stacks, vertex_flags, diagonal_flags = ref.construct_certificate(c)
    assert c.points == points
    assert c.stacks == stacks
    assert c.vertex_flags == vertex_flags
    assert tuple(cert is not None for cert in c.diagonal_flags) == diagonal_flags
    if d <= 8:
        report = dual_spanning_report(c)
        base, minimality = ref.is_minimal_k_spanning(report.dual, 2)
        assert (report.spanning, report.minimal) == (base.spanning, minimality.minimal) == (True, True)
        assert [e[0] for e in report.per_index] == [e[0] for e in minimality.per_index]


def _check_midpoint_certificates(coords, labels, pairs, certificates, prefix):
    """Each pair's certificate against the Fraction hull test on the first
    ``prefix(i, j)`` of ``coords``: None exactly where the midpoint is not
    interior there, and otherwise an integer affine dependence of those
    points, positive at every point off the pair."""
    index = {lab: i for i, lab in enumerate(labels)}
    for (a, b), c in zip(pairs, certificates, strict=True):
        i, j = index[a], index[b]
        hull = coords[: prefix(i, j)]
        mid = tuple((u + v) / 2 for u, v in zip(coords[i], coords[j]))
        assert (c is not None) == fraction_kernels.interior_point_test(hull, mid)[0]
        if c is not None:
            assert len(c) == len(hull) and all(isinstance(w, int) for w in c)
            assert all(w > 0 for u, w in enumerate(c) if u not in (i, j))
            assert all(sum(w * x for w, x in zip(c, col)) == 0 for col in zip(*[(1,) + p for p in hull]))


@pytest.mark.parametrize("d,p,ell", BUILDS)
def test_kept_trial_certificates_match_the_fraction_hull_test(d, p, ell):
    # the build keeps each pair's certificate from the accepted trial of its
    # apex, the later point of the pair: a certificate on the points up to
    # that apex, where the Fraction hull test proves the midpoint interior
    c = _build(d, p, ell)
    _check_midpoint_certificates(
        c.points.coords, c.points.labels, c.diagonal_partner, c.diagonal_flags, lambda i, j: max(i, j) + 1
    )
    assert all(cert is not None for cert in c.diagonal_flags)
    assert any(len(cert) < len(c.points) for cert in c.diagonal_flags)


@pytest.mark.parametrize("d,p,ell", BUILDS)
def test_midpoint_certificates_match_the_fraction_hull_test(d, p, ell):
    # verify solves its own midpoint LPs on the Gale dual of the report's
    # final points; each verdict must be the Fraction hull test's there
    c, doc = _certificate_report(d, p, ell)
    objects = _ReportObjects(doc)
    points = objects["points"]
    flags = objects["diagonal_flags"]
    _check_midpoint_certificates(
        points.coords, points.labels, objects["diagonal_partner"], flags, lambda i, j: len(points)
    )
    assert all(cert is not None and len(cert) == len(c.points) for cert in flags)


# every certificate build at d = 6..12 with p = 3, 4, 5 and each valid ell
ALL_BUILDS = [
    (d, p, ell)
    for d in range(6, 13)
    for p in (3, 4, 5)
    for ell in range(1, -(-d // p))
]


@pytest.mark.parametrize("d,p,ell", ALL_BUILDS)
def test_gale_side_diagonals_match_the_point_side_reference_on_every_trial(monkeypatch, d, p, ell):
    # every diagonal flag a stacking trial reads, against the Fraction hull
    # test on that trial's points; the build consumes the flags lazily, so
    # only the ones it reads are compared
    real = mani.hull_flags
    checked = [0]

    def checking(points, vertices, diagonals, separators=None):
        flags = real(points, vertices, diagonals, separators)
        coords = points.coords
        for k, flag in enumerate(flags):
            if k >= len(vertices):
                i, j = diagonals[k - len(vertices)]
                mid = tuple((a + b) / 2 for a, b in zip(coords[i], coords[j]))
                assert (flag is not None) == fraction_kernels.interior_point_test(coords, mid)[0]
                checked[0] += 1
            yield flag

    monkeypatch.setattr(mani, "hull_flags", checking)
    c = construct_nonsimplicial_mani(d, ell, p=p, mode="certificate")
    assert c.all_checks_pass()
    assert checked[0] >= len(c.points)


@pytest.mark.parametrize("d,p,ell", ALL_BUILDS)
def test_one_elimination_gives_each_removal_functional(monkeypatch, d, p, ell):
    # _removal_witnesses solves V* h = c for every index in one elimination;
    # each h must be the one a solve of its own c gives
    c = _build(d, p, ell)
    solved = []
    real = linalg.ExactMatrix.solve_columns

    def recording(self, rhs):
        solved.append(real(self, rhs))
        return solved[-1]

    monkeypatch.setattr(linalg.ExactMatrix, "solve_columns", recording)
    report = dual_spanning_report(c)
    monkeypatch.undo()
    assert report.minimal and len(solved) == 1
    expected = ref.removal_functionals(report.dual, c.diagonal_partner, c.diagonal_flags)
    assert list(solved[0]) == expected
    assert None not in expected


@pytest.mark.parametrize("d,p,ell", ALL_BUILDS)
def test_each_derived_witness_breaks_positive_spanning(d, p, ell):
    c = _build(d, p, ell)
    report = dual_spanning_report(c)
    dual = report.dual
    assert report.spanning and report.minimal
    assert [e[0] for e in report.per_index] == list(dual.labels)
    for i, (removed, (partner,), kind) in enumerate(report.per_index):
        assert kind == "StiemkeWitness"
        rest = [u for u in range(len(dual)) if u not in (i, dual.index_of(partner))]
        assert not lp.positively_spans(dual.coords, rest)[0]


def _config(m, coords):
    return VectorConfiguration.from_pairs(
        m, [(f"v{i}", v) for i, v in enumerate(coords)]
    )


@pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_standard_minimal_configs_match_the_reference(m, k):
    config = standard_minimal_config(m, k)
    got = is_minimal_k_spanning(config, k)
    assert got[1].minimal
    assert got == ref.is_minimal_k_spanning(config, k)


def _vectors(m, min_size, max_size):
    entry = st.integers(-2, 2).map(QQ)
    return st.lists(st.tuples(*[entry] * m), min_size=min_size, max_size=max_size)


@st.composite
def _configurations(draw):
    """Scaled standard minimal configurations, perhaps with extra vectors,
    and plain random ones; shuffled.  At most 13 vectors, k = 1..3."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if m < 3 else 2))
    if draw(st.booleans()):
        standard = standard_minimal_config(m, k).coords
        scales = draw(st.lists(st.integers(1, 3), min_size=len(standard), max_size=len(standard)))
        coords = [tuple(s * a for a in v) for v, s in zip(standard, scales)]
        coords += draw(_vectors(m, 0, 1))
    else:
        coords = draw(_vectors(m, 1, 9))
    return _config(m, draw(st.permutations(coords))), k


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_configurations())
def test_minimality_scan_matches_the_reference(case):
    config, k = case
    assert is_minimal_k_spanning(config, k) == ref.is_minimal_k_spanning(config, k)


def _separates(y, coords, i):
    values = [y[0] + sum(a * b for a, b in zip(y[1:], p)) for p in coords]
    return values[i] > 0 and all(v <= 0 for j, v in enumerate(values) if j != i)


def test_a_forged_kept_functional_falls_back_to_the_lp(monkeypatch):
    # a square and its center: four vertices, one interior point
    points = PointConfiguration.from_pairs(2, enumerate([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]))
    coords = points.coords
    separators = {}
    assert list(hull_flags(points, range(5), (), separators)) == [True] * 4 + [False]
    assert sorted(separators) == [0, 1, 2, 3]
    assert all(_separates(separators[i], coords, i) for i in range(4))

    solved = []
    real = mani.separating_functional
    monkeypatch.setattr(mani, "separating_functional", lambda c, i: solved.append(i) or real(c, i))
    separators[1] = separators[0]  # separates point 0, not point 1
    separators[2] = (0, 0, 0)
    separators[4] = (1, 0, 0)  # positive on every point
    assert list(hull_flags(points, range(5), (), separators)) == [True] * 4 + [False]
    assert solved == [1, 2, 4]
    assert all(_separates(separators[i], coords, i) for i in range(4))

    # without kept functionals every flag solves its LP
    solved.clear()
    assert list(hull_flags(points, range(5), ())) == [True] * 4 + [False]
    assert solved == [0, 1, 2, 3, 4]


def _count_lps(monkeypatch):
    count = [0]
    real = lp.solve_feasibility

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("galepoly") and getattr(module, "solve_feasibility", None) is real:
            monkeypatch.setattr(module, "solve_feasibility", counting)
    return count


def test_lp_counts_of_a_d12_certificate_build_and_dual_scan(monkeypatch):
    # without reuse these were 669 construct LPs (575 of them vertex LPs)
    # and 310 dual-scan LPs (20 base, 110 of the rest repeated pairs); the
    # base scan now reads the vertex functionals and the removal witnesses
    # the 20 midpoint certificates, so the dual solves none; the q + 1 = 5
    # designated coface LPs went too, as the designated planes prove those
    # facets on the points.  The build keeps its accepted trials' midpoint
    # certificates instead of solving 20 final midpoint LPs.  Each apex is
    # placed at its first passing height, computed from its facet's
    # neighbours, so no failed trial runs, and every vertex functional comes
    # from a proof in hand (realize's scan, a stack plane, a neighbour
    # plane): the 41 are realize's 16 and the 25 diagonal LPs of the
    # accepted trials.  Verify solves 15 vertex LPs, the 5 apexes taking
    # their checked stack planes, and its 20 midpoint LPs.
    count = _count_lps(monkeypatch)
    c = construct_nonsimplicial_mani(12, 1, mode="certificate")
    assert count[0] == 41
    report = dual_spanning_report(c, k=2)
    assert report.spanning and report.minimal
    assert count[0] == 41 + 0
    doc = json.loads(dumps(build_report(c, report)))
    count[0] = 0
    payload = rederive_report_payload(doc, "minimal2spanningDual")
    assert payload["verdict"]
    assert digest(payload) == doc["certificateDigests"]["minimal2spanningDual"]
    assert count[0] == 35


def test_the_build_solves_no_midpoint_lp_after_its_last_stack(monkeypatch):
    # every diagonal flag comes from an accepted stacking trial; each hull
    # whose diagonals are tested takes one Gale dual, the build's only one
    events = []
    stack, dual = mani.geometric_stack_point, mani.gale_dual

    def stacking(*args, **kwargs):
        result = stack(*args, **kwargs)
        events.append("stack")
        return result

    def dualizing(*args, **kwargs):
        events.append("gale_dual")
        return dual(*args, **kwargs)

    monkeypatch.setattr(mani, "geometric_stack_point", stacking)
    monkeypatch.setattr(mani, "gale_dual", dualizing)
    c = construct_nonsimplicial_mani(12, 1, mode="certificate")
    assert c.all_checks_pass()
    last = len(events) - events[::-1].index("stack")
    assert events.count("stack") == c.plan.q + 1
    assert "gale_dual" in events[:last] and "gale_dual" not in events[last:]


def _count_gale_duals(monkeypatch):
    # one kernel elimination per Gale dual: count those run under gale_dual
    count = [0]
    real = linalg.ExactMatrix.kernel_basis

    def counting(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "gale_dual":
            frame = frame.f_back
        count[0] += frame is not None
        return real(self)

    monkeypatch.setattr(linalg.ExactMatrix, "kernel_basis", counting)
    return count


def test_one_gale_dual_per_point_set(monkeypatch):
    # the build's dual stage reads the dual its last stacking trial took;
    # verify's midpoint flags and dual checks share one dual of its points
    c = construct_nonsimplicial_mani(6, 1, mode="certificate")
    count = _count_gale_duals(monkeypatch)
    counterexample = dual_spanning_report(c)
    assert counterexample.spanning and counterexample.minimal
    assert count[0] == 0
    doc = json.loads(dumps(build_report(c, counterexample)))
    payloads = verify_report(doc, None)
    assert count[0] == 1
    assert {p["check"]: digest(p) for p in payloads} == doc["certificateDigests"]


def _count_lifts(monkeypatch, points):
    # the lifted rows (1, p_u) of ``points`` scaled to integers: count the
    # common scales taken of them, under whatever name a module holds
    rows = [(1,) + tuple(p) for p in points.coords]
    count = [0]
    real = linalg.common_scale

    def counting(matrix):
        count[0] += [tuple(r) for r in matrix] == rows
        return real(matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("galepoly") and getattr(module, "common_scale", None) is real:
            monkeypatch.setattr(module, "common_scale", counting)
    return count


@pytest.mark.parametrize("d", [6, 7, 8])
def test_one_lift_per_point_set(monkeypatch, d):
    # a build's dual stage reads the lifted view its last stacking trial
    # took; verify's midpoint flags and dual stage share one lift of the
    # report's final points
    c = construct_nonsimplicial_mani(d, 1, mode="certificate")
    count = _count_lifts(monkeypatch, c.points)
    counterexample = dual_spanning_report(c)
    assert counterexample.spanning and counterexample.minimal
    assert count[0] == 0
    doc = json.loads(dumps(build_report(c, counterexample)))
    payloads = verify_report(doc, None)
    assert count[0] == 1
    assert {p["check"]: digest(p) for p in payloads} == doc["certificateDigests"]


# every certificate build at d = 6..15 and 36 with its default block size
# and each valid ell
PLANE_BUILDS = [
    (d, plan.p, ell)
    for d in [*range(6, 16), 36]
    for plan in [mani.build_block_diagram(d)]
    for ell in range(1, plan.q)
]


@pytest.mark.parametrize("d,p,ell", PLANE_BUILDS)
def test_supporting_hyperplanes_match_the_reference(d, p, ell):
    # the library solves each plane on the lifted view (1, p_u), the
    # reference on the rows (p_u, -1): every designated facet and the fat
    # facet, on the base and on the final points, get the same plane
    c = _build(d, p, ell)
    facets = [*mani._designated_facets(c.plan), c.fat_facet]
    planes = {}
    for which, points in (("base", c.base_points), ("final", c.points)):
        for facet in facets:
            planes[which, facet] = supporting_hyperplane(points, facet)
            assert planes[which, facet] == ref.supporting_hyperplane(points, facet)
    assert [planes["base", f] for f in facets[:-1]] == list(c.designated_planes)
    assert planes["final", c.fat_facet] == c.fat_facet_plane is not None


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _points_about_a_plane(draw):
    """Labeled points in R^d, some on a hyperplane a.x = beta and at least
    one off it, with the labels of those on it and another drawn subset."""
    d = draw(st.integers(1, 4))
    a = draw(st.lists(_RATIONALS, min_size=d, max_size=d).filter(lambda a: a[-1] != 0))
    beta = draw(_RATIONALS)
    heads = draw(st.lists(st.lists(_RATIONALS, min_size=d - 1, max_size=d - 1), min_size=1, max_size=d + 1))
    on = [tuple(h) + ((beta - sum(x * y for x, y in zip(a, h))) / a[-1],) for h in heads]
    off = draw(st.lists(
        st.tuples(*[_RATIONALS] * d).filter(lambda p: sum(x * y for x, y in zip(a, p)) != beta),
        min_size=1, max_size=3,
    ))
    coords = on + off
    labels = [f"p{i}" for i in draw(st.permutations(range(len(coords))))]
    points = PointConfiguration.from_pairs(d, zip(labels, coords))
    return points, labels[: len(on)], draw(st.sets(st.sampled_from(labels)))


@given(_points_about_a_plane())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_supporting_hyperplanes_of_drawn_points_match_the_reference(case):
    points, on_plane, subset = case
    for facet in (on_plane, subset):
        assert supporting_hyperplane(points, facet) == ref.supporting_hyperplane(points, facet)


# every certificate build at d = 6..16 with p = 3..6 and each valid ell
HEIGHT_BUILDS = [
    (d, p, ell)
    for d in range(6, 17)
    for p in range(3, 7)
    if -(-d // p) >= 2
    for ell in range(1, -(-d // p))
]


def _stack_calls(c):
    """The arguments of each of the build's ``geometric_stack_point``
    calls: the points before the apex, the facet, its plane, the guards and
    the apex label."""
    planes, n = c.designated_planes, len(c.base_points)
    for i, (facet, apex) in enumerate(zip(mani._designated_facets(c.plan), mani._apex_labels(c.plan.q))):
        points = PointConfiguration(d=c.points.d, labels=c.points.labels[: n + i], coords=c.points.coords[: n + i])
        yield points, facet, planes[i], [planes[j] for j in range(len(planes)) if j != i], apex


@pytest.mark.parametrize("d,p,ell", [b for b in HEIGHT_BUILDS if b[0] in (10, 11) or b[1] == 6 and b[0] <= 9])
def test_each_computed_height_is_the_reference_loops(d, p, ell):
    # the reference halves from eps = 1 and solves every flag of every
    # trial; the builds at d = 6..9 with p = 3, 4, 5 are compared in
    # test_certificate_build_matches_the_reference
    c = _build(d, p, ell)
    for (points, facet, plane, guards, apex), stack in zip(_stack_calls(c), c.stacks, strict=True):
        stacked, cert = ref.geometric_stack_point(points, facet, plane, guards, apex)
        assert cert == stack
        assert stacked.coords == c.points.coords[: len(stacked)]


@pytest.mark.parametrize("d,p,ell", HEIGHT_BUILDS)
def test_each_computed_height_is_the_search_from_trial_one(d, p, ell):
    # a plane with its offset lowered by 1 gives the same apexes, as the
    # apex rises from the barycenter along the normal, but it does not
    # vanish on the facet, so the library searches from trial 1 with every
    # flag of every trial tested: the same apex, trials and diagonal
    # certificates as the computed height
    c = _build(d, p, ell)
    for (points, facet, plane, guards, apex), stack in zip(_stack_calls(c), c.stacks, strict=True):
        computed = mani.geometric_stack_point(points, facet, plane, guards, apex, separators=dict(c.separators))
        normal, offset = plane
        searched = mani.geometric_stack_point(points, facet, (normal, offset - 1), guards, apex, separators=dict(c.separators))
        assert computed[1] == stack
        assert searched[0] == computed[0]
        assert searched[2] == computed[2] and None not in computed[2].values()
        assert (searched[1].apex, searched[1].epsilon, searched[1].trials) == (stack.apex, stack.epsilon, stack.trials)


def _count_hull_tests(monkeypatch):
    calls = []
    real = mani.hull_flags

    def counting(points, vertices, diagonals, separators=None):
        calls.append(len(points))
        return real(points, vertices, diagonals, separators)

    monkeypatch.setattr(mani, "hull_flags", counting)
    return calls


def test_each_stack_tests_only_its_accepted_trial(monkeypatch):
    # q + 1 = 5 stacks test one trial each, then the final vertex proofs
    calls = _count_hull_tests(monkeypatch)
    c = construct_nonsimplicial_mani(12, 1, mode="certificate")
    assert [s.trials for s in c.stacks] == [9, 6, 6, 6, 6]
    assert len(calls) == len(c.stacks) + 1


def test_a_start_on_the_last_halving_passes_and_one_past_it_fails():
    # with max_halvings at the computed trial the start is the last
    # halving; one less leaves no trial to run
    c = _build(6, 3, 1)
    for (points, facet, plane, guards, apex), stack in zip(_stack_calls(c), c.stacks):
        last = stack.trials
        _, cert, _ = mani.geometric_stack_point(points, facet, plane, guards, apex, max_halvings=last)
        assert cert == stack == ref.geometric_stack_point(points, facet, plane, guards, apex, max_halvings=last)[1]
        with pytest.raises(NoEpsilonFoundError):
            mani.geometric_stack_point(points, facet, plane, guards, apex, max_halvings=last - 1)
        with pytest.raises(AssertionError, match="no apex height"):
            ref.geometric_stack_point(points, facet, plane, guards, apex, max_halvings=last - 1)


# a trapezoid over its bottom edge a, b, whose plane is y = 0 with normal
# (0, -1); its neighbour edges lean out, so an apex at (2, -eps) must stay
# below eps = 1/4
TRAPEZOID = PointConfiguration.from_pairs(2, zip("abcd", [(0, 0), (4, 0), (-8, 1), (12, 1)]))


@pytest.mark.parametrize("plane,searched", [
    (((0, -1), -1), True), (((1, -4), 2), True), (((0, -1), 0), False), (((0, -2), 0), False),
])
def test_a_plane_that_does_not_support_the_facet_starts_at_trial_one(monkeypatch, plane, searched):
    # ((0, -1), -1) is parallel to the edge and ((1, -4), 2) tilted through
    # its barycenter: neither vanishes on the edge, so the search tests
    # every trial from 1.  The edge's own plane, with either length of
    # normal, has its height computed and tests that trial alone
    normal, offset = tuple(map(QQ, plane[0])), QQ(plane[1])
    calls = _count_hull_tests(monkeypatch)
    stacked, cert, _ = mani.geometric_stack_point(TRAPEZOID, "ab", (normal, offset), new_label="z")
    assert (stacked, cert) == ref.geometric_stack_point(TRAPEZOID, "ab", (normal, offset), (), "z")
    assert cert.trials > 1
    assert len(calls) == (cert.trials if searched else 1)


@st.composite
def _stacking_cases(draw):
    """Points about a plane whose points on it are a simplex facet of their
    hull, perhaps with a point that is no vertex (the centroid, or the
    midpoint of two points), guard planes drawn about the facet's
    barycenter, and a cap on the halvings."""
    points, on_plane, _ = draw(_points_about_a_plane())
    assume(len(on_plane) == points.d)
    plane = supporting_hyperplane(points, on_plane)
    assume(plane is not None)
    coords = list(points.coords)
    extra = draw(st.sampled_from(["none", "centroid", "midpoint"]))
    if extra == "centroid":
        coords.append(tuple(sum(col) / len(coords) for col in zip(*coords)))
    elif extra == "midpoint":
        i, j = draw(st.lists(st.integers(0, len(coords) - 1), min_size=2, max_size=2, unique=True))
        coords.append(tuple((a + b) / 2 for a, b in zip(coords[i], coords[j])))
    if extra != "none":
        points = PointConfiguration(d=points.d, labels=points.labels + ("extra",), coords=tuple(coords))
    center = [sum(col) / points.d for col in zip(*[points.coords[points.labels.index(lab)] for lab in on_plane])]
    guards = []
    for _ in range(draw(st.integers(0, 2))):
        a = tuple(draw(st.lists(_RATIONALS, min_size=points.d, max_size=points.d)))
        guards.append((a, sum(x * y for x, y in zip(a, center)) + draw(_RATIONALS)))
    return points, on_plane, plane, guards, draw(st.integers(1, 12))


def _stack_outcome(stack, *args, **kwargs):
    try:
        return stack(*args, **kwargs)[:2]
    except (NoEpsilonFoundError, AssertionError):
        return "no height"


@given(_stacking_cases())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_computed_heights_of_drawn_points_match_the_reference(case):
    # the library raises NoEpsilonFoundError where the reference's loop
    # ends in its AssertionError, as with a point that is no vertex
    points, facet, plane, guards, cap = case
    want = _stack_outcome(ref.geometric_stack_point, points, facet, plane, guards, "apex", max_halvings=cap)
    for separators in (None, {}):
        got = _stack_outcome(
            mani.geometric_stack_point, points, facet, plane, guards, "apex", max_halvings=cap, separators=separators
        )
        assert got == want
    if "extra" in points.labels and not lp.is_vertex_of_hull(points.coords, len(points) - 1):
        assert want == "no height"


@pytest.mark.parametrize("d,p,ell", ALL_BUILDS)
def test_a_block_diagram_build_solves_no_vertex_lp(monkeypatch, d, p, ell):
    # every vertex functional comes from a proof the build holds: realize's
    # scan or a stack plane
    solved = []
    real = mani.separating_functional
    monkeypatch.setattr(mani, "separating_functional", lambda c, i: solved.append(i) or real(c, i))
    c = construct_nonsimplicial_mani(d, ell, p=p, mode="certificate")
    assert c.all_checks_pass()
    assert solved == []
    assert sorted(c.separators) == list(range(len(c.points)))


# each kept functional of a source forged one way; each must fail its
# re-check and fall back to the vertex LP, with the build unchanged.  A
# forged functional that an LP replaced is not offered again, so the
# stacks after it read the LP's.
FORGED_FUNCTIONALS = {
    "negated": lambda y: tuple(-a for a in y),
    "shifted": lambda y: (y[0] + 10**40,) + tuple(y[1:]),
}


def _forge_source(monkeypatch, source, forge):
    """Forge every functional that ``source`` offers; returns the indices
    it offered."""
    offered = []
    if source == "realize scan":
        real = mani._base_separators

        def forged(*args):
            seps = real(*args)
            offered.extend(seps)
            return {i: forge(y) for i, y in seps.items()}

        monkeypatch.setattr(mani, "_base_separators", forged)
    else:
        real = mani.StackCertificate.functional

        def forged_plane(self):
            offered.append(self.apex_label)
            return forge(real.fget(self))

        monkeypatch.setattr(mani.StackCertificate, "functional", property(forged_plane))
    return offered


@pytest.mark.parametrize("forgery", sorted(FORGED_FUNCTIONALS))
@pytest.mark.parametrize("source", ["realize scan", "stack plane"])
def test_a_forged_functional_from_a_proof_in_hand_falls_back_to_the_lp(monkeypatch, source, forgery):
    honest = _build(8, 3, 1)
    offered = _forge_source(monkeypatch, source, FORGED_FUNCTIONALS[forgery])
    solved = []
    real = mani.separating_functional
    monkeypatch.setattr(mani, "separating_functional", lambda c, i: solved.append(i) or real(c, i))
    c = construct_nonsimplicial_mani(8, 1, p=3, mode="certificate")
    assert offered and solved
    assert (c.points, c.stacks, c.vertex_flags, c.diagonal_flags) == (
        honest.points, honest.stacks, honest.vertex_flags, honest.diagonal_flags
    )
    if source == "realize scan":
        assert set(range(len(c.base_points))) <= set(solved)
    else:
        assert set(range(len(c.base_points), len(c.points))) <= set(solved)
    # every kept functional the build ends with separates its point
    assert all(_separates(y, c.points.coords, i) for i, y in c.separators.items())


def test_verify_takes_each_apex_functional_from_its_checked_stack(monkeypatch):
    # verify solves the vertex LPs of the base points only; a forged stack
    # functional falls back to the apex's LP, with the same payloads
    c, doc = _certificate_report(6, 4, 1)
    n = len(c.base_points)
    solved = []
    real = mani.separating_functional
    monkeypatch.setattr(mani, "separating_functional", lambda coords, i: solved.append(i) or real(coords, i))
    payloads = verify_report(doc, None)
    assert {p["check"]: digest(p) for p in payloads} == doc["certificateDigests"]
    assert solved == list(range(n))
    solved.clear()
    _forge_source(monkeypatch, "stack plane", FORGED_FUNCTIONALS["negated"])
    assert verify_report(doc, None) == payloads
    assert solved == list(range(len(c.points)))


# The forgeries above under python -O, where no assert would run: each
# forged functional must fail its re-check and its vertex LP run in its
# place, with the build's points, stacks and flags unchanged.
PROOF_FORGERIES = textwrap.dedent(
    """
    import sys
    from galepoly import mani

    def build():
        return mani.construct_nonsimplicial_mani(7, 1, p=3, mode="certificate")

    honest = build()
    solved = []
    real_lp = mani.separating_functional
    mani.separating_functional = lambda coords, i: solved.append(i) or real_lp(coords, i)
    build()
    if solved:
        sys.exit("an honest build solved a vertex LP")
    shift = lambda y: (y[0] + 10**40,) + tuple(y[1:])
    real_base, real_plane = mani._base_separators, mani.StackCertificate.functional
    for name in ("realize scan", "stack plane"):
        solved.clear()
        if name == "realize scan":
            mani._base_separators = lambda *args: {i: shift(y) for i, y in real_base(*args).items()}
        else:
            mani.StackCertificate.functional = property(lambda self: shift(real_plane.fget(self)))
        c = build()
        mani._base_separators, mani.StackCertificate.functional = real_base, real_plane
        if not solved:
            sys.exit(f"a forged {name} went unnoticed")
        if (c.points, c.stacks, c.vertex_flags, c.diagonal_flags) != (
            honest.points, honest.stacks, honest.vertex_flags, honest.diagonal_flags
        ):
            sys.exit(f"a forged {name} changed the build")
    print(sys.flags.optimize)
    """
)


def test_forged_functionals_from_proofs_in_hand_fall_back_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(mani.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PROOF_FORGERIES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("d,p,ell", ALL_BUILDS)
def test_base_scan_from_functionals_matches_the_lp_scan(monkeypatch, d, p, ell):
    c = _build(d, p, ell)
    assert sorted(c.separators) == list(range(len(c.points)))
    count = _count_lps(monkeypatch)
    report = dual_spanning_report(c)
    assert count[0] == 0
    assert report.spanning == is_positively_k_spanning(gale_dual(c.points), 2).spanning
    assert report.spanning


def _fresh_build(d, p):
    # a construction of its own, so the Gale dual kept on its points can be
    # forged without reaching the builds other tests share
    return construct_nonsimplicial_mani(d, 1, p=p, mode="certificate")


FUNCTIONAL_FORGERIES = {
    "missing": lambda seps: {i: y for i, y in seps.items() if i != 0},
    "another point's": lambda seps: {**seps, 1: seps[2]},
    "zero": lambda seps: {**seps, 3: (0,) * len(seps[3])},
    "negated": lambda seps: {**seps, 4: tuple(-a for a in seps[4])},
}


@pytest.mark.parametrize("forgery", sorted(FUNCTIONAL_FORGERIES))
def test_a_wrong_or_missing_functional_leaves_spanning_unproven(monkeypatch, forgery):
    # the dual does positively 2-span, but a forged functional proves
    # nothing, and no LP runs in its place
    c = _fresh_build(6, 3)
    c.separators = FUNCTIONAL_FORGERIES[forgery](c.separators)
    count = _count_lps(monkeypatch)
    report = dual_spanning_report(c)
    assert count[0] == 0
    assert not report.spanning and not report.minimal and report.per_index == ()
    assert is_positively_k_spanning(report.dual, 2).spanning


def test_a_functional_shifted_by_a_constant_still_proves_spanning(monkeypatch):
    # a constant added to a functional leaves every weight as it was
    c = _fresh_build(6, 3)
    y = c.separators[6]
    c.separators = {**c.separators, 6: (y[0] + 7,) + y[1:]}
    count = _count_lps(monkeypatch)
    assert dual_spanning_report(c).spanning
    assert count[0] == 0


def _forged_dual(dual, forgery):
    v = dual.coords
    if forgery == "doubled row":
        coords = (tuple(2 * a for a in v[0]),) + v[1:]
    else:
        coords = (v[1], v[0]) + v[2:]
    return VectorConfiguration(m=dual.m, labels=dual.labels, coords=coords)


@pytest.mark.parametrize("forgery", ["doubled row", "swapped rows"])
def test_a_dual_that_is_no_gale_dual_is_not_proved_spanning(monkeypatch, forgery):
    # doubling one row breaks the all-ones dependence.  Swapping rows 0 and
    # 1 keeps it and the rank, and the values of functional i stay a
    # dependence only where they agree at points 0 and 1, which some do
    # not.  Either way spanning stays unproven, with no LP.
    c = _fresh_build(6, 4)
    forged = _forged_dual(gale_dual(c.points), forgery)
    if forgery == "swapped rows":
        values = [
            [y[0] + sum(a * b for a, b in zip(y[1:], p)) for p in c.points.coords[:2]]
            for y in c.separators.values()
        ]
        assert 0 < sum(a != b for a, b in values) < len(forged)
    object.__setattr__(c.points, "gale_dual", forged)
    count = _count_lps(monkeypatch)
    report = dual_spanning_report(c)
    assert report.dual is forged
    assert count[0] == 0
    assert not report.spanning and not report.minimal


def test_a_dual_that_fails_is_proved_not_spanning_with_no_lp(monkeypatch):
    # the stacked points plus an interior point: the interior point has no
    # functional, so its deletion is not proved, and the LP scan agrees
    # that the dual does not positively 2-span
    c = _fresh_build(6, 3)
    points = c.points
    center = tuple(sum(col) / len(points) for col in zip(*points.coords))
    inner = PointConfiguration(
        d=points.d, labels=points.labels + ("mid",), coords=points.coords + (center,)
    )
    flags, separators = mani.vertex_proofs(inner)
    assert flags == (True,) * len(points) + (False,)
    c.points, c.separators = inner, separators
    count = _count_lps(monkeypatch)
    report = dual_spanning_report(c)
    assert count[0] == 0
    assert not report.spanning
    scan = is_positively_k_spanning(gale_dual(inner), 2)
    assert not scan.spanning and scan.witness_deletion == (len(points),)


def test_an_index_without_an_interior_certificate_leaves_minimality_unproven(monkeypatch):
    # no search runs in its place: minimal is false with no witnesses
    c = construct_nonsimplicial_mani(6, 1, p=3, mode="certificate")
    count = _count_lps(monkeypatch)
    for partner, flags in (
        (c.diagonal_partner, (None,) + c.diagonal_flags[1:]),  # not proved interior
        (c.diagonal_partner[1:], c.diagonal_flags[1:]),  # no pair
    ):
        c.diagonal_partner, c.diagonal_flags = partner, flags
        report = dual_spanning_report(c)
        assert report.spanning and not report.minimal and report.per_index == ()
    assert count[0] == 0


def _certificate_report(d, p, ell):
    c = _build(d, p, ell)
    return c, json.loads(dumps(build_report(c, dual_spanning_report(c, k=2))))


@pytest.mark.parametrize("d,p,ell", [b for b in BUILDS if b[0] <= 8])
def test_recorded_witness_verify_matches_the_search(d, p, ell):
    # verify derives the witnesses from its own midpoint certificates and
    # gives the build's payload, with the verdict of the least-witness search
    c, doc = _certificate_report(d, p, ell)
    base, minimality = is_minimal_k_spanning(gale_dual(c.points), 2)
    checked = rederive_report_payload(doc, "minimal2spanningDual")
    recorded = next(x for x in doc["certificates"] if x["check"] == "minimal2spanningDual")
    assert dumps(checked) == dumps(recorded)
    assert checked["verdict"] == (base.spanning and minimality.minimal)
    assert [e["removed"] for e in checked["perIndex"]] == [e[0] for e in minimality.per_index]


def _edge_partner(dual, i):
    """The least j != i whose removal with i leaves V* positively spanning."""
    for j in range(len(dual)):
        if j != i and lp.positively_spans(dual.coords, [u for u in range(len(dual)) if u not in (i, j)])[0]:
            return j
    raise AssertionError("no edge through the vertex")


def test_a_witness_replaced_by_an_edge_partner_fails():
    # the forged witness proves nothing, and it fails to reach verify's
    # payload: verify reads no perIndex and re-derives the partner witness
    c, doc = _certificate_report(6, 3, 1)
    dual = gale_dual(c.points)
    cert = next(x for x in doc["certificates"] if x["check"] == "minimal2spanningDual")
    honest = json.loads(dumps(cert))
    assert cert["verdict"] and cert["perIndex"][0]["removed"] == dual.labels[0]
    cert["perIndex"][0]["witnessDeletion"] = [dual.labels[_edge_partner(dual, 0)]]
    payload = rederive_report_payload(doc, "minimal2spanningDual")
    assert payload == honest and payload["verdict"] is True
    assert digest(payload) == doc["certificateDigests"]["minimal2spanningDual"]
    again = {p["check"]: p for p in verify_report(doc, None)}
    assert again["minimal2spanningDual"] == payload


# Forge the Gale-side diagonal step of mani.hull_flags one way at a time;
# its integer re-check of c must raise on each, also under python -O.
GALE_FORGERIES = textwrap.dedent(
    """
    import sys
    from galepoly import lp, mani
    from galepoly.errors import CertificateError
    from galepoly.gale import PointConfiguration
    from galepoly.linalg import ExactMatrix

    # a square with a point on its bottom edge: the midpoint of points 0
    # and 3 is interior, that of the edge 0, 1 and the edge point itself not
    square = PointConfiguration.from_pairs(2, enumerate([(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)]))
    pair = (0, 3)
    flags = list(mani.hull_flags(square, (), [pair, (0, 1), (4, 4)]))
    if flags[0] is None or flags[1:] != [None, None]:
        sys.exit("the honest flags are wrong")

    # c0 = (-1, 1, 1, -1, 0) is an affine dependence of the points,
    # nonnegative off the pair but 0 on the edge point: Stiemke-valid, so
    # it proves the removal of v*_0 and v*_3, but not the interior midpoint
    dual = mani.gale_dual(square)
    vstar = dual.integer_coords
    h0 = ExactMatrix(vstar).solve([-1, 1, 1, -1, 0])
    off = [u for u in range(len(vstar)) if u not in pair]
    if not lp.verify_certificate(vstar, off, lp.DependenceCertificate("StiemkeWitness", functional=h0)):
        sys.exit("c0 is no Stiemke witness")

    real_solve, real_dual = lp.solve_feasibility, mani.gale_dual
    forged_ys = {
        "negated c": lambda y: tuple(-a for a in y),
        "c zero off the pair": lambda y: (1,) + tuple(-a for a in h0),
        "no Farkas vector": lambda y: (1,) + (0,) * (len(y) - 1),
    }

    def scaled_dual(points):
        dual = real_dual(points)
        coords = tuple(tuple((u + 1) * a for a in v) for u, v in enumerate(dual.coords))
        return mani.VectorConfiguration(m=dual.m, labels=dual.labels, coords=coords)

    forgeries = [
        (name, "solve_feasibility", lambda columns, b, f=f: (None, f(real_solve(columns, b)[1])))
        for name, f in forged_ys.items()
    ] + [("c no dependence", "gale_dual", scaled_dual)]
    for name, attr, forged in forgeries:
        setattr(lp if attr == "solve_feasibility" else mani, attr, forged)
        try:
            list(mani.hull_flags(square, (), [pair]))
        except CertificateError as exc:
            if "Gale-side" not in str(exc):
                sys.exit(f"{name}: the wrong check raised: {exc}")
        else:
            sys.exit(f"{name}: a forged Gale-side certificate went unnoticed")
        finally:
            lp.solve_feasibility, mani.gale_dual = real_solve, real_dual
    print(sys.flags.optimize)
    """
)


def test_gale_side_rechecks_catch_forged_diagonal_certificates(capsys):
    exec(GALE_FORGERIES, {})
    assert capsys.readouterr().out.strip() == str(sys.flags.optimize)


def test_gale_side_rechecks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(mani.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GALE_FORGERIES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# The forgeries above, run under python -O, where no assert would run: each
# must leave spanning false with no LP.
DUAL_FORGERIES = textwrap.dedent(
    """
    import sys
    from galepoly import lp, mani

    count = [0]
    real = lp.solve_feasibility

    def counting(*args):
        count[0] += 1
        return real(*args)

    build = lambda: mani.construct_nonsimplicial_mani(6, 1, p=3, mode="certificate")
    c, other = build(), build()
    lp.solve_feasibility = counting
    if not mani.dual_spanning_report(c).spanning or count[0]:
        sys.exit("the honest functionals prove no spanning with no LP")
    forgeries = [
        {i: tuple(-a for a in y) for i, y in c.separators.items()},
        {i: y for i, y in c.separators.items() if i},
        {},
    ]
    for forged in forgeries:
        c.separators = forged
        if mani.dual_spanning_report(c).spanning:
            sys.exit("a forged functional proved spanning")
    c = other
    dual = mani.gale_dual(c.points)
    doubled = (tuple(2 * a for a in dual.coords[0]),) + dual.coords[1:]
    forged = mani.VectorConfiguration(m=dual.m, labels=dual.labels, coords=doubled)
    object.__setattr__(c.points, "gale_dual", forged)
    if mani.dual_spanning_report(c).spanning:
        sys.exit("a forged dual was proved spanning")
    if count[0]:
        sys.exit("the dual stage solved an LP")
    print(sys.flags.optimize)
    """
)


def test_dual_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(mani.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DUAL_FORGERIES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
