"""Differential tests: certification that reuses answers against re-solving.

``certify_reference`` holds the minimality scan without its memo of removed
sets and the geometric stacking that solves every vertex and midpoint LP at
every trial.  The library keeps each LP answer of a minimality scan by the
set of vectors it removes, keeps one separating functional per point across
stacking trials, and reads the final diagonal flags off the accepted trials;
all of it must give exactly the reference's reports, certificates, apex
placements and flags.
"""

import sys
from fractions import Fraction

import certify_reference as ref
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galepoly import lp, mani
from galepoly.gale import gale_dual
from galepoly.mani import construct_nonsimplicial_mani, dual_spanning_report, hull_flags
from galepoly.spanning import VectorConfiguration, is_minimal_k_spanning, standard_minimal_config

QQ = Fraction

# every certificate build at d = 6..9 with p = 3, 4, 5 and each valid ell
BUILDS = [
    (d, p, ell)
    for d in range(6, 10)
    for p in (3, 4, 5)
    for ell in range(1, -(-d // p))
]


@pytest.mark.parametrize("d,p,ell", BUILDS)
def test_certificate_build_matches_the_reference(d, p, ell):
    c = construct_nonsimplicial_mani(d, ell, p=p, mode="certificate")
    points, stacks, vertex_flags, diagonal_flags = ref.construct_certificate(c)
    assert c.points == points
    assert c.stacks == stacks
    assert c.vertex_flags == vertex_flags
    assert c.diagonal_flags == diagonal_flags
    dual = gale_dual(c.points)
    assert is_minimal_k_spanning(dual, 2) == ref.is_minimal_k_spanning(dual, 2)


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
    coords = [tuple(map(QQ, p)) for p in [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]]
    separators = {}
    assert list(hull_flags(coords, range(5), (), 1, separators)) == [True] * 4 + [False]
    assert sorted(separators) == [0, 1, 2, 3]
    assert all(_separates(separators[i], coords, i) for i in range(4))

    solved = []
    real = mani.separating_functional
    monkeypatch.setattr(mani, "separating_functional", lambda c, i: solved.append(i) or real(c, i))
    separators[1] = separators[0]  # separates point 0, not point 1
    separators[2] = (0, 0, 0)
    separators[4] = (1, 0, 0)  # positive on every point
    assert list(hull_flags(coords, range(5), (), 1, separators)) == [True] * 4 + [False]
    assert solved == [1, 2, 4]
    assert all(_separates(separators[i], coords, i) for i in range(4))

    # without kept functionals every flag solves its LP
    solved.clear()
    assert list(hull_flags(coords, range(5), (), 1)) == [True] * 4 + [False]
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
    # and 310 dual-scan LPs (110 of them repeated pairs)
    count = _count_lps(monkeypatch)
    c = construct_nonsimplicial_mani(12, 1, mode="certificate")
    assert count[0] == 119
    report = dual_spanning_report(c, k=2)
    assert report.spanning and report.minimal
    assert count[0] == 119 + 200
