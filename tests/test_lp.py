"""Exact feasibility LPs: positive dependence, Stiemke witnesses, hull tests."""

import os
import random
import subprocess
import sys
import textwrap

import fraction_kernels
import pytest

from galepoly import linalg
from galepoly import lp as lp_module
from galepoly.errors import (
    BadParametersError,
    CertificateError,
    EmptySelectionError,
)
from galepoly.linalg import QQ, dot
from galepoly.lp import (
    KIND_POSITIVE_DEPENDENCE,
    KIND_RANK_DEFICIENCY,
    KIND_STIEMKE_WITNESS,
    DependenceCertificate,
    is_vertex_of_hull,
    nonneg_combination,
    positively_spans,
    separating_functional,
    solve_feasibility,
    strict_positive_dependence,
    verify_certificate,
)
from galepoly.gale import PointConfiguration
from galepoly.mani import hull_flags

E1 = (QQ(1), QQ(0))
E2 = (QQ(0), QQ(1))


def test_positive_basis_spans_with_unit_weights():
    coords = [E1, E2, (QQ(-1), QQ(-1))]
    ok, cert = positively_spans(coords, None)
    assert ok
    assert cert.kind == KIND_POSITIVE_DEPENDENCE
    assert cert.lam == (QQ(1), QQ(1), QQ(1))
    assert verify_certificate(coords, None, cert)


def test_missing_negative_direction_yields_stiemke_witness():
    coords = [E1, E2, (QQ(-1), QQ(0))]
    ok, cert = positively_spans(coords, range(3))
    assert not ok
    assert cert.kind == KIND_STIEMKE_WITNESS
    assert cert.functional == (QQ(0), QQ(1))
    assert verify_certificate(coords, range(3), cert)


def test_two_vectors_cannot_span_the_plane():
    coords = [E1, E2]
    ok, cert = positively_spans(coords, None)
    assert not ok
    assert cert.kind == KIND_STIEMKE_WITNESS
    assert cert.functional == (QQ(1), QQ(1))


def test_rank_deficiency_certificate():
    coords = [E1, (QQ(-1), QQ(0))]
    ok, cert = positively_spans(coords, None)
    assert not ok
    assert cert.kind == KIND_RANK_DEFICIENCY
    assert cert.direction is not None
    assert all(dot(cert.direction, v) == 0 for v in coords)
    assert verify_certificate(coords, None, cert)


def test_selection_restricts_the_vector_set():
    coords = [E1, E2, (QQ(-1), QQ(-1)), (QQ(5), QQ(7))]
    ok, _ = positively_spans(coords, (0, 1, 2))
    assert ok
    ok, cert = positively_spans(coords, (0, 1, 3))
    assert not ok and cert.kind == KIND_STIEMKE_WITNESS


def test_empty_selection_rejected():
    with pytest.raises(EmptySelectionError):
        strict_positive_dependence([E1], ())


def test_zero_dimension_rejected():
    with pytest.raises(BadParametersError):
        positively_spans([()], None)


def test_strict_dependence_scales_all_weights_above_one():
    coords = [(QQ(2), QQ(0)), (QQ(0), QQ(3)), (QQ(-1), QQ(-1))]
    cert = strict_positive_dependence(coords, range(3))
    assert cert.kind == KIND_POSITIVE_DEPENDENCE
    assert all(l >= 1 for l in cert.lam)
    total = [QQ(0), QQ(0)]
    for l, v in zip(cert.lam, coords):
        total[0] += l * v[0]
        total[1] += l * v[1]
    assert total == [QQ(0), QQ(0)]


def test_interior_boundary_outside_of_square():
    # the point-side reference, then the library's Gale-side test of the
    # same midpoints: a diagonal's, a vertex's (i = j) and an edge's
    interior_point_test = fraction_kernels.interior_point_test
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    ok, cert = interior_point_test(square, (0, 0))
    assert ok and cert.kind == KIND_POSITIVE_DEPENDENCE
    ok, cert = interior_point_test(square, (1, 1))
    assert not ok
    ok, cert = interior_point_test(square, (2, 2))
    assert not ok
    assert cert.kind == KIND_STIEMKE_WITNESS
    assert cert.functional == (QQ(-1), QQ(-1))
    flags = list(hull_flags(PointConfiguration.from_pairs(2, enumerate(square)), (), [(0, 2), (0, 0), (0, 1)]))
    assert flags[0] == (-1, 1, -1, 1) and flags[1:] == [None, None]


def test_exact_entries_of_every_kind_give_the_same_answers():
    # ints, Fractions and rational strings are one input contract; a float
    # is no exact rational and is rejected
    columns = [(1, "-1/2"), (QQ(-2, 3), 0), (0, 3)]
    forms = {
        "int or str": (columns, ("1/3", -1)),
        "Fraction": ([tuple(QQ(a) for a in c) for c in columns], (QQ(1, 3), QQ(-1))),
    }
    results = {form: solve_feasibility(cols, b) for form, (cols, b) in forms.items()}
    assert results["int or str"] == results["Fraction"]
    with pytest.raises(TypeError):
        solve_feasibility([(1, 0.5)], (1, 1))
    with pytest.raises(TypeError):
        solve_feasibility([(1, 0)], (1.0, 1))

    # the point-side hull test takes the same entries
    square = [(1, 1), (-1, 1), (-1, -1), ("1", "-1"), ("1/2", "1/3")]
    fractions = [tuple(QQ(a) for a in p) for p in square]
    for i in range(len(square)):
        assert separating_functional(square, i) == separating_functional(fractions, i)
    with pytest.raises(TypeError):
        separating_functional([(1, 1), (0.5, 0)], 0)


def test_rational_string_rows_give_the_fraction_certificates():
    # the dependence test and the spanning test take the entries that
    # solve_feasibility and verify_certificate take
    cases = [
        [("1",), ("-1",)],
        [("1/2", 0), (0, "1"), (QQ(-1), "-1/3")],
        [("1", "2"), ("-2", "-4")],
        [("1", "0"), ("0", "1")],
    ]
    for rows in cases:
        fractions = [tuple(QQ(a) for a in r) for r in rows]
        assert strict_positive_dependence(rows, None) == strict_positive_dependence(fractions, None)
        assert positively_spans(rows, None) == positively_spans(fractions, None)
    with pytest.raises(TypeError):
        strict_positive_dependence([(1,), (-0.5,)], None)
    # int and Fraction rows are selected as they are, not copied
    rows = [(QQ(1), 0), (0, QQ(-1, 2)), (2, 3)]
    _, selected = lp_module._selected(rows, None)
    assert all(got is row for got, row in zip(selected, rows))


def test_int_and_fraction_rows_reach_the_solver_and_the_checker_uncoerced(monkeypatch):
    # the solver, the certificate check and the selection share the
    # kernel's one row rule (linalg.exact_row): a row of ints and Fractions
    # is used as it is, and only another row (rational strings) has its
    # entries coerced, each non-int one by linalg.qq
    coerced = []
    real = linalg.qq
    monkeypatch.setattr(linalg, "qq", lambda x: coerced.append(x) or real(x))
    rows = [(QQ(1), 0), (0, QQ(-1, 2)), (-2, 3)]
    assert solve_feasibility(rows, (QQ(1, 3), -1))[0] is not None
    assert solve_feasibility(rows[:2], (-1, 0))[1] is not None
    certificates = [
        DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=(2, QQ(6), 1)),
        DependenceCertificate(KIND_STIEMKE_WITNESS, functional=(QQ(1), -1)),
        DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(0, QQ(1, 7))),
    ]
    assert [verify_certificate(rows, None, c) for c in certificates] == [True, False, False]
    assert verify_certificate(rows, [0, 1], certificates[1])
    assert verify_certificate(rows, [0], certificates[2])
    assert coerced == []
    # rational strings are still read, and floats still rejected
    assert solve_feasibility([("1", 0)], ("1/2", 0)) == ((QQ(1, 2),), None)
    assert verify_certificate([("1/2",), ("-1",)], None, DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=("2", 1)))
    assert len(coerced) == 5
    with pytest.raises(TypeError):
        verify_certificate([(1, 0.5)], None, certificates[1])


def test_vertex_of_hull_pinned():
    square_plus_center = [(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)]
    for i in range(4):
        assert is_vertex_of_hull(square_plus_center, i)
    assert not is_vertex_of_hull(square_plus_center, 4)
    # midpoint of an edge is not a vertex either
    with_mid = [(1, 1), (-1, 1), (0, 1)]
    assert not is_vertex_of_hull(with_mid, 2)
    assert is_vertex_of_hull([(3, 4)], 0)
    with pytest.raises(BadParametersError):
        is_vertex_of_hull(with_mid, 3)


def test_nonneg_combination_matches_feasibility():
    # e1 = 1*e1 + 0*e2 is nonnegative-feasible; -e1 from {e1, e2} is not
    cols = [E1, E2]
    x = nonneg_combination(cols, (QQ(1), QQ(0)))
    assert x is not None and all(c >= 0 for c in x)
    assert nonneg_combination(cols, (QQ(-1), QQ(0))) is None


def test_solve_feasibility_returns_exactly_one_side():
    rng = random.Random(424242)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        cols = [
            tuple(QQ(rng.randint(-4, 4)) for _ in range(m)) for _ in range(n)
        ]
        b = tuple(QQ(rng.randint(-4, 4)) for _ in range(m))
        x, y = solve_feasibility(cols, b)
        assert (x is None) != (y is None)
        if x is not None:
            # primal: b = sum x_j col_j with x >= 0
            assert all(xi >= 0 for xi in x)
            for i in range(m):
                assert sum(x[j] * cols[j][i] for j in range(n)) == b[i]
        else:
            # dual: <y, col_j> <= 0 for all j but <y, b> > 0
            assert all(dot(y, c) <= 0 for c in cols)
            assert dot(y, b) > 0


def _spans_by_definition(coords):
    """Positive spanning straight from the definition.

    A cone closed under addition contains every vector iff it contains
    +-e_1 ... +-e_m, so the verdict reduces to 2m reachability questions,
    a different route than the rank + strict-dependence test under test.
    """
    m = len(coords[0])
    targets = []
    for i in range(m):
        e = [QQ(0)] * m
        e[i] = QQ(1)
        targets.append(tuple(e))
        targets.append(tuple(-x for x in e))
    return all(nonneg_combination(coords, t) is not None for t in targets)


def test_positively_spans_agrees_with_definition():
    rng = random.Random(20260816)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        coords = [
            tuple(QQ(rng.randint(-2, 2)) for _ in range(m)) for _ in range(n)
        ]
        ok, cert = positively_spans(coords, None)
        assert ok == _spans_by_definition(coords)
        assert verify_certificate(coords, None, cert)


def test_verify_certificate_rejects_forgeries():
    coords = [E1, E2, (QQ(-1), QQ(-1))]
    bad_lam = DependenceCertificate(
        KIND_POSITIVE_DEPENDENCE, lam=(QQ(1), QQ(2), QQ(1))
    )
    assert not verify_certificate(coords, None, bad_lam)
    bad_len = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=(QQ(1),))
    assert not verify_certificate(coords, None, bad_len)
    bad_witness = DependenceCertificate(
        KIND_STIEMKE_WITNESS, functional=(QQ(1), QQ(-1))
    )
    assert not verify_certificate(coords, None, bad_witness)
    zero_witness = DependenceCertificate(
        KIND_STIEMKE_WITNESS, functional=(QQ(0), QQ(0))
    )
    assert not verify_certificate(coords, None, zero_witness)
    bad_direction = DependenceCertificate(
        KIND_RANK_DEFICIENCY, direction=(QQ(1), QQ(0))
    )
    assert not verify_certificate(coords, None, bad_direction)
    assert not verify_certificate(coords, None, DependenceCertificate("Nonsense"))


def _forge_every_verification(monkeypatch):
    monkeypatch.setattr(lp_module, "verify_certificate", lambda *args: False)


def test_failed_reverification_raises_certificate_error(monkeypatch):
    _forge_every_verification(monkeypatch)
    spanning = [E1, E2, (QQ(-1), QQ(-1))]
    with pytest.raises(CertificateError):
        strict_positive_dependence(spanning, None)
    # both branches of positively_spans: full rank, then rank deficient
    with pytest.raises(CertificateError):
        positively_spans(spanning, None)
    with pytest.raises(CertificateError):
        positively_spans([E1, (QQ(-1), QQ(0))], None)


# Forge the LP kernel's Farkas vector as the hull test sees it: the
# Gale-side test of the square's diagonal (mani.hull_flags) reads h off y,
# and its integer re-check of c_u = h.v*_u must raise on a negated y and on
# one whose functional part is zero.
HULL_FORGERIES = textwrap.dedent(
    """
    import sys
    from galepoly import lp, mani
    from galepoly.errors import CertificateError
    from galepoly.gale import PointConfiguration

    real_solve = lp.solve_feasibility

    def wrong_y(columns, b):
        x, y = real_solve(columns, b)
        return x, tuple(-a for a in y)

    def zero_h(columns, b):
        x, y = real_solve(columns, b)
        return x, (y[0],) + (0,) * (len(y) - 1)

    square = PointConfiguration.from_pairs(2, enumerate([(1, 1), (-1, 1), (-1, -1), (1, -1)]))
    for forged in (wrong_y, zero_h):
        if None in mani.hull_flags(square, (), [(0, 2)]):
            sys.exit("the square's diagonal is not proved interior")
        lp.solve_feasibility = forged
        try:
            list(mani.hull_flags(square, (), [(0, 2)]))
        except CertificateError:
            pass
        else:
            sys.exit(f"a forged Farkas vector ({forged.__name__}) in the hull test went unnoticed")
        finally:
            lp.solve_feasibility = real_solve
    """
)


def test_hull_test_rechecks_catch_forged_kernel_results():
    exec(HULL_FORGERIES, {})


def test_certificate_checks_survive_optimized_mode():
    code = "\n".join(
        [
            "import sys",
            "from galepoly import lp",
            "from galepoly.errors import CertificateError",
            "lp.verify_certificate = lambda *args: False",
            "e1, e2 = (1, 0), (0, 1)",
            "calls = [",
            "    lambda: lp.strict_positive_dependence([e1, e2, (-1, -1)], None),",
            "    lambda: lp.positively_spans([e1, e2, (-1, -1)], None),",
            "    lambda: lp.positively_spans([e1, (-1, 0)], None),",
            "]",
            "for call in calls:",
            "    try:",
            "        call()",
            "    except CertificateError:",
            "        continue",
            "    sys.exit('a forged verification went unnoticed')",
            HULL_FORGERIES,
            "print(sys.flags.optimize)",
        ]
    )
    src = os.path.dirname(os.path.dirname(lp_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# Forge the kernel's shared steps one at a time: each solve must end in the
# CertificateError of the integer self-check that catches the forgery.
KERNEL_FORGERIES = textwrap.dedent(
    """
    import sys
    from galepoly import lp
    from galepoly.errors import CertificateError

    real_pivot, real_separates = lp.bareiss_pivot, lp.separates

    def rhs_off(rows, r, c, den):
        # the entering variable's value grows by one
        pv = real_pivot(rows, r, c, den)
        rows[r][-1] += pv
        return pv

    def no_leaving_row(rows, r, c, den):
        # column c improves the objective again but has no positive entry
        pv = real_pivot(rows, r, c, den)
        for row in rows[:-1]:
            row[c] = -1
        rows[-1][c] = 1
        return pv

    def negative_basic(rows, r, c, den, calls=[]):
        # column 1 re-enters after the first pivot; after the second the
        # phase-1 value reads 0 and column 1's basic value reads -1, which
        # still reproduces b
        pv = real_pivot(rows, r, c, den)
        calls.append(c)
        if len(calls) == 1:
            rows[r][1] = rows[-1][1] = 1
        else:
            rows[r][-1], rows[-1][-1] = -pv, 0
        return pv

    cases = [
        ("bareiss_pivot", rhs_off, [(1, 0), (0, 1)], (1, 1), "fails to reproduce the rhs"),
        ("bareiss_pivot", negative_basic, [(1,), (-1,)], (1,), "negative entry"),
        ("bareiss_pivot", no_leaving_row, [(1,)], (1,), "no unbounded ray"),
        ("separates", lambda *args: False, [(1,)], (-1,), "Farkas vector"),
    ]
    for name, forged, columns, b, message in cases:
        lp.solve_feasibility(columns, b)
        setattr(lp, name, forged)
        try:
            lp.solve_feasibility(columns, b)
        except CertificateError as exc:
            if message not in str(exc):
                sys.exit(f"a forged {name} raised the wrong check: {exc}")
        else:
            sys.exit(f"a forged {name} went unnoticed")
        finally:
            lp.bareiss_pivot, lp.separates = real_pivot, real_separates
    print(sys.flags.optimize)
    """
)


def test_kernel_self_checks_catch_a_forged_pivot_or_separation(capsys):
    exec(KERNEL_FORGERIES, {})
    assert capsys.readouterr().out.strip() == str(sys.flags.optimize)


def test_kernel_self_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(lp_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", KERNEL_FORGERIES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
