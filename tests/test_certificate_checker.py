"""The one certificate checker on Fraction and integer rows.

``lp.verify_certificate`` is the library's only certificate re-check.  The
LP layer calls it on the integer view of a configuration for the coface
and ``realize`` LPs and on Fraction rows for the spanning scans;
``mani``'s dual stage calls it on integer rows.  It is compared with the
Fraction checker it replaced (``fraction_kernels.verify_certificate``) on
every certificate re-checked in one round of each benchmark workload, on
the same rows scaled to integers by one common lcm, and on hypothesis
inputs.  The two differ by design in three places only: a
``PositiveDependence`` needs every weight >= 1, an empty selection is
proved rank deficient by any nonzero direction of the ambient length, and
an index outside the rows is a ``BadParametersError``.  Forged
certificates fail on both number types, and a forged coface certificate
on the integer view raises ``CertificateError``, also under ``python -O``.
"""

import collections
import functools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import fraction_kernels as ref
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galepoly import linalg, lp, mani
from galepoly.errors import BadParametersError
from galepoly.linalg import integer_multiple
from galepoly.lp import (
    KIND_POSITIVE_DEPENDENCE,
    KIND_RANK_DEFICIENCY,
    KIND_STIEMKE_WITNESS,
    DependenceCertificate,
    positively_spans,
    verify_certificate,
)

QQ = Fraction
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _workloads():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads

    return workloads


@functools.cache
def _round_calls(name: str) -> tuple:
    """Every ``verify_certificate`` call of round 0 (seed 1) of a workload.

    Each call is ``(coords, selection, cert, verdict)``; the recorder stands
    in for the name in ``lp`` (the LP layer's re-checks) and in ``mani``
    (the dual stage's).
    """
    workloads = _workloads()
    cls = {"certify": workloads.Certify, "enumerate": workloads.Enumerate,
           "verify-stream": workloads.VerifyStream}[name]
    workload = cls(1)
    calls = []
    real = lp.verify_certificate

    def recording(coords, selection, cert):
        verdict = real(coords, selection, cert)
        calls.append((coords, selection, cert, verdict))
        return verdict

    lp.verify_certificate = mani.verify_certificate = recording
    try:
        for req in workload.round(0):
            cls.execute(req)
    finally:
        lp.verify_certificate = mani.verify_certificate = real
    return tuple(calls)


def _integer_rows(coords):
    """The rows times one common lcm of all their denominators."""
    scale = math.lcm(*(QQ(a).denominator for row in coords for a in row))
    return [[int(QQ(a) * scale) for a in row] for row in coords]


def _integer_certificate(cert):
    """Each payload vector times the lcm of its denominators."""
    return DependenceCertificate(
        cert.kind,
        **{field: None if v is None else tuple(integer_multiple(v))
           for field, v in (("lam", cert.lam), ("functional", cert.functional),
                            ("direction", cert.direction))},
    )


def _no_fraction_coercion(*args):
    raise AssertionError("an integer re-check coerced an entry to Fraction")


# how many re-checks of each certificate kind on each row type a round
# runs.  certify: on integer rows the dual stage's 78 dependences and 78
# Stiemke witnesses and realize's 3 dependences, on Fraction rows the 30
# dependences of realize's 2-spanning scan.  enumerate: its 69 coface
# LPs, one per distinct set of directions tested, all on the integer
# view.  verify-stream: the spanning scans, still
# on Fraction rows (no rank deficiency in round 0).
ROUND_KINDS = {
    "certify": {(KIND_POSITIVE_DEPENDENCE, int): 81, (KIND_STIEMKE_WITNESS, int): 78,
                (KIND_POSITIVE_DEPENDENCE, Fraction): 30},
    "enumerate": {(KIND_POSITIVE_DEPENDENCE, int): 23, (KIND_STIEMKE_WITNESS, int): 46},
    "verify-stream": {(KIND_POSITIVE_DEPENDENCE, Fraction): 1025, (KIND_STIEMKE_WITNESS, Fraction): 224},
}


@pytest.mark.parametrize("name", sorted(ROUND_KINDS))
def test_every_recheck_of_a_round_matches_the_fraction_reference(name):
    calls = _round_calls(name)
    kinds = collections.Counter((cert.kind, type(coords[0][0])) for coords, _, cert, _ in calls)
    assert kinds == ROUND_KINDS[name]
    for coords, selection, cert, verdict in calls:
        assert verdict is True
        assert ref.verify_certificate(coords, selection, cert) is True


@pytest.mark.parametrize("name", sorted(ROUND_KINDS))
def test_every_recheck_of_a_round_holds_on_integer_rows(name, monkeypatch):
    calls = _round_calls(name)
    scaled = [(_integer_rows(coords), selection, cert) for coords, selection, cert, _ in calls]
    for rows, selection, cert in scaled:
        assert verify_certificate(rows, selection, cert) is True
    # integer rows with integer certificates never reach a Fraction
    monkeypatch.setattr(linalg, "qq", _no_fraction_coercion)
    for rows, selection, cert in scaled:
        assert verify_certificate(rows, selection, _integer_certificate(cert)) is True


def test_the_dual_stage_rechecks_in_integers(monkeypatch):
    c = mani.construct_nonsimplicial_mani(6, 1, p=3, mode="certificate")
    mani.gale_dual(c.points)
    monkeypatch.setattr(linalg, "qq", _no_fraction_coercion)
    report = mani.dual_spanning_report(c)
    assert report.spanning and report.minimal


def test_a_positive_dependence_needs_every_weight_at_least_one():
    halves = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=(QQ(1, 2), QQ(1, 2)))
    ones = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=(QQ(1), QQ(1)))
    for rows in ([(QQ(1),), (QQ(-1),)], [(1,), (-1,)]):
        assert not verify_certificate(rows, None, halves)
        assert verify_certificate(rows, None, ones)
    # the reference accepted any positive weights
    assert ref.verify_certificate([(1,), (-1,)], None, halves)


def test_an_empty_selection_is_proved_only_by_a_nonzero_direction():
    rows = [(QQ(1), QQ(2)), (QQ(3), QQ(4))]
    for coords in (rows, _integer_rows(rows)):
        assert verify_certificate(coords, [], DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(0, 1)))
        for cert in (
            DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(0, 0)),
            DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(1,)),
            DependenceCertificate(KIND_RANK_DEFICIENCY),
            DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=()),
            DependenceCertificate(KIND_STIEMKE_WITNESS, functional=(1, 0)),
        ):
            assert not verify_certificate(coords, [], cert)
    assert not verify_certificate([], None, DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(1,)))


def test_an_index_outside_the_rows_is_a_bad_parameter():
    ones = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=(1, 1))
    for coords in ([(1,), (-1,)], [(QQ(1),), (QQ(-1),)]):
        assert verify_certificate(coords, [0, 1], ones)
        # -1 would read the last row, as if the selection were [0, 1]
        for selection in ([0, -1], [0, 2], [7]):
            with pytest.raises(BadParametersError):
                verify_certificate(coords, selection, ones)
    # the index is checked before the empty rows are
    with pytest.raises(BadParametersError):
        verify_certificate([], [0], DependenceCertificate(KIND_RANK_DEFICIENCY, direction=(1,)))


_rationals = st.one_of(
    st.integers(-3, 3).map(QQ),
    st.builds(QQ, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def _inputs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    coords = [tuple(draw(_rationals) for _ in range(m)) for _ in range(n)]
    selection = draw(st.sets(st.integers(0, n - 1)))
    kind = draw(st.sampled_from([KIND_POSITIVE_DEPENDENCE, KIND_STIEMKE_WITNESS, KIND_RANK_DEFICIENCY]))
    if selection and draw(st.booleans()):
        # the library's own certificate for the selection, perhaps perturbed
        _, cert = positively_spans(coords, selection)
        if draw(st.booleans()):
            return coords, selection, cert
        kind = cert.kind
    length = draw(st.sampled_from([m - 1, m, m + 1, len(selection)]))
    vector = tuple(draw(_rationals) for _ in range(max(length, 0)))
    field = {KIND_POSITIVE_DEPENDENCE: "lam", KIND_STIEMKE_WITNESS: "functional",
             KIND_RANK_DEFICIENCY: "direction"}[kind]
    return coords, selection, DependenceCertificate(kind, **{field: vector})


def _expected(coords, selection, cert) -> bool:
    """The reference verdict, with the two rules the one checker changed."""
    if not selection:
        w = cert.direction
        return cert.kind == KIND_RANK_DEFICIENCY and w is not None and len(w) == len(coords[0]) and any(w)
    if cert.kind == KIND_POSITIVE_DEPENDENCE and cert.lam is not None and any(w < 1 for w in cert.lam):
        return False
    return ref.verify_certificate(coords, selection, cert)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_inputs())
def test_the_checker_matches_the_reference_on_hypothesis_inputs(case):
    coords, selection, cert = case
    expected = _expected(coords, selection, cert)
    assert verify_certificate(coords, selection, cert) is expected
    assert verify_certificate(_integer_rows(coords), selection, cert) is expected
    # rational strings read as the Fractions they name
    strings = [tuple(str(a) for a in row) for row in coords]
    assert verify_certificate(strings, selection, cert) is expected


# Forge the honest certificate of each kind one way at a time, on Fraction
# rows and on the same rows scaled to integers, and forge the LP's answer
# to a coface test on the integer view: every forgery must fail, also
# under python -O.
FORGERIES = textwrap.dedent(
    """
    import sys
    from fractions import Fraction as QQ
    from galepoly.linalg import integer_multiple
    from galepoly.lp import DependenceCertificate as Cert, positively_spans, verify_certificate

    cases = {
        "PositiveDependence": [(QQ(1, 2), 0), (0, QQ(1, 3)), (QQ(-1, 2), QQ(-1, 3))],
        "StiemkeWitness": [(QQ(1, 2), 0), (0, QQ(1, 3)), (QQ(-1, 2), 0)],
        "RankDeficiency": [(QQ(1, 2), 0), (QQ(-1, 2), 0)],
    }
    field = {"PositiveDependence": "lam", "StiemkeWitness": "functional", "RankDeficiency": "direction"}
    for kind, rows in cases.items():
        ok, honest = positively_spans(rows, None)
        if honest.kind != kind:
            sys.exit(f"{kind}: the honest certificate is a {honest.kind}")
        v = getattr(honest, field[kind])
        scale = 6  # the lcm of the rows' denominators
        for number_type, coords, w in (
            ("Fraction", rows, tuple(v)),
            ("integer", [[int(a * scale) for a in r] for r in rows], tuple(integer_multiple(v))),
        ):
            if not verify_certificate(coords, None, Cert(kind, **{field[kind]: w})):
                sys.exit(f"{kind} on {number_type} rows: the honest certificate fails")
            if kind != "RankDeficiency" and verify_certificate(coords, [], honest):
                sys.exit(f"{kind} on {number_type} rows: an empty selection verified")
            forged = {"zero": [0] * len(w), "too short": w[:-1], "too long": w + (0,)}
            if kind != "RankDeficiency":  # a negated direction is still one
                forged["negated"] = [-a for a in w]
            if kind == "PositiveDependence":
                forged["weight 1/2"] = [QQ(a, 2) for a in w]
            for name, vector in forged.items():
                if verify_certificate(coords, None, Cert(kind, **{field[kind]: tuple(vector)})):
                    sys.exit(f"{kind} on {number_type} rows: a {name} certificate verified")

    # forge the LP's answer as a coface test sees it on the integer view:
    # the re-check of the certificate on those rows must raise
    from galepoly import gale, lp
    from galepoly.errors import CertificateError
    from galepoly.spanning import VectorConfiguration

    real_solve = lp.solve_feasibility
    answers = {
        "PositiveDependence": {
            "a weight off by one": lambda x, y: ((1,) + x[1:], None),
            "weights 1/2": lambda x, y: (tuple(a - QQ(1, 2) for a in x), None),
            "a Farkas vector": lambda x, y: (None, (1, 1)),
        },
        "StiemkeWitness": {
            "a negated functional": lambda x, y: (None, tuple(-a for a in y)),
            "a zero functional": lambda x, y: (None, (0,) * len(y)),
            "a feasible point": lambda x, y: ((0, 0, 0), None),
        },
    }
    for kind, forgeries in answers.items():
        config = VectorConfiguration.from_pairs(2, zip("abc", cases[kind]))
        if {type(a) for row in config.integer_coords for a in row} != {int}:
            sys.exit(f"{kind}: the integer view holds a non-integer")
        if gale.is_coface(config, range(3)).certificate.kind != kind:
            sys.exit(f"{kind}: the honest coface test gives another kind")
        for name, forge in forgeries.items():
            lp.solve_feasibility = lambda columns, b, forge=forge: forge(*real_solve(columns, b))
            try:
                gale.is_coface(config, range(3))
            except CertificateError:
                pass
            else:
                sys.exit(f"{kind}: {name} in a coface test went unnoticed")
            finally:
                lp.solve_feasibility = real_solve
    print(sys.flags.optimize)
    """
)


def test_forged_certificates_fail_on_both_number_types(capsys):
    exec(FORGERIES, {})
    assert capsys.readouterr().out.strip() == str(sys.flags.optimize)


def test_forged_certificates_fail_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", FORGERIES], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
