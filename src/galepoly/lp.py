"""Exact feasibility LP and positive-dependence certificates.

The single solver here answers one question in exact rational arithmetic:
does ``sum_j x_j * columns[j] = b`` admit a solution with every ``x_j >= 0``?
It runs a phase-1 simplex with Bland's least-index rule, so it terminates on
every input and returns either a feasible point or a Farkas vector ``y``
with ``y . columns[j] <= 0`` for all j and ``y . b > 0``.  The tableau is
pivoted fraction-free: plain integers over one common denominator, each
row ending in its rhs and the objective row in the phase-1 value, updated
by ``linalg.bareiss_pivot``, the one pivot step that ``linalg.eliminate``
also uses, so no gcd is taken inside the loop.  The result is
re-checked in integers before it leaves, the Farkas vector by
``linalg.separates``.  Inputs are ints, Fractions or rational strings, and
every row enters by the kernel's one row rule, ``linalg.exact_row`` (rows
of ints and Fractions are used as they are, floats are rejected); results
are Fractions, and the integers never leave the solver.

Everything else is a thin layer over that kernel:

* ``strict_positive_dependence`` decides whether a selection of vectors
  admits a dependence with all coefficients strictly positive, which by the
  Stiemke alternative fails exactly when some linear functional is
  nonnegative on the selection and positive somewhere on it; on integer
  rows (``gale`` passes a configuration's integer view) its target sum and
  its certificate re-check run in integers;
* ``positively_spans`` combines a rank check with the dependence test;
* ``separating_functional`` is the convex-combination membership test,
  returning the functional that separates a vertex from the other points;
  ``is_vertex_of_hull`` keeps only its verdict.

Every certificate returned by this module has been re-verified by direct
arithmetic (``verify_certificate``, or ``linalg.separates`` for a Farkas
vector) before it leaves the producing function, so downstream code may
treat certificates as ground truth.  ``verify_certificate`` is the one
certificate re-check of the library: it takes rows of ints, Fractions or
rational strings by ``exact_row``, so ``mani`` re-checks the dual's
integer rows in integers through it, and this module re-checks the
integer multiple of each certificate it returns.  A
feasible point is re-checked to be nonnegative and to reproduce the rhs.
The checks are explicit and raise ``CertificateError``, so they also run
under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadParametersError,
    CertificateError,
    DimensionMismatchError,
    EmptySelectionError,
)
from .linalg import (
    QQ,
    ExactMatrix,
    bareiss_pivot,
    denominator_lcm,
    exact_row,
    integer_multiple,
    separates,
    zero_vector,
)

KIND_POSITIVE_DEPENDENCE = "PositiveDependence"
KIND_STIEMKE_WITNESS = "StiemkeWitness"
KIND_RANK_DEFICIENCY = "RankDeficiency"


@dataclass(frozen=True)
class DependenceCertificate:
    """Outcome of a spanning or dependence test, checkable by arithmetic.

    Exactly one payload field is populated, matching ``kind``:

    * ``PositiveDependence``: ``lam`` has one entry per selected vector, every
      entry >= 1, and the weighted sum of the selection is zero.
    * ``StiemkeWitness``: ``functional`` is nonnegative on every selected
      vector and strictly positive on at least one.
    * ``RankDeficiency``: ``direction`` is a nonzero vector orthogonal to
      every selected vector.
    """

    kind: str
    lam: tuple[Fraction, ...] | None = None
    functional: tuple[Fraction, ...] | None = None
    direction: tuple[Fraction, ...] | None = None


def solve_feasibility(
    columns: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """Find x >= 0 with sum_j x_j columns[j] = b, else a Farkas certificate.

    Returns ``(x, None)`` on feasibility and ``(None, y)`` otherwise, where
    ``y . columns[j] <= 0`` for every j and ``y . b > 0``.  Phase-1 simplex
    with Bland's rule: the entering column is the least index with positive
    reduced cost, and ratio-test ties leave the row whose basic variable has
    the least index.

    The tableau holds integers over one common denominator ``den`` (the
    determinant of the current basis, always positive).  Each column is
    scaled by the lcm of its denominators and ``b`` by the lcm of its own;
    neither changes a reduced-cost sign or the order of the ratios, so the
    pivots are exactly those of the Fraction tableau, and the dual read from
    the artificial columns does not depend on the column scales.
    """
    b = exact_row(b)
    m = len(b)
    cols = [exact_row(c) for c in columns]
    n = len(cols)
    for c in cols:
        if len(c) != m:
            raise DimensionMismatchError("column length does not match rhs length")
    if m == 0:
        return zero_vector(n), None

    scales = [denominator_lcm(c) for c in cols]
    int_cols = [[a.numerator * (s // a.denominator) for a in c] for c, s in zip(cols, scales)]
    b_scale = denominator_lcm(b)
    int_b = [a.numerator * (b_scale // a.denominator) for a in b]
    signs = [-1 if bi < 0 else 1 for bi in int_b]
    # m constraint rows [columns | artificials | rhs], then the objective
    # row of reduced costs for minimizing the sum of artificials, ending in
    # that sum; a positive reduced cost improves it
    tab = [
        [signs[i] * c[i] for c in int_cols]
        + [1 if k == i else 0 for k in range(m)]
        + [signs[i] * int_b[i]]
        for i in range(m)
    ]
    objective = [sum(col) for col in zip(*tab)]
    objective[n:n + m] = [0] * m
    tab.append(objective)
    basis = list(range(n, n + m))
    den = 1

    while True:
        z = tab[m]
        for enter in range(n + m):
            if z[enter] > 0:
                break
        else:  # no reduced cost is positive: the phase-1 value is minimal
            break
        leave = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                # rhs[i] / t against the best ratio, by cross-multiplication
                if leave is None:
                    leave = i
                    continue
                lhs, best = tab[i][-1] * tab[leave][enter], tab[leave][-1] * t
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise CertificateError("phase-1 objective is bounded; no unbounded ray exists")
        den = bareiss_pivot(tab, leave, enter, den)
        basis[leave] = enter

    if tab[m][-1] == 0:
        # x_j = rhs_i * scale_j / (den * b_scale), so sum_j x_j columns[j] = b
        # holds exactly when sum_j rhs_i * int_cols[j] = den * int_b
        x = [QQ(0)] * n
        total_b = [0] * m
        for i, bv in enumerate(basis):
            if bv < n:
                rhs = tab[i][-1]
                x[bv] = QQ(rhs * scales[bv], den * b_scale)
                if x[bv] < 0:
                    raise CertificateError("feasible point has a negative entry")
                total_b = [t + rhs * a for t, a in zip(total_b, int_cols[bv])]
        if total_b != [den * a for a in int_b]:
            raise CertificateError("feasible point fails to reproduce the rhs")
        return tuple(x), None

    # the minimum sum of artificials is positive; read the dual from the
    # objective row.  den * y is integral and den > 0, so its signs against
    # the scaled data are those of y against the input.
    int_y = [signs[i] * (tab[m][n + i] + den) for i in range(m)]
    if not separates(int_y, int_cols + [int_b], n):
        raise CertificateError("Farkas vector must be positive on b, nonpositive on each column")
    return None, tuple(QQ(a, den) for a in int_y)


def nonneg_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Coefficients x >= 0 writing target as a nonnegative combination, or None."""
    x, _ = solve_feasibility(columns, target)
    return x


def _indices(n: int, selection) -> tuple[int, ...]:
    """The selected indices of n vectors, sorted and without repeats.

    None selects all n.  An index outside 0..n-1, a negative one included,
    is a ``BadParametersError``.
    """
    if selection is None:
        return tuple(range(n))
    idx = tuple(sorted(set(selection)))
    for i in idx:
        if not 0 <= i < n:
            raise BadParametersError(f"index {i} out of range for {n} vectors")
    return idx


def _selected(coords: Sequence[Sequence[Fraction]], selection) -> tuple[tuple[int, ...], list]:
    """The selected indices and rows, each row through ``exact_row``."""
    idx = _indices(len(coords), selection)
    if not idx:
        raise EmptySelectionError("selection of vectors is empty")
    return idx, [exact_row(coords[i]) for i in idx]


def _check_certificate(coords, idx, cert: DependenceCertificate) -> None:
    """Re-check ``cert`` on the rows through its integer multiple.

    A positive multiple keeps every sign and every zero sum, so integer
    rows are re-checked in integers.  Only the weight bound of a
    ``PositiveDependence`` depends on the scale; it is read off ``lam``.
    """
    payload = (cert.lam, cert.functional, cert.direction)
    scaled = DependenceCertificate(
        cert.kind, *(None if v is None else tuple(integer_multiple(v)) for v in payload)
    )
    # a weight w >= 1 has a numerator at least its (positive) denominator
    light = any(w.numerator < w.denominator for w in cert.lam or ())
    if light or not verify_certificate(coords, idx, scaled):
        raise CertificateError(f"{cert.kind} certificate failed re-verification")


def strict_positive_dependence(coords: Sequence[Sequence[Fraction]], selection) -> DependenceCertificate:
    """Decide whether the selected vectors admit an all-positive dependence.

    Returns a ``PositiveDependence`` certificate (all weights >= 1) when some
    lambda > 0 has ``sum lambda_i u_i = 0``, else a ``StiemkeWitness``.  The
    substitution lambda = 1 + mu reduces the question to feasibility of
    ``sum mu_i u_i = -(sum u_i)`` with mu >= 0.

    Rows may be Fractions or integers.  The target is summed column by
    column and the certificate's integer multiple is re-checked on the
    rows, so integer rows stay integers outside the solver: ``gale`` passes
    ``VectorConfiguration.integer_coords``, its vectors times one common
    factor.  That factor changes no pivot of ``solve_feasibility``, so the
    certificate is the one the Fraction rows give.
    """
    idx, sel = _selected(coords, selection)
    target = tuple(-sum(col) for col in zip(*sel))
    x, y = solve_feasibility(sel, target)
    if x is not None:
        cert = DependenceCertificate(
            KIND_POSITIVE_DEPENDENCE, lam=tuple(QQ(1) + xi for xi in x)
        )
    else:
        cert = DependenceCertificate(
            KIND_STIEMKE_WITNESS, functional=tuple(-yi for yi in y)
        )
    _check_certificate(coords, idx, cert)
    return cert


def positively_spans(
    coords: Sequence[Sequence[Fraction]], selection
) -> tuple[bool, DependenceCertificate]:
    """Decide whether the selected vectors positively span the ambient space.

    True exactly when the selection has full rank and admits a strict
    positive dependence; the accompanying certificate proves whichever
    verdict is returned and has been re-checked by direct arithmetic.
    """
    idx, sel = _selected(coords, selection)
    m = len(sel[0])
    if m < 1:
        raise BadParametersError("ambient dimension must be at least 1")
    kernel = ExactMatrix(sel).kernel_basis()
    if kernel.cols:  # rank below m
        cert = DependenceCertificate(KIND_RANK_DEFICIENCY, direction=kernel.column(0))
        _check_certificate(coords, idx, cert)
        return False, cert
    cert = strict_positive_dependence(coords, idx)
    return cert.kind == KIND_POSITIVE_DEPENDENCE, cert


def separating_functional(
    points: Sequence[Sequence[Fraction]], i: int
) -> tuple[Fraction, ...] | None:
    """A functional separating points[i] from the others, or None.

    The returned y has ``y . (1, points[i]) > 0`` and ``y . (1, p) <= 0`` for
    every other point p: the Farkas vector of the convex-combination LP, so
    None means points[i] lies in the hull of the others.  An empty remainder
    is separated by (1, 0, ..., 0).
    """
    pts = [exact_row(p) for p in points]
    if not 0 <= i < len(pts):
        raise BadParametersError(f"index {i} out of range for {len(pts)} points")
    others = [p for j, p in enumerate(pts) if j != i]
    if not others:
        return (QQ(1),) + zero_vector(len(pts[i]))
    columns = [(QQ(1),) + p for p in others]
    target = (QQ(1),) + pts[i]
    _, y = solve_feasibility(columns, target)
    return y


def is_vertex_of_hull(points: Sequence[Sequence[Fraction]], i: int) -> bool:
    """Is points[i] outside the convex hull of the remaining points?"""
    return separating_functional(points, i) is not None


def verify_certificate(coords: Sequence[Sequence], selection, cert: DependenceCertificate) -> bool:
    """Re-check a certificate by direct arithmetic; no LP involved.

    Rows may be ints, Fractions or rational strings, taken by
    ``exact_row``, so integer rows with an integer certificate are checked
    in integer arithmetic.  A ``PositiveDependence`` needs every weight
    >= 1.  An empty selection is
    a rank deficiency of nothing: any nonzero ``direction`` of the ambient
    length ``len(coords[0])`` verifies, and no other certificate does.  An
    index outside the rows, a negative one included, is a
    ``BadParametersError``, as in the LP entry points.
    """
    sel = [exact_row(coords[i]) for i in _indices(len(coords), selection)]
    if not coords:
        return False
    m = len(coords[0])
    if cert.kind == KIND_POSITIVE_DEPENDENCE:
        lam = cert.lam
        if not sel or lam is None or len(lam) != len(sel):
            return False
        lam = exact_row(lam)
        if any(w < 1 for w in lam):
            return False
        return all(sum(w * a for w, a in zip(lam, col)) == 0 for col in zip(*sel))
    if cert.kind == KIND_STIEMKE_WITNESS:
        c = cert.functional
        if c is None or len(c) != m:
            return False
        c = exact_row(c)
        values = [sum(a * b for a, b in zip(c, v)) for v in sel]
        return all(v >= 0 for v in values) and any(v > 0 for v in values)
    if cert.kind == KIND_RANK_DEFICIENCY:
        w = cert.direction
        if w is None or len(w) != m:
            return False
        w = exact_row(w)
        return any(w) and all(sum(a * b for a, b in zip(w, v)) == 0 for v in sel)
    return False
