"""Reference kernels for the differential tests: the original Fraction code.

These are the phase-1 simplex and the Gauss-Jordan elimination as they ran
before the library moved to integer pivoting, kept verbatim in behaviour
(Fraction tableau, Bland's rule, first-nonzero pivot rule), the
point-side midpoint-interior hull test as it ran before the library moved
it to integers and then to the Gale dual (Fraction translation, rank test,
target sum and re-check), the strict positive dependence test as it ran
on Fraction rows before the coface LPs moved to a configuration's integer
view, and the certificate check as it ran on Fraction rows before one
checker served Fraction and integer rows alike.  They are used only to
compare results exactly.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from galepoly.lp import (
    KIND_POSITIVE_DEPENDENCE,
    KIND_RANK_DEFICIENCY,
    KIND_STIEMKE_WITNESS,
    DependenceCertificate,
)

QQ = Fraction


def solve_feasibility(columns, b):
    """Phase-1 simplex on a Fraction tableau; returns ``(x, None)`` or ``(None, y)``."""
    b = tuple(QQ(v) for v in b)
    m = len(b)
    cols = [tuple(QQ(v) for v in c) for c in columns]
    n = len(cols)
    if m == 0:
        return (QQ(0),) * n, None

    signs = [QQ(-1) if bi < 0 else QQ(1) for bi in b]
    tab = [
        [signs[i] * cols[j][i] for j in range(n)]
        + [QQ(1) if k == i else QQ(0) for k in range(m)]
        for i in range(m)
    ]
    rhs = [signs[i] * b[i] for i in range(m)]
    basis = list(range(n, n + m))
    z = [sum((tab[i][j] for i in range(m)), start=QQ(0)) for j in range(n)] + [QQ(0)] * m
    value = sum(rhs, start=QQ(0))

    total = n + m
    while True:
        enter = None
        for j in range(total):
            if z[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best_ratio = None
        best_basic = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                ratio = rhs[i] / t
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < best_basic)
                ):
                    best_ratio, best_basic, leave = ratio, basis[i], i
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        rhs[leave] = rhs[leave] / pv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
                rhs[i] = rhs[i] - f * rhs[leave]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, tab[leave])]
        value = value - f * rhs[leave]
        basis[leave] = enter

    if value == 0:
        x = [QQ(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = rhs[i]
        return tuple(x), None
    return None, tuple(signs[i] * (z[n + i] + 1) for i in range(m))


def eliminate(entries, cols, rhs=None):
    """Fraction reduced row echelon form: ``(rows, pivot_columns, reduced_rhs)``."""
    rows = [[QQ(v) for v in r] for r in entries]
    b = [QQ(v) for v in rhs] if rhs is not None else None
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if b is not None:
            b[r], b[pivot_row] = b[pivot_row], b[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        if b is not None:
            b[r] = b[r] / pv
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if b is not None:
                    b[i] = b[i] - f * b[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, b


def rank(entries, cols):
    return len(eliminate(entries, cols)[1])


def kernel_basis(entries, cols):
    """Kernel basis vectors in the library's order (one per free column)."""
    rows, pivots, _ = eliminate(entries, cols)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(cols) if c not in pivot_set):
        v = [QQ(0)] * cols
        v[f] = QQ(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def solve(entries, cols, b):
    rows, pivots, rb = eliminate(entries, cols, b)
    for i in range(len(rows)):
        if all(x == 0 for x in rows[i]) and rb[i] != 0:
            return None
    x = [QQ(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rb[r]
    return tuple(x)


def interior_point_test(points, x):
    """Whether x is interior to the hull of the points, with its certificate.

    The points are translated by x in Fractions; a rank deficiency gives the
    first kernel vector, else the strict positive dependence LP runs on the
    target -(sum of the translated points), and the certificate is
    re-checked by the Fraction ``verify_certificate`` below.
    """
    x = [QQ(v) for v in x]
    translated = [tuple(QQ(a) - b for a, b in zip(p, x)) for p in points]
    kernel = kernel_basis(translated, len(x))
    if kernel:
        cert = DependenceCertificate(KIND_RANK_DEFICIENCY, direction=kernel[0])
    else:
        target = tuple(-sum(col, start=QQ(0)) for col in zip(*translated))
        lam, y = solve_feasibility(translated, target)
        if lam is not None:
            cert = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=tuple(1 + v for v in lam))
        else:
            cert = DependenceCertificate(KIND_STIEMKE_WITNESS, functional=tuple(-v for v in y))
    if not verify_certificate(translated, None, cert):
        raise AssertionError(f"{cert.kind} certificate failed re-verification")
    return cert.kind == KIND_POSITIVE_DEPENDENCE, cert


def strict_positive_dependence(coords, selection):
    """The strict positive dependence test as it ran on Fraction rows.

    The rows are coerced to Fractions, the target -(sum of the selected
    rows) is summed in Fractions, the Fraction simplex above solves the LP,
    and the certificate is re-checked by the Fraction
    ``verify_certificate`` below.
    """
    idx = sorted(set(selection))
    sel = [tuple(QQ(a) for a in coords[i]) for i in idx]
    target = tuple(-sum(col, start=QQ(0)) for col in zip(*sel))
    lam, y = solve_feasibility(sel, target)
    if lam is not None:
        cert = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=tuple(1 + v for v in lam))
    else:
        cert = DependenceCertificate(KIND_STIEMKE_WITNESS, functional=tuple(-v for v in y))
    if not verify_certificate(coords, idx, cert):
        raise AssertionError(f"{cert.kind} certificate failed re-verification")
    return cert


def verify_certificate(coords, selection, cert):
    """The Fraction certificate check: every row and sum in Fractions.

    A ``PositiveDependence`` needs positive weights (not weights >= 1), and
    an empty selection verifies nothing.
    """
    if selection is None:
        selection = range(len(coords))
    sel = [tuple(QQ(a) for a in coords[i]) for i in sorted(set(selection))]
    if not sel:
        return False
    m = len(sel[0])

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v, strict=True)), start=QQ(0))

    if cert.kind == KIND_POSITIVE_DEPENDENCE:
        lam = cert.lam
        if lam is None or len(lam) != len(sel):
            return False
        if any(w <= 0 for w in lam):
            return False
        total = [QQ(0)] * m
        for w, v in zip(lam, sel):
            for i, a in enumerate(v):
                total[i] += w * a
        return all(t == 0 for t in total)
    if cert.kind == KIND_STIEMKE_WITNESS:
        c = cert.functional
        if c is None or len(c) != m or all(a == 0 for a in c):
            return False
        values = [dot(c, v) for v in sel]
        return all(v >= 0 for v in values) and any(v > 0 for v in values)
    if cert.kind == KIND_RANK_DEFICIENCY:
        w = cert.direction
        if w is None or len(w) != m or all(a == 0 for a in w):
            return False
        return all(dot(w, v) == 0 for v in sel)
    return False
