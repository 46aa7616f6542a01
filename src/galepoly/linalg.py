"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` at every boundary; vectors are plain
tuples and matrices are immutable row-major grids.  Every row that enters
the exact kernel, an ``ExactMatrix`` or ``lp``'s simplex, follows one rule
(``exact_row``): a row of ints and Fractions is used as it is, and any other
row has its entries coerced by ``qq``, so integer views (``gale``'s
``lifted`` and ``integer_coords``) enter as integers.  ``as_vector``, which
makes every entry a Fraction, is left for values from outside the kernel:
the labelled rows of ``LabelledRows`` (vector and point configurations)
are stored by it as tuples of Fractions, bools refused, and any bad
dimension, label or row raises ``BadParametersError`` there, or
``DimensionMismatchError`` for a count or length that does not match.
``check_labels`` is the one label rule, which ``polytope`` shares.
Elimination (``eliminate``) runs fraction-free (Edmonds/Bareiss)
Gauss-Jordan steps on integer rows over one common denominator;
``ExactMatrix`` first scales each row to coprime integers
(``coprime_multiple``) and converts back to Fraction only in
``kernel_basis`` and ``solve_columns`` (one elimination for many right-hand
sides; ``solve`` is its one-column case).
The step is ``bareiss_pivot``, the one pivot step of the library: ``lp``'s
simplex pivots through it too, and ``eliminate`` is the only other loop
that does.
Likewise ``separates`` is the one integer separation check, used by
``lp``'s Farkas self-check and by ``mani``'s kept vertex functionals.
Elimination uses a fixed pivot rule (scan columns left to right, take the
first unused row with a nonzero entry), and kernel bases fix each free
variable to one with the others zero, so every result is reproducible
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import fields
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadParametersError, DimensionMismatchError

QQ = Fraction


def qq(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction; floats and bools are
    rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def format_rational(x: Fraction) -> str:
    """Render as 'num' or 'num/den' with den > 0 and gcd(num, den) = 1."""
    return str(qq(x))


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise TypeError(f"rational literal must be a string, got {type(s).__name__}")
    return Fraction(s)


def as_vector(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(qq, xs))


def check_dimension(d, least: int, noun: str = "dimension") -> None:
    """Check that ``d`` is an int, not a bool, of at least ``least``."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise BadParametersError(f"{noun} must be an int")
    if d < least:
        raise BadParametersError(f"{noun} must be at least {least}")


def check_labels(labels, noun: str = "labels") -> dict[str, int]:
    """The position of each label, after checking that ``labels`` is a
    tuple of distinct nonempty strings."""
    if not isinstance(labels, tuple):
        raise BadParametersError(f"{noun} must be a tuple of strings")
    if not all(isinstance(lab, str) for lab in labels):
        raise BadParametersError(f"{noun} must be strings ({noun} must be a tuple of strings)")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise BadParametersError(f"{noun} must be distinct")
    if "" in index:
        raise BadParametersError(f"{noun} must be nonempty")
    return index


class LabelledRows:
    """Base of the frozen dataclasses whose fields are an ambient dimension,
    ``labels`` and ``coords``, in that order: ``spanning.VectorConfiguration``
    (vectors in R^m) and ``gale.PointConfiguration`` (points in R^d).

    Construction checks the dimension (``check_dimension``) and the labels
    (``check_labels``), and stores each row, given as any sequence of ints,
    Fractions and rational strings, as a tuple of Fractions (``as_vector``).
    """

    def __post_init__(self):
        d, labels, coords = (getattr(self, f.name) for f in fields(self))
        check_dimension(d, 0, "ambient dimension")
        check_labels(labels)
        try:
            rows = tuple(coords)
            if any(isinstance(r, (str, bytes)) for r in rows):
                raise TypeError("a row is a string")
            rows = tuple(map(as_vector, rows))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise BadParametersError(f"rows must be sequences of exact rationals: {exc}") from None
        if len(rows) != len(labels):
            raise DimensionMismatchError("labels and coordinates differ in length")
        if any(len(r) != d for r in rows):
            raise DimensionMismatchError("row length differs from ambient dimension")
        object.__setattr__(self, "coords", rows)

    @classmethod
    def from_pairs(cls, d: int, pairs: Iterable[tuple[str, Sequence]]):
        """The configuration of the ``(label, row)`` pairs, each label taken
        as ``str(label)``."""
        try:
            pairs = [(str(lab), row) for lab, row in pairs]
        except (TypeError, ValueError):
            raise BadParametersError("pairs must be (label, row) pairs") from None
        return cls(d, tuple(lab for lab, _ in pairs), tuple(row for _, row in pairs))

    def __len__(self) -> int:
        return len(self.labels)


_EXACT_TYPES = frozenset((int, Fraction))


def exact_row(row: Iterable) -> tuple:
    """The kernel's one row rule: the row as a tuple, ints and Fractions as
    they are.

    A tuple of ints and Fractions is returned as it is, the same object.
    In any other row (rational strings) the ints are kept and every other
    entry is coerced by ``qq``, so floats are rejected.  An int carries
    ``numerator`` and ``denominator`` like a Fraction, so integer scaling
    reads both alike.
    """
    row = tuple(row)
    if _EXACT_TYPES.issuperset(map(type, row)):
        return row
    return tuple(a if isinstance(a, int) else qq(a) for a in row)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    c = qq(c)
    return tuple(c * a for a in u)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), start=QQ(0))


def zero_vector(n: int) -> tuple[Fraction, ...]:
    return (QQ(0),) * n


def is_zero_vector(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def vec_sum(vectors: Iterable[Sequence[Fraction]], length: int) -> tuple[Fraction, ...]:
    acc = [QQ(0)] * length
    for v in vectors:
        for i, a in enumerate(v):
            acc[i] += a
    return tuple(acc)


def denominator_lcm(u: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators; 1 for an empty sequence."""
    return math.lcm(*(a.denominator for a in u))


def integer_multiple(u: Sequence[Fraction]) -> list[int]:
    """The entries times the lcm of their denominators."""
    scale = denominator_lcm(u)
    return [a.numerator * (scale // a.denominator) for a in u]


def common_scale(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """The rows times one common lcm of all their denominators.

    One positive factor for every row keeps each row's direction and the
    ratios between rows, so dependences, signs of functionals and affine
    relations among the rows all carry over to the integers.
    """
    scale = math.lcm(*(denominator_lcm(r) for r in rows))
    return tuple(tuple(a.numerator * (scale // a.denominator) for a in r) for r in rows)


def coprime_multiple(u: Sequence[Fraction]) -> list[int]:
    """The entries times the positive rational that makes them integers
    with gcd 1: the lcm of their denominators, then 1/gcd.  A zero row
    stays zero."""
    ints = integer_multiple(u)
    return [a // g for a in ints] if (g := math.gcd(*ints)) > 1 else ints


def primitive(u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale by a positive rational so entries are integers with gcd 1.

    Direction is preserved exactly; the zero vector stays zero.
    """
    return tuple(map(QQ, coprime_multiple(as_vector(u))))


def bareiss_pivot(rows: list[list[int]], r: int, c: int, den: int) -> int:
    """One fraction-free Gauss-Jordan pivot on ``rows[r][c]``, in place.

    ``rows`` are integers over the common denominator ``den``.  Every other
    row i becomes ``(rows[i] * pv - rows[i][c] * rows[r]) // den`` with
    ``pv = rows[r][c]``; by the Edmonds/Bareiss identity each division is
    exact.  The pivot row keeps its entries, and ``pv`` is returned as the
    new common denominator.
    """
    pv = rows[r][c]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(x * pv - f * y) // den for x, y in zip(row, prow)]
        elif pv != den:
            rows[i] = [x * pv // den for x in row]
    return pv


def separates(y: Sequence[int], rows: Sequence[Sequence[int]], i: int) -> bool:
    """Whether y is positive on ``rows[i]`` and nonpositive on every other row.

    Integer arithmetic only: the check that a Farkas vector or a kept
    separating functional still separates one row from the rest.
    """
    for j, row in enumerate(rows):
        value = sum(a * b for a, b in zip(y, row))
        if value <= 0 if j == i else value > 0:
            return False
    return True


def eliminate(rows: Sequence[list[int]], cols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns ``(rows, pivot_columns, den)``: the reduced row echelon form of
    the first ``cols`` columns is ``rows / den``, and any further column is
    carried along.  Positive row scales change neither the pivots nor the
    reduced form.  ``bareiss_pivot`` replaces rows rather than changing
    them, so the caller's row lists are left as they were.

    Pivot rule: for each column left to right, use the first remaining
    row with a nonzero entry.
    """
    rows = list(rows)
    pivots: list[int] = []
    den = 1
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
        den = bareiss_pivot(rows, r, c, den)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, den


def kernel_vector(rows, pivots: Sequence[int], den: int, f: int, cols: int) -> tuple[Fraction, ...]:
    """The kernel vector of free column ``f`` from ``eliminate``'s result.

    It has x_f = 1, every other free variable 0, and the pivot variables
    back-substituted.
    """
    v = [QQ(0)] * cols
    v[f] = QQ(1)
    for r, pc in enumerate(pivots):
        v[pc] = QQ(-rows[r][f], den)
    return tuple(v)


class ExactMatrix:
    """Immutable dense rational matrix.

    Rows and vectors enter by ``exact_row``, so ``entries`` may hold ints
    as well as Fractions; results (kernel bases, solutions, ``matvec``) are
    Fractions.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        rows = [exact_row(r) for r in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError("cols does not match row width")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("a matrix with no rows needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self.entries = tuple(rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "ExactMatrix":
        cols = [exact_row(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise DimensionMismatchError("ragged columns")
            rows = height
        elif rows is None:
            raise DimensionMismatchError("a matrix with no columns needs an explicit row count")
        return cls([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[QQ(1) if i == j else QQ(0) for j in range(n)] for i in range(n)], cols=n)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        v = exact_row(v)
        if len(v) != self.cols:
            raise DimensionMismatchError("matvec length mismatch")
        return tuple(dot(r, v) for r in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def _eliminate(self, rhs: Sequence[Sequence[Fraction]] = ()):
        """Fraction-free reduced row echelon form, by ``eliminate``.

        Returns ``(rows, pivot_columns, den)`` with integer ``rows``; the
        reduced row echelon form is ``rows / den``.  The right-hand sides
        ``rhs``, one column each, are carried as each row's last columns.
        Each row is first scaled, with its rhs entries, to coprime integers
        (``coprime_multiple``), so a row and any positive multiple of it, an
        integer row and its Fraction quotient among them, eliminate alike.
        That positive factor leaves the reduced rows and the pivot-row rhs
        of every consistent column unchanged, and on zero rows changes only
        the magnitude of an rhs entry, never whether it is zero.  Dividing
        out the gcd also undoes a factor common to all rows (the integer
        views ``gale.PointConfiguration.lifted`` and
        ``VectorConfiguration.integer_coords``), which would otherwise turn
        unit pivots into ones that rescale every row.
        """
        entries = self.entries
        if rhs:
            entries = [r + tuple(b[i] for b in rhs) for i, r in enumerate(entries)]
        return eliminate([coprime_multiple(r) for r in entries], self.cols)

    def rank(self) -> int:
        _, pivots, _ = self._eliminate()
        return len(pivots)

    def kernel_basis(self) -> "ExactMatrix":
        """Basis of the right kernel, one column per free variable.

        Free variables are taken in increasing column order; the basis vector
        for free column f has x_f = 1, every other free variable 0, and the
        pivot variables back-substituted.
        """
        rows, pivots, den = self._eliminate()
        pivot_set = set(pivots)
        columns = [
            kernel_vector(rows, pivots, den, f, self.cols)
            for f in range(self.cols) if f not in pivot_set
        ]
        return ExactMatrix.from_columns(columns, rows=self.cols)

    def solve_columns(self, rhs: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...] | None, ...]:
        """One exact solution of Ax = b for each column b of ``rhs``, or None
        where that b is inconsistent.

        A single elimination carries every b as an extra column, and each
        answer is the one the system with b alone gives.  Free variables are
        set to zero, so the answers are deterministic.
        """
        rhs = [exact_row(b) for b in rhs]
        if any(len(b) != self.rows for b in rhs):
            raise DimensionMismatchError("rhs length mismatch")
        rows, pivots, den = self._eliminate(rhs)
        out = []
        for k in range(self.cols, self.cols + len(rhs)):
            # the rows below the pivot rows are zero but for their rhs
            if any(rows[i][k] for i in range(len(pivots), len(rows))):
                out.append(None)
                continue
            x = [QQ(0)] * self.cols
            for r, pc in enumerate(pivots):
                x[pc] = QQ(rows[r][k], den)
            out.append(tuple(x))
        return tuple(out)

    def solve(self, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """One exact solution of Ax = b, or None if inconsistent: the
        one-column case of ``solve_columns``."""
        return self.solve_columns([b])[0]
