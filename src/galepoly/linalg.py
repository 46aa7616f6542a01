"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` at every boundary; vectors are plain
tuples of Fractions and matrices are immutable row-major grids.  Elimination
scales each row to integers and runs fraction-free (Edmonds/Bareiss)
Gauss-Jordan steps over one common denominator, converting back to Fraction
only in ``kernel_basis`` and ``solve``.  It uses a fixed pivot rule (scan
columns left to right, take the first unused row with a nonzero entry), and
kernel bases fix each free variable to one with the others zero, so every
result is reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

QQ = Fraction


def qq(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
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
    return tuple(qq(x) for x in xs)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-a for a in u)


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


def primitive(u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale by a positive rational so entries are integers with gcd 1.

    Direction is preserved exactly; the zero vector is returned unchanged.
    """
    u = as_vector(u)
    if is_zero_vector(u):
        return u
    ints = integer_multiple(u)
    g = math.gcd(*ints)
    return tuple(QQ(z // g) for z in ints)


class ExactMatrix:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        rows = [as_vector(r) for r in entries]
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
        cols = [as_vector(c) for c in columns]
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
        v = as_vector(v)
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

    def _eliminate(self, rhs: Sequence[Fraction] | None = None):
        """Fraction-free reduced row echelon form.

        Returns ``(rows, pivot_columns, reduced_rhs, den)`` with integer
        ``rows`` and ``reduced_rhs``; the reduced row echelon form is
        ``rows / den``.  Each row is first scaled, together with its rhs
        entry, by the lcm of its denominators; that leaves the reduced rows
        and the pivot-row rhs unchanged, and on zero rows changes only the
        magnitude of the rhs, never whether it is zero.

        Pivot rule: for each column left to right, use the first remaining
        row with a nonzero entry.  The optional right-hand side is carried
        through the same operations.
        """
        if rhs is None:
            rows = [integer_multiple(r) for r in self.entries]
            b = None
        else:
            scaled = [integer_multiple(r + (bi,)) for r, bi in zip(self.entries, rhs)]
            rows = [r[:-1] for r in scaled]
            b = [r[-1] for r in scaled]
        pivots: list[int] = []
        den = 1
        r = 0
        for c in range(self.cols):
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
            # Edmonds/Bareiss step: exact divisions by den, den <- pivot
            pv = rows[r][c]
            prow = rows[r]
            for i in range(len(rows)):
                if i == r:
                    continue
                f = rows[i][c]
                if f:
                    rows[i] = [(x * pv - f * y) // den for x, y in zip(rows[i], prow)]
                    if b is not None:
                        b[i] = (b[i] * pv - f * b[r]) // den
                elif pv != den:
                    rows[i] = [x * pv // den for x in rows[i]]
                    if b is not None:
                        b[i] = b[i] * pv // den
            den = pv
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots, b, den

    def rank(self) -> int:
        _, pivots, _, _ = self._eliminate()
        return len(pivots)

    def kernel_basis(self) -> "ExactMatrix":
        """Basis of the right kernel, one column per free variable.

        Free variables are taken in increasing column order; the basis vector
        for free column f has x_f = 1, every other free variable 0, and the
        pivot variables back-substituted.
        """
        rows, pivots, _, den = self._eliminate()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        columns = []
        for f in free:
            v = [QQ(0)] * self.cols
            v[f] = QQ(1)
            for r, pc in enumerate(pivots):
                v[pc] = QQ(-rows[r][f], den)
            columns.append(v)
        return ExactMatrix.from_columns(columns, rows=self.cols)

    def solve(self, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """One exact solution of Ax = b, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        b = as_vector(b)
        if len(b) != self.rows:
            raise DimensionMismatchError("rhs length mismatch")
        rows, pivots, rb, den = self._eliminate(b)
        # the rows below the pivot rows are zero
        for i in range(len(pivots), len(rows)):
            if rb[i] != 0:
                return None
        x = [QQ(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = QQ(rb[r], den)
        return tuple(x)
