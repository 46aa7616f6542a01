"""Exact rational linear algebra: scalars, vectors, and ExactMatrix."""

import random
from fractions import Fraction

import pytest

from galepoly.errors import DimensionMismatchError
from galepoly.linalg import (
    QQ,
    ExactMatrix,
    as_vector,
    coprime_multiple,
    dot,
    exact_row,
    format_rational,
    is_zero_vector,
    parse_rational,
    primitive,
    qq,
    vec_add,
    vec_scale,
    vec_sum,
    zero_vector,
)


def test_qq_coerces_int_str_fraction():
    assert qq(3) == Fraction(3)
    assert qq("3/4") == Fraction(3, 4)
    assert qq("-7") == Fraction(-7)
    assert qq(Fraction(5, 6)) == Fraction(5, 6)


def test_qq_rejects_floats():
    with pytest.raises(TypeError):
        qq(0.5)


def test_rational_round_trip():
    for s in ["0", "1", "-1", "3/4", "-22/7", "1000000007/13"]:
        x = parse_rational(s)
        assert format_rational(x) == s
        assert parse_rational(format_rational(x)) == x


def test_format_rational_normalizes():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-4, 2)) == "-2"


def test_parse_rational_rejects_non_strings():
    with pytest.raises(TypeError):
        parse_rational(3)


def test_vector_arithmetic():
    u = as_vector([1, "1/2", -3])
    v = as_vector([2, "1/2", 3])
    assert vec_add(u, v) == (QQ(3), QQ(1), QQ(0))
    assert vec_scale(QQ(2), u) == (QQ(2), QQ(1), QQ(-6))
    assert dot(u, v) == QQ(1) * 2 + QQ(1, 2) * QQ(1, 2) + QQ(-3) * 3
    assert vec_sum([u, v, vec_scale(QQ(-1), u)], 3) == v


def test_vector_length_mismatch_raises():
    with pytest.raises(ValueError):
        vec_add((QQ(1),), (QQ(1), QQ(2)))


def test_zero_vector_predicates():
    assert zero_vector(3) == (QQ(0), QQ(0), QQ(0))
    assert is_zero_vector(zero_vector(5))
    assert not is_zero_vector((QQ(0), QQ(1, 10**9)))


def test_primitive_scales_to_coprime_integers():
    assert primitive(as_vector(["1/2", "1/3"])) == (QQ(3), QQ(2))
    assert primitive(as_vector([4, 6])) == (QQ(2), QQ(3))
    assert primitive(as_vector([-2, -4])) == (QQ(-1), QQ(-2))
    assert primitive(zero_vector(2)) == zero_vector(2)


def test_primitive_preserves_direction():
    rng = random.Random(20260816)
    for _ in range(100):
        n = rng.randint(1, 5)
        u = tuple(
            QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
        )
        p = primitive(u)
        if is_zero_vector(u):
            assert p == u
            continue
        # p = c*u for one positive rational c, with integer coprime entries
        ratios = {pi / ui for pi, ui in zip(p, u) if ui != 0}
        assert len(ratios) == 1
        assert ratios.pop() > 0
        assert all(pi.denominator == 1 for pi in p)


def test_primitive_and_elimination_share_the_coprime_multiple():
    assert coprime_multiple([QQ(2, 3), QQ(4, 3)]) == [1, 2]
    assert coprime_multiple([-6, 4, 0]) == [-3, 2, 0]
    assert coprime_multiple([0, QQ(0)]) == [0, 0]
    assert coprime_multiple([]) == []
    rng = random.Random(5)
    for _ in range(50):
        u = [QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        assert primitive(u) == tuple(coprime_multiple(u))
        assert ExactMatrix([u])._eliminate()[0] == [coprime_multiple(u)]


def test_exact_row_keeps_int_and_fraction_rows_and_coerces_the_rest():
    for row in [(1, QQ(1, 2)), (QQ(3), -4), (), (7,)]:
        assert exact_row(row) is row
    assert exact_row([QQ(3), -4]) == (QQ(3), -4)
    assert exact_row(x for x in (1, "2")) == (1, QQ(2))
    got = exact_row(("1/2", 3, QQ(-1)))
    assert got == (QQ(1, 2), 3, QQ(-1)) and list(map(type, got)) == [Fraction, int, Fraction]
    with pytest.raises(TypeError):
        exact_row((1, 0.5))
    # ExactMatrix takes its rows by the rule: tuples of ints and Fractions
    # are its entries as they are, and results are Fractions
    rows = [(1, 2, 3), (QQ(1, 2), 0, -1)]
    m = ExactMatrix(rows)
    assert all(got is row for got, row in zip(m.entries, rows))
    assert ExactMatrix([["1/2", "0", "-1"]]).entries == ((QQ(1, 2), 0, -1),)
    assert all(type(x) is Fraction for x in m.matvec((1, 1, 1)) + m.kernel_basis().column(0))
    for make in (
        lambda: ExactMatrix([(1, 0.5)]),
        lambda: ExactMatrix.from_columns([(1, 0.5)]),
        lambda: m.matvec((1, 0.5, 0)),
        lambda: m.solve_columns([(1, 0.5)]),
    ):
        with pytest.raises(TypeError):
            make()


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatchError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        ExactMatrix([], cols=None)
    empty = ExactMatrix([], cols=3)
    assert empty.rows == 0 and empty.cols == 3


def test_matrix_constructors_and_access():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.rows == 2 and m.cols == 3
    assert m.row(1) == (QQ(4), QQ(5), QQ(6))
    assert m.column(2) == (QQ(3), QQ(6))
    assert m.transpose().transpose() == m
    assert ExactMatrix.from_columns([m.column(j) for j in range(3)]) == m
    assert ExactMatrix.identity(3).matvec((7, 8, 9)) == (QQ(7), QQ(8), QQ(9))
    assert m.matvec((1, 1, 1)) == (QQ(6), QQ(15))


def test_rank_pinned_cases():
    assert ExactMatrix.identity(4).rank() == 4
    assert ExactMatrix([[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).rank() == 2
    assert ExactMatrix([], cols=3).rank() == 0


def test_kernel_of_square_lift():
    # lifted square: rows (1, x, y) transposed; kernel = dependence (1,-1,1,-1)
    pts = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    lifted_t = ExactMatrix(
        [[1, 1, 1, 1]] + [[p[i] for p in pts] for i in range(2)]
    )
    k = lifted_t.kernel_basis()
    assert k.cols == 1
    # deterministic free-variable convention fixes the sign
    assert primitive(k.column(0)) == (QQ(-1), QQ(1), QQ(-1), QQ(1))


def test_kernel_columns_are_killed_by_matrix():
    rng = random.Random(99)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = ExactMatrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        k = m.kernel_basis()
        assert m.rank() + k.cols == cols
        for j in range(k.cols):
            assert is_zero_vector(m.matvec(k.column(j)))


def test_solve_consistent_and_inconsistent():
    m = ExactMatrix([[2, 0], [0, 4]])
    assert m.solve((1, 1)) == (QQ(1, 2), QQ(1, 4))
    singular = ExactMatrix([[1, 1], [1, 1]])
    assert singular.solve((1, 2)) is None
    x = singular.solve((3, 3))
    assert x is not None and singular.matvec(x) == (QQ(3), QQ(3))


def test_solve_columns_gives_each_columns_own_solution():
    # one elimination for every rhs; consistency is decided column by column
    singular = ExactMatrix([[1, 1], [1, 1], [2, "1/3"]])
    rhs = [(1, 2, 0), (3, 3, 6), (0, 0, 0), ("1/2", "1/2", "5/3")]
    got = singular.solve_columns(rhs)
    assert got == tuple(singular.solve(b) for b in rhs)
    assert got[0] is None and None not in got[1:]
    assert singular.solve_columns([]) == ()
    with pytest.raises(DimensionMismatchError):
        singular.solve_columns([(1, 2, 3), (1, 2)])


def test_elimination_divides_out_a_common_row_factor():
    # each row enters the elimination as coprime integers, so rows scaled
    # by one factor (like a point set's lifted view) eliminate exactly as
    # the rows themselves, pivots, denominator and all
    rng = random.Random(11)
    for _ in range(50):
        rows = [[QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)]
        factor = rng.choice([2, 6, 35, 2**40])
        scaled = ExactMatrix([[factor * a for a in r] for r in rows])
        assert scaled._eliminate() == ExactMatrix(rows)._eliminate()
        assert scaled.kernel_basis() == ExactMatrix(rows).kernel_basis()
        # integer rows (an integer view) against their Fraction quotients
        ints = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        quotients = [[QQ(a, factor) for a in r] for r in ints]
        assert ExactMatrix(ints)._eliminate() == ExactMatrix(quotients)._eliminate()
        assert ExactMatrix(ints).kernel_basis() == ExactMatrix(quotients).kernel_basis()
    rows, pivots, den = ExactMatrix([[4, 6], [QQ(2, 3), 0]])._eliminate()
    assert (pivots, den) == ([0, 1], -3)


def test_solve_random_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = ExactMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        x = tuple(QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        b = m.matvec(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.matvec(sol) == b
