import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzl import linalg
from zzl.linalg import (
    AmbientMismatch,
    DimensionMismatch,
    QMatrix,
    ShapeMismatch,
    Subspace,
    block_assemble,
    format_rational,
    hstack,
    image_basis,
    independent_modulo,
    kernel_basis,
    parse_rational,
    product_is_zero,
    rank,
    rref,
    serialize_matrix,
    solve,
    subspace_equal,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from zzl.zigzag import ZigZag, validate


def small_fractions():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def qmatrices(draw, max_dim=4, min_rows=0, min_cols=0):
    rows = draw(st.integers(min_rows, max_dim))
    cols = draw(st.integers(min_cols, max_dim))
    entries = draw(
        st.lists(small_fractions(), min_size=rows * cols, max_size=rows * cols)
    )
    return QMatrix(rows, cols, tuple(entries))


def shaped_qmatrices(rows, cols):
    return st.lists(
        small_fractions(), min_size=rows * cols, max_size=rows * cols
    ).map(lambda entries: QMatrix(rows, cols, tuple(entries)))


@st.composite
def low_rank_products(draw, max_dim=5):
    """B*C through an inner dimension of at most 2, so usually rank-deficient."""
    rows, inner, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, 2)), draw(st.integers(0, max_dim))
    return draw(shaped_qmatrices(rows, inner)) * draw(shaped_qmatrices(inner, cols))


def oracle_matrices(max_dim=5):
    return st.one_of(qmatrices(max_dim=max_dim), low_rank_products(max_dim=max_dim))


def is_canonical(m: QMatrix) -> bool:
    """The stored form: numerators over the LCM of the entries' reduced
    denominators, which leaves gcd(den, nums) == 1."""
    return (
        m.den == lcm(*(x.denominator for x in m.entries))
        and gcd(m.den, *m.nums) == 1
        and len(m.nums) == m.rows * m.cols
    )


class TestRank:
    def test_identity(self):
        assert rank(QMatrix.identity(3)) == 3

    def test_proportional_rows(self):
        assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_empty_domain(self):
        assert rank(QMatrix.zero(0, 5)) == 0
        assert rank(QMatrix.zero(5, 0)) == 0

    @settings(max_examples=60, deadline=None)
    @given(qmatrices())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_basis(m).dim == m.cols


class TestKernelImage:
    def test_kernel_of_identity(self):
        assert kernel_basis(QMatrix.identity(2)).dim == 0

    def test_kernel_of_zero(self):
        k = kernel_basis(QMatrix.zero(2, 2))
        assert k.dim == 2

    def test_kernel_line(self):
        m = QMatrix.from_rows([[1, 2], [2, 4]])
        k = kernel_basis(m)
        assert k.dim == 1
        assert k.contains([2, -1])
        assert m.apply(k.basis.col(0)) == (Fraction(0), Fraction(0))

    def test_image_identity_full(self):
        assert subspace_equal(image_basis(QMatrix.identity(3)), Subspace.full(3))

    def test_image_zero(self):
        assert image_basis(QMatrix.zero(3, 2)).dim == 0

    def test_image_single_column(self):
        s = image_basis(QMatrix.from_rows([[1], [2]]))
        assert s.dim == 1 and s.contains([1, 2])

    @pytest.mark.parametrize("basis", [kernel_basis, image_basis])
    def test_work_gate_one_elimination(self, basis, monkeypatch):
        # the pivot columns and the kernel basis are independent by
        # construction, so the result is not eliminated a second time
        calls = []
        original = linalg._eliminate

        def counting(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        s = basis(QMatrix.from_rows([[1, 2, 3], [2, 4, 7]]))
        assert len(calls) == 1 and s.dim in (1, 2)

    def test_independent_modulo_keeps_the_first_new_columns(self):
        b = QMatrix.from_rows([[1], [0], [0]])
        c = QMatrix.from_rows([[2, 0, 1, 0], [0, 1, 1, 0], [0, 2, 2, 1]])
        assert independent_modulo(b, c) == QMatrix.from_rows([[0, 0], [1, 0], [2, 1]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.data())
    def test_independent_modulo_is_image_basis_past_b(self, rows, data):
        b = data.draw(st.integers(0, 4).flatmap(lambda k: shaped_qmatrices(rows, k)))
        c = data.draw(st.integers(0, 4).flatmap(lambda k: shaped_qmatrices(rows, k)))
        kept = independent_modulo(b, c)
        assert image_basis(hstack(b, c)).basis == hstack(image_basis(b).basis, kept)

    @settings(max_examples=60, deadline=None)
    @given(qmatrices())
    def test_kernel_vectors_annihilated(self, m):
        k = kernel_basis(m)
        for j in range(k.dim):
            assert all(x == 0 for x in m.apply(k.basis.col(j)))


class TestSubspaces:
    def test_scaling_is_equal(self):
        assert subspace_equal(
            Subspace.spanned_by(2, [[1, 0]]), Subspace.spanned_by(2, [[2, 0]])
        )

    def test_different_lines(self):
        assert not subspace_equal(
            Subspace.spanned_by(2, [[1, 0]]), Subspace.spanned_by(2, [[0, 1]])
        )

    def test_two_vectors_span_plane(self):
        assert subspace_equal(
            Subspace.spanned_by(2, [[1, 1], [1, -1]]), Subspace.full(2)
        )

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_equal(Subspace.zero(2), Subspace.zero(3))

    def test_direct_construction_checks_independence(self):
        with pytest.raises(ShapeMismatch, match="dependent"):
            Subspace(QMatrix.from_rows([[1, 2], [2, 4]]))
        assert Subspace(QMatrix.identity(2)) == Subspace.full(2)

    def test_sum_and_intersection(self):
        s1 = Subspace.spanned_by(3, [[1, 0, 0], [0, 1, 0]])
        s2 = Subspace.spanned_by(3, [[0, 1, 0], [0, 0, 1]])
        assert subspace_equal(subspace_sum(s1, s2), Subspace.full(3))
        meet = subspace_intersect(s1, s2)
        assert meet.dim == 1 and meet.contains([0, 1, 0])

    @settings(max_examples=40, deadline=None)
    @given(qmatrices(max_dim=3), qmatrices(max_dim=3))
    def test_equal_is_equivalence_on_images(self, m1, m2):
        s1 = image_basis(m1)
        assert subspace_equal(s1, s1)
        if m1.rows == m2.rows:
            s2 = image_basis(m2)
            assert subspace_equal(s1, s2) == subspace_equal(s2, s1)

    @settings(max_examples=40, deadline=None)
    @given(qmatrices(max_dim=3), st.integers(-3, 3), st.integers(-3, 3))
    def test_equal_is_transitive_along_rescalings(self, m, c1, c2):
        s = image_basis(m)
        if c1 == 0 or c2 == 0:
            return
        s1 = image_basis(c1 * m)
        s2 = image_basis((c1 * c2) * m)
        assert subspace_equal(s, s1) and subspace_equal(s1, s2)
        assert subspace_equal(s, s2)


@st.composite
def composable_pairs(draw, max_dim=6):
    """A (p x n) and B (n x m), A of rank at most 3 so that its kernel
    often meets the image of B."""
    p, n, m, inner = (draw(st.integers(0, d)) for d in (max_dim, max_dim, max_dim, 3))
    a = draw(shaped_qmatrices(p, inner)) * draw(shaped_qmatrices(inner, n))
    return a, draw(shaped_qmatrices(n, m))


@settings(max_examples=100, deadline=None)
@given(composable_pairs())
def test_kernel_meets_image_as_image_of_kernel(pair):
    # ker A intersect im B = B ker(AB), equal as stored, byte for byte: the
    # weight filtration builds its pieces the second way
    a, b = pair
    meet = subspace_intersect(kernel_basis(a), image_basis(b))
    assert meet == image_basis(b * kernel_basis(a * b).basis)


def _exact_at_middle(f, g):
    """Exactness of f then g at their middle, read at position A of the
    zig-zag (f, g, 0) by zigzag.validate."""
    z = ZigZag("L", f.cols, 0, f.rows, g.rows, f, g, QMatrix.zero(0, g.rows))
    return all(issue.position != "A" for issue in validate(z))


class TestExactness:
    def test_zero_then_identity(self):
        assert _exact_at_middle(QMatrix.zero(1, 1), QMatrix.identity(1))

    def test_identity_then_zero_map_to_point(self):
        assert _exact_at_middle(QMatrix.identity(1), QMatrix.zero(0, 1))

    def test_zero_zero_not_exact(self):
        assert not _exact_at_middle(QMatrix.zero(1, 1), QMatrix.zero(1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            _exact_at_middle(QMatrix.zero(2, 1), QMatrix.zero(1, 1))

    @settings(max_examples=40, deadline=None)
    @given(qmatrices(max_dim=3), qmatrices(max_dim=3))
    def test_exactness_implies_zero_composite(self, f, g):
        if f.rows != g.cols:
            return
        if _exact_at_middle(f, g):
            assert (g * f).is_zero()


class TestBlocks:
    def test_direct_placement(self):
        m = block_assemble(
            [[QMatrix.identity(1), QMatrix.from_rows([[1]])],
             [None, QMatrix.identity(1)]],
            [1, 1], [1, 1],
        )
        assert m == QMatrix.from_rows([[1, 1], [0, 1]])

    def test_all_absent_is_zero(self):
        assert block_assemble([[None, None], [None, None]], [1, 1], [1, 1]) == QMatrix.zero(2, 2)

    def test_odp_collapse_to_rank_one(self):
        # 0x0 beta with no coupling block and an identity quotient
        m = block_assemble(
            [[QMatrix.zero(0, 0), QMatrix.zero(0, 1)], [None, QMatrix.identity(1)]],
            [0, 1], [0, 1],
        )
        assert m == QMatrix.identity(1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            block_assemble([[QMatrix.identity(2), None], [None, None]], [1, 1], [1, 1])

    @settings(max_examples=40, deadline=None)
    @given(qmatrices(max_dim=3), qmatrices(max_dim=3), qmatrices(max_dim=3), qmatrices(max_dim=3))
    def test_extract_recovers_blocks(self, a, b, c, d):
        row_dims = [a.rows, c.rows]
        col_dims = [a.cols, b.cols]
        if b.rows != a.rows or c.cols != a.cols or (d.rows, d.cols) != (c.rows, b.cols):
            return
        m = block_assemble([[a, b], [c, d]], row_dims, col_dims)
        for blk, r0, c0 in ((a, 0, 0), (b, 0, a.cols), (c, a.rows, 0), (d, a.rows, a.cols)):
            assert all(
                m.entry(r0 + i, c0 + j) == blk.entry(i, j)
                for i in range(blk.rows) for j in range(blk.cols)
            )


class TestFromColumns:
    def test_empty_columns_keep_their_count(self):
        assert QMatrix.from_columns([(), (), ()], rows=0) == QMatrix.zero(0, 3)
        assert QMatrix.from_columns([(), ()]) == QMatrix.zero(0, 2)
        assert QMatrix.from_columns([], rows=2) == QMatrix.zero(2, 0)

    def test_declared_rows_must_agree(self):
        assert QMatrix.from_columns([(1, 2)], rows=2) == QMatrix.from_rows([[1], [2]])
        with pytest.raises(ShapeMismatch, match="declared 3 rows, columns have 2"):
            QMatrix.from_columns([(1, 2)], rows=3)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ShapeMismatch):
            QMatrix.from_columns([(1, 2), (3,)])


class TestProductIsZero:
    @settings(max_examples=100, deadline=None)
    @given(qmatrices(max_dim=4, min_rows=1, min_cols=1), st.data())
    def test_agrees_with_the_product(self, g0, data):
        # g is g0 with each row over its own denominator; the columns of f
        # lie in the kernel of g (the same as that of g0) unless one entry
        # is moved
        dens = data.draw(st.lists(st.integers(1, 7), min_size=g0.rows, max_size=g0.rows))
        g = QMatrix.from_rows([[x / d for x in g0.row(i)] for i, d in enumerate(dens)], cols=g0.cols)
        k = kernel_basis(g0).basis
        f = k * data.draw(st.integers(0, 3).flatmap(lambda w: shaped_qmatrices(k.cols, w)))
        if f.cols and data.draw(st.booleans()):
            entries = list(f.entries)
            entries[data.draw(st.integers(0, len(entries) - 1))] += Fraction(1, data.draw(st.integers(1, 5)))
            f = QMatrix(f.rows, f.cols, entries)
        assert product_is_zero(g, f) == (g * f).is_zero()

    def test_empty_shapes_and_mismatch(self):
        assert product_is_zero(QMatrix.zero(2, 0), QMatrix.zero(0, 3))
        assert product_is_zero(QMatrix.zero(0, 2), QMatrix.identity(2))
        assert not product_is_zero(QMatrix.identity(2), QMatrix.from_rows([[0], [Fraction(1, 3)]]))
        with pytest.raises(DimensionMismatch):
            product_is_zero(QMatrix.zero(1, 2), QMatrix.zero(1, 1))


class TestStoredForm:
    def test_entries_from_a_list_are_copied(self):
        values = [Fraction(1), Fraction(2)]
        m = QMatrix(1, 2, values)
        values[0] = Fraction(5)
        assert m == QMatrix(1, 2, (Fraction(1), Fraction(2)))
        assert hash(m) == hash(QMatrix(1, 2, (1, 2)))
        assert m.entries == (1, 2)

    def test_immutable(self):
        m = QMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3
        with pytest.raises(AttributeError):
            m.nums = (0, 0, 0, 0)
        assert m == QMatrix.from_rows([[1, 0], [0, 1]])

    def test_integer_and_zero_matrices_have_denominator_one(self):
        m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-5, 6)]])
        assert (m.den, m.nums) == (6, (3, 2, 0, -5))
        assert (m * 6).den == 1 and (m * 0).den == 1 and (m - m).den == 1
        assert m * 0 == QMatrix.zero(2, 2)

    @settings(max_examples=100, deadline=None)
    @given(qmatrices(), qmatrices(), small_fractions().filter(bool))
    def test_equality_and_hash_are_value_equality(self, m, other, c):
        assert is_canonical(m)
        same = [
            QMatrix(m.rows, m.cols, [int(x) if x.denominator == 1 else x for x in m.entries]),
            (m * c) * (1 / c),
            m + m - m,
            m.transpose().transpose(),
            m * QMatrix.identity(m.cols),
        ]
        for s in same:
            assert s == m and hash(s) == hash(m) and is_canonical(s)
        assert (m == other) == ((m.rows, m.cols, m.entries) == (other.rows, other.cols, other.entries))


class TestArithmetic:
    def test_zero_dim_composition(self):
        m = QMatrix.zero(2, 0) * QMatrix.zero(0, 3)
        assert m == QMatrix.zero(2, 3)

    def test_inverse(self):
        m = QMatrix.from_rows([[1, 1], [0, 1]])
        assert m * m.inverse() == QMatrix.identity(2)

    def test_singular_inverse(self):
        with pytest.raises(ValueError):
            QMatrix.from_rows([[1, 1], [1, 1]]).inverse()

    def test_solve(self):
        m = QMatrix.from_rows([[1, 2], [0, 1]])
        x = solve(m, QMatrix.column([3, 1]))
        assert x is not None and m.apply(x.col(0)) == (Fraction(3), Fraction(1))
        assert solve(QMatrix.zero(1, 1), QMatrix.column([1])) is None


class TestSerialization:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1, 2), "1/2"),
            (Fraction(-2, 4), "-1/2"),
            (Fraction(5), "5"),
            (Fraction(0), "0"),
            (Fraction(-7), "-7"),
        ],
    )
    def test_rational_round_trip(self, value, text):
        assert format_rational(value) == text
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1/0", "-3/0", "+4", "1_0", "\u0663", " 3 ", "3\n", "-1/-2", "1/+2", "--1", "1/", "/2", "", "1.5", "0x10"],
    )
    def test_rational_rejects_what_a_document_cannot_write(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_matrix_text(self):
        m = QMatrix.from_rows([[Fraction(1, 2), 0], [-1, 3]])
        assert serialize_matrix(m) == "[1/2,0;-1,3]"
        assert serialize_matrix(QMatrix.zero(0, 3)) == "[]"


# -- differential tests against sympy's DomainMatrix ------------------------


@pytest.fixture(scope="module")
def sympy_qq():
    import sympy
    from sympy.polys.matrices import DomainMatrix

    def to_dm(m: QMatrix):
        rows = [[sympy.QQ(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)]
        return DomainMatrix(rows, (m.rows, m.cols), sympy.QQ)

    to_dm.domain = sympy.QQ
    return to_dm


def from_dm(dm) -> QMatrix:
    rows, cols = dm.shape
    return QMatrix(rows, cols, tuple(
        Fraction(int(x.numerator), int(x.denominator)) for row in dm.to_list() for x in row
    ))


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(oracle_matrices(max_dim=6))
    def test_rref_and_pivots(self, sympy_qq, m):
        reduced, den, pivots = sympy_qq(m).rref_den()
        expected = QMatrix(m.rows, m.cols, tuple(
            Fraction(int(x.numerator), int(x.denominator)) / Fraction(int(den.numerator), int(den.denominator))
            for row in reduced.to_list() for x in row
        ))
        assert rref(m) == (expected, tuple(pivots))

    @settings(max_examples=100, deadline=None)
    @given(oracle_matrices(max_dim=6))
    def test_rank(self, sympy_qq, m):
        assert rank(m) == sympy_qq(m).rank()

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices())
    def test_kernel_basis(self, sympy_qq, m):
        k = kernel_basis(m)
        assert k.dim == m.cols - sympy_qq(m).rank()
        assert (sympy_qq(m) * sympy_qq(k.basis)).is_zero_matrix

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices(), st.data())
    def test_solve_consistent_iff_ranks_agree(self, sympy_qq, a, data):
        b = data.draw(st.lists(small_fractions(), min_size=a.rows, max_size=a.rows))
        augmented = sympy_qq(QMatrix.from_rows([list(a.row(i)) + [b[i]] for i in range(a.rows)], cols=a.cols + 1))
        x = solve(a, QMatrix.column(b))
        assert (x is not None) == (augmented.rank() == sympy_qq(a).rank())
        if x is not None:
            assert from_dm(sympy_qq(a) * sympy_qq(x)) == QMatrix.column(b)

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices(), st.integers(0, 3), st.data())
    def test_solve_columns_is_each_column_solved(self, sympy_qq, a, k, data):
        if data.draw(st.booleans()):
            b = a * data.draw(shaped_qmatrices(a.cols, k))  # every column consistent
        else:
            b = data.draw(shaped_qmatrices(a.rows, k))
        x = solve(a, b)
        solved = [solve(a, QMatrix.column(b.col(j))) for j in range(k)]
        columns = [None if y is None else y.col(0) for y in solved]
        assert (x is None) == (None in columns)
        if x is not None:
            assert (x.rows, x.cols) == (a.cols, k)
            assert [x.col(j) for j in range(k)] == columns
            assert from_dm(sympy_qq(a) * sympy_qq(x)) == b

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
    def test_solve_is_the_read_off_of_the_augmented_rref(self, sympy_qq, rows, cols, k, data):
        # None exactly when a pivot of [a | b] lands in b's columns; else
        # each pivot unknown is its reduced row's b entries, every free one 0
        a = data.draw(st.one_of(
            shaped_qmatrices(rows, cols),
            st.integers(0, 2).flatmap(lambda inner: st.tuples(
                shaped_qmatrices(rows, inner), shaped_qmatrices(inner, cols))).map(lambda p: p[0] * p[1]),
        ))
        columns = [a * data.draw(shaped_qmatrices(cols, 1)) for _ in range(k)]
        if k and data.draw(st.booleans()):  # one column drawn freely, often inconsistent
            columns[data.draw(st.integers(0, k - 1))] = data.draw(shaped_qmatrices(rows, 1))
        b = hstack(QMatrix.zero(rows, 0), *columns)
        reduced, pivots = sympy_qq(a).hstack(sympy_qq(b)).rref()
        x = solve(a, b)
        if any(p >= cols for p in pivots):
            assert x is None
            return
        expected = [[Fraction(0)] * k for _ in range(cols)]
        for r, p in enumerate(pivots):
            expected[p] = [Fraction(int(y.numerator), int(y.denominator)) for y in reduced.to_list()[r][cols:]]
        assert x == QMatrix.from_rows(expected, cols=k) and is_canonical(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.integers(0, n - 1).flatmap(
        lambda inner: st.tuples(shaped_qmatrices(n, inner), shaped_qmatrices(inner, n)))))
    def test_singular_inverse_raises(self, sympy_qq, factors):
        m = factors[0] * factors[1]
        assert sympy_qq(m).rank() < m.rows
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: shaped_qmatrices(n, n)))
    def test_inverse(self, sympy_qq, m):
        if sympy_qq(m).rank() < m.rows:
            with pytest.raises(ValueError):
                m.inverse()
        else:
            inverse = m.inverse()
            assert inverse == from_dm(sympy_qq(m).inv()) and is_canonical(inverse)

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices(), st.data())
    def test_product(self, sympy_qq, a, data):
        b = data.draw(st.integers(0, 5).flatmap(lambda cols: shaped_qmatrices(a.cols, cols)))
        assert a * b == from_dm(sympy_qq(a) * sympy_qq(b)) and is_canonical(a * b)

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices(), st.data(), small_fractions())
    def test_sum_difference_negation_scalar_transpose(self, sympy_qq, a, data, c):
        b = data.draw(shaped_qmatrices(a.rows, a.cols))
        qq = sympy_qq.domain
        cases = [
            (a + b, sympy_qq(a) + sympy_qq(b)),
            (a - b, sympy_qq(a) - sympy_qq(b)),
            (-a, -sympy_qq(a)),
            (a * c, sympy_qq(a) * qq(c.numerator, c.denominator)),
            (c * a, sympy_qq(a) * qq(c.numerator, c.denominator)),
            (a.transpose(), sympy_qq(a).transpose()),
        ]
        for ours, theirs in cases:
            assert ours == from_dm(theirs) and is_canonical(ours)

    @settings(max_examples=60, deadline=None)
    @given(qmatrices(max_dim=3), st.data())
    def test_stacks_and_blocks(self, sympy_qq, a, data):
        b = data.draw(st.integers(0, 3).flatmap(lambda cols: shaped_qmatrices(a.rows, cols)))
        c = data.draw(st.integers(0, 3).flatmap(lambda rows: shaped_qmatrices(rows, a.cols)))
        d = data.draw(shaped_qmatrices(c.rows, b.cols))
        da, db, dc, dd = map(sympy_qq, (a, b, c, d))
        zero = QMatrix.zero(a.rows, b.cols)
        cases = [
            (hstack(a, b), da.hstack(db)),
            (vstack(a, c), da.vstack(dc)),
            (block_assemble([[a, b], [c, d]], [a.rows, c.rows], [a.cols, b.cols]),
             da.hstack(db).vstack(dc.hstack(dd))),
            (block_assemble([[a, None], [c, d]], [a.rows, c.rows], [a.cols, b.cols]),
             da.hstack(sympy_qq(zero)).vstack(dc.hstack(dd))),
        ]
        for ours, theirs in cases:
            assert ours == from_dm(theirs) and is_canonical(ours)

    @pytest.mark.parametrize("rows,inner,cols", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
    def test_empty_shapes(self, sympy_qq, rows, inner, cols):
        a = QMatrix.zero(rows, inner)
        b = QMatrix.zero(inner, cols)
        assert a * b == from_dm(sympy_qq(a) * sympy_qq(b)) == QMatrix.zero(rows, cols)
        assert rank(a) == sympy_qq(a).rank() == 0
        assert kernel_basis(a).dim == inner
        assert rref(a) == (a, ())


# -- the elimination stored on a matrix ---------------------------------------

READ_OFFS = {"rank": rank, "image_basis": image_basis, "kernel_basis": kernel_basis, "rref": rref}


class TestStoredElimination:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = {"_eliminate": 0, "_reduce_above": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(linalg, name, counting)
        return calls

    def test_work_gate_one_forward_pass_and_a_backward_pass_per_reduced_form(self, passes):
        # the forward pass is stored once; each reduced form (kernel_basis,
        # rref) is a backward pass over a copy of it, not stored
        m = QMatrix.from_rows([[1, 2, 3, 4], [2, 4, 7, 1], [3, 6, 10, 5]])
        assert rank(m) == 2
        assert image_basis(m).dim == 2
        assert kernel_basis(m).dim == 2
        assert rref(m)[1] == (0, 2)
        assert rank(m) == 2
        assert passes == {"_eliminate": 1, "_reduce_above": 2}

    def test_work_gate_reduced_form_first(self, passes):
        m = QMatrix.from_rows([[0, 1, 2], [1, 1, 1]])
        assert kernel_basis(m).dim == 1
        assert rank(m) == 2
        assert passes == {"_eliminate": 1, "_reduce_above": 1}

    @settings(max_examples=60, deadline=None)
    @given(oracle_matrices(), st.permutations(sorted(READ_OFFS)))
    def test_read_offs_in_any_order(self, sympy_qq, m, order):
        reduced, den, pivots = sympy_qq(m).rref_den()
        expected_rref = from_dm(reduced) * (1 / Fraction(int(den.numerator), int(den.denominator)))
        expected_rank = sympy_qq(m).rank()
        for name in order:
            ours = READ_OFFS[name](m)
            assert ours == READ_OFFS[name](QMatrix(m.rows, m.cols, m.entries))
            if name == "rank":
                assert ours == expected_rank
            elif name == "rref":
                assert ours == (expected_rref, tuple(pivots))
            elif name == "image_basis":
                assert ours.basis == QMatrix.from_columns([m.col(j) for j in pivots], rows=m.rows)
            else:
                assert ours.dim == m.cols - expected_rank
                assert (sympy_qq(m) * sympy_qq(ours.basis)).is_zero_matrix

    def test_stored_elimination_is_not_part_of_the_value(self):
        m = QMatrix.from_rows([[1, Fraction(1, 2)], [2, 1], [0, 3]])
        for read_off in READ_OFFS.values():
            read_off(m)
        fresh = QMatrix.from_rows([[1, Fraction(1, 2)], [2, 1], [0, 3]])
        assert m._echelon is not None and fresh._echelon is None
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        for name in ("rows", "_echelon"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)


# -- one entry point per elimination pass ---------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zzl"


def _references(name: str) -> set[tuple[str, str]]:
    """(module, enclosing definition) of every reference to ``name`` in the
    package: loads, attribute reads and imports; its own ``def`` is none."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.alias) and name in (child.name, child.asname)
            ):
                found.add((module, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_each_elimination_pass_has_one_entry_point():
    # every forward pass is a stored _echelon and every backward pass a
    # _reduced, so a kernel swap replaces one function per pass
    assert _references("_eliminate") == {("linalg", "_echelon")}
    assert _references("_reduce_above") == {("linalg", "_reduced")}


def test_the_weight_condition_re_derivation_has_no_engine_caller():
    # weight_filtration certifies itself from its Jordan strings; the
    # public re-derivation is left to callers that want an oracle
    assert _references("check_weight_conditions") == set()
