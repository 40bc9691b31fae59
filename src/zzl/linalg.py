"""Exact linear algebra over the rationals.

Everything in this package is built on two value types: an immutable
row-major matrix of ``fractions.Fraction`` entries, and a subspace of an
ambient rational vector space given by an independent column basis.  Zero
rows and zero columns are first class: a 0xn or nx0 matrix is a genuine
map to or from the zero space, and many of the objects downstream (the
minimal-extension zig-zag, empty coupling blocks) rely on that.

No floating point is used anywhere.  Every elimination (``rref``,
``rank``, ``solve``, ``kernel_basis``, ``image_basis``,
``QMatrix.inverse`` and ``intertwine.BlockSystem.solve_affine``) runs on
one fraction-free integer kernel in the style of Bareiss: each row is
scaled once by the LCM of its denominators, rows are updated as
``p*row_i - f*row_r`` and divided by their gcd, and entries become
fractions again only in the result.  The pivot is always the first
nonzero entry of its column, exactly as in rational Gauss-Jordan
elimination, and the reduced row-echelon form of a matrix is unique, so
the pivots, bases and serialized output are the same as those of
rational elimination, byte for byte, and safe to freeze into golden
tests.  Subspace containment is decided by rank, and products visit only
the nonzero entries.  Every span is built as ``image_basis`` of one whole
matrix, keeping its first independent columns: ``Subspace.spanned_by``
of the given vectors, ``subspace_sum`` of the two stacked bases and
``subspace_intersect`` of B1*X, X the top block of the kernel of
[B1 | -B2].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """Two maps were combined along spaces of different dimensions."""


class AmbientMismatch(ValueError):
    """Two subspaces of different ambient spaces were compared."""


class ShapeMismatch(ValueError):
    """A matrix block does not fit the declared partition."""


class PostconditionError(RuntimeError):
    """A computed result failed its own exact re-check; indicates a bug."""


Scalar = Fraction | int
Vector = tuple[Fraction, ...]

# shared constants: tuple and matrix equality compare identical objects
# without calling Fraction.__eq__, which keeps sparse comparisons cheap
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: Scalar) -> str:
    """Render as ``p/q`` in lowest terms, or ``p`` when the denominator is 1."""
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`.  Raises ``ValueError`` on bad input."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def as_vector(values: Iterable[Scalar]) -> Vector:
    return tuple(_frac(v) for v in values)


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix; ``entries`` is row-major of length rows*cols."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, Fraction) for e in self.entries):
            object.__setattr__(
                self, "entries", tuple(_frac(e) for e in self.entries)
            )

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[Scalar]], cols: int | None = None) -> QMatrix:
        """Build from a list of rows; ``cols`` disambiguates zero-row matrices."""
        nrows = len(rows_data)
        if nrows == 0:
            return QMatrix(0, 0 if cols is None else cols, ())
        ncols = len(rows_data[0])
        if any(len(r) != ncols for r in rows_data):
            raise ShapeMismatch("ragged rows")
        if cols is not None and cols != ncols:
            raise ShapeMismatch(f"declared {cols} cols, rows have {ncols}")
        return QMatrix(nrows, ncols, tuple(_frac(x) for row in rows_data for x in row))

    @staticmethod
    def zero(rows: int, cols: int) -> QMatrix:
        return QMatrix(rows, cols, (_ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> QMatrix:
        return QMatrix(
            n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n))
        )

    @staticmethod
    def column(values: Iterable[Scalar]) -> QMatrix:
        vals = as_vector(values)
        return QMatrix(len(vals), 1, vals)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> QMatrix:
        if not columns:
            return QMatrix(0 if rows is None else rows, 0, ())
        return QMatrix.from_rows(
            [[col[i] for col in columns] for i in range(len(columns[0]))]
        )

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return QMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: QMatrix) -> QMatrix:
        return self + (-other)

    def __neg__(self) -> QMatrix:
        return QMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other: QMatrix | Scalar) -> QMatrix:
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
                )
            # row i of the product sums a_it * (row t of other) over the
            # nonzeros a_it of row i, reading only the nonzeros of each row
            # t; the sums run on integers over one denominator per row of
            # the product (that of row i times a common one of other); rows
            # are list slices, for the reason given at _int_rows
            k, m = self.cols, other.cols
            a = list(self.entries)
            den_b = _common_denominator(other.entries)
            b = [x.numerator * (den_b // x.denominator) if x else 0 for x in other.entries]
            b_nonzero = [[j for j in range(t * m, (t + 1) * m) if b[j]] for t in range(k)]
            out: list[Fraction] = []
            for i in range(self.rows):
                row = a[i * k : (i + 1) * k]
                den = _common_denominator(row)
                acc = [0] * m
                for t, x in enumerate(row):
                    if x:
                        x = x.numerator * (den // x.denominator)
                        base = t * m
                        for j in b_nonzero[t]:
                            acc[j - base] += x * b[j]
                out += _scaled(acc, den * den_b)
            return QMatrix(self.rows, m, tuple(out))
        return QMatrix(self.rows, self.cols, tuple(_frac(other) * e for e in self.entries))

    def __rmul__(self, other: Scalar) -> QMatrix:
        return self * other

    def __pow__(self, k: int) -> QMatrix:
        if not self.is_square():
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = QMatrix.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result

    def apply(self, vec: Iterable[Scalar]) -> Vector:
        v = as_vector(vec)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols}")
        return (self * QMatrix(len(v), 1, v)).entries

    def transpose(self) -> QMatrix:
        return QMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def inverse(self) -> QMatrix:
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        work = _int_rows(self, QMatrix.identity(n))
        if _eliminate(work, n) != list(range(n)):
            raise ValueError("matrix is singular")
        return QMatrix(
            n, n, tuple(x for i, row in enumerate(work) for x in _scaled(row[n:], row[i]))
        )


def _int_rows(m: QMatrix, right: QMatrix | None = None) -> list[list[int]]:
    """The rows of m, each extended by the same row of right, as integer rows.

    Rows are sliced from lists, not taken as ``QMatrix.row`` tuples: short
    tuples freed in bulk stay on the interpreter's tuple free lists, which
    fragments memory and raises the peak resident size of long runs.
    """
    left, c = list(m.entries), m.cols
    extra, k = (list(right.entries), right.cols) if right is not None else ([], 0)
    return [_int_row(left[i * c : (i + 1) * c] + extra[i * k : (i + 1) * k]) for i in range(m.rows)]


def _int_row(values: Sequence[Fraction]) -> list[int]:
    """The row times the LCM of its denominators, divided by the content."""
    den = _common_denominator(values)
    row = [x.numerator * (den // x.denominator) for x in values]
    g = _content(row)
    return [x // g for x in row] if g > 1 else row


def _common_denominator(values: Iterable[Fraction]) -> int:
    """LCM of the denominators (1 for no values)."""
    den = 1
    for x in values:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return den


def _content(row: list[int]) -> int:
    """gcd of the entries, 0 for a zero row.

    A loop rather than ``gcd(*row)``, which would build an argument tuple
    per row (see _int_rows), and it stops as soon as the gcd is 1.
    """
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    return g


def _eliminate(rows: list[list[int]], pivot_cols: int, reduce: bool = True) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are searched in the first ``pivot_cols`` columns only, always
    the first nonzero entry from the top; the row updates span the whole
    row, so extra columns (a right-hand side, an identity) ride along.
    Each row update is ``p*row_i - f*row_r`` with ``p, f`` the pivot and
    the entry to clear (divided by their gcd), and the result is divided
    by its content, so entries stay small.  With ``reduce`` the rows above
    each pivot are cleared as well, so that row ``r`` divided by its
    pivot entry is row ``r`` of the reduced row-echelon form; without it
    only the rows below are cleared, which is enough for the rank and the
    pivot columns.  Each row stays a nonzero multiple of the row that
    rational Gauss-Jordan elimination would hold at the same step, so the
    pivot columns agree with it exactly.  Returns the pivot columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(row, pivot_row)]
            g = _content(row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _scaled(values: Sequence[int], den: int) -> list[Fraction]:
    """The integers divided by ``den`` as fractions in lowest terms."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in values]
    return [Fraction(x, den) if x else _ZERO for x in values]


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot column indices."""
    work = _int_rows(m)
    pivots = _eliminate(work, m.cols)
    entries: list[Fraction] = []
    for row, c in zip(work, pivots):
        entries += _scaled(row, row[c])
    entries += [_ZERO] * ((m.rows - len(pivots)) * m.cols)
    return QMatrix(m.rows, m.cols, tuple(entries)), tuple(pivots)


def _pivot_columns(m: QMatrix) -> list[int]:
    """Pivot columns of the row-echelon form, without reducing above pivots."""
    return _eliminate(_int_rows(m), m.cols, reduce=False)


def rank(m: QMatrix) -> int:
    """Dimension of the column span."""
    return len(_pivot_columns(m))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim; basis columns are linearly independent."""

    ambient_dim: int
    basis: QMatrix

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_dim:
            raise ShapeMismatch(
                f"basis lives in Q^{self.basis.rows}, ambient is Q^{self.ambient_dim}"
            )
        if rank(self.basis) != self.basis.cols:
            raise ShapeMismatch("basis columns are dependent")

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, QMatrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, QMatrix.identity(ambient_dim))

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
        """Span of the given vectors; keeps the first independent ones."""
        if any(len(v) != ambient_dim for v in vectors):
            raise AmbientMismatch("spanning vector of wrong length")
        return image_basis(QMatrix.from_columns(vectors, rows=ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec: Iterable[Scalar]) -> bool:
        v = as_vector(vec)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector of wrong length")
        return rank(hstack(self.basis, QMatrix.column(v))) == self.dim

    def contains_subspace(self, other: Subspace) -> bool:
        """One rank test: the stacked bases span no more than this basis does."""
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces of different ambient spaces")
        return rank(hstack(self.basis, other.basis)) == self.dim


def solve(a: QMatrix, b: Iterable[Scalar]) -> Vector | None:
    """One solution x of a*x = b, or None when inconsistent."""
    rhs = as_vector(b)
    if len(rhs) != a.rows:
        raise DimensionMismatch("right-hand side of wrong length")
    work = _int_rows(a, QMatrix(a.rows, 1, rhs))
    x, _ = _solution_space(work, _eliminate(work, a.cols), a.cols)
    return None if x is None else tuple(x)


def kernel_basis(m: QMatrix) -> Subspace:
    """Basis of {x : m*x = 0}; dimension is cols - rank by rank-nullity."""
    work = _int_rows(m)
    _, kernel = _solution_space(work, _eliminate(work, m.cols), m.cols)
    entries = tuple(v[i] for i in range(m.cols) for v in kernel)
    return Subspace(m.cols, QMatrix(m.cols, len(kernel), entries))


def _solution_space(
    work: list[list[int]], pivots: list[int], n: int
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """A solution of M*x = b and a basis of the kernel of M, read off one
    elimination.

    ``work`` holds the rows of [M | b], M with n columns, after
    ``_eliminate(work, n)`` returned ``pivots``; b is column n, and a
    homogeneous system may leave it out.  The solution sets each pivot
    unknown to its row's b entry over the pivot entry and every free
    unknown to 0; it is None, with no basis, when a row without a pivot
    keeps a nonzero b entry.  Basis vector q sets the q-th free unknown
    f to 1, the other free unknowns to 0, and each pivot unknown to minus
    its row's entry at f over the pivot entry.
    """
    homogeneous = not work or len(work[0]) == n
    if not homogeneous and any(row[n] for row in work[len(pivots):]):
        return None, []
    x = [_ZERO] * n
    if not homogeneous:
        for row, c in zip(work, pivots):
            x[c] = Fraction(row[n], row[c])
    pivot_set = set(pivots)
    kernel = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for row, c in zip(work, pivots):
            if row[f]:
                v[c] = Fraction(-row[f], row[c])
        kernel.append(v)
    return x, kernel


def image_basis(m: QMatrix) -> Subspace:
    """Basis of the column span: the original columns at the pivot positions."""
    basis = QMatrix.from_columns([m.col(j) for j in _pivot_columns(m)], rows=m.rows)
    return Subspace(m.rows, basis)


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    """True iff the dimensions agree and the stacked bases have rank s1.dim."""
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(
            f"ambient dims differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim != s2.dim:
        return False
    return s1.contains_subspace(s2)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """The span of both bases, keeping the first independent columns."""
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch("sum of subspaces of different ambient spaces")
    return image_basis(hstack(s1.basis, s2.basis))


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection, computed from the kernel of the stacked basis matrix."""
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch("intersection of subspaces of different ambient spaces")
    # the kernel of [B1 | -B2] holds the columns (x; y) with B1*x = B2*y;
    # the intersection is spanned by B1*X, X the top block of the kernel
    ker = kernel_basis(hstack(s1.basis, -s2.basis)).basis
    top = QMatrix(s1.dim, ker.cols, ker.entries[: s1.dim * ker.cols])
    return image_basis(s1.basis * top)


def hstack(*mats: QMatrix) -> QMatrix:
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    nrows = mats[0].rows
    if any(m.rows != nrows for m in mats):
        raise ShapeMismatch("hstack with differing row counts")
    rows = [[e for m in mats for e in m.row(i)] for i in range(nrows)]
    return QMatrix.from_rows(rows, cols=sum(m.cols for m in mats))


def vstack(*mats: QMatrix) -> QMatrix:
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    ncols = mats[0].cols
    if any(m.cols != ncols for m in mats):
        raise ShapeMismatch("vstack with differing column counts")
    entries = tuple(e for m in mats for e in m.entries)
    return QMatrix(sum(m.rows for m in mats), ncols, entries)


def block_assemble(
    blocks: Sequence[Sequence[QMatrix | None]],
    row_dims: Sequence[int],
    col_dims: Sequence[int],
) -> QMatrix:
    """Assemble a partitioned matrix from a grid of blocks; None means zero.

    Present blocks must agree exactly with the declared row/column
    partition.
    """
    if len(blocks) != len(row_dims) or any(len(row) != len(col_dims) for row in blocks):
        raise ShapeMismatch("block grid does not match the declared partition")
    for bi, row in enumerate(blocks):
        for bj, blk in enumerate(row):
            if blk is None:
                continue
            if (blk.rows, blk.cols) != (row_dims[bi], col_dims[bj]):
                raise ShapeMismatch(
                    f"block ({bi},{bj}) is {blk.rows}x{blk.cols}, "
                    f"partition wants {row_dims[bi]}x{col_dims[bj]}"
                )
    total_rows = sum(row_dims)
    total_cols = sum(col_dims)
    row_offsets = list(accumulate(row_dims, initial=0))
    col_offsets = list(accumulate(col_dims, initial=0))
    flat = [_ZERO] * (total_rows * total_cols)
    for bi, row in enumerate(blocks):
        for bj, blk in enumerate(row):
            if blk is None:
                continue
            for i in range(blk.rows):
                start = (row_offsets[bi] + i) * total_cols + col_offsets[bj]
                flat[start : start + blk.cols] = blk.row(i)
    return QMatrix(total_rows, total_cols, tuple(flat))


def block_diag(*mats: QMatrix) -> QMatrix:
    """Block-diagonal sum; the empty sum is the 0x0 matrix."""
    n = len(mats)
    grid: list[list[QMatrix | None]] = [
        [mats[i] if i == j else None for j in range(n)] for i in range(n)
    ]
    return block_assemble(grid, [m.rows for m in mats], [m.cols for m in mats])


def serialize_matrix(m: QMatrix) -> str:
    """Row-major text form ``[a,b;c,d]``; the empty matrix is ``[]``."""
    if m.rows == 0 or m.cols == 0:
        return "[]"
    return "[" + ";".join(",".join(format_rational(x) for x in m.row(i)) for i in range(m.rows)) + "]"
