"""Exact linear algebra over the rationals.

Everything in this package is built on two value types: an immutable
rational matrix, and a subspace of an ambient rational vector space given
by an independent column basis.  Zero rows and zero columns are first
class: a 0xn or nx0 matrix is a genuine map to or from the zero space, and
many of the objects downstream (the minimal-extension zig-zag, empty
coupling blocks) rely on that.

A matrix is stored as its row-major integer numerators ``nums`` over one
positive denominator ``den``, the LCM of the reduced denominators of its
entries.  That form is canonical (``gcd(den, *nums) == 1``, and ``den`` is
1 for an integer or zero matrix), so equality and hashing compare it
directly.  Sums, products, transposes and stacks work on the integers and
build their results through one trusted constructor, ``_from_nums``, which
reduces by the gcd and checks nothing else; ``Fraction`` objects are built
only where a caller reads entries (``entries``, ``entry``, ``row``,
``col``, ``serialize_matrix``).  The public constructor validates its
input and accepts ``Fraction`` and ``int`` entries.

No floating point is used anywhere.  Every elimination (``rref``,
``rank``, ``solve``, ``kernel_basis`` and ``image_basis``) runs on one
fraction-free integer kernel in the style of Bareiss: rows are taken
from the stored numerators, updated as ``p*row_i - f*row_r`` and
divided by their gcd, and each result is read off over one
denominator, the LCM of the pivot entries.  The kernel has two passes
and one entry point each: ``_echelon``, the forward pass that clears
below each pivot, which fixes the pivots and the rank, and
``_reduced``, the backward pass that clears above them, which gives the
reduced form.  Each matrix is eliminated at most once: the first
``_echelon`` of a matrix stores its forward pass on the matrix, written
once and dropped with the matrix, and each reduced form is a backward
pass over a copy of it, not stored.  Every linear system of this module
is one ``solve``, which takes a matrix of right-hand sides and reads X
off the reduced form of [a | b]: a consistent system never has a pivot
in b's columns, and an inconsistent one always does.
``QMatrix.inverse`` is the solution against the identity.  The pivot is
always the first nonzero entry of its column, exactly as in rational
Gauss-Jordan elimination, and the reduced row-echelon form of a matrix
is unique, so the pivots, bases and serialized output are the same as
those of rational elimination, byte for byte, and safe to freeze into
golden tests.  Subspace containment is decided by rank, products visit
only the nonzero entries, and ``product_is_zero`` decides a*b = 0 without
building the product.  Every span is built as ``image_basis`` of one
whole matrix, keeping its first independent columns:
``Subspace.spanned_by`` of the given vectors, ``subspace_sum`` of the two
stacked bases and ``subspace_intersect`` of B1*X, X the top block of the
kernel of [B1 | -B2].  Read past B's width on [B | C], the same step
gives the columns of C independent modulo B (``independent_modulo``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
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

# one shared zero: tuple equality compares identical objects without
# calling Fraction.__eq__, which keeps sparse comparisons cheap
_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: Scalar) -> str:
    """Render as ``p/q`` in lowest terms, or ``p`` when the denominator is 1."""
    return str(_frac(x))


# a .zzl entry, in ASCII digits, with a nonzero denominator
_RATIONAL_RE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`.  Reads exactly a ``.zzl`` entry
    and raises ``ValueError`` on anything else."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational entry: {text!r}")
    return Fraction(text)


def as_vector(values: Iterable[Scalar]) -> Vector:
    return tuple(_frac(v) for v in values)


class QMatrix:
    """Immutable rational matrix: ``rows`` x ``cols`` row-major integer
    numerators ``nums`` over one denominator ``den``, in the canonical form
    of the module docstring.

    ``QMatrix(rows, cols, entries)`` takes the row-major entries as any
    sequence of ``Fraction`` or ``int`` values and keeps none of it.

    The slot ``_echelon`` holds the matrix's forward elimination once one
    has been asked for (see ``_echelon``), so that each matrix is
    eliminated at most once; it is derived from the value, takes no part
    in equality, hashing or ``repr``, and is dropped with the matrix.
    """

    __slots__ = ("rows", "cols", "den", "nums", "_echelon")

    rows: int
    cols: int
    den: int
    nums: tuple[int, ...]
    _echelon: tuple[list[int], list[list[int]]] | None

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]) -> None:
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        values = [x if isinstance(x, Fraction) else Fraction(x) for x in entries]
        if len(values) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}"
            )
        den = _common_denominator(values)
        if den == 1:
            nums = tuple([x.numerator for x in values])
        else:
            nums = tuple([x.numerator * (den // x.denominator) for x in values])
        _set(self, rows, cols, den, nums)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"QMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QMatrix is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}, {self.cols}, {self.entries!r})"

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
        return QMatrix(nrows, ncols, [x for row in rows_data for x in row])

    @staticmethod
    def zero(rows: int, cols: int) -> QMatrix:
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        return _from_nums(rows, cols, 1, [0] * (rows * cols))

    @staticmethod
    def identity(n: int) -> QMatrix:
        if n < 0:
            raise ShapeMismatch(f"negative shape {n}x{n}")
        nums = [0] * (n * n)
        nums[:: n + 1] = [1] * n
        return _from_nums(n, n, 1, nums)

    @staticmethod
    def column(values: Iterable[Scalar]) -> QMatrix:
        vals = as_vector(values)
        return QMatrix(len(vals), 1, vals)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> QMatrix:
        """Build from a list of columns; ``rows`` disambiguates zero-column
        matrices and must agree with the columns otherwise."""
        if columns and rows not in (None, len(columns[0])):
            raise ShapeMismatch(f"declared {rows} rows, columns have {len(columns[0])}")
        return QMatrix.from_rows(columns, cols=rows).transpose()

    # -- access: the API edge, where entries become fractions ------------

    @property
    def entries(self) -> Vector:
        """The row-major entries as fractions, built on each read."""
        return tuple(_scaled(self.nums, self.den))

    def entry(self, i: int, j: int) -> Fraction:
        x = self.nums[i * self.cols + j]
        return Fraction(x, self.den) if x else _ZERO

    def row(self, i: int) -> Vector:
        c = self.cols
        return tuple(_scaled(self.nums[i * c : (i + 1) * c], self.den))

    def col(self, j: int) -> Vector:
        return tuple(_scaled(self.nums[j :: self.cols], self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: QMatrix) -> QMatrix:
        return self._combine(other, 1)

    def __sub__(self, other: QMatrix) -> QMatrix:
        return self._combine(other, -1)

    def _combine(self, other: QMatrix, sign: int) -> QMatrix:
        """self + sign*other, over the LCM of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        if s == 1 and t == 1:
            nums = [x + y for x, y in zip(self.nums, other.nums)]
        else:
            nums = [s * x + t * y for x, y in zip(self.nums, other.nums)]
        return _from_nums(self.rows, self.cols, den, nums)

    def __neg__(self) -> QMatrix:
        return _from_nums(self.rows, self.cols, self.den, [-x for x in self.nums])

    def __mul__(self, other: QMatrix | Scalar) -> QMatrix:
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
                )
            # row i of the integer product sums a_it * (row t of other) over
            # the nonzeros a_it of row i, reading only the nonzeros of each
            # row t; the denominator is the product of the two
            k, m = self.cols, other.cols
            a, b = list(self.nums), list(other.nums)
            b_nonzero = [[j for j in range(t * m, (t + 1) * m) if b[j]] for t in range(k)]
            out: list[int] = []
            for i in range(self.rows):
                acc = [0] * m
                for t, x in enumerate(a[i * k : (i + 1) * k]):
                    if x:
                        base = t * m
                        for j in b_nonzero[t]:
                            acc[j - base] += x * b[j]
                out += acc
            return _from_nums(self.rows, m, self.den * other.den, out)
        s = _frac(other)
        return _from_nums(
            self.rows, self.cols, self.den * s.denominator, [s.numerator * x for x in self.nums]
        )

    def __rmul__(self, other: Scalar) -> QMatrix:
        return self * other

    def apply(self, vec: Iterable[Scalar]) -> Vector:
        v = as_vector(vec)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols}")
        return (self * QMatrix(len(v), 1, v)).entries

    def transpose(self) -> QMatrix:
        flat, c = list(self.nums), self.cols
        return _from_nums(c, self.rows, self.den, [x for j in range(c) for x in flat[j::c]])

    def inverse(self) -> QMatrix:
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        x = solve(self, QMatrix.identity(self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x


_SET_SLOTS = tuple(QMatrix.__dict__[name].__set__ for name in QMatrix.__slots__)
_SET_ECHELON = _SET_SLOTS[-1]


def _set(m: QMatrix, rows: int, cols: int, den: int, nums: tuple[int, ...]) -> None:
    set_rows, set_cols, set_den, set_nums, set_echelon = _SET_SLOTS
    set_rows(m, rows)
    set_cols(m, cols)
    set_den(m, den)
    set_nums(m, nums)
    set_echelon(m, None)


def _from_nums(rows: int, cols: int, den: int, nums: Sequence[int]) -> QMatrix:
    """The trusted constructor: rows x cols numerators over ``den > 0``.

    Numerators and denominator are divided by their common gcd, which makes
    the form canonical; the shape and the entries are not checked.
    """
    if den != 1:
        g = _content(nums, den)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    m = object.__new__(QMatrix)
    _set(m, rows, cols, den, tuple(nums))
    return m


def product_is_zero(a: QMatrix, b: QMatrix) -> bool:
    """True iff a*b = 0, decided on the stored numerators without building
    the product; stops at the first nonzero entry."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    k, m = a.cols, b.cols
    a_nums, b_nums = list(a.nums), list(b.nums)
    columns = [b_nums[j::m] for j in range(m)]
    for i in range(a.rows):
        row = a_nums[i * k : (i + 1) * k]
        if any(row):
            for column in columns:
                if sum(map(mul, row, column)):
                    return False
    return True


def _int_rows(m: QMatrix) -> list[list[int]]:
    """The rows of m as integer rows: its numerators, row by row.

    Rows are sliced from a list, not from the stored tuple: short tuples
    freed in bulk stay on the interpreter's tuple free lists, which
    fragments memory and raises the peak resident size of long runs.
    """
    c, left = m.cols, list(m.nums)
    return [left[i * c : (i + 1) * c] for i in range(m.rows)]


def _over(m: QMatrix, den: int) -> list[int]:
    """The numerators of m over ``den``, a multiple of ``m.den``."""
    s = den // m.den
    return list(m.nums) if s == 1 else [s * x for x in m.nums]


def _common_denominator(values: Iterable[Fraction]) -> int:
    """LCM of the denominators (1 for no values)."""
    den = 1
    for x in values:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return den


def _content(row: Sequence[int], g: int = 0) -> int:
    """gcd of g and the entries; 0 for a zero row and g = 0.

    A loop rather than ``gcd(*row)``, which would build an argument tuple
    per row (see _int_rows), and it stops as soon as the gcd is 1.
    """
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    return g


def _eliminate(rows: list[list[int]]) -> list[int]:
    """The forward pass of fraction-free elimination of integer rows, in
    place: clears each pivot column below its pivot.  Only ``_echelon``
    calls it.

    The pivot of a column is its first nonzero entry from the top.  Each
    row update is ``p*row_i - f*row_r`` with ``p, f`` the pivot and the
    entry to clear (divided by their gcd), and the result is divided by
    its content, so entries stay small.  The pivot search reads only the
    rows at and below the current one, which no clearing above a pivot
    touches, so the pivot columns agree exactly with those of rational
    Gauss-Jordan elimination.  Returns the pivot columns; the first
    ``len(pivots)`` rows are the pivot rows, and the rows after them are
    zero.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
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
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                g = _content(row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _reduce_above(rows: list[list[int]], pivots: Sequence[int]) -> None:
    """The backward pass, in place, after ``_eliminate`` returned
    ``pivots``: clears each pivot column above its pivot, last pivot
    first, with the row update of the forward pass, so that pivot row
    ``r`` divided by its pivot entry is row ``r`` of the reduced
    row-echelon form.  Only ``_reduced`` calls it.  Rows are replaced,
    never written to.  (The update is written out in both passes: most
    eliminations are of tiny matrices, where a helper call per pivot
    costs measurably.)
    """
    for r in range(len(pivots) - 1, 0, -1):
        pivot_row = rows[r]
        c = pivots[r]
        p = pivot_row[c]
        for i in range(r):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                g = _content(row)
                rows[i] = [x // g for x in row] if g > 1 else row


def _pivot_den(work: list[list[int]], pivots: Sequence[int]) -> tuple[int, list[int]]:
    """The LCM of the pivot entries of an elimination, and for each pivot
    row the factor (signed) that scales it to that denominator."""
    den = 1
    for row, c in zip(work, pivots):
        den = lcm(den, row[c])
    return den, [den // row[c] for row, c in zip(work, pivots)]


def _scaled(values: Sequence[int], den: int) -> list[Fraction]:
    """The integers divided by ``den`` as fractions in lowest terms."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in values]
    return [Fraction(x, den) if x else _ZERO for x in values]


def _echelon(m: QMatrix) -> tuple[list[int], list[list[int]]]:
    """The forward pass stored on m: its pivot columns and its pivot rows
    as integer rows.  The first call runs it and stores it without its
    zero rows, once; a stored entry and its rows are never written to."""
    entry = m._echelon
    if entry is None:
        rows = _int_rows(m)
        pivots = _eliminate(rows)
        del rows[len(pivots) :]
        entry = (pivots, rows)
        _SET_ECHELON(m, entry)
    return entry


def _reduced(m: QMatrix) -> tuple[list[int], list[list[int]]]:
    """The pivots and reduced pivot rows of m, from a copy of its forward pass."""
    pivots, forward = _echelon(m)
    rows = forward[:]
    _reduce_above(rows, pivots)
    return pivots, rows


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot column indices."""
    pivots, rows = _reduced(m)
    # each pivot row divided by its pivot entry, then the zero rows
    den, factors = _pivot_den(rows, pivots)
    nums = [s * x for row, s in zip(rows, factors) for x in row]
    nums += [0] * ((m.rows - len(pivots)) * m.cols)
    return _from_nums(m.rows, m.cols, den, nums), tuple(pivots)


def rank(m: QMatrix) -> int:
    """Dimension of the column span."""
    return len(_echelon(m)[0])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^basis.rows; basis columns are linearly independent."""

    basis: QMatrix

    def __post_init__(self) -> None:
        if rank(self.basis) != self.basis.cols:
            raise ShapeMismatch("basis columns are dependent")

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return _from_basis(QMatrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return _from_basis(QMatrix.identity(ambient_dim))

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
        """Span of the given vectors; keeps the first independent ones."""
        if any(len(v) != ambient_dim for v in vectors):
            raise AmbientMismatch("spanning vector of wrong length")
        return image_basis(QMatrix.from_columns(vectors, rows=ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

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


def _from_basis(basis: QMatrix) -> Subspace:
    """The trusted constructor: the span in Q^basis.rows of columns that
    are independent by construction (pivot columns, a kernel basis with a
    unit entry at each free column); nothing is re-checked."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "basis", basis)
    return s


def solve(a: QMatrix, b: QMatrix) -> QMatrix | None:
    """One solution X of a*X = b, or None when some column is inconsistent.

    The k columns of b are right-hand sides, and column j of the a.cols x k
    matrix X solves column j.  X is read off the reduced form of [a | b];
    the system is inconsistent exactly when a pivot lands in b's columns.
    """
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side of wrong length")
    pivots, rows = _reduced(hstack(a, b))
    if pivots and pivots[-1] >= a.cols:
        return None
    den, x, _ = _solution_space(rows, pivots, a.cols, b.cols)
    return _from_nums(a.cols, b.cols, den, x)


def kernel_basis(m: QMatrix) -> Subspace:
    """Basis of {x : m*x = 0}; dimension is cols - rank by rank-nullity."""
    pivots, rows = _reduced(m)
    den, _, kernel = _solution_space(rows, pivots, m.cols, 0)
    nums = [v[i] for i in range(m.cols) for v in kernel]
    return _from_basis(_from_nums(m.cols, len(kernel), den, nums))


def _solution_space(
    work: list[list[int]], pivots: Sequence[int], n: int, k: int
) -> tuple[int, list[int], list[list[int]]]:
    """A solution X of M*X = B and a basis of the kernel of M, read off one
    reduced form, as integer vectors over one common denominator.

    ``pivots`` and ``work`` are ``_reduced`` of [M | B], M with n columns
    and B with k, and are only read.  The system must be consistent: no
    pivot lands in B's columns.  The solution sets each pivot unknown to
    its row's B entries over the pivot entry and every free unknown to 0.
    Basis vector q sets the q-th free unknown f to 1, the other free
    unknowns to 0, and each pivot unknown to minus its row's entry at f
    over the pivot entry.  Returns the denominator, the solution (n x k,
    row-major) and the basis; the denominator is the LCM of the reduced
    denominators of all their entries.
    """
    den, factors = _pivot_den(work, pivots)
    x = [0] * (n * k)
    for row, c, s in zip(work, pivots, factors):
        x[c * k : (c + 1) * k] = [s * y for y in row[n:]]
    pivot_set = set(pivots)
    kernel = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = den
        for row, c, s in zip(work, pivots, factors):
            if row[f]:
                v[c] = -s * row[f]
        kernel.append(v)
    g = _content(x, den)
    for v in kernel:
        g = _content(v, g)
    if g > 1:
        den //= g
        x = [y // g for y in x]
        kernel = [[y // g for y in v] for v in kernel]
    return den, x, kernel


def image_basis(m: QMatrix) -> Subspace:
    """Basis of the column span: the original columns at the pivot positions."""
    return _from_basis(_columns(m, _echelon(m)[0]))


def independent_modulo(b: QMatrix, c: QMatrix) -> QMatrix:
    """The columns of c that ``image_basis`` keeps on [b | c]: the first
    ones independent modulo the span of b, from one elimination."""
    return _columns(c, [j - b.cols for j in _echelon(hstack(b, c))[0] if j >= b.cols])


def _columns(m: QMatrix, selected: Sequence[int]) -> QMatrix:
    """The columns of m at the given indices, in that order."""
    c = m.cols
    nums = [m.nums[i * c + j] for i in range(m.rows) for j in selected]
    return _from_nums(m.rows, len(selected), m.den, nums)


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
    top = _from_nums(s1.dim, ker.cols, ker.den, ker.nums[: s1.dim * ker.cols])
    return image_basis(s1.basis * top)


def hstack(*mats: QMatrix) -> QMatrix:
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    nrows = mats[0].rows
    if any(m.rows != nrows for m in mats):
        raise ShapeMismatch("hstack with differing row counts")
    den = lcm(*(m.den for m in mats))
    parts = [(_over(m, den), m.cols) for m in mats]
    nums: list[int] = []
    for i in range(nrows):
        for flat, c in parts:
            nums += flat[i * c : (i + 1) * c]
    return _from_nums(nrows, sum(m.cols for m in mats), den, nums)


def vstack(*mats: QMatrix) -> QMatrix:
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    ncols = mats[0].cols
    if any(m.cols != ncols for m in mats):
        raise ShapeMismatch("vstack with differing column counts")
    den = lcm(*(m.den for m in mats))
    nums: list[int] = []
    for m in mats:
        nums += _over(m, den)
    return _from_nums(sum(m.rows for m in mats), ncols, den, nums)


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
    den = lcm(*(blk.den for row in blocks for blk in row if blk is not None))
    flat = [0] * (total_rows * total_cols)
    for bi, row in enumerate(blocks):
        for bj, blk in enumerate(row):
            if blk is None:
                continue
            nums, c = _over(blk, den), blk.cols
            for i in range(blk.rows):
                start = (row_offsets[bi] + i) * total_cols + col_offsets[bj]
                flat[start : start + c] = nums[i * c : (i + 1) * c]
    return _from_nums(total_rows, total_cols, den, flat)


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
