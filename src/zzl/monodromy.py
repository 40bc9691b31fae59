"""Monodromy-side formulas: the Picard-Lefschetz transformation, the
logarithm/exponential pair between unipotent and nilpotent operators, and
the weight filtration of a nilpotent operator.

Convention: a pairing evaluates as x . y = x^T * gram * y.  Nothing in
the underlying formulas fixes this; it is pinned here so every worked
value in the test suite is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    AmbientMismatch,
    DimensionMismatch,
    PostconditionError,
    QMatrix,
    Scalar,
    Subspace,
    Vector,
    as_vector,
    _columns,
    _from_basis,
    hstack,
    independent_modulo,
    kernel_basis,
    product_is_zero,
    rank,
)


class NotUnipotent(ValueError):
    """The operator minus the identity is not nilpotent."""


class NotNilpotent(ValueError):
    """No power of the operator vanishes."""


@dataclass(frozen=True)
class Pairing:
    """A bilinear pairing on Q^dim; skew-symmetry is checked, never assumed."""

    gram: QMatrix

    def __post_init__(self) -> None:
        if not self.gram.is_square():
            raise DimensionMismatch("gram matrix must be square")

    @property
    def is_skew(self) -> bool:
        return self.gram.transpose() == -self.gram

    @property
    def dim(self) -> int:
        return self.gram.rows

    def pair(self, x: Iterable[Scalar], y: Iterable[Scalar]) -> Fraction:
        xv = as_vector(x)
        yv = as_vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("pairing arguments of wrong length")
        gy = self.gram.apply(yv)
        return sum((a * b for a, b in zip(xv, gy)), Fraction(0))


def pl_transform(alpha: Iterable[Scalar], delta: Iterable[Scalar], q: Pairing) -> Vector:
    """alpha + (alpha . delta) * delta, the reflection in the vanishing cycle."""
    av = as_vector(alpha)
    dv = as_vector(delta)
    if len(av) != q.dim or len(dv) != q.dim:
        raise DimensionMismatch("vectors must match the pairing dimension")
    c = q.pair(av, dv)
    return tuple(a + c * d for a, d in zip(av, dv))


def pl_operator(delta: Iterable[Scalar], q: Pairing) -> QMatrix:
    """The matrix T = I + delta (gram delta)^T, so T*x = pl_transform(x, delta, q)."""
    dv = as_vector(delta)
    if len(dv) != q.dim:
        raise DimensionMismatch("delta must match the pairing dimension")
    d = QMatrix.column(dv)
    return QMatrix.identity(q.dim) + d * (q.gram * d).transpose()


def _power_ladder(m: QMatrix) -> tuple[QMatrix, ...] | None:
    """(I, m, ..., m^k) with m^k = 0 and k least, or None if m is not
    nilpotent.  The only place powers are multiplied.

    The ladder starts at m itself and takes one product per further
    power.  Every power of a nilpotent matrix has trace 0, so it stops at
    the first power with a nonzero trace (a sum of diagonal numerators),
    within n - 1 products for n = dim >= 1: traces 0 for m^1..m^n make the
    characteristic polynomial x^n (Newton's identities), so m^n = 0
    (Cayley-Hamilton)."""
    if not m.is_square():
        raise DimensionMismatch("nilpotency of a non-square matrix")
    powers = [QMatrix.identity(m.rows)]
    while not powers[-1].is_zero():
        power = powers[-1] * m if len(powers) > 1 else m
        if sum(power.nums[:: m.rows + 1]):
            return None
        powers.append(power)
    return tuple(powers)


def nilpotency_index(m: QMatrix) -> int | None:
    """Least k with m^k = 0, or None if m is not nilpotent (k <= dim suffices)."""
    powers = _power_ladder(m)
    return None if powers is None else len(powers) - 1


@dataclass(frozen=True)
class NilpotentOperator:
    """A square matrix some power of which vanishes; verified at construction.

    ``powers`` holds (I, N, ..., N^index), the last one zero, computed once.
    """

    matrix: QMatrix
    powers: tuple[QMatrix, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        powers = _power_ladder(self.matrix)
        if powers is None:
            raise NotNilpotent("no power <= dim of the matrix vanishes")
        object.__setattr__(self, "powers", powers)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def index(self) -> int:
        """Least k with matrix^k = 0 (0 for the operator on the zero space)."""
        return len(self.powers) - 1


def nilpotent_log(t: QMatrix) -> NilpotentOperator:
    """log of a unipotent operator via the terminating alternating series,
    certified by exp(log t) = t, a sum over the log's stored powers."""
    if not t.is_square():
        raise DimensionMismatch("logarithm of a non-square matrix")
    try:
        u = NilpotentOperator(t - QMatrix.identity(t.rows))
    except NotNilpotent:
        raise NotUnipotent("(t - I)^dim is nonzero") from None
    terms = (Fraction((-1) ** (j + 1), j) * p for j, p in enumerate(u.powers[1:-1], 1))
    log = NilpotentOperator(sum(terms, QMatrix.zero(t.rows, t.rows)))
    if unipotent_exp(log) != t:
        raise PostconditionError("exp of the logarithm is not the operator")
    return log


def unipotent_exp(n: NilpotentOperator) -> QMatrix:
    """exp of a nilpotent operator; the series is finite and exact."""
    terms = (Fraction(1, math.factorial(j)) * p for j, p in enumerate(n.powers[1:-1], 1))
    return sum(terms, n.powers[0])


@dataclass(frozen=True)
class WeightFiltration:
    """Increasing exhaustive filtration W_w, stored as (weight, subspace) steps.

    The lowest stored step is the zero subspace and the highest is the
    full space; weights in between step by one.
    """

    center: int
    steps: tuple[tuple[int, Subspace], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a filtration needs at least one step")
        weights = [w for w, _ in self.steps]
        if weights != list(range(weights[0], weights[0] + len(weights))):
            raise ValueError("filtration weights must be consecutive")
        ambients = sorted({s.ambient_dim for _, s in self.steps})
        if len(ambients) > 1:
            raise AmbientMismatch(f"filtration steps live in ambient dims {ambients}")
        if self.steps[0][1].dim != 0:
            raise ValueError("lowest step must be the zero subspace")
        top = self.steps[-1][1]
        if top.dim != top.ambient_dim:
            raise ValueError("highest step must be the full space")

    @property
    def ambient_dim(self) -> int:
        return self.steps[0][1].ambient_dim

    def step(self, weight: int) -> Subspace:
        lo = self.steps[0][0]
        hi = self.steps[-1][0]
        if weight < lo:
            return Subspace.zero(self.ambient_dim)
        if weight > hi:
            return Subspace.full(self.ambient_dim)
        return self.steps[weight - lo][1]

    def graded_dim(self, weight: int) -> int:
        return self.step(weight).dim - self.step(weight - 1).dim

    def graded_dims(self) -> dict[int, int]:
        return {
            w: d
            for w, _ in self.steps
            if (d := self.graded_dim(w)) != 0
        }


def weight_filtration(n: NilpotentOperator, center: int) -> WeightFiltration:
    """The unique filtration with N W_w <= W_{w-2} and N^j : Gr_{k+j} ~ Gr_{k-j}.

    Read off one basis G of Jordan strings: from height L = index down to
    1, the string vectors at height L are N times those at L + 1, then the
    new tops, the columns of ker N^L independent modulo ker N^(L-1) and
    those vectors (one elimination per height).  Step w is the columns of G
    of weight at most w.  The certificate is rank G = n and N G_1 = 0, G_1
    the vectors at height 1; above it N G = G S (S the string shift) holds
    by construction.  So N lowers height by one and weight by two, and a
    string of length s has weights center + s - 1 down to center - (s - 1):
    N^j maps weight center + j one-to-one onto weight center - j.
    """
    k = n.index
    # ker N^0 = 0 and ker N^k is everything; only the powers between are eliminated
    kernels = [QMatrix.zero(n.dim, 0), *(kernel_basis(p).basis for p in n.powers[1:k]),
               QMatrix.identity(n.dim)]
    g = strings = QMatrix.zero(n.dim, 0)
    lengths: list[int] = []
    weights: list[int] = []
    for height in range(k, 0, -1):
        strings = n.matrix * strings
        tops = independent_modulo(hstack(kernels[height - 1], strings), kernels[height])
        strings = hstack(strings, tops)
        lengths += [height] * tops.cols
        g = hstack(strings, g)
        weights[:0] = [center + 2 * height - s - 1 for s in lengths]
    if rank(g) != n.dim:
        raise PostconditionError(f"Jordan string basis has rank {rank(g)}, not {n.dim}")
    if not product_is_zero(n.matrix, strings):
        raise PostconditionError("N does not vanish on the string vectors at height 1")
    top = max(k, 1)  # the zero space still gets a zero step and a full one
    steps = tuple((w, _from_basis(_columns(g, [j for j, v in enumerate(weights) if v <= w])))
                  for w in range(center - top, center + top))
    return WeightFiltration(center, steps)


def check_weight_conditions(n: NilpotentOperator, w: WeightFiltration) -> list[str]:
    """Report every violation of the two defining conditions (empty = good)."""
    if w.ambient_dim != n.dim:
        raise DimensionMismatch(f"operator on Q^{n.dim}, filtration of Q^{w.ambient_dim}")
    issues: list[str] = []
    k = w.center
    lo = w.steps[0][0]
    hi = w.steps[-1][0]
    for level in range(lo, hi + 1):
        target = w.step(level - 2)
        if rank(hstack(target.basis, n.matrix * w.step(level).basis)) != target.dim:
            issues.append(f"N W_{level} not inside W_{level - 2}")
    for j in range(0, hi - k + 1):
        g_plus = w.graded_dim(k + j)
        g_minus = w.graded_dim(k - j)
        if g_plus != g_minus:
            issues.append(f"graded dims at {k + j} and {k - j} differ")
            continue
        # the induced map Gr_{k+j} -> Gr_{k-j} has image
        # (N^j W_{k+j} + W_{k-j-1}) / W_{k-j-1}; it is an isomorphism
        # iff that image has dimension g_{k+j} = g_{k-j}.
        below = w.step(k - j - 1)
        mapped = n.powers[min(j, n.index)] * w.step(k + j).basis
        if rank(hstack(below.basis, mapped)) - below.dim != g_plus:
            issues.append(f"N^{j} is not an isomorphism Gr_{k + j} -> Gr_{k - j}")
    return issues


def conjugate(n: NilpotentOperator, g: QMatrix) -> NilpotentOperator:
    """g N g^{-1}; conjugation preserves nilpotency."""
    if not g.is_square() or g.rows != n.dim:
        raise DimensionMismatch("conjugating matrix of wrong size")
    return NilpotentOperator(g * n.matrix * g.inverse())


def jordan_nilpotent(block_sizes: Sequence[int]) -> NilpotentOperator:
    """Nilpotent matrix with the given Jordan block sizes (ones above the diagonal)."""
    d = sum(block_sizes)
    rows = [[Fraction(0)] * d for _ in range(d)]
    offset = 0
    for s in block_sizes:
        for i in range(s - 1):
            rows[offset + i][offset + i + 1] = Fraction(1)
        offset += s
    return NilpotentOperator(QMatrix.from_rows(rows, cols=d))
