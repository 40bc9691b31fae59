"""Extensions of a point-supported quotient by a bulk sub-object.

A presentation stores the sub, the quotient, and the coupling between
them.  When the sub has a nonzero B space the coupling is an honest
matrix block u : A_quot -> B_sub sitting in the upper-right corner of
the assembled beta, and the extension class is u modulo im(beta_sub).
When the sub's B space is zero (the double-point collapse) that block is
empty, the assembled zig-zag is literally blind to the class, and the
class is carried as an explicit stored scalar per quotient coordinate.
The two regimes never mix: storing a scalar next to a nonzero block
would double-count the class.  A presentation checks these rules once,
at construction.  It also decides there whether its total is exact: a
block-regime total is assembled, validated and kept; a collapsed total
is the direct sum of the factors, so its exactness is read off the
factors' dimensions, ranks and products, and the total is assembled
only when it is first read, then kept.

Isomorphism of presentations means block-upper-triangular isomorphism of
the totals over isomorphisms of the factors, with the stored class
transported contravariantly along the quotient factor.  The only search
is the one for the sub witness; over it the quotient blocks are built in
closed form (collapsed regime) or solved for against the second total's
beta, every quotient column in one solve (block regime).  Every positive
verdict is backed by an explicit verified witness; every negative one by
the sub's rank profile or, in the collapsed regime, by the zero-ness of
the class.  That zero-ness is the normal form the rank-one
classification partitions its grid by: each member is witnessed once
against the first member of its part.  Self-duality builds no witness:
the total is isomorphic to its dual iff its rank profile is symmetric,
one formula for both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .linalg import (
    PostconditionError,
    QMatrix,
    Scalar,
    ShapeMismatch,
    block_assemble,
    hstack,
    image_basis,
    solve,
    vstack,
    _frac,
    _from_nums,
)
from .zigzag import (
    IsoWitness,
    ZERO_LABEL,
    ZigZag,
    iso_witness,
    self_dual,
    std_ic,
    std_skyscraper,
    validate,
    validate_sum,
    verify_witness,
)


class RegimeMismatch(ValueError):
    """A scalar class was given where a u-block was expected, or vice versa."""


class InvalidTotal(ValueError):
    """The assembled total zig-zag violates exactness."""


@dataclass(frozen=True)
class ExtClass:
    """An extension class value with its {0, 1} normalization."""

    value: Fraction

    @property
    def normalized(self) -> Fraction:
        return Fraction(0) if self.value == 0 else Fraction(1)

    @staticmethod
    def of(value: Scalar) -> ExtClass:
        return ExtClass(_frac(value))


@dataclass(frozen=True)
class ExtensionPresentation:
    sub: ZigZag
    quot: ZigZag
    u_block: QMatrix | None
    class_vector: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        """The only check of the label, regime and shape rules; the regime
        is checked before the class length, so a scalar class over a
        block-regime sub is a RegimeMismatch whatever its length.

        A block-regime total is built and validated here, and kept.  A
        collapsed total is the direct sum of the factors, so its exactness
        is read off them (``validate_sum``) and the total is built only
        when it is first read."""
        s, q, u = self.sub, self.quot, self.u_block
        if q.open_label != ZERO_LABEL:
            raise ShapeMismatch("quotient must be point-supported (zero open part)")
        if self.collapsed and u is not None:
            raise RegimeMismatch(
                "collapsed regime (B_sub = 0): the class is a stored scalar, not a u-block"
            )
        if not self.collapsed and u is None:
            raise RegimeMismatch("block regime (B_sub > 0): the class must be a u-block")
        if len(self.class_vector) != q.a_dim:
            raise ShapeMismatch(
                f"class vector has length {len(self.class_vector)}, "
                f"quotient A has dimension {q.a_dim}"
            )
        if u is None:
            issues = validate_sum((s, q))
        elif (u.rows, u.cols) != (s.b_dim, q.a_dim):
            raise ShapeMismatch(f"u-block must be {s.b_dim}x{q.a_dim}")
        elif any(self.class_vector):
            raise RegimeMismatch("block regime: the stored scalar class must be zero")
        else:
            issues = validate(self.total)
        if issues:
            raise InvalidTotal(
                "assembled total violates exactness: "
                + "; ".join(i.message for i in issues)
            )

    @property
    def collapsed(self) -> bool:
        return self.sub.b_dim == 0

    @cached_property
    def total(self) -> ZigZag:
        """The assembled total, built on its first read and kept (in the
        block regime that read is the validation at construction)."""
        s, q, u = self.sub, self.quot, self.u_block
        return _total(s, q, u if u is not None else QMatrix.zero(0, q.a_dim))


def _total(s: ZigZag, q: ZigZag, u: QMatrix) -> ZigZag:
    """The compressed total: block-diagonal except for u in beta, so with
    u = 0 it is ``direct_sum(s, q)``."""
    beta = block_assemble(
        [[s.beta, u], [None, q.beta]], [s.b_dim, q.b_dim], [s.a_dim, q.a_dim]
    )
    alpha = vstack(s.alpha, QMatrix.zero(q.a_dim, s.e_minus))
    gamma = hstack(s.gamma, QMatrix.zero(s.e_zero, q.b_dim))
    return ZigZag(
        s.open_label, s.e_minus, s.e_zero,
        s.a_dim + q.a_dim, s.b_dim + q.b_dim, alpha, beta, gamma,
    )


def make_extension(
    sub: ZigZag,
    quot: ZigZag,
    class_data: QMatrix | Scalar | Sequence[Scalar],
) -> ExtensionPresentation:
    """Build a presentation from a u-block (block regime), a scalar class
    (collapsed regime, rank-one quotient) or one class per quotient
    coordinate (collapsed regime); the presentation checks the rules."""
    if isinstance(class_data, QMatrix):
        return ExtensionPresentation(sub, quot, class_data, (Fraction(0),) * quot.a_dim)
    if isinstance(class_data, (int, Fraction)):
        class_data = (class_data,)
    return ExtensionPresentation(sub, quot, None, tuple(_frac(c) for c in class_data))


def extension_class(e: ExtensionPresentation) -> ExtClass:
    """The class of a rank-one-quotient presentation, normalized to {0, 1}.

    In the block regime the u-block is reduced modulo im(beta_sub); the
    class is zero exactly when the reduction vanishes.
    """
    if e.quot.a_dim != 1:
        raise ValueError("use extension_class_vector for higher-rank quotients")
    return extension_class_vector(e)[0]


def extension_class_vector(e: ExtensionPresentation) -> tuple[ExtClass, ...]:
    if e.collapsed:
        return tuple(ExtClass.of(c) for c in e.class_vector)
    im_beta = image_basis(e.sub.beta)
    out = []
    for j in range(e.quot.a_dim):
        trivial = im_beta.contains(e.u_block.col(j))
        out.append(ExtClass.of(0 if trivial else 1))
    return tuple(out)


# -- isomorphism of presentations --------------------------------------


class ExtWitness(NamedTuple):
    """Block-upper-triangular isomorphism data between two presentations."""

    sub: IsoWitness
    quot_a: QMatrix
    quot_b: QMatrix
    h_a: QMatrix  # A_quot(1) -> A_sub(2) correction
    h_b: QMatrix  # B_quot(1) -> B_sub(2) correction

    def total_witness(self, e1: ExtensionPresentation, e2: ExtensionPresentation) -> IsoWitness:
        a_tot = block_assemble(
            [[self.sub.a, self.h_a], [None, self.quot_a]],
            [e2.sub.a_dim, e2.quot.a_dim],
            [e1.sub.a_dim, e1.quot.a_dim],
        )
        b_tot = block_assemble(
            [[self.sub.b, self.h_b], [None, self.quot_b]],
            [e2.sub.b_dim, e2.quot.b_dim],
            [e1.sub.b_dim, e1.quot.b_dim],
        )
        return IsoWitness(self.sub.p, a_tot, b_tot, self.sub.q)


def verify_ext_witness(
    e1: ExtensionPresentation, e2: ExtensionPresentation, w: ExtWitness
) -> bool:
    """Exact check: totals intertwine and the stored class is transported."""
    if not verify_witness(e1.total, e2.total, w.total_witness(e1, e2)):
        return False
    if e1.collapsed != e2.collapsed:
        return False
    if e1.collapsed:
        # c1 quot_a^-1 = c2 as c2 quot_a = c1: quot_a is a diagonal block of
        # the invertible block-triangular total A-map, so it is invertible
        r = len(e1.class_vector)
        return QMatrix(1, r, e2.class_vector) * w.quot_a == QMatrix(1, r, e1.class_vector)
    return True


def _complete_to_invertible(row: tuple[Fraction, ...]) -> QMatrix:
    """An invertible matrix whose first row is the given nonzero row: the
    row, then the unit rows independent of those before them."""
    column = QMatrix.column(row)
    return image_basis(hstack(column, QMatrix.identity(column.rows))).basis.transpose()


def ext_isomorphism_witness(
    e1: ExtensionPresentation, e2: ExtensionPresentation
) -> ExtWitness | None:
    """Verified witness of presentation isomorphism, or a certified None."""
    if e1.sub.dims() != e2.sub.dims() or e1.sub.open_label != e2.sub.open_label:
        raise ShapeMismatch("presentations must share the sub shape")
    if e1.quot.dims() != e2.quot.dims():
        raise ShapeMismatch("presentations must share the quotient shape")

    w_sub = iso_witness(e1.sub, e2.sub)
    if w_sub is None:
        return None

    if e1.collapsed:
        c1, c2 = e1.class_vector, e2.class_vector
        if any(c1) != any(c2):
            # the class moves by an invertible linear action, so the zero
            # class can only match the zero class
            return None
        r = e1.quot.a_dim
        if not any(c1):
            quot_a = QMatrix.identity(r)
        else:
            # want c2 * quot_a = c1: the first row of C2 quot_a = C1, for
            # completions C2 and C1 whose first rows are c2 and c1
            quot_a = solve(_complete_to_invertible(c2), _complete_to_invertible(c1))
        quot_b = e2.quot.beta * quot_a * e1.quot.beta.inverse()
        witness = ExtWitness(
            w_sub, quot_a, quot_b,
            QMatrix.zero(e2.sub.a_dim, r), QMatrix.zero(e2.sub.b_dim, e1.quot.b_dim),
        )
    else:
        witness = _block_witness(e1, e2, w_sub)
    if witness is None or not verify_ext_witness(e1, e2, witness):
        raise PostconditionError("isomorphic subs admit no verified extension witness")
    return witness


def _block_witness(
    e1: ExtensionPresentation, e2: ExtensionPresentation, w_sub: IsoWitness
) -> ExtWitness | None:
    """The block-regime witness over the sub witness, with quot_b = 1 and
    h_b = 0.

    With the sub blocks fixed, the total intertwines when the quotient
    A-map a_q and the correction h_a solve, against the second total's
    beta, beta_tot2 [h_a; a_q] = [b_s u1; beta_q1]: one solve, all quotient
    columns against one elimination.  Exact totals make it consistent:
    exactness of the second total at B (ker gamma_s2 = im beta_s2 + u2
    ker beta_q2) lets a_q absorb any B correction h_b in ker gamma_s2.
    They also make a_q unique and invertible: ker beta_tot2 = im
    alpha_tot2 lies in A_sub, and a_q y = 0 puts y in ker beta_q1 with u1
    y in im beta_s1, which exactness of the total at A turns into y = 0.
    So the solution is a witness; None means a column had no solution,
    which valid presentations rule out.
    """
    s2, q1 = e2.sub, e1.quot
    x = solve(e2.total.beta, vstack(w_sub.b * e1.u_block, q1.beta))
    if x is None:
        return None
    split = s2.a_dim * q1.a_dim  # h_a is the top s2.a_dim rows, a_q the rest
    h_a = _from_nums(s2.a_dim, q1.a_dim, x.den, x.nums[:split])
    a_q = _from_nums(e2.quot.a_dim, q1.a_dim, x.den, x.nums[split:])
    return ExtWitness(
        w_sub, a_q, QMatrix.identity(q1.b_dim), h_a, QMatrix.zero(s2.b_dim, q1.b_dim)
    )


def ext_isomorphic(e1: ExtensionPresentation, e2: ExtensionPresentation) -> bool:
    return ext_isomorphism_witness(e1, e2) is not None


# -- self-duality and classification -----------------------------------


def is_self_dual(e: ExtensionPresentation) -> bool:
    """Total fixed by duality, read off its rank profile in both regimes.

    The block-regime class is the total's u-block, so it needs no other
    check and need not be trivial.  In the collapsed regime a symmetric
    profile forces A_sub = 0 (exactness at B bounds B_tot by A_quot), so
    the dual presentation, the dual factors with this class, exists.
    """
    return self_dual(e.total)


class ClassRepresentative(NamedTuple):
    ext_class: ExtClass
    presentation: ExtensionPresentation
    is_split: bool
    is_self_dual: bool
    grid_members: tuple[Fraction, ...]


DEFAULT_CLASS_GRID: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 3),
)


def classify_selfdual_rank_one(
    boundary: tuple[int, int],
    grid: Sequence[Scalar] = DEFAULT_CLASS_GRID,
) -> list[ClassRepresentative]:
    """The two rank-one extension classes over a class grid: split, then
    corrected.

    Builds the extension of the rank-one point object by the minimal
    extension over the given boundary for every grid value and partitions
    the grid by the zero-ness of the class, the normal form that decides
    presentation isomorphism here.  Each member is witnessed against the
    first member of its part (a member without a verified witness raises
    PostconditionError), and both representatives must be self-dual.
    Raises ValueError unless the boundary is symmetric (duality swaps E^-
    and E^0) and the grid holds 0 and a nonzero value.
    """
    e_minus, e_zero = boundary
    if e_minus != e_zero:
        raise ValueError(f"self-dual classes need a symmetric boundary, got {boundary}")
    classes = [_frac(g) for g in grid]
    if 0 not in classes or not any(classes):
        raise ValueError("the class grid needs 0 and a nonzero value")
    sub = std_ic("Q_U[3]", e_minus, e_zero)
    quot = std_skyscraper(1)
    reps = []
    for members in ([c for c in classes if c == 0], [c for c in classes if c != 0]):
        rep = make_extension(sub, quot, members[0])
        for c in members[1:]:
            if ext_isomorphism_witness(make_extension(sub, quot, c), rep) is None:
                raise PostconditionError(
                    f"class {c} has no witness to class {members[0]} of the same zero-ness"
                )
        ext_class = extension_class(rep)
        reps.append(
            ClassRepresentative(
                ext_class, rep,
                is_split=ext_class.normalized == 0,
                is_self_dual=is_self_dual(rep),
                grid_members=tuple(members),
            )
        )
    found = [(r.is_split, r.is_self_dual) for r in reps]
    if found != [(True, True), (False, True)]:
        raise PostconditionError(
            f"expected a split and a corrected self-dual class, got (split, self-dual) = {found}"
        )
    return reps
