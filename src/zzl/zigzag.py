"""Zig-zag presentations of perverse-sheaf data at isolated points.

A zig-zag is a six-tuple (L, A, B, alpha, beta, gamma): an opaque label L
for the open part, two point spaces A and B, and the three maps of the
four-term sequence

    E^- --alpha--> A --beta--> B --gamma--> E^0

through the boundary spaces E^- and E^0 of the open part.  Validity means
exactness at A and B; nothing is required at the endpoints (the minimal
extension object has A = B = 0 under a nonzero boundary).  Open labels
carry no internal semantics here: boundary dimensions are caller input.

Duality is the transpose-and-swap involution (L, B*, A*, gamma^T,
beta^T, alpha^T) with the boundary roles exchanged; it fixes all three
standard objects, which is the property that pins the convention down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from . import intertwine
from .intertwine import SizeBound
from .linalg import (
    PostconditionError,
    QMatrix,
    ShapeMismatch,
    block_diag,
    hstack,
    product_is_zero,
    rank,
    vstack,
)

ZERO_LABEL = "0"

#: Desk-scale bound on every space dimension in an isomorphism search.
ISO_DIM_BOUND = 6


class ZeroRank(ValueError):
    """A rank-one-or-more constructor was given rank zero."""


@dataclass(frozen=True)
class ZigZag:
    open_label: str
    e_minus: int
    e_zero: int
    a_dim: int
    b_dim: int
    alpha: QMatrix  # E^- -> A
    beta: QMatrix   # A -> B
    gamma: QMatrix  # B -> E^0

    def __post_init__(self) -> None:
        if min(self.e_minus, self.e_zero, self.a_dim, self.b_dim) < 0:
            raise ShapeMismatch("negative dimension")
        if (self.alpha.rows, self.alpha.cols) != (self.a_dim, self.e_minus):
            raise ShapeMismatch(
                f"alpha must be {self.a_dim}x{self.e_minus}, "
                f"got {self.alpha.rows}x{self.alpha.cols}"
            )
        if (self.beta.rows, self.beta.cols) != (self.b_dim, self.a_dim):
            raise ShapeMismatch(
                f"beta must be {self.b_dim}x{self.a_dim}, "
                f"got {self.beta.rows}x{self.beta.cols}"
            )
        if (self.gamma.rows, self.gamma.cols) != (self.e_zero, self.b_dim):
            raise ShapeMismatch(
                f"gamma must be {self.e_zero}x{self.b_dim}, "
                f"got {self.gamma.rows}x{self.gamma.cols}"
            )
        if self.open_label == ZERO_LABEL and (self.e_minus or self.e_zero):
            raise ShapeMismatch("zero open part forces zero boundary dimensions")

    def dims(self) -> tuple[int, int, int, int]:
        return (self.e_minus, self.a_dim, self.b_dim, self.e_zero)


class ExactnessIssue(NamedTuple):
    position: str  # "A" or "B"
    image_dim: int
    kernel_dim: int
    message: str


def validate(z: ZigZag) -> list[ExactnessIssue]:
    """Check exactness at A and B; an empty report means the zig-zag is valid."""
    return validate_sum((z,))


def validate_sum(parts: Sequence[ZigZag]) -> list[ExactnessIssue]:
    """``validate`` of the direct sum of the parts, read off the parts.

    im f = ker g exactly when g*f = 0 and dim im f = dim ker g, and the
    latter is rank f = dim Y - rank g by rank-nullity; so three ranks and
    two zero tests of a product decide both positions.  The maps of a
    direct sum are block-diagonal, so its dimensions and ranks are the
    sums of the parts' and its products g*f vanish exactly when every
    part's do; the sum is never built, and each rank is read from the
    elimination stored on the part's map.
    """
    a_dim = b_dim = rank_alpha = rank_beta = rank_gamma = 0
    for z in parts:
        a_dim += z.a_dim
        b_dim += z.b_dim
        rank_alpha += rank(z.alpha)
        rank_beta += rank(z.beta)
        rank_gamma += rank(z.gamma)
    issues = []
    if rank_alpha != a_dim - rank_beta or not all(
        product_is_zero(z.beta, z.alpha) for z in parts
    ):
        issues.append(_issue("A", rank_alpha, a_dim - rank_beta))
    if rank_beta != b_dim - rank_gamma or not all(
        product_is_zero(z.gamma, z.beta) for z in parts
    ):
        issues.append(_issue("B", rank_beta, b_dim - rank_gamma))
    return issues


def _issue(position: str, im_dim: int, ker_dim: int) -> ExactnessIssue:
    """The issue at A (im alpha against ker beta) or at B (im beta against
    ker gamma), the one place its message is written."""
    f, g = ("alpha", "beta") if position == "A" else ("beta", "gamma")
    return ExactnessIssue(
        position, im_dim, ker_dim,
        f"at {position}: im({f}) has dim {im_dim}, ker({g}) has dim {ker_dim}",
    )


# -- standard objects ------------------------------------------------


def std_ic(open_label: str, e_minus: int, e_zero: int) -> ZigZag:
    """Minimal-extension zig-zag: zero point terms under the given boundary."""
    return ZigZag(
        open_label, e_minus, e_zero, 0, 0,
        QMatrix.zero(0, e_minus), QMatrix.zero(0, 0), QMatrix.zero(e_zero, 0),
    )


def std_skyscraper(r: int) -> ZigZag:
    """Point-supported object of rank r: (0, Q^r, Q^r, 0, id, 0)."""
    if r < 1:
        raise ZeroRank("skyscraper rank must be at least 1")
    return ZigZag(
        ZERO_LABEL, 0, 0, r, r,
        QMatrix.zero(r, 0), QMatrix.identity(r), QMatrix.zero(0, r),
    )


def std_corrected(open_label: str, e_minus: int, e_zero: int) -> ZigZag:
    """The distinguished corrected object in compressed form: (L, Q, Q, 0, id, 0)."""
    return ZigZag(
        open_label, e_minus, e_zero, 1, 1,
        QMatrix.zero(1, e_minus), QMatrix.identity(1), QMatrix.zero(e_zero, 1),
    )


# -- structure maps --------------------------------------------------


def combine_labels(l1: str, l2: str) -> str:
    if l1 == ZERO_LABEL:
        return l2
    if l2 == ZERO_LABEL:
        return l1
    return f"{l1}+{l2}"


def direct_sum(z1: ZigZag, z2: ZigZag) -> ZigZag:
    """Block-diagonal sum; boundary dims add, a zero open part contributes none."""
    return ZigZag(
        combine_labels(z1.open_label, z2.open_label),
        z1.e_minus + z2.e_minus,
        z1.e_zero + z2.e_zero,
        z1.a_dim + z2.a_dim,
        z1.b_dim + z2.b_dim,
        block_diag(z1.alpha, z2.alpha),
        block_diag(z1.beta, z2.beta),
        block_diag(z1.gamma, z2.gamma),
    )


def dualize(z: ZigZag) -> ZigZag:
    """Transpose-and-swap duality; an involution on the nose."""
    return ZigZag(
        z.open_label,
        z.e_zero,
        z.e_minus,
        z.b_dim,
        z.a_dim,
        z.gamma.transpose(),
        z.beta.transpose(),
        z.alpha.transpose(),
    )


@dataclass(frozen=True)
class CompressedShape:
    """Labels, dimensions, and ranks only: a lossy invariant of a zig-zag."""

    open_label: str
    e_minus: int
    e_zero: int
    a_dim: int
    b_dim: int
    rank_alpha: int
    rank_beta: int
    rank_gamma: int

    def __add__(self, other: CompressedShape) -> CompressedShape:
        return CompressedShape(
            combine_labels(self.open_label, other.open_label),
            self.e_minus + other.e_minus,
            self.e_zero + other.e_zero,
            self.a_dim + other.a_dim,
            self.b_dim + other.b_dim,
            self.rank_alpha + other.rank_alpha,
            self.rank_beta + other.rank_beta,
            self.rank_gamma + other.rank_gamma,
        )


def compressed_shape(z: ZigZag) -> CompressedShape:
    return CompressedShape(
        z.open_label, z.e_minus, z.e_zero, z.a_dim, z.b_dim,
        rank(z.alpha), rank(z.beta), rank(z.gamma),
    )


# -- isomorphism -----------------------------------------------------


class IsoWitness(NamedTuple):
    """Invertible maps (z1 -> z2) on E^-, A, B, E^0 intertwining the zig-zags."""

    p: QMatrix
    a: QMatrix
    b: QMatrix
    q: QMatrix


def verify_witness(z1: ZigZag, z2: ZigZag, w: IsoWitness) -> bool:
    """Exact check that w intertwines z1 with z2 and every block is invertible."""
    for blk, size_1, size_2 in (
        (w.p, z1.e_minus, z2.e_minus),
        (w.a, z1.a_dim, z2.a_dim),
        (w.b, z1.b_dim, z2.b_dim),
        (w.q, z1.e_zero, z2.e_zero),
    ):
        if (blk.rows, blk.cols) != (size_2, size_1):
            return False
        if blk.rows != blk.cols or rank(blk) != blk.rows:
            return False
    return (
        w.a * z1.alpha == z2.alpha * w.p
        and w.b * z1.beta == z2.beta * w.a
        and w.q * z1.gamma == z2.gamma * w.b
    )


def _rank_profile(z: ZigZag) -> tuple[int, ...]:
    # dims plus ranks of all forward composites: a complete invariant for
    # four-term chains, by interval decomposition; self_dual reads its entries.
    return (
        z.e_minus, z.a_dim, z.b_dim, z.e_zero,
        rank(z.alpha), rank(z.beta), rank(z.gamma),
        rank(z.beta * z.alpha), rank(z.gamma * z.beta),
        rank(z.gamma * z.beta * z.alpha),
    )


def self_dual(z: ZigZag) -> bool:
    """Whether z is isomorphic to dualize(z), read off z's rank profile:
    the dual's reverses the dims and swaps rank alpha with rank gamma and
    rank beta*alpha with rank gamma*beta, so only those are compared.  The
    profile is complete, so no witness is built and no size bound applies."""
    return (
        z.e_minus == z.e_zero and z.a_dim == z.b_dim
        and rank(z.alpha) == rank(z.gamma)
        and rank(z.beta * z.alpha) == rank(z.gamma * z.beta)
    )


def _check_size(z: ZigZag) -> None:
    if max(z.dims()) > ISO_DIM_BOUND:
        raise SizeBound(
            f"isomorphism search supports dims <= {ISO_DIM_BOUND}, got {z.dims()}"
        )


def _intertwiner_shapes(z1: ZigZag, z2: ZigZag, names: tuple) -> dict[str, tuple[int, int]]:
    """The BlockSystem shape of each named map z1 -> z2 on E^-, A, B, E^0."""
    return {n: (d2, d1) for n, d1, d2 in zip(names, z1.dims(), z2.dims()) if n}


def _add_intertwining(
    system: intertwine.BlockSystem, z1: ZigZag, z2: ZigZag, names: tuple
) -> None:
    """Impose a*alpha1 = alpha2*p, b*beta1 = beta2*a and q*gamma1 = gamma2*b
    on the unknowns named (p, a, b, q).  A None boundary name pins that map
    to the identity, and its term becomes the equation's constant."""
    p, a, b, q = names
    for out, f1, f2, into in (
        (a, z1.alpha, z2.alpha, p),
        (b, z1.beta, z2.beta, a),
        (q, z1.gamma, z2.gamma, b),
    ):
        # out*f1 - f2*into = 0
        terms, constant = [], None
        if out is None:
            constant = f1
        else:
            terms.append((QMatrix.identity(f2.rows), out, f1))
        if into is None:
            constant = -1 * f2
        else:
            terms.append((-1 * f2, into, QMatrix.identity(f1.cols)))
        system.add_equation(terms, constant=constant)


def iso_witness(z1: ZigZag, z2: ZigZag, strict: bool = False) -> IsoWitness | None:
    """A verified isomorphism witness, or None when none exists.

    Default mode lets the boundary spaces move by arbitrary invertible
    maps; strict mode is the same intertwining system with p and q pinned
    to the identity.  In the default mode equal zig-zags get the identity
    witness at once; otherwise the decision is made by the
    rank profile of forward composites (complete for chains of this
    length), and the search then only has to produce a witness that is
    known to exist; a certified search that finds none raises
    PostconditionError.  Only the search is bounded: SizeBound is raised
    just before it when a dimension exceeds ISO_DIM_BOUND.
    """
    if z1.open_label != z2.open_label:
        return None
    if strict:
        if z1.dims() != z2.dims():
            return None
        names = (None, "a", "b", None)
    else:
        if z1 == z2:
            return IsoWitness(*map(QMatrix.identity, z1.dims()))
        if _rank_profile(z1) != _rank_profile(z2):
            return None
        names = ("p", "a", "b", "q")
    _check_size(z1)
    _check_size(z2)
    system = intertwine.BlockSystem(_intertwiner_shapes(z1, z2, names))
    _add_intertwining(system, z1, z2, names)
    found = intertwine.find_invertible(system, list(system.variables))
    if found is None:
        if not strict:
            # the rank profiles agree, so a witness exists; a certified
            # search that finds none is wrong
            raise PostconditionError("certified search found no witness of an isomorphism")
        return None
    witness = IsoWitness(
        *(found[n] if n else QMatrix.identity(d) for n, d in zip(names, z1.dims()))
    )
    if not verify_witness(z1, z2, witness):
        raise PostconditionError("isomorphism witness failed verification")
    return witness


def is_isomorphic(z1: ZigZag, z2: ZigZag, strict: bool = False) -> bool:
    return iso_witness(z1, z2, strict=strict) is not None


# -- multi-node zig-zags ----------------------------------------------


@dataclass(frozen=True)
class NodePart:
    """One node's contribution: point terms and maps against the shared boundary."""

    label: str
    a_dim: int
    b_dim: int
    alpha: QMatrix  # shared E^- -> A_k
    beta: QMatrix   # A_k -> B_k
    gamma: QMatrix  # B_k -> shared E^0


@dataclass(frozen=True)
class MultiZigZag:
    """Node-indexed direct sum of point contributions over one open part."""

    open_label: str
    e_minus: int
    e_zero: int
    nodes: tuple[NodePart, ...]

    def __post_init__(self) -> None:
        labels = [n.label for n in self.nodes]
        if len(set(labels)) != len(labels):
            raise ShapeMismatch(f"node labels must be distinct, got {labels}")
        for n in self.nodes:
            if (n.alpha.rows, n.alpha.cols) != (n.a_dim, self.e_minus):
                raise ShapeMismatch(f"node {n.label}: alpha of wrong shape")
            if (n.beta.rows, n.beta.cols) != (n.b_dim, n.a_dim):
                raise ShapeMismatch(f"node {n.label}: beta of wrong shape")
            if (n.gamma.rows, n.gamma.cols) != (self.e_zero, n.b_dim):
                raise ShapeMismatch(f"node {n.label}: gamma of wrong shape")
        if self.open_label == ZERO_LABEL and (self.e_minus or self.e_zero):
            raise ShapeMismatch("zero open part forces zero boundary dimensions")

    @staticmethod
    def skyscrapers(labels: Sequence[str]) -> MultiZigZag:
        """One rank-one point term per label; the multi-node local shadow."""
        parts = tuple(
            NodePart(
                label, 1, 1,
                QMatrix.zero(1, 0), QMatrix.identity(1), QMatrix.zero(0, 1),
            )
            for label in labels
        )
        return MultiZigZag(ZERO_LABEL, 0, 0, parts)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes)

    def total(self) -> ZigZag:
        """Collapse the node indexing to a single zig-zag."""
        if not self.nodes:
            return std_ic(self.open_label, self.e_minus, self.e_zero)
        return ZigZag(
            self.open_label,
            self.e_minus,
            self.e_zero,
            sum(n.a_dim for n in self.nodes),
            sum(n.b_dim for n in self.nodes),
            vstack(*(n.alpha for n in self.nodes)),
            block_diag(*(n.beta for n in self.nodes)),
            hstack(*(n.gamma for n in self.nodes)),
        )

    def __iter__(self) -> Iterator[NodePart]:
        return iter(self.nodes)
