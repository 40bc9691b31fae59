"""Finite-node assembly: per-node local data combined over one bulk label
into the global corrected extension shadow, and divisor-gluing quadruples
with their v*u = N verification.

The verification entry points return reports instead of raising, so that
deliberately corrupted data (negative controls, mutation suites) can be
pushed through them.  Construction helpers such as :func:`assemble` and
:func:`assemble_gluing` do raise, since they promise well-formed output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .extension import ExtensionPresentation, extension_class
from .linalg import QMatrix, ShapeMismatch
from .monodromy import NotNilpotent, nilpotency_index
from .zigzag import MultiZigZag, std_ic


class DuplicateNode(ValueError):
    """Two nodes carry the same label."""


class NonRankOneQuotient(ValueError):
    """A local extension's quotient is not rank one (the ODP hypothesis)."""


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]
    notices: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_payload(self) -> dict:
        return {
            "status": self.status,
            "per_check": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "notices": list(self.notices),
        }


FILTRATION_NOTICE = (
    "filtration compatibilities (Hodge, weight, V): not checked"
)


class GluingBlock(NamedTuple):
    """One node's gluing maps: u into the rank block, v back out."""

    u: QMatrix  # local psi range -> Q^r
    v: QMatrix  # Q^r -> local psi range


@dataclass(frozen=True)
class NodeDatum:
    label: str
    local_extension: ExtensionPresentation

    def __post_init__(self) -> None:
        if self.local_extension.quot.a_dim != 1:
            raise NonRankOneQuotient(
                f"node {self.label}: quotient has rank "
                f"{self.local_extension.quot.a_dim}, expected 1"
            )

    @property
    def normalized_class(self) -> Fraction:
        return extension_class(self.local_extension).normalized


@dataclass(frozen=True)
class FiniteNodeDatum:
    """Bulk label, ordered node data, and the stored global shadow."""

    bulk_label: str
    nodes: tuple[NodeDatum, ...]
    shadow_quotient: MultiZigZag
    shadow: ExtensionPresentation

    @property
    def node_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes)


def assemble(
    bulk_label: str,
    nodes: Sequence[NodeDatum],
    e_minus: int = 1,
    e_zero: int = 1,
) -> FiniteNodeDatum:
    """Combine local node data into the corrected finite-node shadow.

    The shadow quotient is the direct sum of one rank-one point object
    per node, in node order; the shadow class vector is the per-node
    normalized class.
    """
    labels = [n.label for n in nodes]
    if len(set(labels)) != len(labels):
        raise DuplicateNode(f"node labels must be distinct, got {labels}")
    if bulk_label in labels:
        raise DuplicateNode(f"bulk label {bulk_label!r} collides with a node label")
    quotient = MultiZigZag.skyscrapers(labels)
    classes = tuple(n.normalized_class for n in nodes)
    shadow = ExtensionPresentation(
        std_ic(bulk_label, e_minus, e_zero), quotient.total(), None, classes
    )
    return FiniteNodeDatum(bulk_label, tuple(nodes), quotient, shadow)


def verify_shadow_compat(datum: FiniteNodeDatum) -> Report:
    """Rebuild the corrected finite-node extension and compare componentwise."""
    checks: list[Check] = []
    labels = datum.node_labels
    distinct = len(set(labels)) == len(labels)
    checks.append(
        Check("node labels distinct", distinct, f"labels: {list(labels)}")
    )
    sub = datum.shadow.sub
    is_ic = sub.a_dim == 0 and sub.b_dim == 0 and sub.open_label == datum.bulk_label
    checks.append(
        Check(
            "bulk shadow is the minimal-extension zig-zag",
            is_ic,
            f"sub has point dims ({sub.a_dim}, {sub.b_dim}), label {sub.open_label!r}",
        )
    )
    count_ok = (
        len(datum.shadow_quotient.nodes) == len(datum.nodes)
        and datum.shadow_quotient.labels == labels
    )
    checks.append(
        Check(
            "one quotient summand per node, in node order",
            count_ok,
            f"quotient summands: {list(datum.shadow_quotient.labels)}",
        )
    )
    expected_quotient = MultiZigZag.skyscrapers(labels).total()
    quot_ok = datum.shadow.quot == expected_quotient
    checks.append(
        Check(
            "shadow quotient equals the direct sum of rank-one point objects",
            quot_ok,
            f"quotient dims (A, B) = ({datum.shadow.quot.a_dim}, {datum.shadow.quot.b_dim})",
        )
    )
    for k, node in enumerate(datum.nodes):
        expected = node.normalized_class
        stored = (
            datum.shadow.class_vector[k]
            if k < len(datum.shadow.class_vector)
            else None
        )
        ok = stored == expected
        kind = "split" if expected == 0 else "corrected"
        checks.append(
            Check(
                f"node {node.label}: shadow class",
                ok,
                f"normalized class {expected} ({kind}); stored {stored}",
            )
        )
    if datum.shadow.sub.b_dim != 0:
        checks.append(
            Check(
                "shadow is in the collapsed regime",
                False,
                "expected a stored scalar class vector over an IC-type sub",
            )
        )
    return Report(tuple(checks))


# -- gluing quadruples --------------------------------------------------


@dataclass(frozen=True)
class GluingQuadruple:
    """(psi, M'', u, v) with the derived map n; invariants live in verify_gluing.

    Construction is deliberately permissive so corrupted quadruples can
    be built and then reported on; use :func:`assemble_gluing` for the
    raising constructor.
    """

    psi_dim: int
    decomposition: tuple[tuple[str, tuple[int, int]], ...]
    m2_dims: tuple[int, ...]
    u: QMatrix  # psi -> M''
    v: QMatrix  # M'' -> psi
    n: QMatrix  # psi -> psi; v*u unless deliberately overridden
    expected_n: QMatrix | None = None

    def __post_init__(self) -> None:
        m2_total = sum(self.m2_dims)
        if (self.u.rows, self.u.cols) != (m2_total, self.psi_dim):
            raise ShapeMismatch(f"u must be {m2_total}x{self.psi_dim}")
        if (self.v.rows, self.v.cols) != (self.psi_dim, m2_total):
            raise ShapeMismatch(f"v must be {self.psi_dim}x{m2_total}")
        if (self.n.rows, self.n.cols) != (self.psi_dim, self.psi_dim):
            raise ShapeMismatch("n must be square of size psi")
        if len(self.m2_dims) != len(self.decomposition):
            raise ShapeMismatch("one rank block per decomposition entry")

    @property
    def node_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.decomposition)

    def inert_coords(self) -> tuple[int, ...]:
        covered = set()
        for _, (start, stop) in self.decomposition:
            covered.update(range(start, stop))
        return tuple(sorted(set(range(self.psi_dim)) - covered))


def assemble_gluing(
    blocks: dict[str, GluingBlock],
    psi_dim: int,
    decomposition: Sequence[tuple[str, tuple[int, int]]],
) -> GluingQuadruple:
    """Place per-node blocks into global u, v and derive n = v*u.

    Every placement is block-respecting by construction, so the derived
    n is block-diagonal with the per-node v_k*u_k blocks.
    """
    ranges = list(decomposition)
    labels = [label for label, _ in ranges]
    if len(set(labels)) != len(labels):
        raise DuplicateNode(f"node labels must be distinct, got {labels}")
    if set(blocks) != set(labels):
        raise ShapeMismatch("blocks and decomposition must name the same nodes")
    seen: set[int] = set()
    for label, (start, stop) in ranges:
        if not (0 <= start <= stop <= psi_dim):
            raise ShapeMismatch(f"node {label}: range ({start}, {stop}) out of bounds")
        span = set(range(start, stop))
        if span & seen:
            raise ShapeMismatch(f"node {label}: range overlaps another node")
        seen |= span
    m2_dims = []
    for label, (start, stop) in ranges:
        u_k, v_k = blocks[label]
        width = stop - start
        if u_k.cols != width or v_k.rows != width:
            raise ShapeMismatch(
                f"node {label}: block width {u_k.cols}/{v_k.rows}, range width {width}"
            )
        if u_k.rows != v_k.cols:
            raise ShapeMismatch(f"node {label}: u rows must equal v cols")
        if nilpotency_index(v_k * u_k) is None:
            raise NotNilpotent(f"node {label}: v*u is not nilpotent")
        m2_dims.append(u_k.rows)

    m2_total = sum(m2_dims)
    u_rows = [[Fraction(0)] * psi_dim for _ in range(m2_total)]
    v_rows = [[Fraction(0)] * m2_total for _ in range(psi_dim)]
    row_offset = 0
    for (label, (start, stop)), r_k in zip(ranges, m2_dims):
        u_k, v_k = blocks[label]
        for i in range(r_k):
            for j in range(stop - start):
                u_rows[row_offset + i][start + j] = u_k.entry(i, j)
        for i in range(stop - start):
            for j in range(r_k):
                v_rows[start + i][row_offset + j] = v_k.entry(i, j)
        row_offset += r_k
    u = QMatrix.from_rows(u_rows, cols=psi_dim)
    v = QMatrix.from_rows(v_rows, cols=m2_total)
    return GluingQuadruple(
        psi_dim, tuple((l, (a, b)) for l, (a, b) in ranges), tuple(m2_dims), u, v, v * u
    )


def verify_gluing(g: GluingQuadruple) -> Report:
    """Check v*u = n, nilpotency, rank-one node blocks, and block support.

    Filtration compatibilities are out of scope here and are always
    reported as not checked.
    """
    checks: list[Check] = []

    covered: set[int] = set()
    ranges_ok = True
    for label, (start, stop) in g.decomposition:
        span = set(range(start, stop))
        if not (0 <= start <= stop <= g.psi_dim) or span & covered:
            ranges_ok = False
        covered |= span
    checks.append(
        Check(
            "decomposition ranges disjoint and in bounds",
            ranges_ok,
            f"psi = {g.psi_dim}, ranges {[r for _, r in g.decomposition]}",
        )
    )

    support_ok = True
    offender = ""
    row_offset = 0
    for (label, (start, stop)), r_k in zip(g.decomposition, g.m2_dims):
        for i in range(row_offset, row_offset + r_k):
            for j in range(g.psi_dim):
                if not (start <= j < stop) and g.u.entry(i, j):
                    support_ok = False
                    offender = f"u row for node {label} touches psi coordinate {j}"
        for j in range(row_offset, row_offset + r_k):
            for i in range(g.psi_dim):
                if not (start <= i < stop) and g.v.entry(i, j):
                    support_ok = False
                    offender = f"v column for node {label} touches psi coordinate {i}"
        row_offset += r_k
    checks.append(
        Check(
            "u and v respect the node decomposition",
            support_ok,
            offender or "all block supports inside their ranges",
        )
    )

    derived = g.v * g.u
    checks.append(
        Check(
            "n equals v*u entrywise",
            derived == g.n,
            "equal" if derived == g.n else "stored n differs from v*u",
        )
    )
    nil_index = nilpotency_index(g.n)
    checks.append(
        Check(
            "n is nilpotent",
            nil_index is not None,
            f"n^{nil_index} = 0" if nil_index is not None else "no power of n vanishes",
        )
    )
    for (label, _), r_k in zip(g.decomposition, g.m2_dims):
        checks.append(
            Check(
                f"node {label}: rank-one block (ODP)",
                r_k == 1,
                f"rank block has dimension {r_k}",
            )
        )
    if g.expected_n is not None:
        match = g.expected_n == derived
        checks.append(
            Check(
                "supplied N matches v*u",
                match,
                "equal" if match else "supplied N differs from v*u",
            )
        )
    return Report(tuple(checks), notices=(FILTRATION_NOTICE,))
