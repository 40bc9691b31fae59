"""Finite-node assembly: per-node local data combined over the bulk they
share (label and boundary read off the nodes) into the global corrected
extension shadow, and divisor-gluing quadruples, each node's blocks stacked
between zero blocks, with their v*u = N verification.

The verification entry points return reports instead of raising, so that
deliberately corrupted data (negative controls, mutation suites) can be
pushed through them.  Construction helpers such as :func:`assemble` and
:func:`assemble_gluing` do raise, since they promise well-formed output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .extension import ExtensionPresentation, extension_class
from .linalg import QMatrix, ShapeMismatch, hstack, vstack
from .monodromy import NotNilpotent, nilpotency_index
from .zigzag import ZERO_LABEL, ZigZag, std_ic, std_skyscraper


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

    @cached_property
    def normalized_class(self) -> Fraction:
        """The local extension's class in {0, 1}, computed on the first read."""
        return extension_class(self.local_extension).normalized

    @property
    def bulk(self) -> tuple[str, int, int]:
        """The bulk part of the local extension: (label, e_minus, e_zero)."""
        sub = self.local_extension.sub
        return (sub.open_label, sub.e_minus, sub.e_zero)


@dataclass(frozen=True)
class FiniteNodeDatum:
    """Bulk label, ordered node data, and the stored global shadow."""

    bulk_label: str
    nodes: tuple[NodeDatum, ...]
    shadow: ExtensionPresentation

    @property
    def node_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes)


def assemble(bulk_label: str, nodes: Sequence[NodeDatum]) -> FiniteNodeDatum:
    """Combine local node data into the corrected finite-node shadow.

    The nodes must share one bulk part, over ``bulk_label``, and each
    local sub must be the minimal extension over it, which is the shadow
    sub (over the boundary (1, 1) when there are no nodes).  The shadow
    quotient is the direct sum of one rank-one point object per node, in
    node order; the shadow class vector is the per-node normalized class.
    """
    bulks = sorted({n.bulk for n in nodes})
    if len(bulks) > 1:
        raise ValueError(f"local extensions disagree on the bulk part: {bulks}")
    label, e_minus, e_zero = bulks[0] if bulks else (bulk_label, 1, 1)
    if label != bulk_label:
        raise ValueError(f"nodes are over the bulk {label!r}, not {bulk_label!r}")
    labels = [n.label for n in nodes]
    if len(set(labels)) != len(labels):
        raise DuplicateNode(f"node labels must be distinct, got {labels}")
    if bulk_label in labels:
        raise DuplicateNode(f"bulk label {bulk_label!r} collides with a node label")
    sub = std_ic(bulk_label, e_minus, e_zero)
    strays = [n.label for n in nodes if n.local_extension.sub != sub]
    if strays:
        raise ValueError(f"nodes {strays}: local sub is not the bulk's minimal extension")
    classes = tuple(n.normalized_class for n in nodes)
    shadow = ExtensionPresentation(sub, _point_sum(len(labels)), None, classes)
    return FiniteNodeDatum(bulk_label, tuple(nodes), shadow)


def _point_sum(n: int) -> ZigZag:
    """The direct sum of n rank-one point objects, in closed form: the
    total of ``MultiZigZag.skyscrapers`` over n labels, which is
    ``std_skyscraper(n)``, and the zero object when there are no nodes."""
    return std_skyscraper(n) if n else std_ic(ZERO_LABEL, 0, 0)


def verify_shadow_compat(datum: FiniteNodeDatum) -> Report:
    """Rebuild the corrected finite-node extension and compare componentwise."""
    checks: list[Check] = []
    labels = datum.node_labels
    distinct = len(set(labels)) == len(labels)
    checks.append(
        Check("node labels distinct", distinct, f"labels: {list(labels)}")
    )
    sub = datum.shadow.sub
    strays = [n.label for n in datum.nodes if n.local_extension.sub != sub]
    is_ic = (
        sub.a_dim == 0 and sub.b_dim == 0 and sub.open_label == datum.bulk_label and not strays
    )
    detail = f"sub has point dims ({sub.a_dim}, {sub.b_dim}), label {sub.open_label!r}"
    if strays:
        detail += f"; nodes over another bulk part: {strays}"
    checks.append(Check("bulk shadow is the minimal-extension zig-zag", is_ic, detail))
    summands = datum.shadow.quot.a_dim  # one A dimension per rank-one point summand
    count_ok = summands == len(labels)
    checks.append(
        Check(
            "one quotient summand per node, in node order",
            count_ok,
            f"quotient summands: {list(labels) if count_ok else summands}",
        )
    )
    quot_ok = datum.shadow.quot == _point_sum(len(labels))
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


def _range_issue(
    decomposition: Sequence[tuple[str, tuple[int, int]]], psi_dim: int
) -> str | None:
    """A message naming the first node whose psi range is out of bounds or
    overlaps an earlier one; None when the ranges are disjoint and in bounds."""
    seen: set[int] = set()
    for label, (start, stop) in decomposition:
        if not (0 <= start <= stop <= psi_dim):
            return f"node {label}: range ({start}, {stop}) out of bounds"
        span = set(range(start, stop))
        if span & seen:
            return f"node {label}: range overlaps another node"
        seen |= span
    return None


def assemble_gluing(
    blocks: dict[str, GluingBlock],
    psi_dim: int,
    decomposition: Sequence[tuple[str, tuple[int, int]]],
) -> GluingQuadruple:
    """Place per-node blocks into global u, v and derive n = v*u.

    Node k's u_k is stacked between zero blocks into the rows of its rank
    block and v_k into its columns, both over its psi range, so the
    derived n is block-diagonal with the per-node v_k*u_k blocks.
    """
    ranges = tuple((label, (start, stop)) for label, (start, stop) in decomposition)
    labels = [label for label, _ in ranges]
    if len(set(labels)) != len(labels):
        raise DuplicateNode(f"node labels must be distinct, got {labels}")
    if set(blocks) != set(labels):
        raise ShapeMismatch("blocks and decomposition must name the same nodes")
    issue = _range_issue(ranges, psi_dim)
    if issue is not None:
        raise ShapeMismatch(issue)
    u_rows, v_cols = [QMatrix.zero(0, psi_dim)], [QMatrix.zero(psi_dim, 0)]
    for label, (start, stop) in ranges:
        u_k, v_k = blocks[label]
        width = stop - start
        if u_k.cols != width or v_k.rows != width:
            raise ShapeMismatch(
                f"node {label}: block width {u_k.cols}/{v_k.rows}, range width {width}"
            )
        if u_k.rows != v_k.cols:
            raise ShapeMismatch(f"node {label}: u rows must equal v cols")
        # (vu)^(j+1) = v (uv)^j u, so the w x w v*u is nilpotent iff the r x r u*v is
        if nilpotency_index(u_k * v_k) is None:
            raise NotNilpotent(f"node {label}: v*u is not nilpotent")
        r_k = u_k.rows
        u_rows.append(hstack(QMatrix.zero(r_k, start), u_k, QMatrix.zero(r_k, psi_dim - stop)))
        v_cols.append(vstack(QMatrix.zero(start, r_k), v_k, QMatrix.zero(psi_dim - stop, r_k)))
    u, v = vstack(*u_rows), hstack(*v_cols)
    m2_dims = tuple(blocks[label].u.rows for label in labels)
    return GluingQuadruple(psi_dim, ranges, m2_dims, u, v, v * u)


def verify_gluing(g: GluingQuadruple) -> Report:
    """Check v*u = n, nilpotency, rank-one node blocks, and block support.

    Filtration compatibilities are out of scope here and are always
    reported as not checked.
    """
    checks: list[Check] = [
        Check(
            "decomposition ranges disjoint and in bounds",
            _range_issue(g.decomposition, g.psi_dim) is None,
            f"psi = {g.psi_dim}, ranges {[r for _, r in g.decomposition]}",
        )
    ]

    # the last offender in scan order: per node, its u rows, then its v
    # columns; each vector's entries outside the node's range are tested
    # with any(), and the offending coordinate is found only where one is
    psi, m2_total = g.psi_dim, g.v.cols
    u_rows = [g.u.nums[i * psi : (i + 1) * psi] for i in range(m2_total)]
    v_cols = [g.v.nums[j::m2_total] for j in range(m2_total)]
    last = None  # (kind, label, vector, start, stop) of the last offending vector
    nonzero = []  # per node: whether some u row, some v column is nonzero
    row_offset = 0
    for (label, (start, stop)), r_k in zip(g.decomposition, g.m2_dims):
        # coordinates k < start or k >= stop lie outside the range
        head, tail = max(start, 0), max(stop, 0)
        found = []
        for kind, vectors in (("u row", u_rows), ("v column", v_cols)):
            block = vectors[row_offset : row_offset + r_k]
            for vector in block:
                if any(vector[:head]) or any(vector[tail:]):
                    last = kind, label, vector, head, tail
            found.append(any(map(any, block)))
        nonzero.append(found)
        row_offset += r_k
    offender = ""
    if last is not None:
        kind, label, vector, head, tail = last
        k = max(k for k, x in enumerate(vector) if x and not head <= k < tail)
        offender = f"{kind} for node {label} touches psi coordinate {k}"
    checks.append(
        Check(
            "u and v respect the node decomposition",
            not offender,
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
    for (label, (start, stop)), r_k, (u_nonzero, v_nonzero) in zip(
        g.decomposition, g.m2_dims, nonzero
    ):
        # N_k = v_k*u_k, a column times a row, has rank one exactly when
        # neither factor is zero
        if r_k != 1 or (u_nonzero and v_nonzero):
            detail = f"rank block has dimension {r_k}"
        elif start == stop and not (u_nonzero or v_nonzero):
            detail = "u row and v column are zero over an empty psi range"
        else:
            detail = "u row or v column is zero, so v*u has rank 0"
        checks.append(
            Check(
                f"node {label}: rank-one block (ODP)",
                r_k == 1 and u_nonzero and v_nonzero,
                detail,
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
