"""Combinatorial skeleton of a finite-node datum: a star graph with one
bulk vertex, one vertex per node, and a Phi/Psi edge pair per node.

No relations, potential, stability condition, or mutation rule is
attached; the skeleton records only the coupling pattern.  The DOT and
JSON exports are byte-deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .assembly import FiniteNodeDatum
from .linalg import format_rational


class Edge(NamedTuple):
    source: str
    target: str
    tag: str  # "Phi" or "Psi"


class NodeAnnotation(NamedTuple):
    label: str
    normalized_class: Fraction
    quotient_rank: int


@dataclass(frozen=True)
class Skeleton:
    """The star at ``bulk_vertex`` with one annotated vertex per node; the
    node vertices and the Phi/Psi edge pairs are read off the annotations."""

    bulk_vertex: str
    annotations: tuple[NodeAnnotation, ...]

    def __post_init__(self) -> None:
        if len(set(self.node_vertices)) != len(self.node_vertices):
            raise ValueError("node vertices must be distinct")
        if self.bulk_vertex in self.node_vertices:
            raise ValueError("bulk vertex collides with a node vertex")

    @property
    def node_vertices(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.annotations)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Per node in order: its Phi edge into the bulk, its Psi edge out."""
        bulk = self.bulk_vertex
        return tuple(
            edge
            for label in self.node_vertices
            for edge in (Edge(label, bulk, "Phi"), Edge(bulk, label, "Psi"))
        )


def skeleton_of(datum: FiniteNodeDatum) -> Skeleton:
    """Star graph centered at the bulk, in node order, with class annotations;
    a shadow with one class per node is required (ValueError otherwise)."""
    classes, nodes = len(datum.shadow.class_vector), len(datum.nodes)
    if classes != nodes:
        raise ValueError(f"shadow stores {classes} classes for {nodes} nodes")
    return Skeleton(
        datum.bulk_label,
        tuple(
            NodeAnnotation(
                node.label, datum.shadow.class_vector[k], node.local_extension.quot.a_dim
            )
            for k, node in enumerate(datum.nodes)
        ),
    )


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    if _DOT_ID.match(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(k: Skeleton) -> str:
    """Deterministic directed-graph text: vertices bulk-first, then the
    Phi/Psi edge pair of each node in node order."""
    lines = ["digraph skeleton {"]
    lines.append(f'  {_dot_id(k.bulk_vertex)} [kind="bulk"];')
    for ann in k.annotations:
        lines.append(
            f'  {_dot_id(ann.label)} [kind="node", '
            f'class="{format_rational(ann.normalized_class)}", '
            f'rank="{ann.quotient_rank}"];'
        )
    for index, edge in enumerate(k.edges):
        # two edges per node: the label carries the node's 1-based position
        lines.append(
            f'  {_dot_id(edge.source)} -> {_dot_id(edge.target)} '
            f'[label="{edge.tag}_{index // 2 + 1}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(k: Skeleton) -> str:
    payload = {
        "bulk": k.bulk_vertex,
        "vertices": [k.bulk_vertex, *k.node_vertices],
        "edges": [
            {"from": e.source, "to": e.target, "tag": e.tag} for e in k.edges
        ],
        "annotations": {
            a.label: {
                "class": format_rational(a.normalized_class),
                "rank": a.quotient_rank,
            }
            for a in k.annotations
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
