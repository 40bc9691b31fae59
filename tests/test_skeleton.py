import re
from fractions import Fraction

import pytest

from zzl.assembly import FiniteNodeDatum, NodeDatum, assemble, verify_shadow_compat
from zzl.extension import make_extension
from zzl.skeleton import Edge, skeleton_of, to_dot, to_json
from zzl.zigzag import std_ic, std_skyscraper


def datum(classes, bulk="C_bulk"):
    nodes = [
        NodeDatum(f"p{k + 1}", make_extension(std_ic(bulk, 1, 1), std_skyscraper(1), c))
        for k, c in enumerate(classes)
    ]
    return assemble(bulk, nodes)


class TestSkeletonShape:
    @pytest.mark.parametrize("r", range(0, 6))
    def test_star_counts(self, r):
        sk = skeleton_of(datum([1] * r))
        assert len(sk.node_vertices) == r
        assert len(sk.edges) == 2 * r
        assert len({sk.bulk_vertex, *sk.node_vertices}) == r + 1

    def test_edges_tagged_per_node(self):
        sk = skeleton_of(datum([1, 0]))
        assert sk.edges == (
            Edge("p1", "C_bulk", "Phi"),
            Edge("C_bulk", "p1", "Psi"),
            Edge("p2", "C_bulk", "Phi"),
            Edge("C_bulk", "p2", "Psi"),
        )

    def test_annotations(self):
        sk = skeleton_of(datum([1, 0]))
        assert [(a.label, a.normalized_class, a.quotient_rank) for a in sk.annotations] == [
            ("p1", Fraction(1), 1),
            ("p2", Fraction(0), 1),
        ]

    def test_node_order_preserved(self):
        d = datum([0, 1, 1])
        sk = skeleton_of(d)
        assert sk.node_vertices == ("p1", "p2", "p3")

    def test_shadow_with_fewer_classes_than_nodes_rejected(self):
        d = datum([1, 0])
        short = FiniteNodeDatum(d.bulk_label, d.nodes, datum([1]).shadow)
        assert not verify_shadow_compat(short).passed
        with pytest.raises(ValueError, match="shadow stores 1 classes for 2 nodes"):
            skeleton_of(short)


class TestDotExport:
    def test_single_node_edge_lines(self):
        dot = to_dot(skeleton_of(datum([1])))
        assert 'p1 -> C_bulk [label="Phi_1"];' in dot
        assert 'C_bulk -> p1 [label="Psi_1"];' in dot
        assert 'class="1"' in dot

    def test_r_zero_single_vertex(self):
        dot = to_dot(skeleton_of(datum([])))
        assert "->" not in dot
        assert dot.count("[") == 1  # just the bulk vertex statement

    def test_deterministic(self):
        d = datum([1, 0, 1])
        assert to_dot(skeleton_of(d)) == to_dot(skeleton_of(d))

    def test_quoting_of_awkward_names(self):
        d = datum([1], bulk="C bulk!")
        dot = to_dot(skeleton_of(d))
        assert '"C bulk!"' in dot

    def test_round_trip_through_reader(self):
        sk = skeleton_of(datum([1, 0, 1]))
        vertices, edges = _read_dot(to_dot(sk))
        assert set(vertices) == {"C_bulk", "p1", "p2", "p3"}
        assert ("p2", "C_bulk", "Phi_2") in edges
        assert ("C_bulk", "p3", "Psi_3") in edges
        assert len(edges) == 6
        assert vertices["p1"]["class"] == "1"
        assert vertices["p2"]["class"] == "0"


class TestJsonExport:
    def test_canonical_json(self):
        sk = skeleton_of(datum([1, 0]))
        text = to_json(sk)
        assert text == to_json(sk)
        assert '"p1"' in text and '"annotations"' in text


_VERTEX = re.compile(r'^\s*("?[^"\[\]]+"?)\s*\[(.*)\];$')
_EDGE = re.compile(r'^\s*("?[^"\[\]]+"?)\s*->\s*("?[^"\[\]]+"?)\s*\[label="([^"]*)"\];$')
_ATTR = re.compile(r'(\w+)="([^"]*)"')


def _unquote(name):
    name = name.strip()
    return name[1:-1] if name.startswith('"') else name


def _read_dot(text):
    """Minimal reader for the exporter's dialect: vertices, edges, attrs."""
    vertices = {}
    edges = []
    for line in text.splitlines():
        line = line.rstrip()
        if line in ("digraph skeleton {", "}") or not line.strip():
            continue
        edge = _EDGE.match(line)
        if edge:
            edges.append((_unquote(edge.group(1)), _unquote(edge.group(2)), edge.group(3)))
            continue
        vertex = _VERTEX.match(line)
        assert vertex, f"unreadable line: {line!r}"
        vertices[_unquote(vertex.group(1))] = dict(_ATTR.findall(vertex.group(2)))
    return vertices, edges
