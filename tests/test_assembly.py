import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzl import assembly, extension, linalg
from zzl.lang import parse
from zzl.linalg import QMatrix, ShapeMismatch
from zzl.monodromy import NotNilpotent, nilpotency_index
from zzl.extension import (
    ExtensionPresentation,
    ext_isomorphic,
    make_extension,
)
from zzl.assembly import (
    DuplicateNode,
    FILTRATION_NOTICE,
    GluingBlock,
    GluingQuadruple,
    NodeDatum,
    NonRankOneQuotient,
    assemble,
    assemble_gluing,
    verify_gluing,
    verify_shadow_compat,
)
from zzl.zigzag import MultiZigZag, std_corrected, std_ic, std_skyscraper


def node(label, cls, bulk="C_bulk"):
    return NodeDatum(label, make_extension(std_ic(bulk, 1, 1), std_skyscraper(1), cls))


def corrected_node(label):
    """A node over the bulk C whose local sub has A = B = 1, so it is not the
    minimal extension; the class is 0 (u = 0)."""
    sub = std_corrected("C", 1, 1)
    return NodeDatum(label, make_extension(sub, std_skyscraper(1), QMatrix.zero(1, 1)))


class TestAssemble:
    def test_single_corrected_node_matches_table_row(self):
        d = assemble("C_bulk", [node("p1", 1)])
        assert d.shadow.total == std_corrected("C_bulk", 1, 1)
        assert d.shadow.class_vector == (Fraction(1),)

    def test_two_nodes(self):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 1)])
        assert d.shadow.quot == MultiZigZag.skyscrapers(["p1", "p2"]).total()
        assert d.shadow.quot == std_skyscraper(2)

    def test_empty_node_set(self):
        d = assemble("C_bulk", [])
        shadow = d.shadow
        assert shadow.quot.a_dim == 0
        assert shadow.total == std_ic("C_bulk", 1, 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNode):
            assemble("C_bulk", [node("p1", 1), node("p1", 0)])

    def test_bulk_collision_rejected(self):
        with pytest.raises(DuplicateNode, match="collides"):
            assemble("p1", [node("p1", 1, bulk="p1")])

    def test_nodes_over_two_bulks_rejected(self):
        nodes = [
            NodeDatum("p1", make_extension(std_ic("C", 2, 3), std_skyscraper(1), 1)),
            NodeDatum("p2", make_extension(std_ic("D", 1, 1), std_skyscraper(1), 1)),
        ]
        message = r"disagree on the bulk part: \[\('C', 2, 3\), \('D', 1, 1\)\]"
        with pytest.raises(ValueError, match=message):
            assemble("X", nodes)
        # one label, two boundaries
        other = NodeDatum("p2", make_extension(std_ic("C", 2, 1), std_skyscraper(1), 0))
        with pytest.raises(ValueError, match="disagree on the bulk part"):
            assemble("C", [node("p1", 1, bulk="C"), other])

    def test_nodes_over_another_bulk_rejected(self):
        with pytest.raises(ValueError, match="nodes are over the bulk 'C', not 'X'"):
            assemble("X", [node("p1", 1, bulk="C"), node("p2", 0, bulk="C")])

    def test_node_whose_sub_is_not_the_minimal_extension_rejected(self):
        message = r"nodes \['p2'\]: local sub is not the bulk's minimal extension"
        with pytest.raises(ValueError, match=message):
            assemble("C", [node("p1", 1, bulk="C"), corrected_node("p2")])

    def test_boundary_comes_from_the_nodes(self):
        nodes = [NodeDatum("p1", make_extension(std_ic("C", 2, 3), std_skyscraper(1), 1))]
        d = assemble("C", nodes)
        assert d.shadow.sub == std_ic("C", 2, 3)
        assert verify_shadow_compat(d).passed

    def test_non_rank_one_rejected(self):
        with pytest.raises(NonRankOneQuotient):
            NodeDatum("p1", make_extension(std_ic("C", 1, 1), std_skyscraper(2), [1, 0]))

    def test_permuted_nodes_give_permuted_classes(self):
        nodes = [node("p1", 1), node("p2", 0), node("p3", 1)]
        d = assemble("C_bulk", nodes)
        perm = [nodes[2], nodes[0], nodes[1]]
        dp = assemble("C_bulk", perm)
        assert dp.node_labels == ("p3", "p1", "p2")
        assert dp.shadow.class_vector == (Fraction(1), Fraction(1), Fraction(0))
        # permuting the quotient summands relates the shadows
        assert ext_isomorphic(d.shadow, dp.shadow)


class TestShadowCompat:
    def test_all_class_vectors_up_to_five_nodes(self):
        for r in range(0, 6):
            for classes in itertools.product((0, 1), repeat=r):
                nodes = [node(f"p{k + 1}", c) for k, c in enumerate(classes)]
                d = assemble("C_bulk", nodes)
                report = verify_shadow_compat(d)
                assert report.passed, (classes, report.failures())

    def test_mixed_classes_flag_split_node(self):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 0), node("p3", 1)])
        report = verify_shadow_compat(d)
        assert report.passed
        split_checks = [c for c in report.checks if "p2" in c.name]
        assert split_checks and "split" in split_checks[0].detail

    def test_corrupted_class_fails_with_node_label(self):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 0)])
        bad_shadow = ExtensionPresentation(
            d.shadow.sub, d.shadow.quot, None, (Fraction(1), Fraction(1))
        )
        bad = dataclasses.replace(d, shadow=bad_shadow)
        report = verify_shadow_compat(bad)
        assert not report.passed
        assert any("p2" in c.name for c in report.failures())

    def test_corrupted_quotient_fails(self):
        d = assemble("C_bulk", [node("p1", 1)])
        bad_shadow = ExtensionPresentation(
            d.shadow.sub, std_skyscraper(2), None, (Fraction(1), Fraction(0))
        )
        bad = dataclasses.replace(d, shadow=bad_shadow)
        assert not verify_shadow_compat(bad).passed

    def test_quotient_summands_counted_off_the_shadow(self):
        d = assemble("C_bulk", [node("p1", 1)])
        bad_shadow = ExtensionPresentation(
            d.shadow.sub, std_skyscraper(2), None, (Fraction(1), Fraction(0))
        )
        failures = verify_shadow_compat(dataclasses.replace(d, shadow=bad_shadow)).failures()
        assert [(c.name, c.detail) for c in failures] == [
            ("one quotient summand per node, in node order", "quotient summands: 2"),
            ("shadow quotient equals the direct sum of rank-one point objects",
             "quotient dims (A, B) = (2, 2)"),
        ]

    @pytest.mark.parametrize(
        "sub", [std_ic("D", 1, 1), std_ic("C_bulk", 2, 1), std_ic("C_bulk", 1, 0)]
    )
    def test_shadow_sub_other_than_the_nodes_bulk_fails(self, sub):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 0)])
        bad = dataclasses.replace(d, shadow=dataclasses.replace(d.shadow, sub=sub))
        failures = verify_shadow_compat(bad).failures()
        assert [c.name for c in failures] == ["bulk shadow is the minimal-extension zig-zag"]
        assert "nodes over another bulk part: ['p1', 'p2']" in failures[0].detail

    def test_node_over_another_bulk_fails(self):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 0)])
        bad = dataclasses.replace(d, nodes=(d.nodes[0], node("p2", 0, bulk="D")))
        failures = verify_shadow_compat(bad).failures()
        assert [(c.name, c.detail) for c in failures] == [(
            "bulk shadow is the minimal-extension zig-zag",
            "sub has point dims (0, 0), label 'C_bulk'; nodes over another bulk part: ['p2']",
        )]

    def test_node_whose_sub_is_not_the_shadow_sub_fails(self):
        d = assemble("C", [node("p1", 1, bulk="C"), node("p2", 0, bulk="C")])
        bad = dataclasses.replace(d, nodes=(d.nodes[0], corrected_node("p2")))
        failures = verify_shadow_compat(bad).failures()
        assert [(c.name, c.detail) for c in failures] == [(
            "bulk shadow is the minimal-extension zig-zag",
            "sub has point dims (0, 0), label 'C'; nodes over another bulk part: ['p2']",
        )]

    def test_passing_bulk_detail_unchanged(self):
        d = assemble("C_bulk", [node("p1", 1)])
        check = verify_shadow_compat(d).checks[1]
        assert check == ("bulk shadow is the minimal-extension zig-zag", True,
                         "sub has point dims (0, 0), label 'C_bulk'")

    def test_shadow_outside_the_collapsed_regime(self):
        d = assemble("C", [node("p", 1, bulk="C")])
        block = make_extension(std_corrected("C", 1, 1), std_skyscraper(1), QMatrix.from_rows([[1]]))
        report = verify_shadow_compat(dataclasses.replace(d, shadow=block))
        assert [(c.name, c.passed, c.detail) for c in report.failures()] == [
            ("bulk shadow is the minimal-extension zig-zag", False,
             "sub has point dims (1, 1), label 'C'; nodes over another bulk part: ['p']"),
            ("node p: shadow class", False, "normalized class 1 (corrected); stored 0"),
            ("shadow is in the collapsed regime", False,
             "expected a stored scalar class vector over an IC-type sub"),
        ]


class TestShadowQuotientClosedForm:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 90])
    def test_closed_form_is_the_point_sum_by_definition(self, n):
        labels = [f"p{k}" for k in range(n)]
        d = assemble("C_bulk", [node(label, k % 2) for k, label in enumerate(labels)])
        assert d.shadow.quot == MultiZigZag.skyscrapers(labels).total()
        assert verify_shadow_compat(d).passed

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("extra", [1, -1])
    def test_one_summand_too_many_or_too_few_fails(self, n, extra):
        d = assemble("C_bulk", [node(f"p{k}", 1) for k in range(n)])
        m = n + extra
        quot = MultiZigZag.skyscrapers([f"q{k}" for k in range(m)]).total()
        classes = (d.shadow.class_vector + (Fraction(0),))[:m]
        bad = dataclasses.replace(
            d, shadow=dataclasses.replace(d.shadow, quot=quot, class_vector=classes)
        )
        expected = [
            ("one quotient summand per node, in node order", f"quotient summands: {m}"),
            ("shadow quotient equals the direct sum of rank-one point objects",
             f"quotient dims (A, B) = ({m}, {m})"),
        ]
        if extra < 0:
            expected.append(
                (f"node p{n - 1}: shadow class", "normalized class 1 (corrected); stored None")
            )
        assert [(c.name, c.detail) for c in verify_shadow_compat(bad).failures()] == expected


class TestShadowWork:
    """Deterministic work counts of assembling collapsed nodes over one
    shared minimal extension and rank-one point object."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {}
        for module, name in (
            (linalg, "_eliminate"), (extension, "_total"), (assembly, "extension_class")
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        return counts

    @staticmethod
    def _assemble_and_check(work, n):
        work.update(_eliminate=0, _total=0, extension_class=0)
        ic, sky = std_ic("C", 1, 1), std_skyscraper(1)
        nodes = [NodeDatum(f"p{k}", make_extension(ic, sky, k % 3)) for k in range(n)]
        assert verify_shadow_compat(assemble("C", nodes)).passed
        return dict(work)

    def test_work_does_not_grow_with_the_node_count(self, work):
        few, many = self._assemble_and_check(work, 5), self._assemble_and_check(work, 60)
        # the shared factors are eliminated once, and so is each shadow map;
        # no node builds its total and each node's class is computed once
        assert few["_eliminate"] == many["_eliminate"]
        assert few["_total"] == many["_total"] == 0
        assert (few["extension_class"], many["extension_class"]) == (5, 60)


ONE_NODE_BLOCKS = {"p1": GluingBlock(QMatrix.from_rows([[1, 0]]), QMatrix.from_columns([[0, 1]]))}


class TestGluing:
    def test_one_node_quadruple(self):
        g = assemble_gluing(ONE_NODE_BLOCKS, 2, [("p1", (0, 2))])
        assert g.n == QMatrix.from_rows([[0, 0], [1, 0]])
        assert (g.n * g.n).is_zero()
        report = verify_gluing(g)
        assert report.passed
        assert FILTRATION_NOTICE in report.notices

    def test_zero_maps(self):
        # N = v*u = 0 has rank 0, so the node block is not rank one
        blocks = {"p1": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1))}
        g = assemble_gluing(blocks, 2, [("p1", (0, 2))])
        assert g.n.is_zero()
        assert [(c.name, c.detail) for c in verify_gluing(g).failures()] == [
            ("node p1: rank-one block (ODP)", "u row or v column is zero, so v*u has rank 0")
        ]

    def test_two_nodes_block_diagonal(self):
        blocks = {
            "p1": GluingBlock(QMatrix.from_rows([[1, 0]]), QMatrix.from_columns([[0, 1]])),
            "p2": GluingBlock(QMatrix.from_rows([[1, 0]]), QMatrix.from_columns([[0, 1]])),
        }
        g = assemble_gluing(blocks, 4, [("p1", (0, 2)), ("p2", (2, 4))])
        expected = QMatrix.from_rows(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
        )
        assert g.n == expected
        assert (g.n * g.n).is_zero()
        assert verify_gluing(g).passed

    def test_inert_remainder_allowed(self):
        g = assemble_gluing(ONE_NODE_BLOCKS, 4, [("p1", (0, 2))])
        assert verify_gluing(g).passed

    def test_non_nilpotent_node_rejected(self):
        blocks = {"p1": GluingBlock(QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]))}
        with pytest.raises(NotNilpotent):
            assemble_gluing(blocks, 1, [("p1", (0, 1))])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def test_node_nilpotency_is_read_on_the_small_side(self, r, width, data):
        # (vu)^(j+1) = v (uv)^j u, so the width x width v*u and the r x r
        # u*v are nilpotent together
        def entries(count):
            return data.draw(st.lists(st.integers(-1, 1), min_size=count, max_size=count))

        u, v = QMatrix(r, width, entries(r * width)), QMatrix(width, r, entries(width * r))
        nilpotent = nilpotency_index(v * u) is not None
        assert (nilpotency_index(u * v) is not None) == nilpotent
        blocks = {"p1": GluingBlock(u, v)}
        if nilpotent:
            assert assemble_gluing(blocks, width, [("p1", (0, width))]).n == v * u
        else:
            with pytest.raises(NotNilpotent, match=r"^node p1: v\*u is not nilpotent$"):
                assemble_gluing(blocks, width, [("p1", (0, width))])

    def test_overlapping_ranges_rejected(self):
        blocks = {
            "p1": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1)),
            "p2": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1)),
        }
        with pytest.raises(ShapeMismatch):
            assemble_gluing(blocks, 3, [("p1", (0, 2)), ("p2", (1, 3))])

    @pytest.mark.parametrize("blocks, psi_dim, ranges, error, message", [
        (ONE_NODE_BLOCKS, 4, [("p1", (0, 2)), ("p1", (2, 4))], DuplicateNode, "distinct"),
        (ONE_NODE_BLOCKS, 2, [("p2", (0, 2))], ShapeMismatch, "name the same nodes"),
        (ONE_NODE_BLOCKS, 2, [("p1", (1, 3))], ShapeMismatch, r"node p1: range \(1, 3\) out of bounds"),
        (ONE_NODE_BLOCKS, 3, [("p1", (0, 3))], ShapeMismatch, "node p1: block width 2/2, range width 3"),
        ({"p1": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 2))}, 2, [("p1", (0, 2))],
         ShapeMismatch, "node p1: u rows must equal v cols"),
    ])
    def test_malformed_blocks_rejected(self, blocks, psi_dim, ranges, error, message):
        with pytest.raises(error, match=message):
            assemble_gluing(blocks, psi_dim, ranges)

    @pytest.mark.parametrize("change, message", [
        ({"u": QMatrix.zero(2, 2)}, "u must be 1x2"),
        ({"v": QMatrix.zero(2, 2)}, "v must be 2x1"),
        ({"n": QMatrix.zero(2, 1)}, "n must be square of size psi"),
        ({"decomposition": (("p1", (0, 1)), ("p2", (1, 2)))}, "one rank block per decomposition entry"),
    ])
    def test_quadruple_shapes_checked(self, change, message):
        g = assemble_gluing(ONE_NODE_BLOCKS, 2, [("p1", (0, 2))])
        with pytest.raises(ShapeMismatch, match=message):
            dataclasses.replace(g, **change)

    def test_identity_gluing_fails_verification(self):
        g = GluingQuadruple(
            1, (("p1", (0, 1)),), (1,),
            QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]),
        )
        report = verify_gluing(g)
        assert not report.passed
        assert any("nilpotent" in c.name for c in report.failures())

    def test_rank_two_block_fails_odp_check(self):
        u = QMatrix.from_rows([[1, 0], [0, 0]])
        v = QMatrix.from_rows([[0, 0], [1, 0]])
        g = GluingQuadruple(2, (("p1", (0, 2)),), (2,), u, v, v * u)
        report = verify_gluing(g)
        assert not report.passed
        assert any("rank-one" in c.name for c in report.failures())

    def test_zero_block_over_an_empty_range_fails_odp_check(self):
        # a zero node that owns no psi coordinate is rank one in name only,
        # and says so apart from zero maps over a range (test_zero_maps)
        u = QMatrix.from_rows([[1, 0], [0, 0]])
        v = QMatrix.from_rows([[0, 0], [1, 0]])
        g = GluingQuadruple(2, (("p1", (0, 2)), ("p2", (0, 0))), (1, 1), u, v, v * u)
        assert [(c.name, c.detail) for c in verify_gluing(g).failures()] == [
            ("node p2: rank-one block (ODP)", "u row and v column are zero over an empty psi range")
        ]
        zero = assemble_gluing(
            {"p1": GluingBlock(QMatrix.zero(1, 0), QMatrix.zero(0, 1))}, 2, [("p1", (1, 1))]
        )
        (check,) = [c for c in verify_gluing(zero).checks if "rank-one" in c.name]
        assert not check.passed

    def test_expected_n_checked(self):
        g = assemble_gluing(ONE_NODE_BLOCKS, 2, [("p1", (0, 2))])
        with_expected = dataclasses.replace(g, expected_n=g.n)
        assert verify_gluing(with_expected).passed
        with_wrong = dataclasses.replace(g, expected_n=QMatrix.zero(2, 2))
        assert not verify_gluing(with_wrong).passed

    def test_block_support_violation_detected(self):
        g = assemble_gluing(ONE_NODE_BLOCKS, 4, [("p1", (0, 2))])
        bad_u = QMatrix.from_rows([[1, 0, 1, 0]])
        bad = dataclasses.replace(g, u=bad_u, n=g.v * bad_u)
        report = verify_gluing(bad)
        assert any("respect" in c.name for c in report.failures())


class TestOrthogonalBlocks:
    def test_rank_one_blocks_with_uv_zero_square_to_zero(self):
        # whenever u_k * v_k = 0 per node, (v u)^2 vanishes identically
        rng = random.Random(99)
        for _ in range(20):
            r = rng.randint(1, 3)
            blocks = {}
            ranges = []
            offset = 0
            for k in range(r):
                width = rng.randint(2, 3)
                while True:
                    u_row = [Fraction(rng.randint(-3, 3)) for _ in range(width)]
                    if any(u_row):
                        break
                # v orthogonal to u: swap two coordinates with a sign
                v_col = [Fraction(0)] * width
                nz = next(i for i, x in enumerate(u_row) if x)
                other = (nz + 1) % width
                v_col[other] = u_row[nz]
                v_col[nz] = -u_row[other]
                blocks[f"p{k}"] = GluingBlock(
                    QMatrix.from_rows([u_row]), QMatrix.from_columns([v_col])
                )
                ranges.append((f"p{k}", (offset, offset + width)))
                offset += width
            g = assemble_gluing(blocks, offset, ranges)
            assert (g.n * g.n).is_zero()
            assert verify_gluing(g).passed


class TestMutationSuite:
    def _mutants(self, g):
        for i in range(g.u.rows):
            for j in range(g.u.cols):
                entries = list(g.u.entries)
                entries[i * g.u.cols + j] += 1
                yield dataclasses.replace(g, u=QMatrix(g.u.rows, g.u.cols, tuple(entries)))
        for i in range(g.v.rows):
            for j in range(g.v.cols):
                entries = list(g.v.entries)
                entries[i * g.v.cols + j] += 1
                yield dataclasses.replace(g, v=QMatrix(g.v.rows, g.v.cols, tuple(entries)))
        for i in range(g.n.rows):
            for j in range(g.n.cols):
                entries = list(g.n.entries)
                entries[i * g.n.cols + j] += 1
                yield dataclasses.replace(g, n=QMatrix(g.n.rows, g.n.cols, tuple(entries)))

    def test_every_single_entry_mutation_is_killed(self):
        blocks = {
            "p1": GluingBlock(QMatrix.from_rows([[1, 2]]), QMatrix.from_columns([[-2, 1]])),
            "p2": GluingBlock(QMatrix.from_rows([[0, 1]]), QMatrix.from_columns([[1, 0]])),
            "p3": GluingBlock(QMatrix.from_rows([[3, 1]]), QMatrix.from_columns([[-1, 3]])),
        }
        g = assemble_gluing(
            blocks, 6, [("p1", (0, 2)), ("p2", (2, 4)), ("p3", (4, 6))]
        )
        assert verify_gluing(g).passed
        total = 0
        for mutant in self._mutants(g):
            total += 1
            assert not verify_gluing(mutant).passed
        assert total >= 50


# -- stacking placement against the dense placement ----------------------


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _gluings(draw):
    """Blocks, psi and a decomposition whose ranges come out of order, with
    inert gaps between them and zero-width ranges.  Each u_k reads a set of
    coordinates its v_k never writes, so u_k*v_k = 0 and v_k*u_k is
    nilpotent."""
    widths = draw(st.lists(st.integers(0, 3), max_size=4))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(widths) + 1, max_size=len(widths) + 1))
    ranges, position = [], gaps[0]
    for k, width in enumerate(widths):
        ranges.append((f"p{k}", (position, position + width)))
        position += width + gaps[k + 1]
    blocks = {}
    for label, (start, stop) in ranges:
        width, r = stop - start, draw(st.integers(0, 2))
        reads = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        u = [draw(_RATIONALS) if reads[j] else 0 for _ in range(r) for j in range(width)]
        v = [0 if reads[i] else draw(_RATIONALS) for i in range(width) for _ in range(r)]
        blocks[label] = GluingBlock(QMatrix(r, width, u), QMatrix(width, r, v))
    return blocks, position, draw(st.permutations(ranges))


def _dense_placement(blocks, psi_dim, ranges):
    """The global u and v written entry by entry into dense grids."""
    m2_total = sum(blocks[label].u.rows for label, _ in ranges)
    u_rows = [[Fraction(0)] * psi_dim for _ in range(m2_total)]
    v_rows = [[Fraction(0)] * m2_total for _ in range(psi_dim)]
    row_offset = 0
    for label, (start, stop) in ranges:
        u_k, v_k = blocks[label]
        for i in range(u_k.rows):
            for j in range(stop - start):
                u_rows[row_offset + i][start + j] = u_k.entry(i, j)
                v_rows[start + j][row_offset + i] = v_k.entry(j, i)
        row_offset += u_k.rows
    return QMatrix.from_rows(u_rows, cols=psi_dim), QMatrix.from_rows(v_rows, cols=m2_total)


def _dense_support_detail(g):
    """The support detail of a scan over every coordinate: per node, its u
    rows, then its v columns; the last offender found is named."""
    offender = ""
    row_offset = 0
    for (label, (start, stop)), r_k in zip(g.decomposition, g.m2_dims):
        for i in range(row_offset, row_offset + r_k):
            for j in range(g.psi_dim):
                if not (start <= j < stop) and g.u.entry(i, j):
                    offender = f"u row for node {label} touches psi coordinate {j}"
        for j in range(row_offset, row_offset + r_k):
            for i in range(g.psi_dim):
                if not (start <= i < stop) and g.v.entry(i, j):
                    offender = f"v column for node {label} touches psi coordinate {i}"
        row_offset += r_k
    return offender or "all block supports inside their ranges"


def _support_detail(g):
    name = "u and v respect the node decomposition"
    (check,) = [c for c in verify_gluing(g).checks if c.name == name]
    return check.detail


class TestStackedPlacement:
    @settings(max_examples=80, deadline=None)
    @given(_gluings())
    def test_stacking_equals_the_dense_placement(self, gluing):
        blocks, psi_dim, ranges = gluing
        g = assemble_gluing(blocks, psi_dim, ranges)
        assert (g.u, g.v) == _dense_placement(blocks, psi_dim, ranges)
        assert g.m2_dims == tuple(blocks[label].u.rows for label, _ in ranges)
        assert g.n == g.v * g.u
        # only the rank-one (ODP) checks may fail: blocks here have rank 0, 1 or 2
        assert all("rank-one" in c.name for c in verify_gluing(g).failures())

    @settings(max_examples=25, deadline=None)
    @given(_gluings())
    def test_support_detail_of_single_entry_mutants(self, gluing):
        g = assemble_gluing(*gluing)
        for field in ("u", "v"):
            m = getattr(g, field)
            for k in range(m.rows * m.cols):
                entries = list(m.entries)
                entries[k] += 1
                mutant = dataclasses.replace(g, **{field: QMatrix(m.rows, m.cols, entries)})
                assert _support_detail(mutant) == _dense_support_detail(mutant)

    def test_support_detail_names_the_last_offender(self):
        g = assemble_gluing(ONE_NODE_BLOCKS, 4, [("p1", (1, 3))])
        bad = dataclasses.replace(
            g, u=QMatrix.from_rows([[1, 1, 0, 1]]), v=QMatrix.from_columns([[0, 0, 1, 1]])
        )
        assert _support_detail(bad) == "v column for node p1 touches psi coordinate 3"
        assert _dense_support_detail(bad) == _support_detail(bad)

    @pytest.mark.parametrize("rng", [(-2, 2), (-2, 4), (3, 1), (2, 9), (-3, -1), (0, 0), (4, 4)])
    def test_support_detail_over_ranges_out_of_bounds(self, rng):
        # the scan slices each vector outside the range; a range that starts
        # or stops below 0, past psi or before it starts is read as the
        # coordinates k with not start <= k < stop, as the dense scan reads it
        g = assemble_gluing(ONE_NODE_BLOCKS, 4, [("p1", (1, 3))])
        bad = dataclasses.replace(
            g, u=QMatrix.from_rows([[1, 1, 0, 1]]), v=QMatrix.from_columns([[2, 0, 1, 0]]),
            decomposition=(("p1", rng),),
        )
        assert _support_detail(bad) == _dense_support_detail(bad)

    def test_range_messages_shared_by_constructor_and_report(self):
        blocks = {
            "p1": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1)),
            "p2": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1)),
        }
        with pytest.raises(ShapeMismatch, match="node p2: range overlaps another node"):
            assemble_gluing(blocks, 3, [("p1", (0, 2)), ("p2", (1, 3))])
        g = assemble_gluing(blocks, 4, [("p1", (0, 2)), ("p2", (2, 4))])
        for ranges in ((("p1", (0, 2)), ("p2", (1, 3))), (("p1", (0, 2)), ("p2", (3, 5)))):
            check = verify_gluing(dataclasses.replace(g, decomposition=ranges)).checks[0]
            assert check == ("decomposition ranges disjoint and in bounds", False,
                             f"psi = 4, ranges {[r for _, r in ranges]}")


GLUING_DOC = parse(
    "gluing g { psi = 4, u = [1/2,0,0,0;0,0,3,0;0,0,0,0], v = [0,0,0;2,0,0;0,0,0;0,1,0] }\n"
)


def test_gluing_layer_reads_numerators_only(monkeypatch):
    blocks = {
        "p1": GluingBlock(QMatrix.from_rows([[1, 2]]), QMatrix.from_columns([[-2, 1]])),
        "p2": GluingBlock(
            QMatrix.from_rows([[Fraction(1, 3), 0]]), QMatrix.from_columns([[0, 5]])
        ),
    }
    calls = {"entry": 0, "__init__": 0}

    def counting(name):
        original = getattr(QMatrix, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(QMatrix, name, wrapper)

    counting("entry")
    counting("__init__")
    g = assemble_gluing(blocks, 5, [("p2", (3, 5)), ("p1", (0, 2))])
    assert verify_gluing(g).passed
    built = GLUING_DOC.build_gluing("g")
    assert built.decomposition == (("block_1", (0, 2)), ("block_2", (2, 4)), ("block_3", (0, 0)))
    verify_gluing(built)
    assert calls == {"entry": 0, "__init__": 0}
