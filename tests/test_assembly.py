import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from zzl.linalg import QMatrix, ShapeMismatch
from zzl.monodromy import NotNilpotent
from zzl.extension import (
    ExtensionPresentation,
    ext_isomorphic,
    make_extension,
    total_zigzag,
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


class TestAssemble:
    def test_single_corrected_node_matches_table_row(self):
        d = assemble("C_bulk", [node("p1", 1)])
        assert total_zigzag(d.shadow) == std_corrected("C_bulk", 1, 1)
        assert d.shadow.class_vector == (Fraction(1),)

    def test_two_nodes(self):
        d = assemble("C_bulk", [node("p1", 1), node("p2", 1)])
        assert d.shadow.quot == MultiZigZag.skyscrapers(["p1", "p2"]).total()
        assert d.shadow.quot == std_skyscraper(2)

    def test_empty_node_set(self):
        d = assemble("C_bulk", [])
        shadow = d.shadow
        assert shadow.quot.a_dim == 0
        assert total_zigzag(shadow) == std_ic("C_bulk", 1, 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNode):
            assemble("C_bulk", [node("p1", 1), node("p1", 0)])

    def test_bulk_collision_rejected(self):
        with pytest.raises(DuplicateNode):
            assemble("p1", [node("p1", 1)])

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


    def test_shadow_outside_the_collapsed_regime(self):
        d = assemble("C", [node("p", 1, bulk="C")])
        block = make_extension(std_corrected("C", 1, 1), std_skyscraper(1), QMatrix.from_rows([[1]]))
        report = verify_shadow_compat(dataclasses.replace(d, shadow=block))
        assert [(c.name, c.passed, c.detail) for c in report.failures()] == [
            ("bulk shadow is the minimal-extension zig-zag", False,
             "sub has point dims (1, 1), label 'C'"),
            ("node p: shadow class", False, "normalized class 1 (corrected); stored 0"),
            ("shadow is in the collapsed regime", False,
             "expected a stored scalar class vector over an IC-type sub"),
        ]


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
        blocks = {"p1": GluingBlock(QMatrix.zero(1, 2), QMatrix.zero(2, 1))}
        g = assemble_gluing(blocks, 2, [("p1", (0, 2))])
        assert g.n.is_zero()
        assert verify_gluing(g).passed

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
        assert g.inert_coords() == (2, 3)
        assert verify_gluing(g).passed

    def test_non_nilpotent_node_rejected(self):
        blocks = {"p1": GluingBlock(QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]))}
        with pytest.raises(NotNilpotent):
            assemble_gluing(blocks, 1, [("p1", (0, 1))])

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
