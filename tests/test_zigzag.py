import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import int_matrices, random_valid_zigzag
from zzl import zigzag
from zzl.extension import make_extension
from zzl.intertwine import BlockSystem
from zzl.lang import parse
from zzl.linalg import QMatrix, ShapeMismatch, rank
from zzl.zigzag import (
    IsoWitness,
    MultiZigZag,
    NodePart,
    SizeBound,
    ZeroRank,
    ZigZag,
    _add_intertwining,
    _intertwiner_shapes,
    compressed_shape,
    direct_sum,
    dualize,
    is_isomorphic,
    iso_witness,
    std_corrected,
    std_ic,
    std_skyscraper,
    validate,
    verify_witness,
)

LABEL = "Q_U[3]"


def _conjugated_pair_of_dim_seven() -> tuple[ZigZag, ZigZag]:
    """E^- = A = Q^7 with alpha = 1, and its copy moved by a unipotent g on A."""
    n = 7
    g = QMatrix.from_rows([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
    z1 = ZigZag(LABEL, n, 0, n, 0, QMatrix.identity(n), QMatrix.zero(0, n), QMatrix.zero(0, 0))
    return z1, dataclasses.replace(z1, alpha=g)


class TestValidate:
    def test_ic_is_valid(self):
        assert validate(std_ic(LABEL, 1, 1)) == []

    def test_skyscraper_is_valid(self):
        assert validate(std_skyscraper(1)) == []

    def test_exactness_failure_at_a(self):
        z = ZigZag(
            LABEL, 1, 1, 1, 1,
            QMatrix.zero(1, 1), QMatrix.zero(1, 1), QMatrix.zero(1, 1),
        )
        issues = validate(z)
        assert [i.position for i in issues] == ["A", "B"]
        at_a = issues[0]
        assert at_a.image_dim == 0 and at_a.kernel_dim == 1

    def test_shape_checked_at_construction(self):
        with pytest.raises(ShapeMismatch):
            ZigZag(LABEL, 1, 1, 1, 1, QMatrix.zero(2, 1), QMatrix.zero(1, 1), QMatrix.zero(1, 1))

    def test_zero_label_forces_zero_boundary(self):
        with pytest.raises(ShapeMismatch):
            ZigZag("0", 1, 0, 0, 0, QMatrix.zero(0, 1), QMatrix.zero(0, 0), QMatrix.zero(0, 0))

    def test_work_gate_validation_multiplies_no_matrices(self, monkeypatch):
        # the zig-zags of the corpus-style fixtures and of the demos, their
        # extension totals, seeded conjugated ones and one that is not
        # exact: g*f = 0 is decided without building a product
        fixtures = Path(__file__).parent / "fixtures"
        zigzags = []
        for name in ("three_nodes.zzl", "table1.zzl"):
            doc = parse((fixtures / name).read_text())
            zigzags += [item.zigzag for item in doc.zigzags.values()]
            zigzags += [doc.build_extension(e).total for e in doc.extensions]
        ic, sky, corrected = std_ic(LABEL, 1, 1), std_skyscraper(1), std_corrected(LABEL, 1, 1)
        zigzags += [ic, sky, corrected, std_ic("C_bulk", 1, 1), dualize(corrected), direct_sum(ic, sky)]
        zigzags += [make_extension(ic, sky, c).total for c in (0, 1, 5, Fraction(-1, 3))]
        rng = random.Random(7)
        zigzags += [random_valid_zigzag(rng, max_dim=4) for _ in range(20)]
        broken = dataclasses.replace(corrected, alpha=QMatrix.identity(1))

        def refuse(self, other):
            raise AssertionError("QMatrix.__mul__ called during validation")

        monkeypatch.setattr(QMatrix, "__mul__", refuse)
        assert [validate(z) for z in zigzags] == [[]] * len(zigzags)
        assert [i.position for i in validate(broken)] == ["A"]


class TestConstructors:
    def test_ic_table_row(self):
        ic = std_ic(LABEL, 1, 1)
        assert (ic.a_dim, ic.b_dim) == (0, 0)
        assert ic.alpha == QMatrix.zero(0, 1)
        assert ic.gamma == QMatrix.zero(1, 0)

    def test_ic_degenerate_boundary(self):
        assert validate(std_ic(LABEL, 0, 0)) == []

    def test_skyscraper_table_row(self):
        sky = std_skyscraper(1)
        assert sky.open_label == "0"
        assert sky.beta == QMatrix.identity(1)

    def test_skyscraper_scales(self):
        triple = direct_sum(direct_sum(std_skyscraper(1), std_skyscraper(1)), std_skyscraper(1))
        assert triple == std_skyscraper(3)
        for r in range(1, 9):
            assert validate(std_skyscraper(r)) == []

    def test_skyscraper_zero_rank(self):
        with pytest.raises(ZeroRank):
            std_skyscraper(0)

    def test_corrected_table_row(self):
        cor = std_corrected(LABEL, 1, 1)
        assert validate(cor) == []
        assert cor.beta == QMatrix.identity(1)
        assert compressed_shape(cor) == compressed_shape(
            direct_sum(std_ic(LABEL, 1, 1), std_skyscraper(1))
        )

    def test_constructor_outputs_always_valid(self):
        for z in (std_ic(LABEL, 2, 1), std_skyscraper(4), std_corrected(LABEL, 0, 2)):
            assert validate(z) == []


class TestDirectSum:
    def test_ic_plus_skyscraper(self):
        s = direct_sum(std_ic(LABEL, 1, 1), std_skyscraper(1))
        assert s == std_corrected(LABEL, 1, 1)

    def test_zero_object_is_identity(self):
        zero = ZigZag("0", 0, 0, 0, 0, QMatrix.zero(0, 0), QMatrix.zero(0, 0), QMatrix.zero(0, 0))
        z = random_valid_zigzag(random.Random(1))
        assert direct_sum(z, zero) == z

    def test_sum_of_valid_is_valid(self):
        rng = random.Random(2)
        for _ in range(10):
            z1 = random_valid_zigzag(rng)
            z2 = random_valid_zigzag(rng)
            assert validate(direct_sum(z1, z2)) == []


class TestDuality:
    def test_fixes_standard_objects(self):
        for z in (std_ic(LABEL, 1, 1), std_skyscraper(1), std_corrected(LABEL, 1, 1)):
            assert is_isomorphic(dualize(z), z)

    def test_involution_on_the_nose(self):
        rng = random.Random(3)
        for _ in range(20):
            z = random_valid_zigzag(rng)
            assert dualize(dualize(z)) == z

    def test_preserves_validity(self):
        rng = random.Random(4)
        for _ in range(20):
            assert validate(dualize(random_valid_zigzag(rng))) == []

    def test_swaps_boundary_and_point_dims(self):
        z = std_ic(LABEL, 2, 1)
        d = dualize(z)
        assert (d.e_minus, d.e_zero) == (1, 2)

    def test_distributes_over_sums(self):
        rng = random.Random(5)
        for _ in range(10):
            z1 = random_valid_zigzag(rng)
            z2 = random_valid_zigzag(rng)
            assert dualize(direct_sum(z1, z2)) == direct_sum(dualize(z1), dualize(z2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_self_dual_is_isomorphism_with_the_dual(self, seed, data):
        # exactness ties the profile's entries together (the composites
        # vanish, and A - B = rank alpha - rank gamma), so inexact zig-zags
        # are drawn too, and a sum with its own dual is self-dual
        e_minus, a, b, e_zero = (data.draw(st.integers(0, 2)) for _ in range(4))
        alpha, beta, gamma = (
            data.draw(int_matrices(rows, cols))
            for rows, cols in ((a, e_minus), (b, a), (e_zero, b))
        )
        inexact = ZigZag(LABEL, e_minus, e_zero, a, b, alpha, beta, gamma)
        valid = random_valid_zigzag(random.Random(seed))
        for z in (valid, inexact, direct_sum(inexact, dualize(inexact))):
            assert zigzag.self_dual(z) == is_isomorphic(dualize(z), z)

    @pytest.mark.parametrize("z", [
        # intervals [1,3] + [2,2] + [3,4]: only rank beta*alpha != rank gamma*beta
        ZigZag(
            LABEL, 1, 1, 2, 2, QMatrix.from_rows([[1], [0]]),
            QMatrix.from_rows([[1, 0], [0, 0]]), QMatrix.from_rows([[0, 1]]),
        ),
        # [1,2] + [3,3] + [4,4]: only rank alpha != rank gamma
        ZigZag(LABEL, 1, 1, 1, 1, QMatrix.identity(1), QMatrix.zero(1, 1), QMatrix.zero(1, 1)),
        # [2,2]: only A != B
        ZigZag(LABEL, 0, 0, 1, 0, QMatrix.zero(1, 0), QMatrix.zero(0, 1), QMatrix.zero(0, 0)),
    ], ids=["composites", "alpha-gamma", "a-b"])
    def test_one_asymmetric_entry_is_not_self_dual(self, z):
        assert not zigzag.self_dual(z) and not is_isomorphic(dualize(z), z)


class TestIsomorphism:
    def test_self_iso_identity_witness(self):
        z = std_corrected(LABEL, 1, 1)
        w = iso_witness(z, z)
        assert w is not None
        assert w.a == QMatrix.identity(1)

    def test_equal_zigzags_need_no_rank_profile(self, monkeypatch):
        profiles = []
        original = zigzag._rank_profile
        monkeypatch.setattr(zigzag, "_rank_profile", lambda z: profiles.append(z) or original(z))
        z = std_corrected(LABEL, 1, 1)
        assert iso_witness(z, z) == IsoWitness(*map(QMatrix.identity, z.dims()))
        assert profiles == []
        assert iso_witness(z, z, strict=True) == IsoWitness(*map(QMatrix.identity, z.dims()))

    def test_strict_mode_with_different_dims(self):
        assert iso_witness(std_ic(LABEL, 1, 1), std_ic(LABEL, 2, 1), strict=True) is None

    def test_corrected_matches_split_sum(self):
        # the compressed zig-zag cannot see the class datum
        assert is_isomorphic(
            std_corrected(LABEL, 1, 1),
            direct_sum(std_ic(LABEL, 1, 1), std_skyscraper(1)),
        )

    def test_scaled_skyscraper(self):
        z1 = std_skyscraper(1)
        z2 = ZigZag("0", 0, 0, 1, 1, QMatrix.zero(1, 0), 2 * QMatrix.identity(1), QMatrix.zero(0, 1))
        w = iso_witness(z1, z2)
        assert w is not None and verify_witness(z1, z2, w)

    def test_label_must_match(self):
        assert not is_isomorphic(std_ic("Q_U[3]", 1, 1), std_ic("Q_V[3]", 1, 1))

    def test_different_shapes_rejected(self):
        assert not is_isomorphic(std_skyscraper(1), std_skyscraper(2))

    def test_rank_profile_rejection(self):
        valid = std_corrected(LABEL, 1, 1)
        other = direct_sum(std_ic(LABEL, 1, 1), std_skyscraper(1))
        tweaked = ZigZag(
            LABEL, 1, 1, 1, 1,
            QMatrix.from_rows([[1]]), QMatrix.zero(1, 1), QMatrix.from_rows([[1]]),
        )
        assert validate(tweaked) == []
        assert not is_isomorphic(tweaked, other)
        assert is_isomorphic(valid, other)

    def test_equivalence_relation(self):
        rng = random.Random(6)
        zs = [random_valid_zigzag(rng, max_dim=3) for _ in range(6)]
        for z in zs:
            assert is_isomorphic(z, z)
        for z1 in zs:
            for z2 in zs:
                assert is_isomorphic(z1, z2) == is_isomorphic(z2, z1)

    def test_isomorphic_implies_equal_shapes(self):
        rng = random.Random(7)
        for _ in range(10):
            z1 = random_valid_zigzag(rng, max_dim=3)
            z2 = random_valid_zigzag(rng, max_dim=3)
            if is_isomorphic(z1, z2):
                assert compressed_shape(z1) == compressed_shape(z2)

    def test_size_bound(self):
        # conjugated, unequal and with equal rank profiles: only a search decides
        z1, z2 = _conjugated_pair_of_dim_seven()
        assert z1 != z2
        with pytest.raises(SizeBound, match="dims <= 6"):
            is_isomorphic(z1, z2)

    def test_size_bound_spares_decisions_without_search(self):
        assert is_isomorphic(std_skyscraper(7), std_skyscraper(7))
        assert not is_isomorphic(std_skyscraper(7), std_skyscraper(8))
        assert not is_isomorphic(std_ic(LABEL, 7, 7), std_ic("other", 7, 7))

    def test_strict_mode(self):
        z = std_corrected(LABEL, 1, 1)
        assert is_isomorphic(z, z, strict=True)
        # a boundary-twisted copy: alpha scaled; strict mode must move A instead
        twisted = ZigZag(
            LABEL, 1, 1, 1, 1,
            QMatrix.zero(1, 1), 3 * QMatrix.identity(1), QMatrix.zero(1, 1),
        )
        assert is_isomorphic(z, twisted, strict=True)

    def test_strict_mode_distinguishes_gamma_image(self):
        # gamma = id vs gamma = 2*id over a pinned boundary is still isomorphic
        # (scale b); gamma = 0 is not
        z1 = ZigZag(LABEL, 0, 1, 0, 1, QMatrix.zero(0, 0), QMatrix.zero(1, 0), QMatrix.identity(1))
        z2 = ZigZag(LABEL, 0, 1, 0, 1, QMatrix.zero(0, 0), QMatrix.zero(1, 0), 2 * QMatrix.identity(1))
        z3 = ZigZag(LABEL, 0, 1, 0, 1, QMatrix.zero(0, 0), QMatrix.zero(1, 0), QMatrix.zero(1, 1))
        assert validate(z1) == [] and validate(z2) == []
        assert is_isomorphic(z1, z2, strict=True)
        assert not is_isomorphic(z1, z3, strict=True)

    def test_random_witnesses_verify(self):
        rng = random.Random(8)
        for _ in range(10):
            z = random_valid_zigzag(rng, max_dim=3)
            d = dualize(dualize(z))
            w = iso_witness(z, d)
            assert w is not None and verify_witness(z, d, w)


@st.composite
def _matrices(draw, rows, cols):
    entries = draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
    return QMatrix(rows, cols, tuple(Fraction(x) for x in entries))


@st.composite
def _invertibles(draw, n):
    """A drawn n x n matrix plus the first k*I that makes it invertible; one
    of k = 0..n works, since det(m + k*I) has at most n roots in k."""
    m = draw(_matrices(n, n))
    return next(
        m + k * QMatrix.identity(n) for k in range(n + 1)
        if rank(m + k * QMatrix.identity(n)) == n
    )


def _satisfies_rows(system: BlockSystem, witness: IsoWitness, names) -> bool:
    blocks = dict(zip(names, witness))
    x = [e for name in system.variables for e in blocks[name].entries]
    return all(
        sum(r * v for r, v in zip(row, x)) == rhs
        for row, rhs in zip(system._rows, system._rhs)
    )


def _relations_hold(z1: ZigZag, z2: ZigZag, w: IsoWitness) -> bool:
    return (
        w.a * z1.alpha == z2.alpha * w.p
        and w.b * z1.beta == z2.beta * w.a
        and w.q * z1.gamma == z2.gamma * w.b
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.tuples(*[st.integers(0, 3)] * 4), st.booleans())
def test_intertwining_rows_match_the_witness_relations(data, dims, pinned):
    e_minus, a_dim, b_dim, e_zero = dims
    z1 = ZigZag(
        LABEL, e_minus, e_zero, a_dim, b_dim,
        data.draw(_matrices(a_dim, e_minus)),
        data.draw(_matrices(b_dim, a_dim)),
        data.draw(_matrices(e_zero, b_dim)),
    )
    a, b = data.draw(_invertibles(a_dim)), data.draw(_invertibles(b_dim))
    if pinned:
        p, q = QMatrix.identity(e_minus), QMatrix.identity(e_zero)
        names = (None, "a", "b", None)
    else:
        p, q = data.draw(_invertibles(e_minus)), data.draw(_invertibles(e_zero))
        names = ("p", "a", "b", "q")
    z2 = ZigZag(
        LABEL, e_minus, e_zero, a_dim, b_dim,
        a * z1.alpha * p.inverse(), b * z1.beta * a.inverse(), q * z1.gamma * b.inverse(),
    )
    system = BlockSystem(_intertwiner_shapes(z1, z2, names))
    _add_intertwining(system, z1, z2, names)
    witness = IsoWitness(p, a, b, q)
    assert len(system._rows) == a_dim * e_minus + b_dim * a_dim + e_zero * b_dim
    assert verify_witness(z1, z2, witness)
    assert _satisfies_rows(system, witness, names)

    # one entry of a or b changed: the rows hold exactly when the relations do
    targets = [name for name, n in (("a", a_dim), ("b", b_dim)) if n]
    if not targets:
        return
    target = data.draw(st.sampled_from(targets))
    block = getattr(witness, target)
    pos = data.draw(st.integers(0, len(block.entries) - 1))
    delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
    entries = list(block.entries)
    entries[pos] += delta
    changed = witness._replace(**{target: QMatrix(block.rows, block.cols, tuple(entries))})
    assert _satisfies_rows(system, changed, names) == _relations_hold(z1, z2, changed)


class TestCompressedShape:
    def test_corrected_row(self):
        s = compressed_shape(std_corrected(LABEL, 1, 1))
        assert (s.e_minus, s.e_zero, s.a_dim, s.b_dim) == (1, 1, 1, 1)
        assert (s.rank_alpha, s.rank_beta, s.rank_gamma) == (0, 1, 0)

    def test_ic_row(self):
        s = compressed_shape(std_ic(LABEL, 1, 1))
        assert (s.e_minus, s.e_zero, s.a_dim, s.b_dim) == (1, 1, 0, 0)
        assert (s.rank_alpha, s.rank_beta, s.rank_gamma) == (0, 0, 0)

    def test_shape_of_sum_is_sum_of_shapes(self):
        rng = random.Random(9)
        for _ in range(10):
            z1 = random_valid_zigzag(rng)
            z2 = random_valid_zigzag(rng)
            assert compressed_shape(direct_sum(z1, z2)) == compressed_shape(z1) + compressed_shape(z2)


class TestMultiZigZag:
    def test_skyscraper_sum(self):
        mz = MultiZigZag.skyscrapers(["p1", "p2"])
        assert mz.total() == std_skyscraper(2)
        assert validate(mz.total()) == []

    def test_labels_distinct(self):
        with pytest.raises(ShapeMismatch):
            MultiZigZag.skyscrapers(["p1", "p1"])

    @pytest.mark.parametrize("field, bad, message", [
        ("alpha", QMatrix.zero(1, 1), "node p1: alpha of wrong shape"),
        ("beta", QMatrix.zero(2, 1), "node p1: beta of wrong shape"),
        ("gamma", QMatrix.zero(1, 1), "node p1: gamma of wrong shape"),
    ])
    def test_node_shapes_checked(self, field, bad, message):
        part = dataclasses.replace(MultiZigZag.skyscrapers(["p1"]).nodes[0], **{field: bad})
        with pytest.raises(ShapeMismatch, match=message):
            MultiZigZag("0", 0, 0, (part,))

    def test_zero_open_part_forces_zero_boundary(self):
        part = NodePart("p1", 0, 0, QMatrix.zero(0, 1), QMatrix.zero(0, 0), QMatrix.zero(0, 0))
        with pytest.raises(ShapeMismatch, match="zero open part"):
            MultiZigZag("0", 1, 0, (part,))

    def test_empty_node_set(self):
        mz = MultiZigZag.skyscrapers([])
        total = mz.total()
        assert total.a_dim == 0 and total.open_label == "0"
