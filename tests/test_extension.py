import ast
import dataclasses
import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    conjugate_block_presentation,
    int_matrices,
    random_block_presentation,
    random_invertible,
)
from zzl import extension, intertwine, linalg, zigzag
from zzl.linalg import PostconditionError, QMatrix, ShapeMismatch, block_assemble
from zzl.extension import (
    DEFAULT_CLASS_GRID,
    ExtClass,
    ExtensionPresentation,
    InvalidTotal,
    RegimeMismatch,
    classify_selfdual_rank_one,
    ext_isomorphic,
    ext_isomorphism_witness,
    extension_class,
    extension_class_vector,
    is_self_dual,
    make_extension,
    verify_ext_witness,
)
from zzl.zigzag import (
    ISO_DIM_BOUND,
    SizeBound,
    ZigZag,
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
IC = std_ic(LABEL, 1, 1)
SKY = std_skyscraper(1)


class TestMakeExtension:
    def test_split(self):
        e = make_extension(IC, SKY, 0)
        assert extension_class(e) == ExtClass(Fraction(0))

    def test_corrected(self):
        e = make_extension(IC, SKY, 1)
        assert extension_class(e) == ExtClass(Fraction(1))

    def test_block_regime_beta(self):
        sub = std_corrected(LABEL, 1, 1)  # B_sub = Q
        u = QMatrix.from_rows([[1]])
        e = make_extension(sub, SKY, u)
        expected = block_assemble([[sub.beta, u], [None, SKY.beta]], [1, 1], [1, 1])
        assert e.total.beta == expected

    def test_scalar_in_block_regime_rejected(self):
        sub = std_corrected(LABEL, 1, 1)
        with pytest.raises(RegimeMismatch):
            make_extension(sub, SKY, 1)

    def test_ublock_in_collapsed_regime_rejected(self):
        with pytest.raises(RegimeMismatch):
            make_extension(IC, SKY, QMatrix.zero(0, 1))

    def test_quotient_must_be_point_supported(self):
        with pytest.raises(ShapeMismatch):
            make_extension(IC, std_ic(LABEL, 1, 1), 0)

    def test_invalid_total_rejected(self):
        # u outside ker(gamma_sub) breaks exactness of the total
        sub = ZigZag(
            LABEL, 0, 1, 0, 1,
            QMatrix.zero(0, 0), QMatrix.zero(1, 0), QMatrix.identity(1),
        )
        with pytest.raises(InvalidTotal):
            make_extension(sub, SKY, QMatrix.from_rows([[1]]))

    def test_class_vector_for_multi_summand_quotient(self):
        e = make_extension(IC, std_skyscraper(3), [1, 0, 1])
        assert [c.normalized for c in extension_class_vector(e)] == [1, 0, 1]


def _quotient(rank_: int, label: str) -> ZigZag:
    if label == "0":
        return std_skyscraper(rank_)
    zero = QMatrix.zero
    return ZigZag(label, 0, 0, rank_, rank_, zero(rank_, 0), QMatrix.identity(rank_), zero(0, rank_))


def _expected_outcome(b_sub: int, label: str, kind: str, length_ok: bool):
    """The exception type of make_extension: the label rule decides first,
    then the regime, then the shapes."""
    if label != "0":
        return ShapeMismatch
    if (kind == "qmatrix") != (b_sub > 0):
        return RegimeMismatch
    return None if length_ok else ShapeMismatch


@pytest.mark.parametrize("b_sub", [0, 1])
@pytest.mark.parametrize("rank_", [1, 2])
@pytest.mark.parametrize("label", ["0", "L"])
@pytest.mark.parametrize("kind", ["qmatrix", "wide-qmatrix", "scalar", "vector", "long-vector"])
def test_make_extension_raises_as_before(b_sub, rank_, label, kind):
    sub = IC if b_sub == 0 else std_corrected(LABEL, 1, 1)
    class_data, length_ok = {
        "qmatrix": (QMatrix.zero(b_sub, rank_), True),
        "wide-qmatrix": (QMatrix.zero(b_sub, rank_ + 1), b_sub == 0),
        "scalar": (1, rank_ == 1),
        "vector": ((1,) * rank_, True),
        "long-vector": ((1,) * (rank_ + 1), False),
    }[kind]
    expected = _expected_outcome(b_sub, label, kind.split("-")[-1], length_ok)
    if expected is None:
        assert make_extension(sub, _quotient(rank_, label), class_data).quot.a_dim == rank_
    else:
        with pytest.raises(expected) as info:
            make_extension(sub, _quotient(rank_, label), class_data)
        assert type(info.value) is expected


class TestTotalZigzag:
    def test_split_total_is_table_row(self):
        assert make_extension(IC, SKY, 0).total == std_corrected(LABEL, 1, 1)

    def test_corrected_same_compressed_tuple(self):
        split = make_extension(IC, SKY, 0).total
        corr = make_extension(IC, SKY, 1).total
        assert split == corr  # the compressed zig-zag is class-blind

    def test_skyscraper_pile(self):
        e = make_extension(SKY, SKY, QMatrix.zero(1, 1))
        assert e.total == std_skyscraper(2)

    def test_class_zero_total_isomorphic_to_direct_sum(self):
        for sub in (IC, std_ic(LABEL, 0, 2)):
            e = make_extension(sub, SKY, 0)
            assert is_isomorphic(e.total, direct_sum(sub, SKY))


class TestExtensionClass:
    def test_scaling_normalizes(self):
        e5 = make_extension(IC, SKY, 5)
        assert extension_class(e5).value == 5
        assert extension_class(e5).normalized == 1
        # the scaling witness is explicit
        e1 = make_extension(IC, SKY, 1)
        w = ext_isomorphism_witness(e5, e1)
        assert w is not None and w.quot_a == QMatrix.from_rows([[5]])

    def test_ublock_inside_image_is_trivial(self):
        sub = std_corrected(LABEL, 1, 1)  # im(beta) = B
        e = make_extension(sub, SKY, QMatrix.from_rows([[7]]))
        assert extension_class(e).normalized == 0

    def test_normalized_iff_nonzero_on_grid(self):
        for c in DEFAULT_CLASS_GRID:
            e = make_extension(IC, SKY, c)
            assert (extension_class(e).normalized == 0) == (c == 0)


class TestExtIsomorphic:
    def test_split_vs_corrected(self):
        assert not ext_isomorphic(make_extension(IC, SKY, 0), make_extension(IC, SKY, 1))

    def test_nonzero_classes_all_isomorphic(self):
        e2 = make_extension(IC, SKY, 2)
        em = make_extension(IC, SKY, Fraction(-1, 3))
        w = ext_isomorphism_witness(e2, em)
        assert w is not None
        assert w.quot_a == QMatrix.from_rows([[-6]])
        assert verify_ext_witness(e2, em, w)

    def test_reflexive(self):
        e = make_extension(IC, SKY, 1)
        assert ext_isomorphic(e, e)

    def test_iff_normalized_classes_agree(self):
        grid = DEFAULT_CLASS_GRID
        pres = {c: make_extension(IC, SKY, c) for c in grid}
        for c1 in grid:
            for c2 in grid:
                expected = (c1 == 0) == (c2 == 0)
                assert ext_isomorphic(pres[c1], pres[c2]) == expected

    def test_block_regime_isomorphism(self):
        sub = std_corrected(LABEL, 1, 1)
        e_zero = make_extension(sub, SKY, QMatrix.zero(1, 1))
        e_img = make_extension(sub, SKY, QMatrix.from_rows([[3]]))
        w = ext_isomorphism_witness(e_zero, e_img)
        assert w is not None and verify_ext_witness(e_zero, e_img, w)

    def test_shape_precondition(self):
        with pytest.raises(ShapeMismatch):
            ext_isomorphic(make_extension(IC, SKY, 0), make_extension(std_ic(LABEL, 2, 1), SKY, 0))

    def test_size_bound(self):
        # subs conjugated by a unipotent g on A = Q^7, unequal with equal rank
        # profiles, so the sub witness needs the bounded search
        n = 7
        g = QMatrix.from_rows([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
        sub1 = ZigZag(LABEL, n, 0, n, 0, QMatrix.identity(n), QMatrix.zero(0, n), QMatrix.zero(0, 0))
        sub2 = ZigZag(LABEL, n, 0, n, 0, g, QMatrix.zero(0, n), QMatrix.zero(0, 0))
        e1, e2 = make_extension(sub1, SKY, 1), make_extension(sub2, SKY, 1)
        with pytest.raises(SizeBound, match="dims <= 6"):
            ext_isomorphism_witness(e1, e2)

    def test_no_size_bound_without_a_search(self):
        # equal subs get the identity and the quotient blocks are closed form
        e = make_extension(IC, std_skyscraper(7), [1] * 7)
        assert verify_ext_witness(e, e, ext_isomorphism_witness(e, e))
        split, corrected = classify_selfdual_rank_one((7, 7))
        assert (split.is_split, corrected.is_split) == (True, False)
        assert split.grid_members == (0,) and 1 in corrected.grid_members
        assert is_self_dual(make_extension(std_ic("C", 7, 7), std_skyscraper(1), 1))


class TestCollapsedTransport:
    """The collapsed class moves contravariantly along quot_a: c2 quot_a = c1."""

    PAIRS = [((1, 2), (-3, Fraction(1, 2))), ((0, 0), (0, 0))]

    @staticmethod
    def presentations(c1, c2):
        quot = std_skyscraper(2)
        return make_extension(IC, quot, c1), make_extension(IC, quot, c2)

    @pytest.mark.parametrize("c1,c2", PAIRS)
    def test_work_gate_one_inverse_for_the_quotient_beta(self, monkeypatch, c1, c2):
        inverted = []
        original = QMatrix.inverse

        def inverse(m):
            inverted.append(m)
            return original(m)

        e1, e2 = self.presentations(c1, c2)
        monkeypatch.setattr(QMatrix, "inverse", inverse)
        w = ext_isomorphism_witness(e1, e2)
        # quot_a is one solve against the completion of c2, and the verifier
        # checks the class as a product; only quot_b inverts e1's quotient beta
        assert len(inverted) == 1 and inverted[0] is e1.quot.beta
        monkeypatch.undo()
        assert verify_ext_witness(e1, e2, w)
        assert QMatrix(1, 2, e2.class_vector) * w.quot_a == QMatrix(1, 2, e1.class_vector)

    def test_a_witness_that_breaks_the_class_is_rejected(self):
        e1, e2 = self.presentations(*self.PAIRS[0])
        w = ext_isomorphism_witness(e1, e2)
        doubled = w._replace(quot_a=2 * w.quot_a, quot_b=2 * w.quot_b)
        # the doubled quotient blocks still intertwine the totals, which are
        # blind to the stored class; only the transport test sees it
        assert verify_witness(e1.total, e2.total, doubled.total_witness(e1, e2))
        assert not verify_ext_witness(e1, e2, doubled)


def _conjugated_block_pairs(seeds):
    """(e1, e2) for each seed: a random valid block presentation and a copy
    moved by a random block-upper-triangular isomorphism."""
    for seed in seeds:
        rng = random.Random(seed)
        e1 = random_block_presentation(rng)
        e2, moved_by = conjugate_block_presentation(rng, e1)
        assert verify_ext_witness(e1, e2, moved_by)
        yield e1, e2


class TestBlockRegimeWitness:
    def test_conjugated_copies_get_verified_witnesses(self):
        non_exact = 0
        for e1, e2 in _conjugated_block_pairs(range(150)):
            non_exact += bool(validate(e1.quot))
            w = ext_isomorphism_witness(e1, e2)
            assert w is not None and verify_ext_witness(e1, e2, w)
            assert w.quot_b == QMatrix.identity(e1.quot.b_dim)
        assert non_exact >= 50  # quotients that fail exactness at A are covered

    def test_witness_is_the_two_equation_system_particular_solution(self):
        for e1, e2 in _conjugated_block_pairs(range(150)):
            _assert_matches_block_system(e1, e2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_drawn_witness_is_the_block_system_particular_solution(self, seed):
        rng = random.Random(seed)
        e1 = random_block_presentation(rng, max_dim=4)
        e2, _ = conjugate_block_presentation(rng, e1)
        _assert_matches_block_system(e1, e2)

    def test_one_solve_for_all_columns_and_no_block_system(self, monkeypatch):
        solves, eliminations, systems, searched, candidates = [], [], [], [], []
        original_solve = extension.solve
        original_eliminate = linalg._eliminate
        original_init = intertwine.BlockSystem.__init__
        original_find = intertwine.find_invertible
        original_at = intertwine._invertible_at

        def eliminate(rows):
            eliminations.append(rows)
            return original_eliminate(rows)

        def solve(a, b):
            before = len(eliminations)
            x = original_solve(a, b)
            solves.append((a, b.cols, len(eliminations) - before))
            return x

        def init(system, variables):
            systems.append(tuple(variables))
            original_init(system, variables)

        def find_invertible(system, names):
            searched.append(tuple(system.variables))
            return original_find(system, names)

        def invertible_at(*args):
            candidates.append(args[-1])
            return original_at(*args)

        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        monkeypatch.setattr(extension, "solve", solve)
        monkeypatch.setattr(intertwine.BlockSystem, "__init__", init)
        monkeypatch.setattr(intertwine, "find_invertible", find_invertible)
        monkeypatch.setattr(intertwine, "_invertible_at", invertible_at)
        wide = 0
        for e1, e2 in _conjugated_block_pairs(range(40)):
            del systems[:], searched[:], candidates[:]
            iso_witness(e1.sub, e2.sub)
            sub_work = (list(systems), list(searched), list(candidates))
            del solves[:], systems[:], searched[:], candidates[:]
            assert ext_isomorphism_witness(e1, e2) is not None
            # the sub search runs as it would alone; the quotient blocks add
            # one solve of all quotient columns against the second total's
            # beta, eliminated once, and no block system, no search, no
            # random draw and no grid point
            assert solves == [(e2.total.beta, e1.quot.a_dim, 1)]
            assert (systems, searched, candidates) == sub_work
            wide += e1.quot.a_dim > 1
        assert wide >= 10  # quotients with several columns are covered


def _assert_matches_block_system(e1, e2):
    """The witness's a_q and h_a are the particular solution of the two
    block equations beta_q2 a_q = beta_q1 and beta_s2 h_a + u2 a_q = b_s u1."""
    w = ext_isomorphism_witness(e1, e2)
    s2, q1, q2 = e2.sub, e1.quot, e2.quot
    ident = QMatrix.identity(q1.a_dim)
    system = intertwine.BlockSystem({"a_q": (q2.a_dim, q1.a_dim), "h_a": (s2.a_dim, q1.a_dim)})
    system.add_equation([(q2.beta, "a_q", ident)], constant=-1 * q1.beta)
    system.add_equation(
        [(-1 * s2.beta, "h_a", ident), (-1 * e2.u_block, "a_q", ident)],
        constant=w.sub.b * e1.u_block,
    )
    particular, _ = system.solve_affine()
    found = system.blocks(particular)
    assert (w.quot_a, w.h_a) == (found["a_q"], found["h_a"])
    assert w.quot_b == QMatrix.identity(q1.b_dim) and w.h_b.is_zero()


def test_only_zigzag_imports_intertwine():
    package = Path(__file__).resolve().parents[1] / "src" / "zzl"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "intertwine" for name in names):
                importers.add(path.name)
    assert importers == {"zigzag.py"}


class TestSelfDuality:
    def test_split_and_corrected_are_self_dual(self):
        assert is_self_dual(make_extension(IC, SKY, 0))
        assert is_self_dual(make_extension(IC, SKY, 1))

    def test_corrected_total_fixed_by_duality(self):
        total = make_extension(IC, SKY, 1).total
        assert is_isomorphic(dualize(total), total)

    def test_asymmetric_boundary_is_not_self_dual(self):
        e = make_extension(std_ic(LABEL, 2, 1), SKY, 1)
        assert not is_self_dual(e)

    def test_block_regime_self_dual_total_with_nontrivial_class(self):
        e = _block_class_one()
        assert validate(e.sub) and validate(e.quot)
        assert validate(e.total) == []
        assert extension_class(e).normalized == 1
        assert is_self_dual(e)

    def test_collapsed_sub_with_a_above_the_bound_is_not_self_dual(self):
        # a collapsed sub with A > 0 has no dual presentation and its total
        # is not self-dual, also when the total is above the size bound
        zero = QMatrix.zero
        sub = ZigZag(LABEL, 1, 1, 1, 0, QMatrix.identity(1), zero(0, 1), zero(1, 0))
        for rank_ in (1, ISO_DIM_BOUND):
            e = make_extension(sub, std_skyscraper(rank_), [1] * rank_)
            assert max(e.total.dims()) == rank_ + 1
            assert not is_self_dual(e)
        small = make_extension(sub, SKY, 1)
        assert not is_isomorphic(dualize(small.total), small.total)

    def test_block_total_above_the_bound_is_read_off_the_profile(self):
        e = _block_above_the_bound()
        total = e.total
        assert total.dims() == (7, 8, 8, 7) and max(total.dims()) > ISO_DIM_BOUND
        assert e.sub.beta != e.sub.beta.transpose() and total != dualize(total)
        assert is_self_dual(e)

    def test_work_gate_no_witness_and_no_search(self, monkeypatch):
        examples = _self_duality_examples()

        def refuse(*_args, **_kwargs):
            raise AssertionError("is_self_dual built a witness or ran the search")

        for module, name in (
            (zigzag, "iso_witness"),
            (extension, "iso_witness"),
            (extension, "ext_isomorphism_witness"),
            (intertwine, "find_invertible"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert [is_self_dual(e) for e, _ in examples] == [want for _, want in examples]


def _block_class_one() -> ExtensionPresentation:
    """Neither factor is exact, yet the total is: u = [1] fills B_sub,
    which gamma = 0 leaves to the kernel; im beta_sub = 0, so class 1."""
    zero = QMatrix.zero
    sub = ZigZag("L", 1, 1, 0, 1, zero(0, 1), zero(1, 0), zero(1, 1))
    quot = ZigZag("0", 0, 0, 1, 0, zero(1, 0), zero(0, 1), zero(0, 0))
    return make_extension(sub, quot, QMatrix.from_rows([[1]]))


def _block_above_the_bound() -> ExtensionPresentation:
    """Seven corrected summands moved on A and B, so that beta is not
    symmetric, under a rank-one quotient with a nonzero u: an exact total
    of dims (7, 8, 8, 7), past the search's size bound."""
    rng = random.Random(25)
    corrected = functools.reduce(direct_sum, [std_corrected(LABEL, 1, 1)] * 7)
    g_a, g_b = random_invertible(rng, 7), random_invertible(rng, 7)
    sub = dataclasses.replace(corrected, beta=g_b * corrected.beta * g_a.inverse())
    return make_extension(sub, SKY, QMatrix.column(range(1, 8)))


def _self_duality_examples() -> list[tuple[ExtensionPresentation, bool]]:
    """The TestSelfDuality presentations of both regimes, each with its verdict."""
    a_sub = ZigZag(LABEL, 1, 1, 1, 0, QMatrix.identity(1), QMatrix.zero(0, 1), QMatrix.zero(1, 0))
    return [
        (make_extension(IC, SKY, 0), True),
        (make_extension(IC, SKY, 1), True),
        (make_extension(std_ic(LABEL, 2, 1), SKY, 1), False),
        (make_extension(a_sub, std_skyscraper(ISO_DIM_BOUND), [1] * ISO_DIM_BOUND), False),
        (_block_class_one(), True),
        (make_extension(std_corrected(LABEL, 2, 1), SKY, QMatrix.from_rows([[1]])), False),
        (_block_above_the_bound(), True),
    ]


@st.composite
def _collapsed_factors(draw):
    """A sub with B = 0 (exact exactly when alpha is onto A), a point-supported
    quotient (exact exactly when beta is invertible) and a class per quotient
    coordinate; the total may or may not be exact."""
    e_minus, e_zero, a_sub, a_q, b_q = (draw(st.integers(0, 3)) for _ in range(5))
    zero = QMatrix.zero
    sub = ZigZag(
        LABEL, e_minus, e_zero, a_sub, 0,
        draw(int_matrices(a_sub, e_minus)), zero(0, a_sub), zero(e_zero, 0),
    )
    quot = ZigZag("0", 0, 0, a_q, b_q, zero(a_q, 0), draw(int_matrices(b_q, a_q)), zero(0, b_q))
    classes = draw(st.lists(st.integers(-2, 2), min_size=a_q, max_size=a_q))
    return sub, quot, classes


@st.composite
def _exact_collapsed_presentations(draw):
    """Valid collapsed presentations with factor dims <= 4: a sub with B = 0
    whose alpha is onto A, an invertible quotient beta and a class per
    quotient coordinate.  (Most draws of _collapsed_factors are not exact,
    too many to filter.)"""
    rng = random.Random(draw(st.integers(0, 2**32)))
    e_minus, e_zero, r = (draw(st.integers(0, 4)) for _ in range(3))
    a_sub = draw(st.integers(0, e_minus))
    onto = QMatrix.from_rows(
        [[int(i == j) for j in range(e_minus)] for i in range(a_sub)], cols=e_minus
    )
    zero = QMatrix.zero
    sub = ZigZag(
        LABEL, e_minus, e_zero, a_sub, 0,
        onto * random_invertible(rng, e_minus), zero(0, a_sub), zero(e_zero, 0),
    )
    quot = ZigZag("0", 0, 0, r, r, zero(r, 0), random_invertible(rng, r), zero(0, r))
    classes = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    return make_extension(sub, quot, classes)


def _witnessed_self_duality(e: ExtensionPresentation) -> bool:
    """The search-backed reference: the total against its dual."""
    return is_isomorphic(dualize(e.total), e.total)


def _dual_presentation_self_duality(e: ExtensionPresentation) -> bool:
    """The collapsed-regime reference for A_sub = 0: the dual factors with
    the same stored class, witnessed against e; subs over different
    boundaries admit no witness."""
    dual = ExtensionPresentation(dualize(e.sub), dualize(e.quot), None, e.class_vector)
    try:
        return ext_isomorphic(dual, e)
    except ShapeMismatch:
        return False


class TestSelfDualityDifferential:
    """is_self_dual, read off the total's rank profile, against the
    witness-backed definitions."""

    @settings(max_examples=100, deadline=None)
    @given(_exact_collapsed_presentations())
    def test_collapsed(self, e):
        # over the minimal extension on (E^-, E^-) the profile is symmetric,
        # so every example also checks a self-dual presentation
        mirrored = make_extension(
            std_ic(LABEL, e.sub.e_minus, e.sub.e_minus), e.quot, e.class_vector
        )
        for p in (e, mirrored):
            verdict = is_self_dual(p)
            assert verdict == _witnessed_self_duality(p)
            if p.sub.a_dim == 0:
                assert verdict == _dual_presentation_self_duality(p)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_block(self, seed):
        rng = random.Random(seed)
        e1 = random_block_presentation(rng, max_dim=4)
        e2, _ = conjugate_block_presentation(rng, e1)
        verdict = is_self_dual(e1)
        assert is_self_dual(e2) == verdict
        if max(e1.total.dims()) <= ISO_DIM_BOUND:
            assert verdict == _witnessed_self_duality(e1)


class TestCollapsedTotal:
    @settings(max_examples=200, deadline=None)
    @given(_collapsed_factors())
    def test_exactness_read_off_the_factors_is_that_of_the_eager_total(self, drawn):
        sub, quot, classes = drawn
        eager = extension._total(sub, quot, QMatrix.zero(0, quot.a_dim))
        issues = validate(eager)
        try:
            e = make_extension(sub, quot, classes)
        except InvalidTotal as exc:
            assert issues
            assert str(exc) == "assembled total violates exactness: " + "; ".join(
                i.message for i in issues
            )
        else:
            assert not issues
            assert e.total == eager == direct_sum(sub, quot)

    def test_built_on_first_read_and_kept(self, monkeypatch):
        totals = []
        original = extension._total

        def total(*args):
            totals.append(args)
            return original(*args)

        monkeypatch.setattr(extension, "_total", total)
        e = make_extension(IC, SKY, 1)
        assert totals == []
        assert e.total is e.total
        assert len(totals) == 1
        # the block regime validates its total at construction and keeps it
        block = make_extension(std_corrected(LABEL, 1, 1), SKY, QMatrix.from_rows([[1]]))
        assert len(totals) == 2 and block.total is block.total and len(totals) == 2

    def test_invalid_total_text_pinned(self):
        sub = ZigZag(LABEL, 1, 1, 1, 0, QMatrix.zero(1, 1), QMatrix.zero(0, 1), QMatrix.zero(1, 0))
        quot = ZigZag("0", 0, 0, 1, 2, QMatrix.zero(1, 0), QMatrix.from_rows([[1], [0]]), QMatrix.zero(0, 2))
        with pytest.raises(InvalidTotal) as info:
            make_extension(sub, quot, 1)
        assert str(info.value) == (
            "assembled total violates exactness: at A: im(alpha) has dim 0, ker(beta) has dim 1; "
            "at B: im(beta) has dim 1, ker(gamma) has dim 2"
        )


class TestClassification:
    def test_grid_partition(self):
        reps = classify_selfdual_rank_one((1, 1))
        assert len(reps) == 2
        split, corrected = reps
        assert split.is_split and split.is_self_dual
        assert not corrected.is_split and corrected.is_self_dual
        assert split.grid_members == (Fraction(0),)
        assert set(corrected.grid_members) == {
            Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 3),
        }

    def test_corrected_rep_total_self_dual(self):
        reps = classify_selfdual_rank_one((1, 1))
        total = reps[1].presentation.total
        assert is_isomorphic(dualize(total), total)

    def test_custom_grid(self):
        reps = classify_selfdual_rank_one((1, 1), grid=[0, 3, Fraction(-7, 2)])
        assert reps[0].grid_members == (Fraction(0),)
        assert len(reps[1].grid_members) == 2

    @pytest.mark.parametrize("boundary, grid", [
        pytest.param((1, 1), [1, 2], id="no-split-class"),
        pytest.param((1, 1), [0], id="no-corrected-class"),
        pytest.param((1, 2), DEFAULT_CLASS_GRID, id="asymmetric-boundary"),
    ])
    def test_inputs_without_both_self_dual_classes_rejected(self, boundary, grid):
        with pytest.raises(ValueError, match="symmetric boundary|class grid"):
            classify_selfdual_rank_one(boundary, grid=grid)


class TestClassificationWork:
    """Deterministic work counts of one classify call on the default grid."""

    def test_one_witness_per_member(self, monkeypatch):
        calls = []
        original = extension.ext_isomorphism_witness

        def counting(e1, e2):
            calls.append((e1.class_vector, e2.class_vector))
            return original(e1, e2)

        monkeypatch.setattr(extension, "ext_isomorphism_witness", counting)
        classify_selfdual_rank_one((1, 1))
        # the split part has one member; five nonzero members are witnessed
        # against the first nonzero one; self-duality builds no witness
        assert calls == [((c,), (Fraction(1),)) for c in DEFAULT_CLASS_GRID[2:]]

    def test_one_total_per_presentation(self, monkeypatch):
        totals, presentations = [], []
        original_total = extension._total
        original_init = ExtensionPresentation.__post_init__

        def total(*args):
            totals.append(args)
            return original_total(*args)

        def post_init(self):
            presentations.append(self)
            original_init(self)

        monkeypatch.setattr(extension, "_total", total)
        monkeypatch.setattr(ExtensionPresentation, "__post_init__", post_init)
        classify_selfdual_rank_one((1, 1))
        # the seven grid members; self-duality builds no dual presentation
        assert len(presentations) == len(totals) == 7

    def test_a_member_without_a_witness_is_a_postcondition_failure(self, monkeypatch):
        monkeypatch.setattr(extension, "ext_isomorphism_witness", lambda e1, e2: None)
        with pytest.raises(PostconditionError, match="no witness to class 1"):
            classify_selfdual_rank_one((1, 1))
