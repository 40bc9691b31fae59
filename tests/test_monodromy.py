import contextlib
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    int_matrices,
    random_invertible,
    random_nilpotent_upper,
    random_skew_pairing_gram,
)
from zzl import linalg, monodromy
from zzl.linalg import (
    AmbientMismatch,
    DimensionMismatch,
    QMatrix,
    Subspace,
    image_basis,
    kernel_basis,
    subspace_equal,
    subspace_intersect,
    subspace_sum,
)
from zzl.monodromy import (
    NilpotentOperator,
    NotNilpotent,
    NotUnipotent,
    Pairing,
    WeightFiltration,
    check_weight_conditions,
    conjugate,
    jordan_nilpotent,
    nilpotency_index,
    nilpotent_log,
    pl_operator,
    pl_transform,
    unipotent_exp,
    weight_filtration,
)


SKEW2 = Pairing(QMatrix.from_rows([[0, 1], [-1, 0]]))


class TestPicardLefschetz:
    def test_skew_fixes_delta(self):
        # delta . delta = 0 for a skew pairing, so the reflection fixes delta
        delta = (Fraction(1), Fraction(2))
        assert pl_transform(delta, delta, SKEW2) == delta

    def test_pairing_one_adds_delta(self):
        alpha = (Fraction(0), Fraction(1))
        delta = (Fraction(1), Fraction(0))
        assert SKEW2.pair(alpha, delta) == -1
        beta = (Fraction(1), Fraction(0))
        # alpha . delta = 1 here
        assert SKEW2.pair(beta, (0, 1)) == 1
        assert pl_transform(beta, (0, 1), SKEW2) == (Fraction(1), Fraction(1))

    def test_pairing_zero_fixes(self):
        alpha = (Fraction(3), Fraction(0))
        delta = (Fraction(1), Fraction(0))
        assert SKEW2.pair(alpha, delta) == 0
        assert pl_transform(alpha, delta, SKEW2) == alpha

    def test_operator_matrix(self):
        assert pl_operator([1, 0], SKEW2) == QMatrix.from_rows([[1, -1], [0, 1]])

    def test_zero_delta_gives_identity(self):
        assert pl_operator([0, 0], SKEW2) == QMatrix.identity(2)

    def test_unipotence_for_skew(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            q = Pairing(random_skew_pairing_gram(rng, n))
            assert q.is_skew
            delta = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            t = pl_operator(delta, q)
            d = t - QMatrix.identity(n)
            assert (d * d).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pl_transform([1], [1, 0], SKEW2)

    def test_skew_flag_is_checked(self):
        assert not Pairing(QMatrix.identity(2)).is_skew

    def test_skew_flag_is_read_off_the_gram(self):
        # the gram is the pairing's one field; skew-symmetry is computed from it
        assert [f.name for f in dataclasses.fields(Pairing)] == ["gram"]
        assert Pairing(SKEW2.gram).is_skew and Pairing(SKEW2.gram) == SKEW2


class TestLogExp:
    def test_log_of_identity(self):
        assert nilpotent_log(QMatrix.identity(2)).matrix.is_zero()

    def test_single_jordan_block(self):
        t = QMatrix.from_rows([[1, 1], [0, 1]])
        assert nilpotent_log(t).matrix == QMatrix.from_rows([[0, 1], [0, 0]])

    def test_two_term_series(self):
        t = QMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        expected = QMatrix.from_rows([[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_log(t).matrix == expected

    def test_exp_of_zero(self):
        assert unipotent_exp(NilpotentOperator(QMatrix.zero(3, 3))) == QMatrix.identity(3)

    def test_exp_single_block(self):
        n = NilpotentOperator(QMatrix.from_rows([[0, 1], [0, 0]]))
        assert unipotent_exp(n) == QMatrix.from_rows([[1, 1], [0, 1]])

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(20):
            dim = rng.randint(1, 5)
            n = NilpotentOperator(random_nilpotent_upper(rng, dim))
            assert nilpotent_log(unipotent_exp(n)).matrix == n.matrix
            t = unipotent_exp(n)
            assert unipotent_exp(nilpotent_log(t)) == t

    def test_not_unipotent(self):
        with pytest.raises(NotUnipotent):
            nilpotent_log(2 * QMatrix.identity(2))

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            NilpotentOperator(QMatrix.identity(1))


@contextlib.contextmanager
def _counted_products():
    """Record every ``QMatrix`` product taken inside the block."""
    calls = []
    product = QMatrix.__mul__

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QMatrix, "__mul__", counting)
        yield calls


def _companion(n: int, m: int) -> QMatrix:
    """Companion matrix of x^m (x^(n-m) - 1): its powers have trace 0 up to
    the (n-m)-th, whose trace is n - m."""
    entries = [0] * (n * n)
    for i in range(1, n):
        entries[i * n + i - 1] = 1
    entries[m * n + n - 1] = 1
    return QMatrix(n, n, entries)


class TestPowerLadder:
    @pytest.mark.parametrize("m,k", [
        (QMatrix.identity(5), 1),  # m itself has trace 5
        (QMatrix.from_rows([[0, 1], [1, 0]]), 2),  # trace 0, then m^2 = I
    ])
    def test_work_gate_stops_at_the_first_nonzero_trace(self, m, k):
        # every power of a nilpotent map has trace 0; the ladder starts at
        # m, so the k-th power costs k - 1 products
        with _counted_products() as calls:
            assert nilpotency_index(m) is None
        assert len(calls) == k - 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: int_matrices(n, n)))
    def test_never_more_products_than_the_dimension(self, m):
        # traces 0 through m^n make the characteristic polynomial x^n, and
        # then m^n = 0 (Newton's identities, Cayley-Hamilton); m^1 is free
        with _counted_products() as calls:
            index = nilpotency_index(m)
        assert len(calls) <= max(m.rows - 1, 0)
        assert index is None or len(calls) == max(index - 1, 0)

    @pytest.mark.parametrize("n,m", [(10, 2), (40, 2), (12, 0)])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_trace_zero_run_costs_one_product_per_power(self, n, m, conjugated):
        c = _companion(n, m)
        if conjugated:
            g = random_invertible(random.Random(n), n)
            c = g * c * g.inverse()
        with _counted_products() as calls:
            assert nilpotency_index(c) is None
        assert len(calls) == n - m - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.booleans())
    def test_agrees_with_the_full_ladder(self, seed, dim, nilpotent):
        rng = random.Random(seed)
        if nilpotent:
            g = random_invertible(rng, dim)
            m = g * random_nilpotent_upper(rng, dim) * g.inverse()
        else:
            m = QMatrix(dim, dim, [rng.randint(-1, 1) for _ in range(dim * dim)])
        power, full = QMatrix.identity(dim), None
        for k in range(dim + 1):
            if power.is_zero():
                full = k
                break
            power = power * m
        assert nilpotency_index(m) == full


class TestWeightFiltration:
    def test_zero_operator(self):
        w = weight_filtration(NilpotentOperator(QMatrix.zero(2, 2)), 3)
        assert w.step(2).dim == 0
        assert w.step(3).dim == 2

    def test_single_block_dim_two(self):
        w = weight_filtration(jordan_nilpotent([2]), 0)
        assert w.step(-2).dim == 0
        assert subspace_equal(w.step(-1), w.step(0))
        assert w.step(-1).contains([1, 0])
        assert w.step(1).dim == 2
        assert w.graded_dims() == {-1: 1, 1: 1}

    def test_blocks_one_and_three(self):
        w = weight_filtration(jordan_nilpotent([1, 3]), 0)
        assert {k: w.graded_dim(k) for k in range(-2, 3)} == {
            -2: 1, -1: 0, 0: 2, 1: 0, 2: 1,
        }
        # the size-1 block sits in weight 0: e1 is in W_0 but not W_{-1}
        assert w.step(0).contains([1, 0, 0, 0])
        assert not w.step(-1).contains([1, 0, 0, 0])

    def test_blocks_three_two_one(self):
        w = weight_filtration(jordan_nilpotent([3, 2, 1]), 0)
        assert {k: w.graded_dim(k) for k in range(-2, 3)} == {
            -2: 1, -1: 1, 0: 2, 1: 1, 2: 1,
        }

    def test_all_jordan_types_up_to_dim_six(self):
        for total, partitions in _partitions_by_total(6).items():
            for part in partitions:
                n = jordan_nilpotent(part)
                w = weight_filtration(n, 0)
                assert not check_weight_conditions(n, w), (part, total)
                expected = _expected_graded(part)
                assert w.graded_dims() == expected, part

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for part in ([2], [3, 1], [2, 2]):
            n = jordan_nilpotent(part)
            g = random_invertible(rng, n.dim)
            w = weight_filtration(n, 0)
            wg = weight_filtration(conjugate(n, g), 0)
            for level in range(-3, 4):
                moved = [
                    g.apply(w.step(level).basis.col(j))
                    for j in range(w.step(level).dim)
                ]
                from zzl.linalg import Subspace

                assert subspace_equal(
                    wg.step(level), Subspace.spanned_by(n.dim, moved)
                )

    def test_centered_off_zero(self):
        w = weight_filtration(jordan_nilpotent([2]), 5)
        assert w.graded_dims() == {4: 1, 6: 1}


def _span(*vectors):
    return Subspace.spanned_by(2, vectors)


def test_filtration_without_steps_is_refused():
    with pytest.raises(ValueError, match="at least one step"):
        WeightFiltration(0, ())


def test_filtration_steps_in_different_ambient_spaces_are_refused():
    with pytest.raises(AmbientMismatch, match=r"ambient dims \[2, 3\]"):
        WeightFiltration(0, ((-1, Subspace.zero(2)), (0, Subspace.full(3))))


def test_conditions_of_a_filtration_of_another_space_are_refused():
    w = WeightFiltration(0, ((-1, Subspace.zero(3)), (0, Subspace.full(3))))
    with pytest.raises(DimensionMismatch, match=r"operator on Q\^2, filtration of Q\^3"):
        check_weight_conditions(jordan_nilpotent([2]), w)


class TestWeightConditionMessages:
    """Each message of check_weight_conditions, from a filtration that
    violates it."""

    def test_n_does_not_lower_the_weight_by_two(self):
        # W_0 = <e2> and N e2 = e1, outside W_-2 = 0; the graded dims are
        # then lopsided as well
        w = WeightFiltration(0, ((-1, _span()), (0, _span((0, 1))), (1, _span((1, 0), (0, 1)))))
        assert check_weight_conditions(jordan_nilpotent([2]), w) == [
            "N W_0 not inside W_-2",
            "N W_1 not inside W_-1",
            "graded dims at 1 and -1 differ",
        ]

    def test_n_is_not_an_isomorphism_on_graded_pieces(self):
        # Gr_1 and Gr_-1 are both lines, but N = 0 maps one to zero
        steps = ((-2, _span()), (-1, _span((1, 0))), (0, _span((1, 0))), (1, _span((1, 0), (0, 1))))
        w = WeightFiltration(0, steps)
        assert check_weight_conditions(NilpotentOperator(QMatrix.zero(2, 2)), w) == [
            "N^1 is not an isomorphism Gr_1 -> Gr_-1"
        ]


def _folded_steps(n, center):
    """The steps as a pairwise fold of subspace sums over the pieces
    ker N^(i+l+1) intersect im N^i, the reference for the one-span build."""
    k = n.index
    kernels = [kernel_basis(p) for p in n.powers]
    images = [image_basis(p) for p in n.powers[:-1]]

    def step(level):
        total = Subspace.zero(n.dim)
        for i in range(max(0, -level), k):
            piece = subspace_intersect(kernels[min(i + level + 1, k)], images[i])
            total = subspace_sum(total, piece)
        return total

    top = max(k, 1)
    return tuple((center + level, step(level)) for level in range(-top, top))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.integers(-2, 2),
)
def test_each_step_is_the_fold_of_its_pieces(blocks, seed, center):
    n = conjugate(jordan_nilpotent(blocks), random_invertible(random.Random(seed), sum(blocks)))
    ours = weight_filtration(n, center).steps
    folded = _folded_steps(n, center)
    # the same weights, and each step spans the fold of its pieces
    assert [w for w, _ in ours] == [w for w, _ in folded]
    assert all(subspace_equal(a, b) for (_, a), (_, b) in zip(ours, folded))
    # the public re-derivation is the oracle for the string certificate
    assert not check_weight_conditions(n, WeightFiltration(center, ours))


def _construction_work(monkeypatch, n):
    """weight_filtration(n, 0), with the calls and entries handed to
    ``_eliminate``, the ``image_basis`` calls (``subspace_intersect`` goes
    through it) and the ``check_weight_conditions`` calls of the run."""
    work = {"_eliminate": 0, "entries": 0, "image_basis": 0, "check_weight_conditions": 0}
    eliminate, image, post_check = linalg._eliminate, linalg.image_basis, monodromy.check_weight_conditions

    def eliminating(rows):
        work["_eliminate"] += 1
        work["entries"] += sum(map(len, rows))
        return eliminate(rows)

    def imaging(m):
        work["image_basis"] += 1
        return image(m)

    def checking(*args):
        work["check_weight_conditions"] += 1
        return post_check(*args)

    monkeypatch.setattr(linalg, "_eliminate", eliminating)
    monkeypatch.setattr(linalg, "image_basis", imaging)
    # also where an import by name would look it up
    monkeypatch.setattr(monodromy, "image_basis", imaging, raising=False)
    monkeypatch.setattr(monodromy, "check_weight_conditions", checking)
    return weight_filtration(n, 0), work


def test_work_gate_jordan_strings_without_step_eliminations(monkeypatch):
    # the kernels of N and N^2 (ker N^0 = 0 and ker N^3 = Q^6 are known),
    # one keep-first elimination per height (3) and the rank certificate,
    # against 10 calls of 546 entries with one span per step; no step
    # builds a span, and the certificate re-derives neither condition
    n = conjugate(jordan_nilpotent([3, 2, 1]), random_invertible(random.Random(0), 6))
    w, work = _construction_work(monkeypatch, n)
    assert w.graded_dims() == {-2: 1, -1: 1, 0: 2, 1: 1, 2: 1}
    assert work == {"_eliminate": 6, "entries": 258, "image_basis": 0, "check_weight_conditions": 0}


def test_work_gate_single_block_of_twenty(monkeypatch):
    # with one span per step, this input hands 217,800 entries to the elimination
    n = conjugate(jordan_nilpotent([20]), random_invertible(random.Random(0), 20))
    w, work = _construction_work(monkeypatch, n)
    assert w.graded_dims() == {2 * a - 19: 1 for a in range(20)}
    assert work["_eliminate"] == 19 + 20 + 1
    assert work["entries"] < 20_000
    assert work["image_basis"] == 0
    assert work["check_weight_conditions"] == 0


def _partitions_by_total(n_max):
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    return {n: list(partitions(n, n)) for n in range(1, n_max + 1)}


def _expected_graded(block_sizes):
    graded = {}
    for s in block_sizes:
        for a in range(s):
            weight = s - 1 - 2 * a
            graded[weight] = graded.get(weight, 0) + 1
    return graded


# -- W(N) against the Jordan type read off sympy's ranks ---------------------


def _sparse_nilpotent(rng, n):
    """Strictly upper triangular with about a third of the entries above the
    diagonal nonzero, so that many Jordan types occur, then conjugated."""
    rows = [
        [Fraction(rng.randint(-2, 2)) if j > i and rng.random() < 0.3 else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    g = random_invertible(rng, n)
    return g * QMatrix.from_rows(rows, cols=n) * g.inverse()


def _jordan_type_by_sympy(m):
    """Block sizes of a nilpotent matrix: rank N^(s-1) - rank N^s blocks have
    size at least s, with the ranks computed by sympy's DomainMatrix."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    rows = [[sympy.QQ(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)]
    dm = DomainMatrix(rows, (m.rows, m.cols), sympy.QQ)
    ranks = [m.rows]
    power = dm
    while ranks[-1]:
        ranks.append(power.rank())
        power = power * dm
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return [s for s in range(1, len(at_least)) for _ in range(at_least[s - 1] - at_least[s])]


@pytest.mark.parametrize("seed", range(24))
def test_graded_dims_match_jordan_type_from_sympy(seed):
    rng = random.Random(seed)
    m = _sparse_nilpotent(rng, 1 + seed % 12)
    sizes = _jordan_type_by_sympy(m)
    assert sum(sizes) == m.rows
    n = NilpotentOperator(m)
    for center in (0, 3):
        expected = {center + w: c for w, c in _expected_graded(sizes).items()}
        assert weight_filtration(n, center).graded_dims() == expected
