from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzl import intertwine
from zzl.intertwine import BlockSystem, SizeBound, find_invertible
from zzl.linalg import QMatrix, ShapeMismatch
from zzl.zigzag import ZigZag, iso_witness

I1 = QMatrix.identity(1)

# random draws before the certification grid: 40 at each radius below 64,
# 400 at 64 and 256
RANDOM_DRAWS = 5 * 40 + 2 * 400


def _a_forced_to_zero() -> BlockSystem:
    """1x1 unknowns a and b with a = 0 imposed and b free: the shape of a
    strict-mode system whose boundaries pin a to 0 but leave b alone."""
    system = BlockSystem({"a": (1, 1), "b": (1, 1)})
    system.add_equation([(I1, "a", I1)])
    return system


@pytest.fixture
def candidates(monkeypatch):
    """Counts the candidates find_invertible combines and tests."""
    seen = []
    original = intertwine._invertible_at

    def counting(base, directions, squares, coeffs):
        seen.append(coeffs)
        return original(base, directions, squares, coeffs)

    monkeypatch.setattr(intertwine, "_invertible_at", counting)
    return seen


class TestAddEquation:
    def test_first_term_fixes_the_shape(self):
        system = BlockSystem({"x": (2, 2)})
        ones = QMatrix.column([1, 1])
        system.add_equation([(QMatrix.identity(2), "x", ones)])  # x * (1, 1)^T = 0: two rows
        assert len(system.solve_affine()[1]) == 2
        with pytest.raises(ShapeMismatch, match="term for x"):
            system.add_equation([(QMatrix.identity(2), "x", ones),
                                 (QMatrix.identity(2), "x", QMatrix.identity(2))])
        with pytest.raises(ShapeMismatch, match="constant"):
            system.add_equation([(QMatrix.identity(2), "x", ones)], constant=I1)

    def test_constant_alone_fixes_the_shape(self):
        system = BlockSystem({"x": (1, 1)})
        system.add_equation([], constant=QMatrix.column([0, 1]))
        assert system.solve_affine() == (None, [])


class TestFindInvertible:
    def test_invertible_particular_is_returned_as_is(self, candidates):
        system = BlockSystem({"x": (2, 2), "y": (1, 1)})
        system.add_equation([(QMatrix.identity(2), "x", QMatrix.identity(2))],
                            constant=QMatrix.from_rows([[-1, 0], [-2, -3]]))
        particular, basis = system.solve_affine()
        assert len(basis) == 1  # y is free
        assert particular == [1, 0, 2, 3, 0]
        found = find_invertible(system, ["x"])
        assert found == {"x": QMatrix.from_rows([[1, 0], [2, 3]]), "y": QMatrix.zero(1, 1)}
        assert candidates == [()]  # the particular solution alone

    def test_single_singular_point_is_none(self, candidates):
        system = BlockSystem({"x": (1, 1)})
        system.add_equation([(I1, "x", I1)])
        assert system.solve_affine() == ([0], [])
        assert find_invertible(system, ["x"]) is None
        assert candidates == [()]

    def test_inconsistent_system_is_none(self):
        system = BlockSystem({"x": (1, 1)})
        system.add_equation([(QMatrix.zero(1, 1), "x", I1)], constant=I1)
        assert system.solve_affine() == (None, [])
        assert find_invertible(system, ["x"]) is None

    def test_exhausted_grid_is_none(self, candidates):
        system = _a_forced_to_zero()
        assert system.solve_affine() == ([0, 0], [[0, 1]])
        assert find_invertible(system, ["a", "b"]) is None
        # the particular solution, the random draws, then the grid of degree
        # 2 in one direction: 0, 1, -1
        assert candidates[0] == ()
        assert candidates[1 + RANDOM_DRAWS:] == [(0,), (1,), (-1,)]

    def test_grid_above_cap_raises(self, monkeypatch):
        # the grid of degree 2 in one direction has 3 points
        monkeypatch.setattr(intertwine, "CERTIFY_CAP", 2)
        with pytest.raises(SizeBound, match="certification grid") as raised:
            find_invertible(_a_forced_to_zero(), ["a", "b"])
        assert isinstance(raised.value, ValueError)

    def test_grid_above_cap_is_size_bound_through_iso_witness(self):
        # ZigZag does not check exactness.  alpha1 = 1 and alpha2 = 0 force
        # a = 0, beta1 = 0 and an empty E^0 leave the 3x3 block b free:
        # degree 4 and 9 directions, a grid of 5**9 points
        z1 = ZigZag("Q_U[3]", 1, 0, 1, 3, I1, QMatrix.zero(3, 1), QMatrix.zero(0, 3))
        z2 = ZigZag("Q_U[3]", 1, 0, 1, 3, QMatrix.zero(1, 1),
                    QMatrix.column([1, 2, 3]), QMatrix.zero(0, 3))
        with pytest.raises(SizeBound, match="certification grid"):
            iso_witness(z1, z2, strict=True)

    def test_non_square_block_is_shape_mismatch(self):
        with pytest.raises(ShapeMismatch) as raised:
            find_invertible(BlockSystem({"x": (1, 2)}), ["x"])
        assert not isinstance(raised.value, SizeBound)

    def test_witness_is_combined_over_a_common_denominator(self):
        # h_1 = 2x and h_2 = 3x: the basis vector is x = 1/3, h = (2/3, 1)
        system = BlockSystem({"x": (1, 1), "h": (1, 2)})
        system.add_equation([(QMatrix.from_rows([[2]]), "x", I1),
                             (-1 * I1, "h", QMatrix.from_rows([[1], [0]]))])
        system.add_equation([(QMatrix.from_rows([[Fraction(1, 2)]]), "x", I1),
                             (-1 * I1, "h", QMatrix.from_rows([[0], [Fraction(1, 6)]]))])
        particular, basis = system.solve_affine()
        assert basis == [[Fraction(1, 3), Fraction(2, 3), 1]]
        found = find_invertible(system, ["x"])
        x = found["x"].entry(0, 0)
        assert x != 0
        assert found["h"] == QMatrix.from_rows([[2 * x, 3 * x]])
        assert list(found) == ["x", "h"]


# -- solve_affine against sympy's DomainMatrix --------------------------------

small = st.sampled_from([Fraction(v) for v in (-2, -1, 0, 0, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)])


def _matrices(rows: int, cols: int):
    return st.lists(small, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: QMatrix(rows, cols, tuple(e)))


@st.composite
def block_systems(draw):
    """A BlockSystem of up to three unknowns and its equations, kept as data."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
    variables = {f"x{i}": shape for i, shape in enumerate(shapes)}
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        out_r, out_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        names = draw(st.lists(st.sampled_from(sorted(variables)), min_size=1, max_size=3))
        terms = [(draw(_matrices(out_r, variables[n][0])), n, draw(_matrices(variables[n][1], out_c)))
                 for n in names]
        constant = draw(st.none() | _matrices(out_r, out_c))
        equations.append((terms, constant, (out_r, out_c)))
    return variables, equations


def _evaluate(equations, blocks, homogeneous=False):
    """sum_t L_t X_t R_t (+ C) of every equation, for the given blocks."""
    out = []
    for terms, constant, (r, c) in equations:
        total = QMatrix.zero(r, c) if homogeneous or constant is None else constant
        for left, name, right in terms:
            total = total + left * blocks[name] * right
        out.append(total)
    return out


def _blocks(variables, flat):
    """The flat vector of unknowns cut into its matrix blocks."""
    out, pos = {}, 0
    for name, (r, c) in variables.items():
        out[name] = QMatrix(r, c, tuple(flat[pos : pos + r * c]))
        pos += r * c
    return out


@settings(max_examples=80, deadline=None)
@given(block_systems())
def test_solve_affine_against_sympy(system_data):
    import sympy
    from sympy.polys.matrices import DomainMatrix

    variables, equations = system_data
    system = BlockSystem(variables)
    for terms, constant, _ in equations:
        system.add_equation(terms, constant)
    particular, basis = system.solve_affine()

    # the coefficient matrix column by column, each column the image of one
    # unit unknown, evaluated by matrix products rather than by add_equation
    zero = {n: QMatrix.zero(r, c) for n, (r, c) in variables.items()}
    columns = []
    for name, (r, c) in variables.items():
        for k in range(r * c):
            unit = QMatrix(r, c, tuple(Fraction(int(i == k)) for i in range(r * c)))
            images = _evaluate(equations, {**zero, name: unit}, homogeneous=True)
            columns.append([x for m in images for x in m.entries])
    rhs = [-x for m in _evaluate(equations, zero) for x in m.entries]
    n, rows = len(columns), len(rhs)

    def dm(entries, cols):
        return DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in row] for row in entries],
                            (len(entries), cols), sympy.QQ)

    a = [[columns[j][i] for j in range(n)] for i in range(rows)]
    rank = dm(a, n).rank()
    augmented_rank = dm([row + [b] for row, b in zip(a, rhs)], n + 1).rank()

    assert (particular is None) == (augmented_rank > rank)
    if particular is None:
        assert basis == []
        return
    assert all(m.is_zero() for m in _evaluate(equations, _blocks(variables, particular)))
    assert len(basis) == n - rank
    for h in basis:
        assert all(m.is_zero() for m in _evaluate(equations, _blocks(variables, h), homogeneous=True))
    if basis:
        assert dm(basis, n).rank() == len(basis)
