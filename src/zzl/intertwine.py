"""Solving for intertwiners between tuples of linear maps.

The isomorphism tests in this package all reduce to the same shape of
problem: a family of unknown matrix blocks X_1, ..., X_m subject to
linear equations sum_t L_t * X_{i(t)} * R_t + C = 0, inside which an
element with prescribed blocks invertible is wanted.

The solution set is an affine subspace p + span(h_1, ..., h_k).
``BlockSystem.solve_affine`` reads p and the h_i off one fraction-free
elimination of the augmented system [M | rhs] (``linalg._eliminate``).
``find_invertible`` then scales p and the h_i once to integers over a
common denominator, keeping each h_i as its nonzero entries only, so
that every candidate p + sum t_i h_i is combined on integers and each of
its square blocks is tested for full rank by integer elimination; only
the candidate returned becomes rational matrices again.  Candidates are
drawn at random with growing radius, and an invertible element is
certified absent by exhausting a rational grid large enough for the
degree of the block-determinant polynomial (a nonzero polynomial of total
degree d cannot vanish on a grid with d+1 values per coordinate).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    QMatrix,
    ShapeMismatch,
    _common_denominator,
    _eliminate,
    _int_row,
    _scaled,
    _solution_space,
)


class SearchExhausted(RuntimeError):
    """An invertible intertwiner was expected but not found; indicates a bug."""


@dataclass
class BlockSystem:
    """Linear system over named matrix unknowns."""

    variables: dict[str, tuple[int, int]]
    _offsets: dict[str, int] = field(init=False)
    _total: int = field(init=False)
    _rows: list[list[Fraction]] = field(init=False, default_factory=list)
    _rhs: list[Fraction] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._offsets = {}
        pos = 0
        for name, (r, c) in self.variables.items():
            self._offsets[name] = pos
            pos += r * c
        self._total = pos

    def add_equation(
        self,
        terms: list[tuple[QMatrix, str, QMatrix]],
        constant: QMatrix | None = None,
        shape: tuple[int, int] | None = None,
    ) -> None:
        """Impose sum_t L_t * X_t * R_t + constant = 0."""
        if shape is None:
            if constant is not None:
                shape = (constant.rows, constant.cols)
            else:
                lt, name, rt = terms[0]
                shape = (lt.rows, rt.cols)
        out_r, out_c = shape
        if constant is None:
            constant = QMatrix.zero(out_r, out_c)
        if (constant.rows, constant.cols) != (out_r, out_c):
            raise ShapeMismatch("constant term of wrong shape")
        for lt, name, rt in terms:
            vr, vc = self.variables[name]
            if lt.rows != out_r or lt.cols != vr or rt.rows != vc or rt.cols != out_c:
                raise ShapeMismatch(f"term for {name} does not fit the equation shape")
        for a in range(out_r):
            for b in range(out_c):
                row = [Fraction(0)] * self._total
                for lt, name, rt in terms:
                    vr, vc = self.variables[name]
                    base = self._offsets[name]
                    for i in range(vr):
                        la = lt.entry(a, i)
                        if la == 0:
                            continue
                        for j in range(vc):
                            rb = rt.entry(j, b)
                            if rb != 0:
                                row[base + i * vc + j] += la * rb
                self._rows.append(row)
                self._rhs.append(-constant.entry(a, b))

    def _unpack(self, x: tuple[Fraction, ...]) -> dict[str, QMatrix]:
        out = {}
        for name, (r, c) in self.variables.items():
            base = self._offsets[name]
            out[name] = QMatrix(r, c, tuple(x[base : base + r * c]))
        return out

    def solve_affine(
        self,
    ) -> tuple[dict[str, QMatrix] | None, list[dict[str, QMatrix]]]:
        """Particular solution (None when inconsistent) and homogeneous basis."""
        work = [_int_row(row + [b]) for row, b in zip(self._rows, self._rhs)]
        particular, kernel = _solution_space(work, _eliminate(work, self._total), self._total)
        if particular is None:
            return None, []
        return self._unpack(particular), [self._unpack(v) for v in kernel]


def _integer_family(
    particular: dict[str, QMatrix], basis: list[dict[str, QMatrix]]
) -> tuple[int, list[int], list[tuple[list[int], list[int]]]]:
    """The family over one common denominator d: d*p as a flat integer list
    (blocks in the order of ``particular``), and each d*h_i as the list of
    its nonzero positions and the list of their entries.

    Positions and entries are two lists rather than one list of pairs, for
    the reason given at ``linalg._int_rows``.
    """
    flat = [list(itertools.chain.from_iterable(h[name].entries for name in particular))
            for h in [particular, *basis]]
    den = _common_denominator(itertools.chain.from_iterable(flat))
    scaled = [[x.numerator * (den // x.denominator) for x in v] for v in flat]
    directions = []
    for v in scaled[1:]:
        positions = [i for i, x in enumerate(v) if x]
        directions.append((positions, [v[i] for i in positions]))
    return den, scaled[0], directions


def _invertible_at(
    base: list[int],
    directions: list[tuple[list[int], list[int]]],
    squares: list[tuple[int, int]],
    coeffs: tuple[int, ...],
) -> list[int] | None:
    """base + sum t_i * direction_i when every square block (offset, n) of
    it has rank n, else None."""
    v = base[:]
    for t, (positions, entries) in zip(coeffs, directions):
        if t:
            for i, x in zip(positions, entries):
                v[i] += t * x
    for off, n in squares:
        rows = [v[off + r * n : off + (r + 1) * n] for r in range(n)]
        if len(_eliminate(rows, n, reduce=False)) < n:
            return None
    return v


def find_invertible(
    particular: dict[str, QMatrix] | None,
    basis: list[dict[str, QMatrix]],
    square_names: list[str],
    *,
    must_exist: bool = False,
    certify_cap: int = 200_000,
    seed: int = 99991,
) -> dict[str, QMatrix] | None:
    """An element of the affine family with the named blocks invertible.

    Returns None only when the full certification grid has been
    exhausted, which proves no such element exists.  With must_exist the
    caller has already decided existence by an independent invariant, so
    the search keeps sampling until it succeeds.  Raises SearchExhausted
    or ShapeMismatch-flavored errors on misuse, and ValueError when the
    grid needed for certification exceeds certify_cap.
    """
    if particular is None:
        return None
    for name in square_names:
        if not particular[name].is_square():
            raise ShapeMismatch(f"block {name} must be square to be invertible")
    den, base, directions = _integer_family(particular, basis)
    sizes = [blk.rows * blk.cols for blk in particular.values()]
    offsets = dict(zip(particular, itertools.accumulate(sizes, initial=0)))
    squares = [(offsets[name], particular[name].rows) for name in square_names]
    if _invertible_at(base, directions, squares, ()) is not None:
        return particular
    k = len(basis)
    if k == 0:
        return None  # the affine space is a single point
    degree = sum(particular[name].rows for name in square_names)

    def element(v: list[int]) -> dict[str, QMatrix]:
        return {
            name: QMatrix(blk.rows, blk.cols, tuple(_scaled(v[off : off + size], den)))
            for (name, blk), off, size in zip(particular.items(), offsets.values(), sizes)
        }

    rng = random.Random(seed)
    for radius in (1, 2, 4, 8, 16, 64, 256):
        for _ in range(40 if radius < 64 else 400):
            coeffs = tuple(rng.randint(-radius, radius) for _ in range(k))
            found = _invertible_at(base, directions, squares, coeffs)
            if found is not None:
                return element(found)
    if must_exist:
        raise SearchExhausted("invertible intertwiner expected but not found")

    grid_values: list[int] = [0]
    step = 1
    while len(grid_values) < degree + 1:
        grid_values.append(step)
        if len(grid_values) < degree + 1:
            grid_values.append(-step)
        step += 1
    if (degree + 1) ** k > certify_cap:
        raise ValueError(
            "certification grid too large for a desk-scale exhaustive search"
        )
    for coeffs in itertools.product(grid_values, repeat=k):
        found = _invertible_at(base, directions, squares, coeffs)
        if found is not None:
            return element(found)
    return None
