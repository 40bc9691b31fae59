"""Solving for intertwiners between tuples of linear maps.

The zig-zag isomorphism search (``zigzag.iso_witness``) reduces to
this shape of problem: a family of unknown matrix blocks X_1, ..., X_m
subject to linear equations sum_t L_t * X_{i(t)} * R_t + C = 0, inside
which an element with prescribed blocks invertible is wanted.

The solution set is an affine subspace p + span(h_1, ..., h_k) of the
flat vector of unknowns (the blocks row-major, in the order of
``BlockSystem.variables``).  ``BlockSystem.solve_affine`` builds the
augmented system [M | rhs] as one matrix and reads p and the h_i off
its reduced form (``linalg._reduced``), exactly as ``linalg.solve``
does; the system is inconsistent when a pivot lands in the rhs column.
``find_invertible`` scales p and the h_i once to integers over a common
denominator, keeping each h_i as its nonzero entries only, so that every
candidate p + sum t_i h_i is combined on integers and each of its square
blocks is tested for full rank by ``linalg.rank`` of an integer matrix;
only the candidate returned becomes rational matrix blocks.  Candidates
are drawn at random with growing radius, and an invertible element is
certified absent by exhausting a rational grid large enough for the
degree of the block-determinant polynomial (a nonzero polynomial of
total degree d cannot vanish on a grid with d+1 values per coordinate).
A grid of more than ``CERTIFY_CAP`` points is refused with ``SizeBound``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    QMatrix,
    ShapeMismatch,
    _ZERO,
    _common_denominator,
    _from_nums,
    _reduced,
    _scaled,
    _solution_space,
    rank,
)

#: Largest certification grid searched exhaustively.
CERTIFY_CAP = 200_000

#: Seed of the random candidate draws, fixed so that witnesses are reproducible.
SEED = 99991


class SizeBound(ValueError):
    """A dimension or a certification grid exceeds the desk-scale bound of an
    isomorphism search."""


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
    ) -> None:
        """Impose sum_t L_t * X_t * R_t + constant = 0.

        The first term fixes the shape of the equation (the constant does
        when there is no term); every other term and the constant must fit it.
        """
        if terms:
            lt, _, rt = terms[0]
            out_r, out_c = lt.rows, rt.cols
        else:
            out_r, out_c = constant.rows, constant.cols
        if constant is not None and (constant.rows, constant.cols) != (out_r, out_c):
            raise ShapeMismatch("constant term of wrong shape")
        for lt, name, rt in terms:
            vr, vc = self.variables[name]
            if lt.rows != out_r or lt.cols != vr or rt.rows != vc or rt.cols != out_c:
                raise ShapeMismatch(f"term for {name} does not fit the equation shape")
        # each term's entries are read once, as fractions
        terms_entries = [(lt.entries, name, rt.entries) for lt, name, rt in terms]
        constant_entries = None if constant is None else constant.entries
        for a in range(out_r):
            for b in range(out_c):
                row = [Fraction(0)] * self._total
                for lt, name, rt in terms_entries:
                    vr, vc = self.variables[name]
                    base = self._offsets[name]
                    for i in range(vr):
                        la = lt[a * vr + i]
                        if la == 0:
                            continue
                        for j in range(vc):
                            rb = rt[j * out_c + b]
                            if rb != 0:
                                row[base + i * vc + j] += la * rb
                self._rows.append(row)
                self._rhs.append(_ZERO if constant is None else -constant_entries[a * out_c + b])

    def blocks(self, x: list[Fraction]) -> dict[str, QMatrix]:
        """The blocks of the flat vector x, such as a solution from solve_affine."""
        out = {}
        for name, (r, c) in self.variables.items():
            base = self._offsets[name]
            out[name] = QMatrix(r, c, x[base : base + r * c])
        return out

    def solve_affine(self) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
        """Particular solution (None when inconsistent) and homogeneous basis,
        each a flat vector of the unknowns."""
        n = self._total
        entries = [x for row, b in zip(self._rows, self._rhs) for x in (*row, b)]
        pivots, rows = _reduced(QMatrix(len(self._rows), n + 1, entries))
        if pivots and pivots[-1] == n:
            return None, []
        den, particular, basis = _solution_space(rows, pivots, n, 1)
        return _scaled(particular, den), [_scaled(h, den) for h in basis]


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
        if rank(_from_nums(n, n, 1, v[off : off + n * n])) < n:
            return None
    return v


def find_invertible(system: BlockSystem, square_names: list[str]) -> dict[str, QMatrix] | None:
    """An element of the system's solution family with the named blocks
    invertible.

    Returns None only when the system is inconsistent or the full
    certification grid has been exhausted, which proves no such element
    exists.  Raises ShapeMismatch when a named block is not square, and
    SizeBound when the grid needed for certification exceeds CERTIFY_CAP.
    """
    squares = []  # (offset, n) of each n x n block to be invertible
    for name in square_names:
        r, c = system.variables[name]
        if r != c:
            raise ShapeMismatch(f"block {name} must be square to be invertible")
        squares.append((system._offsets[name], r))
    particular, basis = system.solve_affine()
    if particular is None:
        return None
    # d*p as a flat integer list, each d*h_i as its nonzero positions and
    # their entries (two lists rather than one list of pairs, for the
    # reason given at linalg._int_rows)
    den = _common_denominator(itertools.chain(particular, *basis))

    def scale(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    base = [scale(x) for x in particular]
    directions = []
    for h in basis:
        positions = [i for i, x in enumerate(h) if x]
        directions.append((positions, [scale(h[i]) for i in positions]))
    if _invertible_at(base, directions, squares, ()) is not None:
        return system.blocks(_scaled(base, den))
    k = len(basis)
    if k == 0:
        return None  # the affine space is a single point
    degree = sum(n for _, n in squares)

    rng = random.Random(SEED)
    for radius in (1, 2, 4, 8, 16, 64, 256):
        for _ in range(40 if radius < 64 else 400):
            coeffs = tuple(rng.randint(-radius, radius) for _ in range(k))
            found = _invertible_at(base, directions, squares, coeffs)
            if found is not None:
                return system.blocks(_scaled(found, den))

    grid_values: list[int] = [0]
    step = 1
    while len(grid_values) < degree + 1:
        grid_values.append(step)
        if len(grid_values) < degree + 1:
            grid_values.append(-step)
        step += 1
    if (degree + 1) ** k > CERTIFY_CAP:
        raise SizeBound("certification grid too large for a desk-scale exhaustive search")
    for coeffs in itertools.product(grid_values, repeat=k):
        found = _invertible_at(base, directions, squares, coeffs)
        if found is not None:
            return system.blocks(_scaled(found, den))
    return None
