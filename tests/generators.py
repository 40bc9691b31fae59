"""Deterministic random generators shared across the tests.

Valid zig-zags are built from the five exact interval blocks (boundary
tails, the boundary-to-A arc, the skyscraper arc, the B-to-boundary arc)
and then conjugated by random invertible matrices on every space, which
preserves exactness while hiding the block structure.  ``int_matrices``
is the one hypothesis strategy here: matrices with entries in [-1, 1].
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from zzl.extension import ExtensionPresentation, ExtWitness
from zzl.linalg import QMatrix, kernel_basis, rank
from zzl.zigzag import IsoWitness, ZigZag


def random_invertible(rng: random.Random, n: int) -> QMatrix:
    if n == 0:
        return QMatrix.identity(0)
    while True:
        m = QMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if rank(m) == n:
            return m


def random_valid_zigzag(
    rng: random.Random, max_dim: int = 4, label: str = "Q_U[3]"
) -> ZigZag:
    while True:
        m11, m12, m23, m34, m44 = (rng.randint(0, 2) for _ in range(5))
        e_minus, a_dim = m11 + m12, m12 + m23
        b_dim, e_zero = m23 + m34, m34 + m44
        if max(e_minus, a_dim, b_dim, e_zero) <= max_dim and (
            e_minus + a_dim + b_dim + e_zero
        ):
            break
    alpha = [[Fraction(0)] * e_minus for _ in range(a_dim)]
    for i in range(m12):
        alpha[i][m11 + i] = Fraction(1)
    beta = [[Fraction(0)] * a_dim for _ in range(b_dim)]
    for i in range(m23):
        beta[i][m12 + i] = Fraction(1)
    gamma = [[Fraction(0)] * b_dim for _ in range(e_zero)]
    for i in range(m34):
        gamma[i][m23 + i] = Fraction(1)

    p = random_invertible(rng, e_minus)
    g_a = random_invertible(rng, a_dim)
    g_b = random_invertible(rng, b_dim)
    q = random_invertible(rng, e_zero)
    return ZigZag(
        label, e_minus, e_zero, a_dim, b_dim,
        g_a * QMatrix.from_rows(alpha, cols=e_minus) * p.inverse(),
        g_b * QMatrix.from_rows(beta, cols=a_dim) * g_a.inverse(),
        q * QMatrix.from_rows(gamma, cols=b_dim) * g_b.inverse(),
    )


def int_matrices(rows: int, cols: int):
    return st.lists(st.integers(-1, 1), min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: QMatrix(rows, cols, entries)
    )


def _random_matrix(rng: random.Random, rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, [Fraction(rng.randint(-2, 2)) for _ in range(rows * cols)])


def conjugate_block_presentation(
    rng: random.Random, e: ExtensionPresentation
) -> tuple[ExtensionPresentation, ExtWitness]:
    """e moved by a random block-upper-triangular isomorphism of its total,
    and that isomorphism as a witness from e to the result.

    The factors move by random invertible maps and the corrections h_a,
    h_b are random, h_b inside ker gamma of the moved sub so that the
    moved total keeps a zero lower block in gamma.
    """
    s, qt = e.sub, e.quot
    p, a_s, b_s, q = (random_invertible(rng, n) for n in s.dims())
    a_q, b_q = random_invertible(rng, qt.a_dim), random_invertible(rng, qt.b_dim)
    kernel = kernel_basis(s.gamma).basis
    h_a = _random_matrix(rng, s.a_dim, qt.a_dim)
    h_b = b_s * kernel * _random_matrix(rng, kernel.cols, qt.b_dim)
    sub = ZigZag(
        s.open_label, s.e_minus, s.e_zero, s.a_dim, s.b_dim,
        a_s * s.alpha * p.inverse(), b_s * s.beta * a_s.inverse(), q * s.gamma * b_s.inverse(),
    )
    quot = ZigZag(qt.open_label, 0, 0, qt.a_dim, qt.b_dim, qt.alpha, b_q * qt.beta * a_q.inverse(), qt.gamma)
    # upper-right block of B * beta_1 = beta_2 * A, solved for u_2
    u = (b_s * e.u_block + h_b * qt.beta - sub.beta * h_a) * a_q.inverse()
    moved = ExtensionPresentation(sub, quot, u, e.class_vector)
    return moved, ExtWitness(IsoWitness(p, a_s, b_s, q), a_q, b_q, h_a, h_b)


def random_block_presentation(rng: random.Random, max_dim: int = 3) -> ExtensionPresentation:
    """A random valid block-regime presentation (B_sub > 0).

    In a normal form the sub is a sum of the exact interval blocks of
    random_valid_zigzag plus k copies of Q at B alone, so that it fails
    exactness at B by k; the quotient is beta_q = [0 | 1] from
    Q^k + Q^c onto Q^c, not exact at A when k > 0; and u sends the Q^k
    part of A_quot onto the k lone B coordinates of the sub, and the Q^c
    part anywhere into ker gamma_sub.  The total is then exact, and the
    result is that normal form moved by conjugate_block_presentation.
    """
    while True:
        m11, m12, m23, m34, m44, k, c = (rng.randint(0, 2) for _ in range(7))
        e_minus, a_dim = m11 + m12, m12 + m23
        b_dim, e_zero = m23 + k + m34, m34 + m44
        if b_dim and k + c and max(e_minus, a_dim, b_dim, e_zero, k + c) <= max_dim:
            break

    def unit_matrix(rows: int, cols: int, ones) -> QMatrix:
        entries = [Fraction(0)] * (rows * cols)
        for i, j in ones:
            entries[i * cols + j] = Fraction(1)
        return QMatrix(rows, cols, entries)

    sub = ZigZag(
        "Q_U[3]", e_minus, e_zero, a_dim, b_dim,
        unit_matrix(a_dim, e_minus, [(i, m11 + i) for i in range(m12)]),
        unit_matrix(b_dim, a_dim, [(i, m12 + i) for i in range(m23)]),
        unit_matrix(e_zero, b_dim, [(i, m23 + k + i) for i in range(m34)]),
    )
    quot = ZigZag(
        "0", 0, 0, k + c, c,
        QMatrix.zero(k + c, 0), unit_matrix(c, k + c, [(i, k + i) for i in range(c)]),
        QMatrix.zero(0, c),
    )
    u = [[Fraction(0)] * (k + c) for _ in range(b_dim)]
    for j in range(k):
        u[m23 + j][j] = Fraction(1)
    for j in range(k, k + c):
        for i in range(m23 + k):
            u[i][j] = Fraction(rng.randint(-2, 2))
    e = ExtensionPresentation(sub, quot, QMatrix.from_rows(u, cols=k + c), (Fraction(0),) * (k + c))
    return conjugate_block_presentation(rng, e)[0]


def random_nilpotent_upper(rng: random.Random, n: int) -> QMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randint(-2, 2))
    return QMatrix.from_rows(rows, cols=n)


def random_skew_pairing_gram(rng: random.Random, n: int) -> QMatrix:
    m = QMatrix.from_rows(
        [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    )
    return m - m.transpose()
