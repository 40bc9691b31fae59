"""Seeded inputs for the benchmark workloads, each with its known answer.

Inputs are plain data: ints, rationals written as ``"p/q"`` strings, and
``.zzl`` text.  The engine never runs here.  Every answer is fixed by
construction (conjugating exact interval blocks, moving a boundary kernel,
building a rank-r product); where a corruption could land anywhere,
sympy's ``DomainMatrix`` settles the answer instead.

Two random streams are used.  The *shape* stream is seeded by the workload
name alone and decides sizes and structure (how many zig-zags, which
interval multiplicities, which matrix sizes), so every seed carries the
same mix of operation sizes.  The *content* stream is seeded by ``--seed``
and decides every entry, conjugation, corruption and class.  That keeps
throughput comparable from seed to seed while the engine still sees fresh
numbers on each seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

Rows = list[list]

# -- exact helpers over ints / Fractions ------------------------------------


def rat(x) -> str:
    if isinstance(x, int):
        return str(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matmul(a: Rows, b: Rows, cols: int) -> Rows:
    inner = len(b)
    return [[sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a]


def zeros(r: int, c: int) -> Rows:
    return [[0] * c for _ in range(r)]


def identity(n: int) -> Rows:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def conjugator(rng: random.Random, n: int) -> tuple[Rows, Rows]:
    """A random invertible integer matrix g and its integer inverse, built
    from 2n elementary row operations (row_i += c * row_j) and sign flips."""
    g, g_inv = identity(n), identity(n)
    for i in range(n):
        if rng.random() < 0.5:
            g[i][i] = g_inv[i][i] = -1
    if n < 2:
        return g, g_inv
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        c = rng.choice((-1, 1))
        gi, gj = g[i], g[j]
        for k in range(n):
            gi[k] += c * gj[k]
        for row in g_inv:  # right-multiply by the inverse operation
            row[j] -= c * row[i]
    return g, g_inv


def dm(rows: Rows, cols: int):
    """sympy DomainMatrix over ZZ or QQ: the independent oracle."""
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

    fracs = [[Fraction(x) for x in row] for row in rows]
    if all(x.denominator == 1 for row in fracs for x in row):
        return DomainMatrix([[ZZ(x.numerator) for x in row] for row in fracs], (len(rows), cols), ZZ)
    data = [[QQ(x.numerator, x.denominator) for x in row] for row in fracs]
    return DomainMatrix(data, (len(rows), cols), QQ)


def oracle_rank(rows: Rows, cols: int) -> int:
    if not rows or cols == 0:
        return 0
    return dm(rows, cols).rank()


# -- zig-zags ---------------------------------------------------------------


def shape_of(m: tuple[int, ...]) -> tuple[int, int, int, int]:
    m11, m12, m23, m34, m44 = m
    return (m11 + m12, m12 + m23, m23 + m34, m34 + m44)


def random_multiplicities(shape_rng: random.Random, max_dim: int, top: int = 2) -> tuple[int, ...]:
    """Multiplicities of the five exact intervals E-, E-A, AB, BE0, E0."""
    while True:
        m = tuple(shape_rng.randint(0, top) for _ in range(5))
        dims = shape_of(m)
        if max(dims) <= max_dim and sum(dims):
            return m


def canonical(m: tuple[int, ...]) -> dict:
    """The interval-block normal form: alpha, beta, gamma are coordinate shifts."""
    m11, m12, m23, m34, m44 = m
    em, a, b, ez = shape_of(m)
    alpha = zeros(a, em)
    for i in range(m12):
        alpha[i][m11 + i] = 1
    beta = zeros(b, a)
    for i in range(m23):
        beta[i][m12 + i] = 1
    gamma = zeros(ez, b)
    for i in range(m34):
        gamma[i][m23 + i] = 1
    return {"dims": [em, a, b, ez], "alpha": alpha, "beta": beta, "gamma": gamma}


def conjugate(z: dict, p, ga, gb, q) -> dict:
    """Move z by invertible maps (p, ga, gb, q), each given as (g, g_inverse)."""
    em, a, b, ez = z["dims"]
    return {
        "dims": [em, a, b, ez],
        "alpha": matmul(matmul(ga[0], z["alpha"], em), p[1], em),
        "beta": matmul(matmul(gb[0], z["beta"], a), ga[1], a),
        "gamma": matmul(matmul(q[0], z["gamma"], b), gb[1], b),
    }


def random_moves(rng: random.Random, dims) -> list:
    return [conjugator(rng, n) for n in dims]


def exact_positions_failing(z: dict) -> list[str]:
    """Positions where exactness fails, by the rank criterion, via the oracle.

    Exact at A iff beta*alpha = 0 and rank alpha + rank beta = dim A;
    likewise at B with gamma*beta.
    """
    em, a, b, ez = z["dims"]
    ra = oracle_rank(z["alpha"], em)
    rb = oracle_rank(z["beta"], a)
    rg = oracle_rank(z["gamma"], b)
    out = []
    if any(any(x for x in row) for row in matmul(z["beta"], z["alpha"], em)) or ra + rb != a:
        out.append("A")
    if any(any(x for x in row) for row in matmul(z["gamma"], z["beta"], a)) or rb + rg != b:
        out.append("B")
    return out


def matrix_text(rows: Rows, cols: int) -> str:
    if not rows or cols == 0:
        return "[]"
    return "[" + ";".join(",".join(rat(x) for x in row) for row in rows) + "]"


def zigzag_text(name: str, label: str, z: dict) -> str:
    em, a, b, ez = z["dims"]
    return (
        f"zigzag {name} {{ open = {label}, eminus = {em}, ezero = {ez}, A = {a}, B = {b}, "
        f"alpha = {matrix_text(z['alpha'], em)}, beta = {matrix_text(z['beta'], a)}, "
        f"gamma = {matrix_text(z['gamma'], b)} }}"
    )


def zigzag_data(z: dict) -> dict:
    """Plain-data form the worker turns into a ZigZag."""
    em, a, b, ez = z["dims"]
    return {
        "dims": [em, a, b, ez],
        "alpha": [[rat(x) for x in row] for row in z["alpha"]],
        "beta": [[rat(x) for x in row] for row in z["beta"]],
        "gamma": [[rat(x) for x in row] for row in z["gamma"]],
    }


# -- gluing data ------------------------------------------------------------


def gluing_blocks(shape_rng: random.Random, rng: random.Random, psi: int):
    """Disjoint node ranges of width 2..4 (with inert gaps) and per-node
    rows u_k, columns v_k with u_k . v_k = 0, so each v_k u_k is nilpotent."""
    ranges = []
    pos = 0
    while pos + 2 <= psi:
        if shape_rng.random() < 0.15:
            pos += 1
            continue
        w = shape_rng.randint(2, min(4, psi - pos))
        ranges.append((pos, pos + w))
        pos += w
    if not ranges:
        ranges.append((0, 2))
    blocks = []
    for start, stop in ranges:
        w = stop - start
        u = [rng.randint(-2, 2) for _ in range(w - 1)] + [rng.choice((-1, 1))]
        v = [rng.randint(-2, 2) for _ in range(w - 1)]
        if not any(v):
            v[0] = 1
        v.append(-u[-1] * sum(ui * vi for ui, vi in zip(u, v)))
        blocks.append((start, stop, u, v))
    return blocks


def gluing_n(psi: int, blocks) -> Rows:
    n = zeros(psi, psi)
    for start, _stop, u, v in blocks:
        for i, vi in enumerate(v):
            for j, uj in enumerate(u):
                n[start + i][start + j] = vi * uj
    return n


def corrupt_entry(rng: random.Random, rows: Rows) -> Rows:
    out = [list(r) for r in rows]
    i = rng.randrange(len(out))
    j = rng.randrange(len(out[0]))
    out[i][j] += rng.choice((-1, 1))
    return out


# -- workload: check-corpus -------------------------------------------------

CLASS_POOL = ("0", "1", "-1", "2", "1/2")


def _corpus_doc(shape_rng: random.Random, rng: random.Random, index: int):
    """One .zzl document and the answer `zzl check` must give on it."""
    n_zz = int(10 * 20 ** shape_rng.random())  # log-uniform over 10..200
    n_nodes = int(61 * shape_rng.random() ** 2)
    n_glue = shape_rng.randint(1, 3)
    broken = index % 20 == 19
    lines = []
    failing = []
    for k in range(n_zz):
        z = canonical(random_multiplicities(shape_rng, 6, top=3))
        z = conjugate(z, *random_moves(rng, z["dims"]))
        name = f"z{k}"
        em, a, b, ez = z["dims"]
        targets = [key for key, r, c in (("alpha", a, em), ("beta", b, a), ("gamma", ez, b)) if r and c]
        if targets and rng.random() < 0.1:
            key = rng.choice(targets)
            z = dict(z, **{key: corrupt_entry(rng, z[key])})
            failing += [f"zigzag {name}: exactness at {p}" for p in exact_positions_failing(z)]
        lines.append(zigzag_text(name, "Q_U[3]", z))
    if n_nodes:
        lines.append(
            "zigzag ic { open = C_bulk, eminus = 1, ezero = 1, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }"
        )
        lines.append(
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }"
        )
        for j in range(n_nodes):
            lines.append(f"extension p{j} = ext(ic, sky) class {rng.choice(CLASS_POOL)}")
        lines.append("nodes { " + ", ".join(f"p{j}" for j in range(n_nodes)) + " }")
    for g in range(n_glue):
        psi = shape_rng.randint(4, 16)
        blocks = gluing_blocks(shape_rng, rng, psi)
        k = len(blocks)
        u = zeros(k, psi)
        v = zeros(psi, k)
        for r, (start, _stop, uk, vk) in enumerate(blocks):
            for j, x in enumerate(uk):
                u[r][start + j] = x
            for i, x in enumerate(vk):
                v[start + i][r] = x
        n = gluing_n(psi, blocks)
        if rng.random() < 1 / 3:
            n = corrupt_entry(rng, n)
            failing.append(f"gluing g{g}: supplied N matches v*u")
        lines.append(
            f"gluing g{g} {{ psi = {psi}, u = {matrix_text(u, psi)}, "
            f"v = {matrix_text(v, k)}, N = {matrix_text(n, psi)} }}"
        )
    if broken:
        # alternate a name error and a syntax error; both must exit 2
        if index % 40 == 19:
            lines.append("extension ghost = ext(nosuch, sky) class 0")
        else:
            lines.append("zigzag bad { open = , eminus = 1 }")
        failing = []
    exit_code = 2 if broken else (1 if failing else 0)
    return "\n".join(lines) + "\n", {"answer": [exit_code, sorted(failing)]}


def check_corpus(seed: int, n_ops: int, workdir: Path) -> tuple[list, list]:
    shape_rng = random.Random("check-corpus/shapes")
    rng = random.Random(seed)
    docs = workdir / "corpus"
    docs.mkdir(parents=True, exist_ok=True)
    ops, expected = [], []
    for i in range(n_ops):
        text, answer = _corpus_doc(shape_rng, rng, i)
        path = docs / f"doc{i:04d}.zzl"
        path.write_text(text, encoding="latin-1")
        ops.append({"kind": "check", "path": str(path)})
        expected.append(answer)
    return ops, expected


# -- workload: kernel-scale -------------------------------------------------

KERNEL_KINDS = ("assemble", "gluing", "wfilt", "rank")
#: nodes, psi, matrix dimension, matrix dimension: the lower part of the
#: ranges where single operations take 0.05-0.5 s, so that a timed run makes
#: several passes
KERNEL_SIZES = {"assemble": (60, 90), "gluing": (60, 100), "wfilt": (8, 11), "rank": (24, 36)}


def _jordan_type(d: int, slot: int) -> list[int]:
    """A fixed family of Jordan types of total size d, varied by slot."""
    top = max(2, d // 2 - slot % 3)
    blocks = [top]
    rest = d - top
    while rest > 0:
        s = min(rest, 1 + (len(blocks) + slot) % 3)
        blocks.append(s)
        rest -= s
    return blocks


def graded_dims(jordan: list[int], center: int) -> list[list[int]]:
    out: dict[int, int] = {}
    for s in jordan:
        for w in range(-(s - 1), s, 2):
            out[center + w] = out.get(center + w, 0) + 1
    return [[w, out[w]] for w in sorted(out)]


def kernel_scale(seed: int, n_ops: int) -> tuple[list, list]:
    shape_rng = random.Random("kernel-scale/shapes")
    rng = random.Random(seed)
    ops, expected = [], []
    for i in range(n_ops):
        kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        lo, hi = KERNEL_SIZES[kind]
        size = shape_rng.randint(lo, hi)
        if kind == "assemble":
            classes = [rng.choice(CLASS_POOL) for _ in range(size)]
            ops.append({"kind": kind, "bulk": "C_bulk", "classes": classes})
            expected.append({"answer": [True, ["0" if c == "0" else "1" for c in classes]]})
        elif kind == "gluing":
            blocks = gluing_blocks(shape_rng, rng, size)
            n = gluing_n(size, blocks)
            corrupted = shape_rng.random() < 0.5
            if corrupted:
                n = corrupt_entry(rng, n)
            ops.append({
                "kind": kind, "psi": size,
                "blocks": [[f"n{k}", s, e, u, v] for k, (s, e, u, v) in enumerate(blocks)],
                "N": n,
            })
            failing = ["supplied N matches v*u"] if corrupted else []
            expected.append({"answer": [not corrupted, failing]})
        elif kind == "wfilt":
            jordan = _jordan_type(size, i // len(KERNEL_KINDS))
            j = zeros(size, size)
            pos = 0
            for s in jordan:
                for t in range(s - 1):
                    j[pos + t][pos + t + 1] = 1
                pos += s
            g, g_inv = conjugator(rng, size)
            matrix = matmul(matmul(g, j, size), g_inv, size)
            center = rng.randint(-3, 3)
            ops.append({"kind": kind, "matrix": matrix, "center": center})
            expected.append({"answer": graded_dims(jordan, center), "jordan": jordan})
        else:
            r = shape_rng.randint(size // 4, 3 * size // 4)
            x = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(size)]
            y = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(r)]
            m = matmul(x, y, size)
            true_rank = oracle_rank(m, size)  # at most r; the oracle decides
            ops.append({"kind": kind, "matrix": m})
            expected.append({"answer": [true_rank, size - true_rank]})
    return ops, expected


# -- workload: iso-certify --------------------------------------------------

ISO_KINDS = (
    "default", "strict_boundary_no", "classify", "profile_differs", "strict_ab",
    "classify", "ext_collapsed", "ext_block", "strict_boundary_yes", "classify",
)


def _auto_scaling(m: tuple[int, ...], rng: random.Random):
    """An automorphism of the normal form: one nonzero scalar per interval,
    returned as the induced diagonal maps on E-, A, B, E0."""
    m11, m12, m23, m34, m44 = m
    lam = [[rng.choice((-2, -1, 2, 3)) for _ in range(k)] for k in m]
    diag = [lam[0] + lam[1], lam[1] + lam[2], lam[2] + lam[3], lam[3] + lam[4]]
    out = []
    for d in diag:
        n = len(d)
        g = [[Fraction(d[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        gi = [[Fraction(1, d[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        out.append((g, gi))
    return out


def _compose(x, y):
    """(g, g^-1) of x*y."""
    n = len(x[0])
    return matmul(x[0], y[0], n), matmul(y[1], x[1], n)


def _iso_pair(kind: str, shape_rng: random.Random, rng: random.Random):
    if kind == "default":
        # one size class, dims (4, 4, 4, 4) with every rank profile k, so the
        # heaviest searches form one cluster and the tail estimate stays steady
        k = shape_rng.randint(0, 4)
        m = (4 - k, k, 4 - k, k, 4 - k)
        z1 = conjugate(canonical(m), *random_moves(rng, shape_of(m)))
        z2 = conjugate(z1, *random_moves(rng, shape_of(m)))
        return {"z1": zigzag_data(z1), "z2": zigzag_data(z2), "strict": False}, True
    if kind == "strict_ab":
        m = random_multiplicities(shape_rng, 4, top=2)
        em, a, b, ez = shape_of(m)
        z1 = conjugate(canonical(m), *random_moves(rng, shape_of(m)))
        ident = lambda n: (identity(n), identity(n))  # noqa: E731
        z2 = conjugate(z1, ident(em), conjugator(rng, a), conjugator(rng, b), ident(ez))
        return {"z1": zigzag_data(z1), "z2": zigzag_data(z2), "strict": True}, True
    if kind == "strict_boundary_yes":
        # boundary moves that extend to an automorphism: a strict witness exists
        m = random_multiplicities(shape_rng, 6, top=2)
        base = canonical(m)
        moves1 = random_moves(rng, shape_of(m))
        z1 = conjugate(base, *moves1)
        auto = _auto_scaling(m, rng)
        moves2 = [_compose(mv, au) for mv, au in zip(moves1, auto)]
        moves2[1] = conjugator(rng, shape_of(m)[1])
        moves2[2] = conjugator(rng, shape_of(m)[2])
        z2 = conjugate(base, *moves2)
        return {"z1": zigzag_data(z1), "z2": zigzag_data(z2), "strict": True}, True
    if kind == "strict_boundary_no":
        # p moves ker(alpha): a*alpha1 = alpha2 would force equal kernels
        while True:
            m = random_multiplicities(shape_rng, 6, top=2)
            if m[0] and m[1]:
                break
        em, a, b, ez = shape_of(m)
        base = canonical(m)
        i = rng.randrange(m[0])
        j = m[0] + rng.randrange(m[1])
        shear = identity(em)
        shear[j][i] = 1
        shear_inv = identity(em)
        shear_inv[j][i] = -1
        moves = random_moves(rng, shape_of(m))
        z1 = conjugate(base, *moves)
        moved = [_compose(moves[0], (shear, shear_inv))] + random_moves(rng, (a, b)) + [moves[3]]
        z2 = conjugate(base, *moved)
        return {"z1": zigzag_data(z1), "z2": zigzag_data(z2), "strict": True}, False
    if kind == "profile_differs":
        # same dims, one E-A and one B-E0 interval traded for E-, AB and E0
        while True:
            m = random_multiplicities(shape_rng, 5, top=2)
            if m[1] and m[3]:
                break
        m2 = (m[0] + 1, m[1] - 1, m[2] + 1, m[3] - 1, m[4] + 1)
        if rng.random() < 0.5:
            m, m2 = m2, m
        z1 = conjugate(canonical(m), *random_moves(rng, shape_of(m)))
        z2 = conjugate(canonical(m2), *random_moves(rng, shape_of(m2)))
        return {"z1": zigzag_data(z1), "z2": zigzag_data(z2), "strict": False}, False
    raise ValueError(kind)


def _ext_pair(kind: str, shape_rng: random.Random, rng: random.Random, slot: int):
    if kind == "ext_collapsed":
        # sub with B = 0; the stored class moves by GL(r), so only zero-ness counts
        while True:
            m = (shape_rng.randint(0, 2), shape_rng.randint(0, 2), 0, 0, shape_rng.randint(0, 2))
            if sum(shape_of(m)):
                break
        r = shape_rng.randint(1, 3)
        sub1 = conjugate(canonical(m), *random_moves(rng, shape_of(m)))
        sub2 = conjugate(sub1, *random_moves(rng, shape_of(m)))

        def cls(zero: bool) -> list[str]:
            if zero:
                return ["0"] * r
            c = [rng.choice(CLASS_POOL) for _ in range(r)]
            if all(x == "0" for x in c):
                c[rng.randrange(r)] = "1"
            return c

        zero1 = slot % 4 == 0
        zero2 = zero1 if slot % 8 != 4 else not zero1
        op = {"regime": "collapsed", "sub1": zigzag_data(sub1), "sub2": zigzag_data(sub2),
              "r": r, "class1": cls(zero1), "class2": cls(zero2)}
        return op, zero1 == zero2
    # block regime: u = beta_sub * h keeps the total exact (the class is trivial)
    while True:
        m = random_multiplicities(shape_rng, 4, top=2)
        if m[2]:
            break
    em, a, b, ez = shape_of(m)
    sub1 = conjugate(canonical(m), *random_moves(rng, shape_of(m)))
    same = slot % 3 != 2
    if same:
        sub2 = conjugate(sub1, *random_moves(rng, shape_of(m)))
    else:
        other = m
        for cand in ((m[0] + 1, m[1] - 1, m[2] + 1, m[3] - 1, m[4] + 1),
                     (m[0] - 1, m[1] + 1, m[2] - 1, m[3] + 1, m[4] - 1)):
            if min(cand) >= 0 and cand[2]:
                other = cand
                break
        same = other == m
        sub2 = conjugate(canonical(other), *random_moves(rng, shape_of(other)))

    def u_block(sub: dict) -> Rows:
        h = [[rng.randint(-2, 2)] for _ in range(a)]
        return matmul(sub["beta"], h, 1)

    op = {"regime": "block", "sub1": zigzag_data(sub1), "sub2": zigzag_data(sub2),
          "u1": [[rat(x) for x in row] for row in u_block(sub1)],
          "u2": [[rat(x) for x in row] for row in u_block(sub2)]}
    return op, same


def iso_certify(seed: int, n_ops: int) -> tuple[list, list]:
    shape_rng = random.Random("iso-certify/shapes")
    rng = random.Random(seed)
    ops, expected = [], []
    for i in range(n_ops):
        kind = ISO_KINDS[i % len(ISO_KINDS)]
        slot = i // len(ISO_KINDS)
        if kind.startswith("ext_"):
            op, found = _ext_pair(kind, shape_rng, rng, slot)
            ops.append(dict(op, kind="ext_iso"))
            expected.append({"answer": found, "case": kind})
        elif kind == "classify":
            # duality swaps the boundary, so only a symmetric one has self-dual classes
            e = shape_rng.randint(1, 2)
            boundary = [e, e]
            pool = ["1", "-1", "2", "-2", "1/2", "-1/3", "3", "5/7"]
            nonzero = rng.sample(pool, shape_rng.randint(3, 6))
            grid = nonzero[:]
            grid.insert(rng.randrange(len(grid) + 1), "0")
            ops.append({"kind": "classify", "boundary": boundary, "grid": grid})
            expected.append({"answer": [["0"], nonzero], "case": kind})
        else:
            op, found = _iso_pair(kind, shape_rng, rng)
            ops.append(dict(op, kind="iso"))
            expected.append({"answer": found, "case": kind})
    return ops, expected


# -- entry point ------------------------------------------------------------

#: Operations in one pass over a workload's inputs; the traced run makes
#: exactly one.  On a 2-vCPU host a pass of check-corpus or kernel-scale takes
#: 6-9 s, so a timed run makes several.  iso-certify's tail is a few slow
#: searches, so a timed run makes one pass of about 20 s over distinct
#: inputs: its highest ten samples then come from ten different inputs rather
#: than from repeats of two or three.
PASS_OPS = {"check-corpus": 240, "kernel-scale": 48, "iso-certify": 960}


def write_inputs(workload: str, seed: int, workdir: Path, n_ops: int | None = None) -> int:
    """Write ``inputs.json`` (what the engine sees) and ``expected.json``
    (what it must answer) into workdir; returns the number of operations."""
    n_ops = PASS_OPS[workload] if n_ops is None else n_ops
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "check-corpus":
        ops, expected = check_corpus(seed, n_ops, workdir)
    elif workload == "kernel-scale":
        ops, expected = kernel_scale(seed, n_ops)
    elif workload == "iso-certify":
        ops, expected = iso_certify(seed, n_ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "inputs.json").write_text(json.dumps({"workload": workload, "ops": ops}))
    (workdir / "expected.json").write_text(json.dumps(expected))
    return len(ops)
