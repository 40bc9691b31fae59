"""Acceptance suite: one test per release criterion, exact tolerances.

Every expected value here is either structural (constructor output
compared entrywise over the rationals) or derived from an independent
oracle inside the test; nothing is tuned to the implementation under
test.  Each criterion prints one PASS line on success; a pytest failure
is the FAIL line.
"""

import dataclasses
import itertools
import random
import string
from fractions import Fraction
from pathlib import Path

from generators import (
    random_skew_pairing_gram,
    random_valid_zigzag,
)
from zzl.linalg import QMatrix, block_assemble
from zzl.monodromy import (
    Pairing,
    check_weight_conditions,
    jordan_nilpotent,
    nilpotent_log,
    pl_operator,
    unipotent_exp,
    weight_filtration,
)
from zzl.zigzag import (
    MultiZigZag,
    ZigZag,
    compressed_shape,
    direct_sum,
    dualize,
    iso_witness,
    std_corrected,
    std_ic,
    std_skyscraper,
    validate,
    verify_witness,
)
from zzl.extension import (
    ExtensionPresentation,
    classify_selfdual_rank_one,
    ext_isomorphism_witness,
    extension_class,
    make_extension,
    verify_ext_witness,
)
from zzl.assembly import (
    GluingBlock,
    NodeDatum,
    assemble,
    assemble_gluing,
    verify_gluing,
    verify_shadow_compat,
)
from zzl.skeleton import skeleton_of, to_dot
from zzl.lang import Document, parse, serialize
from zzl.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
LABEL = "Q_U[3]"


def _passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_table1_reproduction():
    ic = std_ic(LABEL, 1, 1)
    assert ic == ZigZag(
        LABEL, 1, 1, 0, 0, QMatrix.zero(0, 1), QMatrix.zero(0, 0), QMatrix.zero(1, 0)
    )
    sky = std_skyscraper(1)
    assert sky == ZigZag(
        "0", 0, 0, 1, 1, QMatrix.zero(1, 0), QMatrix.identity(1), QMatrix.zero(0, 1)
    )
    corrected = std_corrected(LABEL, 1, 1)
    assert corrected == ZigZag(
        LABEL, 1, 1, 1, 1, QMatrix.zero(1, 1), QMatrix.identity(1), QMatrix.zero(1, 1)
    )
    for r in range(1, 6):
        labels = [f"p{k}" for k in range(1, r + 1)]
        multi = MultiZigZag.skyscrapers(labels)
        total = multi.total()
        folded = std_skyscraper(1)
        for _ in range(r - 1):
            folded = direct_sum(folded, std_skyscraper(1))
        assert total == folded == std_skyscraper(r)
        assert multi.labels == tuple(labels)
    _passed(1, "all four standard rows rebuilt with exact rational equality")


def test_criterion_2_table2_reproduction():
    sub = std_corrected(LABEL, 1, 1)  # a sub with B = Q, so the block is honest
    u = QMatrix.from_rows([[1]])
    e = make_extension(sub, std_skyscraper(1), u)
    assert e.total.beta == block_assemble(
        [[sub.beta, u], [None, QMatrix.identity(1)]], [1, 1], [1, 1]
    )
    ic = std_ic(LABEL, 1, 1)
    split = make_extension(ic, std_skyscraper(1), 0)
    corrected = make_extension(ic, std_skyscraper(1), 1)
    assert compressed_shape(split.total) == compressed_shape(corrected.total)
    assert extension_class(split).normalized == 0
    assert extension_class(corrected).normalized == 1
    _passed(2, "beta block matches [[beta,u],[0,1]]; split and corrected share "
               "the compressed shape but not the class")


def test_criterion_3_self_duality():
    for z in (std_ic(LABEL, 1, 1), std_skyscraper(1), std_corrected(LABEL, 1, 1)):
        w = iso_witness(dualize(z), z)
        assert w is not None and verify_witness(dualize(z), z, w)
    rng = random.Random(20260810)
    for i in range(200):
        z = random_valid_zigzag(rng, max_dim=4)
        assert max(z.dims()) <= 4
        dd = dualize(dualize(z))
        assert validate(dualize(z)) == []
        w = iso_witness(dd, z)
        assert w is not None and verify_witness(dd, z, w), i
    _passed(3, "duality fixes the standard objects and squares to the identity "
               "on 200 random valid zig-zags (dims <= 4), exactly")


def test_criterion_4_uniqueness_classification():
    grid = (
        Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
        Fraction(1, 2), Fraction(-1, 3),
    )
    reps = classify_selfdual_rank_one((1, 1), grid=grid)
    assert len(reps) == 2
    split, corrected = reps
    assert split.is_split and split.is_self_dual
    assert not corrected.is_split and corrected.is_self_dual
    assert set(split.grid_members) == {Fraction(0)}
    assert set(corrected.grid_members) == set(grid) - {Fraction(0)}
    # every pairwise verdict certified: a verified witness when classes agree,
    # a certified refusal otherwise
    pres = {c: make_extension(std_ic(LABEL, 1, 1), std_skyscraper(1), c) for c in grid}
    for c1, c2 in itertools.product(grid, repeat=2):
        w = ext_isomorphism_witness(pres[c1], pres[c2])
        if (c1 == 0) == (c2 == 0):
            assert w is not None and verify_ext_witness(pres[c1], pres[c2], w)
        else:
            assert w is None
    _passed(4, "exactly two classes on the grid, one non-split self-dual, "
               "all 49 pairwise verdicts witness-certified")


def test_criterion_5_gluing_relation_and_mutations():
    local = GluingBlock(QMatrix.from_rows([[1, 0]]), QMatrix.from_columns([[0, 1]]))
    for r in (1, 2, 3):
        blocks = {f"p{k}": local for k in range(1, r + 1)}
        ranges = [(f"p{k}", (2 * (k - 1), 2 * k)) for k in range(1, r + 1)]
        g = assemble_gluing(blocks, 2 * r, ranges)
        assert g.n == g.v * g.u
        assert (g.n * g.n).is_zero()
        assert verify_gluing(g).passed

    blocks = {
        "p1": GluingBlock(QMatrix.from_rows([[1, 2]]), QMatrix.from_columns([[-2, 1]])),
        "p2": GluingBlock(QMatrix.from_rows([[0, 1]]), QMatrix.from_columns([[1, 0]])),
        "p3": GluingBlock(QMatrix.from_rows([[3, 1]]), QMatrix.from_columns([[-1, 3]])),
    }
    g = assemble_gluing(blocks, 6, [("p1", (0, 2)), ("p2", (2, 4)), ("p3", (4, 6))])
    assert verify_gluing(g).passed
    mutants = 0
    killed = 0
    for field_name in ("u", "v", "n"):
        matrix = getattr(g, field_name)
        for i in range(matrix.rows):
            for j in range(matrix.cols):
                entries = list(matrix.entries)
                entries[i * matrix.cols + j] += 1
                mutant = dataclasses.replace(
                    g, **{field_name: QMatrix(matrix.rows, matrix.cols, tuple(entries))}
                )
                mutants += 1
                if not verify_gluing(mutant).passed:
                    killed += 1
    assert mutants >= 50
    assert killed == mutants, f"only {killed}/{mutants} mutants killed"
    _passed(5, f"N = vu and N^2 = 0 exactly for r in {{1,2,3}}; "
               f"{killed}/{mutants} single-entry mutants killed")


def test_criterion_6_shadow_compatibility():
    def node(label, cls):
        return NodeDatum(
            label, make_extension(std_ic("C_bulk", 1, 1), std_skyscraper(1), cls)
        )

    cases = 0
    for r in range(0, 6):
        for classes in itertools.product((0, 1), repeat=r):
            nodes = [node(f"p{k + 1}", c) for k, c in enumerate(classes)]
            datum = assemble("C_bulk", nodes)
            report = verify_shadow_compat(datum)
            assert report.passed, (classes, report.failures())
            assert datum.shadow.class_vector == tuple(
                Fraction(c) for c in classes
            )
            if r:
                cases += 1
    assert cases == 62
    # negative controls: corrupted class vector and corrupted quotient
    datum = assemble("C_bulk", [node("p1", 1), node("p2", 0)])
    bad_class = dataclasses.replace(
        datum,
        shadow=ExtensionPresentation(
            datum.shadow.sub, datum.shadow.quot, None, (Fraction(1), Fraction(1))
        ),
    )
    report = verify_shadow_compat(bad_class)
    assert not report.passed and any("p2" in c.name for c in report.failures())
    bad_quot = dataclasses.replace(
        datum,
        shadow=ExtensionPresentation(
            datum.shadow.sub, std_skyscraper(3), None,
            (Fraction(1), Fraction(0), Fraction(0)),
        ),
    )
    assert not verify_shadow_compat(bad_quot).passed
    _passed(6, "all 62 class vectors with r <= 5 verified; negative controls fail")


def test_criterion_7_monodromy_formulas():
    rng = random.Random(314159)
    count = 0
    while count < 100:
        dim = rng.randint(1, 6)
        q = Pairing(random_skew_pairing_gram(rng, dim))
        assert q.is_skew
        delta = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        t = pl_operator(delta, q)
        d = t - QMatrix.identity(dim)
        assert (d * d).is_zero()
        count += 1

    round_trips = 0
    for dim in range(1, 5):
        positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for values in itertools.product((-1, 0, 1), repeat=len(positions)):
            rows = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
            for (i, j), v in zip(positions, values):
                rows[i][j] = Fraction(v)
            t = QMatrix.from_rows(rows, cols=dim)
            n = nilpotent_log(t)
            assert unipotent_exp(n) == t
            assert nilpotent_log(unipotent_exp(n)).matrix == n.matrix
            round_trips += 1
    assert round_trips == 1 + 3 + 27 + 729

    jordan_types = 0
    for total in range(1, 7):
        for part in _partitions(total):
            n = jordan_nilpotent(part)
            w = weight_filtration(n, 0)
            assert check_weight_conditions(n, w) == [], part
            jordan_types += 1
    assert jordan_types == 29
    _passed(7, f"(T-I)^2 = 0 on 100 skew pairings; {round_trips} exact log/exp "
               f"round trips; both filtration conditions on all {jordan_types} "
               "Jordan types of dim <= 6")


def test_criterion_8_skeleton():
    def datum(r):
        nodes = [
            NodeDatum(
                f"p{k + 1}",
                make_extension(std_ic("C_bulk", 1, 1), std_skyscraper(1), 1),
            )
            for k in range(r)
        ]
        return assemble("C_bulk", nodes)

    for r in range(0, 6):
        sk = skeleton_of(datum(r))
        assert len({sk.bulk_vertex, *sk.node_vertices}) == r + 1
        assert len(sk.edges) == 2 * r
        assert to_dot(sk) == to_dot(skeleton_of(datum(r)))
    golden = (FIXTURES / "skeleton_three_nodes.dot").read_text()
    result = run(["skeleton", str(FIXTURES / "three_nodes.zzl"), "--format", "dot"])
    assert result.exit_code == 0
    assert result.payload == golden
    assert golden.count("->") == 6
    assert golden.count("[kind=") == 4
    _passed(8, "vertex and edge counts match r+1 / 2r for r <= 5; DOT output "
               "byte-stable and equal to the hand-audited golden file")


def test_criterion_9_format_round_trip_and_fuzz():
    corpus = sorted(FIXTURES.glob("*.zzl"))
    assert corpus
    round_tripped = 0
    for path in corpus:
        result = parse(path.read_text(encoding="latin-1"))
        if isinstance(result, list):
            assert all(d.line >= 1 and d.column >= 1 for d in result)
            continue
        out = serialize(result)
        again = parse(out)
        assert isinstance(again, Document)
        assert result.structurally_equal(again), path
        round_tripped += 1
    assert round_tripped >= 5

    rng = random.Random(987654321)
    alphabet = (
        string.ascii_letters + string.digits
        + "{}[](),;:=/->#\" \n\t-_" + "\x00\xff\x80\x07"
    )
    seeds = [
        "", "zigzag", "nodes {", "space V dim", "extension e = ext(a,b) class",
        "map f : A -> B = [1/",
        (FIXTURES / "three_nodes.zzl").read_text(),
    ]
    for trial in range(10_000):
        if trial % 5 == 0 and seeds:
            base = seeds[trial % len(seeds)]
            if base:
                pos = rng.randrange(len(base))
                text = base[:pos] + rng.choice(alphabet) + base[pos + 1 :]
            else:
                text = ""
        else:
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 60))
            )
        result = parse(text)
        if isinstance(result, list):
            assert result, "failed parse must carry diagnostics"
            for d in result:
                assert d.line >= 1 and d.column >= 1
        else:
            assert isinstance(result, Document)
    _passed(9, "round trips are structural identities on the corpus; 10000 "
               "fuzz inputs produced diagnostics only, all positioned")


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest
