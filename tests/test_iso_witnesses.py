"""Byte-identity gate for the isomorphism witnesses.

`fixtures/iso_witnesses.json` records, for seeded inputs built with
`generators.py`, the exact result of

- `iso_witness` in default and strict mode, on pairs conjugated with
  the boundaries fixed (a strict witness exists), pairs conjugated on
  every space (a default witness exists) and pairs of equal dimensions
  drawn independently (a witness may not exist);
- `ext_isomorphism_witness` in the collapsed regime (B_sub = 0, stored
  class) and in the block regime (a u-block), on isomorphic and on
  non-isomorphic subs;
- `classify_selfdual_rank_one` on `DEFAULT_CLASS_GRID`.

Every witness matrix and every None is written out, matrices with
their shapes.  The test rebuilds the inputs and replays the calls; any
change in bytes, of an input or of a result, is a failure.  Every stored
positive witness is also read back and re-verified against the stored
inputs with `verify_witness` or `verify_ext_witness`.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python tests/test_iso_witnesses.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from generators import random_invertible, random_valid_zigzag
from zzl.extension import (
    ExtensionPresentation,
    ExtWitness,
    classify_selfdual_rank_one,
    ext_isomorphism_witness,
    make_extension,
    verify_ext_witness,
)
from zzl.linalg import QMatrix, format_rational, parse_rational, serialize_matrix
from zzl.zigzag import (
    IsoWitness,
    ZigZag,
    compressed_shape,
    iso_witness,
    std_skyscraper,
    verify_witness,
)

FIXTURE = Path(__file__).parent / "fixtures" / "iso_witnesses.json"


def _matrix(m: QMatrix) -> str:
    return f"{m.rows}x{m.cols} {serialize_matrix(m)}"


def _zigzag(z: ZigZag) -> dict:
    return {"label": z.open_label, "dims": list(z.dims()), "alpha": _matrix(z.alpha),
            "beta": _matrix(z.beta), "gamma": _matrix(z.gamma)}


def _presentation(e: ExtensionPresentation) -> dict:
    return {"sub": _zigzag(e.sub), "quot": _zigzag(e.quot),
            "u": None if e.u_block is None else _matrix(e.u_block),
            "class": [format_rational(c) for c in e.class_vector]}


def _iso(w: IsoWitness | None) -> dict | None:
    return None if w is None else {k: _matrix(getattr(w, k)) for k in ("p", "a", "b", "q")}


def _conjugate(rng: random.Random, z: ZigZag, strict: bool = False) -> ZigZag:
    """z moved by random invertible maps; strict keeps both boundaries fixed."""
    em, a, b, ez = z.dims()
    p = QMatrix.identity(em) if strict else random_invertible(rng, em)
    g_a, g_b = random_invertible(rng, a), random_invertible(rng, b)
    q = QMatrix.identity(ez) if strict else random_invertible(rng, ez)
    return ZigZag(
        z.open_label, em, ez, a, b,
        g_a * z.alpha * p.inverse(), g_b * z.beta * g_a.inverse(), q * z.gamma * g_b.inverse(),
    )


def _same_dims(rng: random.Random, z: ZigZag, max_dim: int) -> ZigZag:
    """An independent random zig-zag with the dimensions of z."""
    while True:
        other = random_valid_zigzag(rng, max_dim=max_dim)
        if other.dims() == z.dims():
            return other


def _sub(rng: random.Random, max_dim: int, collapsed: bool) -> ZigZag:
    """A random valid sub with B = 0 (collapsed) or B > 0 (block regime)."""
    while True:
        z = random_valid_zigzag(rng, max_dim=max_dim)
        if (z.b_dim == 0) == collapsed:
            return z


def _distinct_subs(rng: random.Random, max_dim: int) -> tuple[ZigZag, ZigZag]:
    """Two block-regime subs of equal dimensions and different ranks."""
    while True:
        z1, z2 = (_sub(rng, max_dim, collapsed=False) for _ in range(2))
        if z1.dims() == z2.dims() and compressed_shape(z1) != compressed_shape(z2):
            return z1, z2


def iso_cases() -> list[dict]:
    out = []
    for strict in (False, True):
        for seed in range(15):
            rng = random.Random(seed)
            z1 = random_valid_zigzag(rng, max_dim=3 + seed % 2)
            if seed % 3 == 2:
                z2 = _same_dims(rng, z1, 3 + seed % 2)
            else:
                z2 = _conjugate(rng, z1, strict=seed % 3 == 0)
            out.append({"call": "iso_witness", "strict": strict, "seed": seed,
                        "z1": _zigzag(z1), "z2": _zigzag(z2),
                        "result": _iso(iso_witness(z1, z2, strict=strict))})
    return out


def ext_cases() -> list[dict]:
    out = []
    for seed in range(9):
        rng = random.Random(100 + seed)
        r = 1 + seed % 3
        sub1 = _sub(rng, 3, collapsed=True)
        sub2 = _conjugate(rng, sub1)
        classes = [[Fraction(rng.randint(-2, 2)) for _ in range(r)] for _ in range(2)]
        if seed % 4 == 0:
            classes[0] = [Fraction(0)] * r
        e1 = make_extension(sub1, std_skyscraper(r), classes[0])
        e2 = make_extension(sub2, std_skyscraper(r), classes[1])
        out.append(_ext_record("collapsed", seed, e1, e2))
    for seed in range(12):
        rng = random.Random(200 + seed)
        if seed % 3 == 2:
            sub1, sub2 = _distinct_subs(rng, 3)
        else:
            sub1 = _sub(rng, 3 + seed % 2, collapsed=False)
            sub2 = _conjugate(rng, sub1)
        # u in im(beta_sub) keeps the total exact at B
        pres = []
        for sub in (sub1, sub2):
            h = QMatrix.column([rng.randint(-2, 2) for _ in range(sub.a_dim)])
            pres.append(make_extension(sub, std_skyscraper(1), sub.beta * h))
        out.append(_ext_record("block", seed, *pres))
    return out


def _ext_record(regime: str, seed: int, e1, e2) -> dict:
    w = ext_isomorphism_witness(e1, e2)
    if w is not None:
        w = {"sub": _iso(w.sub), **{k: _matrix(getattr(w, k)) for k in ("quot_a", "quot_b", "h_a", "h_b")}}
    return {"call": "ext_isomorphism_witness", "regime": regime, "seed": seed,
            "e1": _presentation(e1), "e2": _presentation(e2), "result": w}


def classify_cases() -> list[dict]:
    out = []
    for boundary in ((1, 1), (2, 2), (3, 3)):
        reps = classify_selfdual_rank_one(boundary)
        out.append({"call": "classify_selfdual_rank_one", "boundary": list(boundary), "result": [
            {"class": [format_rational(r.ext_class.value), format_rational(r.ext_class.normalized)],
             "presentation": _presentation(r.presentation), "is_split": r.is_split,
             "is_self_dual": r.is_self_dual,
             "grid_members": [format_rational(c) for c in r.grid_members]}
            for r in reps
        ]})
    return out


def record() -> list[dict]:
    return iso_cases() + ext_cases() + classify_cases()


def test_iso_witnesses_are_byte_identical():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = record()
    assert len(got) == len(expected)
    mismatched = [
        {k: e[k] for k in ("call", "strict", "regime", "seed", "boundary") if k in e}
        for e, g in zip(expected, got) if e != g
    ]
    assert not mismatched, mismatched[:10]


def test_fixture_covers_both_answers():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for call, mode in (("iso_witness", False), ("iso_witness", True),
                       ("ext_isomorphism_witness", "collapsed"),
                       ("ext_isomorphism_witness", "block")):
        results = [e["result"] for e in expected
                   if e["call"] == call and e.get("strict", e.get("regime")) == mode]
        assert any(isinstance(r, dict) for r in results), (call, mode)
        assert any(r is None for r in results), (call, mode)


def _read_matrix(text: str) -> QMatrix:
    """Inverse of _matrix."""
    shape, _, body = text.partition(" ")
    rows, cols = map(int, shape.split("x"))
    entries = [] if body == "[]" else body[1:-1].replace(";", ",").split(",")
    return QMatrix(rows, cols, [parse_rational(x) for x in entries])


def _read_zigzag(d: dict) -> ZigZag:
    e_minus, a, b, e_zero = d["dims"]
    return ZigZag(d["label"], e_minus, e_zero, a, b,
                  *(_read_matrix(d[k]) for k in ("alpha", "beta", "gamma")))


def _read_iso(d: dict) -> IsoWitness:
    return IsoWitness(*(_read_matrix(d[k]) for k in ("p", "a", "b", "q")))


def _read_presentation(d: dict) -> ExtensionPresentation:
    return ExtensionPresentation(
        _read_zigzag(d["sub"]), _read_zigzag(d["quot"]),
        None if d["u"] is None else _read_matrix(d["u"]),
        tuple(parse_rational(c) for c in d["class"]),
    )


def test_stored_witnesses_verify_against_stored_inputs():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    checked = 0
    for e in expected:
        w = e["result"]
        if e["call"] == "iso_witness" and w is not None:
            z1, z2 = _read_zigzag(e["z1"]), _read_zigzag(e["z2"])
            assert verify_witness(z1, z2, _read_iso(w)), e["seed"]
            if e["strict"]:
                assert _read_iso(w).p == QMatrix.identity(z1.e_minus)
                assert _read_iso(w).q == QMatrix.identity(z1.e_zero)
            checked += 1
        elif e["call"] == "ext_isomorphism_witness" and w is not None:
            witness = ExtWitness(
                _read_iso(w["sub"]),
                *(_read_matrix(w[k]) for k in ("quot_a", "quot_b", "h_a", "h_b")),
            )
            e1, e2 = _read_presentation(e["e1"]), _read_presentation(e["e2"])
            assert verify_ext_witness(e1, e2, witness), (e["regime"], e["seed"])
            checked += 1
    assert checked == sum(
        1 for e in expected if e["call"] != "classify_selfdual_rank_one" and e["result"]
    )


if __name__ == "__main__":
    entries = record()
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"{len(entries)} entries -> {FIXTURE}\n")
