"""Byte-identity gate for the `.zzl` parser.

`fixtures/lang_diagnostics.json` records, for every input, the rendered
diagnostics of `zzl.lang.parse` or, when it parses, the `serialize` output
of the document.  The inputs are a seeded byte fuzz (half of it spliced
into declaration fragments), hand-written matrix literals that sit on the
edge of the literal grammar, bracket-indexed labels, and literals and
field blocks that are read partly in the text and partly token by token.
The test replays the recorded texts; any change in bytes is a failure.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python tests/test_lang_diagnostics.py
"""

import json
import random
import string
import sys
from pathlib import Path

from zzl import lang

FIXTURE = Path(__file__).parent / "fixtures" / "lang_diagnostics.json"

# the alphabet of test_lang.TestFuzz
ALPHABET = string.ascii_letters + string.digits + "{}[](),;:=/->#\"\n\t -_" + "\x00\xff\x80"

FRAGMENTS = (
    "space V dim 2\n",
    "space W dim 1\n",
    "map m : V -> V = [1,-2/4;0,3]\n",
    "map n : V -> W = [ 1 ,\t0 ]\n",
    "map o : W -> V = [1;\n-1]\n",
    "zigzag z { open = x[3], eminus = 1, ezero = 1, A = 1, B = 1, "
    "alpha = [1], beta = [0], gamma = [1] }\n",
    "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
    "alpha = [], beta = [1], gamma = [] }\n",
    "zigzag ic { open = C, eminus = 1, ezero = 1, A = 0, B = 0, "
    "alpha = [], beta = [], gamma = [] }\n",
    "extension P = ext(ic, sky) class -1/2\n",
    "nodes { P }\n",
    "gluing g { psi = 2, u = [1,0], v = [0;1], N = [0,0;1,0] }\n",
    "= [", "]", "= [1/0]", "=[-", "2/4", ";", ",", " # note\n",
)


def _noise(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(n))


def _mixed(rng: random.Random) -> str:
    """Declaration fragments with noise between them and a few point edits."""
    text = "".join(
        rng.choice(FRAGMENTS) + (_noise(rng, rng.randint(1, 4)) if rng.random() < 0.3 else "")
        for _ in range(rng.randint(1, 4))
    )
    for _ in range(rng.randint(0, 3)):
        pos = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)  # insert, replace, delete
        keep = pos + (edit > 0)
        text = text[:pos] + (rng.choice(ALPHABET) if edit < 2 else "") + text[keep:]
    return text


def _fuzz() -> list[str]:
    rng = random.Random(20261018)
    out = []
    for k in range(2000):
        if k % 2:
            out.append(_mixed(rng))
        else:
            out.append(_noise(rng, rng.randint(0, 120)))
    return out


SPACES = "space V dim 2\nspace W dim 1\nspace Z dim 0\n"
LONG = "7" * 4301

LITERALS = (
    "[]", "[ ]", "[\t]", "[1,0;0,1]", "[ 1 , 0 ; 0 , 1 ]", "[\t1,\t0;0\t,1\t]",
    "[1,\n0;0,1]", "[1, # comment\n0;0,1]", "[1,0;0,1 # comment\n]", "[1,0\n;0,1]",
    "[- 3,0;0,1]", "[--3,0;0,1]", "[-,0;0,1]", "[-]", "[1/0,0;0,1]", "[1/00,0;0,1]",
    "[2/4,0;0,1]", "[-2/4,0;0,-0]", "[007,0;0,1/007]", "[1 / 2,0;0,1]", "[1/ 2,0;0,1]",
    "[1,]", "[1;]", "[1,0;]", "[,]", "[;]", "[1;;2]", "[1,,2]", "[1 2]", "[1,0;0]",
    "[1,0;0,1,2]", "[1;0,1]", "[1,0;0,1", "[1,0;0,1]]", "[1/,0;0,1]", "[/2,0;0,1]",
    "[1/0,0;0]", "[1.5,0;0,1]", "[+1,0;0,1]", "[1_0,0;0,1]",
)
# integers one digit over CPython's default limit on int() of a string, and
# one at it
LONG_LITERALS = (
    f"[{LONG},0;0,1]", f"[1/{LONG},0;0,1]", f"[-{LONG},0;0,1]", f"[{LONG[:4300]},0;0,1]",
    f"[1/0,0;0,{LONG}]",
)


def _matrix_cases() -> list[str]:
    out = []
    for literal in LITERALS:
        out.append(f"{SPACES}map m : V -> V = {literal}\n")
        out.append(f"{SPACES}map m : V -> V ={literal}\nspace X dim x\n")
        out.append(f"{SPACES}map m : V -> V =\n{literal}\n")
        out.append(
            "zigzag z { open = 0, eminus = 0, ezero = 0, A = 2, B = 2, "
            f"alpha = [], beta = {literal}, gamma = [] }}\n"
        )
        out.append(f"gluing g {{ psi = 2, u = [1,0;0,1], v = {literal}, N = {literal} }}\n")
        out.append(f"space V dim 2\nzigzag z {{ open = {literal}, A = {literal} }}\n")
    for literal in LONG_LITERALS:
        out.append(f"{SPACES}map m : V -> V = {literal}\n")
        out.append(f"{SPACES}map m : V -> V ={literal}\nspace X dim x\n")
    out += [
        f"{SPACES}map e : Z -> V = []\nmap f : V -> Z = [ ]\nmap g : Z -> Z = [\t]\n",
        f"{SPACES}map e : V -> W = []\n",
        # a diagnostic after a multi-line literal keeps its line and column
        f"{SPACES}map m : V -> V = [1,\n  0;\n  0, # c\n  1]\nspace X dim x\n",
        f"{SPACES}map m : V -> V = [1,0;0,1]\n\n  space X dim x\n",
        "extension e = [1]\n", "= [1]\nspace V dim 1\n", "==[1]\n", "space V dim 1 = [1]\n",
        "gluing g { psi = [1], u = [], v = [] }\n", "nodes = [1]\n",
        "extension e = ext(a, b) class [1]\n",
        f"{SPACES}map m : V -> V = [1,0;0,1]",
        f"{SPACES}map m : V -> V = [1,0;0,1] # trailing",
    ]
    return out


def _label_cases() -> list[str]:
    return [
        f"zigzag z {{ open = {label}, eminus = 0, ezero = 0, A = 0, B = 0, "
        "alpha = [], beta = [], gamma = [] }\n"
        for label in ("x[3]", "x[ 3 ]", "x[-3]", "x[007]", "x[\n3]", "x[3", "x[]", "x [3]")
    ]


# literals away from the line of their `=` or with a stray byte after them,
# and field blocks that go over to the token path at a declined field
HANDOVER_CASES = (
    f"{SPACES}map m : V -> W =\n[1,2]\n",
    f"{SPACES}map m : W -> V = # c\n[1;2]\n",
    f"{SPACES}map m : W -> V = # c\n\n[ 1 ; 2/4 ]\nspace X dim x\n",
    f"{SPACES}map m : V -> W = [1,0]$\n",
    f"{SPACES}map m : V -> W =\n[1,0]$ space X dim x\n",
    "gluing g { psi = 2, u = [1,0]$, v = [0;1] }\n",
    "gluing g { psi = 2, u = [1,0], v = [0;1] $ }\n",
    'zigzag z { open = "q", eminus = 0, ezero = 0, A = 1, B = 1, '
    "alpha = [], beta = [1], gamma = [] }\n",
    "gluing g { psi = 2 # c\n, u = [1,0], v = [0;1], N = [0,0;1,0] }\n",
    "gluing g { psi = 2, u =\n[1,0], v = [0;1], u = [1,1] }\n",
    "gluing g { psi = 2, u = [1,0], psi = 2 }\n",
    "gluing g { psi = 2, u = [1,0], v = [0;1], N = [0,0;1] }\n",
    "zigzag z { open = x, eminus = 0, ezero = 0, A = 2, B = 2, "
    "alpha = [], beta = [1,0;0], gamma = [] }\n",
    "zigzag z { open = x, eminus = 0, ezero = 0, A = 1, B = 1, "
    "alpha = [], beta = [1/0], gamma = [] }\n",
)


def inputs() -> list[str]:
    return _fuzz() + _matrix_cases() + _label_cases() + list(HANDOVER_CASES)


def outcome(text: str) -> dict:
    result = lang.parse(text)
    if isinstance(result, lang.Document):
        return {"serialized": lang.serialize(result)}
    return {"diagnostics": [d.render() for d in result]}


def test_parser_output_is_byte_identical():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(expected) > 2000
    mismatched = [e["text"] for e in expected if outcome(e["text"]) != e["outcome"]]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":
    entries = [{"text": text, "outcome": outcome(text)} for text in inputs()]
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.stdout.write(f"{len(entries)} entries -> {FIXTURE}\n")
