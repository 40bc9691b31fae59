"""Byte-identity gate for the command line.

`fixtures/cli_transcript.json` records the exit code, payload and `--out`
path of `zzl.cli.run` for every subcommand over every fixture, in each
output format, plus malformed documents, unknown names and usage
errors.  The test replays it; any change in bytes is a failure.

Regenerate the transcript (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import json
import shutil
import sys
from itertools import product
from pathlib import Path

from zzl import lang
from zzl.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
TRANSCRIPT = FIXTURES / "cli_transcript.json"

# written next to the fixtures before the replay
DOCUMENTS = {
    "lexical.zzl": "space V dim 2 @\nspace W dim \xe9\n",
    "unterminated.zzl": 'zigzag z { open = "abc\nspace V dim 1\n',
    "unknown_names.zzl": "extension e = ext(a, b) class 1\nnodes { e, f }\nmap m : X -> Y = [1]\n",
    "shapes.zzl": "space V dim 2\nmap m : V -> V = [1,0]\n"
                  "gluing g { psi = 2, u = [1,0,0], v = [0;1] }\n",
    "duplicates.zzl": "space V dim 1\nspace V dim 2\nnodes { }\nnodes { p, p }\n",
    "trailing_comment.zzl": "space V dim # no dimension\n",
    "zero_denominator.zzl": "space V dim 1\nmap m : V -> V = [1/0]\n",
    "escapes.zzl": 'zigzag z { open = "a\\"b\\\\", eminus = 0, ezero = 0, A = 0, B = 0, '
                   "alpha = [], beta = [], gamma = [] }\n",
    # Jordan type (3, 2, 1) under a rational change of basis, and its unipotent exp
    "jordan_321.zzl": "space V dim 6\n"
                      "map N : V -> V = [-3,6,-1,3,3,1; -2,10/3,-2/3,2,2,2/3; "
                      "2,-4/3,2/3,-2,1,-8/3; 5/3,-10/9,5/9,-5/3,-2/3,-11/9; "
                      "0,0,0,0,0,0; -2,10/3,-2/3,2,2,2/3]\n"
                      "map T : V -> V = [-3,23/3,-4/3,4,4,4/3; -2,13/3,-2/3,2,2,2/3; "
                      "2,-4/3,5/3,-2,1,-8/3; 2/3,5/9,2/9,1/3,1/3,-8/9; "
                      "0,0,0,0,1,0; -2,10/3,-2/3,2,2,5/3]\n",
}

NAMED = {"dual": "zigzags", "ext-class": "extensions", "gluing": "gluings", "nlog": "maps"}


def _names(path: Path, table: str) -> list[str]:
    document = lang.parse(path.read_text(encoding="latin-1"))
    known = sorted(getattr(document, table)) if isinstance(document, lang.Document) else []
    return known + ["ghost"]


def cases(files: list[Path]) -> list[list[str]]:
    """Every argv the transcript records, for FILE arguments in `files`."""
    out: list[list[str]] = [["tables"], ["tables", "--format", "json"]]
    for path, fmt in product(files, ("text", "json")):
        f = path.name
        out.append(["check", f, "--format", fmt])
        out.append(["assemble", f, "--format", fmt])
        for command, table in NAMED.items():
            out += [[command, f, name, "--format", fmt] for name in _names(path, table)]
        for name, center in product(_names(path, "maps"), ("0", "-1")):
            out.append(["wfilt", f, name, "--center", center, "--format", fmt])
        maps = _names(path, "maps")
        for alpha, delta, pairing in product(maps, maps[:2] + ["ghost"], maps[-3:]):
            out.append(["pl", f, "--alpha", alpha, "--delta", delta, "--pairing", pairing,
                        "--format", fmt])
    for path, fmt in product(files, ("dot", "json")):
        out.append(["skeleton", path.name, "--format", fmt])
    out += [
        [], ["frobnicate"], ["check"], ["dual", "table1.zzl"], ["tables", "extra"],
        ["check", "table1.zzl", "--format", "dot"],
        ["skeleton", "three_nodes.zzl", "--format", "text"],
        ["wfilt", "monodromy.zzl", "nilp"],
        ["wfilt", "monodromy.zzl", "nilp", "--center", "x"],
        ["pl", "monodromy.zzl", "--alpha", "alpha"],
        ["check", "no_such_file.zzl"], ["skeleton", "no_such_file.zzl", "--format", "json"],
        ["check", "."], ["dual", ".", "x"],
        ["check", "table1.zzl", "--out", "check.txt"],
        ["check", "table1.zzl", "--format", "json", "--out=check.json"],
        ["skeleton", "three_nodes.zzl", "--out", "skeleton.dot"],
        ["tables", "--out", "tables.txt"],
        ["check", "malformed.zzl", "--out", "ignored.txt"],
    ]
    return out


def record(workdir: Path) -> list[dict]:
    files = sorted(workdir.glob("*.zzl"))
    entries = []
    for argv in cases(files):
        result = run(argv)
        entries.append(
            {"argv": argv, "exit_code": result.exit_code, "payload": result.payload,
             "out": result.out}
        )
    return entries


def _stage(workdir: Path) -> None:
    for path in FIXTURES.glob("*.zzl"):
        shutil.copy(path, workdir / path.name)
    for name, text in DOCUMENTS.items():
        (workdir / name).write_bytes(text.encode("latin-1"))


def test_cli_transcript_is_byte_identical(tmp_path, monkeypatch):
    _stage(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    expected = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert len(expected) > 500
    mismatched = [
        e["argv"] for e, got in zip(expected, map(run, (e["argv"] for e in expected)))
        if (got.exit_code, got.payload, got.out) != (e["exit_code"], e["payload"], e["out"])
    ]
    assert not mismatched, mismatched[:10]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        _stage(Path(tmp))
        os.chdir(tmp)
        entries = record(Path(tmp))
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"{len(entries)} entries -> {TRANSCRIPT}\n")
