"""Byte-identity gate for the benchmark's check-corpus workload.

The generator ``perfbench/gen.py`` is loaded by path and writes a seeded
check-corpus into a temporary directory; every document is then checked
with ``zzl check FILE --format json``, as the benchmark does.  The
SHA-256 over the in-order (exit code, payload) pairs is pinned: a change
to the parser or the engine that alters any verdict, message or byte of
output fails here."""

import hashlib
import importlib.util
import json
from pathlib import Path

import zzl.cli

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

SEED = 11
N_OPS = 60  # three of them (every twentieth) are broken and exit 2
# recorded with the generator and engine of the commit that added this test
EXPECTED_SHA256 = "cf120365ab8ea39724745b7be591cf2400b25b6d681745250a34fa7431a33fd7"


def _gen():
    spec = importlib.util.spec_from_file_location("_bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_digest(seed: int, n_ops: int, workdir: Path) -> tuple[str, list[int]]:
    """The SHA-256 over every (exit code, payload), and the exit codes."""
    ops, _expected = _gen().check_corpus(seed, n_ops, workdir)
    digest = hashlib.sha256()
    codes = []
    for op in ops:
        result = zzl.cli.run(["check", op["path"], "--format", "json"])
        codes.append(result.exit_code)
        digest.update((json.dumps([result.exit_code, result.payload]) + "\n").encode())
    return digest.hexdigest(), codes


def test_check_corpus_payloads_unchanged(tmp_path):
    digest, codes = corpus_digest(SEED, N_OPS, tmp_path)
    # the gate covers every exit code the workload produces
    assert set(codes) == {0, 1, 2}
    assert digest == EXPECTED_SHA256
