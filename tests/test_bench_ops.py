"""The benchmark's operations (``perfbench/ops.py``) call the engine through
its public signatures.  These tests load the benchmark's input generator and
operations by path, run a few operations of each workload and compare each
verdict with the generator's known answer, so that a changed signature the
benchmark calls fails here rather than only in ``perfbench/run.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load("gen")
ops = _load("ops")


@pytest.mark.parametrize("workload", sorted(gen.PASS_OPS))
def test_operations_give_the_known_answers(workload, tmp_path):
    n = gen.write_inputs(workload, 3, tmp_path, n_ops=20)
    inputs = json.loads((tmp_path / "inputs.json").read_text())["ops"]
    expected = json.loads((tmp_path / "expected.json").read_text())
    assert n == len(inputs) == len(expected) == 20
    for k, (op, want) in enumerate(zip(inputs, expected)):
        got = ops.verdict(op, ops.run_op(op))
        assert got["answer"] == want["answer"], (k, op["kind"])
        assert got["verified"], (k, op["kind"])
