"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_selfcheck.py

Two traced runs with the same seed must give identical call and work
counts, each workload must keep the layers it is meant to bypass at zero
calls, the tracer must replace every import-site binding of a wrapped
function, an operation that raises must fail the command, the worker's
peak memory must not include its parent's, and the benchmark must refuse
to run without the engine sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SMALL = {"check-corpus": 12, "kernel-scale": 8, "iso-certify": 20}


def traced(workload: str, seed: int, workdir: Path) -> dict:
    gen.write_inputs(workload, seed, workdir, n_ops=SMALL[workload])
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(workdir), "traced"],
        check=True, timeout=170,
    )
    result = json.loads((workdir / "result-traced.json").read_text())
    inputs = json.loads((workdir / "inputs.json").read_text())
    expected = json.loads((workdir / "expected.json").read_text())
    assert not result["failures"]
    assert not run.wrong_verdicts(result, inputs, expected)
    return result["layers"]


def counts(layers: dict) -> dict:
    return {name: value for name, (value, unit) in layers.items() if unit != "s"}


def calls(layers: dict, layer: str) -> int:
    return sum(
        value for name, (value, _) in layers.items()
        if name.startswith(layer + ".") and name.endswith(".calls")
    )


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counts_repeat_and_layers_separate(workload, tmp_path):
    first = traced(workload, 7, tmp_path / "a")
    second = traced(workload, 7, tmp_path / "b")
    assert counts(first) == counts(second)
    if workload != "iso-certify":
        assert calls(first, "intertwine") == 0
    if workload != "check-corpus":
        assert calls(first, "lang") == 0
        assert calls(first, "cli") == 0
    busiest = {
        "check-corpus": "lang.parse.calls",
        "kernel-scale": "monodromy.weight_filtration.calls",
        "iso-certify": "intertwine.find_invertible.calls",
    }[workload]
    assert first[busiest][0] > 0


def test_every_import_site_is_rebound():
    sys.path.insert(0, str(HERE.parent / "src"))
    import zzl.cli  # noqa: F401
    import layertrace

    originals = {}
    for name, (modname, attr) in layertrace.FUNCTIONS.items():
        if "." not in attr:
            originals[name] = getattr(sys.modules[modname], attr)
    layertrace.install(layertrace.Tracer())
    for module_name, module in sorted(sys.modules.items()):
        if module_name == "zzl" or module_name.startswith("zzl."):
            for attr, value in vars(module).items():
                for name, original in originals.items():
                    assert value is not original, f"{module_name}.{attr} still unwrapped ({name})"


def test_refuses_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_raising_operation_fails_the_command(monkeypatch, capsys):
    write_inputs = gen.write_inputs

    def one_op_raises(workload, seed, workdir, n_ops=None):
        n = write_inputs(workload, seed, workdir, n_ops=4)
        path = workdir / "inputs.json"
        inputs = json.loads(path.read_text())
        assert inputs["ops"][3]["kind"] == "rank"
        del inputs["ops"][3]["matrix"][-1]  # entries no longer fill the shape
        path.write_text(json.dumps(inputs))
        return n

    monkeypatch.setattr(run.gen, "write_inputs", one_op_raises)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "kernel-scale", "--seed", "1",
                                      "--seconds", "0", "--trace", "0"])
    assert run.main() == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] == 1 and summary["attempted"] == 4


def test_peak_rss_is_the_workers_own(tmp_path):
    gen.write_inputs("kernel-scale", 1, tmp_path, n_ops=4)
    ballast = bytearray(100 * 1024 * 1024)  # resident in the parent at fork time
    ballast[::4096] = b"x" * len(ballast[::4096])
    result = run.spawn(tmp_path, "timed", 0)
    del ballast
    assert 0 < result["peak_rss_mb"] < 80
