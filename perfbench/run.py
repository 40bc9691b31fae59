"""The zzl benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every workload is a closed loop with one caller: a single process sends the
next input only after the verdict on the previous one is back.  The engine
sees only the generated inputs (see ``gen.py``); every verdict is compared
with the answer the generator built in, outside the timed region, and a
wrong verdict makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  The loop makes whole passes
over the same operations, so every operation runs equally often.
``ops_per_s`` is completed operations over the time the loop measured;
``latency_p50_ms`` and ``latency_tail_ms`` (the highest percentile with at
least ten samples beyond it) come from the latency of every completed
operation; then ``peak_rss_mb`` of the process that ran the loop and
``setup_s`` (fresh interpreter to ready, median of several fresh
processes).  An operation that raised or was refused is a wrong answer,
since every input has a known one; ``failed_ratio`` is printed and appears
as ``failed`` / ``attempted`` in the result.  Every time is scaled to one
nominal host pace by a fixed reference loop timed between operations and
around each set-up (``pace.py``), since a shared host slows down by a factor
of two for seconds at a time; the unscaled figures and the pace samples are
printed with the provenance.

``--trace 1`` ignores ``--seconds``: it makes one fixed pass over the
inputs untraced and one traced, each in a fresh process, so that the work
counts repeat exactly for a seed, and prints every per-layer metric of
``layertrace.py`` and the tracing overhead on each end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, results and
spans are written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import pace  # noqa: E402

WHY = {
    "check-corpus": (
        "The batch CLI user: lang parsing plus thousands of tiny eliminations and "
        "per-call overhead; bypasses large kernels and the isomorphism search."
    ),
    "kernel-scale": (
        "The cubic linalg kernels (RREF and the triple-loop product) dominate, so a "
        "kernel change shows here first; lang and intertwine are not called."
    ),
    "iso-certify": (
        "The intertwiner solve and candidate search dominate with a heavy tail, and "
        "linalg runs on small-to-mid systems, unlike kernel-scale."
    ),
}

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: fresh set-up processes per run, besides the one that runs the loop
SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 170


def spawn(workdir: Path, mode: str, seconds: float | None = None) -> dict:
    """Run the worker in a fresh interpreter; adds its ``setup_s``, scaled
    by the pace sampled just before the spawn and just after set-up, and
    ``raw_setup_s`` as measured."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), mode]
    if seconds is not None:
        cmd.append(str(seconds))
    before = pace.sample()
    start = time.monotonic()
    proc = subprocess.run(cmd, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads((workdir / f"result-{mode}.json").read_text())
    result["raw_setup_s"] = result["ready"] - start
    result["setup_s"] = result["raw_setup_s"] * pace.scale(before, result["ready_pace"])
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the sample with exactly ten samples above it,
    or the largest one when there are no more than ten."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n


def latencies(result: dict, raw: str = "") -> list[float]:
    return [x for p in result["passes"] for x in p[raw + "latencies"]]


def e2e(result: dict, raw: str = "") -> dict[str, float]:
    """The end-to-end metrics at the nominal pace, or as measured with raw="raw_"."""
    lat = latencies(result, raw)
    tail_value, _ = tail(lat)
    return {
        "ops_per_s": len(lat) / sum(p[raw + "seconds"] for p in result["passes"]),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail_value * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result[raw + "setup_s"],
    }


def wrong_verdicts(result: dict, inputs: dict, expected: list) -> list[str]:
    """Every verdict that differs from the generator's answer or fails its
    re-check, including kernel bases re-checked with sympy."""
    wrong = []
    for key, v in result["verdicts"].items():
        k = int(key)
        if v["answer"] != expected[k]["answer"]:
            wrong.append(f"op {k}: answer {v['answer']!r}, expected {expected[k]['answer']!r}")
        elif not v["verified"]:
            wrong.append(f"op {k}: positive answer failed its re-check")
        elif v["evidence"] is not None and not kernel_ok(inputs["ops"][k]["matrix"], v["evidence"]):
            wrong.append(f"op {k}: kernel basis fails the sympy check")
    wrong += [f"op {k}: a repeat gave another answer" for k in result["repeat_mismatches"]]
    wrong += [f"op {f['op']}: failed with {f['error']}" for f in result["failures"]]
    if not result["verdicts"]:
        wrong.append("no operation produced a verdict")
    return wrong


def kernel_ok(matrix: list, basis_rows: list) -> bool:
    n = len(matrix)
    dim = len(basis_rows[0]) if basis_rows else 0
    if dim == 0:
        return gen.oracle_rank(matrix, n) == n
    k = gen.dm(basis_rows, dim)
    return (gen.dm(matrix, n) * k).is_zero_matrix and k.rank() == dim


def provenance(workload: str, seed: int, n_ops: int, result: dict, args) -> dict:
    lat = latencies(result)
    _, pct = tail(lat)
    src = sorted((ROOT / "src" / "zzl").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    commit = "unknown"  # a plain checkout has no .git; src_sha256 still names the code
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest,
        "ops_per_pass": n_ops,
        "passes": len(result["passes"]),
        "operations": result["executions"],
        "tail_percentile": round(pct, 2),
        "tail_samples": len(lat),
        "why": WHY[workload],
    }


def measure(workload: str, args) -> tuple[dict, dict, list[str]]:
    """Generate the inputs, run the workload in fresh processes and check
    every verdict; returns (summary, provenance, wrong verdicts)."""
    workdir = HERE / ".work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    n_ops = gen.write_inputs(workload, args.seed, workdir)
    inputs = json.loads((workdir / "inputs.json").read_text())
    expected = json.loads((workdir / "expected.json").read_text())

    if args.trace:
        base = spawn(workdir, "timed", 0)
        traced = spawn(workdir, "traced")
        wrong = wrong_verdicts(base, inputs, expected) + wrong_verdicts(traced, inputs, expected)
        if {k: v["answer"] for k, v in base["verdicts"].items()} != \
                {k: v["answer"] for k, v in traced["verdicts"].items()}:
            wrong.append("the traced run gave other verdicts than the untraced run")
        result = traced
        metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
        base_m, traced_m = e2e(base), e2e(traced)
        for name, unit in E2E_UNITS.items():
            metrics[f"trace_overhead.{name}"] = (traced_m[name] - base_m[name], unit)
    else:
        # half the set-ups before the timed loop and half after it, so that
        # they do not all fall in one slow spell of a shared host
        setups = [spawn(workdir, "setup") for _ in range(SETUP_SAMPLES // 2)]
        result = spawn(workdir, "timed", args.seconds)
        setups.append(dict(result))
        setups += [spawn(workdir, "setup") for _ in range(SETUP_SAMPLES // 2)]
        for key in ("setup_s", "raw_setup_s"):
            result[key] = statistics.median(r[key] for r in setups)
        wrong = wrong_verdicts(result, inputs, expected)
        metrics = {name: (value, E2E_UNITS[name]) for name, value in e2e(result).items()}

    attempted = result["executions"]
    failed = len(result["failures"])
    prov = provenance(workload, args.seed, n_ops, result, args)
    prov["failed_ratio"] = failed / attempted
    paces = result["paces"]
    prov["pace_ms"] = {
        "nominal": pace.NOMINAL_MS, "samples": len(paces), "median": statistics.median(paces),
        "min": min(paces), "max": max(paces),
    }
    prov["unscaled"] = e2e(result, "raw_")
    summary = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"provenance": prov, **summary}, indent=1))
    for line in wrong[:20]:
        print(f"WRONG {workload}: {line}", file=sys.stderr)
    return summary, prov, wrong


def run_one(args) -> int:
    summary, prov, wrong = measure(args.workload, args)
    print_table([(args.workload, summary, prov)], args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(summary))
    return 0 if not wrong else 1


def print_table(rows: list, trace: int) -> None:
    if trace:
        names = list(rows[0][1]["metrics"])
        print(f"{'metric':44} {'unit':6} " + " ".join(f"{w:>14}" for w, _, _ in rows))
        for name in names:
            unit = rows[0][1]["metrics"][name]["unit"]
            vals = " ".join(f"{s['metrics'][name]['value']:>14.6g}" for _, s, _ in rows)
            print(f"{name:44} {unit:6} {vals}")
        return
    head = [f"{n} [{u}]" for n, u in E2E_UNITS.items()] + ["failed_ratio [ratio]", "tail pct"]
    print(f"{'workload':14} " + " ".join(f"{h:>22}" for h in head))
    for workload, s, prov in rows:
        m = s["metrics"]
        cells = [f"{m[n]['value']:>22.6g}" for n in E2E_UNITS]
        cells.append(f"{prov['failed_ratio']:>12.4g} ({s['failed']}/{s['attempted']})".rjust(22))
        cells.append(f"p{prov['tail_percentile']:g} of {prov['tail_samples']}".rjust(22))
        print(f"{workload:14} " + " ".join(cells))


def run_all(args) -> int:
    rows, code = [], 0
    for workload in WHY:
        summary, prov, wrong = measure(workload, args)
        rows.append((workload, summary, prov))
        code = code or (1 if wrong else 0)
    print_table(rows, args.trace)
    print(json.dumps({w: {k: s[k] for k in ("correct", "attempted", "failed")} for w, s, _ in rows}))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zzl" / "__init__.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src' / 'zzl'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
