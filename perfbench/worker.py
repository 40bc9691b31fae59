"""Run one workload's operations in a fresh interpreter.

    python3 perfbench/worker.py WORKDIR MODE [SECONDS]

MODE is ``setup`` (import and load, then stop), ``timed`` (a closed loop
with one caller that makes whole passes over the operations, as many as fit
in SECONDS of operation time and at least one, so ``timed 0`` is exactly
one pass) or ``traced`` (one pass with per-layer tracing).  The result goes
to ``WORKDIR/result-MODE.json``: the latency of every operation that
completed, the operations that raised or were refused, and the verdicts.

Set-up ends when ``zzl`` and ``zzl.cli`` are imported and the inputs are
in memory; the moment is written as ``time.monotonic()``, which is one
clock for every process, so the parent can subtract its spawn time, with
the host's pace just after it (``pace.py``).  Every verdict is re-verified
between operations, outside the timed region.  Each operation's time is
kept as measured and scaled to the nominal pace by the pace samples taken
around it.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import zzl  # noqa: E402,F401
import zzl.cli  # noqa: E402,F401

import pace  # noqa: E402


def main() -> None:
    workdir = Path(sys.argv[1])
    mode = sys.argv[2]
    inputs = json.loads((workdir / "inputs.json").read_text())
    ops = inputs["ops"]
    ready = time.monotonic()
    ready_pace = pace.sample()
    if mode == "setup":
        _write(workdir, mode, {"ready": ready, "ready_pace": ready_pace})
        return

    import ops as bench_ops

    tracer = None
    if mode == "traced":
        import layertrace as bench_trace

        t0 = time.monotonic()
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer, extra_modules=[bench_ops])
        ready += time.monotonic() - t0
    verdicts: dict[int, dict] = {}
    mismatches: list[int] = []
    failures: list[dict] = []

    def execute(index: int) -> tuple[float, bool]:
        """Run one operation; (its time, whether it completed)."""
        op = ops[index]
        if tracer is not None:
            tracer.begin_op(index, op["kind"])
        t0 = time.perf_counter()
        try:
            out = bench_ops.run_op(op)
            error = None
        except Exception as exc:  # a raised or refused operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                v = bench_ops.verdict(op, out)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": index, "error": error})
            return dt, False
        if index not in verdicts:
            verdicts[index] = v
        elif verdicts[index]["answer"] != v["answer"]:
            mismatches.append(index)  # the same input gave a different answer
        return dt, True

    # Whole passes over the same operations, so every operation runs equally
    # often: another pass starts only while the mean pass so far still fits
    # in SECONDS of operation time.  A pace sample is taken between two
    # operations whenever EVERY_S has gone by since the last one.
    seconds = float(sys.argv[3]) if mode == "timed" else 0.0
    paces = [ready_pace]
    paced_at = time.perf_counter()
    timed: list[list[tuple[float, int, bool]]] = []  # (time, pace before it, completed)
    measured = 0.0
    while not timed or measured + measured / len(timed) <= seconds:
        times = []
        for i in range(len(ops)):
            if time.perf_counter() - paced_at >= pace.EVERY_S:
                paces.append(pace.sample())
                paced_at = time.perf_counter()
            dt, ok = execute(i)
            times.append((dt, len(paces) - 1, ok))
        timed.append(times)
        measured += sum(dt for dt, _, _ in times)
    paces.append(pace.sample())

    passes = []
    for times in timed:
        scaled = [(dt * pace.scale(paces[k], paces[k + 1]), dt, ok) for dt, k, ok in times]
        passes.append({
            "seconds": sum(s for s, _, _ in scaled),
            "latencies": [s for s, _, ok in scaled if ok],
            "raw_seconds": sum(dt for _, dt, _ in scaled),
            "raw_latencies": [dt for _, dt, ok in scaled if ok],
        })

    result = {
        "ready": ready,
        "ready_pace": ready_pace,
        "paces": paces,
        "passes": passes,
        "executions": len(timed) * len(ops),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "verdicts": {str(k): v for k, v in verdicts.items()},
        "repeat_mismatches": mismatches,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    _write(workdir, mode, result)


def peak_rss_kb() -> int:
    """Peak resident memory of this process since its exec.

    ``ru_maxrss`` is no use here: Linux carries the parent's peak over a
    fork and exec, so it would report the memory of run.py.
    ``VmHWM`` belongs to the address space that exec created.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write(workdir: Path, mode: str, result: dict) -> None:
    (workdir / f"result-{mode}.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
