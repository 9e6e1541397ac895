"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

Run from the repository root; ``src/`` is put on the path, nothing is
installed.  BLAS is pinned to one thread.  The workloads (``forward``,
``serve``, ``explore``) are defined in ``workloads.py``; ``BENCHMARK.json`` at
the root names every metric, and a run that produces any other set fails.

``--trace 0`` measures the end-to-end metrics with nothing instrumented:

* ``setup_s`` -- median over fresh interpreters of interpreter start to the
  end of set-up (imports, inputs, one warm-up call per operation);
* ``peak_rss_mb`` -- peak RSS of the process doing the work (for ``explore``,
  the largest ``repro.cli`` child);
* ``op1_s``..``op3_s`` -- median seconds per call of the workload's three
  operations, over as many rounds as fit in ``--seconds``.

Timings are speed-normalised host seconds: the workload's calibration kernel
runs between consecutive timed calls, and a timing is reported as the median
of (call time / mean of the kernel times just before and after it) times the
kernel's nominal ``CALIBRATION_S``.  The raw wall-clock medians are echoed on
the environment line.

``--trace 1`` runs untraced rounds for a third of ``--seconds``, then as many
rounds with spans around each layer's public calls (``tracer.py``), and
reports per-round layer metrics, the traced and untraced wall time of a round
and their difference (the tracing overhead).  It writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.

Every operation counts as attempted; it counts as failed if it raises or its
output check fails.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("forward", "serve", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""

    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Tally:
    """Attempted/failed operation counts; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, workload, op: str, call):
        """Run ``call()`` as one operation; return (result, seconds)."""

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"perfbench: {op} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None
        elapsed = time.perf_counter() - start
        try:
            problems = workload.check(op, result)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return result, elapsed


def measure(workload, seconds: float, tally: Tally):
    """Run rounds of every operation until another round would overrun.

    Returns ``(call seconds, calibration seconds)`` pairs per operation.
    """

    samples = {op: [] for op in workload.ops}
    start = time.perf_counter()
    longest = 0.0
    before = timed(workload.calibrate)
    while True:
        round_start = time.perf_counter()
        for op in workload.ops:
            _, elapsed = tally.call(workload, op, lambda: workload.run_op(op))
            after = timed(workload.calibrate)
            if elapsed is not None:
                samples[op].append((elapsed, (before + after) / 2))
            before = after
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return samples


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "explore" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def normalised(pairs, workload) -> float:
    """Median of call/calibration time ratios, in nominal seconds."""

    if not pairs:
        return 0.0
    return statistics.median(t / cal for t, cal in pairs) * workload.CALIBRATION_S


def untraced(args: argparse.Namespace, workload, tally: Tally):
    setups = []
    before = timed(workload.calibrate)
    for _ in range(SETUP_SAMPLES):
        elapsed = setup_probe(args)
        after = timed(workload.calibrate)
        setups.append((elapsed, (before + after) / 2))
        before = after
    workload.setup(traced=False)
    samples = measure(workload, args.seconds, tally)
    metrics = {
        "setup_s": (normalised(setups, workload), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    for i, op in enumerate(workload.ops, start=1):
        metrics[f"op{i}_s"] = (normalised(samples[op], workload), "s")
    samples["setup"] = setups
    echo = {
        "samples": {name: len(pairs) for name, pairs in samples.items()},
        "wall_s": {
            name: statistics.median(t for t, _ in pairs) for name, pairs in samples.items() if pairs
        },
        "calibration_s": statistics.median(cal for pairs in samples.values() for _, cal in pairs),
    }
    return metrics, echo


def traced(args: argparse.Namespace, workload, tally: Tally):
    from tracer import Tracer

    workload.setup(traced=True)
    # Untraced rounds for a third of the budget fix the round count; as many
    # traced rounds follow.  Rounds repeat identical work, so totals divided
    # by the round count are per-round values and counts stay exact.
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds / 3:
        for op in workload.ops:
            tally.call(workload, op, lambda: workload.run_op(op))
        rounds += 1
    untraced_wall = (time.perf_counter() - start) / rounds

    tracer = Tracer()
    workload.instrument(tracer)
    results = {}
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            for op in workload.ops:
                results[op], _ = tally.call(
                    workload, op, lambda: tracer.run(op, workload.run_op, op)
                )
        traced_wall = (time.perf_counter() - start) / rounds
    finally:
        tracer.restore()
    tracer.per_round(rounds)
    for op in getattr(workload, "trace_ops", ()):
        results[op], _ = tally.call(workload, op, lambda: workload.run_op(op))

    metrics = workload.layer_metrics(tracer, results)
    layers_ns = sum(ns for key, ns in tracer.self_ns.items() if not key.endswith(".op"))
    metrics.update(
        {
            "trace.wall_s": (traced_wall, "s"),
            "trace.layers_self_s": (layers_ns / 1e9, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(tracer.chrome_trace({"workload": workload.name, "seed": args.seed}))
    print(f"perfbench: wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics, {"rounds": rounds}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a repository)."""

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(echo) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        **echo,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(HERE)]

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_only:
        workload.setup(traced=bool(args.trace))
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    if args.trace:
        metrics, echo = traced(args, workload, tally)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # Layers another workload exercises were called zero times here.
        for name, unit in declared.items():
            metrics.setdefault(name, (0.0, unit))
    else:
        metrics, echo = untraced(args, workload, tally)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        differ = sorted(set(produced.items()) ^ set(declared.items()))
        print(f"perfbench: metrics differ from BENCHMARK.json: {differ}", file=sys.stderr)
        return 1
    print("perfbench env: " + json.dumps(environment(echo)))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
