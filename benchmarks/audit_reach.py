#!/usr/bin/env python3
"""Entrypoint reach audit: which ``src/`` functions no user path calls.

Drives every user entrypoint in one process under a function-level
``sys.setprofile`` hook and records each code object that starts running:

* the CLI argv tables of ``tests/test_cli.py`` (golden, strict-JSON and
  ``--format json``), each golden argv also with ``--json``, plus argv for
  the flags those tables leave out (CSV / Pareto views, optimizer and fleet
  fidelities, routings, admission, cells/shards, ``--mix``, ``rtl --check``);
* every example under ``examples/`` (``--quick`` where offered);
* the CI ``--quick`` benchmarks and the 13 paper-anchor pytest benchmarks.

Every driven call must succeed (exit 0): a silently rejected argv would
hide the code it was meant to reach.  The two benchmarks with wall-clock
floors (``bench_fx_forward.py``, ``bench_sim_throughput.py``) are driven
through their correctness sections with the speed requirement waived,
because the profiler slows the timed loops below their floors and a floor
that stops a run early would make reach depend on the host's speed.

Every function of ``src/repro`` (AST ``def``, nested ones included) that
never started is reported by its outermost unreached body.  Those listed in
``audit_reach_keep.txt`` (``path::qualname`` glob + reason) are expected:
paths gated by platform or by an error, abstract hooks, library API the CLI
does not call, and names the benchmark harness patches.  Any other
unreached function, any keep-list entry that matches no unreached function
(its function went or became reached: delete the entry), or any driven call
that does not exit 0, makes the audit exit 1.  Reach is per function: a
branch no driver takes inside a reached function does not show.

Run from the repository root (about 25 s on a 2-CPU host):

    PYTHONPATH=src python benchmarks/audit_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import fnmatch
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
KEEP_LIST = Path(__file__).with_name("audit_reach_keep.txt")

#: The 13 paper-anchor benchmark modules CI runs under pytest.
PAPER_ANCHORS = (
    "bench_table2_structure.py", "bench_table3_resources.py", "bench_table4_variants.py",
    "bench_table5_exec_time.py", "bench_fig5_param_size.py", "bench_fig6_accuracy.py",
    "bench_future_training.py", "bench_ablation_energy.py", "bench_ablation_parallelism.py",
    "bench_ablation_solver.py", "bench_ablation_wordlength.py", "bench_conv_scaling.py",
    "bench_inference.py",
)

#: CI's standalone ``--quick`` benchmarks without a wall-clock floor.
QUICK_BENCHMARKS = (
    ("bench_sweep_engine.py", ["--quick"]),
    ("bench_plan_kernels.py", ["--quick"]),
    ("bench_board_sweep.py", ["--quick"]),
    ("bench_fault_sweep.py", ["--quick"]),
    ("bench_optimize.py", ["--quick", "--output", "{tmp}/bench_optimize.json"]),
    ("bench_rtl_emit.py", ["--quick"]),
)

#: Examples and their argv (``--quick`` wherever the example offers it).
EXAMPLES = (
    ("quickstart.py", []),
    ("design_space.py", []),
    ("fpga_offload.py", []),
    ("cross_board.py", ["--quick"]),
    ("serving_study.py", ["--quick"]),
    ("fleet_study.py", ["--quick"]),
    ("resilience_study.py", ["--quick"]),
    ("optimize_study.py", ["--quick"]),
    ("spiral_node.py", ["--iterations", "5"]),
    ("train_variants.py", ["--epochs", "1", "--samples", "64"]),
)

#: User-facing flags the ``tests/test_cli.py`` tables do not exercise.
EXTRA_ARGV = (
    "sweep --models rODENet-3 --depths 20 56 --n-units 8 16 --format csv",
    "sweep --models rODENet-3 ODENet --depths 20 --boards PYNQ-Z2 ZCU104 --engine batch --format csv",
    "sweep --models rODENet-3 --depths 20 56 --qformats 16:8 32:20 --solvers euler rk4 --format pareto",
    "sweep --depths 20 --wordlengths 16 --fraction-bits 8 --maximize-y --format pareto",
    "sweep --models rODENet-3 --depths 20 --engine batch",
    "eval rODENet-1 --depth 20 --solver rk4 --wordlength 16 --fraction-bits 8 --board ZCU104",
    "sim rODENet-1 --depth 20 --rate 3 --requests 40 --replicas auto --policy batched --json",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --ps-cores 2 --slo-ms 400 --faults "
    "--fault-samples 1 --json",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --faults replica_death:0.5 "
    "--fault-sampling quadrature --fault-samples 2 --fault-seed 3 --fault-duration 5",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --faults --fault-duration 5 "
    "--fault-samples 1 --format csv",
    "sim rODENet-3 --depth 20 --rate 3 --requests 30 --mix rODENet-3:20:2 ResNet:20 --format csv",
    "sim rODENet-1 --depth 20 --arrivals trace --trace 0 0.1 0.2 0.5 --dma-channels 2",
    "sim rODENet-1 --depth 20 --arrivals deterministic --duration 5 --rate 2 --policy round_robin "
    "--replicas 2 --format csv",
    "fleet --boards pynq-z2:4,zcu104:2 --classes interactive:0.8:latency:900ms,nightly:0.2:batch "
    "--rate 20 --requests 400 --cells 2 --shards 2 --seed 3 --json",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --fidelity event --json",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --fidelity event --routing round_robin",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --routing weighted --admission none",
    "fleet --boards pynq-z2:2 --rate 5 --requests 60 --routing round_robin --exact --slo-ms 300",
    "fleet --boards pynq-z2:2 --arrivals deterministic --duration 20 --rate 2 --replicas 1 "
    "--autoscale --autoscale-interval 5",
    "fleet --boards pynq-z2:3 --rate 3 --requests 300 --autoscale --autoscale-interval 2 "
    "--replicas 1",
    "optimize --objective watts --models rODENet-3 --depths 20 56 --qformats 16:8 32:20 --json",
    "optimize --objective min:p99_ms --fidelity sim --models rODENet-3 --depths 20 --n-units 8 16 "
    "--boards PYNQ-Z2 ZCU104 --rate 3 --requests 20 --json",
    "optimize --objective min:p99_ms --fidelity fleet --models rODENet-3 --depths 20 "
    "--boards PYNQ-Z2 ZCU104 --count 3 --rate 5 --requests 60 --json",
    "optimize --objective min:p99_ms --fidelity faults --models rODENet-3 --depths 20 "
    "--boards PYNQ-Z2 --rate 3 --requests 12 --slo-ms 400 --json",
    "optimize --objective min:p99_ms --fidelity sim --models rODENet-3 --depths 20 --n-units 8 "
    "--policies fifo batched --batch-sizes 2 4 --replicas 1 2 --arrivals deterministic "
    "--duration 10 --constraint p99_ms<=5000 --budget 2 --format csv",
    "accuracy-sweep --block layer1 --images 2 --wordlengths 16 32 --format csv",
    "accuracy-sweep --block layer2_2 --images 2 --formats 16:8 12:6 --chunk-size 1 --format pareto",
    "accuracy-sweep --images 2 --formats 16:8 12:6 --n-units 8 16 --json",
    "rtl --block layer1 --qformat 16:8 --n-units 8 --out {tmp}/rtl --vectors 2 --check --json",
    "rtl --block layer1 --qformat 16:8 --out {tmp}/rtl3",
    "rtl --block layer2_2 --qformat 12:6 --n-units 4 --out {tmp}/rtl2 --time-concat --step-size 0.5 "
    "--iterations 3 --seed 1 --check",
    "rtl --block layer1 --qformat 16:8 --n-units 8 --out {tmp}/rtl4 --vectors 1 --simulate --json",
    "sim --help",
)


class Function(NamedTuple):
    path: str  # relative to src/repro
    qualname: str
    first: int  # first line (the first decorator's, as in ``co_firstlineno``)
    last: int
    parent: "Function | None"

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def src_functions() -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``src/repro``, keyed by (absolute file, first line)."""

    functions: Dict[Tuple[str, int], Function] = {}

    def visit(node: ast.AST, filename: str, rel: str, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, filename, rel, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                fn = Function(rel, prefix + child.name, first, child.end_lineno, parent)
                functions[(filename, first)] = fn
                visit(child, filename, rel, f"{fn.qualname}.<locals>.", fn)
            else:
                visit(child, filename, rel, prefix, parent)

    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        visit(ast.parse(path.read_text(), filename), filename, str(path.relative_to(PACKAGE)),
              "", None)
    return functions


@contextlib.contextmanager
def recording(started: set) -> Iterator[None]:
    """Add ``(co_filename, co_firstlineno)`` of every started Python frame."""

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            started.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def _quiet(fn: Callable[[], object]) -> object:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn()


def _exit_code(fn: Callable[[], object]) -> int:
    """Run ``fn`` quietly; its return value or ``SystemExit`` code, as an int."""

    try:
        code = _quiet(fn)
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else (code if isinstance(code, int) else 1)


def _run_script(path: Path, argv: List[str]) -> int:
    """Run ``path`` as ``__main__`` with ``argv``; its exit code."""

    def run() -> None:
        runpy.run_path(str(path), run_name="__main__")

    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        return _exit_code(run)
    finally:
        sys.argv = saved


def _import_benchmark(name: str):
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def cli_argv(tmp: str) -> List[List[str]]:
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_cli
    finally:
        sys.path.remove(str(ROOT / "tests"))
    argvs = [list(argv) for argv in test_cli.GOLDEN_INVOCATIONS.values()]
    argvs += [[*argv, "--json"] for argv in test_cli.GOLDEN_INVOCATIONS.values()]
    argvs += [[*argv, "--json"] for argv in test_cli.STRICT_JSON_INVOCATIONS.values()]
    argvs += [[*argv, "--format", "json"] for argv in test_cli.FORMAT_JSON_INVOCATIONS.values()]
    argvs += [line.split() for line in EXTRA_ARGV]
    return [[a.replace("{tmp}", tmp) for a in argv] for argv in argvs]


def drivers(tmp: str) -> Iterator[Tuple[str, Callable[[], int]]]:
    """(label, call returning an exit code) for every driven entrypoint."""

    from repro.cli import main as cli_main

    for argv in cli_argv(tmp):
        yield "repro.cli " + " ".join(argv), (lambda argv=argv: _exit_code(lambda: cli_main(argv)))
    for name, argv in EXAMPLES:
        yield f"examples/{name} {' '.join(argv)}", (
            lambda name=name, argv=argv: _run_script(ROOT / "examples" / name, argv))
    for name, argv in QUICK_BENCHMARKS:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        yield f"benchmarks/{name} {' '.join(argv)}", (
            lambda name=name, argv=argv: _run_script(ROOT / "benchmarks" / name, argv))

    yield "bench_fx_forward gather/kernel/sweep (speed floor waived)", _fx_forward_sections
    yield "bench_sim_throughput engine/mix/saturation + fleet (speed floor waived)", (
        _sim_throughput_sections)

    import pytest

    anchors = [str(ROOT / "benchmarks" / name) for name in PAPER_ANCHORS]
    yield "pytest paper-anchor benchmarks", lambda: _exit_code(lambda: int(pytest.main(
        [*anchors, "-q", "--benchmark-disable", "-p", "no:cacheprovider"])))


def _fx_forward_sections() -> int:
    """``bench_fx_forward.py --quick`` with its speedup floors set to zero."""

    fx = _import_benchmark("bench_fx_forward")
    return _exit_code(
        lambda: fx.bench_gather(repeats=1, min_speedup=0.0)
        or fx.bench_kernel(images=256, repeats=1, min_speedup=0.0)
        or fx.bench_sweep_scaling(images=64, chunk_size=16, worker_counts=(1, 2))
    )


def _sim_throughput_sections() -> int:
    """``bench_sim_throughput.py --quick`` and ``--fleet --quick``, no events/sec floor."""

    sim = _import_benchmark("bench_sim_throughput")
    # bench_fleet reads its floor from this constant at call time.
    sim.MIN_FLEET_EVENTS_PER_SEC = 0.0

    def run() -> int:
        sim.bench_engine(200, 20)
        sim.bench_serving_mix()
        sim.bench_saturation((2.0, 8.0), (1,), 30)
        return sim.bench_fleet(quick=True)

    return _exit_code(run)


def read_keep_list() -> Dict[str, str]:
    keep: Dict[str, str] = {}
    for line in KEEP_LIST.read_text().splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            keep[entry.strip()] = reason.strip()
    return keep


def main() -> int:
    functions = src_functions()
    started: set = set()
    failures = []
    # One recording spans the imports too: registries and flag tables run
    # functions at import time, and that is reach like any other.
    with tempfile.TemporaryDirectory() as tmp, recording(started):
        for label, drive in drivers(tmp):
            code = drive()
            if code != 0:
                failures.append(f"{label} (exit {code})")

    def unreached(fn: Function) -> bool:
        return (str(PACKAGE / fn.path), fn.first) not in started

    outermost = sorted(
        (fn for fn in functions.values()
         if unreached(fn) and (fn.parent is None or not unreached(fn.parent))),
        key=lambda fn: (fn.path, fn.first),
    )
    keep = read_keep_list()
    used = set()
    unlisted = []
    for fn in outermost:
        match = next((pattern for pattern in keep if fnmatch.fnmatchcase(fn.key, pattern)), None)
        if match is None:
            unlisted.append(fn)
        else:
            used.add(match)
        print(f"{'keep' if match else 'UNLISTED'}  {fn.key}  ({fn.lines} lines)")

    n_lines = sum(fn.lines for fn in outermost)
    print(f"\n{len(functions)} functions, {len(outermost)} outermost unreached "
          f"({n_lines} lines), {len(unlisted)} not on {KEEP_LIST.name}")
    stale = sorted(set(keep) - used)
    for pattern in stale:
        print(f"FAIL: keep-list entry matches nothing unreached: {pattern}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: entrypoint did not exit 0: {failure}", file=sys.stderr)
    if unlisted:
        print(f"FAIL: {len(unlisted)} unreached function(s) not on the keep-list",
              file=sys.stderr)
    return 1 if failures or unlisted or stale else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
