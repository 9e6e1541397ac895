#!/usr/bin/env python3
"""Entrypoint reach audit: which ``src/`` functions no user path calls, and
which defaulted parameters and dataclass fields no user path sets.

Drives every user entrypoint in one process under a function-level
``sys.setprofile`` hook and records each code object that starts running:

* the CLI argv tables of ``tests/test_cli.py`` (golden, strict-JSON and
  ``--format json``), each golden argv also with ``--json``, plus argv for
  the flags those tables leave out (CSV / Pareto views, optimizer and fleet
  fidelities, successive halving, routings, admission, cells/shards,
  ``--mix``, fault specs, ``rtl --check``), so that every flag of every
  subcommand runs at a non-default value at least once;
* every example under ``examples/`` (``--quick`` where offered);
* the CI ``--quick`` benchmarks and the 13 paper-anchor pytest benchmarks.

Every driven call must succeed (exit 0): a silently rejected argv would
hide the code it was meant to reach.  A call that raises is recorded as a
failure and the remaining calls still run.  The three benchmarks with speed
floors (``bench_fx_forward.py``, ``bench_sim_throughput.py`` and the export
ratios of ``bench_sweep_engine.py``) are driven through their correctness
sections with the speed requirement waived, because the profiler slows the
timed loops below their floors (and a timed path more than its reference)
and a floor that stops a run early would make reach depend on the host's
speed.

Three passes read the one recording:

* **Functions.**  Every function of ``src/repro`` (AST ``def``, nested
  ones included) that never started is reported by its outermost
  unreached body.
* **Parameters.**  For every parameter with a default of a reached
  function, the same hook checks each call's bound value against the
  default: ``is`` first, then ``==``; only a plain ``True`` from ``==``
  counts as equal, so a value whose ``==`` is anything else (an array)
  counts as set.  A parameter no call ever set is reported as
  ``path::qualname(param)``.  Qualnames come from the AST map, so the
  pass runs unchanged on Python 3.10 (no ``co_qualname``).
* **Fields.**  A dataclass's generated ``__init__`` has no file under
  ``src/`` (``co_filename`` is ``"<string>"``), so the same hook watches it
  as a function with defaults: every defaulted init field of a
  ``src/repro`` dataclass that was constructed at least once is checked
  against its default by the same rule (a ``default_factory`` field against
  a fresh factory value), and is attributed to the class that declares it,
  so a base-class field set through any subclass counts as set.  A field
  no construction ever set is reported as ``path::Class(field)``;
  ``init=False`` fields (run state filled in after construction) are not
  init parameters and never show.

Those listed in ``audit_reach_keep.txt`` (``path::qualname``,
``path::qualname(param)`` or ``path::Class(field)`` glob + reason) are
expected: paths gated by platform or by an error, abstract hooks, library
API the CLI does not call, names the benchmark harness patches, parameters
fed from a dataclass field, and recipe fields.  Any other unreached
function, never-set parameter or never-set field, any keep-list entry that
matches nothing (its function went or became reached, or its parameter or
field went or is set: delete the entry), or any driven call that does not
exit 0, makes the audit exit 1.  Each pass prints one summary line.  A
branch no driver takes inside a reached function does not show.

Run from the repository root (about 35 s on a 2-CPU host):

    PYTHONPATH=src python benchmarks/audit_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import fnmatch
import gc
import inspect
import io
import runpy
import sys
import tempfile
import threading
import types
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

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

#: User-facing flags the ``tests/test_cli.py`` tables do not exercise, each
#: at a non-default value at least once: a flag left at its default would
#: make the parameter it feeds read as never set.
EXTRA_ARGV = (
    "table4 --depth 20",
    "offload rODENet-3 --depth 20 --n-units 8",
    "energy rODENet-3 --depth 20 --n-units 8",
    "training --depth 20 --models ResNet ODENet",
    "eval rODENet-3 --depth 20 --n-units 8",
    "sweep --models rODENet-3 --depths 20 56 --n-units 8 16 --format csv",
    "sweep --models rODENet-3 ODENet --depths 20 --boards PYNQ-Z2 ZCU104 --format csv",
    "sweep --models rODENet-3 --depths 20 56 --qformats 16:8 32:20 --solvers euler rk4 --format pareto",
    "sweep --depths 20 --wordlengths 16 --fraction-bits 8 --maximize-y --format pareto",
    "sweep --models rODENet-3 --depths 20 56 --n-units 8 16 --maximize-x --format pareto",
    "sweep --models rODENet-3 --depths 20 --pareto-x bram --pareto-y overall_speedup "
    "--maximize-y --format pareto",
    "sweep --models rODENet-3 --depths 20",
    "eval rODENet-1 --depth 20 --solver rk4 --wordlength 16 --fraction-bits 8 --board ZCU104",
    "sim rODENet-1 --depth 20 --rate 3 --requests 40 --replicas auto --policy batched --json",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --ps-cores 2 --slo-ms 400 --faults "
    "--fault-samples 1 --json",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --faults replica_death:0.5 "
    "--fault-sampling quadrature --fault-samples 2 --fault-seed 3 --fault-duration 5",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --faults --fault-duration 5 "
    "--fault-samples 1 --format csv",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --faults axi_degraded:0.5:16 "
    "ps_core_loss:1:1 --ps-cores 2 --fault-samples 1",
    # Every fault mode's own parameter off its default.
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --replicas 2 --ps-cores 2 "
    "--faults replica_death:0.5:1 dma_corruption:1:5 ps_core_loss:2:2 --fault-samples 1",
    "sim rODENet-3 --depth 20 --rate 3 --requests 30 --mix rODENet-3:20:2 ResNet:20 --format csv",
    "sim rODENet-3 --depth 20 --rate 3 --requests 12 --slo-ms 400 --mix rODENet-3:20 ResNet:20 "
    "--faults --fault-samples 1",
    "sim rODENet-1 --depth 20 --arrivals trace --trace 0 0.1 0.2 0.5 --dma-channels 2",
    "sim rODENet-1 --depth 20 --n-units 8 --wordlength 16 --fraction-bits 8 --solver rk4 "
    "--policy batched --batch-size 2 --rate 3 --requests 20",
    "sim rODENet-1 --depth 20 --arrivals deterministic --duration 5 --rate 2 --policy round_robin "
    "--replicas 2 --format csv",
    "fleet --boards pynq-z2:4,zcu104:2 --classes interactive:0.8:latency:900ms,nightly:0.2:batch "
    "--rate 20 --requests 400 --cells 2 --shards 2 --seed 3 --json",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --fidelity event --json",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --fidelity event --routing round_robin",
    "fleet --boards pynq-z2:2,zcu104:1 --rate 5 --requests 60 --routing weighted --admission none",
    "fleet --boards pynq-z2:2 --rate 5 --requests 60 --routing round_robin --slo-ms 300",
    "fleet --boards pynq-z2:2 --rate 5 --requests 60 --fidelity event",
    "fleet --boards pynq-z2:2 --model rODENet-1 --depth 20 --n-units 8 --rate 3 --requests 40",
    "fleet --boards pynq-z2:2 --arrivals deterministic --duration 20 --rate 2 --replicas 1 "
    "--autoscale --autoscale-interval 5",
    "fleet --boards pynq-z2:3 --rate 3 --requests 300 --autoscale --autoscale-interval 2 "
    "--replicas 1",
    "optimize --objective watts --models rODENet-3 --depths 20 56 --qformats 16:8 32:20 --json",
    "optimize --objective watts --models rODENet-3 --depths 20 --solvers euler rk4 --seed 3",
    "optimize --objective max:throughput_rps --models rODENet-3 --depths 20 56 --n-units 8 16",
    # No candidate is feasible: the report carries its note instead of a winner.
    "optimize --objective watts --models rODENet-3 --depths 20 --constraint latency_ms<=0.001",
    "optimize --objective min:p99_ms --fidelity sim --models rODENet-3 --depths 20 --n-units 8 16 "
    "--boards PYNQ-Z2 ZCU104 --rate 3 --requests 20 --json",
    "optimize --objective min:p99_ms --fidelity fleet --models rODENet-3 --depths 20 "
    "--boards PYNQ-Z2 ZCU104 --count 3 --rate 5 --requests 60 --json",
    # 16 candidates on a budget of 6: the successive-halving rungs run.
    "optimize --objective min:p99_ms --fidelity sim --models rODENet-3 --depths 20 --n-units 8 16 "
    "--boards PYNQ-Z2 ZCU104 --policies fifo batched --replicas 1 2 --rate 3 --requests 20 "
    "--budget 6",
    "optimize --objective min:p99_ms --fidelity fleet --models rODENet-3 --depths 20 56 "
    "--n-units 8 16 --boards PYNQ-Z2 ZCU104 --replicas 1 2 --count 3 --rate 5 --requests 60 "
    "--budget 6",
    "optimize --objective min:p99_ms --fidelity faults --models rODENet-3 --depths 20 "
    "--boards PYNQ-Z2 --rate 3 --requests 12 --slo-ms 400 --json",
    "optimize --objective min:p99_ms --fidelity sim --models rODENet-3 --depths 20 --n-units 8 "
    "--policies fifo batched --batch-sizes 2 4 --replicas 1 2 --arrivals deterministic "
    "--duration 10 --constraint p99_ms<=5000 --budget 2 --format csv",
    "accuracy-sweep --block layer1 --images 2 --wordlengths 16 32 --format csv",
    "accuracy-sweep --block layer2_2 --images 2 --formats 16:8 12:6 --chunk-size 1 --format pareto",
    "accuracy-sweep --images 2 --formats 16:8 12:6 --n-units 8 16 --json",
    "accuracy-sweep --block layer1 --images 2 --formats 16:8 --chunk-size 1 --workers 2",
    "accuracy-sweep --images 2 --formats 16:8 12:6 --seed 3 --pareto-x rms_error "
    "--pareto-y latency_s --format pareto",
    "rtl --block layer1 --qformat 16:8 --n-units 8 --out {tmp}/rtl --vectors 2 --check --json",
    "rtl --block layer1 --qformat 16:8 --out {tmp}/rtl3",
    "rtl --block layer1 --board ZCU104 --qformat 16:8 --out {tmp}/rtl5 --check",
    "rtl --block layer1 --qformat 16:8 --n-units 8 --out {tmp}/rtl6 --vectors 1 --step-size 0.5 "
    "--time-concat --check",
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
    defaulted: Tuple[str, ...]  # parameters with a default, in signature order

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    def param_key(self, name: str) -> str:
        return f"{self.key}({name})"

    @property
    def site(self) -> Tuple[str, int]:
        """``(co_filename, co_firstlineno)`` of the function's code."""

        return str(PACKAGE / self.path), self.first

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
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                fn = Function(rel, prefix + child.name, first, child.end_lineno, parent,
                              tuple(arg.arg for arg in defaulted))
                functions[(filename, first)] = fn
                visit(child, filename, rel, f"{fn.qualname}.<locals>.", fn)
            else:
                visit(child, filename, rel, prefix, parent)

    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        visit(ast.parse(path.read_text(), filename), filename, str(path.relative_to(PACKAGE)),
              "", None)
    return functions


#: ``co_flags`` of functions whose frames resume: generators and coroutines.
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _differs(value: object, default: object) -> bool:
    """Whether a bound ``value`` counts as setting a parameter off ``default``.

    ``is`` first, then ``==``; only a plain ``True`` from ``==`` counts as
    equal, so a value whose ``==`` returns anything else (an array, an error)
    counts as set.
    """

    if value is default:
        return False
    try:
        return (value == default) is not True
    except Exception:
        return True


def _function_of(code) -> types.FunctionType:
    """A function object of ``code`` (the defaults are on it, not on the code).

    Called from the hook while a frame of ``code`` runs, so its function is
    alive; one lookup per code object.
    """

    return next(ref for ref in gc.get_referrers(code)
                if isinstance(ref, types.FunctionType) and ref.__code__ is code)


def _defaults(fn: types.FunctionType) -> Dict[str, object]:
    """Parameter name -> default value, positional and keyword-only."""

    code = fn.__code__
    positional = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    named = dict(zip(positional[len(positional) - len(defaults):], defaults))
    named.update(fn.__kwdefaults__ or {})
    return named


def field_key(cls: type, name: str) -> "str | None":
    """``path::Class(field)`` of the class that declares ``cls``'s field
    ``name`` (an inherited field belongs to its base); ``None`` when that
    class is not defined under ``src/repro``."""

    declaring = next(c for c in cls.__mro__ if name in c.__dict__.get("__annotations__", {}))
    filename = getattr(sys.modules.get(declaring.__module__), "__file__", None)
    if filename is None:
        return None
    try:
        path = Path(filename).resolve().relative_to(PACKAGE)
    except ValueError:
        return None
    return f"{path}::{declaring.__qualname__}({name})"


def _is_dataclass_init(code) -> bool:
    """Whether ``code`` is an ``__init__`` that ``@dataclass`` generated (it
    compiles the method from a string, so no file under ``src/`` has it)."""

    return code.co_filename == "<string>" and code.co_name == "__init__"


class Recorder:
    """Function starts, parameter settings and field settings, seen by one
    profile hook.

    ``started`` holds ``(co_filename, co_firstlineno)`` of every started
    Python frame.  For each ``src/repro`` function with defaulted
    parameters (``defaulted``: same key -> the function's name, which tells
    it apart from a lambda or comprehension starting on its line),
    ``unset`` maps that key to the parameters no call has yet bound off
    their default.  A parameter leaves it the first time a call does, so a
    hot function stops paying for the check once each of its parameters has
    been seen set.  A generator or coroutine frame is checked on its first
    resume only, before its body can rebind a parameter.

    A dataclass's generated ``__init__`` is watched the same way, per
    field: ``fields`` maps the :func:`field_key` of every defaulted init
    field of a constructed ``src/repro`` dataclass to its default (a fresh
    ``default_factory`` value for a factory field), and ``fields_unset``
    holds those no construction has yet bound off it.  ``init=False``
    fields are not parameters, so they never show.
    """

    def __init__(self, defaulted: Dict[Tuple[str, int], str]) -> None:
        self.defaulted = defaulted
        self.started: set = set()
        self.unset: Dict[Tuple[str, int], Dict[str, object]] = {}
        self.fields: Dict[str, object] = {}
        self.fields_unset: Dict[str, object] = {}
        # code -> a function's key, an __init__'s watched fields, or None
        self._watch: Dict[object, object] = {}
        self._first_resume: Dict[object, int] = {}

    def _first_sight(self, frame):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        self.started.add(key)
        if _is_dataclass_init(code):
            return self._init_fields(frame)
        if self.defaulted.get(key) != code.co_name:
            return None
        if key not in self.unset:
            self.unset[key] = _defaults(_function_of(code))
        return key

    def _init_fields(self, frame) -> "List[Tuple[str, str, object]] | None":
        """``(parameter, field key, signature default)`` for each defaulted
        field the running dataclass ``__init__`` binds.

        A factory field's signature default is the dataclass sentinel
        standing for "not passed"; a passed value is compared with a fresh
        factory value instead.
        """

        code = frame.f_code
        owner = next((cls for cls in type(frame.f_locals[code.co_varnames[0]]).__mro__
                      if getattr(cls.__dict__.get("__init__"), "__code__", None) is code), None)
        if owner is None or not dataclasses.is_dataclass(owner):
            return None
        signature = _defaults(owner.__dict__["__init__"])
        watched = []
        for field in dataclasses.fields(owner):
            key = field_key(owner, field.name) if field.name in signature else None
            if key is None:
                continue
            if key not in self.fields:
                default = (field.default_factory() if field.default is dataclasses.MISSING
                           else field.default)
                self.fields[key] = self.fields_unset[key] = default
            watched.append((field.name, key, signature[field.name]))
        return watched or None

    def _set_fields(self, code, watched: List[Tuple[str, str, object]], values) -> None:
        unset = self.fields_unset
        for name, key, passed_default in watched:
            if key in unset:
                value = values[name]
                if value is not passed_default and _differs(value, unset[key]):
                    del unset[key]
        watched[:] = [entry for entry in watched if entry[1] in unset]
        if not watched:
            self._watch[code] = None

    def profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        try:
            key = self._watch[code]
        except KeyError:
            key = self._watch[code] = self._first_sight(frame)
        if key is None:
            return
        if key.__class__ is list:
            self._set_fields(code, key, frame.f_locals)
            return
        unset = self.unset[key]
        if not unset:
            self._watch[code] = None
            return
        if code.co_flags & _RESUMABLE:
            # Every generator of one code starts at the same instruction, and
            # the first frame this hook sees of that code is at it.
            if self._first_resume.setdefault(code, frame.f_lasti) != frame.f_lasti:
                return
        values = frame.f_locals
        for name in [name for name, default in unset.items()
                     if _differs(values[name], default)]:
            del unset[name]

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)
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

    yield "bench_sweep_engine engines/export (ratio floors waived)", _sweep_engine_sections
    yield "bench_fx_forward gather/kernel/datapath/sweep (speed floors waived)", _fx_forward_sections
    yield "bench_sim_throughput engine/mix/saturation + fleet (speed floor waived)", (
        _sim_throughput_sections)

    import pytest

    anchors = [str(ROOT / "benchmarks" / name) for name in PAPER_ANCHORS]
    yield "pytest paper-anchor benchmarks", lambda: _exit_code(lambda: int(pytest.main(
        [*anchors, "-q", "--benchmark-disable", "-p", "no:cacheprovider"])))


def run_drivers(driven: Iterable[Tuple[str, Callable[[], int]]]) -> List[str]:
    """Run every driver, even past one that fails; a line per failure.

    A driver that raises is recorded and the rest still run, so every
    pass sees the whole recording and prints its summary.
    """

    failures = []
    for label, drive in driven:
        try:
            code = drive()
        except Exception as exc:
            failures.append(f"entrypoint raised {type(exc).__name__}: {exc} ({label})")
            continue
        if code != 0:
            failures.append(f"entrypoint did not exit 0: {label} (exit {code})")
    return failures


def _sweep_engine_sections() -> int:
    """``bench_sweep_engine.py --quick`` with its export ratio floors set to zero."""

    sweep = _import_benchmark("bench_sweep_engine")
    return _exit_code(
        lambda: sweep.run(sweep.QUICK_AXES, repeats=1, min_speedup=None)
        or sweep.bench_export(1, min_grid_ratio=0.0, min_csv_ratio=0.0)
    )


def _fx_forward_sections() -> int:
    """``bench_fx_forward.py --quick`` with its speedup floors set to zero."""

    fx = _import_benchmark("bench_fx_forward")
    return _exit_code(
        lambda: fx.bench_gather(repeats=1, min_speedup=0.0)
        or fx.bench_kernel(images=256, repeats=1, min_speedup=0.0)
        or fx.bench_datapath(repeats=1, min_ratio=0.0)
        or fx.bench_sweep_scaling(images=64, chunk_size=16, worker_counts=(1, 2))
    )


def _sim_throughput_sections() -> int:
    """``bench_sim_throughput.py --quick`` and ``--fleet --quick``, floors waived."""

    sim = _import_benchmark("bench_sim_throughput")
    # bench_fleet reads its floors from these constants at call time.
    sim.MIN_FLEET_EVENTS_PER_SEC = 0.0
    sim.MIN_EVENT_FLEET_REQUESTS_PER_SEC = 0.0

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


def _report(keys: List[str], keep: Dict[str, str], used: set,
            notes: Dict[str, str]) -> List[str]:
    """Print each key as keep / UNLISTED; the keys no keep-list pattern matches."""

    unlisted = []
    for key in keys:
        match = next((pattern for pattern in keep if fnmatch.fnmatchcase(key, pattern)), None)
        if match is None:
            unlisted.append(key)
        else:
            used.add(match)
        print(f"{'keep' if match else 'UNLISTED'}  {key}  {notes.get(key, '')}".rstrip())
    return unlisted


def main() -> int:
    functions = src_functions()
    recorder = Recorder({fn.site: fn.qualname.rpartition(".")[2]
                         for fn in functions.values() if fn.defaulted})
    # One recording spans the imports too: registries and flag tables run
    # functions at import time, and that is reach like any other.
    with tempfile.TemporaryDirectory() as tmp, recorder.recording():
        failures = run_drivers(drivers(tmp))

    def unreached(fn: Function) -> bool:
        return fn.site not in recorder.started

    outermost = sorted(
        (fn for fn in functions.values()
         if unreached(fn) and (fn.parent is None or not unreached(fn.parent))),
        key=lambda fn: (fn.path, fn.first),
    )
    # A parameter of a reached function that no call bound off its default.
    never_set = [
        fn.param_key(name)
        for fn in sorted(functions.values(), key=lambda fn: (fn.path, fn.first))
        if not unreached(fn)
        for name in fn.defaulted
        if name in recorder.unset.get(fn.site, fn.defaulted)
    ]
    keep = read_keep_list()
    keep_functions = {p: r for p, r in keep.items() if not p.endswith(")")}
    # A "(name)" entry names a parameter or a field; each pass matches its own keys.
    keep_names = {p: r for p, r in keep.items() if p.endswith(")")}
    used: set = set()
    unlisted = _report([fn.key for fn in outermost], keep_functions, used,
                       {fn.key: f"({fn.lines} lines)" for fn in outermost})
    n_lines = sum(fn.lines for fn in outermost)
    print(f"\n{len(functions)} functions, {len(outermost)} outermost unreached "
          f"({n_lines} lines), {len(unlisted)} not on {KEEP_LIST.name}\n")
    unset = _report(never_set, keep_names, used, {})
    n_defaulted = sum(len(fn.defaulted) for fn in functions.values() if not unreached(fn))
    print(f"\n{n_defaulted} defaulted parameters of reached functions, {len(never_set)} "
          f"never set, {len(unset)} not on {KEEP_LIST.name}\n")
    unset_fields = _report(sorted(recorder.fields_unset), keep_names, used, {})
    print(f"\n{len(recorder.fields)} defaulted fields of constructed dataclasses, "
          f"{len(recorder.fields_unset)} never set, {len(unset_fields)} not on {KEEP_LIST.name}")

    stale = sorted(set(keep) - used)
    for pattern in stale:
        print(f"FAIL: keep-list entry matches nothing unreached or unset: {pattern}",
              file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if unlisted:
        print(f"FAIL: {len(unlisted)} unreached function(s) not on the keep-list",
              file=sys.stderr)
    if unset:
        print(f"FAIL: {len(unset)} never-set parameter(s) not on the keep-list",
              file=sys.stderr)
    if unset_fields:
        print(f"FAIL: {len(unset_fields)} never-set field(s) not on the keep-list",
              file=sys.stderr)
    return 1 if failures or unlisted or unset or unset_fields or stale else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
