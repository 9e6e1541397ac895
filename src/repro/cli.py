"""Command-line interface for regenerating the paper's results.

Installed as the ``repro-odenet`` console script, or run as
``python -m repro.cli``.  Sub-commands map one-to-one onto the paper's
tables/figures plus the offload/energy/training design tools and the
design-space engine:

============  ==========================================================
sub-command    output
============  ==========================================================
table1         PYNQ-Z2 board specification
table2         ODENet layer structure and parameter sizes
table3         FPGA resource utilisation (published vs model)
table4         variant structures for a chosen depth
table5         execution times and speedups
figure5        parameter size vs depth series
figure6        accuracy vs depth series (paper-scale model)
boards         registered PS+PL boards (the platform registry)
offload        offload plan for one architecture (resources/timing/speedup)
energy         per-prediction energy with vs without the PL offload
training       projected training cost (future-work analysis)
eval           full structured report for one scenario
sweep          design-space grid (variants x depths x MAC units x ...)
sim            discrete-event serving simulation (arrivals/replicas/policies)
fleet          multi-board cluster serving (balancer/SLO admission/autoscale)
faults         registered fault modes usable with ``sim --faults``
optimize       constrained design-space search (screen + successive halving)
timing         timing-closure sweep over MAC-unit counts
accuracy-sweep accuracy-vs-Q-format-vs-latency frontier of the PL datapath
rtl            ODEBlock Verilog emission + vectors + structural/sim checks
============  ==========================================================

Every sub-command accepts ``--json`` to emit the structured result instead
of the formatted text tables.  Handlers return a
:class:`repro.analysis.report.Report` (the library's own result object, or a
:class:`CommandOutput` assembled from the arguments) and :func:`main` prints
exactly one of its views: ``--json`` (or ``--format json``) its
:meth:`~repro.analysis.report.Report.to_json`, ``--format csv`` its
:meth:`~repro.analysis.report.Report.to_csv`, and otherwise its
:meth:`~repro.analysis.report.Report.render`.

Every flag is declared once, in :data:`FLAGS`; a sub-command lists the flags
it takes with :func:`flags`, overriding only what differs for it (a default,
the choices, ``nargs``).  A flag feeding a scenario field stores under that
field's name (``--rate`` -> ``arrival_rate_hz``), so handlers build their
scenario from the parsed namespace and set only the values that need parsing.

The commands are registered with the :func:`command` decorator.  Each
handler gets a fresh :class:`repro.api.Evaluator` for its scenarios and
calls the rest of the library (:mod:`repro.analysis`, the simulator, the
optimizer, ...) directly, so adding a new analysis is a matter of writing a
handler that maps parsed arguments to scenarios — no dispatch chain to
extend.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional

from ._checks import check_count, check_sweep_run
from ._lazy import lazy_exports
from .analysis import Report, format_records, format_series, json_safe
from .api import (
    SCENARIO_MODELS,
    TRAINING_PROJECTION_KEYS,
    Evaluator,
    Scenario,
    fraction_bits_for,
    scenario_grid,
)
from .core import OFFLOADABLE_LAYER_NAMES, SUPPORTED_DEPTHS
from .ode.solvers import available_methods
from .platform import BOARDS, PYNQ_Z2

# The batch engine loads on first use; handlers reach it through this module
# (``_cli.sweep_batch``), so a patched ``repro.cli.sweep_batch`` is the one run.
__getattr__ = lazy_exports(__name__, {".api.batch": ("sweep_batch",)})[0]
_cli = sys.modules[__name__]

__all__ = ["FLAGS", "build_parser", "command", "flags", "main", "registered_commands"]

#: Model names accepted by the scenario-driven sub-commands (the single
#: source of truth is what :class:`repro.api.Scenario` validates against).
MODEL_CHOICES: List[str] = list(SCENARIO_MODELS)

_SOLVERS = available_methods()
_SERVED_ARRIVALS = ("poisson", "deterministic")

#: Every CLI flag, declared once: option string -> argparse keywords.  A flag
#: feeding a scenario field stores under the field's name (its ``dest``).
FLAGS: Dict[str, Dict[str, object]] = {
    # -- design point ---------------------------------------------------------
    "model": dict(choices=MODEL_CHOICES),
    "--model": dict(choices=MODEL_CHOICES, default="rODENet-3"),
    "--models": dict(nargs="*", default=None, choices=MODEL_CHOICES,
                     help="model variants (sweep default: all Table-5 rows)"),
    "--depth": dict(type=int, default=56, choices=SUPPORTED_DEPTHS),
    "--depths": dict(nargs="*", type=int, default=list(SUPPORTED_DEPTHS)),
    "--n-units": dict(type=int, default=16, help="parallel MAC units of the PL design"),
    "--wordlength": dict(dest="word_length", type=int, default=32,
                         help="fixed-point word length in bits"),
    "--wordlengths": dict(dest="word_lengths", nargs="*", type=int, default=[32],
                          help="word lengths, each at its conventional fraction bits"),
    "--fraction-bits": dict(type=int, default=None, help="fixed-point fraction bits for every "
                            "word length (default: the conventional Q-format)"),
    "--qformats": dict(nargs="*", default=None, metavar="WL:FB",
                       help="explicit Q-format axis, e.g. 16:8 16:10 (replaces --wordlengths)"),
    "--formats": dict(nargs="*", default=None, metavar="WL:FB",
                      help="explicit Q-formats, e.g. 16:8 12:6 (default: the built-in ladder)"),
    "--qformat": dict(default="32:20", metavar="WL:FB",
                      help="fixed-point format of the datapath (default: the paper's Q20)"),
    "--solver": dict(choices=_SOLVERS, default="euler"),
    "--solvers": dict(nargs="*", choices=_SOLVERS, default=["euler"]),
    "--board": dict(default=PYNQ_Z2.name, help="registered board (see 'boards'); sim also "
                    "takes a comma-separated list to compare boards under one trace"),
    "--boards": dict(nargs="*", default=None, metavar="BOARD[,BOARD...]",
                     help="board axis: registered names, space- and/or comma-separated "
                     "(sweep default: PYNQ-Z2; optimize default: every board)"),
    "--block": dict(choices=OFFLOADABLE_LAYER_NAMES, default="layer3_2",
                    help="offloadable PL block"),
    # -- serving traffic and hardware -----------------------------------------
    "--arrivals": dict(dest="arrival", choices=(*_SERVED_ARRIVALS, "trace"), default="poisson",
                       help="request arrival process"),
    "--rate": dict(dest="arrival_rate_hz", type=float, default=1.0,
                   help="offered arrival rate [req/s]"),
    "--requests": dict(dest="n_requests", type=int, default=None,
                       help="requests to offer (default: the full trace, or the whole "
                       "--duration, else 100 for sim and 1000 for fleet)"),
    "--duration": dict(dest="duration_s", type=float, default=None,
                       help="stop offering arrivals after this much simulated time [s]"),
    "--trace": dict(nargs="*", type=float, default=None,
                    help="explicit arrival timestamps (with --arrivals trace)"),
    "--replicas": dict(default="1", help="PL replicas (per board), or 'auto' to size them "
                       "from the fabric budget"),
    "--policy": dict(choices=("fifo", "batched", "round_robin"), default="fifo"),
    "--policies": dict(nargs="*", default=None, help="dispatch policies to search over"),
    "--batch-size": dict(type=int, default=4, help="max batch per replica (--policy batched)"),
    "--batch-sizes": dict(nargs="*", type=int, default=None),
    "--ps-cores": dict(default="1", help="PS cores serving software phases, or 'auto' for the "
                       "board's core count"),
    "--dma-channels": dict(type=int, default=1, help="concurrent AXI DMA bursts"),
    "--warmup": dict(dest="warmup_s", type=float, default=0.0,
                     help="transient trim: requests arriving before this simulated time [s] "
                     "leave the percentiles, utilisation and energy"),
    "--mix": dict(nargs="*", default=None, metavar="MODEL:DEPTH[:WEIGHT]",
                  help="weighted per-request architecture mix sharing the same PL hardware"),
    "--slo-ms": dict(type=float, default=None, help="per-request latency SLO [ms] (fleet: for "
                     "latency classes without their own)"),
    "--seed": dict(type=int, default=0, help="PRNG seed (equal seeds rerun bit-identically)"),
    # -- fault injection ------------------------------------------------------
    "--faults": dict(nargs="*", default=None, metavar="KIND[:RATE[:PARAM]]",
                     help="run an FMEA over these fault modes (bare: the whole default "
                     "domain; see the 'faults' subcommand)"),
    "--fault-samples": dict(type=int, default=3, help="sampled injection times per fault mode"),
    "--fault-sampling": dict(choices=("even", "quadrature"), default="even",
                             help="injection-time sampling rule"),
    "--fault-seed": dict(type=int, default=0, help="fault RNG seed (bit-flip positions)"),
    "--fault-duration": dict(type=float, default=None,
                             help="seconds until each fault self-clears (default: permanent)"),
    # -- fleet ----------------------------------------------------------------
    "--classes": dict(default=None, metavar="NAME[:WEIGHT[:KIND[:SLO]]],...",
                      help="traffic classes, e.g. 'interactive:0.8:latency:50ms,nightly:0.2'"),
    "--routing": dict(choices=("least_loaded", "round_robin", "weighted"),
                      default="least_loaded", help="balancer routing policy"),
    "--admission": dict(choices=("none", "slo"), default="slo", help="'slo' rejects "
                        "latency-class requests whose predicted sojourn breaks their SLO"),
    "--autoscale": dict(action="store_true", help="power boards up/down on windowed utilisation"),
    "--autoscale-interval": dict(dest="autoscale_interval_s", type=float, default=60.0,
                                 help="autoscale control interval [simulated s]"),
    "--cells": dict(type=int, default=1, help="shared-nothing cells the inventory and traffic "
                    "are dealt into (changes the numbers)"),
    "--shards": dict(type=int, default=1,
                     help="worker processes executing the cells (never changes the numbers)"),
    "--fidelity": dict(choices=("fast", "event"), default="fast", help="'fast' = analytic "
                       "balancer kernel; 'event' = each cell as one transaction-level "
                       "simulation, routed on live board state"),
    # -- optimizer ------------------------------------------------------------
    "--objective": dict(default=None, metavar="[min:|max:]METRIC",
                        help="metric to optimize (required), e.g. 'min:p99_ms'"),
    "--constraint": dict(action="append", default=[], metavar="METRIC_OP_VALUE",
                         help="bound every candidate must meet, e.g. 'p99_ms<=5' (repeatable)"),
    "--budget": dict(type=float, default=None, help="evaluation budget in full-evaluation "
                     "units (default: 20%% of the exhaustive grid)"),
    "--count": dict(type=int, default=None, help="boards per candidate at --fidelity fleet"),
    "--workers": dict(type=int, default=1, help="worker processes over --chunk-size "
                      "chunks, one BLAS thread each (never changes the numbers)"),
    # -- outputs --------------------------------------------------------------
    "--format": dict(choices=("table", "csv", "json", "pareto"), default="table"),
    "--engine": dict(choices=("batch",), default="batch", help="the vectorized batch engine "
                     "(the only one; accepted for scripts that pass it)"),
    "--pareto-x": dict(default="total_w_pl_s",
                      help="x metric of --format pareto (default: %(default)s)"),
    "--pareto-y": dict(default="energy_with_pl_J",
                      help="y metric of --format pareto (default: %(default)s)"),
    "--maximize-x": dict(action="store_true", help="maximize (not minimize) the x metric"),
    "--maximize-y": dict(action="store_true", help="maximize (not minimize) the y metric"),
    # -- single-command flags -------------------------------------------------
    "--no-estimates": dict(action="store_true", help="omit the analytical model columns"),
    "--paper-only": dict(action="store_true", help="only values quoted verbatim by the paper"),
    "--points": dict(action="store_true", help="list every point with its source"),
    "--clock-mhz": dict(type=float, default=None, help="target PL clock [MHz] (default: the "
                        "board's)"),
    "--images": dict(type=int, default=8, help="images per batched forward pass"),
    "--input-scale": dict(type=float, default=0.5,
                          help="input magnitude (large values saturate narrow formats)"),
    "--chunk-size": dict(type=int, default=None, metavar="IMAGES", help="images per streamed "
                         "chunk (default: one batch)"),
    "--out": dict(default="rtl_out", help="bundle output directory"),
    "--vectors": dict(type=int, default=0, metavar="IMAGES",
                      help="testbench vectors for this many stimulus images per iteration"),
    "--iterations": dict(type=int, default=2, help="Euler iterations per vector image"),
    "--time-concat": dict(action="store_true", help="emit the time-concat input channel"),
    "--step-size": dict(type=float, default=1.0, help="Euler step size h"),
    "--check": dict(action="store_true", help="run the structural checker on the bundle"),
    "--simulate": dict(action="store_true",
                       help="run the iverilog testbench (skipped when not installed)"),
}


def _bare(flag: str) -> str:
    """A flag's name as an identifier: ``--n-units`` -> ``n_units``."""

    return flag.lstrip("-").replace("-", "_")


def flags(*names: str, **overrides: Dict[str, object]):
    """A ``configure`` adding the named :data:`FLAGS` in order.

    ``overrides`` is keyed by the bare flag name (``n_units`` for
    ``--n-units``) and holds only the keywords that differ for this command.
    """

    def configure(p: argparse.ArgumentParser) -> None:
        for name in names:
            kwargs = {**FLAGS[name], **overrides.get(_bare(name), {})}
            if isinstance(kwargs.get("default"), list):
                kwargs["default"] = list(kwargs["default"])  # fresh per parser
            p.add_argument(name, **kwargs)

    return configure


class _HelpFormatter(argparse.HelpFormatter):
    """Names a flag's metavar after the flag, not its dest (a scenario field)."""

    def _get_default_metavar_for_optional(self, action):
        return _bare(action.option_strings[0]).upper()


@dataclass(frozen=True)
class CommandOutput(Report):
    """A report assembled from CLI arguments: builders of its views, called
    only when printed.

    ``text`` builds the text table, ``data`` the structured payload and
    ``rows`` (for sub-commands offering ``--format csv``) the CSV records.
    """

    text: Callable[[], str]
    data: Callable[[], object]
    rows: Callable[[], List[Dict[str, object]]] = list

    def as_dict(self) -> object:
        return self.data()

    def render(self) -> str:
        return self.text()

    def records(self) -> List[Dict[str, object]]:
        return self.rows()


@dataclass(frozen=True)
class CliCommand:
    """One registered sub-command."""

    name: str
    help: str
    configure: Optional[Callable[[argparse.ArgumentParser], None]]
    handler: Callable[[argparse.Namespace, Evaluator], Report]


_REGISTRY: Dict[str, CliCommand] = {}


def command(name: str, help: str = "", configure=None):
    """Register a sub-command handler (replaces the old if/elif dispatch)."""

    def decorator(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate CLI command '{name}'")
        _REGISTRY[name] = CliCommand(name=name, help=help, configure=configure, handler=fn)
        return fn

    return decorator


def registered_commands() -> Dict[str, CliCommand]:
    """The command registry (read-only view for tests and tooling)."""

    return dict(_REGISTRY)


def _scenario(cls, args: argparse.Namespace, **parsed):
    """``cls`` built from the namespace entries named after its fields.

    ``parsed`` holds the values that needed parsing and takes precedence.
    """

    names = {f.name for f in fields(cls)}
    return cls(**{**{k: v for k, v in vars(args).items() if k in names}, **parsed})


def _slo_s(slo_ms: Optional[float]) -> Optional[float]:
    return slo_ms / 1000.0 if slo_ms is not None else None


# -- table commands ---------------------------------------------------------------------


def _records_output(records: List[Dict[str, object]], title: str) -> CommandOutput:
    """A list of flat records, shown as one titled table."""

    return CommandOutput(lambda: format_records(records, title=title), lambda: records)


@command("table1", help="PYNQ-Z2 board specification")
def _cmd_table1(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.tables import table1_records

    return _records_output(table1_records(), "Table 1: PYNQ-Z2 specification")


@command("table2", help="ODENet layer structure / parameter sizes")
def _cmd_table2(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.tables import table2_records

    return _records_output(table2_records(), "Table 2: ODENet structure")


@command("table3", help="FPGA resource utilisation", configure=flags("--no-estimates"))
def _cmd_table3(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.tables import table3_records

    records = table3_records(include_estimates=not args.no_estimates)
    return _records_output(records, "Table 3: resource utilisation")


@command("table4", help="variant structures", configure=flags("--depth"))
def _cmd_table4(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.tables import table4_records

    return _records_output(table4_records(args.depth), f"Table 4 (N={args.depth})")


@command(
    "table5",
    help="execution times and speedups",
    configure=flags("--depth", "--n-units", depth=dict(default=None)),
)
def _cmd_table5(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.tables import table5_records

    depths = (args.depth,) if args.depth else SUPPORTED_DEPTHS
    records = table5_records(depths=depths, n_units=args.n_units)
    return _records_output(records, "Table 5")


# -- figure commands --------------------------------------------------------------------


@command("figure5", help="parameter size vs depth")
def _cmd_figure5(args, evaluator: Evaluator) -> CommandOutput:
    from .core.parameter_model import figure5_series

    series = figure5_series()
    return CommandOutput(
        lambda: format_series(series, title="Figure 5: parameter size [kB]"), lambda: series
    )


@command(
    "figure6",
    help="accuracy vs depth (paper-scale model)",
    configure=flags("--paper-only", "--points"),
)
def _cmd_figure6(args, evaluator: Evaluator) -> CommandOutput:
    from .analysis.accuracy_model import accuracy_table, figure6_series

    if args.points:
        return _records_output(accuracy_table(), "Figure 6 points")
    series = figure6_series(paper_only=args.paper_only)
    return CommandOutput(
        lambda: format_series(series, title="Figure 6: accuracy [%]"), lambda: series
    )


# -- platform commands ------------------------------------------------------------------


@command("boards", help="registered PS+PL boards (the platform registry)")
def _cmd_boards(args, evaluator: Evaluator) -> CommandOutput:
    records = []
    for name, b in BOARDS.items():
        records.append(
            {
                "board": name,
                "fpga": b.fpga.name,
                "bram36": b.fpga.bram36,
                "dsp": b.fpga.dsp,
                "lut": b.fpga.lut,
                "ff": b.fpga.ff,
                "ps": f"{b.ps_cores}x {b.ps_clock_mhz:.0f}MHz",
                "dram_mb": b.dram_mb,
                "pl_mhz": round(b.pl_clock_mhz, 1),
                "ps_active_w": b.power.ps_active_w,
                "pl_static_w": b.power.pl_static_w,
                "price_usd": b.price_usd,
            }
        )
    return _records_output(records, f"Registered boards ({len(records)})")


# -- scenario commands ------------------------------------------------------------------

#: ``eval`` and ``sim`` take an optional model and leave the depth check to
#: :class:`repro.api.Scenario` (whose error names the family rule).
_FREE_POINT = dict(model=dict(nargs="?", default="rODENet-3"), depth=dict(choices=None))
_SCENARIO_KNOBS = ("--wordlength", "--fraction-bits", "--solver", "--board")


@command(
    "offload",
    help="offload plan for one architecture",
    configure=flags("model", "--depth", "--n-units"),
)
def _cmd_offload(args, evaluator: Evaluator) -> CommandOutput:
    result = evaluator.evaluate(_scenario(Scenario, args))

    def text() -> str:
        lines = [f"Offload plan for {args.model}-{args.depth} (conv_x{args.n_units})"]
        lines.append(f"  targets          : {', '.join(result.resources['targets']) or '(none)'}")
        lines.append(f"  PL resources     : {result.resource_vector()}")
        lines.append(f"  fits XC7Z020     : {result.resources['fits_device']}")
        lines.append(f"  meets 100 MHz    : {result.resources['meets_timing']}")
        failed = [check for check, ok in (
            ("does not fit XC7Z020", result.resources["fits_device"]),
            ("misses 100 MHz", result.resources["meets_timing"]),
        ) if not ok]
        verdict = f" (infeasible: {', '.join(failed)})" if failed else ""
        lines.append(f"  expected speedup : {result.timing['overall_speedup']:.2f}x{verdict}")
        return "\n".join(lines)

    return CommandOutput(text, result.as_dict)


@command(
    "energy",
    help="per-prediction energy with vs without the PL",
    configure=flags("model", "--depth", "--n-units"),
)
def _cmd_energy(args, evaluator: Evaluator) -> CommandOutput:
    result = evaluator.evaluate(_scenario(Scenario, args))
    title = f"Energy per prediction: {args.model}-{args.depth}"
    return CommandOutput(lambda: format_records([dict(result.energy)], title=title), result.as_dict)


@command(
    "training",
    help="projected training cost (future work)",
    configure=flags("--depth", "--models", models=dict(default=["ResNet", "rODENet-3"])),
)
def _cmd_training(args, evaluator: Evaluator) -> CommandOutput:
    results = [evaluator.evaluate(Scenario(model=name, depth=args.depth)) for name in args.models]
    rows = [
        {**r.training, **{key: round(r.training[key], 3) for key in TRAINING_PROJECTION_KEYS}}
        for r in results
    ]
    title = f"Projected training cost at N={args.depth} (future-work model)"
    return CommandOutput(
        lambda: format_records(rows, title=title), lambda: [r.as_dict() for r in results]
    )


def _parse_board_names(value, flag: str) -> List[str]:
    """Split ``--boards``-style values (repeated and/or comma-separated)."""

    entries = value if isinstance(value, list) else [value]
    names = [name for entry in entries for name in str(entry).split(",") if name]
    if not names:
        raise ValueError(f"{flag} needs at least one board name")
    return names


def _parse_auto_count(value: str, flag: str) -> int:
    """Parse an ``N``-or-``auto`` count flag; ``auto`` maps to 0 (sized later)."""

    if value == "auto":
        return 0
    try:
        return int(value)
    except ValueError:
        # Not a number: check_count refuses it, naming the flag.  A negative
        # number is the scenario's to refuse.
        return check_count(flag, value, 0, " or 'auto'")


@command(
    "eval",
    help="full structured report for one scenario",
    configure=flags("model", "--depth", "--n-units", *_SCENARIO_KNOBS, **_FREE_POINT),
)
def _cmd_eval(args, evaluator: Evaluator) -> Report:
    fraction_bits = fraction_bits_for(args.word_length, args.fraction_bits)
    return evaluator.evaluate(_scenario(Scenario, args, fraction_bits=fraction_bits))


@command(
    "sweep",
    help="design-space grid over variants/depths/units/formats",
    configure=flags(
        "--models", "--depths", "--n-units", "--wordlengths", "--fraction-bits", "--qformats",
        "--solvers", "--boards", "--engine", "--format", "--pareto-x", "--pareto-y",
        "--maximize-x", "--maximize-y",
        n_units=dict(nargs="*", default=[16]),
    ),
)
def _cmd_sweep(args, evaluator: Evaluator) -> Report:
    for flag, values in (
        ("--models", args.models), ("--depths", args.depths), ("--n-units", args.n_units),
        ("--wordlengths", args.word_lengths), ("--solvers", args.solvers),
        ("--qformats", args.qformats),
    ):
        if values == []:
            raise ValueError(f"{flag} needs at least one value")
    axes = dict(
        depths=args.depths,
        n_units=args.n_units,
        word_lengths=args.word_lengths,
        fraction_bits=args.fraction_bits,
        solvers=args.solvers,
    )
    if args.qformats is not None:
        if args.fraction_bits is not None:
            raise ValueError("pass either --qformats or --fraction-bits, not both")
        axes["qformats"] = _parse_formats(args.qformats, flag="--qformats")
        axes["fraction_bits"] = None
    if args.models is not None:
        axes["models"] = args.models
    if args.boards is not None:
        axes["boards"] = _parse_board_names(args.boards, flag="--boards")
    grid = scenario_grid(**axes)
    table = _cli.sweep_batch(grid)
    if args.format != "pareto":
        return table
    front = _pareto_front_or_error(
        table, args.pareto_x, args.pareto_y, maximize_x=args.maximize_x, maximize_y=args.maximize_y
    )
    title = (
        f"Pareto front over ({args.pareto_x}, {args.pareto_y}): "
        f"{len(front)} of {len(table)} scenarios"
    )
    return CommandOutput(lambda: format_records(front.records(), title=title), front.as_dict)


def _parse_mix(entries, scenario) -> List:
    """Parse ``--mix MODEL:DEPTH[:WEIGHT]`` into (scenario, weight) pairs."""

    mix = []
    for entry in entries:
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad --mix entry '{entry}'; expected MODEL:DEPTH[:WEIGHT]")
        try:
            depth = int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(
                f"bad --mix entry '{entry}'; DEPTH must be an integer and WEIGHT a number"
            ) from None
        model = parts[0]
        mix.append((scenario.design_point.replace(model=model, depth=depth), weight))
    return mix


@command(
    "sim",
    help="discrete-event simulation of multi-request PS+PL serving",
    configure=flags(
        "model", "--depth", "--n-units", *_SCENARIO_KNOBS, "--arrivals", "--rate",
        "--requests", "--duration", "--trace", "--replicas", "--policy", "--batch-size",
        "--seed", "--ps-cores", "--dma-channels", "--warmup", "--mix", "--slo-ms", "--faults",
        "--fault-samples", "--fault-sampling", "--fault-seed", "--fault-duration", "--format",
        **_FREE_POINT,
        format=dict(choices=("table", "json", "csv")),
    ),
)
def _cmd_sim(args, evaluator: Evaluator) -> Report:
    from .sim import SimScenario

    # The fault knobs are checked with or without --faults, as --faults does.
    check_count("n_samples", args.fault_samples, 1)
    if args.fault_duration is not None:
        from .faults.modes import check_duration

        check_duration(args.fault_duration)

    boards = _parse_board_names(args.board, flag="--board")
    scenario = _scenario(
        SimScenario,
        args,
        fraction_bits=fraction_bits_for(args.word_length, args.fraction_bits),
        board=boards[0],
        trace=tuple(args.trace) if args.trace is not None else None,
        replicas=_parse_auto_count(args.replicas, "--replicas"),
        ps_cores=_parse_auto_count(args.ps_cores, "--ps-cores"),
        slo_s=_slo_s(args.slo_ms),
    )
    if len(boards) > 1:
        if args.faults is not None:
            raise ValueError("--faults runs one board at a time; pass a single --board")
        return _sim_board_comparison(scenario, boards, args, evaluator)
    mix = _parse_mix(args.mix, scenario) if args.mix else None
    if args.faults is not None:
        return _sim_fmea(scenario, args, evaluator, mix)
    # The simulator imports NumPy: the scenario has validated every knob.
    from .sim import simulate

    return simulate(scenario, evaluator=evaluator, mix=mix, fault_seed=args.fault_seed)


def _sim_fmea(scenario, args, evaluator: Evaluator, mix) -> Report:
    """The ``sim --faults`` path: expand, run and tabulate fault scenarios."""

    from .faults import parse_fault_specs, run_fmea

    modes = parse_fault_specs(args.faults, duration_s=args.fault_duration)
    return run_fmea(
        scenario,
        modes,
        evaluator=evaluator,
        n_samples=args.fault_samples,
        method=args.fault_sampling,
        fault_seed=args.fault_seed,
        mix=mix,
    )


@command(
    "fleet",
    help="multi-board cluster serving behind a balancer (SLO admission, autoscale)",
    configure=flags(
        "--boards", "--classes", "--model", "--depth", "--n-units", "--arrivals", "--rate",
        "--requests", "--duration", "--replicas", "--routing", "--admission", "--slo-ms",
        "--autoscale", "--autoscale-interval", "--cells", "--shards", "--seed", "--fidelity",
        "--format",
        boards=dict(
            nargs=None, default="pynq-z2:4", metavar="NAME[:COUNT],...",
            help="fleet inventory, e.g. 'pynq-z2:8,zcu104:4' (case-insensitive names)",
        ),
        arrivals=dict(choices=_SERVED_ARRIVALS),
        rate=dict(default=10.0),
        replicas=dict(default="auto"),
        format=dict(choices=("table", "json")),
    ),
)
def _cmd_fleet(args, evaluator: Evaluator) -> Report:
    from .fleet import FleetScenario, parse_board_groups, parse_traffic_classes

    scenario = _scenario(
        FleetScenario,
        args,
        boards=parse_board_groups(args.boards),
        classes=(
            parse_traffic_classes(args.classes)
            if args.classes is not None
            else FleetScenario().classes
        ),
        replicas=_parse_auto_count(args.replicas, "--replicas"),
        slo_s=_slo_s(args.slo_ms),
    )
    from .fleet import simulate_fleet

    return simulate_fleet(scenario, shards=args.shards, evaluator=evaluator)


@command("faults", help="the registered fault modes usable with sim --faults")
def _cmd_faults(args, evaluator: Evaluator) -> CommandOutput:
    from .faults import default_fault_domain

    records = []
    for mode in default_fault_domain():
        value = getattr(mode, mode.param)
        records.append(
            {
                "kind": mode.kind,
                "default_rate_per_hour": mode.rate_per_hour,
                "parameter": mode.param,
                "default": "auto" if value is None else value,
                "effect": mode.summary,
            }
        )
    return _records_output(records, "Fault-mode registry (spec syntax: KIND[:RATE[:PARAM]])")


#: ``optimize`` search-axis flags (by dest) -> :class:`repro.opt.SearchSpace`
#: axis names; an axis flag with several values becomes a searched axis.
_OPT_AXES = {
    "models": "model", "depths": "depth", "n_units": "n_units", "qformats": "qformat",
    "solvers": "solver", "boards": "board", "replicas": "replicas", "policies": "policy",
    "batch_sizes": "batch_size",
}


@command(
    "optimize",
    help="constrained design-space search (screen + successive halving), not a sweep",
    configure=flags(
        "--objective", "--constraint", "--fidelity", "--budget", "--seed",
        *(f"--{dest.replace('_', '-')}" for dest in _OPT_AXES),
        "--arrivals", "--rate", "--requests", "--duration", "--slo-ms", "--count", "--format",
        fidelity=dict(
            choices=("analytic", "sim", "fleet", "faults"), default="analytic",
            help="what one evaluation is: the analytic batch row, a simulate() run, "
            "a simulate_fleet() run of --count boards, or a run_fmea() study",
        ),
        depths=dict(default=None, choices=SUPPORTED_DEPTHS),
        n_units=dict(nargs="*", default=None),
        solvers=dict(default=None),
        boards=dict(metavar=None),
        replicas=dict(
            nargs="*", type=int, default=None,
            help="PL replica counts to search over (serving fidelities)",
        ),
        arrivals=dict(choices=_SERVED_ARRIVALS, default=None),
        rate=dict(default=None),
        format=dict(choices=("table", "json", "csv")),
    ),
)
def _cmd_optimize(args, evaluator: Evaluator) -> Report:
    from .opt import SearchSpace

    if args.objective is None:
        raise ValueError("optimize needs --objective (e.g. --objective min:p99_ms)")
    axes: Dict[str, object] = {}
    for dest, axis in _OPT_AXES.items():
        values = getattr(args, dest)
        if dest == "boards":
            axes[axis] = list(BOARDS) if values is None else _parse_board_names(values, "--boards")
        elif values:
            axes[axis] = _parse_formats(values, flag="--qformats") if dest == "qformats" else values
    fixed = {
        "arrival": args.arrival,
        "arrival_rate_hz": args.arrival_rate_hz,
        "n_requests": args.n_requests,
        "duration_s": args.duration_s,
        "slo_s": _slo_s(args.slo_ms),
        "count": args.count,
    }
    space = SearchSpace(axes=axes, fixed={k: v for k, v in fixed.items() if v is not None})
    # The optimizer checks the request before its screen loads NumPy.
    from .opt import optimize

    return optimize(
        space,
        objective=args.objective,
        constraints=args.constraint,
        fidelity=args.fidelity,
        budget=args.budget,
        seed=args.seed,
        evaluator=evaluator,
    )


def _sim_board_comparison(scenario, boards: List[str], args, evaluator: Evaluator) -> CommandOutput:
    """Run the same serving scenario on several boards and compare.

    Every run shares the scenario's seed, so deterministic and Poisson
    arrival processes offer *identical* request traces to each board — the
    comparison isolates the platform.
    """

    from .sim import simulate

    reports = [
        simulate(
            scenario.replace(board=name),
            evaluator=evaluator,
            mix=_parse_mix(args.mix, scenario.replace(board=name)) if args.mix else None,
            fault_seed=args.fault_seed,
        )
        for name in boards
    ]

    rows: List[Dict[str, object]] = []
    for report in reports:
        s = report.scenario
        lat = report.latency
        energy = report.energy["energy_per_request_J"]
        rows.append(
            {
                "board": s["board"],
                "replicas": s["replicas"],
                "ps_cores": s["ps_cores"],
                "completed": report.requests["completed"],
                "throughput_rps": round(report.throughput_rps, 4),
                "p50_s": round(lat.percentiles[50], 6),
                "p95_s": round(lat.percentiles[95], 6),
                "p99_s": round(lat.percentiles[99], 6),
                "util_ps": round(report.utilization["ps"], 3),
                "util_pl": round(report.utilization["accelerator_mean"], 3),
                "energy_per_req_J": round(energy, 4) if energy is not None else None,
            }
        )
    title = (
        f"Cross-board serving: {scenario.model}-{scenario.depth} under one "
        f"{scenario.arrival} trace (seed {scenario.seed})"
    )
    return CommandOutput(
        lambda: format_records(rows, title=title),
        lambda: [report.as_dict() for report in reports],
        lambda: [json_safe(row) for row in rows],
    )


@command(
    "timing",
    help="timing-closure sweep over MAC-unit counts",
    configure=flags(
        "--n-units", "--clock-mhz", "--board",
        n_units=dict(nargs="*", default=[1, 4, 8, 16, 32]),
        board=dict(default=None),
    ),
)
def _cmd_timing(args, evaluator: Evaluator) -> CommandOutput:
    from .fpga.timing import TimingModel
    from .platform import get_board

    if any(n < 1 for n in args.n_units):
        raise ValueError("--n-units entries must be positive integers")
    target_hz = args.clock_mhz * 1e6 if args.clock_mhz is not None else None
    try:
        model = TimingModel(get_board(args.board or PYNQ_Z2.name))
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    reports = [model.analyze(n, target_hz=target_hz) for n in args.n_units]
    return CommandOutput(
        lambda: "\n".join(["Timing closure (critical-path model)", *map(str, reports)]),
        lambda: [report.as_dict() for report in reports],
    )


def _parse_formats(entries, flag: str = "--formats") -> List:
    """Parse ``WL:FB`` entries into :class:`QFormat` values, naming ``flag``
    on a bad entry."""

    from .fixedpoint.qformat import QFormat

    try:
        return [QFormat.parse(entry) for entry in entries]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


@command(
    "accuracy-sweep",
    help="accuracy-vs-Q-format-vs-latency frontier of the PL datapath",
    configure=flags(
        "--block", "--formats", "--wordlengths", "--n-units", "--images", "--seed",
        "--input-scale", "--workers", "--chunk-size", "--format", "--pareto-x", "--pareto-y",
        wordlengths=dict(default=None),
        n_units=dict(nargs="*", default=[16]),
        pareto_x=dict(default="latency_s"),
        pareto_y=dict(default="rms_error"),
    ),
)
def _cmd_accuracy_sweep(args, evaluator: Evaluator) -> CommandOutput:
    if args.formats is not None and args.word_lengths is not None:
        raise ValueError("pass either --formats or --wordlengths, not both")
    formats = None
    if args.formats is not None:
        formats = _parse_formats(args.formats)
    elif args.word_lengths is not None:
        formats = _parse_formats([(wl, fraction_bits_for(wl)) for wl in args.word_lengths])
    # The datapath imports NumPy: check the run and its word lengths before it loads.
    check_sweep_run(args.images, args.workers, args.seed, args.chunk_size, args.input_scale)
    for fmt in formats or ():
        fmt.check_datapath()
    from .api.accuracy import accuracy_sweep

    result = accuracy_sweep(
        block=args.block,
        formats=formats,
        n_units=args.n_units,
        images=args.images,
        seed=args.seed,
        input_scale=args.input_scale,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    title = f"Accuracy-vs-format sweep: {args.block}, {args.images} images"
    if args.format == "pareto":
        front = _pareto_front_or_error(result, args.pareto_x, args.pareto_y)
        title = (
            f"Accuracy/latency Pareto front over ({args.pareto_x}, {args.pareto_y}): "
            f"{len(front)} of {len(result)} points"
        )
        result = front
    return CommandOutput(
        # format_records' title block over the points table and reproducibility line
        lambda: "\n".join([title, "=" * len(title), result.render()]),
        result.as_dict,
        result.records,
    )


@command(
    "rtl",
    help="emit the ODEBlock Verilog bundle (+ vectors, structural check, simulation)",
    configure=flags(
        "--block", "--board", "--qformat", "--n-units", "--out", "--vectors", "--iterations",
        "--seed", "--time-concat", "--step-size", "--check", "--simulate",
        n_units=dict(
            default=None,
            help="MAC-unit count (default: largest conv_xN that fits the board and closes timing)",
        ),
    ),
)
def _cmd_rtl(args, evaluator: Evaluator) -> CommandOutput:
    from .api.rtl import export_rtl

    (qformat,) = _parse_formats([args.qformat], flag="--qformat")
    if args.simulate and args.vectors <= 0:
        raise ValueError("--simulate needs --vectors N (there is nothing to replay otherwise)")
    summary = export_rtl(
        args.out,
        block=args.block,
        board=args.board,
        qformat=qformat,
        n_units=args.n_units,
        time_concat=args.time_concat,
        step_size=args.step_size,
        vectors=args.vectors,
        iterations=args.iterations,
        seed=args.seed,
        check=args.check,
        simulate=args.simulate,
    )
    return CommandOutput(lambda: _render_rtl_summary(summary), lambda: summary)


def _render_rtl_summary(summary: Dict[str, object]) -> str:
    lines = [
        f"RTL bundle: {summary['out_dir']}",
        f"  block     {summary['block']['name']} "
        f"({summary['block']['out_channels']}ch {summary['block']['height']}x{summary['block']['width']})",
        f"  qformat   {summary['qformat']['word_length']}:{summary['qformat']['fraction_bits']}",
        f"  board     {summary['board']['name']}",
        f"  n_units   {summary['n_units']} ({summary['n_banks']} weight banks)",
        f"  resources {summary['resources']['dsp']} DSP, {summary['resources']['bram_tiles']} BRAM tiles",
        f"  files     {len(summary['files'])}",
    ]
    if summary["vectors"] is not None:
        lines.append(
            f"  vectors   {summary['vectors']['records']} records "
            f"x {summary['vectors']['words_per_map']} words"
        )
    if summary["check"] is not None:
        lines.append(f"  check     {'ok' if summary['check']['ok'] else 'FAILED'}")
    sim = summary["simulation"]
    if sim is not None:
        if sim.get("skipped"):
            lines.append(f"  simulate  skipped ({sim['reason']})")
        else:
            lines.append(
                f"  simulate  {'PASS' if sim['passed'] else 'FAIL'} "
                f"({sim['vectors']} vectors, {sim['words']} words)"
            )
    return "\n".join(lines)


def _pareto_front_or_error(table, x: str, y: str, **maximize: bool):
    """Extract a Pareto front (of a sweep or an accuracy sweep), mapping
    metric mistakes to clean CLI errors."""

    try:
        return table.pareto_front(x, y, **maximize)
    except KeyError as exc:
        raise ValueError(
            f"unknown pareto metric: {exc.args[0] if exc.args else exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"pareto metrics must be numeric columns (got --pareto-x {x} --pareto-y {y}): {exc}"
        ) from exc


# -- parser / entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser from the command registry."""

    parser = argparse.ArgumentParser(
        prog="repro-odenet",
        description="Regenerate results of 'Accelerating ODE-Based Neural Networks on Low-Cost FPGAs'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _REGISTRY.values():
        p = sub.add_parser(cmd.name, help=cmd.help, formatter_class=_HelpFormatter)
        if cmd.configure is not None:
            cmd.configure(p)
        p.add_argument(
            "--json",
            action="store_true",
            help="emit the structured result as JSON instead of formatted text",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""

    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = _REGISTRY[args.command]
    fmt = getattr(args, "format", None)
    try:
        report = cmd.handler(args, Evaluator())
        if args.json or fmt == "json":
            text = report.to_json()
        elif fmt == "csv":
            text = report.to_csv()
        else:
            text = report.render()
    except ValueError as exc:
        # Validation errors (bad depth, n_units, workers, ...) surface as
        # clean CLI errors rather than tracebacks.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``... | head``).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
