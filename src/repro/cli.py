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
offload        offload plan for one architecture (resources/timing/speedup)
energy         per-prediction energy with vs without the PL offload
training       projected training cost (future-work analysis)
eval           full structured report for one scenario
sweep          design-space grid (variants x depths x MAC units x ...)
sim            discrete-event serving simulation (arrivals/replicas/policies)
fleet          multi-board cluster serving (balancer/SLO admission/autoscale)
timing         timing-closure sweep over MAC-unit counts
accuracy-sweep accuracy-vs-Q-format-vs-latency frontier of the PL datapath
rtl            ODEBlock Verilog emission + vectors + structural/sim checks
============  ==========================================================

Every sub-command accepts ``--json`` to emit the structured result instead
of the formatted text tables.  Handlers return lazily built views of their
result and :func:`main` prints exactly one: ``--json`` (or ``--format
json``) the strict-JSON payload, ``--format csv`` the CSV document, and
otherwise the text table.

The commands are registered with the :func:`command` decorator and all of
them are served by one :class:`repro.api.Evaluator`, so adding a new
analysis is a matter of writing a handler that maps parsed arguments to
scenarios — no dispatch chain to extend.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ._lazy import lazy_exports
from .analysis import csv_text, format_records, format_series, strict_json
from .api import (
    SCENARIO_MODELS,
    TRAINING_PROJECTION_KEYS,
    Evaluator,
    Scenario,
    fraction_bits_for,
    scenario_grid,
)
from .api import sweep as run_sweep
from .api.sweep import SweepError
from .core import OFFLOADABLE_LAYER_NAMES, SUPPORTED_DEPTHS
from .ode.solvers import available_methods
from .platform import BOARDS, PYNQ_Z2

# The batch engine loads on first use; handlers reach it through this module
# (``_cli.sweep_batch``), so a patched ``repro.cli.sweep_batch`` is the one run.
__getattr__ = lazy_exports(__name__, {".api.batch": ("BatchResult", "sweep_batch")})[0]
_cli = sys.modules[__name__]

__all__ = ["build_parser", "main", "command", "registered_commands"]

#: Model names accepted by the scenario-driven sub-commands (the single
#: source of truth is what :class:`repro.api.Scenario` validates against).
MODEL_CHOICES: List[str] = list(SCENARIO_MODELS)


@dataclass(frozen=True)
class CommandOutput:
    """What a handler returns: builders of its views, called only when printed.

    ``text`` builds the text table, ``data`` the structured payload and
    ``csv`` (for sub-commands offering ``--format csv``) the CSV document.
    """

    text: Callable[[], str]
    data: Callable[[], object]
    csv: Optional[Callable[[], str]] = None


@dataclass(frozen=True)
class CliCommand:
    """One registered sub-command."""

    name: str
    help: str
    configure: Optional[Callable[[argparse.ArgumentParser], None]]
    handler: Callable[[argparse.Namespace, Evaluator], CommandOutput]


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


# -- table commands ---------------------------------------------------------------------


def _records_output(records: List[Dict[str, object]], title: str) -> CommandOutput:
    """A list of flat records, shown as one titled table."""

    return CommandOutput(lambda: format_records(records, title=title), lambda: records)


@command("table1", help="PYNQ-Z2 board specification")
def _cmd_table1(args, evaluator: Evaluator) -> CommandOutput:
    return _records_output(evaluator.table1_records(), "Table 1: PYNQ-Z2 specification")


@command("table2", help="ODENet layer structure / parameter sizes")
def _cmd_table2(args, evaluator: Evaluator) -> CommandOutput:
    return _records_output(evaluator.table2_records(), "Table 2: ODENet structure")


def _configure_table3(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-estimates", action="store_true", help="omit the analytical model columns")


@command("table3", help="FPGA resource utilisation", configure=_configure_table3)
def _cmd_table3(args, evaluator: Evaluator) -> CommandOutput:
    records = evaluator.table3_records(include_estimates=not args.no_estimates)
    return _records_output(records, "Table 3: resource utilisation")


def _configure_table4(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=56, choices=SUPPORTED_DEPTHS)


@command("table4", help="variant structures", configure=_configure_table4)
def _cmd_table4(args, evaluator: Evaluator) -> CommandOutput:
    return _records_output(evaluator.table4_records(args.depth), f"Table 4 (N={args.depth})")


def _configure_table5(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=None, choices=SUPPORTED_DEPTHS)
    p.add_argument("--n-units", type=int, default=16, help="MAC units of the PL design")


@command("table5", help="execution times and speedups", configure=_configure_table5)
def _cmd_table5(args, evaluator: Evaluator) -> CommandOutput:
    depths = (args.depth,) if args.depth else SUPPORTED_DEPTHS
    records = evaluator.table5_records(depths=depths, n_units=args.n_units)
    return _records_output(records, "Table 5")


# -- figure commands --------------------------------------------------------------------


@command("figure5", help="parameter size vs depth")
def _cmd_figure5(args, evaluator: Evaluator) -> CommandOutput:
    series = evaluator.figure5_series()
    return CommandOutput(
        lambda: format_series(series, title="Figure 5: parameter size [kB]"), lambda: series
    )


def _configure_figure6(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paper-only", action="store_true", help="only values quoted verbatim by the paper")
    p.add_argument("--points", action="store_true", help="list every point with its source")


@command("figure6", help="accuracy vs depth (paper-scale model)", configure=_configure_figure6)
def _cmd_figure6(args, evaluator: Evaluator) -> CommandOutput:
    if args.points:
        return _records_output(evaluator.accuracy_table(), "Figure 6 points")
    series = evaluator.figure6_series(paper_only=args.paper_only)
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


def _configure_offload(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", choices=MODEL_CHOICES)
    p.add_argument("--depth", type=int, default=56, choices=SUPPORTED_DEPTHS)
    p.add_argument("--n-units", type=int, default=16)


@command("offload", help="offload plan for one architecture", configure=_configure_offload)
def _cmd_offload(args, evaluator: Evaluator) -> CommandOutput:
    result = evaluator.evaluate(Scenario(model=args.model, depth=args.depth, n_units=args.n_units))

    def text() -> str:
        lines = [f"Offload plan for {args.model}-{args.depth} (conv_x{args.n_units})"]
        lines.append(f"  targets          : {', '.join(result.resources['targets']) or '(none)'}")
        lines.append(f"  PL resources     : {result.resource_vector()}")
        lines.append(f"  fits XC7Z020     : {result.resources['fits_device']}")
        lines.append(f"  meets 100 MHz    : {result.resources['meets_timing']}")
        lines.append(f"  expected speedup : {result.timing['overall_speedup']:.2f}x")
        return "\n".join(lines)

    return CommandOutput(text, result.as_dict)


def _configure_energy(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", choices=MODEL_CHOICES)
    p.add_argument("--depth", type=int, default=56, choices=SUPPORTED_DEPTHS)
    p.add_argument("--n-units", type=int, default=16)


@command("energy", help="per-prediction energy with vs without the PL", configure=_configure_energy)
def _cmd_energy(args, evaluator: Evaluator) -> CommandOutput:
    result = evaluator.evaluate(Scenario(model=args.model, depth=args.depth, n_units=args.n_units))
    title = f"Energy per prediction: {args.model}-{args.depth}"
    return CommandOutput(lambda: format_records([dict(result.energy)], title=title), result.as_dict)


def _configure_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=56, choices=SUPPORTED_DEPTHS)
    p.add_argument("--models", nargs="*", default=["ResNet", "rODENet-3"], choices=MODEL_CHOICES)


@command("training", help="projected training cost (future work)", configure=_configure_training)
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


def _add_scenario_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wordlength", type=int, default=32, help="fixed-point word length in bits")
    p.add_argument(
        "--fraction-bits",
        type=int,
        default=None,
        help="fixed-point fraction bits (defaults to the conventional Q-format)",
    )
    p.add_argument("--solver", choices=available_methods(), default="euler")
    p.add_argument(
        "--board",
        default=PYNQ_Z2.name,
        help="target board from the platform registry (see the 'boards' subcommand); "
        "the sim subcommand also accepts a comma-separated list to compare boards "
        "under the same trace",
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
        raise ValueError(
            f"{flag} must be a non-negative integer or 'auto' (got {value!r})"
        ) from None


def _configure_eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", nargs="?", default="rODENet-3", choices=MODEL_CHOICES)
    p.add_argument("--depth", type=int, default=56)
    p.add_argument("--n-units", type=int, default=16)
    _add_scenario_knobs(p)


@command("eval", help="full structured report for one scenario", configure=_configure_eval)
def _cmd_eval(args, evaluator: Evaluator) -> CommandOutput:
    scenario = Scenario(
        model=args.model,
        depth=args.depth,
        n_units=args.n_units,
        word_length=args.wordlength,
        fraction_bits=fraction_bits_for(args.wordlength, args.fraction_bits),
        solver=args.solver,
        board=args.board,
    )
    result = evaluator.evaluate(scenario)
    return CommandOutput(result.render, result.as_dict)


def _configure_sweep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_CHOICES,
                   help="variants to sweep (default: all Table-5 rows)")
    p.add_argument("--depths", nargs="*", type=int, default=list(SUPPORTED_DEPTHS))
    p.add_argument("--n-units", nargs="*", type=int, default=[16])
    p.add_argument("--wordlengths", nargs="*", type=int, default=[32])
    p.add_argument(
        "--fraction-bits",
        type=int,
        default=None,
        help="fraction bits applied to every --wordlengths value "
        "(default: the conventional Q-format per word length)",
    )
    p.add_argument(
        "--qformats", nargs="*", default=None, metavar="WL:FB",
        help="explicit Q-format axis, e.g. 16:8 16:10 12:6 (replaces "
        "--wordlengths; lets both knobs vary independently)",
    )
    p.add_argument("--solvers", nargs="*", choices=available_methods(), default=["euler"])
    p.add_argument(
        "--boards", nargs="*", default=None, metavar="BOARD[,BOARD...]",
        help="board axis: registered board names, space- and/or comma-separated "
        "(see the 'boards' subcommand; default: PYNQ-Z2 only)",
    )
    p.add_argument(
        "--engine",
        choices=("loop", "batch"),
        default="loop",
        help="per-scenario loop engine (default) or the vectorized batch engine "
        "(identical results, much faster on large grids)",
    )
    p.add_argument("--format", choices=("table", "csv", "json", "pareto"), default="table")
    p.add_argument(
        "--pareto-x",
        default="total_w_pl_s",
        help="x metric of the Pareto front (--format pareto; default: total_w_pl_s)",
    )
    p.add_argument(
        "--pareto-y",
        default="energy_with_pl_J",
        help="y metric of the Pareto front (--format pareto; default: energy_with_pl_J)",
    )
    p.add_argument("--maximize-x", action="store_true", help="maximize (not minimize) the x metric")
    p.add_argument("--maximize-y", action="store_true", help="maximize (not minimize) the y metric")


@command("sweep", help="design-space grid over variants/depths/units/formats", configure=_configure_sweep)
def _cmd_sweep(args, evaluator: Evaluator) -> CommandOutput:
    axes = dict(
        depths=args.depths,
        n_units=args.n_units,
        word_lengths=args.wordlengths,
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
    if args.engine == "batch":
        table = _cli.sweep_batch(grid)
    else:
        # The engines are field-for-field identical, so the loop results feed
        # the same columnar table and share one output path.
        results = run_sweep(grid, evaluator=evaluator)
        table = _cli.BatchResult.from_rows(grid, [r.as_dict() for r in results])
    title = f"Design-space sweep ({len(table)} scenarios)"
    if args.format == "pareto":
        front = _pareto_front_or_error(
            table, args.pareto_x, args.pareto_y, args.maximize_x, args.maximize_y
        )
        title = (
            f"Pareto front over ({args.pareto_x}, {args.pareto_y}): "
            f"{len(front)} of {len(table)} scenarios"
        )
        table = front
    return CommandOutput(
        lambda: format_records(table.records(), title=title), table.as_dicts, table.to_csv
    )


def _configure_sim(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", nargs="?", default="rODENet-3", choices=MODEL_CHOICES)
    p.add_argument("--depth", type=int, default=56)
    p.add_argument("--n-units", type=int, default=16)
    _add_scenario_knobs(p)
    p.add_argument(
        "--arrivals", choices=("poisson", "deterministic", "trace"), default="poisson",
        help="request arrival process",
    )
    p.add_argument("--rate", type=float, default=1.0, help="mean arrival rate [req/s]")
    p.add_argument(
        "--requests", type=int, default=None,
        help="number of requests to offer (default: the full trace, or the whole "
        "--duration, or 100 when neither bounds the run)",
    )
    p.add_argument(
        "--duration", type=float, default=None,
        help="stop offering arrivals after this much simulated time [s]",
    )
    p.add_argument(
        "--trace", nargs="*", type=float, default=None,
        help="explicit arrival timestamps (with --arrivals trace)",
    )
    p.add_argument(
        "--replicas", default="1",
        help="PL accelerator replicas, or 'auto' to size from the resource budget",
    )
    p.add_argument("--policy", choices=("fifo", "batched", "round_robin"), default="fifo")
    p.add_argument("--batch-size", type=int, default=4, help="max batch per replica (--policy batched)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (Poisson arrivals, mix sampling)")
    p.add_argument(
        "--ps-cores", default="1",
        help="PS cores serving software phases, or 'auto' for the board's core count",
    )
    p.add_argument("--dma-channels", type=int, default=1, help="concurrent AXI DMA bursts")
    p.add_argument(
        "--warmup", type=float, default=0.0,
        help="drop requests arriving before this simulated time from the latency "
        "percentiles and measure utilisation/energy from there on (transient trim)",
    )
    p.add_argument(
        "--mix", nargs="*", default=None, metavar="MODEL:DEPTH[:WEIGHT]",
        help="weighted per-request architecture mix sharing the same PL hardware",
    )
    p.add_argument(
        "--slo-ms", type=float, default=None,
        help="per-request latency SLO [ms]; the report gains an SLO-violation "
        "summary (late or corrupted completions count)",
    )
    p.add_argument(
        "--faults", nargs="*", default=None, metavar="KIND[:RATE[:PARAM]]",
        help="run an FMEA over these fault modes (bare --faults uses the whole "
        "default domain; see the 'faults' subcommand for the registry)",
    )
    p.add_argument(
        "--fault-samples", type=int, default=3,
        help="sampled injection times per fault mode (--faults)",
    )
    p.add_argument(
        "--fault-sampling", choices=("even", "quadrature"), default="even",
        help="injection-time sampling rule (--faults)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault RNG seed (bit-flip positions), independent of --seed",
    )
    p.add_argument(
        "--fault-duration", type=float, default=None,
        help="seconds until each injected fault self-clears (default: permanent)",
    )
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")


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
    configure=_configure_sim,
)
def _cmd_sim(args, evaluator: Evaluator) -> CommandOutput:
    from .sim import SimScenario, simulate

    boards = _parse_board_names(args.board, flag="--board")
    scenario = SimScenario(
        model=args.model,
        depth=args.depth,
        n_units=args.n_units,
        word_length=args.wordlength,
        fraction_bits=fraction_bits_for(args.wordlength, args.fraction_bits),
        solver=args.solver,
        board=boards[0],
        arrival=args.arrivals,
        arrival_rate_hz=args.rate,
        n_requests=args.requests,
        duration_s=args.duration,
        trace=tuple(args.trace) if args.trace is not None else None,
        replicas=_parse_auto_count(args.replicas, "--replicas"),
        policy=args.policy,
        batch_size=args.batch_size,
        seed=args.seed,
        ps_cores=_parse_auto_count(args.ps_cores, "--ps-cores"),
        dma_channels=args.dma_channels,
        warmup_s=args.warmup,
        slo_s=args.slo_ms / 1000.0 if args.slo_ms is not None else None,
    )
    if len(boards) > 1:
        if args.faults is not None:
            raise ValueError("--faults runs one board at a time; pass a single --board")
        return _sim_board_comparison(scenario, boards, args, evaluator)
    mix = _parse_mix(args.mix, scenario) if args.mix else None
    if args.faults is not None:
        return _sim_fmea(scenario, args, evaluator, mix)
    report = simulate(scenario, evaluator=evaluator, mix=mix)
    return CommandOutput(report.render, report.as_dict, report.to_csv)


def _sim_fmea(scenario, args, evaluator: Evaluator, mix) -> CommandOutput:
    """The ``sim --faults`` path: expand, run and tabulate fault scenarios."""

    from .faults import parse_fault_specs, run_fmea

    modes = parse_fault_specs(args.faults, duration_s=args.fault_duration)
    study = run_fmea(
        scenario,
        modes,
        evaluator=evaluator,
        n_samples=args.fault_samples,
        method=args.fault_sampling,
        fault_seed=args.fault_seed,
        mix=mix,
    )
    return CommandOutput(study.render, study.as_dict, study.to_csv)


def _configure_fleet(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--boards", default="pynq-z2:4", metavar="NAME[:COUNT],...",
        help="fleet inventory, e.g. 'pynq-z2:8,zcu104:4' (case-insensitive names)",
    )
    p.add_argument(
        "--classes", default=None, metavar="NAME[:WEIGHT[:KIND[:SLO]]],...",
        help="traffic classes, e.g. 'interactive:0.8:latency:50ms,nightly:0.2:batch'",
    )
    p.add_argument("--model", choices=MODEL_CHOICES, default="rODENet-3")
    p.add_argument("--depth", type=int, choices=SUPPORTED_DEPTHS, default=56)
    p.add_argument("--n-units", type=int, default=16, help="parallel MAC units per replica")
    p.add_argument(
        "--arrivals", choices=("poisson", "deterministic"), default="poisson",
        help="request arrival process",
    )
    p.add_argument("--rate", type=float, default=10.0, help="offered arrival rate [req/s]")
    p.add_argument(
        "--requests", type=int, default=None,
        help="number of requests to offer (default: the whole --duration, or "
        "1000 when neither bounds the run)",
    )
    p.add_argument(
        "--duration", type=float, default=None,
        help="stop offering arrivals after this much simulated time [s]",
    )
    p.add_argument(
        "--replicas", default="auto",
        help="PL replicas per board, or 'auto' to size each board from its fabric",
    )
    p.add_argument(
        "--routing", choices=("least_loaded", "round_robin", "weighted"),
        default="least_loaded", help="balancer routing policy",
    )
    p.add_argument(
        "--admission", choices=("none", "slo"), default="slo",
        help="admission control: 'slo' rejects latency-class requests whose "
        "predicted sojourn breaks their SLO",
    )
    p.add_argument(
        "--slo-ms", type=float, default=None,
        help="default SLO for latency classes without their own [ms]",
    )
    p.add_argument(
        "--autoscale", action="store_true",
        help="reactive power scaling: boards power up/down on windowed utilisation",
    )
    p.add_argument(
        "--autoscale-interval", type=float, default=60.0,
        help="autoscale control interval [simulated s]",
    )
    p.add_argument(
        "--cells", type=int, default=1,
        help="shared-nothing cells the inventory and traffic are dealt into "
        "(part of the scenario — changes the numbers)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="worker processes executing the cells (never changes the numbers)",
    )
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument(
        "--fidelity", choices=("fast", "event"), default="fast",
        help="'fast' = analytic balancer kernel; 'event' = replay each board's "
        "assigned trace through the full transaction-level simulator",
    )
    p.add_argument(
        "--exact", action="store_true",
        help="keep exact per-request latencies (never spill the streaming sketches)",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")


@command(
    "fleet",
    help="multi-board cluster serving behind a balancer (SLO admission, autoscale)",
    configure=_configure_fleet,
)
def _cmd_fleet(args, evaluator: Evaluator) -> CommandOutput:
    from .fleet import (
        FleetScenario,
        parse_board_groups,
        parse_traffic_classes,
        simulate_fleet,
    )

    scenario = FleetScenario(
        boards=parse_board_groups(args.boards),
        classes=(
            parse_traffic_classes(args.classes)
            if args.classes is not None
            else FleetScenario().classes
        ),
        model=args.model,
        depth=args.depth,
        n_units=args.n_units,
        arrival=args.arrivals,
        arrival_rate_hz=args.rate,
        n_requests=args.requests,
        duration_s=args.duration,
        replicas=_parse_auto_count(args.replicas, "--replicas"),
        routing=args.routing,
        admission=args.admission,
        slo_s=args.slo_ms / 1000.0 if args.slo_ms is not None else None,
        autoscale=args.autoscale,
        autoscale_interval_s=args.autoscale_interval,
        cells=args.cells,
        seed=args.seed,
        fidelity=args.fidelity,
        exact=args.exact,
    )
    report = simulate_fleet(scenario, shards=args.shards, evaluator=evaluator)
    return CommandOutput(report.render, report.as_dict)


@command("faults", help="the registered fault modes usable with sim --faults")
def _cmd_faults(args, evaluator: Evaluator) -> CommandOutput:
    from .faults import default_fault_domain

    records = []
    for mode in default_fault_domain():
        params = mode.param_dict()
        value = next(iter(params.values())) if params else None
        records.append(
            {
                "kind": mode.kind,
                "default_rate_per_hour": mode.rate_per_hour,
                "parameter": next(iter(params)) if params else "-",
                "default": "auto" if value is None else value,
                "effect": mode.summary,
            }
        )
    return _records_output(records, "Fault-mode registry (spec syntax: KIND[:RATE[:PARAM]])")


def _configure_optimize(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--objective", default=None, metavar="[min:|max:]METRIC",
        help="metric to optimize (required), e.g. 'board_price_usd', "
        "'min:p99_ms', 'max:throughput_rps'",
    )
    p.add_argument(
        "--constraint", action="append", default=[], metavar="METRIC_OP_VALUE",
        help="bound every acceptable candidate must meet, e.g. 'p99_ms<=5' "
        "(repeatable)",
    )
    p.add_argument(
        "--fidelity", choices=("analytic", "sim", "fleet", "faults"), default="analytic",
        help="what one evaluation is: the analytic batch row, a simulate() run, "
        "a simulate_fleet() run of --count boards, or a run_fmea() study",
    )
    p.add_argument(
        "--budget", type=float, default=None,
        help="evaluation budget in full-evaluation units "
        "(default: 20%% of the exhaustive grid)",
    )
    p.add_argument("--seed", type=int, default=0, help="run seed (bit-identical reruns)")
    # search axes (an axis flag with several values becomes a searched axis)
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_CHOICES)
    p.add_argument("--depths", nargs="*", type=int, default=None, choices=SUPPORTED_DEPTHS)
    p.add_argument("--n-units", nargs="*", type=int, default=None)
    p.add_argument("--qformats", nargs="*", default=None, metavar="WL:FB")
    p.add_argument("--solvers", nargs="*", default=None, choices=available_methods())
    p.add_argument(
        "--boards", nargs="*", default=None,
        help="boards to search over (default: every registered board)",
    )
    p.add_argument(
        "--replicas", nargs="*", type=int, default=None,
        help="PL replica counts to search over (serving fidelities)",
    )
    p.add_argument("--policies", nargs="*", default=None, help="dispatch policies to search over")
    p.add_argument("--batch-sizes", nargs="*", type=int, default=None)
    # fixed serving knobs (identical for every candidate)
    p.add_argument(
        "--arrivals", choices=("poisson", "deterministic"), default=None,
        help="arrival process for sim/fleet/faults evaluations",
    )
    p.add_argument("--rate", type=float, default=None, help="offered arrival rate [req/s]")
    p.add_argument("--requests", type=int, default=None, help="requests per full-length run")
    p.add_argument("--duration", type=float, default=None, help="full-length run horizon [s]")
    p.add_argument("--slo-ms", type=float, default=None, help="latency SLO [ms]")
    p.add_argument(
        "--count", type=int, default=None,
        help="boards per candidate at --fidelity fleet",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for stage-2 evaluations (never changes the numbers)",
    )
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")


@command(
    "optimize",
    help="constrained design-space search (screen + successive halving), not a sweep",
    configure=_configure_optimize,
)
def _cmd_optimize(args, evaluator: Evaluator) -> CommandOutput:
    from .opt import SearchSpace, optimize

    if args.objective is None:
        raise ValueError("optimize needs --objective (e.g. --objective min:p99_ms)")
    axes: Dict[str, object] = {}
    if args.models:
        axes["model"] = args.models
    if args.depths:
        axes["depth"] = args.depths
    if args.n_units:
        axes["n_units"] = args.n_units
    if args.qformats:
        axes["qformat"] = _parse_formats(args.qformats, flag="--qformats")
    if args.solvers:
        axes["solver"] = args.solvers
    if args.boards is not None:
        axes["board"] = _parse_board_names(args.boards, "--boards")
    else:
        axes["board"] = list(BOARDS)
    if args.replicas:
        axes["replicas"] = args.replicas
    if args.policies:
        axes["policy"] = args.policies
    if args.batch_sizes:
        axes["batch_size"] = args.batch_sizes

    fixed: Dict[str, object] = {}
    if args.arrivals is not None:
        fixed["arrival"] = args.arrivals
    if args.rate is not None:
        fixed["arrival_rate_hz"] = args.rate
    if args.requests is not None:
        fixed["n_requests"] = args.requests
    if args.duration is not None:
        fixed["duration_s"] = args.duration
    if args.slo_ms is not None:
        fixed["slo_s"] = args.slo_ms / 1000.0
    if args.count is not None:
        fixed["count"] = args.count

    report = optimize(
        SearchSpace(axes=axes, fixed=fixed),
        objective=args.objective,
        constraints=args.constraint,
        fidelity=args.fidelity,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        evaluator=evaluator,
    )
    return CommandOutput(report.render, report.as_dict, report.to_csv)


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
        )
        for name in boards
    ]

    rows: List[Dict[str, object]] = []
    for name, report in zip(boards, reports):
        s = report.scenario
        lat = report.latency
        energy = report.energy["energy_per_request_J"]
        rows.append(
            {
                "board": name,
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
        lambda: csv_text([rows[0].keys(), *(row.values() for row in rows)]),
    )


def _configure_timing(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--n-units", nargs="*", type=int, default=[1, 4, 8, 16, 32],
        help="MAC-unit counts to analyze",
    )
    p.add_argument(
        "--clock-mhz", type=float, default=None,
        help="target PL clock in MHz (default: the board's PL clock)",
    )
    p.add_argument(
        "--board", default=None,
        help="registered board whose fabric scale / clock target to analyze "
        "(default: the reference PYNQ-Z2)",
    )


@command("timing", help="timing-closure sweep over MAC-unit counts", configure=_configure_timing)
def _cmd_timing(args, evaluator: Evaluator) -> CommandOutput:
    if any(n < 1 for n in args.n_units):
        raise ValueError("--n-units entries must be positive integers")
    target_hz = args.clock_mhz * 1e6 if args.clock_mhz is not None else None
    try:
        reports = evaluator.timing_reports(args.n_units, target_hz=target_hz, board=args.board)
    except KeyError as exc:
        raise ValueError(exc.args[0] if exc.args else str(exc)) from exc
    return CommandOutput(
        lambda: "\n".join(["Timing closure (critical-path model)", *map(str, reports)]),
        lambda: [report.as_dict() for report in reports],
    )


def _configure_accuracy_sweep(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--block", choices=OFFLOADABLE_LAYER_NAMES, default="layer3_2",
        help="PL block whose datapath is swept",
    )
    p.add_argument(
        "--formats", nargs="*", default=None, metavar="WL:FB",
        help="explicit Q-formats, e.g. 16:8 12:6 (default: the built-in ladder)",
    )
    p.add_argument(
        "--wordlengths", nargs="*", type=int, default=None,
        help="word lengths resolved to their conventional fraction bits "
        "(alternative to --formats)",
    )
    p.add_argument("--n-units", nargs="*", type=int, default=[16])
    p.add_argument("--images", type=int, default=8, help="images per batched forward pass")
    p.add_argument("--seed", type=int, default=0, help="weight/input generator seed")
    p.add_argument(
        "--input-scale", type=float, default=0.5,
        help="input magnitude (larger values push narrow formats into saturation)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sharded sweep (requires --chunk-size; "
        "results are worker-count-invariant)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=None, metavar="IMAGES",
        help="images per streamed chunk (per-chunk seeded streams, bounded "
        "peak memory; default: the legacy single-batch path)",
    )
    p.add_argument("--format", choices=("table", "csv", "json", "pareto"), default="table")
    p.add_argument("--pareto-x", default="latency_s", help="x metric of --format pareto")
    p.add_argument("--pareto-y", default="rms_error", help="y metric of --format pareto")


def _parse_formats(entries, flag: str = "--formats") -> List:
    """Parse ``WL:FB`` entries into (word_length, fraction_bits) pairs."""

    pairs = []
    for entry in entries:
        parts = entry.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad {flag} entry '{entry}'; expected WL:FB (e.g. 16:8)")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"bad {flag} entry '{entry}'; expected integers WL:FB")
    return pairs


@command(
    "accuracy-sweep",
    help="accuracy-vs-Q-format-vs-latency frontier of the PL datapath",
    configure=_configure_accuracy_sweep,
)
def _cmd_accuracy_sweep(args, evaluator: Evaluator) -> CommandOutput:
    if args.formats is not None and args.wordlengths is not None:
        raise ValueError("pass either --formats or --wordlengths, not both")
    formats = None
    if args.formats is not None:
        formats = _parse_formats(args.formats)
    elif args.wordlengths is not None:
        formats = [(wl, fraction_bits_for(wl)) for wl in args.wordlengths]
    result = evaluator.accuracy_sweep(
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
        front = _pareto_front_or_error(result, args.pareto_x, args.pareto_y, False, False)
        title = (
            f"Accuracy/latency Pareto front over ({args.pareto_x}, {args.pareto_y}): "
            f"{len(front)} of {len(result)} points"
        )
        result = front

    def text() -> str:
        repro_line = "reproducibility: " + ", ".join(
            f"{key}={value}" for key, value in result.reproducibility.items()
        )
        return "\n".join([format_records(result.records(), title=title), repro_line])

    return CommandOutput(
        text,
        lambda: {"reproducibility": result.reproducibility, "points": result.records()},
        result.to_csv,
    )


def _configure_rtl(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--block", choices=OFFLOADABLE_LAYER_NAMES, default="layer3_2",
        help="offloadable block geometry to emit",
    )
    p.add_argument("--board", default="PYNQ-Z2", help="board whose spec sizes the design")
    p.add_argument(
        "--qformat", default="32:20", metavar="WL:FB",
        help="fixed-point format of the datapath (default: the paper's Q20)",
    )
    p.add_argument(
        "--n-units", type=int, default=None,
        help="MAC-unit count (default: largest conv_xN that fits the board and closes timing)",
    )
    p.add_argument("--out", default="rtl_out", help="bundle output directory")
    p.add_argument(
        "--vectors", type=int, default=0, metavar="IMAGES",
        help="dump testbench vectors for this many stimulus images per iteration",
    )
    p.add_argument("--iterations", type=int, default=2, help="Euler iterations per vector image")
    p.add_argument("--seed", type=int, default=0, help="weight/stimulus PRNG seed")
    p.add_argument("--time-concat", action="store_true", help="emit the time-concat input channel")
    p.add_argument("--step-size", type=float, default=1.0, help="Euler step size h")
    p.add_argument(
        "--check", action="store_true",
        help="run the pure-Python structural checker on the emitted bundle",
    )
    p.add_argument(
        "--simulate", action="store_true",
        help="run the iverilog conformance testbench (skipped when not installed)",
    )


@command(
    "rtl",
    help="emit the ODEBlock Verilog bundle (+ vectors, structural check, simulation)",
    configure=_configure_rtl,
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


def _pareto_front_or_error(table, x: str, y: str, maximize_x: bool, maximize_y: bool):
    """Extract a Pareto front (of a sweep or an accuracy sweep), mapping
    metric mistakes to clean CLI errors."""

    try:
        return table.pareto_front(x, y, maximize_x=maximize_x, maximize_y=maximize_y)
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
        p = sub.add_parser(cmd.name, help=cmd.help)
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
        output = cmd.handler(args, Evaluator())
        if args.json or fmt == "json":
            text = strict_json(output.data())
        elif fmt == "csv":
            text = output.csv()
        else:
            text = output.text()
    except (SweepError, ValueError) as exc:
        # Validation errors (bad depth, n_units, workers, ...) and a design
        # point that blew up mid-grid (named with its index) surface as clean
        # CLI errors rather than tracebacks.
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
