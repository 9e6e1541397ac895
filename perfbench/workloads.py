"""The benchmark's three workloads: ``forward``, ``serve`` and ``explore``.

Each workload is three timed operations (``op1``..``op3``), run in rounds by
``run.py``.  A workload makes every input from the one ``seed`` it is given,
checks every operation's output, and, for the traced run, knows where to put
spans around the public calls of the layers it exercises and how to turn the
tracer's totals into per-layer metrics.

Each workload also has a fixed calibration kernel that exercises the same
kind of machinery as its operations (BLAS and integer NumPy; pure-Python heap
and generator code; a fresh interpreter) without touching ``repro``.
``run.py`` times it between consecutive operations and reports operation
times relative to it, scaled by ``CALIBRATION_S``: host speed on a shared
machine drifts by tens of percent within a minute, and the ratio cancels most
of it.

Host time is wall-clock time on the machine running the benchmark.  Every
``*_util``, ``*_ms`` and ``err`` figure is *simulated*: what the modelled
PYNQ-Z2 / ZCU104 boards would do, deterministic for a given seed.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: The seed at which pinned outputs are checked (and the fast-vs-event gaps
#: recorded in ROADMAP.md reproduce).  Invariants are checked on every seed.
DEFAULT_SEED = 1

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

Metrics = Dict[str, Tuple[float, str]]


def _close(actual: float, expected: float, rel: float) -> bool:
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0)


def _s(ns: int) -> float:
    return ns / 1e9


# -- forward --------------------------------------------------------------------------------


class Forward:
    """The bit-accurate PL datapath through ``repro.api.accuracy_sweep``.

    Three blocks load the datapath's stages in different proportions:
    layer3_2 (64 channels on 8x8) is GEMM- and BN-isqrt-bound, layer1
    (16 channels on 32x32) is im2col- and element-wise-BN-bound, layer2_2
    sits between.  A stage speed-up shows on one end and predicts little
    change on the other.
    """

    name = "forward"
    #: op1..op3: (block, images); each sweep runs both formats.  Small batches
    #: give many samples per run, which the host's noise needs.
    BLOCKS = (("layer3_2", 64), ("layer2_2", 32), ("layer1", 32))
    FORMATS = ((32, 20), (16, 8))
    CHUNK = 64
    CALIBRATION_S = 0.03

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.ops = [block for block, _ in self.BLOCKS]
        self._images = dict(self.BLOCKS)
        self._cal = None

    def calibrate(self) -> None:
        import numpy as np

        if self._cal is None:
            rng = np.random.default_rng(0)
            self._cal = (
                rng.normal(size=(4096, 576)),
                rng.normal(size=(576, 128)),
                rng.integers(-(1 << 20), 1 << 20, size=2_000_000),
            )
        a, b, ints = self._cal
        (a @ b).sum()
        np.clip((ints * 3) >> 2, -(1 << 19), 1 << 19).sum()

    def setup(self, traced: bool) -> None:
        from repro.api import accuracy

        self.accuracy = accuracy
        for block in self.ops:
            self.run_op(block)

    def run_op(self, op: str):
        return self.accuracy.accuracy_sweep(
            op,
            formats=self.FORMATS,
            images=self._images[op],
            seed=self.seed,
            chunk_size=self.CHUNK,
            workers=1,
        )

    def check(self, op: str, result) -> List[str]:
        problems = []
        points = {(p.word_length, p.fraction_bits): p for p in result.points}
        if sorted(points) != sorted(self.FORMATS):
            return [f"{op}: rows for formats {sorted(points)}"]
        for fmt, p in points.items():
            if not all(math.isfinite(v) for v in (p.rms_error, p.max_abs_error, p.error_bound)):
                problems.append(f"{op} {fmt}: non-finite error columns")
            elif p.overflow_fraction == 0.0 and p.rms_error > p.error_bound:
                problems.append(f"{op} {fmt}: rms_error {p.rms_error} > bound {p.error_bound}")
        if not points[(32, 20)].rms_error < points[(16, 8)].rms_error:
            problems.append(f"{op}: 32:20 is not more accurate than 16:8")
        if self.seed == DEFAULT_SEED:
            for key, pin in PINS["forward"][op].items():
                p = points[tuple(int(v) for v in key.split(":"))]
                if p.overflow_fraction != pin["overflow_fraction"]:
                    problems.append(f"{op} {key}: overflow_fraction {p.overflow_fraction}")
                for col in ("rms_error", "max_abs_error"):
                    if not _close(getattr(p, col), pin[col], 1e-9):
                        problems.append(f"{op} {key}: {col} {getattr(p, col)} != {pin[col]}")
        return problems

    def instrument(self, tracer) -> None:
        from repro.api import accuracy
        from repro.fixedpoint import arithmetic
        from repro.fpga import gemm, odeblock_hw, ops

        tracer.span(accuracy, "im2col", "im2col_ref")
        tracer.span(ops, "im2col", "im2col_hw")
        tracer.span(odeblock_hw, "hw_conv2d", "conv")
        tracer.span(odeblock_hw, "hw_batch_norm", "bn")
        tracer.span(odeblock_hw.HardwareODEBlock, "dynamics_batch", "datapath")
        tracer.span(arithmetic, "fx_sqrt", "fx_sqrt")
        for fn in ("fx_mean", "fx_var", "fx_sub", "fx_div", "fx_mul", "fx_add"):
            tracer.span(arithmetic, fn, "bn_elementwise")

        def count_plan(planned, *_):
            counts = tracer.counts
            counts[tracer.key("gemm_calls")] += 1
            counts[tracer.key("gemm_limbs")] += planned.plan.n_limbs
            counts[tracer.key("gemm_int64_fallbacks")] += planned.plan.split == "int64"

        tracer.hook(gemm.PlannedGemm, "__call__", count_plan)
        tracer.span(gemm.PlannedGemm, "__call__", "gemm")
        tracer.span(gemm.PlannedGemm, "__init__", "gemm")
        # The benchmark's own call into the API: its self time is
        # accuracy_sweep's float reference path, error statistics and glue.
        tracer.span(accuracy, "accuracy_sweep", "sweep")

    def layer_metrics(self, tracer, results) -> Metrics:
        out: Metrics = {}
        # Span name -> metric name; each block's operation is its own scope.
        spans = {
            "im2col_hw": "im2col_hw_s", "sweep": "reference_s", "im2col_ref": "im2col_ref_s",
            "gemm": "gemm_s", "fx_sqrt": "fx_sqrt_s", "bn_elementwise": "bn_elementwise_s",
            "conv": "conv_self_s", "bn": "bn_self_s", "datapath": "datapath_self_s",
        }
        for block in self.ops:
            for span, metric in spans.items():
                out[f"fwd.{block}.{metric}"] = (_s(tracer.self_ns[f"{block}.{span}"]), "s")
            for name in ("gemm_calls", "gemm_limbs", "gemm_int64_fallbacks"):
                out[f"fwd.{block}.{name}"] = (tracer.counts[f"{block}.{name}"], "count")
        return out


# -- serve ----------------------------------------------------------------------------------


class Serve:
    """Open-loop Poisson serving: ``repro.sim`` and ``repro.fleet``.

    op1 is rODENet-3 (depth 20) on a PYNQ-Z2 with two replicas at light
    load, near the knee and past capacity; op2 is the fast fleet kernel on
    24 boards with two traffic classes; op3 replays a 2x PYNQ-Z2 fleet at
    event fidelity (one ``simulate`` per board).  The traced run adds the
    fast-vs-event differential the fast kernel must eventually close, at the
    size at which ROADMAP.md records its gaps (2,000 requests per rate).
    """

    name = "serve"
    ops = ["sim", "fleet_fast", "fleet_event"]
    #: Run once, untimed, after the traced round: the full differential.
    trace_ops = ["fleet_diff"]
    SIM_RATES = (2.0, 8.0, 12.0)
    SIM_REQUESTS = 300
    FLEET_REQUESTS = 40_000
    EVENT_RATE = 2.0
    EVENT_REQUESTS = 300
    DIFF_RATES = (0.5, 2.0, 4.0)
    DIFF_REQUESTS = 2000
    CALIBRATION_S = 0.03

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    @staticmethod
    def calibrate() -> None:
        def count(n):
            yield from range(n)

        heap: List[int] = []
        for i in range(50_000):
            heapq.heappush(heap, (i * 7919) % 10007)
        for _ in count(50_000):
            heapq.heappop(heap)

    def setup(self, traced: bool) -> None:
        from repro import fleet
        from repro.fleet import shard
        from repro.sim import SimScenario, runner

        self.runner = runner
        self.shard = shard
        self.sim_scenarios = [
            SimScenario(
                model="rODENet-3",
                depth=20,
                board="PYNQ-Z2",
                replicas=2,
                policy="batched",
                batch_size=4,
                ps_cores=2,
                arrival_rate_hz=rate,
                n_requests=self.SIM_REQUESTS,
                seed=self.seed,
            )
            for rate in self.SIM_RATES
        ]
        self.fleet_scenario = fleet.FleetScenario(
            boards=(fleet.BoardGroup("PYNQ-Z2", 16), fleet.BoardGroup("ZCU104", 8)),
            classes=(
                fleet.TrafficClass("interactive", 0.9, "latency"),
                fleet.TrafficClass("batch", 0.1, "batch"),
            ),
            arrival_rate_hz=30.0,
            n_requests=self.FLEET_REQUESTS,
            seed=self.seed,
        )
        # One latency class on two boards, no admission: every offered
        # request is served, so fast and event fidelity see the same load.
        pair = fleet.FleetScenario(
            boards=(fleet.BoardGroup("PYNQ-Z2", 2),), admission="none", seed=self.seed
        )
        self.event_scenario = pair.replace(
            arrival_rate_hz=self.EVENT_RATE, n_requests=self.EVENT_REQUESTS, fidelity="event"
        )
        self.diff_scenarios = [
            pair.replace(arrival_rate_hz=rate, n_requests=self.DIFF_REQUESTS)
            for rate in self.DIFF_RATES
        ]
        for op in self.ops:
            self.run_op(op)

    def run_op(self, op: str):
        if op == "sim":
            return [self.runner.simulate(s) for s in self.sim_scenarios]
        if op == "fleet_fast":
            return self.shard.simulate_fleet(self.fleet_scenario)
        if op == "fleet_event":
            return self.shard.simulate_fleet(self.event_scenario)
        return [
            (self.shard.simulate_fleet(s), self.shard.simulate_fleet(s.replace(fidelity="event")))
            for s in self.diff_scenarios
        ]

    def check(self, op: str, result) -> List[str]:
        problems = []
        if op == "sim":
            for rate, report in zip(self.SIM_RATES, result):
                req = report.requests
                if req["completed"] != req["offered"]:
                    problems.append(f"sim r{rate:g}: completed {req['completed']} != offered")
                if self.seed == DEFAULT_SEED:
                    pin = PINS["serve"]["sim"][f"{rate:g}"]
                    for name, value in self._sim_state(report).items():
                        if not _close(value, pin[name], 1e-12):
                            problems.append(f"sim r{rate:g}: {name} {value} != {pin[name]}")
            return problems
        reports = [r for pair in result for r in pair] if op == "fleet_diff" else [result]
        for report in reports:
            req = report.requests
            if req["completed"] + req["rejected"] != req["offered"]:
                problems.append(f"{op}: completed + rejected != offered ({req})")
        return problems

    @staticmethod
    def _sim_state(report) -> Dict[str, float]:
        return {
            "p50_ms": 1e3 * report.latency.percentiles[50],
            "p99_ms": 1e3 * report.latency.percentiles[99],
            "ps_util": float(report.utilization["ps"]),
            "accel_util": float(report.utilization["accelerator_mean"]),
            "queue_mean": float(report.queue["mean_depth"]),
        }

    def diff_errors(self, pairs) -> Dict[str, float]:
        """Relative error (%) of fast against event fidelity, per rate and statistic."""

        out = {}
        for rate, (fast, event) in zip(self.DIFF_RATES, pairs):
            tag = f"r{rate:g}".replace(".", "_")
            for q in (50, 95, 99):
                ref = event.latency.percentiles[q]
                out[f"{tag}.p{q}_pct"] = 100.0 * abs(fast.latency.percentiles[q] - ref) / ref
            out[f"{tag}.tput_pct"] = (
                100.0 * abs(fast.throughput_rps - event.throughput_rps) / event.throughput_rps
            )
        return out

    def instrument(self, tracer) -> None:
        from repro.fleet import balancer
        from repro.sim import engine, metrics

        tracer.span(self.runner, "simulate", "simulate")
        tracer.span(self.runner, "arrival_times", "arrivals")
        tracer.span(self.runner, "build_service_plan", "plan")
        tracer.span(engine.Simulator, "run", "event_loop")
        tracer.span(metrics.QuantileSketch, "insert", "sketch_insert")
        tracer.span(metrics.QuantileSketch, "stats", "sketch_stats")
        tracer.span(self.shard, "run_cell", "kernel")
        tracer.span(balancer.Balancer, "route", "route")
        tracer.span(balancer.BoardServer, "assign", "assign")
        tracer.count(balancer.BoardServer, "predicted_start", "predicted_start_calls")

    def layer_metrics(self, tracer, results) -> Metrics:
        self_s = lambda key: _s(tracer.self_ns[key])  # noqa: E731
        events = sum(r.events_processed for r in results["sim"])
        loop_s = self_s("sim.event_loop")
        out: Metrics = {
            "sim.arrivals_s": (self_s("sim.arrivals"), "s"),
            "sim.plan_s": (self_s("sim.plan"), "s"),
            "sim.event_loop_s": (loop_s, "s"),
            "sim.events": (events, "count"),
            "sim.ns_per_event": (1e9 * loop_s / events if events else 0.0, "ns"),
            "sim.summary_s": (self_s("sim.sketch_insert") + self_s("sim.sketch_stats"), "s"),
            "sim.runner_self_s": (self_s("sim.simulate"), "s"),
        }
        for rate, report in zip(self.SIM_RATES, results["sim"]):
            state = self._sim_state(report)
            tag = f"sim.r{rate:g}"
            out[f"{tag}.ps_util"] = (state["ps_util"], "fraction")
            out[f"{tag}.accel_util"] = (state["accel_util"], "fraction")
            out[f"{tag}.queue_mean"] = (state["queue_mean"], "requests")
            out[f"{tag}.p99_ms"] = (state["p99_ms"], "ms")
        out.update(
            {
                "fleet.kernel_self_s": (self_s("fleet_fast.kernel"), "s"),
                "fleet.sketch_insert_s": (self_s("fleet_fast.sketch_insert"), "s"),
                "fleet.route_s": (self_s("fleet_fast.route"), "s"),
                "fleet.assign_s": (self_s("fleet_fast.assign"), "s"),
                "fleet.predicted_start_calls": (
                    tracer.counts["fleet_fast.predicted_start_calls"],
                    "count",
                ),
                "fleet.rejected": (results["fleet_fast"].requests["rejected"], "count"),
                "fleet.event_replay_s": (_s(tracer.total_ns["fleet_event.simulate"]), "s"),
                "fleet.event_route_s": (self_s("fleet_event.route"), "s"),
            }
        )
        errors = self.diff_errors(results["fleet_diff"])
        for name, value in errors.items():
            out[f"fleet.err.{name}"] = (value, "%")
        out["fleet_fast_err_pct"] = (max(errors.values()), "%")
        return out


# -- explore --------------------------------------------------------------------------------


class Explore:
    """A user's shell loop over ``python -m repro.cli``.

    Every call is a fresh interpreter, so each pays interpreter and import
    start-up; untraced, op1..op3 are the ``eval``, ``sweep`` and ``optimize``
    calls below.  Traced, the same argv runs in-process through
    ``repro.cli.main``, because a subprocess cannot be wrapped from outside.
    """

    name = "explore"
    ops = ["eval", "sweep", "optimize"]
    SWEEP_ROWS = 3584
    CALIBRATION_S = 0.05
    OVERALL_SPEEDUP = 2.657
    IMPORT_PACKAGES = (
        "numpy", "repro.api", "repro.sim", "repro.fleet", "repro.opt",
        "repro.analysis", "repro.nn", "repro.train",
    )

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.in_process = False
        self.argv = {
            "eval": ["eval", "rODENet-3", "--depth", "56", "--json"],
            "sweep": [
                "sweep", "--depths", "20", "56",
                "--n-units", *[str(n) for n in range(1, 33)],
                "--wordlengths", "16", "32",
                "--boards", "PYNQ-Z2", "Zybo-Z7-20", "Ultra96-V2", "ZCU104",
                "--engine", "batch", "--format", "csv",
            ],
            "optimize": [
                "optimize", "--objective", "min:energy_per_request_J",
                "--constraint", "p95_ms<=250", "--fidelity", "sim", "--requests", "100",
                "--n-units", "16", "32", "--replicas", "1", "2",
                "--arrivals", "poisson", "--rate", "0.5",
                "--seed", str(seed), "--json",
            ],
        }

    @staticmethod
    def calibrate() -> None:
        subprocess.run([sys.executable, "-c", "import argparse, csv, json"], check=True)

    def setup(self, traced: bool) -> None:
        self.in_process = traced
        if traced:
            from repro import cli

            self.cli = cli
        self.run_op("eval")

    def run_op(self, op: str):
        """``(exit code, stdout)`` of one CLI call."""

        argv = self.argv[op]
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=self.root,
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def _strict_json(text: str):
        def reject(token):
            raise ValueError(f"non-RFC-8259 token {token}")

        return json.loads(text, parse_constant=reject)

    def check(self, op: str, result) -> List[str]:
        code, text = result
        if code != 0:
            return [f"{op}: exit code {code}"]
        if op == "sweep":
            lines = text.rstrip("\n").split("\n")
            if len(lines) != self.SWEEP_ROWS + 1 or not lines[0].startswith("model,"):
                return [f"sweep: {len(lines)} CSV lines, header {lines[0][:40]!r}"]
            return []
        data = self._strict_json(text)
        if op == "eval":
            speedup = data["timing"]["overall_speedup"]
            if abs(speedup - self.OVERALL_SPEEDUP) > 5e-4:
                return [f"eval: overall_speedup {speedup}"]
            return []
        problems = []
        if data["evaluations"] < 1 or data["budget_spent"] > data["budget"]:
            problems.append(
                f"optimize: {data['evaluations']} evaluations, "
                f"budget {data['budget_spent']}/{data['budget']}"
            )
        best = data["best"]["key"] if data["best"] else None
        if self.seed == DEFAULT_SEED and best != PINS["explore"]["optimize_winner"]:
            problems.append(f"optimize: winner {best}")
        return problems

    def instrument(self, tracer) -> None:
        from repro import cli, sim
        from repro.api import batch, evaluator
        from repro.opt import refine

        tracer.span(cli, "main", "main")
        tracer.span(evaluator.Evaluator, "evaluate", "evaluate")
        tracer.span(cli, "scenario_grid", "grid")
        tracer.span(cli, "sweep_batch", "sweep_batch")
        tracer.span(batch.BatchResult, "to_csv", "to_csv")
        tracer.span(refine, "screen_space", "screen")
        tracer.span(sim, "simulate", "refine_sim")

    def import_times(self) -> Tuple[float, Dict[str, float]]:
        """Import seconds of ``repro.cli`` in a fresh interpreter, and per package."""

        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=self.root,
            capture_output=True,
            text=True,
            check=True,
        )
        cumulative: Dict[str, float] = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            if not cum.strip().isdigit():
                continue  # the column header
            # Nested imports are indented under the module that caused them;
            # a package's first import carries its whole cumulative cost.
            cumulative[name.strip()] = int(cum) / 1e6
        packages = {pkg: cumulative.get(pkg, 0.0) for pkg in self.IMPORT_PACKAGES}
        return cumulative["repro.cli"], packages

    def layer_metrics(self, tracer, results) -> Metrics:
        self_s = lambda key: _s(tracer.self_ns[key])  # noqa: E731
        total, packages = self.import_times()
        out: Metrics = {"cli.import_s": (total, "s")}
        for pkg, seconds in packages.items():
            out[f"cli.import.{pkg}_s"] = (seconds, "s")
        opt_report = json.loads(results["optimize"][1])
        main_self = sum(self_s(f"{op}.main") for op in self.ops)
        out.update(
            {
                "cli.main_self_s": (main_self, "s"),
                "api.evaluate_s": (self_s("eval.evaluate"), "s"),
                "api.grid_s": (self_s("sweep.grid"), "s"),
                "api.sweep_batch_s": (self_s("sweep.sweep_batch"), "s"),
                "api.to_csv_s": (self_s("sweep.to_csv"), "s"),
                "opt.screen_s": (self_s("optimize.screen"), "s"),
                "opt.refine_sim_s": (self_s("optimize.refine_sim"), "s"),
                "opt.evaluations": (opt_report["evaluations"], "count"),
                "opt.budget_spent": (opt_report["budget_spent"], "units"),
            }
        )
        return out


WORKLOADS = {w.name: w for w in (Forward, Serve, Explore)}
