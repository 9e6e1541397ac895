"""Vectorized batch-evaluation engine for large design-space sweeps.

The loop engine (:func:`repro.api.sweep.sweep`) evaluates one scenario per
Python call — fine for dozens of design points, GIL-bound Python overhead for
thousands.  This module computes the same analytic models (parameter counts,
the cycle/time model, AXI transfer, resource and power/energy estimates, the
training projection) over whole scenario *axes* as NumPy arrays:

* per-scenario quantities (MAC units, Q-format, PL/PS clocks, solver stages,
  the board's device vector — fabric totals, delay scale, wattages) are
  evaluated with the array-capable kernels the scalar models now expose
  (:func:`repro.core.execution_model.pl_layer_seconds_kernel`,
  :func:`repro.fpga.resources.lut_count_kernel`,
  :func:`repro.fpga.bram.bram_tiles_kernel`,
  :func:`repro.fpga.timing.critical_path_ns_kernel`,
  :func:`repro.fpga.power.pl_power_kernel`, ...).  Since phase 2, BRAM
  plans and timing closure are closed-form array kernels too — a grid may
  vary the Q-format / ``n_units`` / clock axes over millions of distinct
  plan keys without ever touching the scalar planner;
* quantities that are genuinely structural (the Table-4 layer plans and
  offload targets per ``(model, depth)``, the published accuracy points)
  are computed once per unique key with the *scalar* code path and
  broadcast by integer codes — those axes are enumerable, not numeric.

Because both paths execute the same IEEE-754 operations in the same order,
the batch engine is **bit-identical** to the loop engine: for any grid,
``sweep_batch(grid).to_results() == sweep(grid)`` field-for-field (enforced
by ``tests/api/test_batch.py``).

The result is a :class:`BatchResult` — a columnar table with ``to_csv`` /
``to_json`` export, flat ``records()``, lossless ``to_results()``
reconstruction and Pareto-front extraction over any two metric columns.

Scenarios the vector path cannot handle (:class:`Scenario` subclasses,
which may override derived behaviour) are evaluated in-process with the loop
engine and spliced into the same columns.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.accuracy_model import accuracy_model
from ..analysis.report import csv_text, strict_json
from ..core.execution_model import (
    ExecutionTimeModel,
    PAPER_OFFLOAD_TARGETS,
    pl_layer_seconds_kernel,
)
from ..core.network_spec import LAYER_ORDER, OFFLOADABLE_LAYER_NAMES, layer_geometry
from ..core.offload import OffloadPlanner
from ..core.parameter_model import variant_parameter_count
from ..core.training_model import TrainingCostConfig
from ..core.variants import BlockRealization, variant_spec
from ..fixedpoint.qformat import QFormat
from ..fpga.bram import bram_tiles_kernel
from ..fpga.power import (
    PowerModelConfig,
    energy_without_pl_kernel,
    pl_power_kernel,
    ps_energy_with_pl_kernel,
)
from ..fpga.resources import (
    ResourceModelConfig,
    dsp_count_kernel,
    ff_count_kernel,
    lut_count_kernel,
)
from ..platform import DEFAULT_BOARD, PowerProfile, get_board
from ..fpga.timing import TimingModel, critical_path_ns_kernel, meets_timing_kernel
from ..hwsw.ps_model import work_time_kernel
from ..ode.solvers import get_solver
from .result import Result, _flatten_value
from .scenario import Scenario

__all__ = ["BatchResult", "sweep_batch", "pareto_indices"]


# -- column schema -----------------------------------------------------------------------
#
# Flat column order matches Result.flat_dict() exactly: scenario knobs first,
# then each section's keys in section order, duplicates ("model", "N")
# emitted once.

SCENARIO_KEYS: Tuple[str, ...] = (
    "model", "depth", "n_units", "word_length", "fraction_bits", "solver", "board", "pl_clock_hz",
)
PARAMETER_KEYS: Tuple[str, ...] = (
    "variant", "qformat", "param_count", "param_bytes", "accuracy_pct", "accuracy_stable",
)
RESOURCE_KEYS: Tuple[str, ...] = (
    "bram", "dsp", "lut", "ff", "bram_pct", "dsp_pct", "lut_pct", "ff_pct",
    "targets", "fits_device", "meets_timing",
)
TIMING_KEYS: Tuple[str, ...] = (
    "offload_target", "total_wo_pl_s", "target_wo_pl_s", "ratio_of_target_pct",
    "target_w_pl_s", "total_w_pl_s", "overall_speedup", "speedup_vs_resnet", "solver_stages",
)
ENERGY_KEYS: Tuple[str, ...] = (
    "energy_without_pl_J", "energy_with_pl_J", "energy_ratio", "time_speedup",
)
TRAINING_KEYS: Tuple[str, ...] = (
    "offload", "train_step_sw_s", "train_step_offloaded_s", "target_share_pct",
    "step_speedup", "epoch_hours_software", "epoch_hours_offloaded",
    "full_run_days_software", "full_run_days_offloaded",
)

FLAT_COLUMNS: Tuple[str, ...] = (
    SCENARIO_KEYS + PARAMETER_KEYS + RESOURCE_KEYS + TIMING_KEYS + ENERGY_KEYS + TRAINING_KEYS
)

#: Columns whose cells are per-target lists (joined with " / " in flat views).
LIST_COLUMNS: Tuple[str, ...] = (
    "targets", "target_wo_pl_s", "ratio_of_target_pct", "target_w_pl_s",
)


#: Section each flat (non-scenario) column lives in, for nested-dict I/O.
_SECTION_OF: Dict[str, str] = {}
for _section, _keys in (
    ("parameters", PARAMETER_KEYS),
    ("resources", RESOURCE_KEYS),
    ("timing", TIMING_KEYS),
    ("energy", ENERGY_KEYS),
    ("training", TRAINING_KEYS),
):
    for _key in _keys:
        _SECTION_OF[_key] = _section


def _py(value):
    """NumPy scalar -> native Python scalar (no-op for everything else)."""

    return value.item() if isinstance(value, np.generic) else value


# -- per-unique-key facts ----------------------------------------------------------------


class _BatchContext:
    """Board-independent per-layer constants plus caches over the few unique
    sweep keys.

    Everything here reproduces what one :class:`Evaluator` would derive,
    split along the board axis: *cycle counts* (software work, AXI words)
    are stored clock-free and divided by per-scenario clock columns in
    :func:`_compute_columns`; structural facts (the Table-4 layer plans,
    offload targets, accuracy points) are cached per unique key and
    broadcast by integer codes.
    """

    def __init__(self) -> None:
        self.execution_model = ExecutionTimeModel()
        self.planner = OffloadPlanner(execution_model=self.execution_model)
        self.timing_model = TimingModel()
        self.resource_config = ResourceModelConfig()
        self.power_config = PowerModelConfig()
        self.training_config = TrainingCostConfig()
        ps = self.execution_model.software_model
        self.ps_config = ps.config
        self.cycle_config = self.execution_model.cycle_model.config
        #: Reference per-image overhead (seconds at the reference PS clock);
        #: scaled per board by the clock ratio, exactly like
        #: :meth:`repro.hwsw.ps_model.PsModelConfig.for_board`.
        self.base_overhead = ps.per_image_overhead()
        #: Clock-free PS cycles of one layer-group execution.
        self.software_cycles: Dict[str, float] = {}
        for layer in LAYER_ORDER:
            geom = layer_geometry(layer)
            self.software_cycles[layer] = ps.work_cycles(
                geom.macs, geom.out_elements, geom.elementwise_passes
            )
        self.geometries = {
            layer: layer_geometry(layer).fpga_geometry() for layer in OFFLOADABLE_LAYER_NAMES
        }
        #: Clock-free AXI cycles of one block round trip.
        self.transfer_cycles = {
            layer: self.execution_model.transfer_model.block_round_trip(geom).cycles
            for layer, geom in self.geometries.items()
        }
        self._variant_cache: Dict[Tuple[str, int], dict] = {}
        self._resnet_exec_cache: Dict[int, Tuple[int, ...]] = {}

    def variant_facts(self, model: str, depth: int) -> dict:
        key = (model, depth)
        try:
            return self._variant_cache[key]
        except KeyError:
            pass
        variant = "ODENet" if model == "ODENet-3" else model
        spec = variant_spec(variant, depth)
        targets = tuple(self.planner.proposed_targets(model, depth))
        train_targets = tuple(PAPER_OFFLOAD_TARGETS.get(model, ()))
        try:
            point = accuracy_model(variant, depth)
            accuracy = (point.accuracy_percent, point.stable)
        except KeyError:
            accuracy = (None, None)
        facts = {
            "variant": variant,
            "targets": targets,
            "train_targets": train_targets,
            "offload_target_str": "/".join(targets) or "-",
            "train_offload_str": "/".join(train_targets) or "-",
            "exec0": tuple(spec.plan(layer).total_executions for layer in LAYER_ORDER),
            "ode": tuple(
                spec.plan(layer).realization == BlockRealization.ODEBLOCK for layer in LAYER_ORDER
            ),
            "param_count": variant_parameter_count(variant, depth),
            "accuracy": accuracy,
        }
        return self._variant_cache.setdefault(key, facts)

    def resnet_exec(self, depth: int) -> Tuple[int, ...]:
        """ResNet-N execution counts per layer (the speedup baseline's shape).

        Board-free: the baseline's *seconds* are assembled per scenario from
        these counts and the per-board PS clock column.
        """

        try:
            return self._resnet_exec_cache[depth]
        except KeyError:
            spec = variant_spec("ResNet", depth)
            counts = tuple(spec.plan(layer).total_executions for layer in LAYER_ORDER)
            return self._resnet_exec_cache.setdefault(depth, counts)



_CONTEXT: Optional[_BatchContext] = None


def _context() -> _BatchContext:
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = _BatchContext()
    return _CONTEXT


def clear_context_cache() -> None:
    """Drop the shared per-unique-key caches (cold-start benchmarking, or to
    bound memory in a long-lived process sweeping many distinct keys)."""

    global _CONTEXT
    _CONTEXT = None


def _codes(keys: Sequence) -> Tuple[np.ndarray, List]:
    """Factorize a sequence of hashables into integer codes + unique values."""

    index: Dict = {}
    uniques: List = []
    codes = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        code = index.get(key)
        if code is None:
            code = len(uniques)
            index[key] = code
            uniques.append(key)
        codes[i] = code
    return codes, uniques


# -- the vector computation --------------------------------------------------------------


def _compute_columns(scenarios: Sequence[Scenario]) -> Dict[str, object]:
    """Evaluate every scenario; returns the full flat column dictionary."""

    ctx = _context()
    n = len(scenarios)

    units = np.array([s.n_units for s in scenarios], dtype=np.int64)
    clock = np.array([s.pl_clock_hz for s in scenarios], dtype=np.float64)

    md_codes, md_keys = _codes([(s.model, s.depth) for s in scenarios])
    facts = [ctx.variant_facts(m, d) for m, d in md_keys]
    sv_codes, sv_keys = _codes([s.solver for s in scenarios])
    stages = np.array([get_solver(k).stages_per_step for k in sv_keys], dtype=np.int64)[sv_codes]
    qf_codes, qf_keys = _codes([(s.word_length, s.fraction_bits) for s in scenarios])
    bd_codes, bd_keys = _codes([s.board for s in scenarios])
    # One storage-width array serves both the BRAM kernel and param_bytes.
    bpv = np.array([QFormat(wl, fb).bytes_per_value for wl, fb in qf_keys], dtype=np.int64)[qf_codes]

    # -- per-board device vectors (the platform axis, broadcast by codes) ---------------
    boards = [get_board(name) for name in bd_keys]
    ps_clock = np.array([b.ps_clock_hz for b in boards], dtype=np.float64)[bd_codes]
    fabric_scale = np.array([b.fabric_delay_scale for b in boards], dtype=np.float64)[bd_codes]
    # Per-image overhead scales with the PS clock, exactly like
    # PsModelConfig.for_board (ratio is exactly 1.0 on the reference board).
    overhead = ctx.base_overhead * (DEFAULT_BOARD.ps_clock_hz / ps_clock)

    def broadcast(values, dtype=None) -> np.ndarray:
        """Per-unique (model, depth) values -> a per-scenario column."""

        return np.asarray(values, dtype=dtype)[md_codes]

    exec0_table = np.array([f["exec0"] for f in facts], dtype=np.int64)
    ode_table = np.array([f["ode"] for f in facts], dtype=bool)
    target_table = np.array(
        [[layer in f["targets"] for layer in LAYER_ORDER] for f in facts], dtype=bool
    )
    train_target_table = np.array(
        [[layer in f["train_targets"] for layer in LAYER_ORDER] for f in facts], dtype=bool
    )

    # -- per-layer time columns (the Table-5 row, vectorized) ---------------------------
    rc = ctx.resource_config
    exec0_cols: Dict[str, np.ndarray] = {}
    sw_per_exec: Dict[str, np.ndarray] = {}
    sw_cols: Dict[str, np.ndarray] = {}
    acc_cols: Dict[str, np.ndarray] = {}
    pl_cols: Dict[str, np.ndarray] = {}
    offl_cols: Dict[str, np.ndarray] = {}
    total_wo = np.zeros(n, dtype=np.float64)
    total_w = np.zeros(n, dtype=np.float64)
    for i, layer in enumerate(LAYER_ORDER):
        exec0_col = exec0_table[md_codes, i]
        execs = exec0_col * np.where(ode_table[md_codes, i], stages, 1)
        # Clock-free layer cycles over the per-board PS clock column — the
        # same (cycles / clock) expression the scalar work_time_kernel runs.
        per_exec = ctx.software_cycles[layer] / ps_clock
        sw_col = execs * per_exec
        if layer in OFFLOADABLE_LAYER_NAMES:
            offl = target_table[md_codes, i]
            transfer_seconds = ctx.transfer_cycles[layer] / clock
            pl_per_exec = pl_layer_seconds_kernel(
                ctx.geometries[layer], units, clock, ctx.cycle_config, transfer_seconds
            )
            acc_col = np.where(offl, execs * pl_per_exec, sw_col)
            pl_cols[layer] = pl_per_exec
            offl_cols[layer] = offl
        else:
            acc_col = sw_col
        exec0_cols[layer] = exec0_col
        sw_per_exec[layer] = per_exec
        sw_cols[layer] = sw_col
        acc_cols[layer] = acc_col
        total_wo = total_wo + sw_col
        total_w = total_w + acc_col
    total_wo = total_wo + overhead
    total_w = total_w + overhead

    has_targets = target_table[md_codes].any(axis=1)
    overall_speedup = np.where(has_targets, total_wo / total_w, 1.0)
    # ResNet-N software baseline per scenario: per-depth execution counts
    # over this row's board clock (the scalar evaluator's _resnet_baseline).
    dp_codes, dp_keys = _codes([s.depth for s in scenarios])
    resnet_exec_table = np.array([ctx.resnet_exec(d) for d in dp_keys], dtype=np.int64)
    baseline = np.zeros(n, dtype=np.float64)
    for i, layer in enumerate(LAYER_ORDER):
        baseline = baseline + resnet_exec_table[dp_codes, i] * sw_per_exec[layer]
    baseline = baseline + overhead
    speedup_vs_resnet = baseline / total_w

    # -- resources ---------------------------------------------------------------------
    dsp_per_layer = dsp_count_kernel(units, rc.dsp_base, rc.dsp_per_unit)
    res = {k: np.zeros(n, dtype=np.float64) for k in ("bram", "dsp", "lut", "ff")}
    for i, layer in enumerate(OFFLOADABLE_LAYER_NAMES):
        offl = offl_cols[layer]
        geom = ctx.geometries[layer]
        # Closed-form BRAM plan over the whole Q-format axis (phase 2): the
        # tile count is capacity-driven, so it depends on the storage bytes
        # per value, never on n_units (banking only redistributes words).
        res["bram"] = res["bram"] + np.where(offl, bram_tiles_kernel(geom, bpv), 0.0)
        res["dsp"] = res["dsp"] + np.where(offl, dsp_per_layer, 0.0)
        res["lut"] = res["lut"] + np.where(
            offl,
            lut_count_kernel(units, geom.out_channels, rc.lut_base, rc.lut_per_unit, rc.lut_per_unit_per_channel),
            0.0,
        )
        res["ff"] = res["ff"] + np.where(
            offl,
            ff_count_kernel(units, geom.out_channels, rc.ff_base, rc.ff_per_unit, rc.ff_per_unit_per_channel),
            0.0,
        )
    totals = {
        "bram": np.array([b.fpga.bram36 for b in boards], dtype=np.float64)[bd_codes],
        "dsp": np.array([b.fpga.dsp for b in boards], dtype=np.float64)[bd_codes],
        "lut": np.array([b.fpga.lut for b in boards], dtype=np.float64)[bd_codes],
        "ff": np.array([b.fpga.ff for b in boards], dtype=np.float64)[bd_codes],
    }
    pct = {k: 100.0 * res[k] / totals[k] for k in res}
    fits = (
        (res["bram"] <= totals["bram"])
        & (res["dsp"] <= totals["dsp"])
        & (res["lut"] <= totals["lut"])
        & (res["ff"] <= totals["ff"])
    )
    # Closed-form timing closure over the n_units x clock x board axes; the
    # per-board fabric scale multiplies both delay constants, exactly like
    # TimingModelConfig.for_board, so scalar and batch paths agree
    # bit-for-bit.
    timing_cfg = ctx.timing_model.config
    critical_path = critical_path_ns_kernel(
        units,
        timing_cfg.base_delay_ns * fabric_scale,
        timing_cfg.per_level_delay_ns * fabric_scale,
    )
    meets = meets_timing_kernel(critical_path, clock)

    # -- energy ------------------------------------------------------------------------
    # Per-board wattage columns wearing the PowerModelConfig interface: the
    # kernels only read the config's attributes, so arrays broadcast through
    # the same formulas the scalar PowerModel runs.  Fields are enumerated
    # from PowerProfile (whose names PowerModelConfig must mirror — a new
    # profile coefficient without its twin raises TypeError here).
    power_cfg = PowerModelConfig(
        **{
            f.name: np.array([getattr(b.power, f.name) for b in boards])[bd_codes]
            for f in dataclasses.fields(PowerProfile)
        }
    )
    pl_busy = np.zeros(n, dtype=np.float64)
    for layer in OFFLOADABLE_LAYER_NAMES:
        pl_busy = pl_busy + np.where(offl_cols[layer], acc_cols[layer], 0.0)
    energy_without = energy_without_pl_kernel(total_wo, power_cfg) + 0.0
    ps_energy = ps_energy_with_pl_kernel(total_w, pl_busy, power_cfg)
    pl_energy = pl_power_kernel(res["dsp"], res["bram"], power_cfg) * total_w
    energy_with = ps_energy + pl_energy
    energy_ratio = np.where(energy_with != 0.0, energy_without / energy_with, np.inf)

    # -- training (the future-work projection) -----------------------------------------
    tc = ctx.training_config
    factor = 1.0 + tc.backward_mac_factor
    train_sw = overhead + np.zeros(n, dtype=np.float64)
    train_off = overhead + np.zeros(n, dtype=np.float64)
    target_sw = np.zeros(n, dtype=np.float64)
    for i, layer in enumerate(LAYER_ORDER):
        sw_train = exec0_cols[layer] * (sw_per_exec[layer] * factor)
        train_sw = train_sw + sw_train
        if layer in OFFLOADABLE_LAYER_NAMES:
            train_offl = train_target_table[md_codes, i]
            pl_train = exec0_cols[layer] * (pl_cols[layer] * factor)
            train_off = train_off + np.where(train_offl, pl_train, sw_train)
            target_sw = target_sw + np.where(train_offl, sw_train, 0.0)
        else:
            train_off = train_off + sw_train
    param_count = broadcast([f["param_count"] for f in facts], np.int64)
    ps_cfg = ctx.ps_config
    update = work_time_kernel(
        0.0, param_count, tc.optimizer_passes,
        ps_cfg.cycles_per_mac, ps_cfg.cycles_per_element, ps_clock,
    )
    train_sw = train_sw + update
    train_off = train_off + update
    target_share = 100.0 * target_sw / train_sw
    step_speedup = train_sw / train_off
    images = tc.images_per_epoch
    epoch_sw = train_sw * images
    epoch_off = train_off * images
    epoch_hours_sw = epoch_sw / 3600.0
    epoch_hours_off = epoch_off / 3600.0
    full_days_sw = epoch_sw * tc.epochs / 3600.0 / 24.0
    full_days_off = epoch_off * tc.epochs / 3600.0 / 24.0

    # -- parameters --------------------------------------------------------------------
    qnames = [QFormat(wl, fb).name for wl, fb in qf_keys]
    param_bytes = param_count * bpv

    # -- per-target list columns -------------------------------------------------------
    targets_lists: List[List[str]] = [None] * n  # type: ignore[list-item]
    t_wo: List[List[float]] = [None] * n  # type: ignore[list-item]
    t_ratio: List[List[float]] = [None] * n  # type: ignore[list-item]
    t_w: List[List[float]] = [None] * n  # type: ignore[list-item]
    ratio_cols = {
        layer: 100.0 * sw_cols[layer] / total_wo for layer in OFFLOADABLE_LAYER_NAMES
    }
    for code, fact in enumerate(facts):
        rows = np.nonzero(md_codes == code)[0]
        layers = fact["targets"]
        for i in rows:
            targets_lists[i] = list(layers)
            t_wo[i] = [float(sw_cols[l][i]) for l in layers]
            t_ratio[i] = [float(ratio_cols[l][i]) for l in layers]
            t_w[i] = [float(acc_cols[l][i]) for l in layers]

    return {
        # scenario knobs
        "model": [s.model for s in scenarios],
        "depth": [s.depth for s in scenarios],
        "n_units": units,
        "word_length": [s.word_length for s in scenarios],
        "fraction_bits": [s.fraction_bits for s in scenarios],
        "solver": [s.solver for s in scenarios],
        "board": [s.board for s in scenarios],
        "pl_clock_hz": clock,
        # parameters
        "variant": [facts[c]["variant"] for c in md_codes],
        "qformat": [qnames[c] for c in qf_codes],
        "param_count": param_count,
        "param_bytes": param_bytes,
        "accuracy_pct": [facts[c]["accuracy"][0] for c in md_codes],
        "accuracy_stable": [facts[c]["accuracy"][1] for c in md_codes],
        # resources
        "bram": res["bram"],
        "dsp": res["dsp"],
        "lut": res["lut"],
        "ff": res["ff"],
        "bram_pct": pct["bram"],
        "dsp_pct": pct["dsp"],
        "lut_pct": pct["lut"],
        "ff_pct": pct["ff"],
        "targets": targets_lists,
        "fits_device": fits,
        "meets_timing": meets,
        # timing
        "offload_target": [facts[c]["offload_target_str"] for c in md_codes],
        "total_wo_pl_s": total_wo,
        "target_wo_pl_s": t_wo,
        "ratio_of_target_pct": t_ratio,
        "target_w_pl_s": t_w,
        "total_w_pl_s": total_w,
        "overall_speedup": overall_speedup,
        "speedup_vs_resnet": speedup_vs_resnet,
        "solver_stages": stages,
        # energy
        "energy_without_pl_J": energy_without,
        "energy_with_pl_J": energy_with,
        "energy_ratio": energy_ratio,
        "time_speedup": overall_speedup,
        # training
        "offload": [facts[c]["train_offload_str"] for c in md_codes],
        "train_step_sw_s": train_sw,
        "train_step_offloaded_s": train_off,
        "target_share_pct": target_share,
        "step_speedup": step_speedup,
        "epoch_hours_software": epoch_hours_sw,
        "epoch_hours_offloaded": epoch_hours_off,
        "full_run_days_software": full_days_sw,
        "full_run_days_offloaded": full_days_off,
    }


# -- BatchResult -------------------------------------------------------------------------


class BatchResult:
    """Columnar result table of a batch-evaluated design-space sweep.

    One row per scenario, in input order.  Columns follow the flat schema of
    :meth:`repro.api.result.Result.flat_dict`; per-target cells
    (``targets``, ``target_wo_pl_s``, ...) are Python lists and are joined
    with ``" / "`` in the flat/CSV views, exactly like the loop engine.
    """

    __slots__ = ("scenarios", "_columns")

    def __init__(self, scenarios: Sequence[Scenario], columns: Dict[str, object]) -> None:
        self.scenarios: List[Scenario] = list(scenarios)
        missing = [k for k in FLAT_COLUMNS if k not in columns]
        if missing:
            raise ValueError(f"missing batch columns: {missing}")
        self._columns = columns

    # -- construction ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, scenarios: Sequence[Scenario], rows: Sequence[Dict]) -> "BatchResult":
        """Assemble a table from nested per-scenario result dictionaries.

        Accepts exactly the :meth:`repro.api.result.Result.as_dict` /
        :meth:`row_dict` structure — the interchange format shared with the
        loop engine.
        """

        scenarios = list(scenarios)
        rows = list(rows)
        if len(rows) != len(scenarios):
            raise ValueError(f"got {len(rows)} rows for {len(scenarios)} scenarios")
        columns: Dict[str, List] = {key: [] for key in FLAT_COLUMNS}
        for row in rows:
            scenario = row["scenario"]
            for key in SCENARIO_KEYS:
                columns[key].append(scenario[key])
            for key, section in _SECTION_OF.items():
                value = row[section][key]
                columns[key].append(list(value) if key in LIST_COLUMNS else value)
        return cls(list(scenarios), columns)

    # -- basic views --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return FLAT_COLUMNS

    def column(self, name: str) -> np.ndarray:
        """One column as a NumPy array (object-dtype for list/str columns)."""

        try:
            col = self._columns[name]
        except KeyError as exc:
            raise KeyError(f"unknown column '{name}'; known: {FLAT_COLUMNS}") from exc
        if name in LIST_COLUMNS:
            out = np.empty(len(self), dtype=object)
            out[:] = col
            return out
        return np.asarray(col)

    def record(self, i: int) -> Dict[str, object]:
        """Row ``i`` as a flat dictionary (list cells joined, CSV-shaped)."""

        row: Dict[str, object] = {}
        for key in FLAT_COLUMNS:
            value = _py(self._columns[key][i])
            row[key] = _flatten_value(value) if key in LIST_COLUMNS else value
        return row

    def records(self) -> List[Dict[str, object]]:
        """Flat one-row-per-scenario dictionaries (table/CSV shaped)."""

        return [dict(zip(FLAT_COLUMNS, row)) for row in self._flat_rows()]

    def _flat_rows(self) -> Iterable[tuple]:
        """Rows of :meth:`record` values, converted a whole column at a time."""

        columns = []
        for key in FLAT_COLUMNS:
            col = self._columns[key]
            values = col.tolist() if isinstance(col, np.ndarray) else [_py(v) for v in col]
            columns.append([_flatten_value(v) for v in values] if key in LIST_COLUMNS else values)
        return zip(*columns)

    # -- nested views -------------------------------------------------------------------

    def _sections(self, i: int) -> Dict[str, Dict[str, object]]:
        c = self._columns
        scenario = self.scenarios[i]

        def grab(keys: Tuple[str, ...]) -> Dict[str, object]:
            out: Dict[str, object] = {}
            for key in keys:
                value = _py(c[key][i])
                out[key] = list(value) if key in LIST_COLUMNS else value
            return out

        timing = {"model": scenario.model, "N": scenario.depth}
        timing.update(grab(TIMING_KEYS))
        energy = {"model": scenario.model, "N": scenario.depth}
        energy.update(grab(ENERGY_KEYS))
        training = {"model": scenario.model, "N": scenario.depth}
        training.update(grab(TRAINING_KEYS))
        return {
            "parameters": grab(PARAMETER_KEYS),
            "resources": grab(RESOURCE_KEYS),
            "timing": timing,
            "energy": energy,
            "training": training,
        }

    def row_dict(self, i: int) -> Dict[str, object]:
        """Row ``i`` as the nested dictionary :meth:`Result.as_dict` emits."""

        out: Dict[str, object] = {"scenario": self.scenarios[i].as_dict()}
        out.update(self._sections(i))
        return out

    def as_dicts(self) -> List[Dict[str, object]]:
        return [self.row_dict(i) for i in range(len(self))]

    def to_results(self) -> List[Result]:
        """Reconstruct the full per-scenario :class:`Result` objects.

        Field-for-field identical to what the loop engine returns for the
        same scenarios (the regression net for the vectorization refactor).
        """

        return [
            Result(scenario=self.scenarios[i], **self._sections(i)) for i in range(len(self))
        ]

    # -- serialisation ------------------------------------------------------------------

    def to_csv(self) -> str:
        """CSV document (header + one row per scenario, loop-engine layout)."""

        if not len(self):
            return ""
        return csv_text(itertools.chain([FLAT_COLUMNS], self._flat_rows()))

    def to_json(self, indent: int = 2) -> str:
        """JSON array of nested result dictionaries (loop-engine layout)."""

        return strict_json(self.as_dicts(), indent=indent)

    # -- selection ----------------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "BatchResult":
        """A new table holding the given rows (in the given order)."""

        idx = [int(i) for i in indices]
        columns: Dict[str, object] = {}
        for key, col in self._columns.items():
            if isinstance(col, np.ndarray):
                columns[key] = col[idx]
            else:
                columns[key] = [col[i] for i in idx]
        return BatchResult([self.scenarios[i] for i in idx], columns)

    def pareto_front(
        self,
        x: str,
        y: str,
        maximize_x: bool = False,
        maximize_y: bool = False,
    ) -> "BatchResult":
        """Rows not dominated on metrics ``x`` and ``y`` (sorted by ``x``).

        Both metrics are minimized by default; pass ``maximize_*`` to flip a
        direction (e.g. ``pareto_front("bram", "overall_speedup",
        maximize_y=True)`` for the resource/speed trade-off).  Duplicate
        points are kept once.
        """

        idx = pareto_indices(
            self.column(x), self.column(y), maximize_x=maximize_x, maximize_y=maximize_y
        )
        return self.take(idx)

    def pareto_fronts(
        self,
        x: str,
        y: str,
        by: str = "board",
        maximize_x: bool = False,
        maximize_y: bool = False,
    ) -> Dict[object, "BatchResult"]:
        """One Pareto front per distinct value of the ``by`` column.

        The cross-board view: ``pareto_fronts("total_w_pl_s",
        "energy_with_pl_J")`` answers "which design points are undominated
        *on each board*", keyed by board name (or any other grouping
        column).  Groups appear in first-occurrence order.
        """

        members: Dict[object, List[int]] = {}
        for i, group in enumerate(self.column(by)):
            members.setdefault(_py(group), []).append(i)
        return {
            key: self.take(idx).pareto_front(
                x, y, maximize_x=maximize_x, maximize_y=maximize_y
            )
            for key, idx in members.items()
        }


def pareto_indices(xs, ys, maximize_x: bool = False, maximize_y: bool = False) -> np.ndarray:
    """Indices of the 2-D Pareto front, sorted by the x metric.

    A point is kept when no other point is at least as good on both metrics
    and strictly better on one.  Exact duplicates are represented once.
    """

    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("pareto metrics must have the same length")
    sx = -x if maximize_x else x
    sy = -y if maximize_y else y
    order = np.lexsort((sy, sx))
    keep: List[int] = []
    best = np.inf
    for i in order:
        if sy[i] < best:
            keep.append(int(i))
            best = sy[i]
    return np.asarray(keep, dtype=np.intp)


# -- engine entry point ------------------------------------------------------------------


def _vectorizable(scenario: Scenario) -> bool:
    """Whether the vector path can evaluate a scenario.

    The kernels reproduce exactly the behaviour of :class:`Scenario` proper,
    so subclasses (which may override derived properties the vector path
    would not see) take the loop engine.  Any registered board is
    vectorizable: every board-derived quantity (clocks, fabric totals and
    delay scale, wattages) is broadcast from its :class:`BoardSpec` as a
    per-scenario column, so the board axis needs no fallback.
    """

    return type(scenario) is Scenario


def _evaluate_rows(scenarios: Sequence[Scenario]) -> List[Dict]:
    """Loop-engine evaluation of the scenarios the vector path cannot take."""

    from .evaluator import Evaluator

    evaluator = Evaluator()
    return [evaluator.evaluate(s).as_dict() for s in scenarios]


def sweep_batch(scenarios: Iterable[Scenario]) -> BatchResult:
    """Evaluate scenarios with the vectorized engine; rows in input order.

    :class:`Scenario` subclasses are evaluated in-process with the loop
    engine, so results are identical to :func:`repro.api.sweep.sweep`
    either way.
    """

    points = list(scenarios)
    n = len(points)
    if n == 0:
        return BatchResult([], {key: [] for key in FLAT_COLUMNS})

    vector_idx: List[int] = []
    fallback_idx: List[int] = []
    for i, scenario in enumerate(points):
        (vector_idx if _vectorizable(scenario) else fallback_idx).append(i)
    if not fallback_idx:
        return BatchResult(points, _compute_columns(points))
    vector_columns = _compute_columns([points[i] for i in vector_idx]) if vector_idx else None
    rows = _evaluate_rows([points[i] for i in fallback_idx])

    # Splice the vector engine's columns with the loop-engine rows (kept
    # columnar — no per-row rebuild of the vectorized part).
    columns: Dict[str, List] = {}
    for key in FLAT_COLUMNS:
        col: List = [None] * n
        if vector_columns is not None:
            for j, i in enumerate(vector_idx):
                col[i] = vector_columns[key][j]
        for i, row in zip(fallback_idx, rows):
            if key in SCENARIO_KEYS:
                col[i] = row["scenario"][key]
            elif key in LIST_COLUMNS:
                col[i] = list(row[_SECTION_OF[key]][key])
            else:
                col[i] = row[_SECTION_OF[key]][key]
        columns[key] = col
    return BatchResult(points, columns)
