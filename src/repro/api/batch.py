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
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..analysis.accuracy_model import accuracy_model
from ..analysis.report import Report, csv_text, format_records
from ..core.execution_model import (
    ExecutionTimeModel,
    PAPER_OFFLOAD_TARGETS,
    pl_layer_seconds_kernel,
)
from ..core.network_spec import LAYER_ORDER, OFFLOADABLE_LAYER_NAMES, layer_geometry
from ..core.offload import OffloadPlanner
from ..core.parameter_model import variant_parameter_count
from ..core.training_model import EPOCHS, IMAGES_PER_EPOCH, OPTIMIZER_PASSES, TRAINING_FACTOR
from ..core.variants import BlockRealization, table4_variant, variant_spec
from ..fixedpoint.qformat import QFormat
from ..fpga.bram import bram_tiles_kernel
from ..fpga.power import energy_without_pl_kernel, pl_power_kernel, ps_energy_with_pl_kernel
from ..fpga.resources import dsp_count_kernel, ff_count_kernel, lut_count_kernel
from ..platform import PowerProfile, get_board
from ..fpga.timing import critical_path_ns_kernel, fabric_delays_ns_kernel, meets_timing_kernel
from ..hwsw.ps_model import (
    PS_CYCLES_PER_ELEMENT,
    PS_CYCLES_PER_MAC,
    per_image_overhead_kernel,
    work_time_kernel,
)
from ..ode.solvers import get_solver
from .result import Result, _flatten_value
from .scenario import Scenario

__all__ = ["BatchResult", "sweep_batch"]


# -- column schema -----------------------------------------------------------------------
#
# Flat column order matches Result.flat_dict() exactly: scenario knobs first,
# then each section's keys in section order, duplicates ("model", "N")
# emitted once.

SCENARIO_KEYS: Tuple[str, ...] = tuple(f.name for f in dataclasses.fields(Scenario))
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


#: The csv module writes a cell without these as is; csv_text decides the rest.
_CSV_QUOTED = re.compile('[,"\r\n]')


class _Coded:
    """A column as integer codes into its distinct cell values (the
    dictionary-encoded column of a column store).

    Rows that share a code share its value object; views that hand cells
    out copy list values.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: List) -> None:
        self.codes = codes
        self.values = values

    def __getitem__(self, i: int):
        return self.values[self.codes[i]]

    def cells(self) -> List:
        """One cell per row."""

        return list(map(self.values.__getitem__, self.codes.tolist()))


def _factorize(cells: Sequence, is_list: bool) -> _Coded:
    """Code Python cells by a key that also tells apart equal values that
    print differently (``-0.0`` and ``0.0``; ``True``, ``1`` and ``1.0``)."""

    keys = ([(tuple(map(type, v)), tuple(v), 0 in v and repr(v)) for v in cells] if is_list
            else [(v.__class__, v, v == 0 and repr(v)) for v in cells])
    codes, uniques = _codes(keys)
    return _Coded(codes, [list(key[1]) if is_list else key[1] for key in uniques])


def _by_bits(col: np.ndarray) -> _Coded:
    """A NumPy column coded by bit pattern, so ``-0.0`` and ``0.0`` stay apart."""

    keys = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
    uniq, codes = np.unique(keys, return_inverse=True)
    return _Coded(codes, uniq.view(col.dtype).tolist())


# -- per-unique-key facts ----------------------------------------------------------------


class _BatchContext:
    """Board-independent per-layer constants of one :func:`sweep_batch` call,
    plus the structural facts of each unique sweep key.

    Everything here reproduces what one :class:`Evaluator` would derive,
    split along the board axis: *cycle counts* (software work, AXI words)
    are stored clock-free and divided by per-scenario clock columns in
    :func:`_compute_columns`; structural facts (the Table-4 layer plans,
    offload targets, accuracy points) are computed once per unique key and
    broadcast by integer codes.
    """

    def __init__(self) -> None:
        self.execution_model = ExecutionTimeModel()
        self.planner = OffloadPlanner(execution_model=self.execution_model)
        ps = self.execution_model.software_model
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

    def variant_facts(self, model: str, depth: int) -> dict:
        variant = table4_variant(model)
        spec = variant_spec(variant, depth)
        targets = tuple(self.planner.proposed_targets(model, depth))
        train_targets = tuple(PAPER_OFFLOAD_TARGETS.get(model, ()))
        try:
            point = accuracy_model(variant, depth)
            accuracy = (point.accuracy_percent, point.stable)
        except KeyError:
            accuracy = (None, None)
        return {
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

    def resnet_exec(self, depth: int) -> Tuple[int, ...]:
        """ResNet-N execution counts per layer (the speedup baseline's shape).

        Board-free: the baseline's *seconds* are assembled per scenario from
        these counts and the per-board PS clock column.
        """

        spec = variant_spec("ResNet", depth)
        return tuple(spec.plan(layer).total_executions for layer in LAYER_ORDER)


def _codes(keys: Sequence) -> Tuple[np.ndarray, List]:
    """Factorize a sequence of hashables into integer codes + unique values."""

    index: Dict = {}
    codes = np.fromiter((index.setdefault(key, len(index)) for key in keys), np.intp, len(keys))
    return codes, list(index)


# -- the vector computation --------------------------------------------------------------


def _compute_columns(scenarios: Sequence[Scenario]) -> Dict[str, object]:
    """Evaluate every scenario; returns the full flat column dictionary."""

    ctx = _BatchContext()
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
    # The scalar SoftwareCostModel runs the same kernel per board.
    overhead = per_image_overhead_kernel(ps_clock)

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
                ctx.geometries[layer], units, clock, transfer_seconds
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

    target_rows = target_table[md_codes]
    has_targets = target_rows.any(axis=1)
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
    dsp_per_layer = dsp_count_kernel(units)
    res = {k: np.zeros(n, dtype=np.float64) for k in ("bram", "dsp", "lut", "ff")}
    for i, layer in enumerate(OFFLOADABLE_LAYER_NAMES):
        offl = offl_cols[layer]
        geom = ctx.geometries[layer]
        # Closed-form BRAM plan over the whole Q-format axis (phase 2): the
        # tile count is capacity-driven, so it depends on the storage bytes
        # per value, never on n_units (banking only redistributes words).
        res["bram"] = res["bram"] + np.where(offl, bram_tiles_kernel(geom, bpv), 0.0)
        res["dsp"] = res["dsp"] + np.where(offl, dsp_per_layer, 0.0)
        res["lut"] = res["lut"] + np.where(offl, lut_count_kernel(units, geom.out_channels), 0.0)
        res["ff"] = res["ff"] + np.where(offl, ff_count_kernel(units, geom.out_channels), 0.0)
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
    # scalar TimingModel scales its delays with the same kernel, so both
    # paths agree bit-for-bit.
    critical_path = critical_path_ns_kernel(units, *fabric_delays_ns_kernel(fabric_scale))
    meets = meets_timing_kernel(critical_path, clock)

    # -- energy ------------------------------------------------------------------------
    # A PowerProfile of per-scenario wattage columns: the kernels only read
    # the profile's attributes, so arrays broadcast through the same
    # formulas the scalar PowerModel runs.
    power = PowerProfile(
        **{
            f.name: np.array([getattr(b.power, f.name) for b in boards])[bd_codes]
            for f in dataclasses.fields(PowerProfile)
        }
    )
    pl_busy = np.zeros(n, dtype=np.float64)
    for layer in OFFLOADABLE_LAYER_NAMES:
        pl_busy = pl_busy + np.where(offl_cols[layer], acc_cols[layer], 0.0)
    energy_without = energy_without_pl_kernel(total_wo, power) + 0.0
    ps_energy = ps_energy_with_pl_kernel(total_w, pl_busy, power)
    pl_energy = pl_power_kernel(res["dsp"], res["bram"], power) * total_w
    energy_with = ps_energy + pl_energy
    energy_ratio = np.where(energy_with != 0.0, energy_without / energy_with, np.inf)

    # -- training (the future-work projection) -----------------------------------------
    train_sw = overhead + np.zeros(n, dtype=np.float64)
    train_off = overhead + np.zeros(n, dtype=np.float64)
    target_sw = np.zeros(n, dtype=np.float64)
    for i, layer in enumerate(LAYER_ORDER):
        sw_train = exec0_cols[layer] * (sw_per_exec[layer] * TRAINING_FACTOR)
        train_sw = train_sw + sw_train
        if layer in OFFLOADABLE_LAYER_NAMES:
            train_offl = train_target_table[md_codes, i]
            pl_train = exec0_cols[layer] * (pl_cols[layer] * TRAINING_FACTOR)
            train_off = train_off + np.where(train_offl, pl_train, sw_train)
            target_sw = target_sw + np.where(train_offl, sw_train, 0.0)
        else:
            train_off = train_off + sw_train
    param_count = broadcast([f["param_count"] for f in facts], np.int64)
    update = work_time_kernel(
        0.0, param_count, OPTIMIZER_PASSES, PS_CYCLES_PER_MAC, PS_CYCLES_PER_ELEMENT, ps_clock
    )
    train_sw = train_sw + update
    train_off = train_off + update
    target_share = 100.0 * target_sw / train_sw
    step_speedup = train_sw / train_off
    epoch_sw = train_sw * IMAGES_PER_EPOCH
    epoch_off = train_off * IMAGES_PER_EPOCH
    epoch_hours_sw = epoch_sw / 3600.0
    epoch_hours_off = epoch_off / 3600.0
    full_days_sw = epoch_sw * EPOCHS / 3600.0 / 24.0
    full_days_off = epoch_off * EPOCHS / 3600.0 / 24.0

    # -- parameters --------------------------------------------------------------------
    qnames = [QFormat(wl, fb).name for wl, fb in qf_keys]
    param_bytes = param_count * bpv

    # -- per-target columns: each row's target cells, coded by their bit patterns ------
    target_layers = [[LAYER_ORDER.index(layer) for layer in f["targets"]] for f in facts]

    def per_target(cols: Dict[str, np.ndarray]) -> _Coded:
        block = np.column_stack([cols[layer] for layer in LAYER_ORDER])
        keys = np.column_stack([md_codes, np.where(target_rows, block, 0.0).view(np.int64)])
        rows = keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel()
        _, first, codes = np.unique(rows, return_index=True, return_inverse=True)
        cells = zip(block[first].tolist(), md_codes[first].tolist())
        return _Coded(codes, [[row[j] for j in target_layers[code]] for row, code in cells])

    def by_model(values: List) -> _Coded:
        return _Coded(md_codes, values)

    return {
        # scenario knobs
        "model": by_model([m for m, _ in md_keys]),
        "depth": by_model([d for _, d in md_keys]),
        "n_units": units,
        "word_length": _Coded(qf_codes, [wl for wl, _ in qf_keys]),
        "fraction_bits": _Coded(qf_codes, [fb for _, fb in qf_keys]),
        "solver": _Coded(sv_codes, sv_keys),
        "board": _Coded(bd_codes, bd_keys),
        "pl_clock_hz": clock,
        # parameters
        "variant": by_model([f["variant"] for f in facts]),
        "qformat": _Coded(qf_codes, qnames),
        "param_count": param_count,
        "param_bytes": param_bytes,
        "accuracy_pct": by_model([f["accuracy"][0] for f in facts]),
        "accuracy_stable": by_model([f["accuracy"][1] for f in facts]),
        # resources
        "bram": res["bram"],
        "dsp": res["dsp"],
        "lut": res["lut"],
        "ff": res["ff"],
        "bram_pct": pct["bram"],
        "dsp_pct": pct["dsp"],
        "lut_pct": pct["lut"],
        "ff_pct": pct["ff"],
        "targets": by_model([list(f["targets"]) for f in facts]),
        "fits_device": fits,
        "meets_timing": meets,
        # timing
        "offload_target": by_model([f["offload_target_str"] for f in facts]),
        "total_wo_pl_s": total_wo,
        "target_wo_pl_s": per_target(sw_cols),
        "ratio_of_target_pct": per_target(
            {layer: 100.0 * sw_cols[layer] / total_wo for layer in LAYER_ORDER}
        ),
        "target_w_pl_s": per_target(acc_cols),
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
        "offload": by_model([f["train_offload_str"] for f in facts]),
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


class BatchResult(Report):
    """Columnar result table of a batch-evaluated design-space sweep.

    One row per scenario, in input order.  Columns follow the flat schema of
    :meth:`repro.api.result.Result.flat_dict`.  A column is either a NumPy
    array or coded: integer codes into the column's distinct values.  The
    batch engine codes every column that is a function of one key (the
    model and depth, the Q-format, the solver, the board) by that key, and
    the per-target cells (``target_wo_pl_s``, ...) by their distinct
    per-target lists; :meth:`from_rows` codes every column.  Per-target
    cells are lists in the nested views and are joined with ``" / "`` in
    the flat/CSV views, exactly like the loop engine.
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
        cells: Dict[str, List] = {key: [] for key in FLAT_COLUMNS}
        for row in rows:
            scenario = row["scenario"]
            for key in SCENARIO_KEYS:
                cells[key].append(scenario[key])
            for key, section in _SECTION_OF.items():
                cells[key].append(row[section][key])
        return cls(scenarios, {key: _factorize(col, key in LIST_COLUMNS) for key, col in cells.items()})

    # -- basic views --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.scenarios)

    def column(self, name: str) -> np.ndarray:
        """One column as a NumPy array (object-dtype for list/str columns)."""

        try:
            col = self._columns[name]
        except KeyError as exc:
            raise KeyError(f"unknown column '{name}'; known: {FLAT_COLUMNS}") from exc
        if isinstance(col, np.ndarray):
            return col
        if name in LIST_COLUMNS:
            out = np.empty(len(self), dtype=object)
            out[:] = [list(v) for v in col.cells()]
            return out
        return np.asarray(col.cells())

    def record(self, i: int) -> Dict[str, object]:
        """Row ``i`` as a flat dictionary (list cells joined, CSV-shaped)."""

        row: Dict[str, object] = {}
        for key in FLAT_COLUMNS:
            value = _py(self._columns[key][i])
            row[key] = _flatten_value(value) if key in LIST_COLUMNS else value
        return row

    def _flat_values(self, key: str) -> _Coded:
        """Column ``key`` as codes into its distinct flat-view cells (lists joined)."""

        col = self._columns[key]
        if isinstance(col, np.ndarray):
            return _by_bits(col)
        values = list(map(_py, col.values))
        return _Coded(col.codes, list(map(_flatten_value, values)) if key in LIST_COLUMNS else values)

    def records(self) -> List[Dict[str, object]]:
        """Flat one-row-per-scenario dictionaries (table/CSV shaped), built column-wise."""

        columns = []
        for key in FLAT_COLUMNS:
            col = self._columns[key]
            columns.append(col.tolist() if isinstance(col, np.ndarray) else self._flat_values(key).cells())
        return [dict(zip(FLAT_COLUMNS, row)) for row in zip(*columns)]

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
        """The JSON payload: one :meth:`row_dict` per row (loop-engine layout)."""

        return [self.row_dict(i) for i in range(len(self))]

    as_dict = as_dicts

    def to_results(self) -> List[Result]:
        """Reconstruct the full per-scenario :class:`Result` objects.

        Field-for-field identical to what the loop engine returns for the
        same scenarios (the regression net for the vectorization refactor).
        """

        return [
            Result(scenario=self.scenarios[i], **self._sections(i)) for i in range(len(self))
        ]

    # -- text and CSV views -------------------------------------------------------------

    def render(self) -> str:
        return format_records(self.records(), title=f"Design-space sweep ({len(self)} scenarios)")

    def to_csv(self) -> str:
        """CSV document (header + one row per scenario, loop-engine layout).

        Byte-identical to :meth:`Report.to_csv`'s row dicts, but each
        column's distinct values are formatted once: a coded column's value
        list as it stands, a NumPy column's distinct bit patterns.  The texts
        are quoted through ``csv_text`` only where the csv module would quote
        them, gathered by code and joined row by row.
        """

        if not len(self):
            return ""
        cells: Dict[int, List[str]] = {}  # by column object: one column may serve two keys
        for key in FLAT_COLUMNS:
            raw = self._columns[key]
            if id(raw) in cells:
                continue
            col = self._flat_values(key)
            texts = ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in col.values]
            # A number's text never needs quoting.
            if not isinstance(raw, np.ndarray) and _CSV_QUOTED.search("".join(texts)):
                texts = [csv_text([[t]]) if _CSV_QUOTED.search(t) else t for t in texts]
            cells[id(raw)] = np.array(texts, dtype=object)[col.codes].tolist()
        columns = [cells[id(self._columns[key])] for key in FLAT_COLUMNS]
        return "\n".join([csv_text([FLAT_COLUMNS]), *map(",".join, zip(*columns))])

    # -- selection ----------------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "BatchResult":
        """A new table holding the given rows (in the given order)."""

        idx = [int(i) for i in indices]
        columns: Dict[str, object] = {
            key: col[idx] if isinstance(col, np.ndarray) else _Coded(col.codes[idx], col.values)
            for key, col in self._columns.items()
        }
        return BatchResult([self.scenarios[i] for i in idx], columns)

    def pareto_fronts(self, x: str, y: str) -> Dict[object, "BatchResult"]:
        """One Pareto front (both metrics minimized) per board.

        The cross-board view: ``pareto_fronts("total_w_pl_s",
        "energy_with_pl_J")`` answers "which design points are undominated
        *on each board*", keyed by board name.  Boards appear in
        first-occurrence order.
        """

        members: Dict[object, List[int]] = {}
        for i, board in enumerate(self.column("board")):
            members.setdefault(_py(board), []).append(i)
        return {key: self.take(idx).pareto_front(x, y) for key, idx in members.items()}


# -- engine entry point ------------------------------------------------------------------


def sweep_batch(scenarios: Iterable[Scenario]) -> BatchResult:
    """Evaluate scenarios with the vectorized engine; rows in input order.

    The columns are computed from :class:`Scenario` fields alone, so a
    subclass row (a ``SimScenario`` in a mixed grid) gets exactly the
    columns :func:`repro.api.sweep.sweep` returns for it.
    """

    points = list(scenarios)
    if not points:
        return BatchResult.from_rows([], [])
    return BatchResult(points, _compute_columns(points))
