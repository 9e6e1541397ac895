"""The PL-part ODEBlock engine: functional + performance model in one object.

:class:`HardwareODEBlock` is the simulated counterpart of the Verilog module
the paper implements on the PYNQ-Z2's programmable logic.  It bundles:

* the quantised weights of the two convolutions and two batch-normalisation
  steps (stored in the simulated BRAM plan),
* the bit-accurate fixed-point forward pass (conv → BN → ReLU → conv → BN),
* the cycle/time model of one invocation (:mod:`repro.fpga.cycles`),
* the PS↔PL transfer cost (:mod:`repro.fpga.axi`), and
* the resource estimate and timing check of the chosen conv_xN configuration.

It is used by the hardware/software co-execution runtime
(:mod:`repro.hwsw.runtime`) to replace the software building block of an
offloaded layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..fixedpoint import FxArray, QFormat, Q20
from .axi import AxiTransferConfig, AxiTransferModel, TransferEstimate
from .bram import BramPlan, plan_block_allocation
from .cycles import CycleBreakdown, CycleModelConfig, OdeBlockCycleModel
from ..platform import BoardSpec, PYNQ_Z2
from .geometry import BlockGeometry, block_geometry
from .ops import hw_batch_norm, hw_conv2d, hw_relu, hw_residual_add
from .resources import ResourceEstimate, ResourceEstimator
from .timing import TimingModel, TimingReport

__all__ = ["BlockWeights", "HardwareExecutionReport", "HardwareODEBlock"]


@dataclass
class BlockWeights:
    """Floating-point weights of one building block (before quantisation)."""

    conv1_weight: np.ndarray
    bn1_gamma: np.ndarray
    bn1_beta: np.ndarray
    conv2_weight: np.ndarray
    bn2_gamma: np.ndarray
    bn2_beta: np.ndarray
    bn1_mean: Optional[np.ndarray] = None
    bn1_var: Optional[np.ndarray] = None
    bn2_mean: Optional[np.ndarray] = None
    bn2_var: Optional[np.ndarray] = None

    @classmethod
    def random(cls, geometry: BlockGeometry, rng: Optional[np.random.Generator] = None, scale: float = 0.1) -> "BlockWeights":
        """Random weights with a sensible magnitude for Q20 (for tests/benches)."""

        rng = rng or np.random.default_rng(0)
        c = geometry.out_channels
        k = geometry.kernel
        shape = (c, geometry.in_channels, k, k)
        return cls(
            conv1_weight=rng.normal(0.0, scale, size=shape),
            bn1_gamma=np.ones(c),
            bn1_beta=np.zeros(c),
            conv2_weight=rng.normal(0.0, scale, size=shape),
            bn2_gamma=np.ones(c),
            bn2_beta=np.zeros(c),
        )


@dataclass(frozen=True)
class HardwareExecutionReport:
    """Performance accounting of one HardwareODEBlock invocation."""

    cycles: CycleBreakdown
    transfer: TransferEstimate
    compute_seconds: float
    transfer_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.transfer_seconds

    def as_dict(self) -> Dict[str, float]:
        out = {
            "compute_seconds": self.compute_seconds,
            "transfer_seconds": self.transfer_seconds,
            "total_seconds": self.total_seconds,
        }
        out.update(self.cycles.as_dict())
        return out


class HardwareODEBlock:
    """Simulated PL implementation of one ODEBlock (conv_xN configuration)."""

    def __init__(
        self,
        block: str | BlockGeometry,
        weights: BlockWeights,
        n_units: int = 16,
        qformat: QFormat = Q20,
        board: BoardSpec = PYNQ_Z2,
        dynamic_bn_stats: bool = True,
        cycle_config: Optional[CycleModelConfig] = None,
        time_concat: bool = False,
    ) -> None:
        # Double-width products (fx_mul, the conv accumulators) are computed
        # in int64, so a wider word would wrap silently instead of saturating.
        if qformat.word_length > 32:
            raise ValueError(
                "word_length must be at most 32 bits for the PL datapath "
                f"(got {qformat.word_length}): its double-width products are int64"
            )
        self.geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
        self.n_units = n_units
        self.qformat = qformat
        self.board = board
        self.dynamic_bn_stats = dynamic_bn_stats
        #: When True the block implements ODE dynamics with the integration
        #: time concatenated as one extra (constant) input channel to both
        #: convolutions, matching the software ODEBlockFunction.
        self.time_concat = time_concat

        self.cycle_model = OdeBlockCycleModel(cycle_config)
        # Board-derived defaults (for the reference board these equal the
        # calibrated defaults bit-for-bit).
        self.transfer_model = AxiTransferModel(AxiTransferConfig.for_board(board))
        self.resource_estimator = ResourceEstimator(board.fpga, qformat)
        self.timing_model = TimingModel.for_board(board)

        # Quantise and "store" the weights in BRAM.
        self._load_weights(weights)
        self.bram_plan: BramPlan = plan_block_allocation(self.geometry, n_units, qformat)
        self.invocations = 0

    # -- configuration reports ----------------------------------------------------

    def resource_estimate(self) -> ResourceEstimate:
        """Analytical resource estimate of this configuration."""

        return self.resource_estimator.estimate(self.geometry, n_units=self.n_units)

    def timing_report(self) -> TimingReport:
        """Timing closure report at the board's PL clock."""

        return self.timing_model.analyze(self.n_units, target_hz=self.board.pl_clock_hz)

    def cycle_breakdown(self) -> CycleBreakdown:
        """Cycles of one invocation (independent of the data)."""

        return self.cycle_model.block_cycles(self.geometry, self.n_units)

    # -- weights -------------------------------------------------------------------

    def _load_weights(self, weights: BlockWeights) -> None:
        q = self.qformat
        self.weights = weights
        self._conv1_w = FxArray.from_float(weights.conv1_weight, q)
        self._conv2_w = FxArray.from_float(weights.conv2_weight, q)
        self._bn1_gamma = FxArray.from_float(weights.bn1_gamma, q)
        self._bn1_beta = FxArray.from_float(weights.bn1_beta, q)
        self._bn2_gamma = FxArray.from_float(weights.bn2_gamma, q)
        self._bn2_beta = FxArray.from_float(weights.bn2_beta, q)
        self._bn1_mean = FxArray.from_float(weights.bn1_mean, q) if weights.bn1_mean is not None else None
        self._bn1_var = FxArray.from_float(weights.bn1_var, q) if weights.bn1_var is not None else None
        self._bn2_mean = FxArray.from_float(weights.bn2_mean, q) if weights.bn2_mean is not None else None
        self._bn2_var = FxArray.from_float(weights.bn2_var, q) if weights.bn2_var is not None else None

    # -- execution -------------------------------------------------------------------

    def dynamics(self, z: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Evaluate ``f(z, t, θ)`` (the five-step pipeline) in fixed point.

        Accepts and returns float arrays of shape ``(C, H, W)``; the
        quantisation to/from Q20 happens at the boundary, mirroring the DMA
        transfer of float32 feature maps described by the paper.
        """

        return self.dynamics_batch(np.asarray(z, dtype=np.float64)[None], t)[0]

    def _with_time_channel(self, x: FxArray, t: float) -> FxArray:
        """Append the constant integration-time channel (time-concat mode).

        The constant plane is identical for every image of the
        ``(N, C, H, W)`` batch, so batching stays bit-exact.
        """

        if not self.time_concat:
            return x
        n, _, h, w = x.shape
        t_fx = self.qformat.to_fixed(float(t))
        t_plane = np.full((n, 1, h, w), int(t_fx), dtype=np.int64)
        return FxArray(np.concatenate([x.raw, t_plane], axis=1), self.qformat)

    def _forward_fixed(self, x: FxArray, t: float = 0.0) -> FxArray:
        h = hw_conv2d(
            self._with_time_channel(x, t),
            self._conv1_w,
            stride=self.geometry.stride,
            padding=1,
        )
        h = hw_batch_norm(
            h,
            self._bn1_gamma,
            self._bn1_beta,
            running_mean=self._bn1_mean,
            running_var=self._bn1_var,
            dynamic_stats=self.dynamic_bn_stats,
        )
        h = hw_relu(h)
        h = hw_conv2d(
            self._with_time_channel(h, t),
            self._conv2_w,
            stride=1,
            padding=1,
        )
        h = hw_batch_norm(
            h,
            self._bn2_gamma,
            self._bn2_beta,
            running_mean=self._bn2_mean,
            running_var=self._bn2_var,
            dynamic_stats=self.dynamic_bn_stats,
        )
        return h

    def dynamics_batch(self, z: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Evaluate ``f(z, t, θ)`` for a whole ``(N, C, H, W)`` batch at once.

        The batch is quantised once and flows through the datapath as one
        :class:`FxArray` tensor; the result is bit-identical to calling
        :meth:`dynamics` on each image (the board evaluates images serially,
        so a batch is a throughput construct, not a semantic one).
        """

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("dynamics_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        return self._forward_fixed(x, t).to_float()

    def execute(
        self, z: np.ndarray, step_size: float = 1.0, residual: bool = True, t: float = 0.0
    ) -> tuple:
        """Run one ODEBlock invocation: compute and account for its cost.

        Returns ``(z_next, HardwareExecutionReport)`` where ``z_next`` is
        ``z + h·f(z, t)`` when ``residual`` is True (one Euler step) and plain
        ``f(z, t)`` otherwise.
        """

        z = np.asarray(z, dtype=np.float64)
        out, report = self.execute_batch(z[None], step_size=step_size, residual=residual, t=t)
        return out[0], report

    def execute_batch(
        self, z: np.ndarray, step_size: float = 1.0, residual: bool = True, t: float = 0.0
    ) -> tuple:
        """Run one invocation per image of an ``(N, C, H, W)`` batch.

        Returns ``(z_next, report)`` where ``report`` accounts for **one**
        image (the PL processes images serially, so a batch of N costs
        ``N * report.total_seconds``).  The outputs are bit-identical to N
        :meth:`execute` calls; ``invocations`` advances by N.
        """

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("execute_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        f_out = self._forward_fixed(x, t)
        out = hw_residual_add(x, f_out, step_size) if residual else f_out

        cycles = self.cycle_breakdown()
        transfer = self.transfer_model.block_round_trip(self.geometry)
        report = HardwareExecutionReport(
            cycles=cycles,
            transfer=transfer,
            compute_seconds=cycles.time_seconds(self.board.pl_clock_hz),
            transfer_seconds=transfer.seconds,
        )
        self.invocations += len(z)
        return out.to_float(), report

    def run_iterations_batch(
        self, z: np.ndarray, iterations: int, step_size: float = 1.0, t0: float = 0.0
    ) -> tuple:
        """Euler-iterate a whole batch: ``z <- z + h·f(z, t_i)`` per image.

        Returns ``(z_final, total_seconds, reports)`` where ``total_seconds``
        covers all ``N * iterations`` serial invocations.  Bit-identical to
        :meth:`run_iterations` applied per image.
        """

        reports = []
        total = 0.0
        state = np.asarray(z, dtype=np.float64)
        n = len(state)
        for i in range(iterations):
            t = t0 + i * step_size
            state, report = self.execute_batch(state, step_size=step_size, residual=True, t=t)
            reports.append(report)
            total += n * report.total_seconds
        return state, total, reports

    def run_iterations(
        self, z: np.ndarray, iterations: int, step_size: float = 1.0, t0: float = 0.0
    ) -> tuple:
        """Execute the block ``iterations`` times (the ODENet repeated use).

        Each iteration is one Euler step ``z <- z + h·f(z, t_i)`` with
        ``t_i = t0 + i·h``.  Returns ``(z_final, total_seconds, reports)``.
        """

        z = np.asarray(z, dtype=np.float64)
        state, total, reports = self.run_iterations_batch(z[None], iterations, step_size, t0)
        return state[0], total, reports

    def quantization_error(self, z: np.ndarray, reference_fn, t: float = 0.0) -> float:
        """Max abs difference between the fixed-point output and a float reference."""

        hw_out = self.dynamics(z, t)
        ref_out = np.asarray(reference_fn(z))
        return float(np.max(np.abs(hw_out - ref_out)))
