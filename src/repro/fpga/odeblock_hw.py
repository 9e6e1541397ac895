"""The PL-part ODEBlock engine: functional + performance model in one object.

:class:`HardwareODEBlock` is the simulated counterpart of the Verilog module
the paper implements on the PYNQ-Z2's programmable logic.  It bundles:

* the quantised weights of the two convolutions and two batch-normalisation
  steps (stored in the simulated BRAM plan),
* the bit-accurate fixed-point forward pass (conv → BN → ReLU → conv → BN),
  run on cache-sized image groups of :data:`GROUP_ELEMENTS` elements,
* the cycle/time model of one invocation (:mod:`repro.fpga.cycles`),
* the PS↔PL transfer cost (:mod:`repro.fpga.axi`), and
* the resource estimate and timing check of the chosen conv_xN configuration.

It is used by the hardware/software co-execution runtime
(:mod:`repro.hwsw.runtime`) to replace the software building block of an
offloaded layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..fixedpoint import FxArray, QFormat, Q20
from .axi import AxiTransferModel, TransferEstimate
from .bram import BramPlan, plan_block_allocation
from .cycles import CycleBreakdown, OdeBlockCycleModel
from ..platform import PYNQ_Z2
from .geometry import KERNEL, BlockGeometry, block_geometry
from .ops import hw_batch_norm, hw_conv2d, hw_relu, hw_residual_add
from .resources import ResourceEstimate, ResourceEstimator
from .timing import TimingModel, TimingReport

__all__ = [
    "GROUP_ELEMENTS", "BlockWeights", "HardwareExecutionReport", "HardwareODEBlock",
    "image_groups",
]

#: Feature-map elements per image group of the forward pass: each int64
#: stage tensor of a group (4 layer1, 8 layer2_2 or 16 layer3_2 images)
#: stays cache-sized, and the group bounds the im2col matrix.  In two
#: one-core sweeps from 2**13 to 2**18 elements and the whole batch, 2**16
#: gave the lowest total time over the three offloadable blocks.
GROUP_ELEMENTS = 1 << 16


def image_groups(n: int, image_elements: int) -> List[slice]:
    """Consecutive slices of an ``n``-image batch, each about
    :data:`GROUP_ELEMENTS` elements of ``image_elements``-element images
    (at least one image; the last group may be partial)."""

    step = max(1, GROUP_ELEMENTS // image_elements)
    return [slice(start, start + step) for start in range(0, n, step)]


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
        shape = (c, geometry.in_channels, KERNEL, KERNEL)
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


class HardwareODEBlock:
    """Simulated PL implementation of one ODEBlock (conv_xN configuration)
    on the PYNQ-Z2."""

    def __init__(
        self,
        block: str | BlockGeometry,
        weights: BlockWeights,
        n_units: int = 16,
        qformat: QFormat = Q20,
        dynamic_bn_stats: bool = True,
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
        self.dynamic_bn_stats = dynamic_bn_stats
        #: When True the block implements ODE dynamics with the integration
        #: time concatenated as one extra (constant) input channel to both
        #: convolutions, matching the software ODEBlockFunction.
        self.time_concat = time_concat

        self.cycle_model = OdeBlockCycleModel()
        self.transfer_model = AxiTransferModel(PYNQ_Z2)
        self.resource_estimator = ResourceEstimator(PYNQ_Z2.fpga, qformat)
        self.timing_model = TimingModel(PYNQ_Z2)

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

        return self.timing_model.analyze(self.n_units, target_hz=PYNQ_Z2.pl_clock_hz)

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

    def dynamics(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``f(z, 0, θ)`` (the five-step pipeline) in fixed point.

        Accepts and returns float arrays of shape ``(C, H, W)``; the
        quantisation to/from Q20 happens at the boundary, mirroring the DMA
        transfer of float32 feature maps described by the paper.
        """

        return self.dynamics_batch(np.asarray(z, dtype=np.float64)[None])[0]

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

    def _forward_fixed(self, x: FxArray, t: float) -> FxArray:
        """The five-step pipeline, each :func:`image_groups` group through
        every stage while its feature maps are in cache.  BN's statistics
        are per image and integer arithmetic is exact: no bit can change."""

        raw = x.raw
        n, _, height, width = raw.shape
        # Channel-last memory, like a whole-batch conv output, so every
        # later pass over the result reduces in the same order.
        out = np.empty((n, height, width, self._conv2_w.shape[0]), dtype=np.int64)
        out = out.transpose(0, 3, 1, 2)
        for group in image_groups(n, raw[0].size):
            h = hw_conv2d(self._with_time_channel(FxArray(raw[group], x.fmt), t), self._conv1_w)
            h = hw_batch_norm(
                h,
                self._bn1_gamma,
                self._bn1_beta,
                running_mean=self._bn1_mean,
                running_var=self._bn1_var,
                dynamic_stats=self.dynamic_bn_stats,
            )
            h = hw_relu(h)
            h = hw_conv2d(self._with_time_channel(h, t), self._conv2_w)
            out[group] = hw_batch_norm(
                h,
                self._bn2_gamma,
                self._bn2_beta,
                running_mean=self._bn2_mean,
                running_var=self._bn2_var,
                dynamic_stats=self.dynamic_bn_stats,
            ).raw
        return FxArray(out, x.fmt)

    def dynamics_batch(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``f(z, 0, θ)`` for a whole ``(N, C, H, W)`` batch at once.

        The batch is quantised once and flows through the datapath in image
        groups; the result is bit-identical to calling
        :meth:`dynamics` on each image (the board evaluates images serially,
        so a batch is a throughput construct, not a semantic one).
        """

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("dynamics_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        return self._forward_fixed(x, 0.0).to_float()

    def execute(self, z: np.ndarray) -> tuple:
        """Run one ODEBlock invocation: compute and account for its cost.

        Returns ``(z_next, HardwareExecutionReport)`` where ``z_next`` is
        ``z + f(z, 0)``, one Euler step of size 1.
        """

        z = np.asarray(z, dtype=np.float64)
        out, report = self.execute_batch(z[None])
        return out[0], report

    def execute_batch(self, z: np.ndarray, step_size: float = 1.0, t: float = 0.0) -> tuple:
        """Run one Euler step ``z + h·f(z, t)`` per image of an ``(N, C, H, W)`` batch.

        Returns ``(z_next, report)`` where ``report`` accounts for **one**
        image (the PL processes images serially, so a batch of N costs
        ``N * report.total_seconds``).  The outputs are bit-identical to
        running each image as its own batch; ``invocations`` advances by N.
        """

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("execute_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        f_out = self._forward_fixed(x, t)
        out = hw_residual_add(x, f_out, step_size)

        cycles = self.cycle_breakdown()
        transfer = self.transfer_model.block_round_trip(self.geometry)
        report = HardwareExecutionReport(
            cycles=cycles,
            transfer=transfer,
            compute_seconds=cycles.time_seconds(PYNQ_Z2.pl_clock_hz),
            transfer_seconds=transfer.seconds,
        )
        self.invocations += len(z)
        return out.to_float(), report

    def run_iterations_batch(self, z: np.ndarray, iterations: int) -> tuple:
        """Euler-iterate a whole batch: ``z <- z + f(z, i)`` per image (step 1).

        Returns ``(z_final, total_seconds, reports)`` where ``total_seconds``
        covers all ``N * iterations`` serial invocations.  Bit-identical to
        :meth:`run_iterations` applied per image.
        """

        reports = []
        total = 0.0
        state = np.asarray(z, dtype=np.float64)
        n = len(state)
        for i in range(iterations):
            state, report = self.execute_batch(state, t=float(i))
            reports.append(report)
            total += n * report.total_seconds
        return state, total, reports

    def run_iterations(self, z: np.ndarray, iterations: int) -> tuple:
        """Execute the block ``iterations`` times (the ODENet repeated use).

        Each iteration is one Euler step ``z <- z + f(z, i)`` of size 1.
        Returns ``(z_final, total_seconds, reports)``.
        """

        z = np.asarray(z, dtype=np.float64)
        state, total, reports = self.run_iterations_batch(z[None], iterations)
        return state[0], total, reports
