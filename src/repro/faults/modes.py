"""The fault domain: typed fault modes over the simulator's resources.

Following the fmdtools methodology (fault domains defined over the model's
flows and functions), each mode here targets one primitive of the
:mod:`repro.sim` serving system and knows how to *inject* itself into a live
:class:`~repro.sim.runner.SimSystem` and how to *clear* itself again:

* :class:`ReplicaDeath` — a PL accelerator replica dies (SEU in control
  logic, configuration upset).  The dispatcher drains its queue and
  in-flight work onto the survivors; with no survivor the offloaded blocks
  fall back to the PS software path.
* :class:`AxiDegradation` — the PS<->PL interconnect renegotiates to a
  narrower burst width (link-training fallback); every DMA burst is priced
  through the same :class:`~repro.fpga.axi.AxiTransferModel` as the nominal
  run, with the degraded cycles-per-word.
* :class:`PsCoreLoss` — the PS core pool shrinks (thermal shutdown of a
  core); running software phases finish, then the pool drains to the new
  capacity.
* :class:`DmaCorruption` — bit flips in DMA'd activations, surfaced through
  the fixed-point machinery of :mod:`repro.fixedpoint.qformat`: a flip is
  *severe* when its magnitude reaches the integer bits or when the corrupted
  activation saturates the MAC accumulator headroom, and a severe flip marks
  the request corrupted (an SLO violation even if it completes fast).

Modes are frozen dataclasses — stateless, hashable, reusable across runs.
``inject`` returns an opaque token that ``clear`` consumes, so one instance
can be injected at many sampled times (see :mod:`repro.faults.sample`).
Faults of one kind may overlap and clear in any order: AXI degradation, PS
core loss and DMA corruption set their target from its nominal value and
the faults of their kind still in force, never from a value saved at
injection.
``rate_per_hour`` is the mode's occurrence rate, used by the FMEA tabulation
to weight observed deltas into expected losses; a rate of 0 keeps the mode
in the registry but it never fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Type

from .._checks import check_count
from ..fixedpoint.qformat import QFormat
from ..fpga.axi import BYTES_PER_WORD, AxiTransferModel

__all__ = [
    "FaultMode",
    "ReplicaDeath",
    "AxiDegradation",
    "PsCoreLoss",
    "DmaCorruption",
    "FAULT_MODE_KINDS",
    "default_fault_domain",
    "make_fault_mode",
    "parse_fault_specs",
    "flip_bit",
]

#: Accumulation depth the corruption severity check assumes: a 3x3 kernel's
#: taps feeding one MAC chain (the dominant convolution shape in the paper).
ACCUM_TAPS = 9


def flip_bit(qformat: QFormat, fixed: int, bit: int) -> int:
    """Flip one bit of a two's-complement fixed-point word.

    ``fixed`` is a signed integer in ``[min_int, max_int]``; the result is
    the signed value of the same word with ``bit`` toggled (bit 0 = LSB,
    ``word_length - 1`` = sign bit).
    """

    if not 0 <= bit < qformat.word_length:
        raise ValueError(
            f"bit must be in [0, {qformat.word_length}) for Q"
            f"{qformat.word_length}.{qformat.fraction_bits} (got {bit})"
        )
    span = 1 << qformat.word_length
    unsigned = (int(fixed) + span) % span
    unsigned ^= 1 << bit
    return unsigned - span if unsigned >= (1 << (qformat.word_length - 1)) else unsigned


def check_duration(duration_s: Optional[float]) -> None:
    """A fault's self-clearing time: positive and finite, or ``None``
    (permanent); anything else is a :class:`ValueError`."""

    if duration_s is not None and not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, or None (got {duration_s})")


@dataclass(frozen=True)
class FaultMode:
    """Base fault mode: a rate, an optional duration, and hook methods."""

    #: Occurrence rate (events per hour of operation) used by the FMEA
    #: weighting; 0 registers the mode without it ever firing.
    rate_per_hour: float = 1.0
    #: Seconds until the fault self-clears (repair, re-negotiation); ``None``
    #: is a permanent fault (it lasts to the end of the run).
    duration_s: Optional[float] = None

    kind = "base"
    summary = "abstract base mode"
    #: Name of the field holding the mode's one knob (the PARAM of a spec).
    param = ""

    def __post_init__(self) -> None:
        if not 0 <= self.rate_per_hour < math.inf:
            raise ValueError(
                f"rate_per_hour must be non-negative and finite (got {self.rate_per_hour})"
            )
        check_duration(self.duration_s)

    # -- protocol ----------------------------------------------------------------------

    def inject(self, system) -> object:
        raise NotImplementedError

    def clear(self, system, token: object) -> None:
        raise NotImplementedError


class _Overlapping(FaultMode):
    """A mode whose faults may overlap on one target value.

    ``inject`` records the fault in ``system.in_force`` under a fresh clear
    token (dicts keep injection order) and ``clear`` removes it; both then
    call the subclass's ``apply(system, active)`` with the faults of this
    kind still in force, which sets the target from its nominal value and
    those.  Once none is in force the target reads back its nominal value
    exactly.
    """

    def inject(self, system) -> object:
        token = object()
        system.in_force[token] = self
        self._update(system)
        return token

    def clear(self, system, token: object) -> None:
        del system.in_force[token]
        self._update(system)

    def _update(self, system) -> None:
        self.apply(system, [m for m in system.in_force.values() if m.kind == self.kind])


@dataclass(frozen=True)
class ReplicaDeath(FaultMode):
    """One PL accelerator replica stops serving (configuration upset)."""

    #: Replica index to kill; ``None`` kills the lowest-indexed live one.
    replica: Optional[int] = None

    kind = "replica_death"
    param = "replica"
    summary = "a PL replica dies; its queue re-dispatches to survivors"

    def inject(self, system) -> object:
        dispatcher = system.dispatcher
        if self.replica is not None:
            index = self.replica
            if not 0 <= index < len(dispatcher.alive) or not dispatcher.alive[index]:
                return None
        else:
            live = [i for i, up in enumerate(dispatcher.alive) if up]
            if not live:
                return None
            index = live[0]
        dispatcher.fail_replica(index)
        return index

    def clear(self, system, token: object) -> None:
        if token is not None:
            system.dispatcher.revive_replica(token)


#: Reference burst length (words) for the degraded/nominal transfer-time ratio.
_REFERENCE_WORDS = 1024


@dataclass(frozen=True)
class AxiDegradation(_Overlapping):
    """The AXI link renegotiates to a narrower burst width.

    Nominally every beat moves a full word (``8 * BYTES_PER_WORD`` bits);
    degraded, only ``burst_bits`` land per beat, so a word takes
    ``word_bits / burst_bits`` beats.  The slowdown is priced through
    :class:`~repro.fpga.axi.AxiTransferModel` — the ratio of degraded to
    nominal transfer time of a reference burst.
    """

    #: Bits landing per bus beat after degradation (nominal: the full word).
    burst_bits: int = 8

    kind = "axi_degraded"
    param = "burst_bits"
    summary = "AXI bursts narrow; every DMA transfer slows down"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "burst_bits", check_count("burst_bits", self.burst_bits, 1)
        )

    def slowdown_factor(self) -> float:
        """Degraded-to-nominal transfer-time ratio of the paper's AXI model."""

        word_bits = 8 * BYTES_PER_WORD
        if self.burst_bits >= word_bits:
            return 1.0
        nominal = AxiTransferModel()
        degraded = AxiTransferModel(
            cycles_per_word=nominal.cycles_per_word * word_bits / self.burst_bits
        )
        return (
            degraded.transfer_seconds(_REFERENCE_WORDS)
            / nominal.transfer_seconds(_REFERENCE_WORDS)
        )

    @staticmethod
    def apply(system, active: List["AxiDegradation"]) -> None:
        """The bus slows by the product of the factors in force (1.0: none)."""

        slowdown = 1.0
        for mode in active:
            slowdown = mode.slowdown_factor() * slowdown
        system.bus.degrade(slowdown)


@dataclass(frozen=True)
class PsCoreLoss(_Overlapping):
    """The PS core pool shrinks (e.g. thermal shutdown of a core)."""

    #: Cores removed from the pool; the pool never drops below one core.
    cores_lost: int = 1

    kind = "ps_core_loss"
    param = "cores_lost"
    summary = "PS cores drop out; software phases contend for fewer cores"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "cores_lost", check_count("cores_lost", self.cores_lost, 1))

    @staticmethod
    def apply(system, active: List["PsCoreLoss"]) -> None:
        """The pool keeps its nominal cores less those lost, at least one."""

        lost = sum(mode.cores_lost for mode in active)
        system.ps.set_capacity(max(1, system.ps_cores - lost))


@dataclass(frozen=True)
class DmaCorruption(_Overlapping):
    """Bit flips in DMA'd activations while the fault is active.

    Every input DMA burst has one word corrupted: a sampled activation in
    ``[-1, 1)`` is quantised to the scenario's Q-format, one bit flips, and
    the damage is judged with the same fixed-point machinery the datapath
    models use.  A flip is *severe* — the request's output is garbage — when
    the error magnitude reaches one integer unit (``2^(bit - fraction_bits)
    >= 1``) or when the corrupted activation, scaled by the MAC accumulation
    depth (:data:`ACCUM_TAPS`), is no longer representable, i.e. the
    accumulator saturates (:meth:`QFormat.to_fixed` clipping territory).
    """

    #: Bit to flip (0 = LSB); ``None`` draws a uniform position per burst
    #: from the system's fault RNG.
    bit: Optional[int] = None

    kind = "dma_corruption"
    param = "bit"
    summary = "DMA bit flips; severe ones corrupt the request's output"

    def _corrupt(self, system, request) -> None:
        q: QFormat = system.qformat
        bit = self.bit if self.bit is not None else int(system.rng.integers(0, q.word_length))
        value = float(system.rng.uniform(-1.0, 1.0))
        fixed = int(q.to_fixed(value))
        corrupted = float(q.to_float(flip_bit(q, fixed, bit)))
        error = abs(corrupted - float(q.to_float(fixed)))
        system.counters["corrupted_words"] = system.counters.get("corrupted_words", 0) + 1
        severe = error >= 1.0 or not bool(q.representable(corrupted * ACCUM_TAPS))
        if severe:
            request.corrupted = True

    @staticmethod
    def apply(system, active: List["DmaCorruption"]) -> None:
        """The latest fault in force corrupts the bursts (none: no corruptor)."""

        if active:
            mode = active[-1]
            system.dispatcher.corruptor = lambda request: mode._corrupt(system, request)
        else:
            system.dispatcher.corruptor = None


# -- registry ----------------------------------------------------------------------------

_MODE_CLASSES: Tuple[Type[FaultMode], ...] = (
    ReplicaDeath,
    AxiDegradation,
    PsCoreLoss,
    DmaCorruption,
)

#: Registered fault-mode kinds, in registry order.
FAULT_MODE_KINDS: Tuple[str, ...] = tuple(cls.kind for cls in _MODE_CLASSES)

#: Default occurrence rates (events/hour) for the default fault domain —
#: engineering estimates for a low-cost edge deployment, deliberately high
#: enough that a short simulated run shows each mode's effect.
_DEFAULT_RATES: Dict[str, float] = {
    "replica_death": 2.0,
    "axi_degraded": 4.0,
    "ps_core_loss": 1.0,
    "dma_corruption": 6.0,
}


def default_fault_domain() -> List[FaultMode]:
    """One instance of every registered mode at its default rate."""

    return [cls(rate_per_hour=_DEFAULT_RATES[cls.kind]) for cls in _MODE_CLASSES]


def make_fault_mode(
    kind: str,
    rate_per_hour: Optional[float] = None,
    param: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> FaultMode:
    """Construct a mode by kind name (the CLI entry point).

    ``param`` sets the mode's single knob, the field its class names in
    ``param``.
    """

    by_kind = {cls.kind: cls for cls in _MODE_CLASSES}
    if kind not in by_kind:
        raise ValueError(
            f"unknown fault mode '{kind}'; expected one of {FAULT_MODE_KINDS}"
        )
    kwargs: Dict[str, object] = {
        "rate_per_hour": _DEFAULT_RATES[kind] if rate_per_hour is None else rate_per_hour,
        "duration_s": duration_s,
    }
    cls = by_kind[kind]
    if param is not None:
        kwargs[cls.param] = int(param)
    return cls(**kwargs)


def parse_fault_specs(
    specs: List[str], duration_s: Optional[float] = None
) -> List[FaultMode]:
    """Parse CLI fault specs: ``KIND[:RATE[:PARAM]]``.

    An empty list yields the default fault domain.  ``duration_s`` applies
    to every parsed mode (the CLI's ``--fault-duration`` knob).
    """

    if not specs:
        return [
            replace(mode, duration_s=duration_s) if duration_s is not None else mode
            for mode in default_fault_domain()
        ]
    modes: List[FaultMode] = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) > 3 or not parts[0]:
            raise ValueError(
                f"bad fault spec '{spec}'; expected KIND[:RATE[:PARAM]] with "
                f"KIND one of {FAULT_MODE_KINDS}"
            )
        kind = parts[0]
        try:
            rate = float(parts[1]) if len(parts) > 1 else None
            param = float(parts[2]) if len(parts) > 2 else None
        except ValueError:
            raise ValueError(
                f"bad fault spec '{spec}': RATE and PARAM must be numbers"
            ) from None
        modes.append(make_fault_mode(kind, rate, param, duration_s))
    return modes
