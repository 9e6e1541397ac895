"""The declarative :class:`SearchSpace`: joint discrete axes over the design
and serving knobs.

A search space is the optimizer's input contract: a mapping of axis names to
candidate values (``board``, ``qformat``, ``depth``, ``policy`` ... plus the
integer serving axes ``replicas``, ``batch_size``, ``cells``) and a ``fixed``
mapping for every knob that is *not* searched (the offered traffic, the SLO,
the PL clock).  It enumerates deterministically — axes in canonical order,
values in the order given — so every optimizer run visits candidates in the
same sequence and per-candidate seeds are stable.

A :class:`Candidate` is one joint assignment, frozen and hashable, with a
stable string ``key`` ("board=PYNQ-Z2|n_units=16|qformat=16:8") that names it
in reports, caches and seed derivations.  The space also knows how to realise
a candidate at every evaluation fidelity: :meth:`SearchSpace.scenario` (the
analytic design point), :meth:`SearchSpace.sim_scenario` (one board under
traffic) and :meth:`SearchSpace.fleet_scenario` (a cluster of ``count``
boards of the candidate's type).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._checks import check_count
from ..api.scenario import Scenario, check_board
from ..fixedpoint.qformat import QFormat
from ..fleet.cluster import BoardGroup, FleetScenario
from ..ode.solvers import available_methods
from ..platform import PYNQ_Z2
from ..sim.scenario import POLICY_NAMES, SimScenario

__all__ = ["AXIS_ORDER", "Candidate", "SearchSpace"]


#: Canonical axis order: design knobs first, then the serving-system knobs.
#: Enumeration nests in this order (first axis outermost), so candidate
#: sequences — and therefore per-candidate seeds and tie-breaks — are stable.
AXIS_ORDER: Tuple[str, ...] = (
    "model",
    "depth",
    "n_units",
    "qformat",
    "solver",
    "board",
    "replicas",
    "policy",
    "batch_size",
    "cells",
)

#: Fixed (non-searched) knobs a space accepts.  Each flows, by field name,
#: into every realised scenario type that has it (``pl_clock_hz`` only into
#: the design point and the sim scenario, ``routing`` only into the fleet);
#: ``count`` is the fleet inventory size (boards of the candidate's type).
#: A serving fidelity refuses a knob its scenario type does not have
#: (:meth:`SearchSpace.unmodelled`).
FIXED_KEYS: Tuple[str, ...] = (
    "pl_clock_hz",
    "arrival",
    "arrival_rate_hz",
    "n_requests",
    "duration_s",
    "slo_s",
    "warmup_s",
    "ps_cores",
    "dma_channels",
    "count",
    "routing",
    "admission",
)


#: The scenario fields the ``qformat`` axis sets.
_QFORMAT_FIELDS: Tuple[str, ...] = ("word_length", "fraction_bits")


def _axis_value_str(name: str, value: object) -> str:
    """Render one axis value for candidate keys ("qformat" -> "16:8")."""

    if name == "qformat":
        wl, fb = value  # type: ignore[misc]
        return f"{wl}:{fb}"
    return str(value)


@dataclass(frozen=True)
class Candidate:
    """One joint axis assignment (frozen, hashable, canonically ordered)."""

    values: Tuple[Tuple[str, object], ...]

    @property
    def key(self) -> str:
        """Stable string identity: "axis=value|axis=value" in canonical order.

        This is the candidate's name everywhere — report rows, tie-breaking,
        and the entropy fed into the per-candidate RNG stream.
        """

        return "|".join(f"{n}={_axis_value_str(n, v)}" for n, v in self.values)

    def get(self, name: str, default: object = None) -> object:
        for n, v in self.values:
            if n == name:
                return v
        return default

    def as_dict(self) -> Dict[str, object]:
        """The assignment as a plain dict (qformat rendered "WL:FB")."""

        return {n: _axis_value_str(n, v) if n == "qformat" else v for n, v in self.values}


def _validate_axis(name: str, values: Sequence[object]) -> Tuple[object, ...]:
    """Eagerly validate one axis's values (fail at construction, not mid-run)."""

    if not len(values):
        raise ValueError(f"axis '{name}' has no values")
    out: List[object] = []
    for value in values:
        if name == "qformat":
            fmt = QFormat.parse(value)
            value = (fmt.word_length, fmt.fraction_bits)
        elif name in ("depth", "n_units", "batch_size", "cells"):
            value = check_count(f"axis '{name}' value", value, 1)
        elif name == "replicas":
            value = check_count("axis 'replicas' value", value, 0, " (0 = auto-size)")
        elif name == "policy":
            if value not in POLICY_NAMES:
                raise ValueError(
                    f"axis 'policy' value '{value}' unknown; expected one of {POLICY_NAMES}"
                )
        elif name == "solver":
            if str(value).lower() not in available_methods():
                raise ValueError(
                    f"axis 'solver' value '{value}' unknown; "
                    f"available: {', '.join(available_methods())}"
                )
            value = str(value).lower()
        elif name == "board":
            value = check_board(str(value)).name
        if value in out:
            raise ValueError(f"axis '{name}' repeats value {value!r}")
        out.append(value)
    return tuple(out)


class SearchSpace:
    """Joint discrete axes plus the fixed knobs of every realised scenario.

    >>> space = SearchSpace(
    ...     axes={"board": ["PYNQ-Z2", "ZCU104"], "qformat": [(32, 20), (16, 8)]},
    ...     fixed={"arrival": "deterministic", "arrival_rate_hz": 5.0,
    ...            "n_requests": 200},
    ... )
    >>> space.size
    4

    Unknown axis names, empty/duplicate axis values, and unknown fixed keys
    all raise :class:`ValueError` at construction.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[object]],
        fixed: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not axes:
            raise ValueError("a search space needs at least one axis")
        unknown = [name for name in axes if name not in AXIS_ORDER]
        if unknown:
            raise ValueError(
                f"unknown axis '{unknown[0]}'; known axes: {', '.join(AXIS_ORDER)}"
            )
        self.axes: Dict[str, Tuple[object, ...]] = {
            name: _validate_axis(name, list(axes[name])) for name in AXIS_ORDER if name in axes
        }
        fixed = dict(fixed or {})
        bad = [key for key in fixed if key not in FIXED_KEYS]
        if bad:
            raise ValueError(
                f"unknown fixed knob '{bad[0]}'; known: {', '.join(FIXED_KEYS)}"
            )
        clash = [key for key in fixed if key in self.axes]
        if clash:
            raise ValueError(f"'{clash[0]}' is both an axis and a fixed knob")
        self.fixed: Dict[str, object] = fixed
        # Fail fast on an unsatisfiable joint assignment: the first candidate
        # exercises Scenario validation for the fixed design knobs, and its
        # sim and fleet scenarios the fixed serving knobs (traffic through
        # ``check_traffic``, ``count`` through ``BoardGroup``), whatever
        # fidelity the space is later searched at.
        first = self.candidates()[0]
        self.scenario(first)
        self.sim_scenario(first)
        self.fleet_scenario(first)

    # -- enumeration -------------------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(self.axes)

    @property
    def size(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out

    def candidates(self) -> List[Candidate]:
        """Every candidate, in deterministic nested-loop order."""

        names = list(self.axes)
        return [
            Candidate(values=tuple(zip(names, combo)))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]

    def neighbors(self, candidate: Candidate) -> List[Candidate]:
        """Candidates one step away along exactly one axis (±1 value index).

        The local-search move set: deterministic order (axes in canonical
        order, minus-step before plus-step), so a neighborhood walk is
        reproducible.
        """

        assignment = dict(candidate.values)
        out: List[Candidate] = []
        for name, values in self.axes.items():
            idx = values.index(assignment[name])
            for step in (-1, 1):
                j = idx + step
                if 0 <= j < len(values):
                    moved = dict(assignment)
                    moved[name] = values[j]
                    out.append(Candidate(values=tuple((n, moved[n]) for n in self.axes)))
        return out

    # -- candidate -> scenario builders ------------------------------------------------

    def _kwargs(self, candidate: Candidate, cls: type) -> Dict[str, object]:
        """The candidate's axis values and the fixed knobs that ``cls`` has."""

        values = dict(candidate.values)
        if "qformat" in values:
            values.update(zip(_QFORMAT_FIELDS, values.pop("qformat")))
        values.update(self.fixed)
        names = {f.name for f in dataclasses.fields(cls)}
        return {name: value for name, value in values.items() if name in names}

    def unmodelled(self, cls: type) -> List[Tuple[str, str]]:
        """``(kind, name)`` of every axis and fixed knob that sets no field
        of ``cls``, the scenario type a serving fidelity runs.

        ``qformat`` sets ``word_length`` and ``fraction_bits`` (as in
        :meth:`_kwargs`); a fleet's ``board`` and ``count`` set its inventory.
        """

        names = {f.name for f in dataclasses.fields(cls)}
        if cls is FleetScenario:
            names |= {"board", "count"}
        knobs = [("axis", name) for name in self.axes] + [("fixed knob", name) for name in self.fixed]
        return [(kind, name) for kind, name in knobs
                if not names.issuperset(_QFORMAT_FIELDS if name == "qformat" else (name,))]

    def scenario(self, candidate: Candidate) -> Scenario:
        """The candidate's analytic design point (serving axes ignored)."""

        return Scenario(**self._kwargs(candidate, Scenario))

    def _scale_stop(self, kwargs: Dict[str, object], fraction: float, cls: type) -> None:
        """Scale every stop condition that is set by ``fraction`` (halving
        rungs); with none set, the scenario type's ``DEFAULT_REQUESTS``."""

        stops = [name for name in ("n_requests", "duration_s") if kwargs.get(name) is not None]
        if not stops:
            kwargs["n_requests"] = max(1, int(round(cls.DEFAULT_REQUESTS * fraction)))
        elif fraction < 1.0:
            if "n_requests" in stops:
                kwargs["n_requests"] = max(1, int(round(kwargs["n_requests"] * fraction)))
            if "duration_s" in stops:
                kwargs["duration_s"] = kwargs["duration_s"] * fraction

    def sim_scenario(
        self, candidate: Candidate, seed: int = 0, fraction: float = 1.0
    ) -> SimScenario:
        """The candidate under the space's traffic, on one board.

        ``fraction`` scales every stop condition that is set (``n_requests``
        and ``duration_s``) — the successive-halving rung lengths.  ``seed`` is
        the per-candidate stream the optimizer derives; it never comes from
        the fixed knobs.
        """

        kwargs = self._kwargs(candidate, SimScenario)
        self._scale_stop(kwargs, fraction, SimScenario)
        return SimScenario(seed=seed, **kwargs)

    def fleet_scenario(
        self, candidate: Candidate, seed: int = 0, fraction: float = 1.0
    ) -> FleetScenario:
        """The candidate as a homogeneous fleet of ``fixed["count"]`` boards.

        Knobs a fleet does not have are left out here (so a sim or faults
        search over them still validates eagerly); :func:`repro.opt.optimize`
        refuses them at fleet fidelity.
        """

        kwargs = self._kwargs(candidate, FleetScenario)
        self._scale_stop(kwargs, fraction, FleetScenario)
        group = BoardGroup(candidate.get("board", PYNQ_Z2.name), int(self.fixed.get("count", 1)))
        return FleetScenario(boards=(group,), seed=seed, **kwargs)

    # -- serialisation -----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "axes": {
                name: [_axis_value_str(name, v) if name == "qformat" else v for v in values]
                for name, values in self.axes.items()
            },
            "fixed": dict(self.fixed),
            "size": self.size,
        }
