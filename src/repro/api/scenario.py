"""The :class:`Scenario` design point: one architecture/hardware configuration.

Every analysis in the paper — Tables 2–5, Figures 5–6, the offload, energy
and training studies — is a function of the same handful of knobs:

* which architecture (``model``) at which depth (``depth``),
* how many MAC units the PL ODEBlock instantiates (``n_units``),
* the fixed-point format of the PL datapath (``word_length`` /
  ``fraction_bits``, i.e. the Q-format),
* the ODE solver used for the block dynamics (``solver``; Euler in the
  paper, higher-order Runge–Kutta for the ablation),
* the board and its PL clock (``board`` / ``pl_clock_hz``).

A :class:`Scenario` bundles those knobs into one frozen, hashable, validated
value object.  Hashability is what makes design-space sweeps cheap: the
:class:`repro.api.evaluator.Evaluator` memoizes per scenario, so a sweep
that revisits a design point never re-derives it.

The dataclass fields are the one scenario schema: :func:`field_dict`
serialises every scenario type (this one, ``SimScenario`` and
``FleetScenario``) by field name, and :func:`shared_fields` copies knobs
between them the same way.

Use :func:`scenario_grid` to build the cartesian product of several knob
axes (the design-space grid the ``repro-odenet sweep`` subcommand runs).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .._checks import check_count, check_seed
from ..core.execution_model import TABLE5_MODELS
from ..core.variants import SUPPORTED_DEPTHS, VARIANT_NAMES, table4_variant, variant_spec
from ..fixedpoint.qformat import QFormat, QFormatLike
from ..platform import BOARDS, BoardSpec, PYNQ_Z2, get_board, list_boards
from ..ode.solvers import available_methods, get_solver

__all__ = [
    "Scenario",
    "scenario_grid",
    "fraction_bits_for",
    "check_seed",
    "check_count",
    "check_board",
    "field_dict",
    "shared_fields",
    "SCENARIO_MODELS",
    "DEFAULT_FRACTION_BITS",
    "BOARDS",
]


#: Model names a scenario accepts: the Table-4 variants plus the Table-5 row
#: name "ODENet-3" (ODENet-N with only layer3_2 offloaded).
SCENARIO_MODELS: Tuple[str, ...] = tuple(VARIANT_NAMES) + ("ODENet-3",)

#: Conventional fraction bits per word length (the paper's Q20 at 32 bits and
#: the footnote-2 reduced-precision formats).  Used when a grid axis names a
#: word length without an explicit fraction length.
DEFAULT_FRACTION_BITS: Dict[int, int] = {32: 20, 16: 8, 12: 6, 8: 4}

_CANONICAL_MODELS = {name.lower(): name for name in SCENARIO_MODELS}


@dataclass(frozen=True)
class Scenario:
    """One point of the design space (frozen, hashable, validated).

    Raises :class:`ValueError` on construction for an unknown model, a depth
    outside the CIFAR ResNet family or incompatible with the variant's
    execution budget, a non-positive MAC-unit count, an invalid Q-format, an
    unknown solver, or an unknown board.
    """

    model: str = "rODENet-3"
    depth: int = 56
    n_units: int = 16
    word_length: int = 32
    fraction_bits: int = 20
    solver: str = "euler"
    board: str = PYNQ_Z2.name
    pl_clock_hz: Optional[float] = None

    def __post_init__(self) -> None:
        canonical = _CANONICAL_MODELS.get(str(self.model).lower())
        if canonical is None:
            raise ValueError(
                f"unknown model '{self.model}'; expected one of {SCENARIO_MODELS}"
            )
        object.__setattr__(self, "model", canonical)

        # Depth validation (divisibility and execution-budget checks) is
        # delegated to the Table-4 construction, the single source of truth.
        object.__setattr__(self, "depth", check_count("depth", self.depth, 1))
        variant_spec(self.variant, self.depth)

        # No upper bound: the cycle model caps effective parallelism by the
        # block's output channels, and oversizing only wastes resources —
        # both are findings a sweep should surface, not reject.
        object.__setattr__(self, "n_units", check_count("n_units", self.n_units, 1))

        fmt = QFormat(self.word_length, self.fraction_bits)
        object.__setattr__(self, "word_length", fmt.word_length)
        object.__setattr__(self, "fraction_bits", fmt.fraction_bits)

        solver_key = str(self.solver).lower()
        if solver_key not in available_methods():
            raise ValueError(
                f"unknown solver '{self.solver}'; available: {', '.join(available_methods())}"
            )
        object.__setattr__(self, "solver", solver_key)

        spec = check_board(self.board)
        object.__setattr__(self, "board", spec.name)
        if self.pl_clock_hz is None:
            object.__setattr__(self, "pl_clock_hz", spec.pl_clock_hz)
        elif self.pl_clock_hz <= 0:
            raise ValueError("pl_clock_hz must be positive")

    # -- derived views ---------------------------------------------------------------

    @property
    def variant(self) -> str:
        """The underlying Table-4 variant name ("ODENet-3" rows use ODENet)."""

        return table4_variant(self.model)

    @property
    def full_name(self) -> str:
        return f"{self.model}-{self.depth}"

    @property
    def qformat(self) -> QFormat:
        return QFormat(self.word_length, self.fraction_bits)

    @property
    def board_spec(self) -> BoardSpec:
        """The board, with the PL clock overridden when the scenario asks."""

        base = get_board(self.board)
        if self.pl_clock_hz == base.pl_clock_hz:
            return base
        return dataclasses.replace(base, pl_clock_hz=self.pl_clock_hz)

    @property
    def solver_stages(self) -> int:
        """Dynamics evaluations per solver step (1 for Euler, 4 for RK4)."""

        return get_solver(self.solver).stages_per_step

    # -- conversion ------------------------------------------------------------------

    def replace(self, **changes) -> "Scenario":
        """A copy of this scenario with some knobs changed (re-validated).

        Changing ``board`` re-derives a *defaulted* ``pl_clock_hz`` from the
        new board (the resolved clock is only kept when it was an explicit
        override of the old board's default) — otherwise every board swap
        would silently freeze the old board's clock into the copy.
        """

        if "board" in changes and "pl_clock_hz" not in changes:
            if self.pl_clock_hz == get_board(self.board).pl_clock_hz:
                changes["pl_clock_hz"] = None
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return field_dict(self)


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value):
        return field_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def field_dict(obj: object) -> Dict[str, object]:
    """A dataclass as a JSON-ready dict: fields in declaration order, nested
    dataclasses as dicts and tuples as lists."""

    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def shared_fields(source: object, cls: type) -> Dict[str, object]:
    """``source``'s values for the fields dataclass ``cls`` also declares."""

    names = {f.name for f in dataclasses.fields(cls)}
    return {f.name: getattr(source, f.name) for f in dataclasses.fields(source) if f.name in names}


def check_board(name: str) -> BoardSpec:
    """The registered board ``name`` resolves to (see
    :func:`repro.platform.get_board`), or a :class:`ValueError` naming the
    miss and listing the registry."""

    try:
        return get_board(name)
    except KeyError:
        available = ", ".join(list_boards()) or "(none)"
        raise ValueError(f"unknown board '{name}'; registered boards: {available}") from None


def fraction_bits_for(word_length: int, fraction_bits: Optional[int] = None) -> int:
    """Resolve the fraction length for a word length (conventional default).

    An explicit ``fraction_bits`` wins; otherwise the conventional Q-format
    of :data:`DEFAULT_FRACTION_BITS` applies, and an unconventional word
    length without an explicit fraction raises :class:`ValueError`.
    """

    if fraction_bits is not None:
        return fraction_bits
    if word_length in DEFAULT_FRACTION_BITS:
        return DEFAULT_FRACTION_BITS[word_length]
    raise ValueError(
        f"no conventional fraction length for a {word_length}-bit word; "
        "pass fraction_bits explicitly"
    )


def scenario_grid(
    models: Sequence[str] = TABLE5_MODELS,
    depths: Sequence[int] = SUPPORTED_DEPTHS,
    n_units: Sequence[int] = (16,),
    word_lengths: Sequence[int] = (32,),
    solvers: Sequence[str] = ("euler",),
    fraction_bits: Optional[int] = None,
    qformats: Optional[Sequence[QFormatLike]] = None,
    boards: Optional[Sequence[str]] = None,
    **common,
) -> List[Scenario]:
    """Cartesian product of knob axes as a list of validated scenarios.

    The iteration order is deterministic (models outermost, boards
    innermost) so sweep outputs are stable row-for-row.  ``common`` passes
    fixed fields (e.g. ``board=...``) to every scenario.

    The Q-format axis comes either from ``word_lengths`` (each resolved to
    its conventional fraction length, or to a single explicit
    ``fraction_bits``) or — for sweeps that vary both knobs independently,
    e.g. the million-key plan-kernel grids — from ``qformats``, an explicit
    sequence of Q-formats (each a :class:`QFormat`, a ``(word_length,
    fraction_bits)`` pair or a ``"WL:FB"`` string, see :meth:`QFormat.parse`)
    that then replaces the ``word_lengths`` axis.

    ``boards`` makes the platform a sweep axis: every registered board name
    (see :func:`repro.platform.list_boards`) is crossed with the other
    knobs.  It replaces a fixed ``board=...`` in ``common`` (passing both
    is an error).

    Each axis value is validated once (a model with each depth: the depth
    check depends on the variant) and the rows are assembled from canonical
    values; the scenarios, or the error, match building each point alone.
    """

    if qformats is not None:
        if fraction_bits is not None:
            raise ValueError("pass either qformats or fraction_bits, not both")
        format_axis = [(f.word_length, f.fraction_bits) for f in map(QFormat.parse, qformats)]
    else:
        format_axis = [(wl, fraction_bits_for(wl, fraction_bits)) for wl in word_lengths]
    if boards is not None:
        if "board" in common:
            raise ValueError("pass either boards (an axis) or board (a fixed knob), not both")
        board_kws = [{"board": str(b)} for b in boards]
    else:
        board = common.pop("board", None)
        board_kws = [{} if board is None else {"board": board}]
    try:
        pairs = [Scenario(model=m, depth=d, **common) for m in models for d in depths]
        unit_axis = [Scenario(n_units=units, **common).n_units for units in n_units]
        fmts = [Scenario(word_length=wl, fraction_bits=fb, **common) for wl, fb in format_axis]
        solver_axis = [Scenario(solver=solver, **common).solver for solver in solvers]
        points = [Scenario(**board_kw, **common) for board_kw in board_kws]
    except (TypeError, ValueError):
        # A bad value: build point by point, so the error is the first failing row's.
        return [Scenario(model=m, depth=d, n_units=u, word_length=wl, fraction_bits=fb,
                         solver=s, **board_kw, **common)
                for m, d, u, (wl, fb), s, board_kw in itertools.product(
                    models, depths, n_units, format_axis, solvers, board_kws)]
    # A board check's scenario holds every other field too (``common`` or default).
    return [_validated({**point.__dict__, "model": pair.model, "depth": pair.depth,
                        "n_units": units, "word_length": fmt.word_length,
                        "fraction_bits": fmt.fraction_bits, "solver": solver})
            for pair, units, fmt, solver, point in itertools.product(
                pairs, unit_axis, fmts, solver_axis, points)]


def _validated(fields: Dict[str, object]) -> Scenario:
    """A :class:`Scenario` of canonical field values, without ``__post_init__``."""

    point = object.__new__(Scenario)
    point.__dict__.update(fields)
    return point
