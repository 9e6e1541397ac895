"""The board registry: name -> :class:`~repro.platform.device.BoardSpec`.

The registry is the single lookup every layer goes through when a board is
named by string (scenarios, the CLI, the batch engine).  It is seeded with
the catalog boards (:mod:`repro.platform.catalog`) at import time and stays
open: downstream code can :func:`register_board` its own PS + PL platforms
and immediately sweep them through every analysis.

:data:`BOARDS` is a live read-only mapping view of the registry, kept for
the dict-shaped access the seed API exposed (``repro.api.BOARDS``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from .device import BoardSpec

__all__ = ["register_board", "get_board", "list_boards", "BOARDS"]


_REGISTRY: Dict[str, BoardSpec] = {}


def register_board(board: BoardSpec) -> BoardSpec:
    """Add a board to the registry (returned unchanged, for chaining).

    Registering a second board under an existing name is almost always an
    accident, so it raises.
    """

    if not isinstance(board, BoardSpec):
        raise TypeError(f"expected a BoardSpec (got {type(board).__name__})")
    if board.name in _REGISTRY:
        raise ValueError(f"board '{board.name}' is already registered")
    _REGISTRY[board.name] = board
    return board


def get_board(name: str) -> BoardSpec:
    """Look a board up by name, ignoring case and treating ``_`` as ``-``.

    ``"zcu104"`` and ``"pynq_z2"`` resolve to the registered ``ZCU104`` and
    ``PYNQ-Z2``; the returned spec carries the canonical name.  Raises
    :class:`KeyError` naming every registered board (mirroring
    :meth:`repro.fpga.bram.BramPlan.region`), so a typo in a sweep axis is
    self-explaining.
    """

    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    folded = _fold(name)
    for registered, spec in _REGISTRY.items():
        if _fold(registered) == folded:
            return spec
    available = ", ".join(list_boards()) or "(none)"
    raise KeyError(f"no board named '{name}'; registered boards: {available}")


def _fold(name: object) -> str:
    return str(name).lower().replace("_", "-")


def list_boards() -> Tuple[str, ...]:
    """Registered board names, in registration order."""

    return tuple(_REGISTRY)


class _RegistryView(Mapping):
    """Live read-only mapping over the registry (the public ``BOARDS``)."""

    def __getitem__(self, name: str) -> BoardSpec:
        return _REGISTRY[name]

    def __iter__(self) -> Iterator[str]:
        return iter(_REGISTRY)

    def __len__(self) -> int:
        return len(_REGISTRY)


#: Live name -> BoardSpec mapping (reflects later ``register_board`` calls).
BOARDS: Mapping[str, BoardSpec] = _RegistryView()
