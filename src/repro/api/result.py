"""The :class:`Result` of evaluating one :class:`~repro.api.scenario.Scenario`.

A result is a structured bundle of every quantity the paper's analyses
derive for a design point, grouped into sections:

* ``parameters`` — architecture facts: parameter count/size (Table 2 /
  Figure 5) and the modelled CIFAR-100 accuracy (Figure 6);
* ``resources`` — the PL resource demand of the offload targets and the
  fit/timing verdicts (Table 3 / Section 3.2);
* ``timing`` — the Table-5 row: totals with and without the PL, target
  shares and the overall speedup, plus the speedup over software ResNet-N;
* ``energy`` — per-prediction energy with vs without the offload;
* ``training`` — the future-work training projection (step/epoch/full-run).

Results convert losslessly to nested dictionaries (:meth:`Result.as_dict`),
JSON (:meth:`Result.to_json`) and a flat CSV row (:meth:`Result.flat_dict`,
printed by :meth:`Result.to_csv`), which is what the ``eval`` and ``sweep``
subcommands and the benchmark harness emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from ..analysis.report import Report
from .scenario import Scenario

__all__ = ["Result"]

#: Keys of the resource vector inside the ``resources`` section.
_RESOURCE_KEYS = ("bram", "dsp", "lut", "ff")


def _flatten_value(value: object) -> object:
    """Collapse list-valued cells (per-target series) for flat/CSV views."""

    if isinstance(value, (list, tuple)):
        return " / ".join(str(v) for v in value) if value else "-"
    return value


@dataclass(frozen=True)
class Result(Report):
    """Structured outcome of evaluating one scenario.

    Results are memoized and shared, so the sections are wrapped read-only
    at construction; use :meth:`as_dict` for a mutable copy.
    """

    scenario: Scenario
    parameters: Mapping[str, object]
    resources: Mapping[str, object]
    timing: Mapping[str, object]
    energy: Mapping[str, object]
    training: Mapping[str, object]

    def __post_init__(self) -> None:
        for name in ("parameters", "resources", "timing", "energy", "training"):
            section = getattr(self, name)
            if not isinstance(section, MappingProxyType):
                object.__setattr__(self, name, MappingProxyType(dict(section)))

    # -- views -----------------------------------------------------------------------

    @property
    def sections(self) -> Tuple[Tuple[str, Mapping[str, object]], ...]:
        return (
            ("parameters", self.parameters),
            ("resources", self.resources),
            ("timing", self.timing),
            ("energy", self.energy),
            ("training", self.training),
        )

    def resource_vector(self) -> Dict[str, float]:
        """The PL resource demand as a plain {bram, dsp, lut, ff} dict."""

        return {k: self.resources[k] for k in _RESOURCE_KEYS}

    def as_dict(self) -> Dict[str, object]:
        """Nested dictionary: scenario knobs plus every section.

        Returns fresh containers (list-valued cells copied too) so callers
        can mutate the output without corrupting the memoized result.
        """

        out: Dict[str, object] = {"scenario": self.scenario.as_dict()}
        for name, section in self.sections:
            out[name] = {
                key: list(value) if isinstance(value, (list, tuple)) else value
                for key, value in section.items()
            }
        return out

    def flat_dict(self) -> Dict[str, object]:
        """One flat row: scenario knobs then section values, first key wins.

        Duplicate keys across sections (``model``, ``N``, ...) are emitted
        once; list-valued cells are joined with ``" / "`` so the row is
        CSV-safe.
        """

        row: Dict[str, object] = dict(self.scenario.as_dict())
        for _, section in self.sections:
            for key, value in section.items():
                if key in ("model", "N") or key in row:
                    continue
                row[key] = _flatten_value(value)
        return row

    def records(self) -> List[Dict[str, object]]:
        """The CSV view: the one :meth:`flat_dict` row."""

        return [self.flat_dict()]

    # -- rendering ---------------------------------------------------------------------

    def render(self) -> str:
        """Multi-section plain-text report (the ``eval`` subcommand output)."""

        lines: List[str] = [f"Scenario {self.scenario.full_name}"]
        width = max(
            len(key)
            for _, section in (("scenario", self.scenario.as_dict()),) + self.sections
            for key in section
        )
        for name, section in (("scenario", self.scenario.as_dict()),) + self.sections:
            lines.append(f"[{name}]")
            for key, value in section.items():
                shown = _flatten_value(value)
                if isinstance(shown, float):
                    shown = f"{shown:.6g}"
                lines.append(f"  {key.ljust(width)} : {shown}")
        return "\n".join(lines)
