"""Environmental constraints that gate decision stages and emissions,
the fail-safe profile the cascade falls back on, and `Labelled`, the
naming rule of the IntEnums that scenarios, rulesets and traces name by
label."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Labelled(IntEnum):
    """An IntEnum named by its label, the member's name in lower case.
    Hot paths read labels from a `labels()` table built once."""

    @property
    def label(self) -> str:
        return self._name_.lower()

    @classmethod
    def from_name(cls, name: str):
        return cls[name.upper()]

    @classmethod
    def labels(cls) -> dict:
        """Each member's label, by member."""
        return {member: member.label for member in cls}


class EmconLevel(Labelled):
    """Emissions-control level, ordered from least to most restrictive."""

    OPEN = 0
    RESTRICTED = 1
    SILENT = 2


class FailSafeProfile(Labelled):
    """The cascade's preloaded terminal behaviour."""

    NO_ACTION = 0
    LOW_THRESHOLD_ACT = 1
    TERMINATE = 2


@dataclass(frozen=True)
class EnvConstraints:
    """Per-decision allowances; budgets are not cumulative across ticks."""

    connectivity: bool = True
    time_budget: int = 10
    power_budget: int = 10
    emcon_level: EmconLevel = EmconLevel.OPEN
