"""Environmental constraints that gate decision stages and emissions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class EmconLevel(IntEnum):
    """Emissions-control level, ordered from least to most restrictive."""

    OPEN = 0
    RESTRICTED = 1
    SILENT = 2

    @classmethod
    def from_name(cls, name: str) -> "EmconLevel":
        return cls[name.upper()]

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class EnvConstraints:
    """Per-decision allowances; budgets are not cumulative across ticks."""

    connectivity: bool = True
    time_budget: int = 10
    power_budget: int = 10
    emcon_level: EmconLevel = EmconLevel.OPEN
