"""Outbound messaging under emissions control.

What matters here is only whether a message may leave the agent at the
current EMCON level and autonomy gate; no peer receives it. `send`
answers per message kind and posture, reading nothing else of the
message, so a run asks it once per kind per posture. Whether a sent cry
for help was justified needs ground truth, so the harness's accountant
decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .actions import AutonomyLevel
from .constraints import EmconLevel
from .guardrails import ALLOW, AUTONOMY_GATE, EMISSION_BLOCKED, GuardrailSet, Verdict


class MessageKind(Enum):
    CRY_FOR_HELP = "cry_for_help"
    ALERT = "alert"
    SHARE_BLOCKLIST = "share_blocklist"
    HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    # CRY_FOR_HELP: inclusive tick range of supporting observations.
    evidence_start: int = 0
    evidence_end: int = 0
    # ALERT: the action the agent is reporting.
    action_taken: str | None = None
    # SHARE_BLOCKLIST: address tokens the agent has blocked.
    entries: tuple = ()

    def __post_init__(self):
        if self.kind is MessageKind.CRY_FOR_HELP \
                and self.evidence_end < self.evidence_start:
            raise ValueError("cry_for_help needs a non-empty evidence window")


# Required autonomy per message kind. Every message is an emission, so
# Silent suppresses each kind whatever its autonomy.
MESSAGE_AUTONOMY = {
    MessageKind.CRY_FOR_HELP: AutonomyLevel.COLLABORATIVE,
    MessageKind.ALERT: AutonomyLevel.PREVISIONED,
    MessageKind.SHARE_BLOCKLIST: AutonomyLevel.COLLABORATIVE,
    MessageKind.HEARTBEAT: AutonomyLevel.REFLEX,
}


def send(kind: MessageKind, emcon: EmconLevel, g: GuardrailSet) -> Verdict:
    """Whether a message of `kind` may leave at `emcon` under g's gates;
    Silent suppresses every emission."""
    if emcon is EmconLevel.SILENT:
        return Verdict(False, EMISSION_BLOCKED)
    if MESSAGE_AUTONOMY[kind] > g.ruleset.autonomy_gates[emcon]:
        return Verdict(False, AUTONOMY_GATE)
    return ALLOW
