"""Outbound messaging under emissions control.

Peers are scripted stubs; what matters here is whether a message may
leave the agent at the current EMCON level. Whether a sent cry for help
was justified needs ground truth, so the harness's accountant decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .actions import AutonomyLevel
from .constraints import EmconLevel
from .guardrails import AUTONOMY_GATE, EMISSION_BLOCKED, GuardrailSet


class MessageKind(Enum):
    CRY_FOR_HELP = "cry_for_help"
    ALERT = "alert"
    SHARE_BLOCKLIST = "share_blocklist"
    HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    tick: int
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


# Emission cost and required autonomy per message kind. A zero-cost
# message kind does not exist: transmitting is what EMCON regulates.
MESSAGE_SPECS = {
    MessageKind.CRY_FOR_HELP: (1, AutonomyLevel.COLLABORATIVE),
    MessageKind.ALERT: (1, AutonomyLevel.PREVISIONED),
    MessageKind.SHARE_BLOCKLIST: (1, AutonomyLevel.COLLABORATIVE),
    MessageKind.HEARTBEAT: (1, AutonomyLevel.REFLEX),
}


@dataclass(frozen=True)
class SendRecord:
    message: Message
    sent: bool
    reason: str | None = None


def send(msg: Message, emcon: EmconLevel, g: GuardrailSet) -> SendRecord:
    """Gate one outbound message; Silent suppresses every emission."""
    emission_cost, autonomy = MESSAGE_SPECS[msg.kind]
    if emcon is EmconLevel.SILENT and emission_cost > 0:
        return SendRecord(msg, sent=False, reason=EMISSION_BLOCKED)
    if autonomy > g.autonomy_gates[emcon]:
        return SendRecord(msg, sent=False, reason=AUTONOMY_GATE)
    return SendRecord(msg, sent=True)
