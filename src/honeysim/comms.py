"""Outbound messaging under emissions control, plus the trust ledger.

Peers are scripted stubs; what matters here is whether a message may
leave the agent at the current EMCON level. Whether a sent cry for help
was justified needs ground truth, so the harness's accountant decides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .actions import AutonomyLevel
from .constraints import EmconLevel
from .errors import UnknownPeer
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


@dataclass(frozen=True)
class TrustRecord:
    peer: str
    state: str = "trusted"  # "trusted" | "broken"; broken is absorbing
    violations: int = 0


def make_ledger(peers) -> dict:
    return {peer: TrustRecord(peer) for peer in peers}


def record_violation(ledger: dict, peer: str, observed: str,
                     threshold: int = 3) -> dict:
    """Count a violation; the peer breaks at the threshold and stays
    broken until explicitly re-created."""
    record = ledger.get(peer)
    if record is None:
        raise UnknownPeer(f"peer {peer!r} is not in the ledger")
    violations = record.violations + 1
    state = "broken" if (violations >= threshold or record.state == "broken") \
        else "trusted"
    ledger[peer] = replace(record, violations=violations, state=state)
    return ledger


@dataclass(frozen=True)
class CloneRequest:
    """A logged request to clone a peer. Fulfilment has no mechanism
    here; the request itself is the whole protocol."""

    peer: str
    tick: int


@dataclass
class MessageLog:
    """Append-only log of send attempts, single writer per agent."""

    records: list = field(default_factory=list)
    clone_requests: list = field(default_factory=list)

    def append(self, record: SendRecord) -> None:
        self.records.append(record)

    def request_clone(self, peer: str, tick: int) -> CloneRequest:
        request = CloneRequest(peer, tick)
        self.clone_requests.append(request)
        return request
