import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim.config import ScenarioConfig
from honeysim.constraints import EmconLevel
from honeysim.comms import Message, MessageKind, send
from honeysim.errors import WindowOutOfRange
from honeysim.guardrails import GuardrailSet, build_ruleset
from honeysim.harness import Accountant
from honeysim.world import EventKind, WorldEvent


def make_guard():
    cfg = ScenarioConfig()
    return GuardrailSet.seal(build_ruleset(cfg.guardrails, cfg.cascade.thresholds))


def test_cfh_suppressed_at_silent():
    rec = send(MessageKind.CRY_FOR_HELP, EmconLevel.SILENT, make_guard())
    assert not rec.allowed and rec.reason == "emission_blocked"


def test_heartbeat_sent_at_open():
    rec = send(MessageKind.HEARTBEAT, EmconLevel.OPEN, make_guard())
    assert rec.allowed


def test_share_blocklist_gated_at_restricted():
    # default Restricted gate allows <= previsioned; blocklist sharing
    # is collaborative
    rec = send(MessageKind.SHARE_BLOCKLIST, EmconLevel.RESTRICTED, make_guard())
    assert not rec.allowed and rec.reason == "autonomy_gate"


def test_alert_passes_restricted():
    rec = send(MessageKind.ALERT, EmconLevel.RESTRICTED, make_guard())
    assert rec.allowed


def test_sent_sets_monotone_across_emcon(rng):
    guard = make_guard()
    stream = [Message(rng.choice(list(MessageKind))) for _ in range(200)]
    sent = {}
    for emcon in EmconLevel:
        sent[emcon] = {i for i, m in enumerate(stream)
                       if send(m.kind, emcon, guard).allowed}
    assert sent[EmconLevel.SILENT] <= sent[EmconLevel.RESTRICTED] <= sent[EmconLevel.OPEN]
    assert sent[EmconLevel.SILENT] == set()


def fed(*events, window=20):
    """An accountant that has seen `events`."""
    accountant = Accountant(ticks=1000, window=window)
    for ev in events:
        accountant.event(ev.tick, ev.kind, ev.truth_malicious)
    return accountant


def mal(tick, kind=EventKind.HONEY_TOUCH):
    return WorldEvent(tick, kind, "hp-0", 0, 0.0, True)


def benign(tick, kind=EventKind.LOAD_SAMPLE):
    return WorldEvent(tick, kind, "db-0", 0, 0.4, False)


def test_classify_justified_on_honey_touch():
    accountant = fed(benign(0), mal(3), benign(5))
    assert accountant.classify_cfh(5, 0, 5) == "justified"


def test_classify_cry_wolf_on_benign_window():
    accountant = fed(benign(0), benign(1), benign(5))
    assert accountant.classify_cfh(5, 0, 5) == "cry_wolf"


def test_classify_window_out_of_range():
    with pytest.raises(WindowOutOfRange):
        fed(benign(0), benign(1)).classify_cfh(1, 0, 9)
    # ticks older than the accounting window are no longer held
    with pytest.raises(WindowOutOfRange):
        fed(mal(3), benign(30), window=20).classify_cfh(30, 3, 30)


def test_classification_partitions_random_messages(rng):
    log = [WorldEvent(t, rng.choice((EventKind.LOAD_SAMPLE, EventKind.HONEY_TOUCH)),
                      "n", 0, 0.0, rng.random() < 0.2) for t in range(300)]
    accountant = fed(*log, window=300)
    justified = cry_wolf = 0
    total = 500
    for _ in range(total):
        start = rng.randint(0, 290)
        end = min(299, start + rng.randint(0, 20))
        label = accountant.classify_cfh(299, start, end)
        if label == "justified":
            justified += 1
            assert any(e.truth_malicious and start <= e.tick <= end for e in log)
        else:
            cry_wolf += 1
            assert not any(e.truth_malicious and start <= e.tick <= end for e in log)
    assert justified + cry_wolf == total


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_classifier_agrees_with_any_over_held_ticks(data):
    """classify_cfh scans back from the newest truth tick; over ascending
    truth ticks it agrees with "some truth tick lies in the window"."""
    window = data.draw(st.integers(1, 30), label="window")
    now = data.draw(st.integers(0, 80), label="now")
    truth = sorted(data.draw(st.sets(st.integers(0, now)), label="truth ticks"))
    accountant = Accountant(ticks=1000, window=window)
    for t in truth:
        accountant.event(t, EventKind.HONEY_TOUCH, True)
    accountant.event(now, EventKind.LOAD_SAMPLE, False)
    oldest = max(0, now - window + 1)
    start = data.draw(st.integers(oldest, now), label="start")
    end = data.draw(st.integers(start, now), label="end")
    expected = any(start <= t <= end for t in truth)
    assert accountant.classify_cfh(now, start, end) \
        == ("justified" if expected else "cry_wolf")


def test_cfh_requires_nonempty_evidence():
    with pytest.raises(ValueError):
        Message(MessageKind.CRY_FOR_HELP, evidence_start=6, evidence_end=5)
