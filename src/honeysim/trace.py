"""Line-delimited run traces with byte-exact replay semantics.

One JSON object per line, keys sorted, compact separators: two runs
with the same (config, seed, policy) must produce identical bytes.
A header line pins the schema and the reward parameters; a footer
line carries the record count so truncation is detectable.

`dumps` defines the bytes of a line. The record kinds the harness
writes every tick (event, percept, decision, executed_action, message
and veto) are written from fixed line templates instead, which give
exactly the bytes `dumps` would give for a payload of the usual shape
and types at a fraction of its cost. Any other payload, and every other
line, goes through `dumps`.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _str

from .errors import TraceCorrupt

FORMAT = "honeysim-trace"
FORMAT_END = "honeysim-trace-end"
VERSION = 1

# One encoder for every line; json.dumps would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: dict) -> str:
    return _ENCODER.encode(obj)


class TraceWriter:
    """Accumulates one run's records; emits header/records/footer."""

    def __init__(self, header_fields: dict):
        header = {"format": FORMAT, "version": VERSION}
        header.update(header_fields)
        self.lines = [dumps(header)]
        self.seq = 0

    def record(self, kind: str, tick: int, payload: dict) -> None:
        line = None
        if type(tick) is int:
            try:
                line = _TEMPLATES[kind](self.seq, tick, payload)
            except (KeyError, TypeError, ValueError):
                pass
        if line is None:  # no template for kind, or not an exact payload
            entry = {"kind": kind, "seq": self.seq, "tick": tick}
            entry.update(payload)
            line = dumps(entry)
        self.lines.append(line)
        self.seq += 1

    def finish(self) -> list:
        self.lines.append(dumps({"format": FORMAT_END, "records": self.seq}))
        return self.lines


# -- line templates ---------------------------------------------------------
#
# One function per per-tick record kind, each given (seq, tick, payload)
# with tick an int. It returns the line `dumps` would write for the
# entry, keys in sorted order, or None when the payload's keys or value
# types are not the ones it writes exactly. Strings go through the
# encoder's own `encode_basestring_ascii`, which raises TypeError on
# anything else; a missing key raises KeyError, a value of the wrong
# type TypeError, a non-finite float ValueError. The writer answers
# None and each of these by calling `dumps`. A bool is an int to
# Python, so int and bool fields are checked by exact type.

def _float(x) -> str:
    text = float.__repr__(x)  # TypeError unless x is a float
    if not math.isfinite(x):  # dumps writes NaN and Infinity
        raise ValueError(text)
    return text


def _opt_str(x) -> str:
    return "null" if x is None else _str(x)


def _bool(x) -> str:
    return "true" if x else "false"


def _ints(items) -> str:
    if type(items) is not list:
        raise TypeError("not a list")
    for x in items:
        if type(x) is not int:
            raise TypeError("not an int")
    return f"[{','.join(map(str, items))}]"


def _str_pairs(items) -> str:
    if type(items) is not list:
        raise TypeError("not a list")
    parts = []
    for pair in items:
        if type(pair) is not list or len(pair) != 2:
            raise TypeError("not a pair")
        parts.append(f"[{_str(pair[0])},{_str(pair[1])}]")
    return f"[{','.join(parts)}]"


def _event_line(seq, tick, p):
    ev = p["event"]
    if len(p) == 1 and type(ev) is dict and len(ev) == 6 \
            and type(ev["severity"]) is type(ev["tick"]) is int \
            and type(ev["truth_malicious"]) is bool:
        return (f'{{"event":{{"kind":{_str(ev["kind"])},"load":{_float(ev["load"])},'
                f'"node":{_str(ev["node"])},"severity":{ev["severity"]},'
                f'"tick":{ev["tick"]},"truth_malicious":{_bool(ev["truth_malicious"])}}},'
                f'"kind":"event","seq":{seq},"tick":{tick}}}')
    return None


def _percept_line(seq, tick, p):
    f = p["features"]
    if len(p) == 3 and type(f) is dict and len(f) == 9 \
            and type(f["antimalware_alerts"]) is type(f["dummy_process_alerts"]) \
            is type(f["honey_touches"]) is type(f["ids_alert_count"]) \
            is type(f["ids_severity_sum"]) is type(f["integrity_violations"]) \
            is type(f["unauthorized_accesses"]) is type(f["window_ticks"]) is int:
        return (f'{{"anomaly":{_float(p["anomaly"])},"features":{{'
                f'"antimalware_alerts":{f["antimalware_alerts"]},'
                f'"dummy_process_alerts":{f["dummy_process_alerts"]},'
                f'"honey_touches":{f["honey_touches"]},'
                f'"ids_alert_count":{f["ids_alert_count"]},'
                f'"ids_severity_sum":{f["ids_severity_sum"]},'
                f'"integrity_violations":{f["integrity_violations"]},'
                f'"system_load":{_float(f["system_load"])},'
                f'"unauthorized_accesses":{f["unauthorized_accesses"]},'
                f'"window_ticks":{f["window_ticks"]}}},'
                f'"kind":"percept","seq":{seq},"state":{_str(p["state"])},"tick":{tick}}}')
    return None


def _decision_line(seq, tick, p):
    if len(p) == 3:
        return (f'{{"action":{_str(p["action"])},"kind":"decision",'
                f'"provenance":{_str(p["provenance"])},'
                f'"rejected":{_str_pairs(p["rejected"])},"seq":{seq},"tick":{tick}}}')
    return None


def _executed_action_line(seq, tick, p):
    if len(p) == 9 and type(p["applied"]) is bool \
            and type(p["available_before"]) is type(p["delta_resources"]) \
            is type(p["pool_available"]) is type(p["pool_used"]) is int:
        return (f'{{"action":{_str(p["action"])},"applied":{_bool(p["applied"])},'
                f'"available_before":{p["available_before"]},'
                f'"delta_resources":{p["delta_resources"]},"effect":{_str(p["effect"])},'
                f'"error":{_opt_str(p["error"])},"kind":"executed_action",'
                f'"pool_available":{p["pool_available"]},"pool_used":{p["pool_used"]},'
                f'"seq":{seq},"target":{_opt_str(p["target"])},"tick":{tick}}}')
    return None


def _message_line(seq, tick, p):
    if len(p) == 8 and type(p["evidence_end"]) is type(p["evidence_start"]) is int:
        return (f'{{"action_taken":{_opt_str(p["action_taken"])},'
                f'"classification":{_opt_str(p["classification"])},'
                f'"entries":{_ints(p["entries"])},"evidence_end":{p["evidence_end"]},'
                f'"evidence_start":{p["evidence_start"]},"kind":"message",'
                f'"message_kind":{_str(p["message_kind"])},"reason":{_opt_str(p["reason"])},'
                f'"seq":{seq},"status":{_str(p["status"])},"tick":{tick}}}')
    return None


def _veto_line(seq, tick, p):
    if len(p) == 3:
        return (f'{{"action":{_str(p["action"])},"kind":"veto",'
                f'"reason":{_str(p["reason"])},"seq":{seq},"stage":{_str(p["stage"])},'
                f'"tick":{tick}}}')
    return None


_TEMPLATES = {
    "event": _event_line,
    "percept": _percept_line,
    "decision": _decision_line,
    "executed_action": _executed_action_line,
    "message": _message_line,
    "veto": _veto_line,
}


def write_file(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_file(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise TraceCorrupt(f"trace is not UTF-8: {exc}") from exc


# Allowed types per field. An int must be exact as a double and a float
# finite, so replay's arithmetic on them cannot overflow or turn NaN.
# A scenario's int fields are held to the same bound when it loads.
_INT, _STR, _BOOL = (int,), (str,), (bool,)
_NUMBER, _OPTIONAL_STR = (int, float), (str, type(None))
MAX_EXACT_INT = 2**53

# What the header and each record kind must carry for replay. A nested
# dict must hold exactly the listed keys.
HEADER_FIELDS = {
    "episode_ticks": _INT,
    "window": _INT,
    "reward": {"a": _NUMBER, "b": _NUMBER, "c": _NUMBER, "floor": _INT},
}
RECORD_FIELDS = {
    "event": {"event": {"tick": _INT, "kind": _STR, "node": _STR,
                        "severity": _INT, "load": _NUMBER,
                        "truth_malicious": _BOOL}},
    "percept": {},
    "decision": {"provenance": _STR},
    "executed_action": {"action": _STR, "applied": _BOOL, "error": _OPTIONAL_STR,
                        "delta_resources": _INT, "available_before": _INT,
                        "pool_used": _INT, "pool_available": _INT},
    "veto": {"reason": _STR},
    "message": {"status": _STR, "message_kind": _STR,
                "classification": _OPTIONAL_STR,
                "evidence_start": _INT, "evidence_end": _INT},
    "reward_sample": {
        "value": _NUMBER,
        "credited_action": _OPTIONAL_STR,
        "terms": {"honey": _NUMBER, "resource": _NUMBER, "cfh": _NUMBER},
        "inputs": {name: _INT for name in (
            "honey_events", "security_events", "delta_resources",
            "total_resources", "justified_cfh", "cw")},
    },
    "agent_status": {"status": _STR},
}


def _bad_field(obj: dict, fields: dict) -> str | None:
    """Describe the first field of obj that `fields` rejects, else None."""
    for name, want in fields.items():
        if name not in obj:
            return f"missing field {name!r}"
        value = obj[name]
        t = type(value)
        if type(want) is dict:
            if t is not dict or value.keys() != want.keys():
                return f"field {name!r} must hold exactly {sorted(want)}"
            bad = _bad_field(value, want)
            if bad:
                return f"{name}: {bad}"
        elif t not in want or (t is int and not -MAX_EXACT_INT <= value <= MAX_EXACT_INT) \
                or (t is float and not math.isfinite(value)):
            return f"field {name!r} has bad value {value!r}"
    return None


def _load(line: str, where: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TraceCorrupt(f"{where} is not valid JSON: {exc}") from exc


def parse(lines) -> tuple:
    """Validate framing, schema and ordering; returns (header, records).

    Raises TraceCorrupt on any violation: bad JSON, wrong header or
    footer, unknown record kind, non-consecutive sequence numbers,
    non-monotone ticks, a record-count mismatch (truncation), or a
    header or record lacking a field replay reads or holding one of the
    wrong type.
    """
    if not lines:
        raise TraceCorrupt("empty trace")
    header = _load(lines[0], "header")
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise TraceCorrupt("missing or wrong trace header")
    if header.get("version") != VERSION:
        raise TraceCorrupt(f"unsupported trace version {header.get('version')!r}")
    if len(lines) < 2:
        raise TraceCorrupt("trace has no footer")

    records = []
    last_tick = -1
    # The first record lacking a field replay reads; reported only after
    # every framing check has passed.
    bad_record = None
    for n, line in enumerate(lines[1:-1]):
        rec = _load(line, f"line {n + 2}")
        if not isinstance(rec, dict):
            raise TraceCorrupt(f"line {n + 2} is not a JSON object")
        kind = rec.get("kind")
        fields = RECORD_FIELDS.get(kind) if type(kind) is str else None
        if fields is None:
            raise TraceCorrupt(f"line {n + 2}: unknown record kind {kind!r}")
        seq = rec.get("seq")
        if type(seq) is not int or seq != n:
            raise TraceCorrupt(f"line {n + 2}: sequence number {seq!r}, expected {n}")
        tick = rec.get("tick")
        if type(tick) is not int or tick < last_tick:
            raise TraceCorrupt(f"line {n + 2}: tick {tick!r} breaks ordering")
        last_tick = tick
        if fields and bad_record is None:
            bad = _bad_field(rec, fields)
            if bad:
                bad_record = f"line {n + 2}: {bad}"
        records.append(rec)

    footer = _load(lines[-1], "footer")
    if not isinstance(footer, dict) or footer.get("format") != FORMAT_END:
        raise TraceCorrupt("missing trace footer (truncated file?)")
    if footer.get("records") != len(records):
        raise TraceCorrupt(
            f"footer claims {footer.get('records')!r} records, found {len(records)}")

    bad = _bad_field(header, HEADER_FIELDS)
    if bad is None and min(header["episode_ticks"], header["window"],
                           header["reward"]["floor"]) < 1:
        bad = "episode_ticks, window and reward floor must be >= 1"
    if bad:
        raise TraceCorrupt(f"header: {bad}")
    if bad_record:
        raise TraceCorrupt(bad_record)
    return header, records
