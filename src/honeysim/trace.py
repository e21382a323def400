"""Line-delimited run traces with byte-exact replay semantics.

One JSON object per line, keys sorted, compact separators: two runs
with the same (config, seed, policy) must produce identical bytes.
A header line pins the schema and the reward parameters; a footer
line carries the record count so truncation is detectable.
"""

from __future__ import annotations

import json
import math

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
        entry = {"kind": kind, "seq": self.seq, "tick": tick}
        entry.update(payload)
        self.lines.append(dumps(entry))
        self.seq += 1

    def finish(self) -> list:
        self.lines.append(dumps({"format": FORMAT_END, "records": self.seq}))
        return self.lines


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
_INT, _STR, _BOOL = (int,), (str,), (bool,)
_NUMBER, _OPTIONAL_STR = (int, float), (str, type(None))
_MAX_INT = 2**53

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
        elif t not in want or (t is int and not -_MAX_INT <= value <= _MAX_INT) \
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
    for n, line in enumerate(lines[1:-1]):
        rec = _load(line, f"line {n + 2}")
        if not isinstance(rec, dict):
            raise TraceCorrupt(f"line {n + 2} is not a JSON object")
        kind = rec.get("kind")
        if type(kind) is not str or kind not in RECORD_FIELDS:
            raise TraceCorrupt(f"line {n + 2}: unknown record kind {kind!r}")
        seq = rec.get("seq")
        if type(seq) is not int or seq != n:
            raise TraceCorrupt(f"line {n + 2}: sequence number {seq!r}, expected {n}")
        tick = rec.get("tick")
        if type(tick) is not int or tick < last_tick:
            raise TraceCorrupt(f"line {n + 2}: tick {tick!r} breaks ordering")
        last_tick = tick
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
    for n, rec in enumerate(records):
        bad = _bad_field(rec, RECORD_FIELDS[rec["kind"]])
        if bad:
            raise TraceCorrupt(f"line {n + 2}: {bad}")
    return header, records
