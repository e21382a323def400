"""Line-delimited run traces with byte-exact replay semantics.

One JSON object per line, keys sorted, compact separators: two runs
with the same (config, seed, policy) must produce identical bytes.
A header line pins the schema and the reward parameters; a footer
line carries the record count so truncation is detectable.

`dumps` defines the bytes of a line, and the per-tick record layouts
live here. `TraceWriter` has one method per record kind the harness writes
every tick (event, percept, decision, veto, executed_action and
message). Each takes the record's fields and writes, from a fixed line
template, exactly the line `dumps` would write for them, at a fraction
of its cost; a field of another type raises instead.
`TraceWriter.record` writes any other record through `dumps`, as the
header and the footer are written; the harness builds the payloads of
the `reward_sample` and `agent_status` records it passes.

`walk` is the one reader and checker: it takes the lines one at a time
and yields the header, then each record, holding none of them, and
raises on the first fault in a fixed order. `parse` collects what it
yields; replay consumes it a record at a time. `write_file` and
`read_file` move the lines to and from a file in bounded chunks, so
neither holds a copy of the whole text.
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


# -- value encoders ---------------------------------------------------------
#
# Each returns the JSON `dumps` writes for one value, or raises TypeError
# for a value of another type and ValueError for one it cannot write
# (a non-finite float, an int too long for str()). A bool is an int to
# Python and f"{True}" is not JSON, so types are checked exactly.
# `_str` is the encoder's own string writer, which raises TypeError on
# anything but a str.

def _int(x) -> str:
    if type(x) is not int:
        raise TypeError(f"expected an int, got {type(x).__name__}")
    return int.__repr__(x)


def _float(x) -> str:
    if type(x) is not float:
        raise TypeError(f"expected a float, got {type(x).__name__}")
    if not math.isfinite(x):  # dumps would write NaN or Infinity
        raise ValueError(f"non-finite float {x!r}")
    return float.__repr__(x)


def _bool(x) -> str:
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"expected a bool, got {type(x).__name__}")


def _opt_str(x) -> str:
    return "null" if x is None else _str(x)


def _array(items, encode) -> str:
    """A list or tuple as a JSON array, each item written by `encode`."""
    if type(items) is not list and type(items) is not tuple:
        raise TypeError(f"expected a list or tuple, got {type(items).__name__}")
    return f"[{','.join(map(encode, items))}]"


def _strs(items) -> str:
    return _array(items, _str)


class TraceWriter:
    """Accumulates one run's records; emits header/records/footer.

    Each per-tick method encodes every field before it appends its line,
    so one that raises leaves `lines` and `seq` as they were.
    """

    def __init__(self, header_fields: dict):
        header = {"format": FORMAT, "version": VERSION}
        header.update(header_fields)
        self.lines = [dumps(header)]
        self.seq = 0

    def record(self, kind: str, tick: int, payload: dict) -> None:
        """Any record, written by `dumps`."""
        entry = {"kind": kind, "seq": self.seq, "tick": tick}
        entry.update(payload)
        self.lines.append(dumps(entry))
        self.seq += 1

    def event(self, tick: int, event_tick: int, kind: str, node: str,
              severity: int, load: float, truth_malicious: bool) -> None:
        """A world event; `kind` is its label."""
        self.lines.append(
            f'{{"event":{{"kind":{_str(kind)},"load":{_float(load)},'
            f'"node":{_str(node)},"severity":{_int(severity)},'
            f'"tick":{_int(event_tick)},"truth_malicious":{_bool(truth_malicious)}}},'
            f'"kind":"event","seq":{self.seq},"tick":{_int(tick)}}}')
        self.seq += 1

    def percept(self, tick: int, anomaly: float, state: str,
                ids_alert_count: int, ids_severity_sum: int,
                antimalware_alerts: int, unauthorized_accesses: int,
                honey_touches: int, dummy_process_alerts: int,
                integrity_violations: int, system_load: float,
                window_ticks: int) -> None:
        """A percept: the anomaly score, the encoded state key, then the
        fields of its `sensing.FeatureVector` in their order."""
        self.lines.append(
            f'{{"anomaly":{_float(anomaly)},"features":{{'
            f'"antimalware_alerts":{_int(antimalware_alerts)},'
            f'"dummy_process_alerts":{_int(dummy_process_alerts)},'
            f'"honey_touches":{_int(honey_touches)},'
            f'"ids_alert_count":{_int(ids_alert_count)},'
            f'"ids_severity_sum":{_int(ids_severity_sum)},'
            f'"integrity_violations":{_int(integrity_violations)},'
            f'"system_load":{_float(system_load)},'
            f'"unauthorized_accesses":{_int(unauthorized_accesses)},'
            f'"window_ticks":{_int(window_ticks)}}},'
            f'"kind":"percept","seq":{self.seq},"state":{_str(state)},'
            f'"tick":{_int(tick)}}}')
        self.seq += 1

    def decision(self, tick: int, action: str, provenance: str,
                 rejected) -> None:
        """A decision; `rejected` lists each rejected stage's
        [stage, reason] label pair in evaluation order."""
        self.lines.append(
            f'{{"action":{_str(action)},"kind":"decision",'
            f'"provenance":{_str(provenance)},"rejected":{_array(rejected, _strs)},'
            f'"seq":{self.seq},"tick":{_int(tick)}}}')
        self.seq += 1

    def veto(self, tick: int, action: str, stage: str, reason: str) -> None:
        """An arbiter rejection caused by the guardrails."""
        self.lines.append(
            f'{{"action":{_str(action)},"kind":"veto","reason":{_str(reason)},'
            f'"seq":{self.seq},"stage":{_str(stage)},"tick":{_int(tick)}}}')
        self.seq += 1

    def executed_action(self, tick: int, action: str, effect: str,
                        target: str | None, applied: bool, error: str | None,
                        delta_resources: int, available_before: int,
                        pool_used: int, pool_available: int) -> None:
        """An executed action and the resource pool after it."""
        self.lines.append(
            f'{{"action":{_str(action)},"applied":{_bool(applied)},'
            f'"available_before":{_int(available_before)},'
            f'"delta_resources":{_int(delta_resources)},"effect":{_str(effect)},'
            f'"error":{_opt_str(error)},"kind":"executed_action",'
            f'"pool_available":{_int(pool_available)},"pool_used":{_int(pool_used)},'
            f'"seq":{self.seq},"target":{_opt_str(target)},"tick":{_int(tick)}}}')
        self.seq += 1

    def message(self, tick: int, message_kind: str, status: str,
                reason: str | None, classification: str | None,
                evidence_start: int, evidence_end: int, entries,
                action_taken: str | None) -> None:
        """A message sent or suppressed; `entries` lists the ints it shares."""
        self.lines.append(
            f'{{"action_taken":{_opt_str(action_taken)},'
            f'"classification":{_opt_str(classification)},'
            f'"entries":{_array(entries, _int)},"evidence_end":{_int(evidence_end)},'
            f'"evidence_start":{_int(evidence_start)},"kind":"message",'
            f'"message_kind":{_str(message_kind)},"reason":{_opt_str(reason)},'
            f'"seq":{self.seq},"status":{_str(status)},"tick":{_int(tick)}}}')
        self.seq += 1

    def finish(self) -> list:
        self.lines.append(dumps({"format": FORMAT_END, "records": self.seq}))
        return self.lines


# Lines joined per write, and characters decoded per read: the file round
# trip holds one such chunk beyond the lines, never the whole text.
_WRITE_LINES = 512
_READ_CHARS = 1 << 16
# Every character str.splitlines breaks a line at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def write_file(path, lines) -> None:
    """Write a list of lines as the UTF-8 text "\n".join(lines) + "\n",
    joined and written `_WRITE_LINES` lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        # An empty list is one empty slice, written as the lone "\n".
        for start in range(0, len(lines) or 1, _WRITE_LINES):
            fh.write("\n".join(lines[start:start + _WRITE_LINES]))
            fh.write("\n")


def read_file(path) -> list:
    """The lines of a trace file: what `splitlines` makes of its whole
    text, read in text mode, which turns "\r\n" and "\r" into "\n".

    The text is decoded `_READ_CHARS` characters at a time. Every break
    left is one character, so none spans two chunks, and a line a chunk
    leaves unended is carried into the next. TraceCorrupt if a byte is
    not UTF-8.
    """
    lines = []
    unended = []  # the pieces of a line that no chunk has ended yet
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while chunk := fh.read(_READ_CHARS):
                parts = chunk.splitlines()
                last = None if chunk[-1] in _LINE_BREAKS else parts.pop()
                if parts:
                    unended.append(parts[0])
                    parts[0] = "".join(unended)
                    unended = []
                    lines.extend(parts)
                if last is not None:
                    unended.append(last)
    except UnicodeDecodeError as exc:
        raise TraceCorrupt(f"trace is not UTF-8: {exc}") from exc
    if unended:
        lines.append("".join(unended))
    return lines


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


def walk(lines):
    """Check a trace's lines one at a time; yield its header, then each
    of its records, and hold none of them.

    Raises TraceCorrupt for the first fault in this order: a framing
    fault as it is reached (bad JSON, wrong header, unknown record kind,
    non-consecutive sequence numbers, non-monotone ticks), a missing or
    wrong footer or a record-count mismatch (truncation), a header
    lacking a field replay reads or holding one of the wrong type, and
    the first record doing so. The header is yielded only if its fields
    are good, and no record from the first bad one on, so a consumer
    sees only what `parse` would return.
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

    # The header's or the first record's missing field; reported only
    # after every framing check has passed.
    fault = _bad_field(header, HEADER_FIELDS)
    if fault is None and min(header["episode_ticks"], header["window"],
                             header["reward"]["floor"]) < 1:
        fault = "episode_ticks, window and reward floor must be >= 1"
    if fault:
        fault = f"header: {fault}"
    else:
        yield header

    count = len(lines) - 2
    last_tick = -1
    for n in range(count):
        rec = _load(lines[n + 1], f"line {n + 2}")
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
        if fault is None:
            bad = fields and _bad_field(rec, fields)
            if bad:
                fault = f"line {n + 2}: {bad}"
            else:
                yield rec

    footer = _load(lines[-1], "footer")
    if not isinstance(footer, dict) or footer.get("format") != FORMAT_END:
        raise TraceCorrupt("missing trace footer (truncated file?)")
    records = footer.get("records")
    if type(records) is not int or records != count:
        raise TraceCorrupt(f"footer claims {records!r} records, found {count}")
    if fault:
        raise TraceCorrupt(fault)


def parse(lines) -> tuple:
    """(header, records) of a whole trace, checked by `walk`."""
    records = walk(lines)
    header = next(records)
    return header, list(records)
