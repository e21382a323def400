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
of its cost. It encodes the fields that repeat within a run into
fragments of the template once, and returns `again`, which writes
further records sharing them from the rest of the fields alone: an
event's kind, node and truth; a percept's state key; all of a decision
or a veto but the tick; an executed action's action, effect, applied
flag and error; a message's all but its tick and evidence window. The
harness keeps each `again` per run, keyed by those fields. A field of
another type, or a non-finite float, still raises TypeError or
ValueError before any line is appended, at the call and at each
`again`. `TraceWriter.record` writes any other record through `dumps`,
as the header and the footer are written; the harness builds the
payloads of the `reward_sample` and `agent_status` records it passes.

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
# A per-tick line is written from its template behind one guard over the
# ints and floats its `again` takes: each must be of its exact type and
# each float finite (x - x is 0.0 for a finite float, and NaN, which is
# true, for an infinite or NaN one). Its other fields are checked as they
# are encoded. A bool is an int to Python and f"{True}" is not JSON, so
# types are checked exactly. An int too long for str() raises ValueError
# as its line is formatted. `_str` is the encoder's own string writer,
# which raises TypeError on anything but a str.

def _fault(values, types) -> Exception:
    """What a guard raises: TypeError for the first of `values` not of
    the exact type at its place in `types`, or ValueError for the first
    non-finite float."""
    for value, want in zip(values, types):
        if type(value) is not want:
            return TypeError(f"expected {want.__name__}, got {type(value).__name__}")
        if want is float and not math.isfinite(value):  # dumps would write NaN or Infinity
            return ValueError(f"non-finite float {value!r}")
    raise AssertionError(f"a guard rejected {values!r} against {types!r}")


def _int(x) -> str:
    if type(x) is not int:
        raise _fault((x,), (int,))
    return int.__repr__(x)


def _bool(x) -> str:
    if type(x) is not bool:
        raise _fault((x,), (bool,))
    return "true" if x else "false"


def _opt_str(x) -> str:
    return "null" if x is None else _str(x)


def _array(items, encode) -> str:
    """A list or tuple as a JSON array, each item written by `encode`."""
    if type(items) is not list and type(items) is not tuple:
        raise TypeError(f"expected a list or tuple, got {type(items).__name__}")
    return f"[{','.join(map(encode, items))}]"


def _strs(items) -> str:
    return _array(items, _str)


# The types of the ints and floats each per-tick method's `again` takes,
# in its argument order.
_TICK = (int,)
_EVENT = (int, int, int, float)
_PERCEPT = (int, float, int, int, int, int, int, int, int, float, int)
_EXECUTED = (int, int, int, int, int)
_MESSAGE = (int, int, int)


class TraceWriter:
    """Accumulates one run's records; emits header/records/footer.

    Each per-tick method encodes the fields of its record that repeat
    within a run into fragments of its line, and returns `again`, the
    writer of further records of its kind that share those fields: it
    takes the other fields, in the method's order, and writes its line
    from the fragments and them. The method then calls it for its own
    record. Every field is checked before a line is appended, so a call
    of a method or of an `again` that raises leaves `lines` and `seq` as
    they were.
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
              severity: int, load: float, truth_malicious: bool):
        """A world event; `kind` is its label. `again(tick, event_tick,
        severity, load)` shares its kind, node and truth."""
        head = f'{{"event":{{"kind":{_str(kind)},"load":'
        at_node = f',"node":{_str(node)},"severity":'
        tail = f',"truth_malicious":{_bool(truth_malicious)}}},"kind":"event","seq":'

        def again(tick, event_tick, severity, load):
            if (type(tick), type(event_tick), type(severity), type(load)) != _EVENT \
                    or load - load:
                raise _fault((tick, event_tick, severity, load), _EVENT)
            self.lines.append(f'{head}{load!r}{at_node}{severity},"tick":{event_tick}'
                              f'{tail}{self.seq},"tick":{tick}}}')
            self.seq += 1

        again(tick, event_tick, severity, load)
        return again

    def percept(self, tick: int, anomaly: float, state: str,
                ids_alert_count: int, ids_severity_sum: int,
                antimalware_alerts: int, unauthorized_accesses: int,
                honey_touches: int, dummy_process_alerts: int,
                integrity_violations: int, system_load: float,
                window_ticks: int):
        """A percept: the anomaly score, the encoded state key, then the
        fields of its `sensing.FeatureVector` in their order. `again`
        shares its state and takes every other field."""
        at_state = f',"state":{_str(state)},"tick":'

        def again(tick, anomaly, ids_alert_count, ids_severity_sum,
                  antimalware_alerts, unauthorized_accesses, honey_touches,
                  dummy_process_alerts, integrity_violations, system_load,
                  window_ticks):
            if (type(tick), type(anomaly), type(ids_alert_count),
                    type(ids_severity_sum), type(antimalware_alerts),
                    type(unauthorized_accesses), type(honey_touches),
                    type(dummy_process_alerts), type(integrity_violations),
                    type(system_load), type(window_ticks)) != _PERCEPT \
                    or anomaly - anomaly or system_load - system_load:
                raise _fault((tick, anomaly, ids_alert_count, ids_severity_sum,
                              antimalware_alerts, unauthorized_accesses, honey_touches,
                              dummy_process_alerts, integrity_violations, system_load,
                              window_ticks), _PERCEPT)
            self.lines.append(
                f'{{"anomaly":{anomaly!r},"features":{{'
                f'"antimalware_alerts":{antimalware_alerts},'
                f'"dummy_process_alerts":{dummy_process_alerts},'
                f'"honey_touches":{honey_touches},'
                f'"ids_alert_count":{ids_alert_count},'
                f'"ids_severity_sum":{ids_severity_sum},'
                f'"integrity_violations":{integrity_violations},'
                f'"system_load":{system_load!r},'
                f'"unauthorized_accesses":{unauthorized_accesses},'
                f'"window_ticks":{window_ticks}}},'
                f'"kind":"percept","seq":{self.seq}{at_state}{tick}}}')
            self.seq += 1

        again(tick, anomaly, ids_alert_count, ids_severity_sum, antimalware_alerts,
              unauthorized_accesses, honey_touches, dummy_process_alerts,
              integrity_violations, system_load, window_ticks)
        return again

    def decision(self, tick: int, action: str, provenance: str, rejected):
        """A decision; `rejected` lists each rejected stage's
        [stage, reason] label pair in evaluation order. `again(tick)`
        shares every other field."""
        head = (f'{{"action":{_str(action)},"kind":"decision",'
                f'"provenance":{_str(provenance)},"rejected":{_array(rejected, _strs)},'
                f'"seq":')

        def again(tick):
            if type(tick) is not int:
                raise _fault((tick,), _TICK)
            self.lines.append(f'{head}{self.seq},"tick":{tick}}}')
            self.seq += 1

        again(tick)
        return again

    def veto(self, tick: int, action: str, stage: str, reason: str):
        """An arbiter rejection caused by the guardrails. `again(tick)`
        shares every other field."""
        head = f'{{"action":{_str(action)},"kind":"veto","reason":{_str(reason)},"seq":'
        at_stage = f',"stage":{_str(stage)},"tick":'

        def again(tick):
            if type(tick) is not int:
                raise _fault((tick,), _TICK)
            self.lines.append(f'{head}{self.seq}{at_stage}{tick}}}')
            self.seq += 1

        again(tick)
        return again

    def executed_action(self, tick: int, action: str, effect: str,
                        target: str | None, applied: bool, error: str | None,
                        delta_resources: int, available_before: int,
                        pool_used: int, pool_available: int):
        """An executed action and the resource pool after it.
        `again(tick, target, delta_resources, available_before, pool_used,
        pool_available)` shares its action, effect, applied flag and error."""
        head = f'{{"action":{_str(action)},"applied":{_bool(applied)},"available_before":'
        at_effect = (f',"effect":{_str(effect)},"error":{_opt_str(error)},'
                     f'"kind":"executed_action","pool_available":')

        def again(tick, target, delta_resources, available_before, pool_used,
                  pool_available):
            if (type(tick), type(delta_resources), type(available_before),
                    type(pool_used), type(pool_available)) != _EXECUTED:
                raise _fault((tick, delta_resources, available_before, pool_used,
                              pool_available), _EXECUTED)
            self.lines.append(
                f'{head}{available_before},"delta_resources":{delta_resources}'
                f'{at_effect}{pool_available},"pool_used":{pool_used},"seq":{self.seq},'
                f'"target":{"null" if target is None else _str(target)},"tick":{tick}}}')
            self.seq += 1

        again(tick, target, delta_resources, available_before, pool_used, pool_available)
        return again

    def message(self, tick: int, message_kind: str, status: str,
                reason: str | None, classification: str | None,
                evidence_start: int, evidence_end: int, entries,
                action_taken: str | None):
        """A message sent or suppressed; `entries` lists the ints it
        shares. `again(tick, evidence_start, evidence_end)` shares every
        other field."""
        head = (f'{{"action_taken":{_opt_str(action_taken)},'
                f'"classification":{_opt_str(classification)},'
                f'"entries":{_array(entries, _int)},"evidence_end":')
        at_kind = (f',"kind":"message","message_kind":{_str(message_kind)},'
                   f'"reason":{_opt_str(reason)},"seq":')
        at_status = f',"status":{_str(status)},"tick":'

        def again(tick, evidence_start, evidence_end):
            if (type(tick), type(evidence_start), type(evidence_end)) != _MESSAGE:
                raise _fault((tick, evidence_start, evidence_end), _MESSAGE)
            self.lines.append(f'{head}{evidence_end},"evidence_start":{evidence_start}'
                              f'{at_kind}{self.seq}{at_status}{tick}}}')
            self.seq += 1

        again(tick, evidence_start, evidence_end)
        return again

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
