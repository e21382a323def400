"""Line-delimited run traces with byte-exact replay semantics.

One JSON object per line, keys sorted, compact separators: two runs
with the same (config, seed, policy) must produce identical bytes.
A header line pins the schema and the reward parameters; a footer
line carries the record count so truncation is detectable.

`dumps` defines the bytes of a line, and `LAYOUTS` states the layout of
the header and of each record kind once. From it come `TraceWriter`'s
methods for the kinds written every tick, which write from line
templates exactly what `dumps` would write, at a fraction of its cost;
`header` and `payload`, the fields of the lines written through `dumps`;
and `HEADER_FIELDS` and `RECORD_FIELDS`, what `walk` checks.

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
import re
from json.encoder import encode_basestring_ascii as _str

from .errors import TraceCorrupt

FORMAT = "honeysim-trace"
FORMAT_END = "honeysim-trace-end"
VERSION = 1

# One encoder for every line; json.dumps would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: dict) -> str:
    return _ENCODER.encode(obj)


# -- layouts ----------------------------------------------------------------
#
# Each row is (name, type, flags), in the order of a writer method's and
# of `payload`'s arguments. `name` is "object.field" for a field of a
# nested object. `type` is what the writer takes: int, float, bool, str,
# OPT_STR (a str or None) or [type], an array of that type. A "shared"
# field is encoded once into the `again` a templated kind's method
# returns; the others are that `again`'s arguments after the tick. `walk`
# requires a "checked" field on read, where a float may read as an int,
# in row order, the top-level fields first; a nested object is checked
# whole, holding exactly its fields, or not at all.

OPT_STR = (str, type(None))

LAYOUTS = {
    "header": (
        ("seed", int, ""),
        ("episode_ticks", int, "checked"),
        ("window", int, "checked"),
        ("policy", str, ""),
        ("reward.a", float, "checked"),
        ("reward.b", float, "checked"),
        ("reward.c", float, "checked"),
        ("reward.floor", int, "checked"),
        ("config_digest", str, ""),
        # the SHA-256 of a named pattern table's entries; absent without one
        ("pattern_table_digest", OPT_STR, ""),
    ),
    "event": (
        ("event.tick", int, "checked"),
        ("event.kind", str, "shared checked"),
        ("event.node", str, "shared checked"),
        ("event.severity", int, "checked"),
        ("event.load", float, "checked"),
        ("event.truth_malicious", bool, "shared checked"),
    ),
    "percept": (
        ("anomaly", float, ""),
        ("state", str, "shared"),
        # the fields of sensing.FeatureVector, in its order
        ("features.ids_alert_count", int, ""),
        ("features.ids_severity_sum", int, ""),
        ("features.antimalware_alerts", int, ""),
        ("features.unauthorized_accesses", int, ""),
        ("features.honey_touches", int, ""),
        ("features.dummy_process_alerts", int, ""),
        ("features.integrity_violations", int, ""),
        ("features.system_load", float, ""),
        ("features.window_ticks", int, ""),
    ),
    "decision": (
        ("action", str, "shared"),
        ("provenance", str, "shared checked"),
        # each rejected stage's [stage, reason] pair, in evaluation order
        ("rejected", [[str]], "shared"),
    ),
    "veto": (
        ("action", str, "shared"),
        ("stage", str, "shared"),
        ("reason", str, "shared checked"),
    ),
    "executed_action": (
        ("action", str, "shared checked"),
        ("effect", str, "shared"),
        ("target", OPT_STR, ""),
        ("applied", bool, "shared checked"),
        ("error", OPT_STR, "shared checked"),
        ("delta_resources", int, "checked"),
        ("available_before", int, "checked"),
        ("pool_used", int, "checked"),
        ("pool_available", int, "checked"),
    ),
    "message": (
        ("message_kind", str, "shared checked"),
        ("status", str, "shared checked"),
        ("reason", OPT_STR, "shared"),
        ("classification", OPT_STR, "shared checked"),
        ("evidence_start", int, "checked"),
        ("evidence_end", int, "checked"),
        ("entries", [int], "shared"),
        ("action_taken", OPT_STR, "shared"),
    ),
    "reward_sample": (
        ("value", float, "checked"),
        ("terms.honey", float, "checked"),
        ("terms.resource", float, "checked"),
        ("terms.cfh", float, "checked"),
        # the fields of agent.RewardInputs, in its order
        ("inputs.honey_events", int, "checked"),
        ("inputs.security_events", int, "checked"),
        ("inputs.delta_resources", int, "checked"),
        ("inputs.total_resources", int, "checked"),
        ("inputs.justified_cfh", int, "checked"),
        ("inputs.cw", int, "checked"),
        ("credited_action", OPT_STR, "checked"),
    ),
    "agent_status": (
        ("status", str, "checked"),
        ("reason", str, ""),
    ),
}

# Each row's (object, field) slot, by kind; the object is "" for a
# top-level field.
_SLOTS = {kind: [name.rpartition(".")[::2] for name, _, _ in rows]
          for kind, rows in LAYOUTS.items()}


def _nesting(slots):
    """The function of one value per slot that returns a dict holding
    each value in its slot, in slot order, compiled to one dict display."""
    top = {}  # top-level key -> a value's name, or a nested object's {leaf: name}
    for n, (group, leaf) in enumerate(slots):
        if group:
            top.setdefault(group, {})[leaf] = f"v{n}"
        else:
            top[leaf] = f"v{n}"

    def display(fields: dict) -> str:
        return "{" + ", ".join(
            f"{key!r}: {display(value) if type(value) is dict else value}"
            for key, value in fields.items()) + "}"
    return eval(f"lambda {', '.join(f'v{n}' for n in range(len(slots)))}: {display(top)}")


_PAYLOADS = {kind: _nesting(slots) for kind, slots in _SLOTS.items()}


def payload(kind: str, *values) -> dict:
    """The fields of a `kind` line holding `values`, in its rows' order."""
    return _PAYLOADS[kind](*values)


def header(*values) -> dict:
    """`payload("header", *values)` less each top-level field given as None."""
    return {name: value for name, value in payload("header", *values).items()
            if value is not None}


# -- value encoders ---------------------------------------------------------
#
# Types are checked exactly, since a bool is an int to Python and
# f"{True}" is not JSON. A templated line's `again` checks the ints and
# floats it takes in one guard, where x - x is 0.0 for a finite float and
# NaN, which is true, for an infinite or NaN one; an int too long for
# str() raises ValueError as the line is formatted. `_str` is the
# encoder's own string writer, which raises TypeError on anything but a str.

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


def _check(value, type_):
    """`value` if it is of the layout type `type_` (int, float, bool or an
    array type), a float finite and an array a list or tuple; else the
    TypeError or ValueError `_fault` gives."""
    if type(type_) is list:
        if type(value) is not list and type(value) is not tuple:
            raise TypeError(f"expected a list or tuple, got {type(value).__name__}")
    elif type(value) is not type_ or type_ is float and value - value:
        raise _fault((value,), (type_,))
    return value


def _encoder(type_):
    """The JSON writer of a value of layout type `type_`; TypeError or ValueError on any other."""
    if type_ is str:
        return _str
    if type_ == OPT_STR:
        return lambda value: "null" if value is None else _str(value)
    if type(type_) is list:
        item = _encoder(type_[0])
        return lambda value: f"[{','.join(map(item, _check(value, type_)))}]"
    if type_ is bool:
        return lambda value: "true" if _check(value, bool) else "false"
    return lambda value: repr(_check(value, type_))  # an int's or float's repr is its JSON


# -- templated writers ------------------------------------------------------

def _template(kind: str):
    """The TraceWriter method of a templated kind, compiled from its layout.

    `dumps` writes the record with a marker for each value, which fixes
    the key order and nesting. The method encodes each run of JSON text and
    shared fields between two per-record values once, into a fragment;
    `again` formats the line from the fragments and the per-record values.
    A nested field's argument is its path joined by "_".
    """
    args, types, shared = [], {"tick": int, "self.seq": int}, set()
    for name, type_, flags in LAYOUTS[kind]:
        args.append(name.replace(".", "_"))
        types[args[-1]] = type_
        if "shared" in flags.split():
            shared.add(args[-1])
    each = [arg for arg in args if arg not in shared]
    guarded = ["tick"] + [arg for arg in each if types[arg] in (int, float)]
    scope = {"__name__": __name__, "_fault": _fault,
             "_types": tuple(types[arg] for arg in guarded),
             **{f"_{arg}": _encoder(types[arg]) for arg in args}}

    marked = {"kind": kind, "seq": "\0self.seq", "tick": "\0tick",
              **payload(kind, *(f"\0{arg}" for arg in args))}
    pieces = re.split(r'"\\u0000([\w.]+)"',  # JSON text as f-string source, and args
                      dumps(marked).replace("{", "{{").replace("}", "}}"))
    setup, line, fragment, held = [], [], pieces[0], False
    for arg, text in zip(pieces[1::2] + [None], pieces[2::2] + [""]):
        if arg in shared:
            fragment, held = f"{fragment}{{_{arg}({arg})}}{text}", True
            continue
        if held:
            setup.append(f"f{len(setup)} = f'{fragment}'")
            fragment = f"{{f{len(setup) - 1}}}"
        line.append(fragment)
        if arg is not None:  # an int's or float's repr is its JSON
            line.append(f"{{{arg}!r}}" if types[arg] in (int, float) else f"{{_{arg}({arg})}}")
        fragment, held = text, False

    each_args = "".join(f", {arg}" for arg in each)
    source = "\n".join([
        f"def {kind}(self, tick, {', '.join(args)}):",
        *(f"    {statement}" for statement in setup),
        f"    def again(tick{each_args}):",
        f"        if {' or '.join(f'type({arg}) is not {types[arg].__name__}' for arg in guarded)}"
        + "".join(f" or {arg} - {arg}" for arg in guarded if types[arg] is float) + ":",
        f"            raise _fault(({''.join(f'{arg}, ' for arg in guarded)}), _types)",
        f"        self.lines.append(f'{''.join(line)}')",
        "        self.seq += 1",
        f"    again(tick{each_args})",
        "    return again"])
    exec(source, scope)
    method = scope[kind]
    method.__qualname__ = f"TraceWriter.{kind}"
    method.__doc__ = (f"Write one {kind} record; return again(tick{each_args}), the "
                      f"writer of further ones that share its {', '.join(sorted(shared))}.")
    return method


class TraceWriter:
    """Accumulates one run's records; emits header/records/footer.

    Besides `record`, which writes any record through `dumps`, it has a
    method per templated kind (see `_template`), which writes a record and
    returns `again`, the writer of further records sharing its shared
    fields. A field of another type, or a non-finite float, raises
    TypeError or ValueError before any line is appended, so a call of a
    method or of an `again` that raises leaves `lines` and `seq` as they
    were.
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

    def finish(self) -> list:
        self.lines.append(dumps({"format": FORMAT_END, "records": self.seq}))
        return self.lines


# The kinds written every tick, which TraceWriter writes from templates.
TEMPLATED = ("event", "percept", "decision", "veto", "executed_action", "message")
for _kind in TEMPLATED:
    setattr(TraceWriter, _kind, _template(_kind))


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


# What walk requires of the checked fields. An int must be exact as a
# double and a float finite, so replay's arithmetic on them cannot overflow
# or turn NaN; a scenario's int fields are held to the same bound at load.
MAX_EXACT_INT = 2**53
_READS = {int: (int,), float: (int, float), bool: (bool,), str: (str,), OPT_STR: OPT_STR}


def _checks(kind: str) -> dict:
    """The types each checked field of `kind` may read as, in its slot."""
    checked = sorted(((slot, _READS[type_]) for slot, (_, type_, flags)
                      in zip(_SLOTS[kind], LAYOUTS[kind]) if "checked" in flags.split()),
                     key=lambda check: check[0][0] != "")
    return _nesting([slot for slot, _ in checked])(*(reads for _, reads in checked))


HEADER_FIELDS = _checks("header")
RECORD_FIELDS = {kind: _checks(kind) for kind in LAYOUTS if kind != "header"}


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
