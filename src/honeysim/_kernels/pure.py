"""Pure-Python kernels: RNG stream, per-tick world step, window tally.

This is the only kernel implementation; honeysim._kernels re-exports it.

Determinism contract:
  * Stream is splitmix64: output k (from 1) of a stream seeded s is
    mix64 of s + (k - 1) * _GOLDEN. All draws are ordered and counted; a
    given world state consumes an identical draw sequence on every run.
  * A Stream computes its outputs a block of BLOCK at a time, and hands
    them out one per draw in order; see Stream. The values and their
    order are those of the one-at-a-time generator.
  * uniform() maps the top 53 bits to [0, 1); randrange(n) is plain
    modulo (bias is irrelevant at simulation scale, and changing it
    would change every trace).
  * step() emits events in a fixed subsystem order: benign traffic,
    campaigns sorted by index, then the detection sweep by node index.
"""

import struct
from itertools import chain

from . import codes

_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / 9007199254740992.0

# splitmix64's increment, and the finalizer's three xor-shifts and two
# multipliers. mix64 and _blocks both read them from here.
_GOLDEN = 0x9E3779B97F4A7C15
_SHIFT_1, _MULT_1 = 30, 0xBF58476D1CE4E5B9
_SHIFT_2, _MULT_2 = 27, 0x94D049BB133111EB
_SHIFT_3 = 31


def mix64(x):
    """splitmix64 finalizer; also used to derive per-subsystem seeds."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> _SHIFT_1)) * _MULT_1) & _MASK
    z = ((z ^ (z >> _SHIFT_2)) * _MULT_2) & _MASK
    return z ^ (z >> _SHIFT_3)


# The lane layout: a block holds BLOCK outputs in the 128-bit lanes of one
# int, output j (from 0) in bits 128j to 128j + 63. Each lane holds a
# 64-bit value, and a 64-bit value times a 64-bit multiplier fits in 128
# bits, so no lane carries into the next; the high half of each lane is
# cleared after each multiply and after each xor-shift, which shifts the
# next lane's low bits into it. The last xor-shift is not masked:
# unpacking reads only the low 64 bits of each lane.
BLOCK = 256
_LANE_BYTES = 16


def _lanes(values):
    """The int whose lane j holds values[j]."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little") for v in values),
                          "little")


_ONES = _lanes([1] * BLOCK)
_LANES = _lanes([_MASK] * BLOCK)
_STEPS = _lanes([k * _GOLDEN for k in range(1, BLOCK + 1)])
_UNPACK = struct.Struct("<" + "Q8x" * BLOCK).unpack


def _blocks(state):
    """Tuples of BLOCK consecutive splitmix64 outputs of the stream whose
    state is `state`, one tuple per block, without end."""
    while True:
        z = (state * _ONES + _STEPS) & _LANES
        z = (((z ^ (z >> _SHIFT_1)) & _LANES) * _MULT_1) & _LANES
        z = (((z ^ (z >> _SHIFT_2)) & _LANES) * _MULT_2) & _LANES
        yield _UNPACK((z ^ (z >> _SHIFT_3)).to_bytes(BLOCK * _LANE_BYTES, "little"))
        state = (state + BLOCK * _GOLDEN) & _MASK


class Stream:
    """A single deterministic pseudo-random stream (splitmix64).

    next_u64 hands out the outputs of _blocks one at a time, in order.
    Each value is exact: lane j of a block starts as the block's state
    plus (j + 1) * _GOLDEN, masked to 64 bits, and then takes the same
    shifts, multipliers and 64-bit masks as mix64, with no lane spilling
    into another (see the lane layout above _blocks). The lanes are packed
    and unpacked little-endian, so no value depends on the host's byte
    order. Blocks are made lazily, on the first draw that needs one, so a
    stream holds at most one partly used block and a stream that is never
    drawn from computes nothing.
    """

    __slots__ = ("next_u64",)

    def __init__(self, state):
        self.next_u64 = chain.from_iterable(_blocks(state & _MASK)).__next__

    def uniform(self):
        return (self.next_u64() >> 11) * _INV_2_53

    def randrange(self, n):
        return self.next_u64() % n

    def below(self, p):
        return (self.next_u64() >> 11) * _INV_2_53 < p


class CoreWorld:
    """Mutable world core: node arrays, campaigns, streams, clock.

    Raw events are (kind_code, node_index, severity, load, truth) tuples;
    the owning WorldState wraps them with tick numbers and node ids.
    The world and the harness read the parallel node arrays (kinds,
    statuses, addresses, decoys, integrity) and the campaign arrays
    directly; a change that must keep a rule or keep the arrays in step
    goes through a method.

    Two facts derived from the node arrays are kept rather than rescanned
    each tick: `serving`, the indices of real nodes that are Running or
    Compromised in index order, and `honeypots_running`, the number of
    Running honeypots. set_status, add_node and remove_node recount both;
    they are the only writers that can change either. _attack's write of
    Running to Compromised keeps a real node serving and never touches a
    honeypot.
    """

    def __init__(self, kinds, statuses, addresses, decoys, integrity,
                 next_token, campaign_intensity, campaign_activation,
                 campaign_known, campaign_seeds, benign_seed, detect_seed,
                 params):
        self.kinds = list(kinds)
        self.statuses = list(statuses)
        self.addresses = list(addresses)
        self.decoys = list(decoys)
        self.integrity = list(integrity)
        self.progress = [0] * len(self.kinds)
        self.owners = [-1] * len(self.kinds)
        self.next_token = next_token
        self.c_intensity = list(campaign_intensity)
        self.c_activation = list(campaign_activation)
        self.c_known = [set(k) for k in campaign_known]
        self.c_streams = [Stream(s) for s in campaign_seeds]
        self.benign = Stream(benign_seed)
        self.detect = Stream(detect_seed)
        (self.p_detect, self.p_decoy_touch, self.p_dummy_process,
         self.p_integrity_alert, self.p_antimalware_alert,
         self.p_false_ids, self.p_false_antimalware,
         self.p_false_unauthorized, self.p_logline,
         self.load_noise, self.hits_to_compromise) = params
        self.inbound_restricted = False
        self.clock = 0
        self._recount()

    # -- mutators that keep a rule or keep the node arrays in step --------

    def _recount(self):
        kinds = self.kinds
        statuses = self.statuses
        serving = []
        honeypots = 0
        for i in range(len(kinds)):
            status = statuses[i]
            if kinds[i] == codes.HONEYPOT:
                if status == codes.RUNNING:
                    honeypots += 1
            elif status == codes.RUNNING or status == codes.COMPROMISED:
                serving.append(i)
        self.serving = serving
        self.honeypots_running = honeypots

    def set_status(self, i, status):
        # Leaving Compromised always clears the attacker's foothold.
        if self.statuses[i] == codes.COMPROMISED and status != codes.COMPROMISED:
            self.owners[i] = -1
        self.statuses[i] = status
        self._recount()

    def rotate_address(self, i):
        token = self.next_token
        self.next_token += 1
        self.addresses[i] = token
        return token

    def add_node(self, kind, status, decoys):
        token = self.next_token
        self.next_token += 1
        self.kinds.append(kind)
        self.statuses.append(status)
        self.addresses.append(token)
        self.decoys.append(decoys)
        self.integrity.append(1)
        self.progress.append(0)
        self.owners.append(-1)
        self._recount()
        return len(self.kinds) - 1

    def remove_node(self, i):
        # Later nodes shift down one index and keep their order, so every
        # index-ordered scan visits the survivors in the same sequence.
        del self.kinds[i]
        del self.statuses[i]
        del self.addresses[i]
        del self.decoys[i]
        del self.integrity[i]
        del self.progress[i]
        del self.owners[i]
        self._recount()

    # -- per-tick step ------------------------------------------------------

    def _derive_phase(self, ci):
        if self.clock < self.c_activation[ci]:
            return codes.DORMANT
        # A node has an owner only while it is Compromised.
        if ci in self.owners:
            return codes.LATERAL
        known = self.c_known[ci]
        statuses = self.statuses
        addresses = self.addresses
        for i in range(len(statuses)):
            if statuses[i] == codes.RUNNING and addresses[i] in known:
                return codes.EXPLOIT
        return codes.RECON

    def _discover(self, ci, stream):
        candidates = [i for i in range(len(self.statuses))
                      if self.statuses[i] == codes.RUNNING]
        if not candidates:
            return
        i = candidates[stream.randrange(len(candidates))]
        self.c_known[ci].add(self.addresses[i])

    def _attack(self, ci, stream, events):
        known = self.c_known[ci]
        eligible = [i for i in range(len(self.statuses))
                    if self.statuses[i] == codes.RUNNING
                    and self.addresses[i] in known]
        if not eligible:
            return
        i = eligible[stream.randrange(len(eligible))]
        if self.kinds[i] == codes.HONEYPOT:
            events.append((codes.HONEY_TOUCH, i, 0, 0.0, True))
            if self.decoys[i] > 0 and stream.below(self.p_decoy_touch):
                events.append((codes.DUMMY_FILE_ACCESS, i, 0, 0.0, True))
            if stream.below(self.p_dummy_process):
                events.append((codes.DUMMY_PROCESS_ALERT, i, 0, 0.0, True))
        else:
            if stream.below(self.p_detect):
                severity = 1 + stream.randrange(5)
                events.append((codes.IDS_ALERT, i, severity, 0.0, True))
            else:
                self.progress[i] += 1
                if self.progress[i] >= self.hits_to_compromise:
                    self.statuses[i] = codes.COMPROMISED
                    self.integrity[i] = 0
                    self.owners[i] = ci
                    events.append((codes.UNAUTHORIZED_ACCESS, i, 0, 0.0, True))
            if self.decoys[i] > 0 and stream.below(self.p_decoy_touch):
                events.append((codes.DUMMY_FILE_ACCESS, i, 0, 0.0, True))

    def step(self, used, capacity):
        """Advance one tick; returns raw events in deterministic order."""
        events = []
        n = len(self.kinds)

        # Benign traffic lands on real serving nodes only; honeypots by
        # construction receive no legitimate traffic.
        serving = self.serving
        benign = self.benign
        if serving:
            base = used / capacity if capacity > 0 else 0.0
            load = base + (benign.uniform() - 0.5) * self.load_noise
            if load < 0.0:
                load = 0.0
            elif load > 1.0:
                load = 1.0
            i = serving[benign.randrange(len(serving))]
            events.append((codes.LOAD_SAMPLE, i, 0, load, False))
            if benign.below(self.p_logline):
                i = serving[benign.randrange(len(serving))]
                events.append((codes.LOG_LINE, i, 0, 0.0, False))
            if benign.below(self.p_false_ids):
                i = serving[benign.randrange(len(serving))]
                severity = 1 + benign.randrange(5)
                events.append((codes.IDS_ALERT, i, severity, 0.0, False))
            if benign.below(self.p_false_antimalware):
                i = serving[benign.randrange(len(serving))]
                events.append((codes.ANTI_MALWARE_ALERT, i, 0, 0.0, False))
            if benign.below(self.p_false_unauthorized):
                i = serving[benign.randrange(len(serving))]
                events.append((codes.UNAUTHORIZED_ACCESS, i, 0, 0.0, False))

        for ci in range(len(self.c_intensity)):
            phase = self._derive_phase(ci)
            if phase == codes.DORMANT:
                continue
            stream = self.c_streams[ci]
            if not stream.below(self.c_intensity[ci]):
                continue
            if phase == codes.RECON:
                if not self.inbound_restricted:
                    self._discover(ci, stream)
            elif phase == codes.EXPLOIT:
                self._attack(ci, stream, events)
            else:  # LATERAL: internal recon is not blocked by the perimeter
                if stream.uniform() < 0.5:
                    self._discover(ci, stream)
                else:
                    self._attack(ci, stream, events)

        detect = self.detect
        for i in range(n):
            status = self.statuses[i]
            if status == codes.STOPPED or status == codes.QUARANTINED:
                continue
            if not self.integrity[i] and detect.below(self.p_integrity_alert):
                events.append((codes.FILE_INTEGRITY_VIOLATION, i, 0, 0.0, True))
            if status == codes.COMPROMISED and detect.below(self.p_antimalware_alert):
                events.append((codes.ANTI_MALWARE_ALERT, i, 0, 0.0, True))

        self.clock += 1
        return events


def tally(events):
    """Single pass over WorldEvent tuples -> feature counts.

    Returns (ids_count, ids_severity_sum, antimalware, unauthorized,
    honey_touches, dummy_process_alerts, integrity_violations,
    load_sum, load_count). Events are (tick, kind, node, severity,
    load, truth) tuples; only positions 1, 3 and 4 are read.
    """
    ids_count = 0
    sev_sum = 0
    antimalware = 0
    unauthorized = 0
    honey = 0
    dummy_proc = 0
    integrity = 0
    load_sum = 0.0
    load_count = 0
    for ev in events:
        kind = ev[1]
        if kind == codes.IDS_ALERT:
            ids_count += 1
            sev_sum += ev[3]
        elif kind == codes.ANTI_MALWARE_ALERT:
            antimalware += 1
        elif kind == codes.UNAUTHORIZED_ACCESS:
            unauthorized += 1
        elif kind == codes.HONEY_TOUCH or kind == codes.DUMMY_FILE_ACCESS:
            honey += 1
        elif kind == codes.DUMMY_PROCESS_ALERT:
            dummy_proc += 1
        elif kind == codes.FILE_INTEGRITY_VIOLATION:
            integrity += 1
        elif kind == codes.LOAD_SAMPLE:
            load_sum += ev[4]
            load_count += 1
    return (ids_count, sev_sum, antimalware, unauthorized, honey,
            dummy_proc, integrity, load_sum, load_count)
