# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernels: mirrors _kernels/pure.py line for line.

Any behavioural edit must be made in both backends together; the
parity suite asserts byte-identical event streams. Integer codes are
C constants below and must match _kernels/codes.py.
"""

from libcpp.vector cimport vector

cdef unsigned long long MASK = 0xFFFFFFFFFFFFFFFFULL
cdef unsigned long long GOLDEN = 0x9E3779B97F4A7C15ULL
cdef double INV_2_53 = 1.0 / 9007199254740992.0

# node kinds / statuses / phases (see codes.py)
cdef int K_HONEYPOT = 3
cdef int S_RUNNING = 0
cdef int S_STOPPED = 1
cdef int S_COMPROMISED = 2
cdef int S_QUARANTINED = 3
cdef int P_RECON = 0
cdef int P_EXPLOIT = 1
cdef int P_LATERAL = 2
cdef int P_DORMANT = 3

# event kinds
cdef int E_IDS_ALERT = 0
cdef int E_ANTI_MALWARE_ALERT = 1
cdef int E_UNAUTHORIZED_ACCESS = 2
cdef int E_HONEY_TOUCH = 3
cdef int E_DUMMY_FILE_ACCESS = 4
cdef int E_DUMMY_PROCESS_ALERT = 5
cdef int E_FILE_INTEGRITY_VIOLATION = 6
cdef int E_LOAD_SAMPLE = 7
cdef int E_LOG_LINE = 8

IMPL = "compiled"


cdef inline unsigned long long _mix(unsigned long long z) nogil:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL
    return z ^ (z >> 31)


def mix64(x):
    """splitmix64 finalizer; also used to derive per-subsystem seeds."""
    cdef unsigned long long z = <unsigned long long>x
    return _mix(z + GOLDEN)


cdef class Stream:
    """A single deterministic pseudo-random stream (splitmix64)."""

    cdef public unsigned long long state

    def __init__(self, state):
        self.state = <unsigned long long>state

    cdef inline unsigned long long _next(self) nogil:
        self.state += GOLDEN
        return _mix(self.state)

    cdef inline double _uniform(self) nogil:
        return <double>(self._next() >> 11) * INV_2_53

    cdef inline bint _below(self, double p) nogil:
        return self._uniform() < p

    cdef inline long _randrange(self, long n) nogil:
        return <long>(self._next() % <unsigned long long>n)

    def next_u64(self):
        return self._next()

    def uniform(self):
        return self._uniform()

    def randrange(self, n):
        return self._randrange(<long>n)

    def below(self, p):
        return self._below(<double>p)


cdef class CoreWorld:
    """Mutable world core: node arrays, campaigns, streams, clock."""

    cdef vector[int] kinds
    cdef vector[int] statuses
    cdef vector[long long] addresses
    cdef vector[int] decoys
    cdef vector[int] integrity
    cdef vector[int] progress
    cdef vector[int] owners
    cdef public long long next_token
    cdef vector[double] c_intensity
    cdef vector[long long] c_activation
    cdef list c_known
    cdef list c_phase
    cdef list c_streams
    cdef Stream benign
    cdef Stream detect
    cdef double p_detect, p_decoy_touch, p_dummy_process
    cdef double p_integrity_alert, p_antimalware_alert
    cdef double p_false_ids, p_false_antimalware, p_false_unauthorized
    cdef double p_logline, load_noise
    cdef int hits_to_compromise
    cdef public bint inbound_restricted
    cdef public bint outbound_restricted
    cdef public long long clock

    def __init__(self, kinds, statuses, addresses, decoys, integrity,
                 next_token, campaign_intensity, campaign_activation,
                 campaign_known, campaign_seeds, benign_seed, detect_seed,
                 params):
        cdef long v
        for v in kinds:
            self.kinds.push_back(<int>v)
        for v in statuses:
            self.statuses.push_back(<int>v)
        for v in addresses:
            self.addresses.push_back(<long long>v)
        for v in decoys:
            self.decoys.push_back(<int>v)
        for v in integrity:
            self.integrity.push_back(<int>v)
        cdef size_t i
        for i in range(self.kinds.size()):
            self.progress.push_back(0)
            self.owners.push_back(-1)
        self.next_token = next_token
        for x in campaign_intensity:
            self.c_intensity.push_back(<double>x)
        for v in campaign_activation:
            self.c_activation.push_back(<long long>v)
        self.c_known = [set(k) for k in campaign_known]
        self.c_phase = [P_DORMANT] * len(campaign_known)
        self.c_streams = [Stream(s) for s in campaign_seeds]
        self.benign = Stream(benign_seed)
        self.detect = Stream(detect_seed)
        (self.p_detect, self.p_decoy_touch, self.p_dummy_process,
         self.p_integrity_alert, self.p_antimalware_alert,
         self.p_false_ids, self.p_false_antimalware,
         self.p_false_unauthorized, self.p_logline,
         self.load_noise, self.hits_to_compromise) = params
        self.inbound_restricted = False
        self.outbound_restricted = False
        self.clock = 0

    # -- accessors used by apply_action and the harness -------------------

    def n_nodes(self):
        return self.kinds.size()

    def kind(self, i):
        return self.kinds[<size_t>i]

    def status(self, i):
        return self.statuses[<size_t>i]

    def set_status(self, i, status):
        cdef size_t idx = <size_t>i
        cdef int new_status = <int>status
        # Leaving Compromised always clears the attacker's foothold.
        if self.statuses[idx] == S_COMPROMISED and new_status != S_COMPROMISED:
            self.owners[idx] = -1
        self.statuses[idx] = new_status

    def address(self, i):
        return self.addresses[<size_t>i]

    def rotate_address(self, i):
        cdef long long token = self.next_token
        self.next_token += 1
        self.addresses[<size_t>i] = token
        return token

    def decoy_count(self, i):
        return self.decoys[<size_t>i]

    def add_decoys(self, i, n):
        self.decoys[<size_t>i] += <int>n

    def integrity_ok(self, i):
        return self.integrity[<size_t>i] != 0

    def set_integrity(self, i, ok):
        self.integrity[<size_t>i] = 1 if ok else 0

    def reset_progress(self, i):
        self.progress[<size_t>i] = 0

    def add_node(self, kind, status, decoys):
        cdef long long token = self.next_token
        self.next_token += 1
        self.kinds.push_back(<int>kind)
        self.statuses.push_back(<int>status)
        self.addresses.push_back(token)
        self.decoys.push_back(<int>decoys)
        self.integrity.push_back(1)
        self.progress.push_back(0)
        self.owners.push_back(-1)
        return self.kinds.size() - 1

    def remove_node(self, i):
        # Later nodes shift down one index and keep their order, so every
        # index-ordered scan visits the survivors in the same sequence.
        cdef size_t idx = <size_t>i
        if idx >= self.kinds.size():
            raise IndexError("node index out of range")
        self.kinds.erase(self.kinds.begin() + idx)
        self.statuses.erase(self.statuses.begin() + idx)
        self.addresses.erase(self.addresses.begin() + idx)
        self.decoys.erase(self.decoys.begin() + idx)
        self.integrity.erase(self.integrity.begin() + idx)
        self.progress.erase(self.progress.begin() + idx)
        self.owners.erase(self.owners.begin() + idx)

    def campaign_phase(self, ci):
        return self.c_phase[ci]

    def campaign_known_tokens(self, ci):
        return frozenset(self.c_known[ci])

    def set_inbound_restricted(self, flag):
        self.inbound_restricted = bool(flag)

    def set_outbound_restricted(self, flag):
        self.outbound_restricted = bool(flag)

    # -- per-tick step ------------------------------------------------------

    cdef int _derive_phase(self, int ci):
        if self.clock < self.c_activation[<size_t>ci]:
            return P_DORMANT
        cdef size_t i
        cdef size_t n = self.statuses.size()
        for i in range(n):
            if self.statuses[i] == S_COMPROMISED and self.owners[i] == ci:
                return P_LATERAL
        known = self.c_known[ci]
        for i in range(n):
            if self.statuses[i] == S_RUNNING and self.addresses[i] in known:
                return P_EXPLOIT
        return P_RECON

    cdef void _discover(self, int ci, Stream stream):
        cdef vector[int] candidates
        cdef size_t i
        for i in range(self.statuses.size()):
            if self.statuses[i] == S_RUNNING:
                candidates.push_back(<int>i)
        if candidates.size() == 0:
            return
        cdef long pick = stream._randrange(<long>candidates.size())
        self.c_known[ci].add(self.addresses[<size_t>candidates[<size_t>pick]])

    cdef void _attack(self, int ci, Stream stream, list events):
        known = self.c_known[ci]
        cdef vector[int] eligible
        cdef size_t i
        for i in range(self.statuses.size()):
            if self.statuses[i] == S_RUNNING and self.addresses[i] in known:
                eligible.push_back(<int>i)
        if eligible.size() == 0:
            return
        cdef long pick = stream._randrange(<long>eligible.size())
        cdef int node = eligible[<size_t>pick]
        cdef long severity
        if self.kinds[<size_t>node] == K_HONEYPOT:
            events.append((E_HONEY_TOUCH, node, 0, 0.0, True))
            if self.decoys[<size_t>node] > 0 and stream._below(self.p_decoy_touch):
                events.append((E_DUMMY_FILE_ACCESS, node, 0, 0.0, True))
            if stream._below(self.p_dummy_process):
                events.append((E_DUMMY_PROCESS_ALERT, node, 0, 0.0, True))
        else:
            if stream._below(self.p_detect):
                severity = 1 + stream._randrange(5)
                events.append((E_IDS_ALERT, node, severity, 0.0, True))
            else:
                self.progress[<size_t>node] += 1
                if self.progress[<size_t>node] >= self.hits_to_compromise:
                    self.statuses[<size_t>node] = S_COMPROMISED
                    self.integrity[<size_t>node] = 0
                    self.owners[<size_t>node] = ci
                    events.append((E_UNAUTHORIZED_ACCESS, node, 0, 0.0, True))
            if self.decoys[<size_t>node] > 0 and stream._below(self.p_decoy_touch):
                events.append((E_DUMMY_FILE_ACCESS, node, 0, 0.0, True))

    def step(self, used, capacity):
        """Advance one tick; returns raw events in deterministic order."""
        cdef list events = []
        cdef size_t n = self.kinds.size()
        cdef vector[int] serving
        cdef size_t i
        cdef int status

        for i in range(n):
            status = self.statuses[i]
            if self.kinds[i] != K_HONEYPOT and (
                    status == S_RUNNING or status == S_COMPROMISED):
                serving.push_back(<int>i)

        cdef Stream benign = self.benign
        cdef double base, load
        cdef long long c_used = <long long>used
        cdef long long c_capacity = <long long>capacity
        cdef int node
        cdef long severity
        if serving.size() > 0:
            base = (<double>c_used) / (<double>c_capacity) if c_capacity > 0 else 0.0
            load = base + (benign._uniform() - 0.5) * self.load_noise
            if load < 0.0:
                load = 0.0
            elif load > 1.0:
                load = 1.0
            node = serving[<size_t>benign._randrange(<long>serving.size())]
            events.append((E_LOAD_SAMPLE, node, 0, load, False))
            if benign._below(self.p_logline):
                node = serving[<size_t>benign._randrange(<long>serving.size())]
                events.append((E_LOG_LINE, node, 0, 0.0, False))
            if benign._below(self.p_false_ids):
                node = serving[<size_t>benign._randrange(<long>serving.size())]
                severity = 1 + benign._randrange(5)
                events.append((E_IDS_ALERT, node, severity, 0.0, False))
            if benign._below(self.p_false_antimalware):
                node = serving[<size_t>benign._randrange(<long>serving.size())]
                events.append((E_ANTI_MALWARE_ALERT, node, 0, 0.0, False))
            if benign._below(self.p_false_unauthorized):
                node = serving[<size_t>benign._randrange(<long>serving.size())]
                events.append((E_UNAUTHORIZED_ACCESS, node, 0, 0.0, False))

        cdef int ci
        cdef int phase
        cdef Stream stream
        for ci in range(<int>self.c_intensity.size()):
            phase = self._derive_phase(ci)
            self.c_phase[ci] = phase
            if phase == P_DORMANT:
                continue
            stream = <Stream>self.c_streams[ci]
            if not stream._below(self.c_intensity[<size_t>ci]):
                continue
            if phase == P_RECON:
                if not self.inbound_restricted:
                    self._discover(ci, stream)
            elif phase == P_EXPLOIT:
                self._attack(ci, stream, events)
            else:  # LATERAL: internal recon is not blocked by the perimeter
                if stream._uniform() < 0.5:
                    self._discover(ci, stream)
                else:
                    self._attack(ci, stream, events)

        cdef Stream detect = self.detect
        for i in range(n):
            status = self.statuses[i]
            if status == S_STOPPED or status == S_QUARANTINED:
                continue
            if self.integrity[i] == 0 and detect._below(self.p_integrity_alert):
                events.append((E_FILE_INTEGRITY_VIOLATION, <int>i, 0, 0.0, True))
            if status == S_COMPROMISED and detect._below(self.p_antimalware_alert):
                events.append((E_ANTI_MALWARE_ALERT, <int>i, 0, 0.0, True))

        self.clock += 1
        return events


def tally(events):
    """Single pass over WorldEvent tuples -> feature counts."""
    cdef long ids_count = 0, sev_sum = 0, antimalware = 0, unauthorized = 0
    cdef long honey = 0, dummy_proc = 0, integrity = 0, load_count = 0
    cdef double load_sum = 0.0
    cdef long kind
    for ev in events:
        kind = ev[1]
        if kind == E_IDS_ALERT:
            ids_count += 1
            sev_sum += <long>ev[3]
        elif kind == E_ANTI_MALWARE_ALERT:
            antimalware += 1
        elif kind == E_UNAUTHORIZED_ACCESS:
            unauthorized += 1
        elif kind == E_HONEY_TOUCH or kind == E_DUMMY_FILE_ACCESS:
            honey += 1
        elif kind == E_DUMMY_PROCESS_ALERT:
            dummy_proc += 1
        elif kind == E_FILE_INTEGRITY_VIOLATION:
            integrity += 1
        elif kind == E_LOAD_SAMPLE:
            load_sum += <double>ev[4]
            load_count += 1
    return (ids_count, sev_sum, antimalware, unauthorized, honey,
            dummy_proc, integrity, load_sum, load_count)
