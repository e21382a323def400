"""Independent oracles used by unit and acceptance tests.

Each oracle deliberately avoids the implementation path it checks:
exact rational arithmetic for the reward, Counter-based tallies for
feature collection, two-pass moments, and policy enumeration for the
game search.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from honeysim.sensing import VARIANCE_FLOOR
from honeysim.world import EventKind


def reward_oracle(a, b, c, floor, honey, sec, delta, total, jcfh, cw) -> float:
    """Exact-rational evaluation of the three-term reward."""
    value = (Fraction(a) * Fraction(honey, max(sec, floor))
             + Fraction(b) * Fraction(delta, total)
             + Fraction(c) * Fraction(jcfh, max(cw, floor)))
    return float(value)


def tally_oracle(events):
    """Counter-based recount of the feature vector fields."""
    kinds = Counter(ev.kind for ev in events)
    severity = sum(ev.severity for ev in events if ev.kind is EventKind.IDS_ALERT)
    loads = [ev.load for ev in events if ev.kind is EventKind.LOAD_SAMPLE]
    return {
        "ids_alert_count": kinds[EventKind.IDS_ALERT],
        "ids_severity_sum": severity,
        "antimalware_alerts": kinds[EventKind.ANTI_MALWARE_ALERT],
        "unauthorized_accesses": kinds[EventKind.UNAUTHORIZED_ACCESS],
        "honey_touches": kinds[EventKind.HONEY_TOUCH] + kinds[EventKind.DUMMY_FILE_ACCESS],
        "dummy_process_alerts": kinds[EventKind.DUMMY_PROCESS_ALERT],
        "integrity_violations": kinds[EventKind.FILE_INTEGRITY_VIOLATION],
        "system_load": (sum(loads) / len(loads)) if loads else 0.0,
    }


def two_pass_moments(vectors):
    """Classic two-pass mean and population variance per feature."""
    n = len(vectors)
    dims = len(vectors[0])
    means = [sum(v[d] for v in vectors) / n for d in range(dims)]
    variances = [sum((v[d] - means[d]) ** 2 for v in vectors) / n
                 for d in range(dims)]
    return means, variances


class TabularToyModel:
    """A fully tabular outcome model for game-search checks.

    outcomes[(state, action)] = tuple of (prob, next_state, payoff).
    Probabilities are dyadic rationals and payoffs are small integers,
    so both searchers evaluate every expression exactly in binary
    floating point and ties are genuine ties.
    """

    def __init__(self, states, actions_by_state, outcomes):
        self.states = states
        self._actions = actions_by_state
        self._outcomes = outcomes

    def actions(self, state):
        return self._actions[state]

    def outcomes(self, state, action):
        return self._outcomes[(state, action)]


def enumerate_policies_root_action(model, root, horizon):
    """Brute-force oracle: enumerate every (state, depth) -> action
    policy, evaluate each exactly, and return (best root action,
    best value) with the lowest-id tie-break.

    Completely independent of the expectimax recursion: the best value
    over all fixed policies equals the expectimax value.
    """
    decision_points = [(s, d) for s in model.states for d in range(1, horizon + 1)]

    def policy_value(policy, state, depth):
        if depth == 0:
            return 0.0
        action = policy[(state, depth)]
        total = 0.0
        for prob, nxt, payoff in model.outcomes(state, action):
            total += prob * (payoff + policy_value(policy, nxt, depth - 1))
        return total

    best_value = None
    best_root = None
    action_lists = [model.actions(s) for s, _ in decision_points]
    for assignment in product(*action_lists):
        policy = dict(zip(decision_points, assignment))
        value = policy_value(policy, root, horizon)
        root_action = policy[(root, horizon)]
        if best_value is None or value > best_value or \
                (value == best_value and root_action < best_root):
            best_value = value
            best_root = root_action
    return best_root, best_value


def welford_reference(means, m2, count, xs):
    """The baseline update as two separate steps computed it: the score
    against the old moments from a variances tuple (None below two
    samples), then the Welford update; returns (score, means, m2)."""
    score = None
    if count >= 2:
        score = 0.0
        variances = tuple(v / count for v in m2)
        for x, mean, var in zip(xs, means, variances):
            z = abs(x - mean) / math.sqrt(var + VARIANCE_FLOOR)
            if z > score:
                score = z
    n = count + 1
    new_means, new_m2 = [], []
    for mean, m, x in zip(means, m2, xs):
        delta = x - mean
        mean = mean + delta / n
        new_m2.append(m + delta * (x - mean))
        new_means.append(mean)
    return score, tuple(new_means), tuple(new_m2)
