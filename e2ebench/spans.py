"""Span timers installed around honeysim's public functions from outside.

A span run replaces each listed function with a timing wrapper at every
place honeysim binds it (the defining module, every module that imported
it by name, or the class that owns a method), runs the workload, then
puts every original back. Nothing inside honeysim changes, so the run
trace bytes and every RNG draw are those of an unwrapped run.

Self time is a span's duration minus the durations of the wrapped calls
made inside it, so the self times of all spans add up to the duration of
the outermost spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (layer, span name, module that defines it, attribute path in that module).
# The layer is the honeysim module the function lives in; metric names use
# "kernels" for honeysim._kernels because a name must start with a letter.
SPANS = (
    ("world", "step_world", "honeysim.world", "step_world"),
    ("world", "apply_action", "honeysim.world", "apply_action"),
    ("world", "honeypots_active", "honeysim.world", "WorldState.honeypots_active"),
    ("world", "nodes", "honeysim.world", "WorldState.nodes"),
    ("kernels", "CoreWorld.step", "honeysim._kernels", "CoreWorld.step"),
    ("kernels", "tally", "honeysim._kernels", "tally"),
    ("sensing", "collect", "honeysim.sensing", "collect"),
    ("sensing", "anomaly_score", "honeysim.sensing", "anomaly_score"),
    ("sensing", "update_baseline", "honeysim.sensing", "update_baseline"),
    ("cascade", "decide", "honeysim.cascade", "decide"),
    ("cascade", "arbiter_review", "honeysim.cascade", "arbiter_review"),
    ("cascade", "game_search", "honeysim.cascade", "game_search"),
    ("agent", "discretize", "honeysim.agent", "discretize"),
    ("agent", "select_action", "honeysim.agent", "select_action"),
    ("agent", "q_update", "honeysim.agent", "q_update"),
    ("agent", "accumulate_reward_inputs", "honeysim.agent", "accumulate_reward_inputs"),
    ("agent", "reward", "honeysim.agent", "reward"),
    ("guardrails", "verify_ruleset", "honeysim.guardrails", "verify_ruleset"),
    ("guardrails", "Ruleset.canonical_bytes", "honeysim.guardrails", "Ruleset.canonical_bytes"),
    ("guardrails", "check", "honeysim.guardrails", "check"),
    ("comms", "send", "honeysim.comms", "send"),
    ("trace", "TraceWriter.record", "honeysim.trace", "TraceWriter.record"),
    ("trace", "dumps", "honeysim.trace", "dumps"),
    ("trace", "write_file", "honeysim.trace", "write_file"),
    ("trace", "read_file", "honeysim.trace", "read_file"),
    ("trace", "parse", "honeysim.trace", "parse"),
    ("harness", "resolve_target", "honeysim.harness", "resolve_target"),
    ("harness", "run_scenario", "honeysim.harness", "run_scenario"),
    ("harness", "replay", "honeysim.harness", "replay"),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _, _ in SPANS)

# Spans whose cost per call may grow with episode length (ROADMAP item 1).
GROWTH_SPANS = ("harness.resolve_target", "world.step_world", "world.honeypots_active")

_MARK = "__e2ebench_span__"


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "first_calls", "first_ns",
                 "last_calls", "last_ns", "errors", "nones", "items", "callers")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = 0
        self.first_calls = self.first_ns = self.last_calls = self.last_ns = 0
        self.errors = self.nones = self.items = 0
        self.callers = {}  # enclosing span (None at the top) -> duration in ns


class SpanRecorder:
    """Holds the wrappers of one span run and the numbers they collect.

    `episode_ticks` sets the first and last tenth of an episode for the
    growth diagnostics. Use as a context manager: entering installs every
    wrapper, leaving removes them all, also when the run raises.
    """

    def __init__(self, episode_ticks: int):
        self.episode_ticks = episode_ticks
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.tick = -1
        self.nodes_final = 0
        self.trace_bytes = 0
        self._world = None
        self._stack = [0]  # per open span: time spent in wrapped children
        self._names = [None]  # per open span: its name
        self._patches = []  # (owner, attribute, original)
        self.skipped = []  # spans that could not be installed

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            for layer, name, module_name, path in SPANS:
                self._install(f"{layer}.{name}", module_name, path)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _install(self, span, module_name, path):
        owner = sys.modules[module_name]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(span, original)
        if isinstance(owner, type):
            try:
                self._patch(owner, attr, original, wrapper)
            except TypeError:  # a compiled extension type takes no new attributes
                self.skipped.append(span)
            return
        # A function imported by name lives on in the importing module's
        # namespace too; patch every honeysim module that binds it.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "honeysim" or mod_name.startswith("honeysim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        """Put back every original function; safe to call twice."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- timing -------------------------------------------------------------

    def _wrap(self, span, fn):
        stats = self.stats[span]
        stack = self._stack
        names = self._names
        callers = stats.callers
        clock = time.perf_counter_ns
        observe = self._observer(span)
        growth = span in GROWTH_SPANS
        tenth = max(self.episode_ticks // 10, 1)
        last_from = self.episode_ticks - tenth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, None, True)
            caller = names[-1]
            names.append(span)
            stack.append(0)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - start
                children = stack.pop()
                names.pop()
                stack[-1] += elapsed
                callers[caller] = callers.get(caller, 0) + elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if failed:
                    stats.errors += 1
                if growth:
                    if self.tick < tenth:
                        stats.first_calls += 1
                        stats.first_ns += elapsed
                    elif self.tick >= last_from:
                        stats.last_calls += 1
                        stats.last_ns += elapsed
            if observe is not None:
                observe(args, result, False)
            return result

        setattr(wrapper, _MARK, span)
        return wrapper

    def _observer(self, span):
        """Per-span counting done outside the timed interval."""
        stats = self.stats[span]
        if span == "harness.run_scenario":
            def observe(args, result, before):
                if before:
                    self.tick = -1
                    self._world = None
                elif self._world is not None:
                    self.nodes_final += len(self._world.node_ids)
            return observe
        if span == "world.step_world":
            def observe(args, result, before):
                if before:
                    self.tick += 1
                    self._world = args[0]
                else:
                    stats.items += len(result)
            return observe
        if span == "harness.resolve_target":
            def observe(args, result, before):
                if not before and result is None:
                    stats.nones += 1
            return observe
        if span == "cascade.decide":
            def observe(args, result, before):
                if not before:
                    stats.items += len(result.rejected)
            return observe
        if span == "trace.write_file":
            def observe(args, result, before):
                if not before:
                    self.trace_bytes += os.path.getsize(args[0])
            return observe
        return None

    def root_ns(self) -> int:
        """Total duration of the outermost spans (equals the sum of self times)."""
        return self._stack[0]


def installed_wrappers() -> list:
    """Every span wrapper still bound anywhere in honeysim, as (owner, attr)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "honeysim" or mod_name.startswith("honeysim.")):
            continue
        for key, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append((mod_name, key))
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if hasattr(member, _MARK):
                        found.append((f"{mod_name}.{key}", attr))
    return found
