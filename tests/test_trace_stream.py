"""The trace file round trip moves the lines in bounded chunks, and replay
holds one record at a time. Neither may change what a whole-trace
reading gives: the bytes written, the lines read and the report. Memory
above the input stays bounded by a chunk, not by the episode.
"""

import functools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honeysim import trace as trace_mod
from honeysim.errors import TraceCorrupt
from honeysim.harness import RandomPolicy, replay, run_scenario
from test_golden import reference

MB = 1 << 20
CHUNK = trace_mod._READ_CHARS


@functools.lru_cache(maxsize=None)
def reference_run(ticks: int) -> tuple:
    """(report, lines) of a random-policy run of the reference scenario."""
    report, lines = run_scenario(reference(episode_ticks=ticks), 0, RandomPolicy())
    return report, tuple(lines)


def _traced(fn, *args):
    """(result, peak, current): bytes allocated while fn ran, above what
    was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


# -- memory above the input --------------------------------------------------

def test_replay_memory_is_bounded_by_a_record_not_the_episode():
    report, lines = reference_run(4000)
    lines = list(lines)
    replayed, peak, _ = _traced(replay, lines)
    assert replayed == report
    assert peak < 1 * MB


def test_write_file_memory_is_bounded_by_a_chunk(tmp_path):
    lines = list(reference_run(2000)[1])
    path = tmp_path / "run.trace"
    _, peak, _ = _traced(trace_mod.write_file, path, lines)
    assert peak < 1 * MB
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_read_file_memory_is_bounded_by_a_chunk_above_its_lines(tmp_path):
    lines = list(reference_run(2000)[1])
    path = tmp_path / "run.trace"
    trace_mod.write_file(path, lines)
    read, peak, current = _traced(trace_mod.read_file, path)
    assert read == lines
    assert peak - current < 1 * MB


# -- the file round trip -----------------------------------------------------

# Every separator str.splitlines splits on, "\r\n" as one.
_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_PIECES = st.lists(st.sampled_from(_BREAKS) | st.text(max_size=6)
                   | st.integers(1, 2 * CHUNK).map(lambda n: "y" * n),
                   max_size=12)


@settings(max_examples=150, deadline=None)
@given(pieces=_PIECES, offset=st.integers(0, 40))
@example(pieces=[], offset=0)
@example(pieces=["a", "\r\n", "b"], offset=1)  # "\r\n" opens the second chunk
@example(pieces=["a", "\r\n", "b"], offset=2)  # "\r\n" spans the boundary
@example(pieces=["a", "\r\n", "b"], offset=3)  # "\r\n" ends the first chunk
@example(pieces=["a", "\n"], offset=2)  # no partial line is carried
@example(pieces=["y" * (3 * CHUNK)], offset=0)  # no final newline
def test_read_file_splits_as_splitlines_of_the_whole_text(tmp_path_factory, pieces,
                                                         offset):
    # The padding puts the first chunk boundary of the file `offset`
    # characters into the drawn text.
    text = "".join(pieces)
    if text:
        text = "x" * (CHUNK - offset) + text
    path = tmp_path_factory.mktemp("rt") / "run.trace"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        whole = fh.read().splitlines()
    assert trace_mod.read_file(path) == whole


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(st.text(max_size=8), min_size=1, max_size=5),
       count=st.integers(0, 2000))
@example(pool=["a"], count=0)
@example(pool=["a", ""], count=512)
@example(pool=["a"], count=513)
def test_write_file_writes_the_joined_lines_and_a_final_newline(tmp_path_factory,
                                                               pool, count):
    lines = [pool[i % len(pool)] for i in range(count)]
    path = tmp_path_factory.mktemp("rt") / "run.trace"
    trace_mod.write_file(path, lines)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("at", [CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_a_bad_byte_after_the_first_chunk_is_corrupt(tmp_path, at):
    path = tmp_path / "run.trace"
    path.write_bytes(b"x" * at + b"\xff\n" + b"y\n" * 10)
    with pytest.raises(TraceCorrupt, match="not UTF-8"):
        trace_mod.read_file(path)
