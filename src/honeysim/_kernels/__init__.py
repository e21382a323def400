"""The per-tick kernels: RNG stream, world step, window tally.

pure.py is the only implementation; this package re-exports its entry
points. BACKEND names it for run reports and the benchmark.
"""

from .pure import CoreWorld, Stream, mix64, tally

BACKEND = "pure"

__all__ = ["BACKEND", "CoreWorld", "Stream", "mix64", "tally"]
