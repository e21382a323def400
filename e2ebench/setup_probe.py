"""Time one fresh set-up: import honeysim, load the config, derive the inputs.

Usage: python3 e2ebench/setup_probe.py <workload> <seed>
Prints the set-up time in seconds. run.py starts this several times in
fresh processes, because an import is paid once per process.
"""

import sys
import time

import run

run.add_paths()
start = time.perf_counter()
import workloads  # noqa: E402  (the import of honeysim is what is timed)

workloads.prepare(run.ROOT, workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - start)
