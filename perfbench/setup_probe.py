"""One set-up measurement, run as its own process by perfbench/run.py.

Times importing semgeo and its dependencies, loading the workload's scenario
and parsing its config, up to where the first trial would start.  Prints
the seconds taken, then the seconds of one machine-speed probe.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import semgeo  # noqa: E402,F401
from workloads import WORKLOADS, build_config, machine_probe  # noqa: E402

build_config(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
setup_s = time.perf_counter() - T0
print(repr(setup_s), repr(machine_probe()))
