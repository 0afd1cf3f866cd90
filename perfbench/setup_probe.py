"""Print the seconds one fresh process needs to import hyperchrom from
./src and build a workload's inputs: ``setup_probe.py <workload> <seed>``."""

import sys
from pathlib import Path
from time import perf_counter

from run import load_program
from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    load_program(Path.cwd())
    WORKLOADS[name].inputs(seed)
    print(perf_counter() - t0)
