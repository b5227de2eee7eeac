"""Set-up probe: import qrfsim and build one workload's inputs, then exit.

``run.py`` times this script from process start to exit, in a fresh
interpreter, as ``setup_s``.  Usage: setup_probe.py WORKLOAD SEED WORKDIR [--smoke]
"""

import sys
from pathlib import Path

import run

if __name__ == "__main__":
    run.bootstrap()
    import workloads

    workdir = Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.make(sys.argv[1], run.ROOT, int(sys.argv[2]), workdir, "--smoke" in sys.argv[4:])
