"""Set-up probe, run in a fresh interpreter by run.py.

Imports eccrng, does the workload's first-use set-up (switching-model load,
preset calibration, code lookup) and generates one bit, which it prints so
the caller can check it against the capture.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import eccrng  # noqa: F401  (the import is part of what is measured)
from jobs import pipeline_spec, source_config
from workloads import WORKLOADS

w = WORKLOADS[sys.argv[1]]
pipeline_spec(w)
print(int(eccrng.generate_stream(source_config(w, int(sys.argv[2]), 1))[0]))
