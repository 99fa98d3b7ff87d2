"""Import the library and warm it up for one workload, then say so.

Usage: python3 perfbench/setup_probe.py WORKLOAD

The caller times this process from its start to the "ready" line.
"""

import sys

import workloads

workloads.warm_up(sys.argv[1])
print("ready", flush=True)
