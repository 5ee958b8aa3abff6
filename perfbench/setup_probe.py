"""Set-up probe: import the package, resolve one workload's configs, print 'ready'.

    python3 perfbench/setup_probe.py WORKLOAD

run.py times this script from spawn to the 'ready' line in fresh processes.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].resolve()
print("ready", flush=True)
