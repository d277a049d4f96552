"""One set-up of a sweep workload in a fresh process, for ``setup_s``.

Run as ``python3 perfbench/setup_probe.py <workload>`` with ``src`` on
``PYTHONPATH``; prints ``ready`` once the process could start timing.
"""

import sys

import sweeps

if __name__ == "__main__":
    sweeps.prepare(sys.argv[1])
    print("ready", flush=True)
