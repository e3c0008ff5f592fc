"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing hyperind, building the constructions, generating the
seeded random instances and serializing them.  Prints one JSON line with the
seconds taken and a digest of the inputs built.
"""

import json
import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

items = workloads.setup(sys.argv[1], int(sys.argv[2]))
token = workloads.digest(items)
print(json.dumps({"setup_s": time.perf_counter() - start, "digest": token}))
