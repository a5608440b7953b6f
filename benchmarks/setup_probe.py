"""Set-up probe: a fresh interpreter imports masure.cli (which pulls in every
module) and builds one workload's fixed objects, then prints as JSON the
seconds this took since the caller started the interpreter ("wall") and
the same at the reference kernel's nominal speed ("scaled").

    python3 benchmarks/setup_probe.py tree "$(python3 -c 'import time; print(time.monotonic())')"

The second argument is the caller's time.monotonic() when it started the
interpreter.  The work is timed in pieces: the interpreter's start, the
import of the reference kernel, masure's modules one at a time (masure.cli
last, so that together they load what ``import masure.cli`` loads), the
benchmark's workloads module and the fixed objects.  The reference kernel
runs, untimed, between the pieces, and each piece is scaled by the kernel's
speed right around it, because the machine can change speed within a probe.
"""

import importlib
import json
import sys
import time
from pathlib import Path

started = time.monotonic() - float(sys.argv[2])
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
MODULES = ("fields", "linalg", "kmdata", "weyl", "cone", "tree", "lattices", "hecke", "loop",
           "cli")


start = time.perf_counter()
reference = importlib.import_module("reference")
imported = time.perf_counter() - start
ref = reference.Reference()
_, _, factor = ref.around(lambda: None)
wall = [started, imported]
scaled = [started * factor, imported * factor]


def piece(task):
    value, seconds, factor = ref.around(task)
    wall.append(seconds)
    scaled.append(seconds * factor)
    return value


for name in MODULES:
    piece(lambda: importlib.import_module(f"masure.{name}"))
workloads = piece(lambda: importlib.import_module("workloads"))
piece(workloads.WORKLOADS[sys.argv[1]].fixed)
print(json.dumps({"wall": sum(wall), "scaled": sum(scaled)}))
