"""One fresh-interpreter start of a workload: import, input generation, first operation.

Usage, from the root of a klstab checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/setup_probe.py WORKLOAD SEED [--toy]

Prints one JSON line with ``import_s`` (``import klstab``) and
``first_call_s`` (input generation plus the first completed operation).
``run.py`` times the whole process from spawn to that line.
"""

from time import perf_counter

t0 = perf_counter()
import klstab  # noqa: E402,F401  (timed: the package import is the bulk of a cold start)

t1 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sizes = workloads.TOY if "--toy" in sys.argv[3:] else workloads.FULL
    workload = workloads.WORKLOADS[name]
    workload.first_op(workload.inputs(seed, sizes))
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}), flush=True)


if __name__ == "__main__":
    main()
