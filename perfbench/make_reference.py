"""Write the reference outputs that benchmark runs are checked against.

Usage, from the root of a klstab checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py SEED [SEED ...]

For each seed it runs one pass of every workload at full size and writes
``perfbench/reference/seed-<SEED>.json``. Run it only at a commit whose
outputs are trusted: every later benchmark run on these seeds counts each
disagreement with the file as a failed operation.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(seeds) -> None:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for seed in seeds:
        out = {}
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.inputs(seed, workloads.FULL)
            result = workload.run_pass(inputs)
            failed, _, notes = workload.check(inputs, [result], None)
            if failed:
                raise SystemExit(f"seed {seed} {name}: {failed} failed operations: {notes}")
            out[name] = workload.record(inputs, result)
        path = os.path.join(HERE, "reference", f"seed-{seed}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
