"""Record the reference relative errors that ``run.py`` checks ops against.

    python3 bench/record_reference.py

Runs one op per seed 0..SEEDS-1 of every workload at the current commit,
after the same output checks as the benchmark (minus the reference
itself), and rewrites ``bench/reference.json``.  A seed listed there must reproduce its
value to ``workloads.REFERENCE_RTOL``; any other seed must fall inside the
workload's band: the recorded range, widened on each side by its own
width.  Re-record only when a change is meant to alter pruning results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = 20


def main() -> int:
    import run

    run.prepare()
    import workloads

    doc = {}
    unchecked = {"seeds": {}, "band": [float("-inf"), float("inf")]}
    workdir = run.OUT / "work" / "reference"
    for name, workload in workloads.WORKLOADS.items():
        values = {}
        for seed in range(SEEDS):
            inputs = workload.setup(seed, workdir)
            checked = workload.check(inputs, workload.op(inputs), seed, unchecked)
            if checked.problems:
                print(f"{name} seed {seed}: {checked.problems}", file=sys.stderr)
                return 1
            values[str(seed)] = checked.rel_error
            print(f"{name} seed {seed}: {checked.rel_error!r}", flush=True)
        lo, hi = min(values.values()), max(values.values())
        doc[name] = {"band": [lo - (hi - lo), hi + (hi - lo)], "seeds": values}
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
