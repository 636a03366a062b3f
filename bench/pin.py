"""Write bench/expected.json from the code in the source tree.

    python3 bench/pin.py [--src DIR]

Run it only when the outputs are meant to change, and explain the
change: the pins are what every benchmark run is checked against.  For
each search workload it records the summary of every op; for
pair-check it records the pool digest and the verdict of every pool
pair, checked unscrambled (a scrambled request must give the same
verdict, whatever the seed).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_package


def pin(scale: str, workload: str, tmp: str) -> dict:
    import workloads

    if workload == "pair-check":
        pool = workloads.pair_pool(scale)
        stream = [(i, [list(r) for r in lam.rows]) for i, (_l, _p, lam) in enumerate(pool)]
        ops = workloads.write_requests(pool, tmp, stream)
        pins = {"pool": workloads.pool_digest(pool)}
    else:
        plan = workloads.build(workload, scale, 0, tmp)
        ops, pins = plan.ops, dict(plan.setup_checks)
    for op in ops:
        pins[op.key] = op.summarize(op.run())
    return pins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    import_package(args.src.resolve())
    import workloads
    from gate import EXPECTED_PATH

    expected = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            expected[workload] = {s: pin(s, workload, tmp) for s in workloads.SCALES}
            print(f"pinned {workload}", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
