"""Compare two result sets of the benchmark: a parent and a change.

Collect alternating pairs with the same benchmark code for both sides:

    python3 bench/compare.py collect --parent PARENT_SRC --change CHANGE_SRC \
        --pairs 10 [--seconds 20] [--trace 0] [--workload NAME ...] \
        --out-parent parent.json --out-change change.json

PARENT_SRC and CHANGE_SRC are source trees holding the qtm package
(each a checkout's `src/`).  Pair i runs seed `--first-seed + i`, and
the side that runs first alternates from pair to pair.  Then:

    python3 bench/compare.py parent.json change.json

reports every (metric, workload) pair as better, worse, unchanged or
unresolved, each on its own row; there is no combined score.  The rule:

* better: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* worse: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median, from
  BENCHMARK.json); metrics without a bound are worse by the mirror of
  the better rule;
* unresolved: the parent's own interquartile range is wider than the
  bound, unless every change run beats (or, for worse, loses to) every
  parent run; a gain on a workload where the change fails more ops than
  the parent is also unresolved;
* unchanged: everything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BENCHMARK = BENCH_DIR.parent / "BENCHMARK.json"


def classify(parent, change, better: str, bound: float | None) -> str:
    """Verdict for one metric on one workload; parent[i] pairs change[i]."""
    n = min(len(parent), len(change))
    if n < 2:
        raise ValueError("need at least two pairs of runs")
    parent, change = list(parent[:n]), list(change[:n])
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0: worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _q2, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    worse_by = sign * (mc - mp)
    if wins >= 0.9 * n and -worse_by > iqr:
        return "better"
    if bound is None:
        if losses >= 0.9 * n and worse_by > iqr:
            return "worse"
        return "unchanged"
    wide = iqr > bound * abs(mp)
    if worse_by > bound * abs(mp):
        every_worse = min(sign * c for c in change) > max(sign * p for p in parent)
        return "worse" if every_worse or not wide else "unresolved"
    every_better = max(sign * c for c in change) < min(sign * p for p in parent)
    return "unresolved" if wide and not every_better else "unchanged"


def _runs_by_workload(runs) -> dict:
    out: dict = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def compare(parent_runs, change_runs, benchmark: dict) -> list[dict]:
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    parents, changes = _runs_by_workload(parent_runs), _runs_by_workload(change_runs)
    for workload in sorted(set(parents) & set(changes)):
        ps, cs = parents[workload], changes[workload]
        n = min(len(ps), len(cs))
        ps, cs = ps[:n], cs[:n]
        failed_p = sum(r["result"]["failed"] for r in ps)
        failed_c = sum(r["result"]["failed"] for r in cs)
        names = [m for m in ps[0]["result"]["metrics"] if m in specs]
        for name in names:
            pv = [r["result"]["metrics"][name]["value"] for r in ps]
            cv = [r["result"]["metrics"][name]["value"] for r in cs]
            spec = specs[name]
            verdict = classify(pv, cv, spec["better"], spec.get("bound"))
            if verdict == "better" and failed_c > failed_p:
                verdict = "unresolved"
            q1p, _, q3p = statistics.quantiles(pv, n=4)
            q1c, _, q3c = statistics.quantiles(cv, n=4)
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "pairs": n, "verdict": verdict,
                "parent": [q1p, statistics.median(pv), q3p],
                "change": [q1c, statistics.median(cv), q3c],
                "failed": [failed_p, failed_c],
            })
    return rows


def _collect(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    results = {"parent": [], "change": []}
    workloads = args.workload or [w["name"] for w in json.loads(
        Path(args.benchmark).read_text())["workloads"]]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                cmd = [
                    sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--src", str(sides[side]),
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode not in (0, 1) or not lines:
                    print(f"error: {side} run of {workload} exited {proc.returncode}",
                          file=sys.stderr)
                    return 2
                results[side].append({"workload": workload, "seed": seed, "pair": i,
                                      "result": json.loads(lines[-1])})
                print(f"pair {i} {workload} {side} done", file=sys.stderr)
    Path(args.out_parent).write_text(json.dumps(results["parent"], indent=1) + "\n")
    Path(args.out_change).write_text(json.dumps(results["change"], indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["collect"]:
        ap = argparse.ArgumentParser(prog="bench/compare.py collect")
        ap.add_argument("--parent", required=True)
        ap.add_argument("--change", required=True)
        ap.add_argument("--pairs", type=int, default=10)
        ap.add_argument("--first-seed", type=int, default=1000)
        ap.add_argument("--seconds", type=float, default=20.0)
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        ap.add_argument("--workload", action="append")
        ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
        ap.add_argument("--out-parent", required=True)
        ap.add_argument("--out-change", required=True)
        return _collect(ap.parse_args(argv[1:]))

    ap = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = ap.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = compare(json.loads(Path(args.parent).read_text()),
                   json.loads(Path(args.change).read_text()), benchmark)
    print(f"{'workload':<18} {'metric':<44} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30}  verdict")
    for r in rows:
        p = "/".join(f"{x:.4g}" for x in r["parent"])
        c = "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:<18} {r['metric']:<44} {p:>30} {c:>30}  {r['verdict']}"
              f" ({r['pairs']} pairs, {r['unit']})")
    failed = {(r["workload"], tuple(r["failed"])) for r in rows}
    for workload, (fp, fc) in sorted(failed):
        print(f"# {workload}: failed ops parent {fp}, change {fc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
