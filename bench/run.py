"""Benchmark of the qtm package: four workloads, end-to-end metrics,
and a traced run for per-layer metrics.  Standard library only.

One run of one workload:

    python3 bench/run.py --workload class-census --seed 1 --seconds 20 --trace 0

prints a stamp and a metric table, then, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, latency_p50_ms,
latency_tail_ms, peak_rss_mb); with --trace 1 they are the per-layer
ones.  Every op's output is checked against bench/expected.json; any
mismatch or error counts as failed and makes the exit code 1.

All workloads, one after another, each in fresh processes:

    python3 bench/run.py --all --seed 1 --seconds 20 [--trace 1] [--out FILE]

The package is imported from the source tree next to this directory
(`src/`), or from --src.  A run under `python -O` is refused, because
the package still checks a certificate by `assert`.

How a run is measured: the orchestrator (this process) starts a fresh
worker process per set-up sample and one that measures.  setup_s is
the median, over SETUP_SAMPLES fresh processes, of the time from
starting the process to the worker reporting that inputs are built and
warmed up.  The measuring worker then runs passes over the workload's
op list until --seconds have passed; wall_s is the median pass time.

Times are in reference seconds.  The CPU speed of a shared machine
drifts by tens of percent over tens of seconds, which no run length the
benchmark can afford averages out.  So a fixed piece of pure-Python
integer work (`reference_seconds`) is timed before the first op, after
each pass, and between ops whenever REF_INTERVAL_S have passed since
the last timing.  Every time of the run is scaled by REF_NOMINAL_S over
the mean of those timings.  Set-up samples are scaled the same way, by
the mean of reference timings taken just before each process starts and
right after it is ready.  On a machine running at the speed where the
reference takes REF_NOMINAL_S, reference seconds are wall seconds.  A
pass's time is the sum of its ops' times.  The report prints the
unscaled wall time and the slowdown (mean reference time over
REF_NOMINAL_S).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5
# median time of reference_seconds() on the 2-CPU machine of the README baseline
REF_NOMINAL_S = 0.028
# longest stretch of ops between two reference timings
REF_INTERVAL_S = 0.5
_REF_MATRIX = ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3))
RUN_DEADLINE_S = 170.0
MAX_FAILURE_MESSAGES = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def nearest_rank(sorted_values, q: float):
    """(value, samples beyond it) at percentile q by the nearest-rank rule."""
    idx = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def _bareiss_det(a) -> int:
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_seconds() -> float:
    """Time a fixed amount of pure-Python integer matrix work, the kind
    of work qtm does, to measure the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        a = [list(r) for r in _REF_MATRIX]
        a[0][0] = i
        total += _bareiss_det(a)
    elapsed = time.perf_counter() - start
    if total != -2096302500:
        raise BenchError("reference work computed a wrong determinant sum")
    return elapsed


def import_package(src: Path):
    """Put the qtm source tree first on sys.path and import the bench's
    own modules; refuse a qtm imported from anywhere else."""
    if not (src / "qtm" / "__init__.py").is_file():
        raise BenchError(f"no qtm package under {src}")
    sys.path.insert(0, str(src))
    import qtm

    if Path(qtm.__file__).resolve().parent != (src / "qtm").resolve():
        raise BenchError(f"qtm was imported from {qtm.__file__}, not {src}")
    return qtm


# ---------------------------------------------------------------------------
# worker: builds inputs, then measures


class SpeedLog:
    """Reference timings taken between ops, whenever REF_INTERVAL_S have
    passed since the last one; their mean is the run's speed."""

    def __init__(self):
        self.refs: list[float] = []
        self._last = 0.0
        self.take()

    def take(self) -> None:
        self.refs.append(reference_seconds())
        self._last = time.perf_counter()

    def maybe_take(self) -> None:
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            self.take()

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return REF_NOMINAL_S / statistics.fmean(self.refs)


def _run_pass(plan, tracer, first_op_id, speed):
    """Run every op once; return (op latencies in ns, [(result, exception)])."""
    clock = time.perf_counter_ns
    latencies, results = [], []
    for i, op in enumerate(plan.ops):
        speed.maybe_take()
        if tracer is not None:
            tracer.op_id = first_op_id + i
        t0 = clock()
        try:
            res, err = op.run(), None
        except Exception as exc:  # an op that raises is a failed op
            res, err = None, exc
        latencies.append(clock() - t0)
        results.append((res, err))
    speed.take()
    return latencies, results


def _check_pass(plan, gate, results, state) -> None:
    for op, (res, err) in zip(plan.ops, results):
        state["attempted"] += 1
        msg = None
        if err is not None:
            msg = f"{op.key}: raised " + "".join(
                traceback.format_exception_only(type(err), err)
            ).strip()
        else:
            try:
                summary = op.summarize(res)
            except Exception as exc:
                msg = f"{op.key}: output unreadable: {exc!r}"
            else:
                msg = gate.check(op.key, summary)
                if "method" in summary:
                    state["requests"] += 1
                    state["closed_form"] += summary["method"] == "closed-form"
                    state["string"] += summary["string"] is True
        if msg is not None or state["setup_failed"]:
            state["failed"] += 1
            if msg is not None and len(state["messages"]) < MAX_FAILURE_MESSAGES:
                state["messages"].append(msg)


def measure(plan, gate, seconds: float, trace: bool, setup_errors, spans_out=None):
    """Run passes until `seconds` have passed (at least one pass; with
    tracing, at least one traced and one untraced pass, alternating)."""
    from spans import Tracer

    tracer = Tracer() if trace else None
    state = {
        "attempted": 0, "failed": 0, "messages": list(setup_errors),
        "setup_failed": bool(setup_errors),
        "requests": 0, "closed_form": 0, "string": 0,
    }
    untraced, traced, latencies = [], [], []
    speed = SpeedLog()
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = trace and len(traced) < len(untraced)
        if use_trace:
            tracer.install()
        try:
            lat, results = _run_pass(plan, tracer if use_trace else None,
                                     len(plan.ops) * (len(untraced) + len(traced)), speed)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced.append(sum(lat))
        else:
            untraced.append(sum(lat))
            latencies.extend(lat)
        _check_pass(plan, gate, results, state)
        if time.perf_counter() >= deadline and (not trace or traced):
            break

    out = {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "messages": state["messages"],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_ref_s": speed.refs[0],
        "slowdown": 1 / speed.scale(),
    }
    requests = state["requests"]
    shares = {
        "stream.closed_form_share": state["closed_form"] / requests if requests else 0.0,
        "stream.string_share": state["string"] / requests if requests else 0.0,
    }
    out["shares"] = shares
    if trace:
        layer = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(len(traced)).items()}
        layer["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(untraced),
            "unit": "ratio",
        }
        for k, v in shares.items():
            layer[k] = {"value": v, "unit": "ratio"}
        out["per_layer"] = layer
        if spans_out:
            tracer.write_spans(spans_out)
    else:
        scale = speed.scale()
        lat_ms = sorted(x * scale / 1e6 for x in latencies)
        q = plan.params["tail_percentile"]
        p50, _ = nearest_rank(lat_ms, 50)
        tail, beyond = nearest_rank(lat_ms, q)
        out["latency"] = {"samples": len(lat_ms), "percentile": q, "beyond_tail": beyond}
        out["unscaled_wall_s"] = statistics.median(untraced) / 1e9
        out["e2e"] = {
            "wall_s": statistics.median(untraced) * scale / 1e9,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return out


def worker(args) -> int:
    import_package(Path(args.src))
    import workloads
    from gate import Gate, load_expected

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        plan = workloads.build(args.workload, args.scale, args.seed, tmp)
        plan.warmup()
        gate = Gate(load_expected(), args.workload, args.scale)
        setup_errors = [
            msg for key, value in plan.setup_checks.items()
            if (msg := gate.check(key, value)) is not None
        ]
        print("ready", flush=True)
        if args.setup_only:
            print(json.dumps({"setup_ref_s": reference_seconds()}), flush=True)
            return 0
        result = measure(plan, gate, args.seconds, bool(args.trace), setup_errors,
                         args.spans)
        result["params"] = plan.params
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# orchestrator


def _git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, workload: str, setup_only: bool, deadline: float):
    """Start a worker; return (seconds until it reported ready, its last
    line of output)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--src", str(args.src),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans:
        cmd += ["--spans", str(args.spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not finish set-up")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker failed or timed out") from None
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode} without a result")
    return setup, lines[-1]


def run_workload(args, workload: str, qtm_version: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, setup_refs = [], []
    for sample in range(SETUP_SAMPLES):
        before = reference_seconds()
        setup, line = _spawn(args, workload, sample < SETUP_SAMPLES - 1, deadline)
        res = json.loads(line)
        setups.append(setup)
        setup_refs.append((before + res["setup_ref_s"]) / 2)
    attempted, failed = res["attempted"], res["failed"]
    setup_scale = REF_NOMINAL_S / statistics.fmean(setup_refs)
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups) * setup_scale, "unit": "s"}}
        for name, value in res["e2e"].items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
    stamp = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": res["params"],
        "qtm_version": qtm_version,
        "git_commit": _git_commit(ROOT),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "passes": res["passes"],
        "setup_samples_s": setups,
        "setup_slowdown": 1 / setup_scale,
        "slowdown": res["slowdown"],
        "fail_ratio": failed / attempted if attempted else 1.0,
    }
    if "latency" in res:
        stamp["latency"] = res["latency"]
        stamp["unscaled_wall_s"] = res["unscaled_wall_s"]
    if res["shares"]["stream.closed_form_share"] or res["shares"]["stream.string_share"]:
        stamp["stream_shares"] = res["shares"]
    return {
        "stamp": stamp,
        "failures": res["messages"],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _print_report(run: dict) -> None:
    stamp = run["stamp"]
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for msg in run["failures"]:
        print(f"# FAILED {msg}")
    res = run["result"]
    print(f"# {stamp['workload']}: attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_ratio {stamp['fail_ratio']:.4g}")
    if "latency" in stamp:
        lat = stamp["latency"]
        print(f"# latency over {lat['samples']} ops; tail is p{lat['percentile']} "
              f"with {lat['beyond_tail']} samples beyond it")
    for name, m in res["metrics"].items():
        print(f"#   {name:<48} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree holding the qtm package")
    ap.add_argument("--spans", type=Path, help="traced run: write the spans here")
    ap.add_argument("--out", type=Path, help="--all: write the results here as JSON")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O: qtm checks a certificate "
              "by assert, and stripping it measures a different program", file=sys.stderr)
        return 2
    args.src = args.src.resolve()
    if args.spans:
        args.spans = args.spans.resolve()
    try:
        if args.worker:
            return worker(args)
        qtm = import_package(args.src)
        import workloads

        names = workloads.WORKLOADS if args.all else [args.workload]
        unknown = [w for w in names if w not in workloads.WORKLOADS]
        if unknown or not (args.all or args.workload):
            raise BenchError(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        runs = [run_workload(args, w, qtm.__version__) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for run in runs:
        _print_report(run)
    if args.all:
        out = args.out or ROOT / ".bench_out" / "results.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(runs, indent=1) + "\n")
        print(f"# wrote {out}")
        summary = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['stamp']['workload']}/{k}": v
                for r in runs for k, v in r["result"]["metrics"].items()
            },
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    print(json.dumps(runs[0]["result"]))
    return 0 if runs[0]["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
