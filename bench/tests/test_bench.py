"""Tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s bench/tests
    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import import_package  # noqa: E402

import_package(ROOT / "src")

import compare  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, load_expected  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _bench(*args, python_flags=()):
    cmd = [sys.executable, *python_flags, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _tmpdir():
    return tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT)


def _summaries(plan):
    return [(op.key, op.summarize(op.run())) for op in plan.ops]


class SmokeTest(unittest.TestCase):
    def test_every_workload_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                proc = _bench("--workload", workload, "--scale", "tiny",
                              "--seconds", "0.1", "--seed", "7")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = _last_json(proc.stdout)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(list(res["metrics"]), E2E)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_every_per_layer_metric_and_writes_spans(self):
        with _tmpdir() as tmp:
            spans = Path(tmp) / "spans.jsonl"
            proc = _bench("--workload", "string-search", "--scale", "tiny",
                          "--seconds", "0.1", "--trace", "1", "--spans", str(spans))
            lines = spans.read_text().splitlines()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = _last_json(proc.stdout)
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]), sorted(PER_LAYER))
        self.assertGreater(res["metrics"]["harness.nodes"]["value"], 0)
        self.assertGreater(res["metrics"]["trace.overhead_ratio"]["value"], 0)
        header = json.loads(lines[0])
        self.assertIn("harness.enumerate_matrices", header["names"])
        span_ids = set()
        for line in lines[1:]:
            sid, name, start, end, parent, op = json.loads(line)
            self.assertLessEqual(start, end)
            self.assertGreaterEqual(op, 0)
            span_ids.add(sid)
        # children end before their parents, so every parent appears later
        self.assertEqual(len(span_ids), len(lines) - 1)

    def test_refuses_python_O(self):
        proc = _bench("--workload", "pair-check", "--scale", "tiny", "--seconds", "0.1",
                      python_flags=("-O",))
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_the_package_source(self):
        with _tmpdir() as empty:
            proc = _bench("--workload", "pair-check", "--seconds", "0.1", "--src", empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class GateTest(unittest.TestCase):
    def test_pins_hold_and_tampered_survivor_list_is_rejected(self):
        gate = Gate(load_expected(), "string-search", "tiny")
        with _tmpdir() as tmp:
            plan = workloads.build("string-search", "tiny", 0, tmp)
        op = plan.ops[0]
        survivors, reports = op.run()
        self.assertIsNone(gate.check(op.key, op.summarize((survivors, reports))))
        self.assertGreater(len(survivors), 1)
        reordered = [survivors[1], survivors[0]] + survivors[2:]
        self.assertIsNotNone(gate.check(op.key, op.summarize((reordered, reports))))
        self.assertIsNotNone(gate.check(op.key, op.summarize((survivors[:-1], reports[:-1]))))

    def test_pair_check_verdicts_do_not_depend_on_seed(self):
        gate = Gate(load_expected(), "pair-check", "tiny")
        for seed in (1, 2):
            with _tmpdir() as tmp:
                plan = workloads.build("pair-check", "tiny", seed, tmp)
                for key, value in plan.setup_checks.items():
                    self.assertIsNone(gate.check(key, value))
                for key, summary in _summaries(plan):
                    self.assertIsNone(gate.check(key, summary))


class TracerTest(unittest.TestCase):
    def _bindings(self):
        import qtm.polytope

        snap = {}
        for name, mod in sys.modules.items():
            if name == "qtm" or name.startswith("qtm."):
                snap[name] = dict(vars(mod))
        snap["SimplePolytope"] = dict(vars(qtm.polytope.SimplePolytope))
        return snap

    def test_wrappers_restore_every_patched_name(self):
        before = self._bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = self._bindings()
        finally:
            tracer.uninstall()
        after = self._bindings()
        changed = [
            (owner, attr) for owner in before for attr in before[owner]
            if during[owner][attr] is not before[owner][attr]
        ]
        # from-imports: is_string is patched where it is defined and where bound
        self.assertIn(("qtm.stringcheck", "is_string"), changed)
        self.assertIn(("qtm.harness", "is_string"), changed)
        self.assertIn(("SimplePolytope", "__init__"), changed)
        for owner in before:
            self.assertEqual(set(after[owner]), set(before[owner]))
            for attr, obj in before[owner].items():
                self.assertIs(after[owner][attr], obj, f"{owner}.{attr}")

    def test_traced_and_untraced_outputs_are_identical(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload), _tmpdir() as tmp:
                plan = workloads.build(workload, "tiny", 3, tmp)
                plain = _summaries(plan)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = _summaries(plan)
                finally:
                    tracer.uninstall()
                self.assertEqual(traced, plain)
                self.assertGreater(len(tracer.spans), 0)

    def test_self_time_excludes_children(self):
        with _tmpdir() as tmp:
            plan = workloads.build("class-census", "tiny", 0, tmp)
        tracer = Tracer()
        tracer.install()
        try:
            _summaries(plan)
        finally:
            tracer.uninstall()
        m = tracer.metrics(1)
        calls = m["harness.enumerate_matrices.calls"][0]
        inclusive = m["harness.enumerate_matrices.us_per_call"][0] * calls / 1e6
        self.assertLess(m["harness.enumerate_matrices.self_s"][0], inclusive)
        # the valid filter never calls the string test, so every prune is a det prune
        self.assertEqual(m["harness.string_rejects"][0], 0)
        self.assertGreater(m["harness.det_prunes"][0], 0)
        names = set(m) | {"trace.overhead_ratio", "stream.closed_form_share",
                          "stream.string_share"}
        self.assertEqual(sorted(names), sorted(PER_LAYER))


class CompareTest(unittest.TestCase):
    def test_classify(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        faster = [x * 0.8 for x in parent]
        slower = [x * 1.2 for x in parent]
        self.assertEqual(compare.classify(parent, faster, "lower", 0.1), "better")
        self.assertEqual(compare.classify(parent, slower, "lower", 0.1), "worse")
        self.assertEqual(compare.classify(parent, list(parent), "lower", 0.1), "unchanged")
        self.assertEqual(compare.classify(parent, slower, "higher", 0.1), "better")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.classify(noisy, noisy[::-1], "lower", 0.1), "unresolved")
        self.assertEqual(compare.classify(parent, slower, "lower", None), "worse")

    def test_compare_reports_each_workload_and_metric(self):
        def runs(scale):
            return [
                {"workload": w, "seed": i, "pair": i, "result": {
                    "correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"wall_s": {"value": scale * (1 + i / 100), "unit": "s"}}}}
                for w in ("a", "b") for i in range(10)
            ]
        rows = compare.compare(runs(1.0), runs(0.5), BENCHMARK)
        self.assertEqual([(r["workload"], r["metric"], r["verdict"]) for r in rows],
                         [("a", "wall_s", "better"), ("b", "wall_s", "better")])


if __name__ == "__main__":
    unittest.main()
