"""Outside-in tracing of the qtm package.

`Tracer.install()` replaces every public function of each qtm module,
plus `SimplePolytope.__init__` and `SimplePolytope.automorphisms`, with
a wrapper that records a span: name, start, end, parent span and op id.
Modules bind each other's functions with `from ... import`, so a
function is patched under every name, in every `qtm.*` module, that
holds it; `uninstall()` puts every original back.  Nothing under the
package source changes.

Spans are kept in memory (up to MAX_SPANS; aggregates stay exact past
that) and can be written out with `write_spans` when the run ends.  A
span's self time is its duration minus the durations of its child
spans; a layer is one module, and its self time is the sum over its
spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "harness", "intlin", "charmat", "cohomology", "stringcheck",
    "structure", "smallcover", "polytope", "cli",
)

# functions whose per-function metrics are reported, grouped names last
REPORTED = {
    "harness": ("enumerate_matrices",),
    "intlin": (
        "det", "smith_invariant_factors", "hermite_form",
        "hermite_form_with_transform", "inverse_unimodular",
    ),
    "charmat": ("canonical_key", "validate", "refine"),
    "cohomology": (
        "presentation_deg4", "is_zero_in_h4", "greedy_basis", "reduce_to_basis",
    ),
    "stringcheck": ("is_string",),
    "structure": ("decompose_prism", "decompose_cube_connsum"),
    "smallcover": ("validate_mod2", "is_string_smallcover", "degree2_presentation"),
    "polytope": ("SimplePolytope.__init__", "SimplePolytope.automorphisms"),
    "cli": ("main",),
}
# groups of functions reported as one: (group name, layer, predicate)
GROUPS = (
    ("intlin.f2", "intlin", lambda f: f.startswith("f2_")),
    ("stringcheck.closed_form", "stringcheck", lambda f: f.endswith("_closed_form")),
)
STRING_TESTS = ("stringcheck.is_string", "smallcover.is_string_smallcover")
POLYTOPE_METHODS = ("__init__", "automorphisms")
# spans kept for write_spans; about 50 bytes each
MAX_SPANS = 1_000_000


def _targets(modules):
    """(span name, owner, attribute, original) for every wrapped callable,
    with owner a module or class; one entry per binding site."""
    originals = {}
    for layer in LAYERS:
        mod = modules[f"qtm.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                originals[id(obj)] = (f"{layer}.{name}", obj)
    out = []
    for modname, mod in sorted(modules.items()):
        if modname != "qtm" and not modname.startswith("qtm."):
            continue
        for attr, obj in sorted(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[1] is obj:
                out.append((hit[0], mod, attr, obj))
    cls = modules["qtm.polytope"].SimplePolytope
    for meth in POLYTOPE_METHODS:
        out.append((f"polytope.SimplePolytope.{meth}", cls, meth, vars(cls)[meth]))
    return out


class Tracer:
    """Span recorder and aggregator for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.true_returns: list[int] = []
        # False returns of a string test, keyed by (span name, binding module)
        self.false_by_site: dict[tuple[str, str], int] = {}
        self.search_stats = {"nodes": 0, "pruned": 0, "candidates": 0, "survivors": 0}
        self.int_survivors = 0
        self.canonical_key_from_harness = 0
        # flat (span id, name id, start ns, end ns, parent span id, op id)
        self.spans = array("q")
        self.spans_dropped = 0
        self._next_span = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, orig in _targets(sys.modules):
            site = getattr(owner, "__name__", "")
            setattr(owner, attr, self._wrap(name, orig, site))
            self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_id[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.true_returns.append(0)
        return nid

    def _wrap(self, name: str, fn, site: str):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        is_string_test = name in STRING_TESTS
        is_search = name == "harness.enumerate_matrices"
        is_key_from_harness = name == "charmat.canonical_key" and site == "qtm.harness"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - frame[1]
                if len(spans) < 6 * MAX_SPANS:
                    spans.extend((sid, nid, start, end, parent, self.op_id))
                else:
                    self.spans_dropped += 1
            if result is True:
                self.true_returns[nid] += 1
            elif result is False and is_string_test:
                key = (name, site)
                self.false_by_site[key] = self.false_by_site.get(key, 0) + 1
            if is_search:
                self._count_search(args, kwargs, result)
            elif is_key_from_harness:
                self.canonical_key_from_harness += 1
            return result

        return wrapper

    def _count_search(self, args, kwargs, result) -> None:
        spec = args[0] if args else kwargs["spec"]
        _survivors, stats = result
        for k in self.search_stats:
            self.search_stats[k] += stats[k]
        if not spec.mod2_only:
            self.int_survivors += stats["survivors"]

    # -- results --------------------------------------------------------

    def _fn(self, name: str):
        nid = self._name_id.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a per-pass average over `passes` traced
        passes, as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}

        def put(name, calls, total_ns, self_ns):
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_ns / 1e9 / passes, "s")
            out[f"{name}.us_per_call"] = (total_ns / 1e3 / calls if calls else 0.0, "us")

        for layer in LAYERS:
            for fn in REPORTED[layer]:
                put(f"{layer}.{fn}", *self._fn(f"{layer}.{fn}"))
        for group, layer, pred in GROUPS:
            calls = total = selfn = 0
            for nid, name in enumerate(self.names):
                fn = name[len(layer) + 1:]
                if name.startswith(layer + ".") and pred(fn):
                    calls += self.calls[nid]
                    total += self.total_ns[nid]
                    selfn += self.self_ns[nid]
            put(group, calls, total, selfn)
        for layer in LAYERS:
            selfn = sum(
                self.self_ns[nid]
                for nid, name in enumerate(self.names)
                if name.split(".", 1)[0] == layer
            )
            out[f"{layer}.self_s"] = (selfn / 1e9 / passes, "s")

        st = self.search_stats
        rejects = sum(
            n for (name, site), n in self.false_by_site.items() if site == "qtm.harness"
        )
        _c, search_ns, _s = self._fn("harness.enumerate_matrices")
        out["harness.nodes"] = (st["nodes"] / passes, "count")
        out["harness.candidates"] = (st["candidates"] / passes, "count")
        out["harness.survivors"] = (st["survivors"] / passes, "count")
        out["harness.string_rejects"] = (rejects / passes, "count")
        out["harness.det_prunes"] = ((st["pruned"] - rejects) / passes, "count")
        out["harness.nodes_per_s"] = (
            st["nodes"] / (search_ns / 1e9) if search_ns else 0.0, "1/s"
        )
        out["harness.survivor_ratio"] = (
            st["survivors"] / st["candidates"] if st["candidates"] else 0.0, "ratio"
        )
        keys = self.canonical_key_from_harness
        hits = keys - self.int_survivors
        out["charmat.dedup_hits"] = (hits / passes, "count")
        out["charmat.dedup_hit_ratio"] = (hits / keys if keys else 0.0, "ratio")
        calls, _t, _s = self._fn("stringcheck.is_string")
        nid = self._name_id.get("stringcheck.is_string")
        true = self.true_returns[nid] if nid is not None else 0
        out["stringcheck.string_ratio"] = (true / calls if calls else 0.0, "ratio")
        out["trace.spans"] = (self._next_span / passes, "count")
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines: a header naming the span
        names, then one [span, name id, start ns, end ns, parent, op] per
        span, in order of ending."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "names": self.names,
                "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"],
                "dropped": self.spans_dropped,
            }) + "\n")
            s = self.spans
            for i in range(0, len(s), 6):
                fh.write(json.dumps(list(s[i:i + 6])) + "\n")
