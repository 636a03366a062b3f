"""The benchmark's four workloads.

Each workload is a fixed list of ops; one pass runs every op once, in
order, in a single closed-loop caller.  `build(name, scale, seed, tmp)`
does all set-up (polytopes, search inputs, request files) and returns a
`Plan`; nothing in a plan's ops builds inputs.  The search workloads are
exhaustive and deterministic, so only `pair-check` uses the seed.

Ops call into qtm through module attributes (`harness.enumerate_matrices`,
never a name imported from a qtm module), so the tracer's wrappers are
seen by the benchmark too.

Why each workload exists, and what it was scaled down from, is in
bench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass

from qtm import charmat, cli, cohomology, harness, polytope, smallcover, stringcheck, structure

WORKLOADS = ("string-search", "class-census", "smallcover-census", "pair-check")
SCALES = ("full", "tiny")

# Percentile reported as latency_tail_ms, fixed per workload so that a
# faster program is not measured at a different percentile.  On the
# search workloads, whose passes repeat a few ops of very different
# sizes, it sits in the middle of the slowest op's share of the samples,
# so it reads that op's median rather than an edge between two ops.
TAIL_PERCENTILE = {
    "string-search": 85,
    "class-census": 90,
    "smallcover-census": 90,
    "pair-check": 99,
}


@dataclass
class Op:
    """One request: `run()` is timed, `summarize(result)` is not; the
    summary is compared with the pinned value under `key`."""

    key: str
    run: object
    summarize: object


@dataclass
class Plan:
    params: dict
    ops: list
    warmup: object
    # summaries checked once per run, before the first timed op
    setup_checks: dict


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(lam) -> list:
    return [list(r) for r in lam.rows]


def _search(p, bound, filt, dedup="signs", mod2=False):
    spec = harness.SearchSpec(p, bound, dedup, filt, mod2_only=mod2)
    return harness.enumerate_matrices(spec)


def _survivor_summary(survivors) -> dict:
    return {"classes": len(survivors), "survivors": digest([_rows(l) for l in survivors])}


# ---------------------------------------------------------------------------
# string-search: string-filter searches, then decomposition of every class


def _prism_campaign(s: int, bound: int):
    p = polytope.prism(s)
    k = s // 2

    def run():
        survivors, _stats = _search(p, bound, "string")
        return survivors, [structure.decompose_prism(k, lam) for lam in survivors]

    def summarize(result):
        survivors, reports = result
        out = _survivor_summary(survivors)
        out["decompositions"] = digest([
            [
                rep.verdict,
                [_rows(piece.matrix) for piece in rep.pieces],
                all(piece.string for piece in rep.pieces),
                all(step["verified"] for step in rep.reassembly),
            ]
            for rep in reports
        ])
        return out

    return Op(f"prism{s}-b{bound}-string", run, summarize)


def _double_cube_pairs(glue_count: int):
    """Pairs over cube # cube in the labeling decompose_cube_connsum
    expects: string pairs glued from cube(3) string classes, plus the
    spin-not-string pair whose seam determinant is 3."""
    c3 = polytope.cube(3)
    classes, _ = _search(c3, 1, "string")
    glued = itertools.islice(itertools.product(classes, repeat=2), glue_count)
    pairs = [
        structure.equivariant_connected_sum(c3, a, (4, 5, 6), c3, b, (1, 2, 3))
        for a, b in glued
    ]
    return pairs + [spin_not_string_pair()]


def spin_not_string_pair():
    verts = [
        (1, 4, 5), (1, 2, 4), (1, 3, 5), (1, 2, 3), (4, 5, 6), (2, 4, 6),
        (3, 5, 6), (7, 8, 9), (2, 7, 8), (3, 7, 9), (2, 3, 7), (6, 8, 9),
        (2, 6, 8), (3, 6, 9),
    ]
    rows = [
        [1, 0, 0, 2, 2, 3, 1, 2, 2],
        [0, 1, 0, 0, 1, 1, 0, 0, 1],
        [0, 0, 1, 1, 0, 1, 0, 1, 0],
    ]
    fig = polytope.SimplePolytope(3, 9, verts)
    big, _, _ = polytope.connected_sum(polytope.cube(3), (4, 5, 6), polytope.cube(3), (1, 2, 3))
    iso = polytope.find_isomorphisms(fig, big)[0]
    out = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        for i in range(3):
            out[i][iso[f] - 1] = rows[i][f - 1]
    return big, charmat.CharMatrix(out)


def _double_cube_op(pairs):
    def run():
        return [structure.decompose_cube_connsum(p, lam) for p, lam in pairs]

    def summarize(reports):
        return {
            "pairs": len(reports),
            "decompositions": digest([
                [rep.verdict, rep.detail.get("seam_det"),
                 [_rows(piece.matrix) for piece in rep.pieces]]
                for rep in reports
            ]),
        }

    return Op("double-cube-decompose", run, summarize)


def _build_string_search(scale, seed, tmp):
    if scale == "full":
        prisms, glue = ((6, 1), (4, 2)), 16
    else:
        prisms, glue = ((4, 1),), 2
    ops = [_prism_campaign(s, b) for s, b in prisms]
    ops.append(_double_cube_op(_double_cube_pairs(glue)))
    params = {
        "searches": [f"prism({s}) bound {b} string + decompose_prism" for s, b in prisms],
        "double_cube_pairs": glue + 1,
    }
    return ops, params, lambda: _search(polytope.prism(4), 1, "string"), {}


# ---------------------------------------------------------------------------
# class-census: valid-filter polygon census with per-class coefficients


def _census_op(m: int, bound: int, dedup: str):
    p = polytope.polygon(m)

    def run():
        survivors, _stats = _search(p, bound, "valid", dedup)
        coeffs = []
        for lam in survivors:
            _ls, total = stringcheck.polygon_closed_form(lam)
            pres = cohomology.presentation_deg4(p, lam)
            basis = cohomology.greedy_basis(pres)
            engine = cohomology.reduce_to_basis(pres, cohomology.p1_vector(p, lam), basis)
            coeffs.append([total, [list(b) for b in basis], engine])
        return survivors, coeffs

    def summarize(result):
        survivors, coeffs = result
        out = _survivor_summary(survivors)
        out["coefficients"] = digest(coeffs)
        return out

    tag = "auto" if dedup != "signs" else "signs"
    return Op(f"polygon{m}-b{bound}-{tag}", run, summarize)


def _build_class_census(scale, seed, tmp):
    if scale == "full":
        census = [(m, 3, "signs") for m in range(3, 7)] + [(6, 1, "signs+automorphisms")]
    else:
        census = [(m, 2, "signs") for m in range(3, 6)] + [(4, 1, "signs+automorphisms")]
    ops = [_census_op(*c) for c in census]
    params = {"census": [f"polygon({m}) bound {b} dedup {d}" for m, b, d in census]}
    return ops, params, lambda: _search(polytope.polygon(4), 1, "valid"), {}


# ---------------------------------------------------------------------------
# smallcover-census: the mod-2 path


def _criteria_op(label, lists):
    def run():
        return [smallcover.verify_simplex_product_criterion(ns) for ns in lists]

    def summarize(found):
        return {"x".join(map(str, ns)): f for ns, f in zip(lists, found)}

    return Op(f"criteria-{label}", run, summarize)


def _claim_op(claim):
    def run():
        return harness.verify_claim(claim)

    def summarize(rep):
        return {"verdict": rep.verdict, "survivors": rep.statistics.get("survivors")}

    return Op(claim, run, summarize)


def _mod2_search_op(p, label):
    def run():
        survivors, _stats = _search(p, 1, "string", mod2=True)
        return survivors

    return Op(f"mod2-string-{label}", run, _survivor_summary)


# Factor lists of the simplex-product criterion, in three ops.  Most
# lists take a few milliseconds; grouping them keeps every op long
# enough to time steadily.
CRITERION_GROUPS = {
    "one-factor": ((2,), (3,), (4,), (5,), (6,), (7,)),
    "two-factor": ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)),
    "2x2x2": ((2, 2, 2),),
}


def _build_smallcover_census(scale, seed, tmp):
    if scale == "full":
        groups, (a, b) = CRITERION_GROUPS, (5, 4)
    else:
        groups, (a, b) = {"one-factor": ((2,), (3,)), "two-factor": ((2, 2),)}, (4, 3)
    space, label = polytope.product(polytope.polygon(a), polytope.polygon(b)), f"c{a}xc{b}"
    ops = [_criteria_op(name, lists) for name, lists in groups.items()]
    ops.append(_claim_op("c5xc5-not-spin"))
    ops.append(_mod2_search_op(space, label))
    params = {
        "criterion_lists": [list(ns) for lists in groups.values() for ns in lists],
        "claims": ["c5xc5-not-spin"],
        "mod2_string_search": label,
    }
    return ops, params, lambda: smallcover.verify_simplex_product_criterion((2, 2)), {}


# ---------------------------------------------------------------------------
# pair-check: a seeded stream of check-string requests through the CLI


def pair_pool(scale):
    """(label, polytope, matrix) for every pool pair, in a fixed order."""
    pool = []

    def add_search(label, p, bound, filt):
        survivors, _ = _search(p, bound, filt)
        pool.extend((f"{label}#{i}", p, lam) for i, lam in enumerate(survivors))

    hex_prism = charmat.CharMatrix([
        [1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 2],
    ])
    c45_rows = [
        [1, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1, 2, 2, 2],
        [0, 0, 1, 0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 1],
    ]
    base = polytope.product(polytope.polygon(4), polytope.polygon(5))
    relabel = {1: 1, 2: 2, 3: 5, 4: 6, 5: 3, 6: 4, 7: 7, 8: 8, 9: 9}
    c45 = polytope.SimplePolytope(
        4, 9, [tuple(sorted(relabel[f] for f in v)) for v in base.vertices]
    )
    if scale == "full":
        add_search("polygon5-b2", polytope.polygon(5), 2, "valid")
        add_search("polygon6-b1", polytope.polygon(6), 1, "valid")
        add_search("cube3-b1-string", polytope.cube(3), 1, "string")
        add_search("prism4-b1-string", polytope.prism(4), 1, "string")
        pool.append(("hex-prism", polytope.prism(6), hex_prism))
        pool.append(("hex-piece-1", polytope.prism(4), charmat.CharMatrix(
            [[1, 0, 0, 1, 0, 1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 1, 1, 2]])))
        pool.append(("hex-piece-2", polytope.prism(4), charmat.CharMatrix(
            [[1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 2]])))
        pool.append(("c4xc5", c45, charmat.CharMatrix(c45_rows)))
        pool.append(("q-x-square", stringcheck.q_prism_polytope(5), charmat.CharMatrix([
            [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 2, 0, 2, 2, 0, 1, 0, 1, 0],
            [0, 0, 0, 0, 2, 2, 1, 3, 0, 1, 0, 1],
        ])))
        for i, (p, lam) in enumerate(_double_cube_pairs(4)):
            pool.append((f"double-cube#{i}", p, lam))
    else:
        add_search("polygon4-b2", polytope.polygon(4), 2, "valid")
        add_search("cube3-b1-string", polytope.cube(3), 1, "string")
        pool.append(("hex-prism", polytope.prism(6), hex_prism))
        pool.append(("c4xc5", c45, charmat.CharMatrix(c45_rows)))
    return pool


def scramble(lam, rng) -> list:
    """Rows of an equivalent matrix: a few unimodular row operations and
    random column sign flips, so the request arrives unrefined."""
    rows = [list(r) for r in lam.rows]
    n, m = len(rows), len(rows[0])
    for _ in range(3):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    for col in range(m):
        if rng.random() < 0.5:
            for r in rows:
                r[col] = -r[col]
    return rows


def _request_op(argv, index):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def summarize(result):
        code, text = result
        if code not in (0, 1):
            return {"exit": code}
        reply = json.loads(text)
        return {
            "exit": code,
            "spin": reply["spin"],
            "string": reply["string"],
            "method": reply["method"],
        }

    return Op(f"pool/{index}", run, summarize)


def write_requests(pool, tmp, stream):
    """Write polytope and matrix files; `stream` is a list of (pool index,
    rows).  Returns one Op per request."""
    poly_files = {}
    for label, p, _lam in pool:
        key = id(p)
        if key not in poly_files:
            path = os.path.join(tmp, f"polytope-{len(poly_files)}.json")
            with open(path, "w") as fh:
                json.dump(p.to_dict(), fh)
            poly_files[key] = path
    ops = []
    for r, (index, rows) in enumerate(stream):
        path = os.path.join(tmp, f"request-{r}.json")
        with open(path, "w") as fh:
            json.dump({"rows": rows}, fh)
        argv = ["check-string", "-p", poly_files[id(pool[index][1])], "-m", path]
        ops.append(_request_op(argv, index))
    return ops


def pool_digest(pool) -> str:
    return digest([[label, p.num_facets, [list(v) for v in p.vertices], _rows(lam)]
                   for label, p, lam in pool])


def _build_pair_check(scale, seed, tmp):
    pool = pair_pool(scale)
    reps = 8 if scale == "full" else 2
    rng = random.Random(seed)
    order = [i for i in range(len(pool)) for _ in range(reps)]
    rng.shuffle(order)
    stream = [(i, scramble(pool[i][2], rng)) for i in order]
    ops = write_requests(pool, tmp, stream)
    params = {"pool_pairs": len(pool), "requests_per_pass": len(ops), "scramble_ops": 3}
    return ops, params, ops[0].run, {"pool": pool_digest(pool)}


_BUILDERS = {
    "string-search": _build_string_search,
    "class-census": _build_class_census,
    "smallcover-census": _build_smallcover_census,
    "pair-check": _build_pair_check,
}


def build(workload: str, scale: str, seed: int, tmp: str) -> Plan:
    """All set-up for one run of `workload`: inputs, files, warm-up."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    ops, params, warmup, checks = _BUILDERS[workload](scale, seed, tmp)
    params = dict(params, scale=scale, ops_per_pass=len(ops))
    params["tail_percentile"] = TAIL_PERCENTILE[workload]
    return Plan(params, ops, warmup, checks)
