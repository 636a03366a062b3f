"""Bounded exhaustive search over characteristic matrices, plus named
verification campaigns.

The enumerator fixes the refined form at the polytope's first vertex
and assigns the remaining columns in ascending facet order, depth
first, each column running through its value range lexicographically.
So the walk meets its leaves in lexicographic order of their free
column sequences.  A branch dies the moment a fully-assigned vertex
has a non-unit determinant, or, under the spin and string filters, the
moment a column sum comes out even.  The output carries one
representative per equivalence class, the first leaf of the class in
walk order, which is deterministic.

The vertex test filters values by mask rather than one determinant per
value.  When column f is assigned, every vertex it completes has its
other n - 1 columns fixed, so the vertex's determinant is linear in
the new column: det = +-c.x, with c the cofactor vector of those
columns (`intlin.cofactors`; over GF(2) the normal mask
`intlin.f2_normal`, and det = parity(c & x)).  Once per node the walk
looks up, for each such vertex, the mask of column values x with
|c.x| = 1, ANDs the masks, and then tests one bit per value.  Both
lookups are memoized for the life of the search: the mask by the
tuple of the vertex's other columns, so c is computed once per
distinct tuple rather than once per node, and behind it the mask by
c alone (a dependent set of columns gives c = 0 and the empty mask).
Values are still counted one by one, so the node and time caps and
every counter read as with a determinant per value.

Over the integers each free column only takes values whose first
nonzero entry is negative: one member of each column sign orbit.
This drops no class and changes no representative.  Both dedup groups
contain every column sign flip, and a flip changes neither |det| at a
vertex nor the parity of a column sum, so it maps a leaf to a leaf
that passes the same filters and lies in the same class.  Take the
first leaf of a class in the unrestricted walk.  If one of its free
columns had a positive first nonzero entry, flipping that column
would give a leaf of the same class that is lexicographically
smaller, because every column's values run lexicographically upward
from (-B, ..., -B); that leaf would have been met first.  So the first
leaf of every class lies in the restricted walk, which visits a
subsequence of the old leaves in the same order: the survivors, their
order and their rows are those of the unrestricted walk.  The zero
column is left out too; it makes every vertex on its facet singular.

What is left of the `signs` group on these leaves are the row sign
patterns s with s_0 = +1 (negating every row fixes every normalized
column), each followed by flipping the identity columns back: a free
column x whose first nonzero entry sits in row f maps to s_f * (s o x).
The action is column by column, so the walk compares each prefix with
its image under every pattern still tied with it (tables built once
per search: for each value, the patterns that map it below itself and
those that fix it).  A value whose image under a tied pattern is
smaller is skipped, with its whole subtree (a lex prune); a pattern
whose image is larger is satisfied for good.  Every leaf that is
reached is thus the lex-least member of its sign orbit (a lex leader),
and the first leaf of a class in walk order is exactly that member, so
it is never pruned: the survivors, their order and their rows stay
those of the unrestricted walk.  Under `signs` every leaf reached is
its own class, so no canonical key is computed and nothing is
remembered.  Under `signs+automorphisms` the leaves are deduplicated
by canonical key, in first-encounter order, and every key is
remembered whether its leaf passes the string test or not: being
string is an invariant of the class, so no class is tested twice.
The string test at a leaf reads p_1 off the leaf's columns through the
polytope's relation template at the base vertex
(`cohomology.p1_vanishes`): the walk has already checked every vertex,
and the parity filter has made every column sum odd, so the leaf is
spin.  A `CharMatrix` is built only for a leaf that needs a canonical
key or survives.

The mod-2 walk has no residual symmetry to break (over GF(2) a sign
flip is trivial), so its table marks no pattern.  It keeps one bitmask
per column, bit i for row i, so its column-tuple memo is keyed by
masks.  Its string test reads the degree-2 class off those masks
through the same relation template (`smallcover._w2_vanishes`, one
GF(2) elimination per leaf), and a `CharMatrix` is built only for a
survivor, by the same checked constructor as over Z.
It does not dedup: two leaves differ in some free column, so every
leaf has its own rows and dedup_hits is 0 by construction.

Entry bounds are part of every verdict: matrices exist at every bound,
so a negative campaign only ever says "none with entries up to B".

`verify_claim` packages the named campaigns used by the test suite and
the command line: each claim re-checks its witnesses through the core
modules and reports verified / counterexample / resource-capped with
reproducible statistics.  Every claim that searches hands the node and
time caps to its search, and a NaN time cap is refused for every claim
by the check `SearchSpec` uses.  The claims that check each survivor of
a search share one driver, `_search_campaign`: such a claim is verified
exactly when no survivor yields a counterexample record.
"""

from __future__ import annotations

import itertools
import math
import platform
import random
import time
from dataclasses import dataclass, field

from . import __version__, intlin
from .charmat import CharMatrix, canonical_key
from .cohomology import p1_vanishes, relation_template
from .polytope import SimplePolytope, connected_sum, cube, key_obstruction, polygon, prism, product
from .smallcover import (
    _w2_vanishes,
    simplex_product,
    verify_simplex_product_criterion,
    SmallCoverError,
)
from .stringcheck import (
    cyclic_identities,
    is_spin,
    is_string,
    polygon_closed_form,
    polygon_parity_criterion,
    random_cyclic_instance,
)
from .structure import (
    _decompose_cube_connsum,
    _decompose_prism,
    bott_triangularize,
)


class HarnessError(ValueError):
    pass


class ResourceCapExceeded(RuntimeError):
    """Raised when a search outgrows its node or time budget.

    Carries the partial statistics so callers can report how far the
    search got; partial survivor lists are never returned as if they
    were complete.
    """

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


def _check_max_seconds(max_seconds: float) -> None:
    if math.isnan(max_seconds):
        # every comparison with NaN is false, so the time cap never fires
        raise HarnessError("max_seconds must be a number, got NaN")


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: polytope, entry bound, dedup group, filter.

    filter is one of "valid", "spin", "string" (each contained in the
    previous).  With mod2_only the entries live in {0,1}, the vertex
    condition is invertibility over GF(2), "spin" means all column
    sums odd (orientable double cover condition), and "string" is the
    small cover string test.
    """

    polytope: SimplePolytope
    bound: int = 1
    dedup: str = "signs"
    filter: str = "valid"
    mod2_only: bool = False
    max_nodes: int = 10**9
    max_seconds: float = 3600.0

    def __post_init__(self):
        if self.mod2_only:
            # the GF(2) walk never reads the bound: its entries are 0 and 1
            if self.bound != 1:
                raise HarnessError(f"mod-2 enumeration takes bound 1 only, got {self.bound}")
        elif self.bound < 1:
            raise HarnessError("entry bound must be at least 1")
        _check_max_seconds(self.max_seconds)
        if self.filter not in ("valid", "spin", "string"):
            raise HarnessError(f"unknown filter {self.filter!r}")
        if self.dedup not in ("signs", "signs+automorphisms"):
            raise HarnessError(f"unknown dedup group {self.dedup!r}")
        if self.mod2_only and self.dedup != "signs":
            raise HarnessError("mod-2 enumeration takes dedup 'signs' only")


def _completion_schedule(p: SimplePolytope, base, free):
    """For each free-column position, the vertices that become fully
    assigned once that column gets its value, each given by its other
    n - 1 facets."""
    base_set = set(base)
    pos = {f: t for t, f in enumerate(free)}
    schedule = [[] for _ in free]
    for v in p.vertices:
        outside = [f for f in v if f not in base_set]
        if not outside:
            continue
        last = max(pos[f] for f in outside)
        schedule[last].append(tuple(g for g in v if g != free[last]))
    return schedule


def _lex_table(values, n: int):
    """The mask of every pattern, and (value, below, equal) for each
    integer column value.

    Bit k of a mask stands for the k-th nontrivial row sign pattern s
    with s_0 = +1.  Under s a column x whose first nonzero entry sits in
    row f maps to s_f * (s o x), which again has its first nonzero entry
    negative; `below` marks the patterns whose image of x is
    lexicographically smaller than x, `equal` those that fix x.
    """
    patterns = [
        [-1 if pattern >> i & 1 else 1 for i in range(n)]
        for pattern in range(2, 1 << n, 2)
    ]
    table = []
    for x in values:
        f = next(i for i, t in enumerate(x) if t)
        below = equal = 0
        for k, s in enumerate(patterns):
            image = tuple(s[f] * si * t for si, t in zip(s, x))
            if image < x:
                below |= 1 << k
            elif image == x:
                equal |= 1 << k
        table.append((x, below, equal))
    return (1 << len(patterns)) - 1, table


def enumerate_matrices(spec: SearchSpec):
    """All matrices matching ``spec``, one per dedup class.

    Returns (survivors, stats).  stats counts visited nodes, pruned
    assignments (determinant prunes plus string rejections), complete
    candidates and emitted survivors; string_rejects and dedup_hits
    split out the leaves the string test and the automorphism dedup
    dropped.  lex_prunes counts the column values skipped because a row
    sign pattern maps the prefix below itself (always 0 on the mod-2
    walk), and parity_prunes the column values the spin/string parity
    filter removes, once per expanded interior node.  elapsed is the
    wall time in seconds.  Raises ResourceCapExceeded rather than
    returning a truncated list.
    """
    p = spec.polytope
    n, m = p.dim, p.num_facets
    base = p.vertices[0]
    free = tuple(f for f in range(1, m + 1) if f not in set(base))
    schedule = _completion_schedule(p, base, free)
    mod2 = spec.mod2_only
    if mod2:
        values = list(itertools.product((0, 1), repeat=n))
    else:
        rng_vals = range(-spec.bound, spec.bound + 1)
        # one member per column sign orbit: first nonzero entry negative
        values = [
            v
            for v in itertools.product(rng_vals, repeat=n)
            if next((x for x in v if x), 0) < 0
        ]
    unfiltered = len(values)
    if spec.filter in ("spin", "string"):
        values = [v for v in values if sum(v) % 2 == 1]
    parity_cut = unfiltered - len(values)
    if mod2:
        # a column value is its bitmask, bit i for row i; no sign
        # pattern is left to break, so every value is always open
        values = [intlin.f2_mask(v) for v in values]
        every_pattern, table = 0, [(v, 0, 0) for v in values]
    else:
        every_pattern, table = _lex_table(values, n)
    every_value = (1 << len(table)) - 1
    # tied mask -> the (table index, value, child's tied mask) triples it
    # does not prune; a tied mask is the stabilizer of the prefix, a
    # subgroup, so few occur
    options: dict[int, list] = {}

    # col[f] is column f: a bitmask over GF(2), an n-tuple over Z
    col = [0] * (m + 1)
    for k, f in enumerate(base):
        col[f] = 1 << k if mod2 else tuple(int(i == k) for i in range(n))

    stats = {
        "nodes": 0,
        "pruned": 0,
        "candidates": 0,
        "survivors": 0,
        "string_rejects": 0,
        "dedup_hits": 0,
        "lex_prunes": 0,
        "parity_prunes": 0,
        "elapsed": 0.0,
    }
    survivors = []
    seen = set()
    if spec.filter == "string":
        template = relation_template(p, base)
    started = time.monotonic()

    def capped(reason: str) -> ResourceCapExceeded:
        stats["elapsed"] = time.monotonic() - started
        return ResourceCapExceeded(f"{reason} budget exhausted", dict(stats))

    # cofactor vector c -> the table indices of the values x with
    # |c.x| = 1, an odd popcount of c & x over GF(2); one entry per
    # distinct c, however many nodes share it
    admissible: dict = {}

    def admissible_values(c) -> int:
        mask = admissible.get(c)
        if mask is None:
            mask = 0
            for i, (x, _below, _equal) in enumerate(table):
                if mod2:
                    hit = (c & x).bit_count() & 1
                else:
                    hit = abs(sum(a * b for a, b in zip(c, x))) == 1
                if hit:
                    mask |= 1 << i
            admissible[c] = mask
        return mask

    if mod2:
        def normal(cols):
            return intlin.f2_normal(cols, n)
    else:
        # the columns of a vertex as rows: the transpose has the same det
        normal = intlin.cofactors
    # a vertex's other columns -> their admissible values; lives as long
    # as the search
    by_columns: dict = {}

    def vertex_values(gs) -> int:
        cols = tuple(map(col.__getitem__, gs))
        mask = by_columns.get(cols)
        if mask is None:
            mask = by_columns[cols] = admissible_values(normal(cols))
        return mask

    def reject() -> None:
        stats["pruned"] += 1
        stats["string_rejects"] += 1

    def emit() -> None:
        stats["candidates"] += 1
        if mod2:
            # as over Z, the parity filter made the leaf orientable, so
            # only the degree-2 class is left to decide
            if spec.filter == "string" and not _w2_vanishes(template, col):
                reject()
                return
            lam = CharMatrix(
                [[c >> i & 1 for c in col[1:]] for i in range(n)], refined_at=base
            )
        else:
            # the parity filter made every column sum odd, so a
            # string-walk leaf is spin; only p_1 is left to decide
            lam = None
            if spec.dedup == "signs+automorphisms":
                lam = CharMatrix(list(zip(*col[1:])), refined_at=base)
                key = canonical_key(p, lam, group=spec.dedup)
                if key in seen:
                    stats["dedup_hits"] += 1
                    return
                seen.add(key)
            if spec.filter == "string" and not p1_vanishes(template, col):
                reject()
                return
            if lam is None:
                lam = CharMatrix(list(zip(*col[1:])), refined_at=base)
        survivors.append(lam)
        stats["survivors"] += 1

    def walk(t: int, tied: int) -> None:
        if t == len(free):
            emit()
            return
        opts = options.get(tied)
        if opts is None:
            opts = options[tied] = [
                (i, val, tied & equal)
                for i, (val, below, equal) in enumerate(table)
                if not tied & below
            ]
        stats["lex_prunes"] += len(table) - len(opts)
        stats["parity_prunes"] += parity_cut
        # every vertex this column completes has its other n - 1 columns
        # fixed, so its determinant is linear in the column: one cofactor
        # per vertex decides every value at once
        ok = every_value
        for gs in schedule[t]:
            ok &= vertex_values(gs)
            if not ok:
                break
        f = free[t]
        for i, val, still_tied in opts:
            stats["nodes"] += 1
            if stats["nodes"] > spec.max_nodes:
                raise capped("node")
            if stats["nodes"] % 4096 == 0:
                if time.monotonic() - started > spec.max_seconds:
                    raise capped("time")
            if ok >> i & 1:
                col[f] = val
                walk(t + 1, still_tied)
            else:
                stats["pruned"] += 1

    try:
        walk(0, every_pattern)
    finally:
        # walk's closure refers to walk: break that cycle, or the
        # search's working set lives on until the cycle collector runs
        del walk
    stats["elapsed"] = time.monotonic() - started
    return survivors, stats


# ---------------------------------------------------------------------------
# claim campaigns


@dataclass
class ClaimReport:
    claim: str
    params: dict
    verdict: str  # "verified" | "counterexample" | "resource-capped"
    statistics: dict
    witnesses: list = field(default_factory=list)
    # the versions that produced the report, so a rerun can match them
    qtm_version: str = __version__
    python_version: str = field(default_factory=platform.python_version)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": dict(self.params),
            "verdict": self.verdict,
            "statistics": dict(self.statistics),
            "witnesses": list(self.witnesses),
            "qtm_version": self.qtm_version,
            "python_version": self.python_version,
        }


def _search_campaign(spec: SearchSpec, witness):
    """Run spec's search and check every survivor: witness(lam) returns
    a counterexample record for lam, or None when lam bears the claim
    out.  The claim is verified exactly when no survivor gives a
    record; stats["checked"] counts the survivors checked."""
    survivors, stats = enumerate_matrices(spec)
    witnesses = [w for w in map(witness, survivors) if w is not None]
    stats["checked"] = len(survivors)
    return ("verified" if not witnesses else "counterexample"), stats, witnesses


def _claim_odd_gon_not_spin(params, caps):
    m = int(params.get("m", 5))
    bound = int(params.get("bound", 3))
    if m % 2 == 0 or m < 3:
        raise HarnessError("claim needs an odd m >= 3")
    p = polygon(m)
    spec = SearchSpec(p, bound, "signs", "spin", **caps)
    survivors, stats = enumerate_matrices(spec)
    # anything the column-parity filter lets through gets a second
    # opinion from the characteristic-class engine
    witnesses = [{**lam.to_dict(), "spin": is_spin(p, lam)} for lam in survivors]
    verdict = "verified" if not survivors else "counterexample"
    return verdict, stats, witnesses


def _claim_polygon_parity(params, caps):
    m = int(params.get("m", 4))
    bound = int(params.get("bound", 3))
    p = polygon(m)

    def witness(lam):
        engine, parity = is_string(p, lam), polygon_parity_criterion(lam)
        if engine == parity:
            return None
        return {**lam.to_dict(), "engine": engine, "parity": parity}

    return _search_campaign(SearchSpec(p, bound, "signs", "valid", **caps), witness)


def _claim_polygon_bordism_parity(params, caps):
    m = int(params.get("m", 4))
    bound = int(params.get("bound", 3))

    def witness(lam):
        _ls, total = polygon_closed_form(lam)
        return None if total % 2 == m % 2 else {**lam.to_dict(), "total": total}

    spec = SearchSpec(polygon(m), bound, "signs", "valid", **caps)
    return _search_campaign(spec, witness)


def _claim_cube_string_is_bott(params, caps):
    n = int(params.get("n", 3))
    bound = int(params.get("bound", 2))

    def witness(lam):
        form = bott_triangularize(n, lam)
        if form.verdict == "triangular":
            return None
        return {**lam.to_dict(), "witness": form.witness}

    return _search_campaign(SearchSpec(cube(n), bound, "signs", "string", **caps), witness)


def _claim_cyclic_identities(params, caps):
    k = int(params.get("k", 4))
    trials = int(params.get("trials", 10000))
    bound = int(params.get("bound", 5))
    if k < 3:
        raise HarnessError("cyclic identities need k >= 3")
    if trials < 1:
        raise HarnessError(f"cyclic identities need trials >= 1, got {trials}")
    rng = random.Random(1_000_003 * k + trials)
    witnesses = []
    for _ in range(trials):
        cols = random_cyclic_instance(k, bound, rng)
        s1, s2 = cyclic_identities(cols)
        if (s1, s2) != (4, 0):
            witnesses.append({"cols": cols, "s1": s1, "s2": s2})
    stats = {"trials": trials, "failures": len(witnesses)}
    verdict = "verified" if not witnesses else "counterexample"
    return verdict, stats, witnesses


def _claim_prism_decompose(params, caps):
    k = int(params.get("k", 2))
    bound = int(params.get("bound", 2))
    if k < 2:
        raise HarnessError("prism decomposition campaign needs k >= 2")
    p = prism(2 * k)

    def witness(lam):
        # a string-walk survivor is valid and string: hand both over
        rep = _decompose_prism(p, k, lam, string=True)
        ok = (
            rep.verdict in ("decomposed", "irreducible")
            and all(piece.string for piece in rep.pieces)
            and all(step["verified"] for step in rep.reassembly)
        )
        return None if ok else {**lam.to_dict(), "verdict": rep.verdict}

    return _search_campaign(SearchSpec(p, bound, "signs", "string", **caps), witness)


def _claim_cube_connsum(params, caps):
    bound = int(params.get("bound", 1))
    p, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))

    def witness(lam):
        rep = _decompose_cube_connsum(p, lam, string=True)
        ok = rep.verdict == "decomposed" and all(piece.string for piece in rep.pieces)
        return None if ok else {**lam.to_dict(), "verdict": rep.verdict}

    return _search_campaign(SearchSpec(p, bound, "signs", "string", **caps), witness)


def _claim_c5xc5_not_spin(params, caps):
    p = product(polygon(5), polygon(5))
    spec = SearchSpec(p, 1, "signs", "spin", mod2_only=True, **caps)
    survivors, stats = enumerate_matrices(spec)
    witnesses = [lam.to_dict("rows_mod2") for lam in survivors]
    verdict = "verified" if not survivors else "counterexample"
    return verdict, stats, witnesses


def _claim_product_simplices_obstruction(params, caps):
    ns = tuple(int(x) for x in params.get("ns", (2,)))
    if not ns or not any(x >= 2 for x in ns):
        raise HarnessError("claim needs some factor of dimension >= 2")
    poly, _blocks = simplex_product(ns)
    hit = key_obstruction(poly)
    stats = {"ns": list(ns), "vertices": len(poly.vertices)}
    if hit is None:
        return "counterexample", stats, [{"ns": list(ns), "obstruction": None}]
    v, f = hit
    # re-verify the witness with the polytope's own face test
    ok = all(poly.is_face((f, g)) for g in v) and f not in v
    verdict = "verified" if ok else "counterexample"
    return verdict, stats, [{"vertex": list(v), "facet": f}]


def _claim_smallcover_simplex_products(params, caps):
    ns = tuple(int(x) for x in params.get("ns", (3,)))
    try:
        found = verify_simplex_product_criterion(ns, **caps)
    except SmallCoverError as exc:
        if "contradicts" in str(exc):
            return "counterexample", {"ns": list(ns)}, [{"error": str(exc)}]
        raise
    expected = all(x % 2 == 1 for x in ns) and any(x % 4 == 3 for x in ns)
    stats = {"ns": list(ns), "exists": found, "expected": expected}
    return "verified", stats, []


# claim id -> (campaign, the parameters it reads)
_CLAIMS = {
    "odd-gon-not-spin": (_claim_odd_gon_not_spin, ("m", "bound")),
    "polygon-parity": (_claim_polygon_parity, ("m", "bound")),
    "polygon-bordism-parity": (_claim_polygon_bordism_parity, ("m", "bound")),
    "cube-string-is-bott": (_claim_cube_string_is_bott, ("n", "bound")),
    "cyclic-identities": (_claim_cyclic_identities, ("k", "trials", "bound")),
    "prism-decompose": (_claim_prism_decompose, ("k", "bound")),
    "cube-connsum": (_claim_cube_connsum, ("bound",)),
    "c5xc5-not-spin": (_claim_c5xc5_not_spin, ()),
    "product-simplices-obstruction": (_claim_product_simplices_obstruction, ("ns",)),
    "smallcover-simplex-products": (_claim_smallcover_simplex_products, ("ns",)),
}

CLAIM_IDS = tuple(sorted(_CLAIMS))


def verify_claim(
    claim_id: str,
    params: dict | None = None,
    *,
    max_nodes: int = 10**9,
    max_seconds: float = 3600.0,
) -> ClaimReport:
    """Run a named campaign and report verified / counterexample.

    Hitting the node or time cap yields verdict "resource-capped" with
    the partial statistics; parameters are echoed back so reports are
    self-describing and reruns reproducible.  A parameter the claim does
    not read is refused before anything runs, so that a report never
    echoes one that played no part in it; so is a NaN max_seconds.
    """
    if claim_id not in _CLAIMS:
        raise HarnessError(
            f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        )
    campaign, reads = _CLAIMS[claim_id]
    params = dict(params or {})
    unread = [key for key in params if key not in reads]
    if unread:
        raise HarnessError(
            f"claim {claim_id!r} does not read {', '.join(map(repr, unread))}; "
            f"it reads: {', '.join(reads) or 'no parameter'}"
        )
    _check_max_seconds(max_seconds)
    caps = {"max_nodes": max_nodes, "max_seconds": max_seconds}
    try:
        verdict, stats, witnesses = campaign(params, caps)
    except ResourceCapExceeded as exc:
        return ClaimReport(claim_id, params, "resource-capped", exc.stats, [])
    return ClaimReport(claim_id, params, verdict, stats, witnesses)
