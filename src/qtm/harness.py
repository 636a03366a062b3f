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
|c.x| = 1, and ANDs the masks with the mask of the values the lex
table leaves open.  Both lookups are memoized for the life of the
search: the mask by the tuple of the vertex's other columns, so c is
computed once per distinct tuple rather than once per node, and behind
it the mask by c alone (a dependent set of columns gives c = 0 and the
empty mask).

The loop at a node then runs once per set bit of that mask, an
admissible value, and once more after the last.  Each open value is
still one node, in table order: the open values between two admissible
ones form a run of pruned nodes, whose length is the popcount of the
open mask below the next admissible bit less the values already
visited, and `nodes` and `pruned` advance by it in one step.  A cap
reads the same within a run as it did value by value: the node cap
fires at node max_nodes + 1 with every value before it counted pruned,
and the clock is read at every node index of the run that is 1 mod
4096, with `nodes` set to that index if it fires.  So every counter,
the node at which a cap fires and the stats it reports are those of a
loop that visits each value in turn.

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
The action is column by column, and one step, `_sign_images`, gives a
column's images under every pattern, the identity first.  The walk
compares each prefix with its image under every pattern still tied
with it (tables built once per search from those images: for each
value, the patterns that map it below itself and those that fix it).
A value whose image under a tied pattern is smaller is skipped, with
its whole subtree (a lex prune); a pattern whose image is larger is
satisfied for good.  Every leaf that is reached is thus the lex-least
member of its sign orbit (a lex leader), and the first leaf of a class
in walk order is exactly that member, so it is never pruned: the
survivors, their order and their rows stay those of the unrestricted
walk.  Under `signs` every leaf reached is its own class, so nothing is
remembered.

Under `signs+automorphisms` a class is remembered by its orbit
leaders.  When a leaf L opens a new class, each automorphism sigma of
the polytope gives the pair sigma(L); its walk form is its free-column
sequence refined at the base vertex, each free column flipped to first
nonzero entry negative, least over the row sign patterns above
(`_orbit_leaders`).  Every walk form goes into `seen`, and a later leaf
is one set lookup of its own free columns.  This drops exactly the
leaves of earlier classes.  A later leaf L' of the class of L is g.L,
with g a row basis change, column sign flips and an automorphism
sigma.  A row basis change between two pairs refined at the base maps
the identity block to a signed identity block, so it is a row sign
pattern; g.L and sigma(L) thus differ by a row sign pattern and column
flips, and have the same walk form.  L' is refined at the base, its
free columns have first nonzero entry negative, and it is the lex
leader of its sign orbit, so it is its own walk form: L' equals the
walk form of sigma(L), which is in `seen`.  Conversely every sequence
in `seen` is the free columns of a pair in an earlier class, so no
leaf of a new class is dropped.  The walk and its order do not change,
so the first leaf of each class is still the one emitted, in
first-encounter order.  The leaders go into `seen` before the string
test, so a string-rejected class is remembered too: being string is an
invariant of the class, so no class is tested twice.

sigma(L) refined at the base is L refined at the source vertex
w = sigma^-1(base), its columns relabelled by sigma and its rows put in
base order.  Which w, which relabelling and which row order depend on
sigma and the polytope alone, so the search builds them once, with the
sign patterns, before the walk: `_image_plan` groups the automorphisms
by w, and keeps for each its row order and the facet of L whose column
becomes each free column of sigma(L).  `_orbit_leaders` reads L off the
walk's columns and builds no matrix.  Refining at w is the row basis
change u = A_w^-1, with A_w the matrix whose columns are those of w:
the refined pair has column u c_j for each column c_j of L, and
`charmat.refine` returns the rows of that same product (or L itself
when w is the base, where A_w and u are the identity).  So per class,
one `intlin.inverse_unimodular` of A_w per source vertex and one
`intlin.mat_vec` per column give the refined columns unchanged; the
inverse raises on a block that is not unimodular, which no leaf has.
Per automorphism only column work is left: permute each free column's
rows, flip it to first nonzero entry negative, and look up its images.
A dict, filled on first use and kept for the search, maps each
normalized column x to `_sign_images(x)`, its image under pattern k at
position k.  With images_t those of the t-th free column, zip(*images)
yields for each pattern k the tuple of the k-th images of every free
column: the whole free-column sequence under pattern k.  So
min(zip(*images)) is the least sequence over the patterns, which is
the walk form.  Only the columns met this way get images, never the
whole value range.

The string test at a leaf reads p_1 off the leaf's columns through the
polytope's relation template at the base vertex
(`cohomology.p1_vanishes`): the walk has already checked every vertex,
and the parity filter has made every column sum odd, so the leaf is
spin.  The template is built at the first leaf the test reaches, so a
node or time cap that fires first never pays for it; the h-vector it
is checked against is taken before the walk (kept, as the template is,
in the package cache), so a complex that is not a sphere is refused
before any node.  A `CharMatrix` is built only for a survivor.

The field is chosen once, in one block before the walk.  It sets the
column values, the lex table, the base columns, the normal vector, the
builder of a normal's admissible mask, the leaf test and how a
survivor's rows are read off the columns; the walk, the vertex test
and the leaf below it are the same code over Z and over GF(2).  The
mod-2 walk has no residual symmetry to break (over GF(2) a sign flip
is trivial), so its table marks no pattern.  Its columns stay
bitmasks, bit i for row i: its column-tuple memo is keyed by masks,
its normal is a mask and a vertex determinant one popcount parity,
where integer cofactors of 0/1 columns would cost an elimination per
minor.  The parity of c & x is the XOR, over the set bits r of c, of
bit r of x; so with row_bits[r] the mask of the values whose bit r is
set, built once before the walk, the admissible mask of a normal c is
the XOR of row_bits[r] over those r: at most n big-integer XORs rather
than a popcount per value.  Its string test reads the degree-2 class
off those masks through the same relation template
(`smallcover._w2_vanishes`, one GF(2) elimination per leaf), and a
`CharMatrix` is built only for a survivor, by the same checked
constructor as over Z.
It does not dedup: two leaves differ in some free column, so every
leaf has its own rows and dedup_hits is 0 by construction.

Entry bounds are part of every verdict: matrices exist at every bound,
so a negative campaign only ever says "none with entries up to B".

`verify_claim` packages the named campaigns used by the test suite and
the command line: each claim re-checks its witnesses through the core
modules and reports verified / counterexample / resource-capped with
reproducible statistics.  `_CLAIMS` is the one place a claim's
parameters and their defaults are written: `verify_claim` takes each
value as given when it has the type of its default (an int, or a list
or tuple of ints for `ns`), refuses any other, a bool or a float
included, and hands the campaign all of them by name.  Next to them
it lists the caps each claim reads: every claim that searches hands the node and time
caps to its search, `cyclic-identities` checks the time cap between its
trials, and `product-simplices-obstruction` reads neither.  The cap
defaults are written once, in `_CAP_DEFAULTS`, which `SearchSpec`,
`verify_claim` and the command line all read.  A cap other than its
default that the claim does not read is refused before anything runs,
and so is a NaN or negative cap, by the check `SearchSpec` uses.  The
claims that check each survivor of a search share one driver,
`_search_campaign`: such a claim is verified exactly when no survivor
yields a counterexample record.  A search survivor is valid and
refined at the base by construction, so `odd-gon-not-spin`,
`polygon-bordism-parity`, `cube-string-is-bott`, `prism-decompose` and
`cube-connsum` hand theirs to cores that do not validate again
(`_spin`, `_polygon_closed_form`, `_bott_triangularize`,
`_decompose_prism`, `_decompose_cube_connsum`).
"""

from __future__ import annotations

import itertools
import math
import platform
import random
import time
from dataclasses import asdict, dataclass, field
from operator import mul

from . import __version__, intlin
from .charmat import CharMatrix
from .cohomology import p1_vanishes, relation_template
from .polytope import (
    SimplePolytope,
    connected_sum,
    cube,
    key_obstruction,
    polygon,
    prism,
    product,
)
from .smallcover import (
    CriterionContradiction,
    _w2_vanishes,
    simplex_product,
    verify_simplex_product_criterion,
)
from .stringcheck import (
    _polygon_closed_form,
    _spin,
    cyclic_identities,
    is_string,
    polygon_parity_criterion,
    random_cyclic_instance,
)
from .structure import _bott_triangularize, _decompose_cube_connsum, _decompose_prism


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


# the caps a search or claim takes when none is given
_CAP_DEFAULTS = {"max_nodes": 10**9, "max_seconds": 3600.0}
# the most integer column values (2 * bound + 1) ** dim a search may
# tabulate: the tables are built before any cap is read
MAX_COLUMN_VALUES = 2**18
# the filters and dedup groups a search takes, which the command line
# offers as they are
_FILTERS = ("valid", "spin", "string")
_DEDUP_GROUPS = ("signs", "signs+automorphisms")


def _check_integer_bound(bound: int, dim: int) -> None:
    """Refuse an integer entry bound below 1, or one whose column values
    in dimension dim are past MAX_COLUMN_VALUES; it needs no polytope, so
    a campaign runs it before building its own."""
    if bound < 1:
        raise HarnessError("entry bound must be at least 1")
    base = 2 * bound + 1
    # base >= 3 has bit length >= 2, so past 64 bits here the count is
    # over 2 ** 32: it is refused as a power, neither formed nor printed
    huge = dim * base.bit_length() > 64
    if huge or base**dim > MAX_COLUMN_VALUES:
        count = f"(2 * {bound} + 1) ** {dim}" if huge else base**dim
        raise HarnessError(
            f"entry bound {bound} in dimension {dim} gives {count} column values, "
            f"over the limit of {MAX_COLUMN_VALUES}"
        )


def _check_caps(max_nodes: int, max_seconds: float) -> None:
    if math.isnan(max_seconds):
        # every comparison with NaN is false, so the time cap never fires
        raise HarnessError("max_seconds must be a number, got NaN")
    # zero is a cap that fires at once; below zero is no cap at all
    for name, cap in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
        if cap < 0:
            raise HarnessError(f"{name} must be at least 0, got {cap}")


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
    max_nodes: int = _CAP_DEFAULTS["max_nodes"]
    max_seconds: float = _CAP_DEFAULTS["max_seconds"]

    def __post_init__(self):
        if type(self.bound) is not int:
            raise HarnessError(f"entry bound must be an int, got {self.bound!r}")
        if self.mod2_only:
            # the GF(2) walk never reads the bound: its entries are 0 and 1
            if self.bound != 1:
                raise HarnessError(f"mod-2 enumeration takes bound 1 only, got {self.bound}")
        else:
            _check_integer_bound(self.bound, self.polytope.dim)
        _check_caps(self.max_nodes, self.max_seconds)
        if self.filter not in _FILTERS:
            raise HarnessError(f"unknown filter {self.filter!r}")
        if self.dedup not in _DEDUP_GROUPS:
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


def _sign_patterns(n: int) -> list[list[int]]:
    """The row sign patterns s with s_0 = +1, the identity first.

    Under s a column x whose first nonzero entry sits in row f maps to
    s_f * (s o x) (`_sign_images`), which keeps the first nonzero entry's
    sign; negating every row fixes every column, so these patterns are
    the whole sign group on the walk's columns.
    """
    return [[-1 if pattern >> i & 1 else 1 for i in range(n)] for pattern in range(0, 1 << n, 2)]


def _sign_images(x, patterns) -> tuple:
    """Column x under each row sign pattern of patterns, in their order:
    with f the row of its first nonzero entry, x maps to s_f * (s o x)."""
    f = next(i for i, t in enumerate(x) if t)
    return tuple([tuple([s[f] * si * t for si, t in zip(s, x)]) for s in patterns])


def _lex_table(values, patterns):
    """The mask of every pattern, and (value, below, equal) for each
    integer column value.

    Bit k of a mask stands for the k-th nontrivial pattern of
    `_sign_patterns`; `below` marks the patterns whose image of x is
    lexicographically smaller than x, `equal` those that fix x.
    """
    table = []
    for x in values:
        below = equal = 0
        for k, image in enumerate(_sign_images(x, patterns)[1:]):
            if image < x:
                below |= 1 << k
            elif image == x:
                equal |= 1 << k
        table.append((x, below, equal))
    return (1 << (len(patterns) - 1)) - 1, table


def _image_plan(base, free, automorphisms) -> dict:
    """The automorphisms grouped by source vertex w = perm^-1(base), for
    `_orbit_leaders`: w maps to one (order, sources) per automorphism
    with that source vertex.  Row k of its image is row order[k] of the
    pair refined at w, and the image's t-th free column is that pair's
    column sources[t] + 1.  It depends on the polytope alone, so a
    search builds it once.
    """
    plan: dict[tuple, list] = {}
    for perm in automorphisms:
        # perm[0] = 0, so inv[perm[f]] = f for every facet f
        inv = sorted(range(len(perm)), key=perm.__getitem__)
        w = tuple(sorted(inv[f] for f in base))
        # row k of the image is the row of identity column inv[base[k]]
        order = [w.index(inv[f]) for f in base]
        plan.setdefault(w, []).append((order, [inv[f] - 1 for f in free]))
    return plan


def _orbit_leaders(col, plan, patterns, memo: dict) -> set:
    """The walk form of every automorphism image of the pair whose
    column f is col[f], refined at the base vertex: each image's
    free-column sequence, refined at that vertex, every column with its
    first nonzero entry negative, least over the row sign patterns.

    plan is the search's `_image_plan`.  The image under an automorphism
    refined at the base is the pair refined at its source vertex w, with
    its columns relabelled and its rows reordered to follow the base; so
    the inverse u of the columns of w is taken once per source vertex,
    and column j refined there is u col[j].  memo maps a normalized
    column to its `_sign_images` under patterns, the identity first; it
    is filled on first use and shared by every call of a search.
    """
    leaders = set()
    for w, images_of in plan.items():
        # raises on a block that is not unimodular, which no valid pair has
        u = intlin.inverse_unimodular(list(zip(*map(col.__getitem__, w))))
        cols = [intlin.mat_vec(u, c) for c in col[1:]]
        for order, sources in images_of:
            images = []
            for j in sources:
                c = cols[j]
                x = tuple([c[i] for i in order])
                if next(t for t in x if t) > 0:
                    x = tuple([-t for t in x])
                if x not in memo:
                    memo[x] = _sign_images(x, patterns)
                images.append(memo[x])
            # zip regroups the images per pattern: one free-column sequence each
            leaders.add(min(zip(*images)))
    return leaders


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
    wall time in seconds, counted from the call, so it includes building
    the value tables; the time cap is read at node 1 and every 4096
    nodes after that, so a cap of 0 fires at node 1, before the string
    test builds its template at the first leaf.  Raises
    ResourceCapExceeded rather than returning a truncated list.
    """
    started = time.monotonic()
    p = spec.polytope
    n, m = p.dim, p.num_facets
    base = p.vertices[0]
    free = tuple(f for f in range(1, m + 1) if f not in set(base))
    schedule = _completion_schedule(p, base, free)
    # fetched before the walk, so a polytope too large for the
    # automorphism search is refused before any node is visited
    plan = None
    if spec.dedup == "signs+automorphisms":
        plan = _image_plan(base, free, p.automorphisms())

    def odd_sums(vectors) -> list:
        # the spin and string filters keep only odd column sums
        if spec.filter in ("spin", "string"):
            return [v for v in vectors if sum(v) % 2 == 1]
        return vectors

    # col[f] is column f, in the representation the field block picks
    col = [0] * (m + 1)
    # the field, chosen once: everything below the block is field-free
    if spec.mod2_only:
        vectors = list(itertools.product((0, 1), repeat=n))
        # a column value is its bitmask, bit i for row i; no sign
        # pattern is left to break, so every value is always open
        values = [intlin.f2_mask(v) for v in odd_sums(vectors)]
        every_pattern, table = 0, [(v, 0, 0) for v in values]
        identity = [1 << k for k in range(n)]

        def normal(cols):
            return intlin.f2_normal(cols, n)

        # row_bits[r]: the table indices of the values with bit r set
        row_bits = [sum(1 << i for i, x in enumerate(values) if x >> r & 1) for r in range(n)]

        def admissible_mask(c) -> int:
            # det = parity(c & x) over GF(2): the XOR over the bits r of
            # c of bit r of x
            mask = 0
            for r in range(n):
                if c >> r & 1:
                    mask ^= row_bits[r]
            return mask

        # the parity filter made a string-walk leaf orientable, so only
        # the degree-2 class is left to decide
        vanishes = _w2_vanishes

        def rows():
            return [[c >> i & 1 for c in col[1:]] for i in range(n)]
    else:
        rng_vals = range(-spec.bound, spec.bound + 1)
        # one member per column sign orbit: first nonzero entry negative
        vectors = [
            v
            for v in itertools.product(rng_vals, repeat=n)
            if next((x for x in v if x), 0) < 0
        ]
        values = odd_sums(vectors)
        patterns = _sign_patterns(n)
        every_pattern, table = _lex_table(values, patterns)
        identity = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        # the columns of a vertex as rows: the transpose has the same det
        normal = intlin.cofactors

        def admissible_mask(c) -> int:
            mask = 0
            for i, x in enumerate(values):
                if abs(sum(map(mul, c, x))) == 1:
                    mask |= 1 << i
            return mask

        # the parity filter made a string-walk leaf spin, so only p_1 is
        # left to decide
        vanishes = p1_vanishes

        def rows():
            return list(zip(*col[1:]))
    parity_cut = len(vectors) - len(values)
    for k, f in enumerate(base):
        col[f] = identity[k]
    # tied mask -> the mask of the table indices it does not prune, and
    # the (value, child's tied mask) pair of each of them in table order;
    # a tied mask is the stabilizer of the prefix, a subgroup, so few occur
    options: dict[int, tuple] = {}
    max_nodes, max_seconds = spec.max_nodes, spec.max_seconds

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
    # the string test's template is built at the first leaf it reaches,
    # so a cap can stop the search before that cost; the h-vector it is
    # checked against is taken now, so a complex that is not a sphere is
    # still refused before any node
    template = None
    if spec.filter == "string":
        p.h_vector()

    def capped(reason: str) -> ResourceCapExceeded:
        stats["elapsed"] = time.monotonic() - started
        return ResourceCapExceeded(f"{reason} budget exhausted", dict(stats))

    # normal vector c -> the table indices of the values x with det = +-1;
    # one entry per distinct c, however many nodes share it
    admissible: dict = {}
    # a vertex's other columns -> their admissible values; lives as long
    # as the search
    by_columns: dict = {}
    # a normalized column -> its images under the row sign patterns, for
    # `_orbit_leaders`; filled on first use, never tabulated up front
    sign_images: dict = {}

    def vertex_values(gs) -> int:
        cols = tuple(map(col.__getitem__, gs))
        mask = by_columns.get(cols)
        if mask is None:
            c = normal(cols)
            mask = admissible.get(c)
            if mask is None:
                mask = admissible[c] = admissible_mask(c)
            by_columns[cols] = mask
        return mask

    def emit() -> None:
        nonlocal template
        stats["candidates"] += 1
        if plan is not None:
            if tuple(map(col.__getitem__, free)) in seen:
                stats["dedup_hits"] += 1
                return
            seen.update(_orbit_leaders(col, plan, patterns, sign_images))
        if spec.filter == "string":
            if template is None:
                template = relation_template(p, base)
            if not vanishes(template, col):
                stats["pruned"] += 1
                stats["string_rejects"] += 1
                return
        survivors.append(CharMatrix(rows(), refined_at=base))
        stats["survivors"] += 1

    def walk(t: int, tied: int) -> None:
        if t == len(free):
            emit()
            return
        entry = options.get(tied)
        if entry is None:
            open_mask, opts = 0, []
            for i, (val, below, equal) in enumerate(table):
                if not tied & below:
                    open_mask |= 1 << i
                    opts.append((val, tied & equal))
            entry = options[tied] = (open_mask, opts)
        open_mask, opts = entry
        stats["lex_prunes"] += len(table) - len(opts)
        stats["parity_prunes"] += parity_cut
        # every vertex this column completes has its other n - 1 columns
        # fixed, so its determinant is linear in the column: one cofactor
        # per vertex decides every value at once
        ok = open_mask
        for gs in schedule[t]:
            ok &= vertex_values(gs)
            if not ok:
                break
        f = free[t]
        done = 0  # the open values this node has visited
        while True:
            # the next admissible value is open value number k; past the
            # last one, k is the count of open values and nothing is hit
            if ok:
                low = ok & -ok
                k = (open_mask & (low - 1)).bit_count()
            else:
                k = len(opts)
            # visit nodes start + 1 .. end as the pruned open values
            # done .. k - 1, then node reach for the hit, if any, reading
            # both caps at the node indices a loop over each value reads
            start = stats["nodes"]
            end = start + k - done
            reach = end + 1 if ok else end
            # the first node index past start that is 1 mod 4096
            tick = start + 1 + -start % 4096
            while tick <= reach and tick <= max_nodes:
                if time.monotonic() - started > max_seconds:
                    stats["pruned"] += tick - 1 - start
                    stats["nodes"] = tick
                    raise capped("time")
                tick += 4096
            if reach > max_nodes:
                stats["pruned"] += max_nodes - start
                stats["nodes"] = max_nodes + 1
                raise capped("node")
            stats["pruned"] += end - start
            stats["nodes"] = reach
            if not ok:
                return
            col[f], still_tied = opts[k]
            walk(t + 1, still_tied)
            done = k + 1
            ok ^= low

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
        return asdict(self)


def _search_campaign(spec: SearchSpec, witness):
    """Run spec's search and check every survivor: witness(lam) returns
    a counterexample record for lam, or None when lam bears the claim
    out.  The claim is verified exactly when no survivor gives a
    record; stats["checked"] counts the survivors checked."""
    survivors, stats = enumerate_matrices(spec)
    witnesses = [w for w in map(witness, survivors) if w is not None]
    stats["checked"] = len(survivors)
    return ("verified" if not witnesses else "counterexample"), stats, witnesses


def _claim_odd_gon_not_spin(caps, m, bound):
    if m % 2 == 0 or m < 3:
        raise HarnessError("claim needs an odd m >= 3")
    p = polygon(m)
    spec = SearchSpec(p, bound, "signs", "spin", **caps)
    survivors, stats = enumerate_matrices(spec)
    # anything the column-parity filter lets through gets a second
    # opinion from the characteristic-class engine; a survivor is valid
    # and refined at the base, so it goes to the engine's core
    witnesses = [{**lam.to_dict(), "spin": _spin(p, lam)} for lam in survivors]
    verdict = "verified" if not survivors else "counterexample"
    return verdict, stats, witnesses


def _claim_polygon_parity(caps, m, bound):
    p = polygon(m)

    def witness(lam):
        engine, parity = is_string(p, lam), polygon_parity_criterion(lam)
        if engine == parity:
            return None
        return {**lam.to_dict(), "engine": engine, "parity": parity}

    return _search_campaign(SearchSpec(p, bound, "signs", "valid", **caps), witness)


def _claim_polygon_bordism_parity(caps, m, bound):
    def witness(lam):
        # a survivor is valid over the m-gon: the closed form's core
        _ls, total = _polygon_closed_form(lam)
        return None if total % 2 == m % 2 else {**lam.to_dict(), "total": total}

    spec = SearchSpec(polygon(m), bound, "signs", "valid", **caps)
    return _search_campaign(spec, witness)


def _claim_cube_string_is_bott(caps, n, bound):
    # cube(n) has 2**n vertices: refuse its value table before building it
    _check_integer_bound(bound, n)
    p = cube(n)

    def witness(lam):
        # a survivor is valid over cube(n): Bott's core
        form = _bott_triangularize(p, n, lam)
        if form.verdict == "triangular":
            return None
        return {**lam.to_dict(), "witness": form.witness}

    return _search_campaign(SearchSpec(p, bound, "signs", "string", **caps), witness)


def _claim_cyclic_identities(caps, k, trials, bound):
    if k < 3:
        raise HarnessError("cyclic identities need k >= 3")
    if trials < 1:
        raise HarnessError(f"cyclic identities need trials >= 1, got {trials}")
    rng = random.Random(1_000_003 * k + trials)
    witnesses = []
    started = time.monotonic()
    for done in range(trials):
        if time.monotonic() - started > caps["max_seconds"]:
            stats = {"trials": done, "failures": len(witnesses)}
            raise ResourceCapExceeded("time budget exhausted", stats)
        cols = random_cyclic_instance(k, bound, rng)
        s1, s2 = cyclic_identities(cols)
        if (s1, s2) != (4, 0):
            witnesses.append({"cols": cols, "s1": s1, "s2": s2})
    stats = {"trials": trials, "failures": len(witnesses)}
    verdict = "verified" if not witnesses else "counterexample"
    return verdict, stats, witnesses


def _claim_prism_decompose(caps, k, bound):
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


def _claim_cube_connsum(caps, bound):
    p, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))

    def witness(lam):
        rep = _decompose_cube_connsum(p, lam, string=True)
        ok = rep.verdict == "decomposed" and all(piece.string for piece in rep.pieces)
        return None if ok else {**lam.to_dict(), "verdict": rep.verdict}

    return _search_campaign(SearchSpec(p, bound, "signs", "string", **caps), witness)


def _claim_c5xc5_not_spin(caps):
    p = product(polygon(5), polygon(5))
    spec = SearchSpec(p, 1, "signs", "spin", mod2_only=True, **caps)
    survivors, stats = enumerate_matrices(spec)
    witnesses = [lam.to_dict("rows_mod2") for lam in survivors]
    verdict = "verified" if not survivors else "counterexample"
    return verdict, stats, witnesses


def _claim_product_simplices_obstruction(caps, ns):
    if not ns or not any(x >= 2 for x in ns):
        raise HarnessError("claim needs some factor of dimension >= 2")
    poly = simplex_product(ns)
    hit = key_obstruction(poly)
    stats = {"ns": list(ns), "vertices": len(poly.vertices)}
    if hit is None:
        return "counterexample", stats, [{"ns": list(ns), "obstruction": None}]
    v, f = hit
    # re-verify the witness with the polytope's own face test
    ok = all(poly.is_face((f, g)) for g in v) and f not in v
    verdict = "verified" if ok else "counterexample"
    return verdict, stats, [{"vertex": list(v), "facet": f}]


def _claim_smallcover_simplex_products(caps, ns):
    try:
        found = verify_simplex_product_criterion(ns, **caps)
    except CriterionContradiction as exc:
        return "counterexample", {"ns": list(ns)}, [{"error": str(exc)}]
    # the criterion returns only when the search agrees with the parity rule
    stats = {"ns": list(ns), "exists": found, "expected": found}
    return "verified", stats, []


_BOTH_CAPS = tuple(_CAP_DEFAULTS)

# claim id -> (campaign, {parameter it reads: its default}, the caps it
# reads); a campaign takes its caps, then its parameters by name
_CLAIMS = {
    "odd-gon-not-spin": (_claim_odd_gon_not_spin, {"m": 5, "bound": 3}, _BOTH_CAPS),
    "polygon-parity": (_claim_polygon_parity, {"m": 4, "bound": 3}, _BOTH_CAPS),
    "polygon-bordism-parity": (
        _claim_polygon_bordism_parity, {"m": 4, "bound": 3}, _BOTH_CAPS
    ),
    "cube-string-is-bott": (_claim_cube_string_is_bott, {"n": 3, "bound": 2}, _BOTH_CAPS),
    "cyclic-identities": (
        _claim_cyclic_identities, {"k": 4, "trials": 10000, "bound": 5}, ("max_seconds",)
    ),
    "prism-decompose": (_claim_prism_decompose, {"k": 2, "bound": 2}, _BOTH_CAPS),
    "cube-connsum": (_claim_cube_connsum, {"bound": 1}, _BOTH_CAPS),
    "c5xc5-not-spin": (_claim_c5xc5_not_spin, {}, _BOTH_CAPS),
    "product-simplices-obstruction": (
        _claim_product_simplices_obstruction, {"ns": (2,)}, ()
    ),
    "smallcover-simplex-products": (
        _claim_smallcover_simplex_products, {"ns": (3,)}, _BOTH_CAPS
    ),
}

CLAIM_IDS = tuple(sorted(_CLAIMS))


def verify_claim(
    claim_id: str,
    params: dict | None = None,
    *,
    max_nodes: int = _CAP_DEFAULTS["max_nodes"],
    max_seconds: float = _CAP_DEFAULTS["max_seconds"],
) -> ClaimReport:
    """Run a named campaign and report verified / counterexample.

    Hitting the node or time cap yields verdict "resource-capped" with
    the partial statistics; parameters are echoed back so reports are
    self-describing and reruns reproducible.  A parameter the claim does
    not read is refused before anything runs, so that a report never
    echoes one that played no part in it; so is a NaN or negative cap,
    and a cap other than its default that the claim does not read.  The
    campaign is handed only the caps it reads, and every parameter it
    reads: the value given, else its default in `_CLAIMS`.  A value is
    never converted: one that is not an int (a bool or a float is not),
    or for a tuple default not a list or tuple of ints, is refused.
    """
    if claim_id not in _CLAIMS:
        raise HarnessError(
            f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        )
    campaign, defaults, cap_reads = _CLAIMS[claim_id]
    params = dict(params or {})
    unread = [key for key in params if key not in defaults]
    if unread:
        raise HarnessError(
            f"claim {claim_id!r} does not read {', '.join(map(repr, unread))}; "
            f"it reads: {', '.join(defaults) or 'no parameter'}"
        )
    _check_caps(max_nodes, max_seconds)
    caps = {"max_nodes": max_nodes, "max_seconds": max_seconds}
    unread = [
        cap for cap in caps if cap not in cap_reads and caps[cap] != _CAP_DEFAULTS[cap]
    ]
    if unread:
        raise HarnessError(
            f"claim {claim_id!r} does not read {', '.join(unread)}; "
            f"it reads: {', '.join(cap_reads) or 'no cap'}"
        )
    caps = {cap: caps[cap] for cap in cap_reads}
    args = {}
    for name, default in defaults.items():
        value = params.get(name, default)
        # taken as given, never converted: a bool or a float is refused
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or any(type(x) is not int for x in value):
                raise HarnessError(f"parameter {name!r} must be a list of ints, got {value!r}")
            value = tuple(value)
        elif type(value) is not int:
            raise HarnessError(f"parameter {name!r} must be an int, got {value!r}")
        args[name] = value
    try:
        verdict, stats, witnesses = campaign(caps, **args)
    except ResourceCapExceeded as exc:
        return ClaimReport(claim_id, params, "resource-capped", exc.stats, [])
    return ClaimReport(claim_id, params, verdict, stats, witnesses)
