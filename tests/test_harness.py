"""Tests for the bounded search and the named verification campaigns.

Class counts are pinned against a direct scan oracle: enumerate every
column assignment outright with itertools, validate each matrix
through charmat.validate (or validate_mod2), apply the filter through
the characteristic-class engine, and deduplicate by the canonical key
of `key_oracle`.  The oracle shares no code with the search tree (no
pruning, no completion schedule, no orbit leaders), so agreement checks
the DFS end to end.  The frozen numbers below are the oracle's outputs.
"""

import hashlib
import itertools
import json
import time

import pytest

from qtm import charmat, harness, intlin, polytope, stringcheck, structure
from qtm.charmat import CharMatrix, CharMatrixError, validate
from qtm.harness import (
    CLAIM_IDS,
    HarnessError,
    ResourceCapExceeded,
    SearchSpec,
    enumerate_matrices,
    verify_claim,
)
from qtm.polytope import PolytopeError, SimplePolytope, cube, polygon, prism, product
from qtm.smallcover import (
    CriterionContradiction,
    SmallCoverError,
    _refined,
    _refined_verdicts,
    simplex_product,
    validate_mod2,
)
from qtm.stringcheck import is_string
from bott_check import bott_triangularize
from key_oracle import canonical_key
from spin_check import is_spin


# direct-scan oracle counts, by (polytope, bound, filter, dedup)
SQUARE_B1_VALID_CLASSES = 3
SQUARE_B1_STRING_CLASSES = 1
SQUARE_B2_VALID_CLASSES = 7
SQUARE_B2_SPIN_CLASSES = 3
PENTAGON_B2_VALID_SIGNS = 18
PENTAGON_B2_VALID_FULL = 4  # signs+automorphisms collapses 18 to 4
CUBE_B1_VALID_CLASSES = 31
CUBE_B1_STRING_CLASSES = 4
MOD2_SQUARE_VALID = 3
MOD2_QUAD_TRI_STRING = 8  # matches the raw count in the small cover tests
MOD2_TRI_TRI_STRING = 0

# the lone string class on the square at entry bound 1
SQUARE_B1_STRING_REP = ((1, 0, -1, 0), (0, 1, 0, -1))

# the unique string small cover of the hexagon: the 3-coloring
HEX_THREE_COLORING = ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1))


def test_search_spec_rejects_bad_parameters():
    with pytest.raises(HarnessError):
        SearchSpec(polygon(4), bound=0)
    with pytest.raises(HarnessError):
        SearchSpec(polygon(4), bound=1, filter="odd")
    with pytest.raises(HarnessError):
        SearchSpec(polygon(4), bound=1, dedup="rows")
    with pytest.raises(HarnessError):
        SearchSpec(polygon(4), bound=1, mod2_only=True, dedup="signs+automorphisms")
    # the GF(2) walk never reads the bound, so only bound 1 is accepted
    for bound in (2, 7, 0, -3):
        with pytest.raises(HarnessError, match="bound 1 only"):
            SearchSpec(polygon(6), bound=bound, mod2_only=True)
    # every comparison with NaN is false: the time cap would never fire
    with pytest.raises(HarnessError, match="NaN"):
        SearchSpec(cube(3), bound=2, max_seconds=float("nan"))
    # a cap below zero is no cap: -1 nodes stopped the walk after one node
    with pytest.raises(HarnessError, match="max_nodes must be at least 0, got -1"):
        SearchSpec(polygon(3), max_nodes=-1)
    with pytest.raises(HarnessError, match="max_seconds must be at least 0, got -2"):
        SearchSpec(polygon(3), max_seconds=-2)


def test_square_string_search_finds_the_twist_class():
    survivors, stats = enumerate_matrices(
        SearchSpec(polygon(4), 1, "signs", "string")
    )
    assert [lam.rows for lam in survivors] == [SQUARE_B1_STRING_REP]
    assert stats["survivors"] == SQUARE_B1_STRING_CLASSES


def test_square_counts_match_direct_scan():
    survivors, _ = enumerate_matrices(SearchSpec(polygon(4), 1, "signs", "valid"))
    assert len(survivors) == SQUARE_B1_VALID_CLASSES
    survivors, _ = enumerate_matrices(SearchSpec(polygon(4), 2, "signs", "valid"))
    assert len(survivors) == SQUARE_B2_VALID_CLASSES
    survivors, _ = enumerate_matrices(SearchSpec(polygon(4), 2, "signs", "spin"))
    assert len(survivors) == SQUARE_B2_SPIN_CLASSES
    assert all(is_spin(polygon(4), lam) for lam in survivors)


def test_pentagon_valid_class_counts():
    survivors, _ = enumerate_matrices(SearchSpec(polygon(5), 2, "signs", "valid"))
    assert len(survivors) == PENTAGON_B2_VALID_SIGNS
    survivors, _ = enumerate_matrices(
        SearchSpec(polygon(5), 2, "signs+automorphisms", "valid")
    )
    assert len(survivors) == PENTAGON_B2_VALID_FULL


def test_pentagon_has_no_spin_matrices_up_to_bound_three():
    survivors, stats = enumerate_matrices(SearchSpec(polygon(5), 3, "signs", "spin"))
    assert survivors == []
    assert stats["candidates"] == 0  # parity pruning never reaches a leaf


def test_cube_valid_search_is_sound_and_complete():
    p = cube(3)
    survivors, _ = enumerate_matrices(SearchSpec(p, 1, "signs", "valid"))
    assert len(survivors) == CUBE_B1_VALID_CLASSES
    for lam in survivors:
        ok, _bad = validate(p, lam)
        assert ok
    # the product class [I | diag(+-1)] is among the representatives
    assert any(
        all(
            abs(lam.rows[i][i + 3]) == 1
            and all(lam.rows[i][j + 3] == 0 for j in range(3) if j != i)
            for i in range(3)
        )
        for lam in survivors
    )


def test_cube_string_search_matches_direct_scan():
    p = cube(3)
    survivors, _ = enumerate_matrices(SearchSpec(p, 1, "signs", "string"))
    assert len(survivors) == CUBE_B1_STRING_CLASSES
    assert all(is_string(p, lam) for lam in survivors)


def test_enumeration_is_deterministic():
    spec = SearchSpec(polygon(5), 2, "signs+automorphisms", "valid")
    first, stats_first = enumerate_matrices(spec)
    second, stats_second = enumerate_matrices(spec)
    assert [lam.rows for lam in first] == [lam.rows for lam in second]
    # every counter repeats; elapsed is a wall-clock reading
    assert set(stats_first) == set(stats_second)
    assert stats_first.pop("elapsed") >= 0.0
    assert stats_second.pop("elapsed") >= 0.0
    assert stats_first == stats_second


def unbroken_walk(p, bound, filt, dedup="signs"):
    """The search before symmetry breaking: every free column runs over
    all of [-B, B]^n, the string test runs before the dedup, and only
    string-passing keys are remembered.  Returns the survivor rows."""
    n, m = p.dim, p.num_facets
    base = p.vertices[0]
    free = [f for f in range(1, m + 1) if f not in base]
    values = list(itertools.product(range(-bound, bound + 1), repeat=n))
    if filt in ("spin", "string"):
        values = [v for v in values if sum(v) % 2 == 1]
    rows = [[0] * m for _ in range(n)]
    for k, f in enumerate(base):
        rows[k][f - 1] = 1
    done = {}
    for t, f in enumerate(free):
        done[f] = [
            v for v in p.vertices
            if f in v and all(g in base or free.index(g) <= t for g in v)
        ]
    out, seen = [], set()

    def walk(t):
        if t == len(free):
            lam = CharMatrix([r[:] for r in rows], refined_at=base)
            if filt == "string" and not is_string(p, lam):
                return
            key = canonical_key(p, lam, group=dedup)
            if key not in seen:
                seen.add(key)
                out.append(lam.rows)
            return
        f = free[t]
        for val in values:
            for i in range(n):
                rows[i][f - 1] = val[i]
            if all(
                abs(intlin.det([[rows[i][g - 1] for g in v] for i in range(n)])) == 1
                for v in done[f]
            ):
                walk(t + 1)
        for i in range(n):
            rows[i][f - 1] = 0

    walk(0)
    return out


@pytest.mark.parametrize(
    "poly, bound, filt, dedup",
    [
        (polygon(4), 2, "valid", "signs"),
        (polygon(4), 2, "spin", "signs"),
        (polygon(5), 2, "valid", "signs"),
        (polygon(5), 2, "spin", "signs"),
        (cube(3), 1, "string", "signs"),
        (prism(4), 1, "string", "signs"),
        # three row sign patterns to break, so lex prunes happen
        (cube(3), 2, "spin", "signs"),
        (prism(6), 1, "string", "signs"),
        (polygon(5), 2, "valid", "signs+automorphisms"),
        # orbit-leader dedup with string rejects, and on a larger group
        (cube(3), 1, "string", "signs+automorphisms"),
        (prism(4), 1, "string", "signs+automorphisms"),
        (polygon(6), 1, "valid", "signs+automorphisms"),
        (polygon(6), 2, "spin", "signs+automorphisms"),
    ],
    ids=[
        "square-valid", "square-spin", "pentagon-valid", "pentagon-spin",
        "cube-string", "square-prism-string", "cube-b2-spin",
        "hexagonal-prism-string", "pentagon-automorphisms",
        "cube-string-automorphisms", "square-prism-string-automorphisms",
        "hexagon-automorphisms", "hexagon-b2-spin-automorphisms",
    ],
)
def test_sign_broken_walk_matches_unbroken_walk(poly, bound, filt, dedup):
    survivors, stats = enumerate_matrices(SearchSpec(poly, bound, dedup, filt))
    assert [lam.rows for lam in survivors] == unbroken_walk(poly, bound, filt, dedup)
    assert stats["survivors"] == len(survivors)


def test_search_stats_split_prunes_and_dedup_hits():
    _survivors, stats = enumerate_matrices(SearchSpec(cube(3), 2, "signs", "string"))
    spin, _ = enumerate_matrices(SearchSpec(cube(3), 2, "signs", "spin"))
    # under signs every leaf is its own class: no dedup, and the string
    # test runs once per spin class
    assert stats["dedup_hits"] == 0
    assert stats["candidates"] == stats["survivors"] + stats["string_rejects"]
    assert stats["string_rejects"] == len(spin) - stats["survivors"] > 0
    assert stats["string_rejects"] <= stats["pruned"]
    assert stats["lex_prunes"] > 0
    assert stats["elapsed"] >= 0.0
    # automorphisms merge sign classes, so dedup hits appear only here;
    # the walk is the same, and still no class is string-tested twice
    _survivors, full = enumerate_matrices(
        SearchSpec(cube(3), 2, "signs+automorphisms", "string")
    )
    spin_full, _ = enumerate_matrices(
        SearchSpec(cube(3), 2, "signs+automorphisms", "spin")
    )
    assert full["candidates"] == stats["candidates"]
    assert full["dedup_hits"] > 0
    assert full["candidates"] == (
        full["survivors"] + full["string_rejects"] + full["dedup_hits"]
    )
    assert full["string_rejects"] == len(spin_full) - full["survivors"] > 0


def test_parity_prunes_count_filtered_values_per_interior_node():
    # square, bound 1: the 4 values with first entry negative lose
    # (-1, -1) and (-1, 1) to parity; the root and the one node that
    # passes at facet 3 are expanded, so 2 * 2 values are cut
    _survivors, stats = enumerate_matrices(SearchSpec(polygon(4), 1, "signs", "spin"))
    assert stats["parity_prunes"] == 4
    _survivors, stats = enumerate_matrices(SearchSpec(polygon(4), 1, "signs", "valid"))
    assert stats["parity_prunes"] == 0


@pytest.mark.parametrize(
    "poly, bound, filt",
    [(prism(6), 2, "string"), (cube(4), 1, "valid")],
    ids=["criterion-04", "tesseract-b1"],
)
def test_sign_walk_reaches_each_class_once(poly, bound, filt, monkeypatch):
    def no_orbit(*args, **kwargs):
        raise AssertionError("the signs walk expanded an automorphism orbit")

    monkeypatch.setattr(harness, "_orbit_leaders", no_orbit)
    survivors, stats = enumerate_matrices(SearchSpec(poly, bound, "signs", filt))
    monkeypatch.undo()
    keys = [canonical_key(poly, lam, group="signs") for lam in survivors]
    assert len(set(keys)) == len(keys) == stats["survivors"]
    assert stats["dedup_hits"] == 0
    assert stats["candidates"] == stats["survivors"] + stats["string_rejects"]
    assert stats["lex_prunes"] > 0


def test_mod2_square_valid_count_and_soundness():
    p = polygon(4)
    survivors, _ = enumerate_matrices(
        SearchSpec(p, 1, "signs", "valid", mod2_only=True)
    )
    assert len(survivors) == MOD2_SQUARE_VALID
    assert all(validate_mod2(p, lam) for lam in survivors)


def test_mod2_hexagon_string_search_finds_the_three_coloring():
    survivors, _ = enumerate_matrices(
        SearchSpec(polygon(6), 1, "signs", "string", mod2_only=True)
    )
    assert [lam.rows for lam in survivors] == [HEX_THREE_COLORING]


def test_mod2_polygon_product_string_counts():
    quad_tri = product(polygon(4), polygon(3))
    survivors, _ = enumerate_matrices(
        SearchSpec(quad_tri, 1, "signs", "string", mod2_only=True)
    )
    assert len(survivors) == MOD2_QUAD_TRI_STRING
    tri_tri = product(polygon(3), polygon(3))
    survivors, _ = enumerate_matrices(
        SearchSpec(tri_tri, 1, "signs", "string", mod2_only=True)
    )
    assert len(survivors) == MOD2_TRI_TRI_STRING


def brute_force_mod2(p, filt):
    """Every GF(2) matrix refined at the first vertex, in the walk's
    order (free columns ascending, each over {0,1}^n
    lexicographically), filtered through `validate_mod2` and the string
    core `qtm smallcover` runs, none of the walk's own tests."""
    n, m = p.dim, p.num_facets
    base = p.vertices[0]
    free = [f for f in range(1, m + 1) if f not in base]
    out = []
    for cols in itertools.product(itertools.product((0, 1), repeat=n), repeat=len(free)):
        rows = [[0] * m for _ in range(n)]
        for k, f in enumerate(base):
            rows[k][f - 1] = 1
        for f, col in zip(free, cols):
            for i in range(n):
                rows[i][f - 1] = col[i]
        lam = CharMatrix(rows)
        if not validate_mod2(p, lam):
            continue
        if filt == "string" and not _refined_verdicts(p, _refined(p, lam))[1]:
            continue
        out.append(lam.rows)
    return out


@pytest.mark.parametrize("filt", ["valid", "string"])
@pytest.mark.parametrize(
    "poly",
    # the simplex product is there for its string rejects: 4 orientable
    # leaves, none string
    [polygon(5), prism(3), simplex_product((2, 3))],
    ids=["pentagon", "triangle-prism", "simplex2xsimplex3"],
)
def test_mod2_walk_matches_brute_force(poly, filt):
    survivors, stats = enumerate_matrices(
        SearchSpec(poly, 1, "signs", filt, mod2_only=True)
    )
    assert [lam.rows for lam in survivors] == brute_force_mod2(poly, filt)
    # every leaf has its own rows: the mod-2 walk never dedups, and a
    # refined GF(2) form has no sign symmetry left to break
    assert stats["dedup_hits"] == 0
    assert stats["lex_prunes"] == 0
    assert stats["candidates"] == stats["survivors"] + stats["string_rejects"]


def survivor_digest(survivors):
    rows = [[list(r) for r in lam.rows] for lam in survivors]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# every counter and the survivor rows, in order, of eight searches; the
# figures are those of the walk that ran one determinant per value, the
# octagon's those of the walk that took a canonical key at every leaf,
# the tesseract-b2 and mod-2 c5xc5 searches' those of the walk that
# visited each column value in turn, and the two "-automorphisms"
# entries' those of the walk that refined a CharMatrix per source
# vertex to take its orbit leaders
PINNED_SEARCHES = {
    "criterion-04": (
        SearchSpec(prism(6), 2, "signs", "string"),
        {
            "nodes": 70213, "pruned": 67354, "candidates": 2581,
            "survivors": 579, "string_rejects": 2002, "dedup_hits": 0,
            "lex_prunes": 498, "parity_prunes": 70711,
        },
        "aef6891fd46f86ce63f41ea08b643a826df49065929c63eb67e6108fbf7debb3",
    ),
    "tesseract-b1-valid": (
        SearchSpec(cube(4), 1, "signs", "valid"),
        {
            "nodes": 17632, "pruned": 15908, "candidates": 1245,
            "survivors": 1245, "string_rejects": 0, "dedup_hits": 0,
            "lex_prunes": 1568, "parity_prunes": 0,
        },
        "ae5541b7dc7af1b94ed01c4fd2354d61c51b0627405893b9b8e1a3aedda7ddd6",
    ),
    "mod2-simplex-223-string": (
        SearchSpec(
            simplex_product((2, 2, 3)), 1, "signs", "string", mod2_only=True
        ),
        {
            "nodes": 8256, "pruned": 8128, "candidates": 112,
            "survivors": 0, "string_rejects": 112, "dedup_hits": 0,
            "lex_prunes": 0, "parity_prunes": 8256,
        },
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "octagon-b3-automorphisms": (
        SearchSpec(polygon(8), 3, "signs+automorphisms", "valid"),
        {
            "nodes": 43098, "pruned": 38022, "candidates": 3279,
            "survivors": 559, "string_rejects": 0, "dedup_hits": 2720,
            "lex_prunes": 54, "parity_prunes": 0,
        },
        "e72c46abed47046e4e95888feb43687618b947db063f4f518052f1a24b015646",
    ),
    "criterion-04-automorphisms": (
        SearchSpec(prism(6), 2, "signs+automorphisms", "string"),
        {
            "nodes": 70213, "pruned": 65944, "candidates": 2581,
            "survivors": 160, "string_rejects": 592, "dedup_hits": 1829,
            "lex_prunes": 498, "parity_prunes": 70711,
        },
        "476b736efbc2d9642a3bc9438e3d101a71cbf541d7735c4effd21af2494ea5ab",
    ),
    "tesseract-b1-automorphisms": (
        SearchSpec(cube(4), 1, "signs+automorphisms", "valid"),
        {
            "nodes": 17632, "pruned": 15908, "candidates": 1245,
            "survivors": 44, "string_rejects": 0, "dedup_hits": 1201,
            "lex_prunes": 1568, "parity_prunes": 0,
        },
        "d7f1bf1a9887cc321841d52002ed6861134929719837e7793110e5e10a154fbe",
    ),
    "tesseract-b2-string": (
        SearchSpec(cube(4), 2, "signs", "string"),
        {
            "nodes": 547136, "pruned": 543212, "candidates": 12573,
            "survivors": 329, "string_rejects": 12244, "dedup_hits": 0,
            "lex_prunes": 13840, "parity_prunes": 560976,
        },
        "465bac9d67fa00f879574c3e02f4a860cfed58d63b4c77a349353cf1aa081bb0",
    ),
    "mod2-c5xc5-spin": (
        SearchSpec(product(polygon(5), polygon(5)), 1, "signs", "spin", mod2_only=True),
        {
            "nodes": 1728, "pruned": 1513, "candidates": 0,
            "survivors": 0, "string_rejects": 0, "dedup_hits": 0,
            "lex_prunes": 0, "parity_prunes": 1728,
        },
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_pinned_search_stats_and_survivors(name):
    spec, pinned, digest = PINNED_SEARCHES[name]
    survivors, stats = enumerate_matrices(spec)
    assert stats.pop("elapsed") >= 0.0
    assert stats == pinned
    assert survivor_digest(survivors) == digest


def test_a_search_builds_a_char_matrix_for_each_survivor_only(monkeypatch):
    # the orbit leaders read the walk's own columns, so neither a class
    # opener that the string test rejects nor a source vertex builds one
    built = []
    real = CharMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CharMatrix, "__init__", counted)
    survivors, stats = enumerate_matrices(
        SearchSpec(prism(6), 1, "signs+automorphisms", "string")
    )
    assert stats["string_rejects"] > 0
    assert len(built) == stats["survivors"] == len(survivors)


def test_a_search_builds_its_image_plan_and_sign_patterns_once(monkeypatch):
    # both depend on the polytope alone; each class opener used to take
    # the patterns again, and every automorphism's inverse permutation,
    # source vertex and row order
    calls = {"_sign_patterns": 0, "_image_plan": 0}

    def counting(name):
        real = getattr(harness, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    _survivors, stats = enumerate_matrices(
        SearchSpec(prism(6), 1, "signs+automorphisms", "string")
    )
    assert stats["candidates"] - stats["dedup_hits"] == 15  # classes expanded
    assert calls == {"_sign_patterns": 1, "_image_plan": 1}
    enumerate_matrices(SearchSpec(prism(6), 1, "signs", "string"))
    assert calls == {"_sign_patterns": 2, "_image_plan": 1}


def test_vertex_test_takes_one_cofactor_per_vertex_per_node(monkeypatch):
    calls = {"det": 0, "f2_rank": 0}
    det, f2_rank = intlin.det, intlin.f2_rank

    def counted_det(rows):
        calls["det"] += 1
        return det(rows)

    def counted_f2_rank(masks):
        calls["f2_rank"] += 1
        return f2_rank(masks)

    monkeypatch.setattr(intlin, "det", counted_det)
    monkeypatch.setattr(intlin, "f2_rank", counted_f2_rank)
    _survivors, stats = enumerate_matrices(SearchSpec(cube(4), 1, "signs", "valid"))
    # n minors per scheduled vertex per expanded node, never one
    # determinant per (value, vertex) pair
    assert 0 < calls["det"] < stats["nodes"]
    # without a string test at the leaves nothing ranks masks: the mod-2
    # vertex test reads normals, not ranks
    survivors, _stats = enumerate_matrices(
        SearchSpec(product(polygon(4), polygon(3)), 1, "signs", "valid", mod2_only=True)
    )
    assert survivors
    assert calls["f2_rank"] == 0


def test_node_budget_raises_with_partial_stats():
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_matrices(SearchSpec(cube(3), 2, "signs", "valid", max_nodes=100))
    assert exc.value.stats["nodes"] == 101
    # zero is a legal cap, and the first node is past it
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_matrices(SearchSpec(polygon(6), 1, max_nodes=0))
    assert exc.value.stats["nodes"] == 1


# the partial stats of node-capped searches whose cap lands inside a
# run of pruned values, as the walk that visited each value in turn
# left them: the cap fires at node max_nodes + 1, with every value
# before it counted
NODE_CAPPED_SEARCHES = {
    "cube-b2-cap-100": (
        SearchSpec(cube(3), 2, "signs", "valid", max_nodes=100),
        {"nodes": 101, "pruned": 95, "candidates": 3, "survivors": 3, "lex_prunes": 36},
    ),
    "cube-b2-cap-1000": (
        SearchSpec(cube(3), 2, "signs", "valid", max_nodes=1000),
        {"nodes": 1001, "pruned": 939, "candidates": 44, "survivors": 44, "lex_prunes": 36},
    ),
    # one free column whose 10,200 open values are tried at one node
    "triangle-b100-cap-5000": (
        SearchSpec(polygon(3), 100, "signs", "valid", max_nodes=5000),
        {"nodes": 5001, "pruned": 5000, "lex_prunes": 10000},
    ),
    # the cap lands on the last value, past the one admissible value
    "triangle-b100-cap-10199": (
        SearchSpec(polygon(3), 100, "signs", "valid", max_nodes=10199),
        {"nodes": 10200, "pruned": 10198, "candidates": 1, "survivors": 1, "lex_prunes": 10000},
    ),
    "mod2-simplex-222-cap-500": (
        SearchSpec(simplex_product((2, 2, 2)), 1, "signs", "string", mod2_only=True, max_nodes=500),
        {"nodes": 501, "pruned": 484, "parity_prunes": 544},
    ),
    "mod2-c5xc5-cap-1000": (
        SearchSpec(product(polygon(5), polygon(5)), 1, "signs", "spin", mod2_only=True, max_nodes=1000),
        {"nodes": 1001, "pruned": 873, "parity_prunes": 1024},
    ),
}

_ZERO_STATS = {
    "nodes": 0, "pruned": 0, "candidates": 0, "survivors": 0,
    "string_rejects": 0, "dedup_hits": 0, "lex_prunes": 0, "parity_prunes": 0,
}


@pytest.mark.parametrize("name", sorted(NODE_CAPPED_SEARCHES))
def test_a_node_cap_inside_a_skipped_run_keeps_every_counter(name):
    spec, pinned = NODE_CAPPED_SEARCHES[name]
    with pytest.raises(ResourceCapExceeded, match="^node budget exhausted$") as exc:
        enumerate_matrices(spec)
    stats = dict(exc.value.stats)
    assert stats.pop("elapsed") >= 0.0
    assert stats == {**_ZERO_STATS, **pinned}


# (search, the sha256 of the JSON list of partial stats, elapsed left
# out, at every node cap from 0 to one below the search's node count),
# as the walk that visited each column value in turn left them
NODE_CAP_SWEEPS = {
    "pentagon-b2-automorphisms": (
        SearchSpec(polygon(5), 2, "signs+automorphisms", "valid"),
        "6e17d5287bdab28227eb9e50e7ad327d1d6ea9d8a8d9778a80b498d240d3e5d4",
    ),
    "cube-b1-string": (
        SearchSpec(cube(3), 1, "signs", "string"),
        "e1a28c700cf6c53fafcf022b9eaeacd831f2e09b8c57312ca57ac83f35fd05aa",
    ),
    "mod2-simplex-222-string": (
        SearchSpec(simplex_product((2, 2, 2)), 1, "signs", "string", mod2_only=True),
        "579d64d77871d6df35e7115df90b34e9fc60febe9ee6b75ad7d31d9fb8b5d9f2",
    ),
}


@pytest.mark.parametrize("name", sorted(NODE_CAP_SWEEPS))
def test_a_node_cap_at_every_node_keeps_every_counter(name):
    spec, digest = NODE_CAP_SWEEPS[name]
    _survivors, full = enumerate_matrices(spec)
    partial = []
    for cap in range(full["nodes"]):
        capped = SearchSpec(
            spec.polytope, spec.bound, spec.dedup, spec.filter, spec.mod2_only, max_nodes=cap
        )
        with pytest.raises(ResourceCapExceeded) as exc:
            enumerate_matrices(capped)
        stats = dict(exc.value.stats)
        del stats["elapsed"]
        partial.append(stats)
    assert hashlib.sha256(json.dumps(partial).encode()).hexdigest() == digest


class _CountingClock:
    """A stand-in for the time module whose clock passes every cap at
    the walk's k-th read; read 0 is the search's start."""

    def __init__(self, k: int):
        self.k, self.reads = k, 0

    def monotonic(self) -> float:
        read, self.reads = self.reads, self.reads + 1
        return 10.0 if read >= self.k else 0.0


# (spec, k, partial stats), as the walk that visited each column value
# in turn left them: the clock is read at node 1 and every 4096 nodes
# after, so its k-th read fires the cap at node 4096 * (k - 1) + 1
TIME_CAPPED_SEARCHES = {
    # the triangle's 10,200 open values are one run at one node, with
    # 10,199 of them pruned: reads 2 and 3 both fall inside that run
    "triangle-b100-read-1": (
        SearchSpec(polygon(3), 100, "signs", "valid", max_seconds=1.0), 1,
        {"nodes": 1, "lex_prunes": 10000},
    ),
    "triangle-b100-read-2": (
        SearchSpec(polygon(3), 100, "signs", "valid", max_seconds=1.0), 2,
        {"nodes": 4097, "pruned": 4096, "lex_prunes": 10000},
    ),
    "triangle-b100-read-3": (
        SearchSpec(polygon(3), 100, "signs", "valid", max_seconds=1.0), 3,
        {"nodes": 8193, "pruned": 8192, "lex_prunes": 10000},
    ),
    "tesseract-b2-string-read-2": (
        SearchSpec(cube(4), 2, "signs", "string", max_seconds=1.0), 2,
        {
            "nodes": 4097, "pruned": 4068, "candidates": 38, "string_rejects": 38,
            "lex_prunes": 116, "parity_prunes": 4524,
        },
    ),
    "tesseract-b2-string-read-5": (
        SearchSpec(cube(4), 2, "signs", "string", max_seconds=1.0), 5,
        {
            "nodes": 16385, "pruned": 16277, "candidates": 188, "survivors": 1,
            "string_rejects": 187, "lex_prunes": 116, "parity_prunes": 16692,
        },
    ),
    "mod2-simplex-223-read-2": (
        SearchSpec(simplex_product((2, 2, 3)), 1, "signs", "string", mod2_only=True, max_seconds=1.0),
        2,
        {
            "nodes": 4097, "pruned": 4032, "candidates": 60, "string_rejects": 60,
            "parity_prunes": 4160,
        },
    ),
    "mod2-simplex-223-read-3": (
        SearchSpec(simplex_product((2, 2, 3)), 1, "signs", "string", mod2_only=True, max_seconds=1.0),
        3,
        {
            "nodes": 8193, "pruned": 8064, "candidates": 112, "string_rejects": 112,
            "parity_prunes": 8256,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(TIME_CAPPED_SEARCHES))
def test_the_clock_is_read_at_node_one_and_every_4096_nodes(name, monkeypatch):
    spec, k, pinned = TIME_CAPPED_SEARCHES[name]
    clock = _CountingClock(k)
    monkeypatch.setattr(harness, "time", clock)
    with pytest.raises(ResourceCapExceeded, match="^time budget exhausted$") as exc:
        enumerate_matrices(spec)
    stats = dict(exc.value.stats)
    assert stats["nodes"] == 4096 * (k - 1) + 1
    assert stats.pop("elapsed") == 10.0
    assert stats == {**_ZERO_STATS, **pinned}
    # the start, k reads in the walk, and the elapsed time of the report
    assert clock.reads == k + 2


@pytest.mark.parametrize("mod2", [False, True])
def test_a_finished_search_reads_the_clock_once_per_4096_nodes(mod2, monkeypatch):
    # polygon(3) at bound 100 visits 10,200 nodes, simplex (2, 2, 3) 8,256:
    # the walk reads the clock at nodes 1, 4097 and 8193
    spec = (
        SearchSpec(simplex_product((2, 2, 3)), 1, "signs", "string", mod2_only=True)
        if mod2
        else SearchSpec(polygon(3), 100, "signs", "valid")
    )
    clock = _CountingClock(10**9)
    monkeypatch.setattr(harness, "time", clock)
    enumerate_matrices(spec)
    assert clock.reads == 1 + 3 + 1


def test_automorphism_dedup_is_refused_before_the_walk():
    # 17 facets is past the brute-force automorphism guard: the search
    # is refused as it starts, not capped after ten nodes
    with pytest.raises(PolytopeError, match="16"):
        enumerate_matrices(
            SearchSpec(polygon(17), 1, "signs+automorphisms", "valid", max_nodes=10)
        )


def test_time_budget_raises():
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_matrices(
            SearchSpec(cube(3), 3, "signs", "valid", max_seconds=0.0)
        )
    assert "time" in str(exc.value)
    assert exc.value.stats["nodes"] >= 1


def test_a_time_cap_of_zero_fires_at_the_first_node():
    # the clock is read at node 1; read first at node 4096, it let this
    # search finish with 18 survivors and the claim come out verified
    with pytest.raises(ResourceCapExceeded, match="^time budget exhausted$") as exc:
        enumerate_matrices(SearchSpec(polygon(5), 2, max_seconds=0))
    assert exc.value.stats["nodes"] == 1
    rep = verify_claim("polygon-parity", {"m": 4, "bound": 1}, max_seconds=0)
    assert rep.verdict == "resource-capped"
    assert rep.statistics["nodes"] == 1


def test_the_time_cap_counts_the_table_setup(monkeypatch):
    # the clock starts before the value tables are built: a setup that
    # outlasts the cap stops the walk at node 1, and elapsed covers it
    real = harness._lex_table

    def slow(values, patterns):
        time.sleep(0.2)
        return real(values, patterns)

    monkeypatch.setattr(harness, "_lex_table", slow)
    with pytest.raises(ResourceCapExceeded, match="^time budget exhausted$") as exc:
        enumerate_matrices(SearchSpec(cube(3), 1, max_nodes=10, max_seconds=0.1))
    assert exc.value.stats["nodes"] == 1
    assert exc.value.stats["elapsed"] >= 0.2


def test_a_time_cap_stops_the_search_before_the_string_template(monkeypatch):
    # the string test's template is built at the first leaf it reaches,
    # so a cap that fires at node 1 never pays for it, however large the
    # polytope: prism(2000)'s template takes seconds and hundreds of MB
    built = []
    real = harness.relation_template

    def recording(p, base):
        built.append(p.num_facets)
        return real(p, base)

    monkeypatch.setattr(harness, "relation_template", recording)
    rep = verify_claim("prism-decompose", {"k": 1000, "bound": 1}, max_seconds=0)
    assert rep.verdict == "resource-capped"
    assert rep.statistics["nodes"] == 1
    assert built == []
    # a search that reaches its leaves builds it once, at the first
    enumerate_matrices(SearchSpec(prism(6), 1, "signs", "string"))
    assert built == [8]


@pytest.mark.parametrize("mod2", [False, True])
def test_a_string_search_refuses_a_non_sphere_before_any_node(mod2):
    # the 7-vertex torus passes the ridge check, but its h-vector is not
    # palindromic: the string search refuses it before the node cap fires
    torus = SimplePolytope(3, 7, [
        tuple(sorted((i + d) % 7 + 1 for d in shape))
        for i in range(7) for shape in ((0, 1, 3), (0, 2, 3))
    ])
    with pytest.raises(PolytopeError, match="palindromic"):
        enumerate_matrices(SearchSpec(torus, 1, "signs", "string", mod2_only=mod2, max_nodes=0))


def test_search_refuses_a_value_table_past_the_limit():
    # the (2 * bound + 1) ** dim column values are tabulated before any
    # cap is read, so a table past 2**18 values is refused as the search
    # is specified; the GF(2) walk takes bound 1 only
    assert harness.MAX_COLUMN_VALUES == 2**18
    with pytest.raises(
        HarnessError,
        match="^entry bound 60 in dimension 4 gives 214358881 column values, "
        "over the limit of 262144$",
    ):
        SearchSpec(cube(4), 60)
    SearchSpec(polygon(5), 255)  # 511**2 = 261,121 values
    with pytest.raises(HarnessError, match="gives 263169 column values"):
        SearchSpec(polygon(5), 256)
    SearchSpec(cube(4), 10)  # 21**4 = 194,481 values
    with pytest.raises(HarnessError, match="gives 279841 column values"):
        SearchSpec(cube(4), 11)


def test_cube_claim_refuses_before_building_anything(monkeypatch):
    # cube(n) has 2**n vertices, so the value table and the matrix shape
    # are refused before it is built
    built = []
    real = SimplePolytope.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(polytope, "_CACHE", {})
    monkeypatch.setattr(SimplePolytope, "__init__", counting)
    with pytest.raises(
        HarnessError,
        match="^entry bound 2 in dimension 12 gives 244140625 column values, "
        "over the limit of 262144$",
    ):
        verify_claim("cube-string-is-bott", {"n": 12})
    lam = CharMatrix([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
    with pytest.raises(CharMatrixError, match="^shape 3x6 does not match dim 12, facets 24$"):
        bott_triangularize(12, lam)
    assert built == []


def test_value_table_past_the_printable_count_is_refused_as_a_power():
    # 5**7000 has 4,893 digits, past the limit of int-to-str conversion:
    # the count was formed and printed, and the message failed with it
    with pytest.raises(
        HarnessError,
        match=r"^entry bound 2 in dimension 7000 gives \(2 \* 2 \+ 1\) \*\* 7000 "
        "column values, over the limit of 262144$",
    ):
        verify_claim("cube-string-is-bott", {"n": 7000})
    # the largest exact counts still print in full: 5**20 and 3**32
    # have at most 64 bits
    with pytest.raises(HarnessError, match=" gives 95367431640625 column values, "):
        harness._check_integer_bound(2, 20)
    with pytest.raises(HarnessError, match=" gives 1853020188851841 column values, "):
        harness._check_integer_bound(1, 32)
    with pytest.raises(HarnessError, match=r" gives \(2 \* 1 \+ 1\) \*\* 33 column values, "):
        harness._check_integer_bound(1, 33)


# --- named campaigns -------------------------------------------------------


def test_verify_claim_rejects_unknown_ids():
    assert len(CLAIM_IDS) == 10
    with pytest.raises(HarnessError):
        verify_claim("no-such-claim")


def test_claim_odd_pentagon_is_never_spin():
    rep = verify_claim("odd-gon-not-spin", {"m": 5, "bound": 2})
    assert rep.verdict == "verified"
    assert rep.statistics["survivors"] == 0
    assert rep.witnesses == []
    with pytest.raises(HarnessError):
        verify_claim("odd-gon-not-spin", {"m": 4})


def test_claim_polygon_parity_square():
    rep = verify_claim("polygon-parity", {"m": 4, "bound": 2})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == SQUARE_B2_VALID_CLASSES


def test_claim_polygon_bordism_parity_pentagon():
    rep = verify_claim("polygon-bordism-parity", {"m": 5, "bound": 2})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == PENTAGON_B2_VALID_SIGNS


def test_claim_cube_string_is_bott_small_bound():
    rep = verify_claim("cube-string-is-bott", {"n": 3, "bound": 1})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == CUBE_B1_STRING_CLASSES


def test_claim_cyclic_identities_fixed_seed():
    rep = verify_claim("cyclic-identities", {"k": 3, "trials": 300})
    assert rep.verdict == "verified"
    assert rep.statistics == {"trials": 300, "failures": 0}
    rep = verify_claim("cyclic-identities", {"k": 4, "trials": 100})
    assert rep.verdict == "verified"
    with pytest.raises(HarnessError):
        verify_claim("cyclic-identities", {"k": 2})


def test_claim_cyclic_identities_stops_at_the_time_cap(monkeypatch):
    # one second per clock reading: the deadline is checked between
    # trials, and the partial counts come back with the capped verdict
    clock = iter(range(10**6))
    monkeypatch.setattr(harness.time, "monotonic", lambda: next(clock))
    rep = verify_claim("cyclic-identities", {"k": 4, "trials": 200}, max_seconds=5.5)
    assert rep.verdict == "resource-capped"
    assert rep.statistics == {"trials": 5, "failures": 0}
    assert rep.witnesses == []


def test_claim_prism_decompose_square_prism():
    rep = verify_claim("prism-decompose", {"k": 2, "bound": 1})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == CUBE_B1_STRING_CLASSES
    with pytest.raises(HarnessError):
        verify_claim("prism-decompose", {"k": 1})


def test_claim_cube_connsum_smallest_bound():
    rep = verify_claim("cube-connsum", {"bound": 1})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == 31  # string classes on the glued cube pair
    assert rep.witnesses == []


def test_claim_c5xc5_never_spin():
    rep = verify_claim("c5xc5-not-spin")
    assert rep.verdict == "verified"
    assert rep.statistics["survivors"] == 0
    assert rep.statistics["candidates"] == 0


def test_claim_product_simplices_obstruction_witnesses():
    rep = verify_claim("product-simplices-obstruction", {"ns": [2]})
    assert rep.verdict == "verified"
    assert rep.witnesses == [{"vertex": [1, 2], "facet": 3}]
    rep = verify_claim("product-simplices-obstruction", {"ns": [1, 2]})
    assert rep.verdict == "verified"
    assert rep.witnesses == [{"vertex": [1, 3, 4], "facet": 5}]
    # cubes carry no such vertex-facet pair, so the claim refuses them
    with pytest.raises(HarnessError):
        verify_claim("product-simplices-obstruction", {"ns": [1, 1, 1]})


def test_claim_smallcover_simplex_products():
    rep = verify_claim("smallcover-simplex-products", {"ns": [3]})
    assert rep.verdict == "verified"
    assert rep.statistics["exists"] is True
    rep = verify_claim("smallcover-simplex-products", {"ns": [2, 2]})
    assert rep.verdict == "verified"
    assert rep.statistics["exists"] is False


def test_smallcover_counterexample_is_the_contradiction_alone(monkeypatch):
    # the verdict read the message: any SmallCoverError that said
    # "contradicts" was reported as a counterexample to the criterion
    def raising(error):
        def criterion(ns, **caps):
            raise error

        return criterion

    unrelated = SmallCoverError("an input that contradicts itself")
    monkeypatch.setattr(harness, "verify_simplex_product_criterion", raising(unrelated))
    with pytest.raises(SmallCoverError) as exc:
        verify_claim("smallcover-simplex-products", {"ns": [3]})
    assert exc.value is unrelated
    found = CriterionContradiction("the search found none")
    monkeypatch.setattr(harness, "verify_simplex_product_criterion", raising(found))
    rep = verify_claim("smallcover-simplex-products", {"ns": [3]})
    assert rep.verdict == "counterexample"
    assert rep.witnesses == [{"error": "the search found none"}]


@pytest.mark.parametrize(
    "claim, params, named",
    [
        ("c5xc5-not-spin", {"bound": 5, "k": 9}, "'bound', 'k'"),
        ("polygon-parity", {"m": 4, "bound": 2, "n": 3}, "'n'"),
        ("smallcover-simplex-products", {"ns": [3], "trials": 5}, "'trials'"),
        ("cyclic-identities", {"k": 4, "trials": 0}, "trials >= 1, got 0"),
        ("cyclic-identities", {"trials": -5}, "trials >= 1, got -5"),
    ],
    ids=["c5xc5-bound-k", "parity-n", "smallcover-trials", "trials-zero", "trials-negative"],
)
def test_verify_claim_refuses_parameters_it_does_not_read(monkeypatch, claim, params, named):
    # refused before any search or trial starts
    def no_search(*args):
        raise AssertionError("a search started")

    for name in ("enumerate_matrices", "cyclic_identities", "verify_simplex_product_criterion"):
        monkeypatch.setattr(harness, name, no_search)
    with pytest.raises(HarnessError) as exc:
        verify_claim(claim, params)
    assert named in str(exc.value)


@pytest.mark.parametrize(
    "claim, params, named",
    [
        ("polygon-parity", {"m": 4.7, "bound": 1}, "'m' must be an int, got 4.7"),
        ("polygon-parity", {"m": "5"}, "'m' must be an int, got '5'"),
        ("polygon-bordism-parity", {"bound": True}, "'bound' must be an int, got True"),
        ("product-simplices-obstruction", {"ns": [2.9]}, "'ns' must be a list of ints"),
        ("product-simplices-obstruction", {"ns": [2, False]}, "'ns' must be a list of ints"),
        ("smallcover-simplex-products", {"ns": "3"}, "'ns' must be a list of ints"),
        ("smallcover-simplex-products", {"ns": 3}, "'ns' must be a list of ints"),
    ],
    ids=["float", "str", "bool", "float-in-list", "bool-in-list", "str-list", "int-list"],
)
def test_verify_claim_refuses_parameters_that_are_not_ints(
    no_campaign_runs, claim, params, named
):
    # each was converted by int(), run as the truncated value and echoed
    # as given: m = 4.7 ran the square and reported {"m": 4.7} verified
    with pytest.raises(HarnessError, match=named):
        verify_claim(claim, params)


def test_search_spec_refuses_a_bound_that_is_not_an_int():
    # 1.5 reached int.bit_length in the value-count check
    for bound in (1.5, True, "2"):
        with pytest.raises(HarnessError, match="entry bound must be an int"):
            SearchSpec(polygon(4), bound)
    with pytest.raises(HarnessError, match="entry bound must be an int"):
        SearchSpec(polygon(4), 1.0, mod2_only=True)


def test_polygon_witnesses_are_not_validated_again(monkeypatch):
    # a walk survivor is valid and refined at the base by construction,
    # so the campaigns hand it straight to the engine's and Bott's cores
    calls = []

    def counted(p, lam):
        calls.append(lam)
        return validate(p, lam)

    for module in (charmat, stringcheck, structure):
        monkeypatch.setattr(module, "validate", counted)
    rep = verify_claim("odd-gon-not-spin", {"m": 5, "bound": 2})
    assert rep.verdict == "verified"
    rep = verify_claim("polygon-bordism-parity", {"m": 5, "bound": 2})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == PENTAGON_B2_VALID_SIGNS
    rep = verify_claim("cube-string-is-bott", {"n": 3, "bound": 1})
    assert rep.verdict == "verified"
    assert rep.statistics["checked"] == CUBE_B1_STRING_CLASSES
    assert calls == []


def test_claim_resource_cap_gives_capped_verdict():
    rep = verify_claim("cube-string-is-bott", {"n": 3, "bound": 2}, max_nodes=50)
    assert rep.verdict == "resource-capped"
    assert rep.witnesses == []
    assert rep.statistics["nodes"] > 50


# every claim that runs a search, each with its default parameters
SEARCH_CLAIMS = sorted(set(CLAIM_IDS) - {"cyclic-identities", "product-simplices-obstruction"})


@pytest.mark.parametrize("claim", SEARCH_CLAIMS)
def test_every_search_claim_passes_its_caps_to_the_search(claim):
    # the walk counts a node before it checks the cap, so it stops at 2
    rep = verify_claim(claim, max_nodes=1)
    assert rep.verdict == "resource-capped"
    assert rep.witnesses == []
    assert rep.statistics["nodes"] == 2


@pytest.fixture
def no_campaign_runs(monkeypatch):
    """Make the first step of every campaign raise."""
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    for name in ("enumerate_matrices", "cyclic_identities", "key_obstruction",
                 "verify_simplex_product_criterion"):
        monkeypatch.setattr(harness, name, no_search)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_every_claim_refuses_nan_seconds_before_it_runs(no_campaign_runs, claim):
    with pytest.raises(HarnessError, match="max_seconds must be a number, got NaN"):
        verify_claim(claim, max_seconds=float("nan"))


@pytest.mark.parametrize(
    "claim, caps, named",
    [
        ("cyclic-identities", {"max_nodes": 1}, "max_nodes"),
        ("product-simplices-obstruction", {"max_nodes": 0}, "max_nodes"),
        ("product-simplices-obstruction", {"max_seconds": 0}, "max_seconds"),
        ("polygon-parity", {"max_nodes": -1}, "max_nodes must be at least 0"),
        ("cyclic-identities", {"max_seconds": -1}, "max_seconds must be at least 0"),
    ],
    ids=["cyclic-nodes", "simplices-nodes", "simplices-seconds", "negative-nodes",
         "negative-seconds"],
)
def test_claim_refuses_caps_it_cannot_honour_before_it_runs(
    no_campaign_runs, claim, caps, named
):
    # the first three reported "verified" with a cap that played no part
    with pytest.raises(HarnessError, match=named):
        verify_claim(claim, **caps)


def test_search_claim_reports_every_survivor_that_gives_a_witness(monkeypatch):
    # a parity criterion that always disagrees with the engine turns
    # every checked survivor into a counterexample record
    real = harness.polygon_parity_criterion
    monkeypatch.setattr(harness, "polygon_parity_criterion", lambda lam: not real(lam))
    rep = verify_claim("polygon-parity", {"m": 4, "bound": 2})
    assert rep.verdict == "counterexample"
    assert rep.statistics["checked"] == SQUARE_B2_VALID_CLASSES
    survivors, _stats = enumerate_matrices(SearchSpec(polygon(4), 2, "signs", "valid"))
    assert rep.witnesses == [
        {
            "rows": [list(r) for r in lam.rows],
            "engine": is_string(polygon(4), lam),
            "parity": not real(lam),
        }
        for lam in survivors
    ]


def test_claim_report_serializes_to_json():
    rep = verify_claim("polygon-parity", {"m": 3, "bound": 1})
    d = rep.to_dict()
    assert set(d) == {
        "claim", "params", "verdict", "statistics", "witnesses",
        "qtm_version", "python_version",
    }
    assert d["claim"] == "polygon-parity"
    json.dumps(d)
