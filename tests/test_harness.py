"""Tests for the bounded search and the named verification campaigns.

Class counts are pinned against a direct scan oracle: enumerate every
column assignment outright with itertools, validate each matrix
through charmat.validate (or validate_mod2), apply the filter through
the characteristic-class engine, and deduplicate by canonical key.
The oracle shares no code with the search tree (no pruning, no
completion schedule), so agreement checks the DFS end to end.  The
frozen numbers below are the oracle's outputs.
"""

import hashlib
import itertools
import json

import pytest

from qtm import harness, intlin
from qtm.charmat import CharMatrix, canonical_key, validate
from qtm.harness import (
    CLAIM_IDS,
    HarnessError,
    ResourceCapExceeded,
    SearchSpec,
    enumerate_matrices,
    verify_claim,
)
from qtm.polytope import cube, polygon, prism, product
from qtm.smallcover import (
    is_string_smallcover,
    simplex_product,
    validate_mod2,
)
from qtm.stringcheck import is_spin, is_string


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
    ],
    ids=[
        "square-valid", "square-spin", "pentagon-valid", "pentagon-spin",
        "cube-string", "square-prism-string", "cube-b2-spin",
        "hexagonal-prism-string", "pentagon-automorphisms",
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
    def no_key(*args, **kwargs):
        raise AssertionError("the signs walk computed a canonical key")

    monkeypatch.setattr(harness, "canonical_key", no_key)
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
    lexicographically), filtered through the public tests only."""
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
        if filt == "string" and not is_string_smallcover(p, lam):
            continue
        out.append(lam.rows)
    return out


@pytest.mark.parametrize("filt", ["valid", "string"])
@pytest.mark.parametrize(
    "poly",
    # the simplex product is there for its string rejects: 4 orientable
    # leaves, none string
    [polygon(5), prism(3), simplex_product((2, 3))[0]],
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


# every counter and the survivor rows, in order, of three searches; the
# figures are those of the walk that ran one determinant per value
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
            simplex_product((2, 2, 3))[0], 1, "signs", "string", mod2_only=True
        ),
        {
            "nodes": 8256, "pruned": 8128, "candidates": 112,
            "survivors": 0, "string_rejects": 112, "dedup_hits": 0,
            "lex_prunes": 0, "parity_prunes": 8256,
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


def test_time_budget_raises():
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_matrices(
            SearchSpec(cube(3), 3, "signs", "valid", max_seconds=0.0)
        )
    assert "time" in str(exc.value)
    assert exc.value.stats["nodes"] >= 1


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


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_every_claim_refuses_nan_seconds_before_it_runs(monkeypatch, claim):
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    for name in ("enumerate_matrices", "cyclic_identities", "key_obstruction",
                 "verify_simplex_product_criterion"):
        monkeypatch.setattr(harness, name, no_search)
    with pytest.raises(HarnessError, match="max_seconds must be a number, got NaN"):
        verify_claim(claim, max_seconds=float("nan"))


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
