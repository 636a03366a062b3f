"""Tests for the GF(2) small cover checks.

The three worked matrices over products (quadrilateral x triangle,
interval x triangle-of-dimension-2, interval x 3-simplex x 4-simplex)
are pinned as string.  Exhaustive GF(2) enumerations over small
polygons and polygon products serve as the oracle for the counting
and existence assertions, and the simplex-product criterion is checked
against its closed form on every partition that fits the cap, and
against the cross-bit enumeration it used before the mod-2 walk.  The
template-based string core is checked leaf by leaf against the
substitution builder it replaced (`mod2_oracle`).
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import mod2_oracle
from qtm import intlin, smallcover
from qtm.charmat import CharMatrix, CharMatrixError
from qtm.cohomology import relation_template
from qtm.harness import SearchSpec, enumerate_matrices
from qtm.polytope import cube, find_isomorphisms, polygon, prism, product, simplex
from qtm.smallcover import (
    SmallCoverError,
    refine_mod2,
    simplex_product,
    validate_mod2,
    verify_simplex_product_criterion,
)


def cover_verdicts(p, lam):
    """(orientable, string) as `qtm smallcover` prints them for a pair
    valid mod 2: lam refined at a vertex unless it is, then
    `smallcover._refined_verdicts`."""
    return smallcover._refined_verdicts(p, smallcover._refined(p, lam))


def is_orientable(p, lam):
    """Every column sum odd once refined."""
    return cover_verdicts(p, lam)[0]


def is_string_cover(p, lam):
    """Orientable, and sum_{i<j} v_i v_j zero in degree 2."""
    return cover_verdicts(p, lam)[1]


# string structure over the product of a quadrilateral and a triangle;
# facets 1..4 the quadrilateral (opposite pairs {1,3}, {2,4}), 5..7 the
# triangle
QUAD_TRI = CharMatrix(
    [
        [1, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 1, 1],
    ],
    refined_at=(1, 2, 5, 6),
)

# string structure over interval x 2-simplex; facets 1,2 the interval
INTERVAL_TRI = CharMatrix(
    [[1, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
    refined_at=(1, 3, 4),
)


def simplex_blocks(ns):
    """The facets of each factor of simplex_product(ns): factor i has
    ns[i] + 1 consecutive labels."""
    starts = itertools.accumulate((n + 1 for n in ns), initial=1)
    return tuple(tuple(range(a, a + n + 1)) for a, n in zip(starts, ns))


def interval_simplex_tower_matrix():
    """String structure over interval x 3-simplex x 4-simplex."""
    cols = {
        1: (1, 0, 0, 0, 0, 0, 0, 0),
        2: (1, 0, 0, 0, 0, 0, 0, 0),
        3: (0, 1, 0, 0, 0, 0, 0, 0),
        4: (0, 0, 1, 0, 0, 0, 0, 0),
        5: (0, 0, 0, 1, 0, 0, 0, 0),
        6: (0, 1, 1, 1, 0, 0, 0, 0),
        7: (0, 0, 0, 0, 1, 0, 0, 0),
        8: (0, 0, 0, 0, 0, 1, 0, 0),
        9: (0, 0, 0, 0, 0, 0, 1, 0),
        10: (0, 0, 0, 0, 0, 0, 0, 1),
        11: (1, 0, 1, 1, 1, 1, 1, 1),
    }
    rows = [[cols[j][i] for j in range(1, 12)] for i in range(8)]
    return CharMatrix(rows, refined_at=(1, 3, 4, 5, 7, 8, 9, 10))


def all_refined_mod2(p, v0, free):
    """Every mod-2 matrix refined at v0, free columns enumerated."""
    n, m = p.dim, p.num_facets
    v0 = tuple(sorted(v0))
    for bits in itertools.product((0, 1), repeat=n * len(free)):
        rows = [[0] * m for _ in range(n)]
        for k, f in enumerate(v0):
            rows[k][f - 1] = 1
        t = 0
        for f in free:
            for i in range(n):
                rows[i][f - 1] = bits[t]
                t += 1
        yield CharMatrix(rows, refined_at=v0)


# ---------------------------------------------------------------------------
# matrix type


def test_mod2_matrix_checks_refined_columns():
    with pytest.raises(CharMatrixError):
        CharMatrix([[1, 1], [0, 1]], refined_at=(1, 2))


def test_mod2_matrix_round_trips_through_dict():
    d = QUAD_TRI.to_dict("rows_mod2")
    assert d == {"rows_mod2": [list(r) for r in QUAD_TRI.rows]}
    assert CharMatrix.from_dict(d, key="rows_mod2") == QUAD_TRI


def test_validate_mod2():
    p = product(polygon(4), polygon(3))
    assert validate_mod2(p, QUAD_TRI)
    bad = CharMatrix([[1, 0, 1], [0, 1, 0]])
    assert not validate_mod2(polygon(3), bad)
    with pytest.raises(CharMatrixError):
        validate_mod2(polygon(4), bad)


def test_refine_mod2_moves_the_identity():
    p = product(polygon(4), polygon(3))
    for v in p.vertices:
        rl = refine_mod2(p, QUAD_TRI, v)
        assert rl.refined_at == v
        assert validate_mod2(p, rl)
    with pytest.raises(SmallCoverError):
        refine_mod2(p, QUAD_TRI, (1, 2, 3, 4))


def test_refine_mod2_checks_the_shape_first():
    # a 2 x 4 matrix over the triangle used to come back "refined"
    with pytest.raises(CharMatrixError, match="shape 2x4"):
        refine_mod2(polygon(3), CharMatrix([[1, 0, 1, 1], [0, 1, 1, 0]]), (1, 2))


def test_refine_mod2_names_too_few_rows_as_a_shape_error():
    # two rows over the 3-cube were reported as a singular vertex
    p = cube(3)
    lam = CharMatrix([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]])
    with pytest.raises(CharMatrixError, match="shape 2x6"):
        refine_mod2(p, lam, p.vertices[0])


def _outcome(fn, *args):
    """fn(*args), with rows for a matrix, or the class and text of the
    ValueError it raises."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return (out.rows, out.refined_at) if isinstance(out, CharMatrix) else out


def _mod2_cases():
    """(polytope, matrix): the worked examples, a matrix singular at a
    vertex, and walk survivors over C4 x C4 and the 3-cube."""
    cases = [
        (product(polygon(4), polygon(3)), QUAD_TRI),
        (simplex_product((1, 3, 4)), interval_simplex_tower_matrix()),
        (polygon(3), CharMatrix([[1, 0, 1], [0, 1, 0]])),
    ]
    rng = random.Random(17)
    for name in ("C4xC4", "cube3"):
        p, leaves = mod2_leaves(name)
        cases += [(p, lam) for lam in rng.sample(leaves, 4)]
    return cases


def test_gf2_functions_read_entries_mod_2():
    # rows and rows + 2K, K an integer matrix with negative entries,
    # give the same verdicts, the same refined rows and the same errors;
    # a refined matrix keeps its identity columns exact and is lifted
    # elsewhere
    rng = random.Random(3)
    for p, lam in _mod2_cases():
        at = lam.refined_at or ()
        lifted = [
            [x if j in at else x + 2 * rng.randint(-3, 3) for j, x in enumerate(r, 1)]
            for r in lam.rows
        ]
        assert any(x < 0 for r in lifted for x in r)
        assert any(x > 1 for r in lifted for x in r)
        pairs = [(CharMatrix(lam.rows), CharMatrix(lifted))]
        if at:
            pairs.append((lam, CharMatrix(lifted, refined_at=at)))
        for base, lift in pairs:
            for fn in (validate_mod2, is_orientable, is_string_cover):
                assert _outcome(fn, p, base) == _outcome(fn, p, lift), fn.__name__
            for v in p.vertices:
                assert _outcome(refine_mod2, p, base, v) == _outcome(refine_mod2, p, lift, v)


# ---------------------------------------------------------------------------
# orientability and the string condition


def test_quad_triangle_product_is_string():
    # worked example over the quadrilateral x triangle product
    p = product(polygon(4), polygon(3))
    assert is_orientable(p, QUAD_TRI)
    assert is_string_cover(p, QUAD_TRI)


def test_interval_triangle_is_string():
    # worked example over interval x 2-simplex
    p = product(simplex(1), simplex(2))
    assert is_orientable(p, INTERVAL_TRI)
    assert is_string_cover(p, INTERVAL_TRI)


def test_interval_simplex_tower_is_string():
    # worked example over interval x 3-simplex x 4-simplex
    p = simplex_product((1, 3, 4))
    blocks = simplex_blocks((1, 3, 4))
    assert blocks == ((1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11))
    # the factors' facets are labeled consecutively: each vertex omits
    # one facet of every block, and every such choice is a vertex
    assert sorted(p.vertices) == sorted(
        tuple(sorted(set(range(1, 12)) - set(omit))) for omit in itertools.product(*blocks)
    )
    lam = interval_simplex_tower_matrix()
    assert is_orientable(p, lam)
    assert is_string_cover(p, lam)


def test_even_column_sum_kills_orientability():
    # flip the free column of interval x 2-simplex to an even sum
    p = product(simplex(1), simplex(2))
    lam = CharMatrix([[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])
    assert validate_mod2(p, lam)
    assert not is_orientable(p, lam)
    assert not is_string_cover(p, lam)


def test_torus_analogue_square_is_string():
    # the 2-colored square: orientable with vanishing degree-2 class
    lam = CharMatrix([[1, 0, 1, 0], [0, 1, 0, 1]], refined_at=(1, 2))
    assert is_string_cover(polygon(4), lam)


def test_a_pair_refined_off_the_vertices_is_refined_again():
    # the hexagon's 3-colouring is the identity at facets 1 and 4, which
    # do not meet; the string test refines it at a vertex, where the
    # relation template lives, and gives the verdict the substitution
    # builder gives at {1, 4}
    p = polygon(6)
    lam = CharMatrix([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]], refined_at=(1, 4))
    assert not p.is_vertex(lam.refined_at)
    assert is_string_cover(p, lam) is mod2_oracle.refined_is_string(p, lam) is True
    rl = smallcover._refined(p, lam)
    assert rl.refined_at == p.vertices[0] == (1, 2)
    t = relation_template(p, rl.refined_at)
    assert t.free == (3, 4, 5, 6) and len(t.generators) == 10


def test_triangle_is_not_orientable():
    # the triangle carries only the projective plane
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]], refined_at=(1, 2))
    assert validate_mod2(polygon(3), lam)
    assert not is_orientable(polygon(3), lam)


def test_string_verdict_is_move_invariant():
    # refinement at any vertex and any facet relabeling by an
    # automorphism leave the verdict unchanged
    p = product(polygon(4), polygon(3))
    for v in p.vertices:
        assert is_string_cover(p, refine_mod2(p, QUAD_TRI, v))
    for iso in find_isomorphisms(p, p)[:8]:
        rows = [[0] * 7 for _ in range(4)]
        for f in range(1, 8):
            col = QUAD_TRI.column(f)
            for i in range(4):
                rows[i][iso[f] - 1] = col[i]
        assert is_string_cover(p, CharMatrix(rows))


def test_degree2_presentation_consistency():
    # quadrilateral x triangle: 3 free facets give 6 monomials, the two
    # opposite-side nonfaces each meet the base, so they give 2 live
    # rows and no dead monomial, and the quotient dimension 4 matches
    # h_2 (checked when the template is built)
    p = product(polygon(4), polygon(3))
    t = relation_template(p, QUAD_TRI.refined_at)
    assert t.free == (3, 4, 7)
    assert len(t.generators) == 6
    assert (3, 3) in t.generators  # squares are retained
    assert t.live == t.generators and len(t.live_terms) == 2
    assert t.quotient_rank == 4 == p.h_vector()[2]


def test_degree2_presentation_keeps_its_checks(monkeypatch):
    # the string test reaches the presentation only through its checks
    p = product(polygon(4), polygon(3))
    with pytest.raises(CharMatrixError):
        validate_mod2(polygon(4), QUAD_TRI)
    with pytest.raises(CharMatrixError):
        smallcover._refined(polygon(4), QUAD_TRI)
    # an unrefined matrix is refined at the first vertex first
    unrefined = CharMatrix(QUAD_TRI.rows)
    at_first = refine_mod2(p, QUAD_TRI, p.vertices[0])
    assert smallcover._refined(p, unrefined) == at_first
    assert smallcover._refined(p, unrefined).refined_at == at_first.refined_at
    # a leaf's verdict reads the polytope's shared relation template and
    # makes one elimination, of its live rows, which both certifies them
    # and reduces the class
    t = relation_template(p, QUAD_TRI.refined_at)
    templates, calls = [], []
    monkeypatch.setattr(
        smallcover, "relation_template",
        lambda p, base: templates.append(relation_template(p, base)) or templates[-1],
    )
    echelon = intlin._f2_echelon
    monkeypatch.setattr(
        intlin, "_f2_echelon", lambda masks: calls.append(list(masks)) or echelon(masks)
    )
    assert smallcover._refined_verdicts(p, QUAD_TRI)[1]
    assert len(templates) == 1 and templates[0] is t
    assert len(calls) == 1 and len(calls[0]) == len(t.live_terms)
    # dependent live rows raise, in the core and in the verdict
    col = [0] + [1] * p.num_facets
    for k, f in enumerate(QUAD_TRI.refined_at):
        col[f] = 1 << k
    with pytest.raises(SmallCoverError, match="quotient dimension"):
        smallcover._w2_vanishes(t, col)
    dependent = CharMatrix(
        [[col[f] >> i & 1 for f in range(1, p.num_facets + 1)] for i in range(p.dim)],
        refined_at=QUAD_TRI.refined_at,
    )
    # such a matrix is singular somewhere, so `qtm smallcover` refuses it
    # first; past that check its live rows still raise
    assert not validate_mod2(p, dependent)
    with pytest.raises(SmallCoverError, match="quotient dimension"):
        is_string_cover(p, dependent)


# ---------------------------------------------------------------------------
# the template core against the substitution builder it replaced

# name -> (polytope, valid leaves of its mod-2 walk, string leaves);
# 3,658 leaves in all
MOD2_WALKS = {
    "C5xC4": (lambda: product(polygon(5), polygon(4)), 2155, 90),
    "C4xC4": (lambda: product(polygon(4), polygon(4)), 543, 43),
    "cube3": (lambda: cube(3), 25, 4),
    "cube4": (lambda: cube(4), 543, 43),
    "prism5": (lambda: prism(5), 65, 5),
    "polygon6": (lambda: polygon(6), 11, 1),
    "D3": (lambda: simplex(3), 1, 1),
    "D3xD3": (lambda: simplex_product((3, 3)), 15, 1),
    "D2xD3": (lambda: simplex_product((2, 3)), 11, 0),
    "D2^3": (lambda: simplex_product((2, 2, 2)), 289, 0),
}


@functools.cache
def mod2_leaves(name):
    """The polytope and every valid leaf of its mod-2 walk."""
    p = MOD2_WALKS[name][0]()
    leaves, _stats = enumerate_matrices(SearchSpec(p, 1, "signs", "valid", mod2_only=True))
    return p, leaves


@pytest.mark.parametrize("name", MOD2_WALKS)
def test_string_core_matches_the_substitution_builder(name):
    p, leaves = mod2_leaves(name)
    _make, nleaves, nstring = MOD2_WALKS[name]
    verdicts = [smallcover._refined_verdicts(p, lam)[1] for lam in leaves]
    assert verdicts == [mod2_oracle.refined_is_string(p, lam) for lam in leaves]
    assert (len(leaves), sum(verdicts)) == (nleaves, nstring)
    # the string walk decides on its column masks and keeps exactly the
    # string leaves, in walk order
    strings, stats = enumerate_matrices(SearchSpec(p, 1, "signs", "string", mod2_only=True))
    assert strings == [lam for lam, s in zip(leaves, verdicts) if s]
    assert stats["candidates"] - stats["string_rejects"] == nstring


def _assert_live_rows_match_the_substitution(p, rl):
    """The template's live rows of rl, packed from its column masks, are
    the substitution builder's relation masks on the live monomials;
    each other mask is the unit of a dead monomial."""
    t = relation_template(p, rl.refined_at)
    col = smallcover._column_masks(rl)
    live = [
        sum(1 << c for j, c in terms if col[j] >> k & 1) for k, terms in t.live_terms
    ]
    gens, masks, free = mod2_oracle.degree2_presentation(p, rl)
    assert (gens, free) == (t.generators, t.free)
    expected = []
    for (a, b), mask in zip(p.nonface_pairs(), masks):
        if a in rl.refined_at or b in rl.refined_at:
            expected.append(sum(
                1 << c for g, c in enumerate(t.gen_live) if c is not None and mask >> g & 1
            ))
        else:
            g = t.gen_index[(a, b)]
            assert mask == 1 << g and t.gen_live[g] is None
    assert live == expected
    assert t.gen_live.count(None) == len(masks) - len(live)
    assert len(smallcover._live_echelon(t, col)) == len(live)


@pytest.mark.parametrize("name", ["cube3", "prism5", "polygon6", "D3xD3", "D2xD3"])
def test_degree2_presentation_matches_the_substitution_builder(name):
    # every valid leaf, refined at every vertex: each base has its own
    # template
    p, leaves = mod2_leaves(name)
    for lam in leaves:
        _assert_live_rows_match_the_substitution(p, lam)
        for v in p.vertices[1:]:
            _assert_live_rows_match_the_substitution(p, refine_mod2(p, lam, v))


@functools.cache
def c4xc4_leaves_by_verdict():
    """The valid C4xC4 leaves, split by the substitution builder's verdict."""
    p, leaves = mod2_leaves("C4xC4")
    verdicts = [mod2_oracle.refined_is_string(p, x) for x in leaves]
    return {s: [x for x, v in zip(leaves, verdicts) if v is s] for s in (False, True)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_string_verdict_survives_row_operations_and_refinement(data):
    p, _leaves = mod2_leaves("C4xC4")
    string = data.draw(st.booleans())
    lam = data.draw(st.sampled_from(c4xc4_leaves_by_verdict()[string]))
    rows = [list(r) for r in lam.rows]
    n = p.dim
    for i, j, swap in data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                 max_size=12)
    ):
        if swap:
            rows[i], rows[j] = rows[j], rows[i]
        elif i != j:
            rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    v = data.draw(st.sampled_from(p.vertices))
    moved = refine_mod2(p, CharMatrix(rows), v)
    assert smallcover._refined_verdicts(p, moved)[1] is string
    assert is_string_cover(p, CharMatrix(rows)) is string


@pytest.mark.parametrize("ns", [(3, 3), (2, 3)])
def test_mod2_string_walk_eliminates_once_per_leaf(monkeypatch, ns):
    # the vertex test's f2_normal runs one elimination per distinct set of
    # columns; every other elimination is a leaf's, and only survivors
    # become matrices
    p = simplex_product(ns)
    echelons, normals, built = [], [], []
    echelon, normal, init = intlin._f2_echelon, intlin.f2_normal, CharMatrix.__init__
    monkeypatch.setattr(
        intlin, "_f2_echelon", lambda masks: echelons.append(1) or echelon(masks)
    )
    monkeypatch.setattr(
        intlin, "f2_normal", lambda masks, n: normals.append(1) or normal(masks, n)
    )
    monkeypatch.setattr(
        CharMatrix,
        "__init__",
        lambda self, rows, refined_at=None: built.append(rows) or init(self, rows, refined_at),
    )
    survivors, stats = enumerate_matrices(SearchSpec(p, 1, "signs", "string", mod2_only=True))
    assert stats["string_rejects"] > 0
    assert len(echelons) - len(normals) == stats["candidates"]
    assert len(built) == len(survivors) == stats["survivors"]


# ---------------------------------------------------------------------------
# exhaustive polygon counts (oracle: full GF(2) enumeration)


def test_no_string_small_cover_over_odd_polygon():
    p = polygon(5)
    hits = [
        lam
        for lam in all_refined_mod2(p, (1, 2), (3, 4, 5))
        if validate_mod2(p, lam) and is_string_cover(p, lam)
    ]
    assert hits == []


def test_unique_string_small_cover_over_hexagon():
    # in refined form at the base vertex the 3-coloring is the only one
    p = polygon(6)
    hits = [
        lam
        for lam in all_refined_mod2(p, (1, 2), (3, 4, 5, 6))
        if validate_mod2(p, lam) and is_string_cover(p, lam)
    ]
    assert len(hits) == 1
    assert hits[0].rows == ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1))


def test_polygon_product_string_counts_follow_parity():
    # string structures over C(m1) x C(m2) exist iff m1 * m2 is even:
    # 3 x 3 has none, 4 x 3 has some
    p33 = product(polygon(3), polygon(3))
    hits33 = sum(
        1
        for lam in all_refined_mod2(p33, (1, 2, 4, 5), (3, 6))
        if validate_mod2(p33, lam) and is_string_cover(p33, lam)
    )
    assert hits33 == 0
    p43 = product(polygon(4), polygon(3))
    hits43 = sum(
        1
        for lam in all_refined_mod2(p43, (1, 2, 5, 6), (3, 4, 7))
        if validate_mod2(p43, lam) and is_string_cover(p43, lam)
    )
    assert hits43 == 8


# ---------------------------------------------------------------------------
# products of simplices


def test_simplex_product_criterion_positive_cases():
    assert verify_simplex_product_criterion((3,)) is True
    assert verify_simplex_product_criterion((7,)) is True
    assert verify_simplex_product_criterion((3, 3)) is True


def test_simplex_product_criterion_negative_cases():
    # (5,) is the subtle one: all dimensions odd but none is 3 mod 4
    for ns in ((2,), (4,), (5,), (6,), (2, 2), (2, 3), (2, 4), (2, 5), (3, 4)):
        assert verify_simplex_product_criterion(ns) is False


def test_simplex_product_criterion_three_factors():
    assert verify_simplex_product_criterion((2, 2, 3)) is False


def test_simplex_product_criterion_input_checks():
    with pytest.raises(SmallCoverError):
        verify_simplex_product_criterion((1, 3))
    with pytest.raises(SmallCoverError):
        verify_simplex_product_criterion((3, 5))
    with pytest.raises(SmallCoverError, match="sum of dimensions 8 exceeds the enumeration cap 7"):
        verify_simplex_product_criterion((4, 4))
    with pytest.raises(SmallCoverError):
        verify_simplex_product_criterion(())


def old_cross_bit_criterion(ns):
    """The criterion's search before it used the mod-2 walk: refined at
    the vertex omitting the last facet of every block, each factor's
    free column all-ones on its own rows, every cross-factor bit
    enumerated, each matrix validated and string-tested outright."""
    poly, blocks = simplex_product(ns), simplex_blocks(ns)
    n, m = poly.dim, poly.num_facets
    row_of = {}
    for blk in blocks:
        for f in blk[:-1]:
            row_of[f] = len(row_of)
    base = [[0] * m for _ in range(n)]
    for f, i in row_of.items():
        base[i][f - 1] = 1
    cross = []
    for blk in blocks:
        own = {row_of[f] for f in blk[:-1]}
        for i in range(n):
            if i in own:
                base[i][blk[-1] - 1] = 1
            else:
                cross.append((i, blk[-1]))
    for bits in itertools.product((0, 1), repeat=len(cross)):
        rows = [r[:] for r in base]
        for (i, f), bit in zip(cross, bits):
            rows[i][f - 1] = bit
        lam = CharMatrix(rows)
        if validate_mod2(poly, lam) and is_string_cover(poly, lam):
            return True
    return False


@pytest.mark.parametrize(
    "ns",
    [(2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3), (2, 4), (2, 5),
     (3, 3), (3, 4), (2, 2, 2)],
    ids=lambda ns: "x".join(map(str, ns)),
)
def test_simplex_product_criterion_matches_cross_bit_enumeration(ns):
    assert verify_simplex_product_criterion(ns) is old_cross_bit_criterion(ns)
