"""Tests for the combinatorial polytope layer.

Expected counts come from closed-form face numbers of the classical
families (simplex, cube, polygon, prism) and, for symmetry groups, from
a raw permutation filter written independently of the search code.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st
from polytope_oracle import edge_cut_3d, isomorphic, ridge_verdict, three_belts

import qtm.polytope as polytope
from qtm.polytope import (
    PolytopeError,
    SimplePolytope,
    connected_sum,
    cube,
    edge_connected_sum,
    find_coloring,
    find_isomorphisms,
    key_obstruction,
    polygon,
    prism,
    product,
    product_splits,
    q_polytope,
    simplex,
    _Q_VERTICES,
)


def f_vector(p):
    """(f_0, ..., f_{n-1}): an (n-j)-dimensional face is a j-set of
    facets, so f_{n-j} is the face count c_j."""
    return p.face_counts()[:0:-1]


def relabeled(p, perm):
    """p with facet f renamed perm[f], checked as a new polytope."""
    vs = [tuple(sorted(perm[f] for f in v)) for v in p.vertices]
    return SimplePolytope(p.dim, p.num_facets, vs, name=p.name)


def brute_isomorphisms(p, q):
    """Oracle: filter all m! facet bijections directly."""
    qset = set(q.vertices)
    out = []
    for img in permutations(range(1, q.num_facets + 1)):
        perm = (0,) + img
        mapped = sorted(tuple(sorted(perm[f] for f in v)) for v in p.vertices)
        if mapped == sorted(qset):
            out.append(perm)
    return out


def splits_by_definition(p):
    """Oracle: every bipartition (A, B) with facet 1 in A, in ascending
    bitmask order of A, such that every vertex splits as a | b with a a
    vertex of the A-part and b one of the B-part, and all combinations
    occur."""
    m = p.num_facets
    verts = {frozenset(v) for v in p.vertices}
    out = []
    for amask in range(1, (1 << m) - 1, 2):
        a = frozenset(f for f in range(1, m + 1) if amask >> (f - 1) & 1)
        aparts = {v & a for v in verts}
        bparts = {v - a for v in verts}
        # the parts are disjoint, so the combinations are all distinct
        if len(aparts) * len(bparts) != len(verts):
            continue
        if {x | y for x in aparts for y in bparts} == verts:
            b = frozenset(range(1, m + 1)) - a
            out.append((tuple(sorted(a)), tuple(sorted(b))))
    return out


def test_simplex_counts():
    for n in range(1, 6):
        s = simplex(n)
        assert len(s.vertices) == n + 1
        assert f_vector(s) == tuple(
            _binom(n + 1, i + 1) for i in range(n)
        )
        assert s.h_vector() == (1,) * (n + 1)
        if n == 1:
            assert s.nonface_pairs() == [(1, 2)]
        else:
            assert s.nonface_pairs() == []


def _binom(a, b):
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def test_polygon_counts():
    for m in range(3, 9):
        g = polygon(m)
        assert f_vector(g) == (m, m)
        assert g.h_vector() == (1, m - 2, 1)
        assert g.facet_degrees == (2,) * m
        assert len(g.nonface_pairs()) == m * (m - 3) // 2
    assert polygon(3).vertices == simplex(2).vertices


def test_cube_counts():
    for n in range(1, 5):
        c = cube(n)
        assert len(c.vertices) == 2 ** n
        assert f_vector(c) == tuple(
            2 ** (n - i) * _binom(n, i) for i in range(n)
        )
        assert c.h_vector() == tuple(_binom(n, k) for k in range(n + 1))
    assert cube(3).nonface_pairs() == [(1, 4), (2, 5), (3, 6)]
    assert isomorphic(cube(2), polygon(4))


@pytest.mark.parametrize("family", ["cube", "simplex"])
@pytest.mark.parametrize("n", [-1, 0])
def test_family_refuses_dimension_below_one(family, n):
    # -1 raised Python's own "negative shift count" (cube) or "r must be
    # non-negative" (simplex); 0 raised "impossible dimensions"
    with pytest.raises(PolytopeError, match=f"^{family} needs dimension n >= 1, got {n}$"):
        getattr(polytope, family)(n)


def test_prism_counts():
    for s in range(3, 8):
        pr = prism(s)
        assert f_vector(pr) == (2 * s, 3 * s, s + 2)
        assert pr.h_vector() == (1, s - 1, s - 1, 1)
        assert pr.facet_degrees == (s,) + (4,) * s + (s,)
    assert isomorphic(prism(4), cube(3))


def test_automorphism_groups_against_brute_force():
    for p in (simplex(2), simplex(3), polygon(4), polygon(5),
              prism(3), prism(5), q_polytope()):
        found = {tuple(a) for a in p.automorphisms()}
        raw = set(brute_isomorphisms(p, p))
        assert found == raw
    # dihedral group of the base polygon times the top-bottom swap
    assert len(prism(5).automorphisms()) == 20
    assert len(prism(6).automorphisms()) == 24
    assert len(polygon(7).automorphisms()) == 14
    assert len(cube(3).automorphisms()) == 48


def test_isomorphism_search():
    assert len(find_isomorphisms(prism(4), cube(3))) == 48
    assert find_isomorphisms(prism(5), prism(6)) == []
    assert not isomorphic(prism(6), product(polygon(3), polygon(3)))
    rot = {f: (f % 5) + 1 for f in range(1, 6)}
    g = relabeled(polygon(5), [0] + [rot[f] for f in range(1, 6)])
    assert g.vertices == polygon(5).vertices


def test_euler_and_h_sum():
    for p in (simplex(3), cube(3), prism(5), q_polytope()):
        f0, f1, f2 = f_vector(p)
        assert f0 - f1 + f2 == 2
        assert sum(p.h_vector()) == f0
        assert p.h_vector()[1] == p.num_facets - p.dim


def test_equal_polytopes_share_derived_data(monkeypatch):
    # derived data are cached per vertex tuple, not per instance: two
    # distinct equal polytopes build each datum once between them
    calls = {"isomorphisms": 0, "faces": 0}
    find, build_faces = polytope.find_isomorphisms, SimplePolytope._build_face_set

    def counting_find(p, q):
        calls["isomorphisms"] += 1
        return find(p, q)

    def counting_faces(self):
        calls["faces"] += 1
        return build_faces(self)

    monkeypatch.setattr(polytope, "find_isomorphisms", counting_find)
    monkeypatch.setattr(SimplePolytope, "_build_face_set", counting_faces)
    monkeypatch.setattr(polytope, "_CACHE", {})
    a, b = (SimplePolytope(3, 6, cube(3).vertices) for _ in range(2))
    assert a is not b
    for p in (a, b):
        assert len(p.automorphisms()) == 48
        assert p.h_vector() == (1, 3, 3, 1)
        assert p.nonface_pairs() == [(1, 4), (2, 5), (3, 6)]
        assert len(product_splits(p)) == 3
    assert calls == {"isomorphisms": 1, "faces": 1}


def test_h_vector_is_cached_only_when_palindromic():
    p = prism(5)
    assert p.h_vector() is p.h_vector()
    # the 7-vertex torus passes the ridge check, but its h-vector
    # (1, 4, 10, -1) is not palindromic: every call raises
    torus = SimplePolytope(3, 7, [
        tuple(sorted((i + d) % 7 + 1 for d in shape))
        for i in range(7) for shape in ((0, 1, 3), (0, 2, 3))
    ])
    for _ in range(2):
        with pytest.raises(PolytopeError, match="palindromic"):
            torus.h_vector()


def test_q_polytope():
    q = q_polytope()
    assert q.facet_degrees == (4, 5, 5, 5, 4, 4, 4, 5)
    assert f_vector(q) == (12, 18, 8)
    assert q.h_vector() == (1, 5, 5, 1)
    # cutting a top edge off the pentagonal prism gives Q; cutting a
    # vertical edge does not (it turns both neighbours into pentagons)
    top_cut = edge_cut_3d(prism(5), (1, 3))
    assert isomorphic(top_cut, q)
    vertical_cut = edge_cut_3d(prism(5), (3, 4))
    assert sorted(vertical_cut.facet_degrees) != sorted(q.facet_degrees)


def test_q_completion_forced():
    # the nine vertices touching facets 1, 2, 3 fix the rest of Q: among
    # all pseudomanifold completions, only one matches the degree profile
    # of four quadrilaterals and four pentagons
    given = [v for v in _Q_VERTICES if v not in ((4, 5, 8), (4, 7, 8), (6, 7, 8))]
    assert len(given) == 9
    candidates = [t for t in combinations(range(1, 9), 3) if t not in given]
    completions = []
    for extra in combinations(candidates, 3):
        try:
            p = SimplePolytope(3, 8, given + list(extra))
        except PolytopeError:
            continue
        completions.append((extra, p.facet_degrees))
    # the closed-complex condition alone admits other spheres, so the
    # degree profile is a genuine part of the input
    assert len(completions) > 1
    matching = [e for e, deg in completions if deg == (4, 5, 5, 5, 4, 4, 4, 5)]
    assert matching == [((4, 5, 8), (4, 7, 8), (6, 7, 8))]


def test_product():
    assert isomorphic(product(polygon(4), simplex(1)), cube(3))
    pq = product(polygon(4), polygon(5))
    assert pq.dim == 4 and pq.num_facets == 9
    assert len(pq.vertices) == 20
    # h-vector of a product is the convolution of the factors'
    assert pq.h_vector() == (1, 5, 8, 5, 1)
    assert isomorphic(product(polygon(3), simplex(1)), prism(3))


def test_product_splits():
    assert len(product_splits(cube(3))) == 3
    assert len(product_splits(cube(4))) == 7
    assert product_splits(simplex(3)) == []
    assert product_splits(polygon(4)) == [((1, 3), (2, 4))]
    pq = product(polygon(5), simplex(2))
    splits = product_splits(pq)
    assert splits == [((1, 2, 3, 4, 5), (6, 7, 8))]


def test_product_splits_match_the_definition():
    # the family polytopes, the products and the connected sums the
    # suite builds, up to 12 facets, against the bipartition oracle
    family = (
        [simplex(n) for n in range(1, 6)]
        + [polygon(m) for m in range(3, 13)]
        + [cube(n) for n in range(1, 7)]
        + [prism(s) for s in range(3, 11)]
        + [q_polytope()]
    )
    factors = [simplex(1), simplex(2), simplex(3), polygon(4), polygon(5),
               polygon(6), prism(3), q_polytope()]
    products = [product(p, q) for p in factors for q in factors
                if p.num_facets + q.num_facets <= 12]
    products += [
        product(product(simplex(2), simplex(2)), simplex(1)),
        product(product(simplex(2), simplex(2)), simplex(3)),
        product(product(simplex(1), simplex(3)), simplex(4)),
    ]
    sums = [
        connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))[0],
        connected_sum(cube(3), (4, 5, 6), prism(5), (1, 2, 3))[0],
        connected_sum(prism(4), (1, 2, 3), q_polytope(), (1, 2, 3))[0],
    ]
    for p in family + products + sums:
        assert p.num_facets <= 12
        # a fresh copy, so no cached split list is read back
        fresh = SimplePolytope(p.dim, p.num_facets, p.vertices)
        assert product_splits(fresh) == splits_by_definition(p), p


def test_product_splits_past_sixteen_facets():
    assert product_splits(prism(16)) == [((1, 18), tuple(range(2, 18)))]
    assert len(product_splits(cube(9))) == 255
    assert product_splits(polygon(17)) == []


def test_connected_sum():
    s, _, _ = connected_sum(simplex(2), (1, 2), simplex(2), (1, 2))
    assert isomorphic(s, polygon(4))
    t, _, _ = connected_sum(simplex(3), (1, 2, 3), simplex(3), (1, 2, 3))
    assert isomorphic(t, prism(3))
    # the cube-to-cube sum keeps the left cube's labels and appends the
    # right cube's free facets: glued facets sit at positions 4, 5, 6
    u, p_map, q_map = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    assert u.num_facets == 9 and len(u.vertices) == 14
    assert p_map == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}
    assert q_map == {1: 4, 2: 5, 3: 6, 4: 7, 5: 8, 6: 9}
    assert (4, 5, 6) in three_belts(u)
    with pytest.raises(PolytopeError):
        connected_sum(cube(3), (1, 2, 4), cube(3), (1, 2, 3))


def test_edge_connected_sum():
    out, p_map, q_map = edge_connected_sum(
        prism(4), (4, 5), (1, 6), prism(4), (3, 2), (1, 6)
    )
    assert out.num_facets == 8 and len(out.vertices) == 12
    assert isomorphic(out, prism(6))
    # merged facets take positions 1..4 in edge-then-ends order
    assert p_map[4] == 1 and p_map[5] == 2 and p_map[1] == 3 and p_map[6] == 4
    assert q_map[3] == 1 and q_map[2] == 2 and q_map[1] == 3 and q_map[6] == 4
    with pytest.raises(PolytopeError):
        edge_connected_sum(prism(4), (2, 4), (1, 6), prism(4), (3, 2), (1, 6))
    with pytest.raises(PolytopeError):
        # simplices leave no free facets, so the glued halves collide
        edge_connected_sum(simplex(3), (1, 2), (3, 4), simplex(3), (1, 2), (3, 4))


# ---------------------------------------------------------------------------
# the gluing cache


def _glue_vertex(p, q):
    return connected_sum(p, (4, 5, 6), q, (1, 2, 3))


def _glue_edge(p, q):
    return edge_connected_sum(p, (4, 5), (1, 6), q, (3, 2), (1, 6))


def _fresh(glue, p, q):
    polytope._CACHE.clear()
    return glue(p, q)


@pytest.mark.parametrize("glue, p, q", [
    (_glue_vertex, cube(3), prism(4)),
    (_glue_edge, prism(4), prism(4)),
])
def test_cached_gluing_equals_a_fresh_build(glue, p, q):
    first = _fresh(glue, p, q)[0]
    cached, p_map, q_map = glue(p, q)
    assert cached is first
    fresh, fresh_p, fresh_q = _fresh(glue, p, q)
    assert fresh is not cached
    assert (cached.vertices, cached.name) == (fresh.vertices, fresh.name)
    assert (p_map, q_map) == (fresh_p, fresh_q)
    # a copy of an input is an equal input, so it shares the entry
    copy_p = SimplePolytope(p.dim, p.num_facets, p.vertices, name=p.name)
    assert glue(copy_p, q)[0] is fresh


def test_cached_gluing_returns_fresh_maps():
    for glue, p, q in ((_glue_vertex, cube(3), prism(4)),
                       (_glue_edge, prism(4), prism(4))):
        _out, p_map, q_map = _fresh(glue, p, q)
        expected = (dict(p_map), dict(q_map))
        p_map[1] = -1
        q_map.clear()
        _out, p_map2, q_map2 = glue(p, q)
        assert (p_map2, q_map2) == expected
        assert p_map2 is not p_map and q_map2 is not q_map


def test_cached_gluing_keys_on_names():
    # equal polytopes, one named and one not: the vertex sum names its
    # result after its inputs, so each gets its own entry and name
    named = cube(3)
    unnamed = SimplePolytope(3, 6, named.vertices)
    assert named == unnamed
    polytope._CACHE.clear()
    for _ in range(2):
        a, _, _ = connected_sum(named, (4, 5, 6), named, (1, 2, 3))
        b, _, _ = connected_sum(unnamed, (4, 5, 6), named, (1, 2, 3))
        c, _, _ = connected_sum(named, (4, 5, 6), unnamed, (1, 2, 3))
        assert a.name == "(cube-3)#(cube-3)"
        assert b.name == "" and c.name == ""
        assert a == b == c and a is not b
    # the edge sum leaves its result unnamed, so names do not matter
    e, _, _ = edge_connected_sum(prism(4), (4, 5), (1, 6), prism(4), (3, 2), (1, 6))
    unnamed4 = SimplePolytope(3, 6, prism(4).vertices)
    f, _, _ = edge_connected_sum(unnamed4, (4, 5), (1, 6), unnamed4, (3, 2), (1, 6))
    assert e.name == "" and f is e


def test_gluing_builds_once_per_key(monkeypatch):
    built = []
    real = SimplePolytope.__init__

    def counting(self, *args, **kwargs):
        built.append(args[2])
        real(self, *args, **kwargs)

    polytope._CACHE.clear()
    # the family shapes are cached too: build them before counting
    c3, p4 = cube(3), prism(4)
    monkeypatch.setattr(SimplePolytope, "__init__", counting)
    for _ in range(3):
        _glue_vertex(c3, p4)
        _glue_edge(p4, p4)
    assert len(built) == 2
    # a different glued vertex or edge is a different key
    connected_sum(c3, (4, 5, 6), p4, (2, 3, 6))
    edge_connected_sum(p4, (4, 5), (1, 6), p4, (2, 3), (1, 6))
    assert len(built) == 4
    # the checks on the inputs run on every call, cached key or not
    with pytest.raises(PolytopeError, match="must glue at vertices"):
        connected_sum(c3, (1, 2, 4), p4, (1, 2, 3))
    with pytest.raises(PolytopeError, match="not an edge"):
        edge_connected_sum(p4, (2, 4), (1, 6), p4, (3, 2), (1, 6))
    assert len(built) == 4


def test_gluing_cache_is_cleared_when_full(monkeypatch):
    monkeypatch.setattr(polytope, "_CACHE_SIZE", 2)
    # built before the cache is emptied, so it holds the gluings alone
    c3, p4 = cube(3), prism(4)
    polytope._CACHE.clear()
    first, _, _ = _glue_vertex(c3, p4)
    _glue_edge(p4, p4)
    assert len(polytope._CACHE) == 2
    connected_sum(c3, (4, 5, 6), p4, (2, 3, 6))
    assert len(polytope._CACHE) == 1
    again, _, _ = _glue_vertex(c3, p4)
    assert again == first and again is not first
    assert len(polytope._CACHE) == 2


def test_edge_cut():
    assert isomorphic(edge_cut_3d(simplex(3), (1, 2)), prism(3))
    c = edge_cut_3d(cube(3), (1, 2))
    assert c.num_facets == 7 and len(c.vertices) == 10


def test_validation_errors():
    with pytest.raises(PolytopeError):
        SimplePolytope(2, 4, [(1, 2), (2, 3), (1, 3)])  # facet 4 unused
    with pytest.raises(PolytopeError):
        SimplePolytope(2, 3, [(1, 2), (2, 3)])  # open chain
    with pytest.raises(PolytopeError):
        SimplePolytope(2, 3, [(1, 2), (1, 2), (2, 3), (1, 3)])
    with pytest.raises(PolytopeError):
        SimplePolytope(3, 4, [(1, 2), (2, 3), (1, 3)])  # wrong vertex size
    # two disjoint triangles pass the ridge check but are not a sphere
    with pytest.raises(PolytopeError, match="^the complex falls into 2 disconnected parts$"):
        SimplePolytope(2, 6, [(1, 2), (2, 3), (1, 3), (4, 5), (4, 6), (5, 6)])


def test_coloring():
    col = find_coloring(cube(3), 3)
    assert col is not None
    col5 = find_coloring(prism(6), 3)
    assert col5 is not None
    for p, c in ((cube(3), col), (prism(6), col5)):
        for v in p.vertices:
            assert len({c[f - 1] for f in v}) == p.dim
    assert find_coloring(polygon(5), 2) is None
    assert find_coloring(polygon(4), 2) is not None
    assert find_coloring(q_polytope(), 3) is None
    assert find_coloring(q_polytope(), 4) is not None


def test_key_obstruction():
    assert key_obstruction(simplex(2)) == ((1, 2), 3)
    assert key_obstruction(simplex(3)) == ((1, 2, 3), 4)
    assert key_obstruction(cube(3)) is None
    assert key_obstruction(polygon(4)) is None
    assert key_obstruction(polygon(5)) is None
    # a simplex factor of dimension >= 2 fires inside any product
    assert key_obstruction(product(simplex(2), simplex(1))) is not None
    assert key_obstruction(product(simplex(2), simplex(2))) is not None
    assert key_obstruction(product(cube(1), cube(2))) is None


def test_three_belts():
    assert three_belts(cube(3)) == []
    assert three_belts(prism(5)) == []
    assert three_belts(simplex(3)) == []
    u, _, _ = connected_sum(prism(3), (1, 2, 3), prism(3), (1, 2, 3))
    assert len(three_belts(u)) >= 1


def test_serialization():
    for p in (cube(3), q_polytope(), prism(5)):
        d = p.to_dict()
        back = SimplePolytope.from_dict(d)
        assert back == p and back.name == p.name


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ridge_check_agrees_with_a_tuple_keyed_oracle(data):
    # the ridges are keyed by bitmask; the verdict and the ridge a
    # message names must be those of the check on facet tuples
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(n + 1, n + 3))
    cells = list(combinations(range(1, m + 1), n))
    vertices = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    assume({f for v in vertices for f in v} == set(range(1, m + 1)))
    expected = ridge_verdict(n, vertices)
    if expected is None:
        assert SimplePolytope(n, m, vertices).vertices == tuple(sorted(vertices))
    else:
        with pytest.raises(PolytopeError) as info:
            SimplePolytope(n, m, vertices)
        assert str(info.value) == expected


def test_a_vertex_that_repeats_a_facet_is_refused():
    # a square whose vertex (1, 2) is written (1, 1): every vertex has
    # two entries and every facet is used
    with pytest.raises(PolytopeError, match=r"^vertex \(1, 1\) repeats a facet$"):
        SimplePolytope.from_dict({"dim": 2, "num_facets": 4,
                                  "vertices": [[1, 1], [2, 3], [3, 4], [1, 4]]})


def test_unused_facets_message_is_capped():
    # twelve unused facets: the message names the first ten
    with pytest.raises(PolytopeError, match=r"^facets \[13, 14, .*, 22\] and 2 more unused$"):
        SimplePolytope(2, 24, polygon(12).vertices)
    # more facets than vertex slots is rejected before anything else
    with pytest.raises(PolytopeError, match="^25 facets cannot all occur on 12 vertices$"):
        SimplePolytope(2, 25, polygon(12).vertices)
