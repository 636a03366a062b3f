"""Tests for characteristic matrix validation, refinement, and the
search's orbit leaders, checked against the canonical-key oracle."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qtm import charmat, intlin, polytope
from qtm.charmat import (
    CharMatrix,
    CharMatrixError,
    ColumnSignFlip,
    FacetPermutation,
    RowBasisChange,
    _moved,
    _normalizing_moves,
    refine,
    validate,
)
from qtm.harness import (
    SearchSpec,
    _image_plan,
    _orbit_leaders,
    _sign_patterns,
    enumerate_matrices,
)
from qtm.polytope import cube, polygon, prism, product, q_polytope, simplex
from key_oracle import canonical_key

# standard valid pairs used throughout
TRIANGLE = simplex(2)
PENTAGON = polygon(5)
PENTAGON_LAM = CharMatrix(
    [[1, 0, -1, -1, 0], [0, 1, 1, 0, -1]], refined_at=(1, 2)
)
CUBE3 = cube(3)


def cp2_matrix(d1, d2):
    return CharMatrix([[1, 0, d1], [0, 1, d2]], refined_at=(1, 2))


def test_validate():
    for d1 in (1, -1):
        for d2 in (1, -1):
            assert validate(TRIANGLE, cp2_matrix(d1, d2)) == (True, None)
    bad = CharMatrix([[1, 0, 2], [0, 1, 1]])
    assert validate(TRIANGLE, bad) == (False, (2, 3))
    assert validate(PENTAGON, PENTAGON_LAM) == (True, None)
    with pytest.raises(CharMatrixError):
        validate(TRIANGLE, CharMatrix([[1, 0], [0, 1]]))


# polytopes of dimension 2 to 4, so the minors a refined matrix is
# validated on run from 0 x 0 up to the full n x n
VALIDATE_POOL = (
    simplex(2), polygon(5), cube(3), prism(5), q_polytope(), product(polygon(4), polygon(5)),
)


@functools.lru_cache(maxsize=None)
def valid_pairs(p):
    return enumerate_matrices(SearchSpec(p, 1, "signs", "valid"))[0]


def draw_matrix(data, p):
    """A random matrix over p with unit determinant at one vertex at least,
    row-scrambled so it is not refined anywhere.  Half the draws start
    from a valid class, with one entry off the identity block of the
    first vertex maybe changed; the rest have random entries and the
    identity at one random vertex, and most of those are invalid."""
    n, m = p.dim, p.num_facets
    if data.draw(st.booleans()):
        rows = [list(r) for r in data.draw(st.sampled_from(valid_pairs(p))).rows]
        if data.draw(st.booleans()):
            j = data.draw(st.sampled_from([j for j in range(m) if j + 1 not in p.vertices[0]]))
            rows[data.draw(st.integers(0, n - 1))][j] = data.draw(st.integers(-2, 2))
    else:
        flat = data.draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
        rows = [flat[i * m:(i + 1) * m] for i in range(n)]
        for k, j in enumerate(data.draw(st.sampled_from(p.vertices))):
            for i in range(n):
                rows[i][j - 1] = int(i == k)
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = data.draw(st.integers(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return CharMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_agrees_on_a_refined_matrix(data):
    """The minors read through a refined matrix's identity block give the
    verdict and the first bad vertex that full determinants give."""
    p = data.draw(st.sampled_from(VALIDATE_POOL))
    lam = draw_matrix(data, p)
    units = [v for v in p.vertices if abs(intlin.det(lam.submatrix(v))) == 1]
    rl = refine(p, lam, data.draw(st.sampled_from(units)))
    # the reference: the first vertex whose full determinant is not +-1
    bad = next((v for v in p.vertices if abs(intlin.det(lam.submatrix(v))) != 1), None)
    assert validate(p, lam) == validate(p, rl) == (bad is None, bad)


def test_minor_plans_are_cached_per_vertices_and_base(monkeypatch):
    monkeypatch.setattr(polytope, "_CACHE", {})
    monkeypatch.setattr(polytope, "_CACHE_SIZE", 2)
    lam = CharMatrix(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]], refined_at=(1, 2, 3)
    )
    # the polytopes are built before the cache is emptied, so it holds
    # the plans alone
    assert validate(CUBE3, lam) == (True, None)
    plan = polytope._CACHE[("plan", CUBE3.vertices, (1, 2, 3))]
    # an equal polytope built again reuses the one plan; the base vertex
    # has no minor, and every other vertex keeps its place
    again = polytope.SimplePolytope(3, 6, CUBE3.vertices)
    assert validate(again, lam) == (True, None)
    assert charmat._minor_plan(again, (1, 2, 3)) is plan
    assert [v for v, _ks, _js in plan] == [v for v in CUBE3.vertices if v != (1, 2, 3)]
    # (1, 5, 6) keeps B_1 = 1, so its minor takes rows 2, 3 and columns 5, 6
    assert dict((v, (ks, js)) for v, ks, js in plan)[(1, 5, 6)] == ((1, 2), (4, 5))
    assert list(polytope._CACHE) == [("plan", CUBE3.vertices, (1, 2, 3))]
    validate(PENTAGON, PENTAGON_LAM)
    assert len(polytope._CACHE) == 2
    # a third key finds the cache full: it is cleared, then holds the new plan
    validate(TRIANGLE, cp2_matrix(1, 1))
    assert list(polytope._CACHE) == [("plan", TRIANGLE.vertices, (1, 2))]
    # an unrefined matrix builds no plan
    validate(PENTAGON, CharMatrix(PENTAGON_LAM.rows))
    assert list(polytope._CACHE) == [("plan", TRIANGLE.vertices, (1, 2))]


def test_validate_names_the_first_bad_vertex_of_a_refined_matrix():
    # refined at (1, 2, 3) of the cube; vertex (4, 5, 6) is the full
    # 3 x 3 minor, and (1, 5, 6) the 2 x 2 one on rows 2, 3
    p = CUBE3
    good = CharMatrix(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]], refined_at=(1, 2, 3)
    )
    assert validate(p, good) == (True, None)
    bad = CharMatrix(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 1, 1]], refined_at=(1, 2, 3)
    )
    assert validate(p, bad) == validate(p, CharMatrix(bad.rows)) == (False, (1, 5, 6))


def test_constructor_checks():
    with pytest.raises(CharMatrixError):
        CharMatrix([[1, 0, 1], [0, 1]])
    with pytest.raises(CharMatrixError):
        CharMatrix([[0, 1, 1], [1, 0, 1]], refined_at=(1, 2))
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]])
    assert lam.refined_at is None
    assert lam.column(3) == [1, 1]
    assert lam.entry(2, 3) == 1


def test_constructor_refuses_refined_at_outside_the_facets():
    # facet 0 would read the last column: columns 6 and 1 are e_1 and e_2
    rows = [[0, 1, 1, -1, -1, 1], [1, 1, 0, -1, 0, 0]]
    for at in ((0, 1), (1, 7), (-1, 2)):
        with pytest.raises(CharMatrixError, match="1..6"):
            CharMatrix(rows, refined_at=at)
    with pytest.raises(CharMatrixError, match="2 facets"):
        CharMatrix(rows, refined_at=(1,))
    # unrefined, the matrix validates as any other: singular at (5, 6)
    assert validate(polygon(6), CharMatrix(rows)) == (False, (5, 6))


def test_constructor_refuses_entries_that_are_not_ints():
    for rows in ([[1.9, 0], [0, 1]], [[1.0, 0], [0, 1]], ["12", "34"], [[True, 0], [0, 1]]):
        with pytest.raises(CharMatrixError, match="entries must be ints"):
            CharMatrix(rows)
    # int rows given as tuples or generators are kept as they are
    assert CharMatrix(((1, 0), iter([0, 1]))).rows == ((1, 0), (0, 1))


def test_refine():
    lam = cp2_matrix(1, 1)
    assert refine(TRIANGLE, lam, (1, 2)).rows == lam.rows
    for d1 in (1, -1):
        for d2 in (1, -1):
            out = refine(TRIANGLE, cp2_matrix(d1, d2), (2, 3))
            assert out.refined_at == (2, 3)
            assert out.column(2) == [1, 0] and out.column(3) == [0, 1]
            # 2x2 inverse worked out by hand: the free column becomes
            # (-d1*d2, d1), a unit vector pair in every sign case
            assert out.column(1) == [-d1 * d2, d1]
            again = refine(TRIANGLE, out, (2, 3))
            assert again.rows == out.rows
    with pytest.raises(CharMatrixError):
        refine(TRIANGLE, cp2_matrix(1, 1), (1, 4))


def test_refine_checks_the_shape_first():
    # a matrix with too few columns for the square used to raise a bare
    # IndexError from the vertex submatrix
    with pytest.raises(CharMatrixError, match="shape 2x3"):
        refine(polygon(4), CharMatrix([[1, 0, 1], [0, 1, 1]]), (3, 4))


def test_refine_and_weights_reject_too_few_rows():
    # two rows over the 3-cube: refine raised IndexError, and the
    # weights at the vertex came out as a 2 x 3 "inverse"
    p = cube(3)
    lam = CharMatrix([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]])
    with pytest.raises(CharMatrixError, match="shape 2x6"):
        refine(p, lam, p.vertices[0])
    with pytest.raises(CharMatrixError, match="shape 2x6"):
        _normalizing_moves(p, lam, p.vertices[0])
    # refined at (1, 2) and missing a column: no early return
    short = CharMatrix([[1, 0, 1], [0, 1, 1]], refined_at=(1, 2))
    with pytest.raises(CharMatrixError, match="shape 2x3"):
        refine(polygon(4), short, (1, 2))


def test_transform_moves():
    # no move changes a vertex |det|: each moved pair is still valid
    lam = cp2_matrix(1, 1)
    same = _moved(TRIANGLE, lam, RowBasisChange(((1, 0), (0, 1))))
    assert same.rows == lam.rows and same.refined_at == (1, 2)
    flipped = _moved(TRIANGLE, lam, ColumnSignFlip(3))
    assert flipped.rows == ((1, 0, -1), (0, 1, -1))
    back = _moved(TRIANGLE, flipped, ColumnSignFlip(3))
    assert back.rows == lam.rows
    rot = FacetPermutation((0, 2, 3, 1))
    moved = _moved(TRIANGLE, lam, rot)
    assert moved.column(2) == [1, 0] and moved.column(3) == [0, 1]
    assert moved.refined_at == (2, 3)
    for out in (same, flipped, back, moved):
        assert validate(TRIANGLE, out) == (True, None)
    with pytest.raises(CharMatrixError, match="unimodular"):
        _moved(TRIANGLE, lam, RowBasisChange(((2, 0), (0, 1))))
    with pytest.raises(CharMatrixError, match="no column 4"):
        _moved(TRIANGLE, lam, ColumnSignFlip(4))
    with pytest.raises(CharMatrixError, match="not an automorphism"):
        _moved(PENTAGON, PENTAGON_LAM, FacetPermutation((0, 2, 1, 3, 4, 5)))


def test_moved_checks_the_permutation():
    # the unvalidated move still refuses anything but an automorphism
    rotate = (0, 2, 3, 4, 5, 1)
    moved = _moved(PENTAGON, PENTAGON_LAM, FacetPermutation(rotate))
    assert moved.column(2) == PENTAGON_LAM.column(1)
    for perm, match in (
        ((0, 2, 1, 3, 4, 5), "not an automorphism"),
        ((0, 1, 1, 3, 4, 5), "not a bijection"),
        ((0, 2, 3, 4, 5, 5), "not a bijection"),
        ((0, 2, 3, 4, 5), "not a bijection"),
        ((0, 2, 3, 4, 5, 1, 6), "not a bijection"),
    ):
        with pytest.raises(CharMatrixError, match=match):
            _moved(PENTAGON, PENTAGON_LAM, FacetPermutation(perm))
    # every automorphism of the cube passes, every other bijection fails
    autos = set(CUBE3.automorphisms())
    lam = CharMatrix([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
    for img in itertools.permutations(range(1, 7)):
        perm = (0,) + img
        if perm in autos:
            _moved(CUBE3, lam, FacetPermutation(perm))
        else:
            with pytest.raises(CharMatrixError):
                _moved(CUBE3, lam, FacetPermutation(perm))


def random_unimodular(rng, n):
    u = intlin.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return tuple(tuple(r) for r in u)


def test_canonical_key_invariance():
    rng = random.Random(3)
    cube_lam = CharMatrix(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    for p, lam in ((TRIANGLE, cp2_matrix(1, 1)), (PENTAGON, PENTAGON_LAM), (CUBE3, cube_lam)):
        for group in ("signs", "signs+automorphisms"):
            key = canonical_key(p, lam, group)
            cur = lam
            for _ in range(12):
                kind = rng.randint(0, 2 if group == "signs+automorphisms" else 1)
                if kind == 0:
                    cur = _moved(p, cur, ColumnSignFlip(rng.randint(1, p.num_facets)))
                elif kind == 1:
                    cur = _moved(p, cur, RowBasisChange(random_unimodular(rng, p.dim)))
                else:
                    cur = _moved(p, cur, FacetPermutation(rng.choice(p.automorphisms())))
                assert validate(p, cur)[0]
                assert canonical_key(p, cur, group) == key


def test_canonical_key_separates():
    def family(x, y):
        return CharMatrix(
            [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )

    k1 = canonical_key(CUBE3, family(0, 2), "signs+automorphisms")
    k2 = canonical_key(CUBE3, family(0, 4), "signs+automorphisms")
    assert k1 != k2


def _weights(p, lam, v):
    """The weights at v: the row basis change a refine there records,
    the standard basis when it records none; checked against `refine`."""
    moves, rl = _normalizing_moves(p, lam, v)
    assert rl == refine(p, lam, v) and rl.refined_at == tuple(sorted(v))
    assert all(isinstance(mv, RowBasisChange) for mv in moves) and len(moves) <= 1
    return [list(r) for r in moves[0].u] if moves else intlin.identity(p.dim)


def test_weights_at_vertex():
    w = _weights(TRIANGLE, cp2_matrix(1, 1), (2, 3))
    assert w == [[-1, 1], [1, 0]]
    w = _weights(TRIANGLE, cp2_matrix(-1, -1), (2, 3))
    assert w == [[-1, 1], [-1, 0]]
    # at a refined vertex the weights are the standard basis: no row
    # move is recorded and the matrix comes back as it is
    lam = cp2_matrix(1, 1)
    assert _normalizing_moves(TRIANGLE, lam, (1, 2)) == ([], lam)
    assert refine(TRIANGLE, lam, (1, 2)) is lam
    assert _weights(TRIANGLE, lam, (1, 2)) == [[1, 0], [0, 1]]
    rng = random.Random(5)
    for _ in range(20):
        lam = PENTAGON_LAM
        for _ in range(4):
            lam = _moved(PENTAGON, lam, RowBasisChange(random_unimodular(rng, 2)))
        assert validate(PENTAGON, lam)[0]
        for v in PENTAGON.vertices:
            w = _weights(PENTAGON, lam, v)
            assert intlin.mat_mul(w, lam.submatrix(v)) == intlin.identity(2)
            rows = intlin.mat_mul(w, [list(r) for r in lam.rows])
            assert refine(PENTAGON, lam, v).rows == tuple(map(tuple, rows))


def test_serialization():
    lam = cp2_matrix(1, -1)
    assert CharMatrix.from_dict(lam.to_dict()).rows == lam.rows
    # a mod-2 file keeps the same rows under its own key
    d = lam.to_dict("rows_mod2")
    assert d == {"rows_mod2": [[1, 0, 1], [0, 1, -1]]}
    assert CharMatrix.from_dict(d, key="rows_mod2").rows == lam.rows
    with pytest.raises(CharMatrixError, match="'rows' must"):
        CharMatrix.from_dict(d)


# ---------------------------------------------------------------------------
# the search's orbit leaders against the oracle key: a pair moved by any
# equivalence lands in its class's leader set, and the leader sets of two
# classes never meet


def walk_form(p, lam):
    """The free-column sequence of lam refined at p's first vertex, each
    column flipped to first nonzero entry negative, least over all 2^n
    row sign patterns."""
    base = p.vertices[0]
    rows = refine(p, lam, base).rows
    free = [f for f in range(1, p.num_facets + 1) if f not in base]
    best = None
    for pattern in range(1 << p.dim):
        cols = []
        for f in free:
            x = [-r[f - 1] if pattern >> i & 1 else r[f - 1] for i, r in enumerate(rows)]
            if next(t for t in x if t) > 0:
                x = [-t for t in x]
            cols.append(tuple(x))
        if best is None or tuple(cols) < best:
            best = tuple(cols)
    return best


KEY_SEARCHES = (
    (polygon(5), 2),
    (polygon(6), 1),
    (cube(3), 1),
    (prism(4), 1),
    (prism(6), 1),
)


def refined_orbit_leaders(p, lam, automorphisms):
    """The orbit leaders taken through `refine`: lam refined at each
    source vertex as a CharMatrix, and for each automorphism the least
    over the row sign patterns of the normalized free-column tuples,
    built one pattern and one column at a time."""
    base = p.vertices[0]
    m = p.num_facets
    free = [f for f in range(1, m + 1) if f not in base]
    patterns = [
        [-1 if pattern >> i & 1 else 1 for i in range(p.dim)]
        for pattern in range(0, 1 << p.dim, 2)
    ]
    columns = {}
    leaders = set()
    for perm in automorphisms:
        inv = [0] * (m + 1)
        for f in range(1, m + 1):
            inv[perm[f]] = f
        w = tuple(sorted(inv[f] for f in base))
        cols = columns.get(w)
        if cols is None:
            cols = columns[w] = list(zip(*refine(p, lam, w).rows))
        order = [w.index(inv[f]) for f in base]
        xs = []
        for f in free:
            c = cols[inv[f] - 1]
            x = [c[i] for i in order]
            first = next(i for i, t in enumerate(x) if t)
            if x[first] > 0:
                x = [-t for t in x]
            xs.append((x, first))
        leaders.add(min(
            tuple(tuple(s[first] * si * t for si, t in zip(s, x)) for x, first in xs)
            for s in patterns
        ))
    return leaders


def search_plan(p, automorphisms):
    """The image plan and the sign patterns a search over p builds."""
    base = p.vertices[0]
    free = [f for f in range(1, p.num_facets + 1) if f not in base]
    return _image_plan(base, free, automorphisms), _sign_patterns(p.dim)


# (polytope, bound, filter, stride): every stride-th sign class is
# checked; the tesseract's 1,245 classes at 384 automorphisms each would
# take the slow side about 24 s, so every eighth is
@pytest.mark.parametrize(
    "p, bound, filt, stride",
    [
        (polygon(8), 2, "valid", 1),
        (prism(6), 1, "string", 1),
        (cube(3), 2, "spin", 1),
        (cube(4), 1, "valid", 8),
    ],
    ids=["octagon-b2", "hex-prism-b1-string", "cube-b2-spin", "tesseract-b1"],
)
def test_orbit_leaders_from_columns_equal_those_through_refine(p, bound, filt, stride):
    survivors, _stats = enumerate_matrices(SearchSpec(p, bound, "signs", filt))
    autos = p.automorphisms()
    plan, patterns = search_plan(p, autos)
    memo = {}  # one plan and one memo for every class, as a search keeps them
    for lam in survivors[::stride]:
        leaders = _orbit_leaders([0, *zip(*lam.rows)], plan, patterns, memo)
        assert leaders == refined_orbit_leaders(p, lam, autos)


def test_orbit_leaders_hold_every_moved_pair():
    rng = random.Random(11)
    for p, bound in KEY_SEARCHES:
        survivors, _stats = enumerate_matrices(SearchSpec(p, bound, "signs", "valid"))
        plan, patterns = search_plan(p, p.automorphisms())
        for lam in rng.sample(survivors, min(6, len(survivors))):
            leaders = _orbit_leaders([0, *zip(*lam.rows)], plan, patterns, {})
            assert walk_form(p, lam) in leaders
            cur = lam
            for _ in range(5):
                kind = rng.randint(0, 2)
                if kind == 0:
                    cur = _moved(p, cur, ColumnSignFlip(rng.randint(1, p.num_facets)))
                elif kind == 1:
                    cur = _moved(p, cur, RowBasisChange(random_unimodular(rng, p.dim)))
                else:
                    cur = _moved(p, cur, FacetPermutation(rng.choice(p.automorphisms())))
                assert validate(p, cur)[0]
                if rng.random() < 0.5:
                    cur = refine(p, cur, rng.choice(p.vertices))
                assert walk_form(p, cur) in leaders


def test_orbit_leaders_split_the_survivors_into_classes():
    rng = random.Random(13)
    for p, bound in KEY_SEARCHES:
        autos = p.automorphisms()
        classes, _stats = enumerate_matrices(
            SearchSpec(p, bound, "signs+automorphisms", "valid")
        )
        plan, patterns = search_plan(p, autos)
        leaders = [_orbit_leaders([0, *zip(*lam.rows)], plan, patterns, {}) for lam in classes]
        keys = [canonical_key(p, lam, "signs+automorphisms") for lam in classes]
        assert len(set(keys)) == len(keys)
        for i, j in itertools.combinations(range(len(classes)), 2):
            assert not leaders[i] & leaders[j]
        # every sign class lies in the leader set of exactly one class,
        # the one the oracle key puts it in (checked on a sample: the
        # oracle is slow)
        survivors, _stats = enumerate_matrices(SearchSpec(p, bound, "signs", "valid"))
        owner = {}
        for lam in survivors:
            form = walk_form(p, lam)
            owners = [k for k, held in enumerate(leaders) if form in held]
            assert len(owners) == 1
            owner[lam] = owners[0]
        for lam in rng.sample(survivors, min(40, len(survivors))):
            assert canonical_key(p, lam, "signs+automorphisms") == keys[owner[lam]]
