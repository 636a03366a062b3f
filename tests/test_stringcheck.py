"""Tests for the string/spin engine and the per-family closed forms.

Every closed form is pinned against the general cohomology engine on
randomized valid matrices (mutation walks from a hand-checked seed),
with exact coefficient equality, not just agreement of the verdict.
Frozen expectations are either worked out by hand on small cases or
were produced once by the general engine and checked in.  The
pentagon-prism and Q-prism forms come from `closed_form_oracle`.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st
from closed_form_oracle import (
    pent_prism_basis,
    pent_prism_closed_form,
    pent_prism_normal_form,
    pent_prism_polytope,
    pent_prism_units,
    q_prism_basis,
    q_prism_closed_form,
    q_prism_normal_form,
    q_prism_units,
)
from spin_check import is_spin
from test_charmat import VALIDATE_POOL, draw_matrix
from test_cohomology import is_zero_in_h4

from qtm import cohomology, harness
from qtm.charmat import (
    CharMatrix,
    CharMatrixError,
    ColumnSignFlip,
    FacetPermutation,
    RowBasisChange,
    _moved,
    refine,
    validate,
)
from qtm.cohomology import (
    greedy_basis,
    p1_vector,
    presentation_deg4,
    reduce_to_basis,
)
from qtm.polytope import (
    connected_sum,
    cube,
    key_obstruction,
    polygon,
    prism,
    product,
    q_polytope,
    simplex,
)
from qtm.stringcheck import (
    ClosedFormContext,
    StringCheckError,
    _checked,
    _closed_form_coefficients,
    _cube_closed_form,
    _polygon_closed_form,
    _prism_closed_form,
    _prism_normal_form,
    _refined_string,
    _spin,
    refined_pair,
    cube_basis,
    cyclic_identities,
    is_string,
    polygon_closed_form,
    polygon_parity_criterion,
    prism_basis,
    q_prism_polytope,
    random_cyclic_instance,
)

# hexagonal prism with a string structure; facet 1 top, 2..7 sides, 8 bottom
HEX_PRISM_LAM = CharMatrix(
    [
        [1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 2],
    ],
    refined_at=(1, 2, 3),
)

# string structure on Q x I^2; facets 1..8 from Q, pairs (9,11) and (10,12)
Q_TIMES_SQUARE = CharMatrix(
    [
        [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 2, 2, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 2, 2, 1, 3, 0, 1, 0, 1],
    ],
    refined_at=(1, 2, 3, 9, 10),
)

# Q itself, 3-dimensional: identity at the vertex {1,2,3}
Q_SEED = CharMatrix(
    [
        [1, 0, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 0, 0, 1],
    ],
    refined_at=(1, 2, 3),
)

# string structure on C2(5) x I^2 found by randomized search and
# certified by the general engine; frozen here as a regression anchor
PENT_PRISM4_STRING = CharMatrix(
    [
        [1, 0, 1, -1, 2, 0, 0, 0, 0],
        [0, 1, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, -2, 0, 0, 1, 0, 1, 0],
        [0, 0, 2, -1, 2, 0, 1, 0, 1],
    ],
    refined_at=(1, 2, 6, 7),
)


def walk(p, lam, steps, rng, units=(), bound=3):
    """Random mutation walk through valid matrices, starting from lam.

    Only entries outside the refinement vertex and outside the pinned
    unit positions are touched, so every matrix stays in the normal
    form the closed forms expect.
    """
    assert validate(p, lam)[0]
    out = [lam]
    nset = set(lam.refined_at)
    unit_pos = set(units)
    frees = [j for j in range(1, lam.m + 1) if j not in nset]
    rows = [list(r) for r in lam.rows]
    for _ in range(steps):
        j = rng.choice(frees)
        r = rng.randrange(lam.n)
        if (r + 1, j) in unit_pos:
            continue
        old = rows[r][j - 1]
        new = old + rng.choice((-2, -1, 1, 2))
        if abs(new) > bound:
            continue
        rows[r][j - 1] = new
        cand = CharMatrix([list(x) for x in rows], refined_at=lam.refined_at)
        if validate(p, cand)[0]:
            out.append(cand)
        else:
            rows[r][j - 1] = old
    return out


def assert_matches_engine(p, lam, closed, basis):
    # exact equality against the general engine, coefficient by coefficient
    assert sorted(closed) == sorted(basis)
    pres = presentation_deg4(p, lam)
    reduced = reduce_to_basis(pres, p1_vector(p, lam), list(basis))
    assert [closed[b] for b in basis] == reduced
    # with a full basis, p1 = 0 iff every coefficient is zero, so the
    # closed-form string criterion must agree with the engine verdict
    allzero = all(v == 0 for v in closed.values())
    assert is_string(p, lam) == (is_spin(p, lam) and allzero)


def all_column_sums_odd(lam):
    return all(sum(lam.column(j)) % 2 == 1 for j in range(1, lam.m + 1))


def test_public_string_tests_validate_their_input():
    # vertex (3, 4) has determinant 2; the search hands its leaves to a
    # core that skips this check, the public entry points keep it
    singular = CharMatrix([[1, 0, 1, 0], [0, 1, 0, 2]])
    for test in (is_spin, is_string):
        with pytest.raises(StringCheckError):
            test(polygon(4), singular)
        with pytest.raises(CharMatrixError):
            test(polygon(5), singular)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refined_pair_names_the_vertex_validate_names(data):
    """refined_pair refines before it validates: an invalid pair raises
    naming the first bad vertex of full determinants, v0 included, and
    a valid one comes back refined at v0."""
    p = data.draw(st.sampled_from(VALIDATE_POOL))
    lam = draw_matrix(data, p)
    ok, bad = validate(p, lam)
    if ok:
        assert refined_pair(p, lam) == refine(p, lam, p.vertices[0])
    else:
        with pytest.raises(StringCheckError) as exc:
            refined_pair(p, lam)
        assert str(exc.value) == f"matrix is not characteristic: vertex {bad}"


def test_public_closed_forms_validate_their_input():
    # check-string hands its pairs, already validated, to the private
    # cores; the one public closed form keeps its own check
    pent = CharMatrix([[1, 0, -1, -1, 1], [0, 1, 1, 0, 2]])
    assert not validate(polygon(5), pent)[0]
    with pytest.raises(StringCheckError, match="not characteristic"):
        polygon_closed_form(pent)


# ---------------------------------------------------------------------------
# cyclic window identities


def test_cyclic_identities_random():
    rng = random.Random(20240811)
    for k in (3, 4, 5):
        for _ in range(300):
            cols = random_cyclic_instance(k, 5, rng)
            assert len(cols) == 2 * k - 1
            assert cyclic_identities(cols) == (4, 0)


def test_cyclic_identities_hand_window():
    # minors around the cycle: 1, 1, 1, 1, 1; checked by hand
    window = [(0, 1, 0), (0, 0, 1), (1, -1, 1), (0, -1, 0), (0, 0, -1)]
    assert cyclic_identities(window) == (4, 0)


def test_cyclic_identities_rejects_bad_windows():
    good = [(0, 1, 0), (0, 0, 1), (1, -1, 1), (0, -1, 0), (0, 0, -1)]
    with pytest.raises(StringCheckError):
        cyclic_identities(good[:4])  # even length
    with pytest.raises(StringCheckError):
        cyclic_identities(good[:3])  # too short
    with pytest.raises(StringCheckError):
        cyclic_identities([good[1], good[0]] + good[2:])  # wrong leading columns
    bad_sum = list(good)
    bad_sum[2] = (0, -1, 1)
    with pytest.raises(StringCheckError):
        cyclic_identities(bad_sum)
    bad_minor = list(good)
    bad_minor[3] = (1, 1, 1)  # adjacent minor -2
    with pytest.raises(StringCheckError):
        cyclic_identities(bad_minor)
    with pytest.raises(StringCheckError):
        cyclic_identities([c[:2] for c in good])


def test_random_cyclic_instance_rejects_bad_parameters():
    rng = random.Random(0)
    with pytest.raises(StringCheckError):
        random_cyclic_instance(2, 5, rng)
    with pytest.raises(StringCheckError):
        random_cyclic_instance(3, 0, rng)


# ---------------------------------------------------------------------------
# polygon


def test_polygon_closed_form_known_values():
    # the triangle structure with total 3: not spin, so not string
    cp2 = CharMatrix([[1, 0, -1], [0, 1, -1]], refined_at=(1, 2))
    ls, total = polygon_closed_form(cp2)
    assert ls == [1, 1, 1] and total == 3
    assert not is_spin(polygon(3), cp2)

    # product of two 2-spheres: total 0, all column sums odd, string
    s2s2 = CharMatrix([[1, 0, -1, 0], [0, 1, 0, -1]], refined_at=(1, 2))
    assert polygon_closed_form(s2s2)[1] == 0
    assert polygon_parity_criterion(s2s2)
    assert is_string(polygon(4), s2s2)

    # total 0 but an even column sum: spin already fails
    flat = CharMatrix([[1, 0, 1, 1], [0, 1, 0, 1]], refined_at=(1, 2))
    assert polygon_closed_form(flat)[1] == 0
    assert not polygon_parity_criterion(flat)
    assert not is_spin(polygon(4), flat)
    assert not is_string(polygon(4), flat)

    # engine-produced total for a denser square matrix, frozen
    dense = CharMatrix([[1, 0, 1, 2], [0, 1, 1, 1]], refined_at=(1, 2))
    assert polygon_closed_form(dense)[1] == 6
    assert not is_spin(polygon(4), dense)


def test_polygon_closed_form_matches_engine():
    rng = random.Random(31)
    seeds = {
        3: [[1, 0, -1], [0, 1, -1]],
        4: [[1, 0, 1, 0], [0, 1, 0, 1]],
        5: [[1, 0, -1, -1, 0], [0, 1, 1, 0, -1]],
        6: [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]],
    }
    for m, rows in seeds.items():
        p = polygon(m)
        seed = CharMatrix(rows, refined_at=(1, 2))
        for lam in walk(p, seed, 60, rng):
            ls, total = polygon_closed_form(lam)
            assert len(ls) == m
            # the quotient has rank one; the closed form gives the
            # lone coefficient up to the sign convention of the basis
            pres = presentation_deg4(p, lam)
            (t,) = reduce_to_basis(pres, p1_vector(p, lam), list(greedy_basis(pres)))
            assert abs(t) == abs(total)
            assert total % 2 == m % 2
            assert is_string(p, lam) == (is_spin(p, lam) and total == 0)
            assert polygon_parity_criterion(lam) == is_string(p, lam)


def test_polygon_closed_form_reads_the_cycle_minors_of_any_valid_pair():
    # the direct read of the cyclic minors equals cycle_l over the facet
    # cycle, per edge and in total: on every valid polygon(m) class at
    # bound 2, refined, and on a scrambled copy of it (a row move, then
    # sign flips) that arrives as a file gives it, with no refinement
    rng = random.Random(35)
    pairs = 0
    for m in range(3, 9):
        p = polygon(m)
        survivors, _stats = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "valid"))
        for lam in survivors:
            scrambled = _moved(p, lam, random_row_move(2, rng))
            for j in rng.sample(range(1, m + 1), 2):
                scrambled = _moved(p, scrambled, ColumnSignFlip(j))
            scrambled = CharMatrix(scrambled.rows)
            assert validate(p, scrambled)[0] and scrambled.rows != lam.rows
            for pair in (lam, scrambled):
                l = ClosedFormContext(pair).cycle_l(tuple(range(1, m + 1)))
                ls, total = _polygon_closed_form(pair)
                assert ls == [l[i] for i in range(1, m + 1)]
                assert total == sum(l.values())
                assert polygon_closed_form(pair) == (ls, total)
                pairs += 1
    assert pairs == 2 * (1 + 7 + 18 + 79 + 260 + 1003)


def test_polygon_closed_form_rejects():
    with pytest.raises(StringCheckError):
        polygon_closed_form(CharMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(StringCheckError):
        polygon_closed_form(CharMatrix([[1, 0, 2], [0, 1, 1]]))


# ---------------------------------------------------------------------------
# prisms over even polygons


def prism_coloring(k):
    # sides colored alternately by rows 2 and 3, top and bottom by row 1
    m = 2 * k + 2
    rows = [[0] * m for _ in range(3)]
    rows[0][0] = rows[0][m - 1] = 1
    for i in range(2, m):
        rows[1 if i % 2 == 0 else 2][i - 1] = 1
    return CharMatrix(rows, refined_at=(1, 2, 3))


def prism_units(k):
    return ((2, 4), (3, 2 * k + 1), (1, 2 * k + 2))


def test_prism_closed_form_hexagonal_example():
    _checked(prism(6), HEX_PRISM_LAM)
    c = _prism_closed_form(3, HEX_PRISM_LAM)
    assert c == {(4, 8): 0, (5, 8): 0, (6, 8): 0, (7, 8): 0, (5, 6): 0}
    p = prism(6)
    assert is_spin(p, HEX_PRISM_LAM)
    assert is_string(p, HEX_PRISM_LAM)


def test_prism_coloring_is_string():
    # a 3-colored prism is a product of spheres: every coefficient dies
    for k in (2, 3, 4):
        lam = prism_coloring(k)
        _checked(prism(2 * k), lam)
        c = _prism_closed_form(k, lam)
        assert all(v == 0 for v in c.values())
        assert is_string(prism(2 * k), lam)


def test_prism_closed_form_matches_engine():
    rng = random.Random(47)
    for k, steps in ((2, 60), (3, 50)):
        p = prism(2 * k)
        for lam in walk(p, prism_coloring(k), steps, rng, units=prism_units(k)):
            assert_matches_engine(p, lam, _prism_closed_form(k, lam), prism_basis(k))


def test_prism_normal_form():
    p = prism(6)
    flipped = _moved(p, HEX_PRISM_LAM, ColumnSignFlip(4))
    _checked(p, flipped)
    assert flipped.entry(2, 4) == -1
    moves, nf = _prism_normal_form(p, 3, flipped)
    assert nf == HEX_PRISM_LAM and nf.refined_at == (1, 2, 3)
    assert moves == [ColumnSignFlip(4)]

    bare = CharMatrix([list(r) for r in HEX_PRISM_LAM.rows])
    _checked(p, bare)
    assert _prism_normal_form(p, 3, bare)[1] == HEX_PRISM_LAM


def test_prism_normal_form_builds_one_matrix(monkeypatch):
    # a scrambled pair that needs a row move and a sign flip: one
    # inverse, one product with the flip, one new matrix (the row move
    # through `_moved`, the refined copy and the flipped copy made 3)
    p = prism(6)
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    flipped = _moved(p, HEX_PRISM_LAM, ColumnSignFlip(4))
    scrambled = CharMatrix(_moved(p, flipped, RowBasisChange(shear)).rows)
    _checked(p, scrambled)
    built = []
    real = CharMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CharMatrix, "__init__", counting)
    moves, nf = _prism_normal_form(p, 3, scrambled)
    assert len(built) == 1
    assert nf == HEX_PRISM_LAM and nf.refined_at == (1, 2, 3)
    assert moves == [RowBasisChange(((1, -1, 0), (0, 1, 0), (0, 0, 1))), ColumnSignFlip(4)]


# ---------------------------------------------------------------------------
# cubes


def cube_seed(n):
    rows = [[0] * (2 * n) for _ in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][n + i] = 1
    return CharMatrix(rows, refined_at=tuple(range(1, n + 1)))


def test_cube_closed_form_bott_families():
    # for these upper triangular shapes every coefficient cancels, so
    # string reduces to the column sum parity of the last column
    for x, y in ((0, 0), (1, 1), (2, 0), (2, 3), (-1, 3)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        _checked(cube(3), lam)
        c = _cube_closed_form(3, lam)
        assert all(v == 0 for v in c.values())
        assert is_string(cube(3), lam) == ((x - y) % 2 == 0)
    for a, b in ((1, 1), (2, 2), (1, -2), (0, 3)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 2 * a, a * b], [0, 1, 0, 0, 1, b], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        _checked(cube(3), lam)
        c = _cube_closed_form(3, lam)
        assert all(v == 0 for v in c.values())
        assert is_string(cube(3), lam) == ((a * b - b) % 2 == 0)


def test_cube_closed_form_matches_engine():
    rng = random.Random(59)
    for n, steps in ((3, 60), (4, 40)):
        p = cube(n)
        for lam in walk(p, cube_seed(n), steps, rng):
            assert_matches_engine(p, lam, _cube_closed_form(n, lam), cube_basis(n))


def test_cube_normal_form():
    lam = CharMatrix(
        [[1, 0, 0, 1, 0, 1], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    p = cube(3)
    u = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    moved = _moved(p, lam, RowBasisChange(u))
    assert moved.refined_at is None
    _checked(p, moved)
    # the cube's normal form is the refine at {1..n}: check-string takes
    # it from a pair refined anywhere, here at the far corner
    far = refine(p, moved, (4, 5, 6))
    nf = refine(p, far, (1, 2, 3))
    assert nf == lam and nf.refined_at == (1, 2, 3)
    c = _cube_closed_form(3, nf)
    assert _closed_form_coefficients(p, moved, far) == [
        {"monomial": list(b), "coeff": c[b]} for b in cube_basis(3)
    ]
    assert_matches_engine(p, nf, c, cube_basis(3))


# ---------------------------------------------------------------------------
# pentagon prisms


def pent_seed(n):
    m = 2 * n + 1
    rows = [[0] * m for _ in range(n)]
    rows[0][:5] = [1, 0, 1, -1, 0]
    rows[1][:5] = [0, 1, -1, 0, 1]
    for j in range(n - 2):
        rows[2 + j][5 + j] = 1
        rows[2 + j][n + 3 + j] = 1
    vertex = tuple(sorted((1, 2) + tuple(range(6, n + 4))))
    return CharMatrix(rows, refined_at=vertex)


def test_pent_prism_string_instance():
    # frozen randomized find: all closed-form coefficients vanish and
    # the general engine confirms the string property
    p = pent_prism_polytope(4)
    assert validate(p, PENT_PRISM4_STRING)[0]
    c = pent_prism_closed_form(4, PENT_PRISM4_STRING)
    assert all(v == 0 for v in c.values())
    assert is_string(p, PENT_PRISM4_STRING)


def test_pent_prism_closed_form_matches_engine():
    rng = random.Random(67)
    for n, steps in ((3, 50), (4, 30)):
        p = pent_prism_polytope(n)
        for lam in walk(p, pent_seed(n), steps, rng, units=pent_prism_units(n)):
            c = pent_prism_closed_form(n, lam)
            assert_matches_engine(p, lam, c, pent_prism_basis(n))


def test_pent_prism_normal_form():
    p = pent_prism_polytope(4)
    flipped = _moved(p, PENT_PRISM4_STRING, ColumnSignFlip(3))
    _checked(p, flipped)
    with pytest.raises(StringCheckError):
        pent_prism_closed_form(4, flipped)
    assert pent_prism_normal_form(4, flipped) == PENT_PRISM4_STRING
    with pytest.raises(StringCheckError):
        pent_prism_polytope(2)


# ---------------------------------------------------------------------------
# Q prisms


def q_seed(n):
    m = 2 * n + 2
    rows = [[0] * m for _ in range(n)]
    for i in range(3):
        rows[i][:8] = Q_SEED.rows[i]
    for j in range(n - 3):
        rows[3 + j][8 + j] = 1
        rows[3 + j][n + 5 + j] = 1
    vertex = tuple(sorted((1, 2, 3) + tuple(range(9, n + 6))))
    return CharMatrix(rows, refined_at=vertex)


def test_q_prism_string_example():
    p = q_prism_polytope(5)
    assert validate(p, Q_TIMES_SQUARE)[0]
    c = q_prism_closed_form(5, Q_TIMES_SQUARE)
    assert all(v == 0 for v in c.values())
    assert is_string(p, Q_TIMES_SQUARE)
    # spin comes down to odd column sums outside the vertex columns
    assert all_column_sums_odd(Q_TIMES_SQUARE)

    # one extra odd entry flips a column sum parity and kills spin
    rows = [list(r) for r in Q_TIMES_SQUARE.rows]
    rows[3][11] = 1
    bumped = CharMatrix(rows, refined_at=Q_TIMES_SQUARE.refined_at)
    assert validate(p, bumped)[0]
    assert not is_spin(p, bumped)
    assert not is_string(p, bumped)


def test_q_prism_closed_form_matches_engine():
    rng = random.Random(83)
    for n, steps in ((3, 50), (4, 30)):
        p = q_prism_polytope(n)
        for lam in walk(p, q_seed(n), steps, rng, units=q_prism_units(n)):
            c = q_prism_closed_form(n, lam)
            assert_matches_engine(p, lam, c, q_prism_basis(n))
            # refined matrices are spin exactly when every column sum is odd
            assert is_spin(p, lam) == all_column_sums_odd(lam)


def test_q_prism_normal_form():
    p = q_prism_polytope(5)
    flipped = _moved(p, Q_TIMES_SQUARE, ColumnSignFlip(6))
    _checked(p, flipped)
    with pytest.raises(StringCheckError):
        q_prism_closed_form(5, flipped)
    assert q_prism_normal_form(5, flipped) == Q_TIMES_SQUARE


# ---------------------------------------------------------------------------
# invariance and obstructions


def random_row_move(n, rng):
    i = rng.randrange(n)
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    u = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    u[i][j] = rng.choice((-1, 1, 2))
    return RowBasisChange(tuple(tuple(r) for r in u))


def test_is_string_invariant_under_equivalence_moves():
    rng = random.Random(11)
    pentagon = CharMatrix([[1, 0, -1, -1, 0], [0, 1, 1, 0, -1]], refined_at=(1, 2))
    rotate5 = FacetPermutation((0, 2, 3, 4, 5, 1))
    cases = [
        (prism(6), HEX_PRISM_LAM, None),
        (q_polytope(), Q_SEED, None),
        (polygon(5), pentagon, rotate5),
    ]
    for p, lam, perm in cases:
        base = is_string(p, lam)
        for _ in range(8):
            cur = lam
            for _ in range(4):
                kind = rng.randrange(3)
                if kind == 0:
                    cur = _moved(p, cur, random_row_move(cur.n, rng))
                elif kind == 1:
                    cur = _moved(p, cur, ColumnSignFlip(rng.randrange(1, cur.m + 1)))
                elif perm is not None:
                    cur = _moved(p, cur, perm)
            assert validate(p, cur)[0]
            assert is_string(p, cur) == base
            assert is_spin(p, cur) == is_spin(p, lam)


def test_simplex_structures_are_never_string():
    # a facet meeting every facet of some vertex forces a surviving
    # square in degree 4, so no structure over the simplex is string
    p = simplex(3)
    assert key_obstruction(p) is not None
    seed = CharMatrix(
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], refined_at=(1, 2, 3)
    )
    rng = random.Random(97)
    for lam in walk(p, seed, 30, rng):
        assert not is_string(p, lam)


# ---------------------------------------------------------------------------
# leaf verdicts from the relation template against the dense presentation


def _dense_verdict(p, rl):
    """p_1 zero in the presentation over every generator, dead ones
    included (`presentation_deg4`), for the refined pair."""
    return is_zero_in_h4(presentation_deg4(p, rl), p1_vector(p, rl))


DOUBLE_CUBE = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))[0]

# (label, polytope, bound, leaves, string leaves); the prism sweep is the
# criterion-04 search with the spin filter, so its rejected leaves are in
TEMPLATE_SWEEPS = (
    ("prism(6) bound 2", prism(6), 2, 2581, 579),
    ("cube(4) bound 1", cube(4), 1, 73, 43),
    ("double cube bound 2", DOUBLE_CUBE, 2, 5717, 889),
)


def test_template_verdicts_match_the_dense_presentation_on_every_leaf(monkeypatch):
    real = cohomology._transposed_quotient_map
    stuck = []

    def counting(rows, ngen):
        stuck.append(len(rows))
        return real(rows, ngen)

    fallbacks = {}
    for label, p, bound, count, strings in TEMPLATE_SWEEPS:
        leaves, _stats = harness.enumerate_matrices(
            harness.SearchSpec(p, bound, "signs", "spin")
        )
        assert len(leaves) == count, label
        del stuck[:]
        monkeypatch.setattr(cohomology, "_transposed_quotient_map", counting)
        verdicts = [_refined_string(p, lam) for lam in leaves]
        monkeypatch.setattr(cohomology, "_transposed_quotient_map", real)
        fallbacks[label] = len(stuck)
        assert sum(verdicts) == strings, label
        for lam, string in zip(leaves, verdicts):
            assert _spin(p, lam)
            assert string == _dense_verdict(p, lam), (label, lam.rows)
    # the unit-pivot reduction of the live rows gets stuck on some double
    # cube leaves, so the certified stepwise fallback decides those
    assert fallbacks["double cube bound 2"] >= 1


def test_string_walk_keeps_exactly_the_string_leaves_in_order():
    p = prism(6)
    leaves, _ = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "spin"))
    found, stats = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "string"))
    expected = [lam for lam in leaves if _dense_verdict(p, lam)]
    assert [lam.rows for lam in found] == [lam.rows for lam in expected]
    assert all(lam.refined_at == p.vertices[0] for lam in found)
    assert stats["string_rejects"] == len(leaves) - len(found)


MOVE_POOLS = (
    (prism(6), 1, "spin"),
    (cube(3), 2, "spin"),
    (cube(4), 1, "spin"),
    (polygon(6), 2, "spin"),
    (product(polygon(4), polygon(4)), 1, "spin"),
    (q_polytope(), 1, "spin"),
    (polygon(5), 2, "valid"),
)


@functools.lru_cache(maxsize=None)
def _move_pool():
    out = []
    for p, bound, filt in MOVE_POOLS:
        leaves, _ = harness.enumerate_matrices(harness.SearchSpec(p, bound, "signs", filt))
        out.extend((p, lam) for lam in leaves)
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_template_verdict_matches_the_engine_under_random_moves(data):
    p, lam = data.draw(st.sampled_from(_move_pool()))
    before = (_spin(p, lam), _refined_string(p, lam))
    autos = p.automorphisms()
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(("row", "sign", "relabel")))
        if kind == "row":
            i, j = data.draw(
                st.lists(st.integers(0, p.dim - 1), min_size=2, max_size=2, unique=True)
            )
            u = [[int(a == b) for b in range(p.dim)] for a in range(p.dim)]
            u[i][j] = data.draw(st.integers(-2, 2))
            move = RowBasisChange(tuple(map(tuple, u)))
        elif kind == "sign":
            move = ColumnSignFlip(data.draw(st.integers(1, p.num_facets)))
        else:
            move = FacetPermutation(data.draw(st.sampled_from(autos)))
        lam = _moved(p, lam, move)
    rl = refine(p, lam, data.draw(st.sampled_from(p.vertices)))
    after = (_spin(p, rl), _refined_string(p, rl))
    assert after[1] == (after[0] and _dense_verdict(p, rl))
    # spin and string are invariants of the pair
    assert after == before


def test_identity_columns_off_a_vertex_are_refined_first():
    # columns 1 and 3 of the square are the identity, but {1, 3} is no
    # vertex; the verdict refines at the first vertex instead
    lam = CharMatrix([[1, 1, 0, 1], [0, 1, 1, 1]], refined_at=(1, 3))
    assert refined_pair(polygon(4), lam).refined_at == (1, 2)
    assert is_spin(polygon(4), lam) == is_spin(polygon(4), CharMatrix(lam.rows))
    assert is_string(polygon(4), lam) == is_string(polygon(4), CharMatrix(lam.rows))
