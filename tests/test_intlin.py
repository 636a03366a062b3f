"""Exact linear algebra cross-checked against sympy.

sympy is only a test dependency; the package itself must stay
self-contained, so these tests are the place where the two
implementations keep each other honest.
"""

import random
from math import gcd

import pytest
from hypothesis import given, strategies as st
from sympy import Matrix

from qtm import intlin
from dj_oracle import substituted_relations
from hnf_oracle import hermite_form, hermite_form_with_transform
from mod2_oracle import f2_in_span
from smith_oracle import smith_invariant_factors, spans_unit_summand


def random_matrix(rng, nrows, ncols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def test_det_matches_sympy():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n)
        assert intlin.det(a) == Matrix(a).det()


def test_det_small_shapes():
    # [TRIVIAL]
    assert intlin.det([[5]]) == 5
    assert intlin.det([[1, 2], [3, 4]]) == -2
    assert intlin.det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24


def test_hermite_form_matches_sympy():
    # The oracle's row HNF must span the same lattice as the input.  sympy's
    # hermite_normal_form is canonical per lattice (column-style), so
    # applying it to the transposes decides lattice equality.
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(2)
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        a = random_matrix(rng, nr, nc)
        h = hermite_form(a)
        assert h.rank == Matrix(a).rank()
        if h.rank == 0:
            assert all(all(x == 0 for x in row) for row in a)
            continue
        ours = hermite_normal_form(Matrix(h.rows).T)
        theirs = hermite_normal_form(Matrix(a).T)
        assert ours == theirs


def test_hermite_pivots_positive_and_reduced():
    rng = random.Random(3)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        h = hermite_form(a)
        for i, (c, p) in enumerate(h.pivots):
            assert p > 0
            assert h.rows[i][c] == p
            for k in range(i):
                assert 0 <= h.rows[k][c] < p


@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols), max_size=5
        )
    )
)
def test_unit_pivot_reduce_spans_the_row_lattice(rows):
    from qtm.cohomology import _certified_quotient_map

    before = [list(r) for r in rows]
    pivots = intlin.unit_pivot_reduce(rows)
    assert rows == before
    if pivots is None:
        return
    # one row per input row, in echelon form: in pivot order, each +1 at
    # its own pivot and 0 at the pivots chosen before it
    assert len(pivots) == len(rows)
    order = list(pivots)
    for t, c in enumerate(order):
        assert pivots[c][c] == 1
        assert all(pivots[c][p] == 0 for p in order[:t])
    if not rows:
        return
    # the same lattice: the row HNF is canonical per lattice
    assert hermite_form(list(pivots.values())).rows == hermite_form(rows).rows
    # the quotient map read off them is the identity on the non-pivot
    # columns, and the rows it implies, with an identity block in the
    # pivot columns, span the same lattice again
    ncols = len(rows[0])
    q = _certified_quotient_map(rows, ncols)
    rest = [j for j in range(ncols) if j not in pivots]
    for t, j in enumerate(rest):
        assert q[j] == tuple(int(s == t) for s in range(len(rest)))
    block = []
    for c in order:
        row = [int(j == c) for j in range(ncols)]
        for t, j in enumerate(rest):
            row[j] = -q[c][t]
        block.append(row)
    assert hermite_form(block).rows == hermite_form(rows).rows


def test_smith_matches_sympy():
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(5)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        a = random_matrix(rng, nr, nc, bound=5)
        ours = smith_invariant_factors(a)
        snf = smith_normal_form(Matrix(a))
        theirs = [abs(snf[i, i]) for i in range(min(nr, nc)) if snf[i, i] != 0]
        assert ours == theirs


def test_inverse_unimodular():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 5)
        # build a unimodular matrix from random elementary row operations
        a = intlin.identity(n)
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        assert abs(intlin.det(a)) == 1
        inv = intlin.inverse_unimodular(a)
        assert intlin.mat_mul(a, inv) == intlin.identity(n)


@st.composite
def _unimodular_with_inverse(draw, n):
    """(a, a^-1) for a random product of elementary n x n matrices."""
    a = intlin.identity(n)
    inv = intlin.identity(n)
    index = st.integers(0, max(n - 1, 0))
    ops = draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=3 * n))
    for i, j, q in ops:
        if i == j:  # negate row i of a, so column i of a^-1
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
        else:  # row i of a += q row j, so column j of a^-1 -= q column i
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= q * row[i]
    return a, inv


@given(st.data())
def test_extend_unimodular_accepts_exactly_the_primitive_tails(data):
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, d))
    u, inv = data.draw(_unimodular_with_inverse(d))
    # the vectors taken so far are the first k columns of u^-1, so
    # u @ [x_1 .. x_k] = [I_k; 0]; y = u x is drawn and x = u^-1 y
    head = data.draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
    entry = st.integers(-6, 6)
    if data.draw(st.booleans()):
        entry = entry.filter(lambda x: x not in (1, -1))
    tail = data.draw(st.lists(entry, min_size=d - k, max_size=d - k))
    y = head + tail
    x = intlin.mat_vec(inv, y)
    taken = [[row[j] for row in inv] for j in range(k)] + [x]
    before = intlin.copy_rows(u)
    accepted = intlin.extend_unimodular(u, y, k)
    assert y == head + tail
    assert accepted == (gcd(*tail) == 1)
    # the Smith form decides it independently of u
    assert accepted == spans_unit_summand(taken)
    if not accepted:
        assert u == before
        return
    assert abs(intlin.det(u)) == 1
    for j, v in enumerate(taken):
        assert intlin.mat_vec(u, v) == [int(i == j) for i in range(d)]


@given(st.integers(0, 6).flatmap(_unimodular_with_inverse))
def test_inverse_unimodular_inverts_elementary_products(pair):
    a, expected = pair
    inv = intlin.inverse_unimodular(a)
    n = len(a)
    assert inv == expected
    assert intlin.mat_mul(a, inv) == intlin.identity(n) == intlin.mat_mul(inv, a)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            _unimodular_with_inverse(n),
            _unimodular_with_inverse(n),
            st.sampled_from([0, 2, -2, 3, -3]),
        )
    )
)
def test_inverse_unimodular_refuses_other_determinants(case):
    (left, _), (right, _), scale = case
    # left @ diag(scale, 1, .., 1) @ right has determinant +-scale
    middle = intlin.identity(len(left))
    middle[0][0] = scale
    a = intlin.mat_mul(intlin.mat_mul(left, middle), right)
    assert abs(intlin.det(a)) == abs(scale)
    with pytest.raises(ValueError, match="not unimodular"):
        intlin.inverse_unimodular(a)


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        intlin.inverse_unimodular([[2, 0], [0, 1]])


def test_xgcd_rows():
    rng = random.Random(8)
    for _ in range(300):
        a = rng.choice([x for x in range(-12, 13) if x])
        b = rng.randint(-30, 30)
        ra = [a] + [rng.randint(-5, 5) for _ in range(3)]
        rb = [b] + [rng.randint(-5, 5) for _ in range(3)]
        na, nb = intlin.xgcd_rows(ra, rb, a, b)
        assert nb[0] == 0 and abs(na[0]) == gcd(a, b)
        if b % a == 0:
            assert na is ra
        else:
            assert na[0] == gcd(a, b)
        # a unimodular step: same lattice, so the HNFs agree
        assert hermite_form([na, nb]).rows == hermite_form([ra, rb]).rows


def test_f2_ops():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 7))]
        masks = [intlin.f2_mask(r) for r in rows]
        # sympy rank over GF(2) is awkward; cross-check with a mod-2 Gaussian oracle
        assert intlin.f2_rank(masks) == _f2_rank_oracle(rows)
        combo = 0
        for m in masks:
            if rng.random() < 0.5:
                combo ^= m
        assert f2_in_span(masks, combo)


@given(
    st.integers(1, 10).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=12),
            st.integers(0, 2**width - 1),
        )
    )
)
def test_f2_kernel_matches_oracle(case):
    width, masks, target = case
    rows = [[mask >> j & 1 for j in range(width)] for mask in masks]
    rank = _f2_rank_oracle(rows)
    assert intlin.f2_rank(masks) == rank
    target_row = [target >> j & 1 for j in range(width)]
    assert f2_in_span(masks, target) == (_f2_rank_oracle(rows + [target_row]) == rank)


def test_f2_normal_decides_completion_to_a_basis():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(60):
            masks = [rng.randrange(1 << n) for _ in range(n - 1)]
            if n > 2 and rng.random() < 0.3:
                # force a dependent set: one mask the sum of two others
                masks[0] = masks[1] ^ masks[-1]
            c = intlin.f2_normal(masks, n)
            independent = intlin.f2_rank(masks) == n - 1
            assert (c != 0) == independent
            for x in range(1 << n):
                odd = (c & x).bit_count() % 2 == 1
                assert odd == (intlin.f2_rank(masks + [x]) == n)


def test_cofactors_are_linear_in_the_open_row():
    rng = random.Random(19)
    for n in range(1, 7):
        for _ in range(40):
            rows = random_matrix(rng, n - 1, n, bound=3)
            if n > 2 and rng.random() < 0.2:
                rows[0] = [a - b for a, b in zip(rows[1], rows[-1])]
            c = intlin.cofactors(rows)
            assert len(c) == n
            for _ in range(5):
                x = [rng.randint(-3, 3) for _ in range(n)]
                cx = sum(a * b for a, b in zip(c, x))
                assert cx == intlin.det([x] + rows)
                # x in any other place only changes the sign
                k = rng.randrange(n)
                assert abs(cx) == abs(intlin.det(rows[:k] + [x] + rows[k:]))


def _f2_rank_oracle(rows):
    work = [list(r) for r in rows]
    ncols = len(work[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] % 2), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] % 2:
                work[i] = [(x + y) % 2 for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_hermite_form_with_transform():
    rng = random.Random(11)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        h, u = hermite_form_with_transform(a)
        assert len(u) == nr and all(len(r) == nr for r in u)
        assert abs(intlin.det(u)) == 1
        prod = intlin.mat_mul(u, a)
        assert prod[: h.rank] == h.rows
        assert all(not any(r) for r in prod[h.rank :])
        assert h.rows == hermite_form(a).rows


def test_certified_factors_from_unit_pivots():
    from qtm.cohomology import _certified_quotient_map

    # a unit in every row: the echelon rows are the input rows, and the
    # read-off substitutes (1, 4, 0) - 4 (0, 1, 7) = (1, 0, -28) back, so
    # the one free column maps to 1 and pivots 0, 1 go to 28 and -7
    assert intlin.unit_pivot_reduce([[1, 4, 0], [0, 1, 7]]) == {0: [1, 4, 0], 1: [0, 1, 7]}
    assert _certified_quotient_map([[1, 4, 0], [0, 1, 7]], 3) == ((28,), (-7,), (1,))
    # a pivot on -1, then on (1, 1, 2) - 2 (-3, 0, 1) = (7, 1, 0), which
    # is 0 at pivot 2 already: no back substitution
    assert intlin.unit_pivot_reduce([[3, 0, -1], [1, 1, 2]]) == {2: [-3, 0, 1], 1: [7, 1, 0]}
    assert _certified_quotient_map([[3, 0, -1], [1, 1, 2]], 3) == ((1,), (-7,), (3,))
    assert intlin.unit_pivot_reduce([]) == {}
    # (2, 3) has no unit, yet (1, 1) unlocks it: (2, 3) - 2 (1, 1) = (0, 1);
    # the two rows span Z^2, so the quotient is 0
    assert intlin.unit_pivot_reduce([[2, 3], [1, 1]]) == {0: [1, 1], 1: [0, 1]}
    assert _certified_quotient_map([[2, 3], [1, 1]], 2) == ((), ())


def test_unit_pivot_reduce_gets_stuck_without_a_unit():
    # a primitive row with no unit entry: a direct summand, but stuck
    assert intlin.unit_pivot_reduce([[2, 3]]) is None
    # torsion, and rows that vanish once reduced
    assert intlin.unit_pivot_reduce([[2, 0]]) is None
    assert intlin.unit_pivot_reduce([[1, 0], [1, 0]]) is None
    assert intlin.unit_pivot_reduce([[1, 0], [2, 0]]) is None
    assert intlin.unit_pivot_reduce([[0, 0]]) is None


def test_certified_factors_agree_with_smith_on_random_pairs():
    from qtm.charmat import RowBasisChange, _moved, refine, validate
    from qtm.cohomology import CohomologyError, _certified_quotient_map
    from qtm.harness import SearchSpec, enumerate_matrices
    from qtm.polytope import cube, polygon, prism

    def certified(rows, ngen):
        try:
            _certified_quotient_map(rows, ngen)
        except CohomologyError:
            return False
        return True

    rng = random.Random(12)
    checked = 0
    for p in (polygon(5), cube(3), prism(6)):
        survivors, _ = enumerate_matrices(SearchSpec(p, 1, "signs", "valid"))
        for lam in rng.sample(survivors, min(6, len(survivors))):
            u = intlin.identity(p.dim)
            for _ in range(2 * p.dim):
                i, j = rng.sample(range(p.dim), 2)
                q = rng.randint(-2, 2)
                u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            moved = _moved(p, lam, RowBasisChange(tuple(map(tuple, u))))
            assert validate(p, moved)[0]
            rl = refine(p, moved, rng.choice(p.vertices))
            gens, relations = substituted_relations(p, rl)
            # the relations alone, and the relations plus each unit row,
            # as greedy_basis stacks them: full rank or not, unit or not
            ngen = len(gens)
            stacks = [relations]
            for k in range(ngen):
                unit = [0] * ngen
                unit[k] = 1
                stacks.append(relations + [unit])
                stacks.append(relations + [[2 * x for x in unit]])
            for rows in stacks:
                unit_factors = smith_invariant_factors(rows) == [1] * len(rows)
                assert certified(rows, ngen) == unit_factors
                checked += 1
    assert checked > 100
