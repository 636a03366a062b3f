"""Exact linear algebra cross-checked against sympy.

sympy is only a test dependency; the package itself must stay
self-contained, so these tests are the place where the two
implementations keep each other honest.
"""

import random
from math import gcd

from hypothesis import given, strategies as st
from sympy import Matrix

from qtm import intlin


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
    # Our row HNF must span the same lattice as the input.  sympy's
    # hermite_normal_form is canonical per lattice (column-style), so
    # applying it to the transposes decides lattice equality.
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(2)
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        a = random_matrix(rng, nr, nc)
        h = intlin.hermite_form(a)
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
        h = intlin.hermite_form(a)
        for i, (c, p) in enumerate(h.pivots):
            assert p > 0
            assert h.rows[i][c] == p
            for k in range(i):
                assert 0 <= h.rows[k][c] < p


def test_row_lattice_membership():
    rng = random.Random(4)
    for _ in range(200):
        nr = rng.randint(1, 4)
        nc = rng.randint(2, 6)
        a = random_matrix(rng, nr, nc, bound=4)
        h = intlin.hermite_form(a)
        coeffs = [rng.randint(-3, 3) for _ in range(nr)]
        v = [sum(c * a[i][j] for i, c in enumerate(coeffs)) for j in range(nc)]
        assert intlin.in_row_lattice(h, v)
        assert intlin.in_row_span_q(h, v)
        # perturb off-lattice: a vector with a fresh unit coordinate not in span
        if h.rank < nc:
            free = [j for j in range(nc) if j not in [c for c, _ in h.pivots]][0]
            w = list(v)
            w[free] += 1
            assert not intlin.in_row_lattice(h, w)


def test_smith_matches_sympy():
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(5)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        a = random_matrix(rng, nr, nc, bound=5)
        ours = intlin.smith_invariant_factors(a)
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


def test_inverse_rejects_non_unimodular():
    import pytest

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
        assert intlin.hermite_form([na, nb]).rows == intlin.hermite_form([ra, rb]).rows


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
        assert intlin.f2_in_span(masks, combo)


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
    assert intlin.f2_in_span(masks, target) == (_f2_rank_oracle(rows + [target_row]) == rank)
    if len(masks) == width:
        assert intlin.f2_det_one(masks, width) == (rank == width)


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
        h, u = intlin.hermite_form_with_transform(a)
        assert len(u) == nr and all(len(r) == nr for r in u)
        assert abs(intlin.det(u)) == 1
        prod = intlin.mat_mul(u, a)
        assert prod[: h.rank] == h.rows
        assert all(not any(r) for r in prod[h.rank :])
        assert h.rows == intlin.hermite_form(a).rows


def _count_smith_calls(monkeypatch):
    calls = []
    smith = intlin.smith_invariant_factors

    def counted(rows):
        calls.append(rows)
        return smith(rows)

    monkeypatch.setattr(intlin, "smith_invariant_factors", counted)
    return calls


def certified(rows):
    return intlin.certified_invariant_factors(rows, intlin.hermite_form(rows))


def test_certified_factors_from_unit_pivots(monkeypatch):
    calls = _count_smith_calls(monkeypatch)
    assert certified([[1, 4, 0], [0, 1, 7]]) == [1, 1]
    assert certified([]) == []
    assert calls == []


def test_certified_factors_fall_back_to_smith(monkeypatch):
    calls = _count_smith_calls(monkeypatch)
    # [2, 3] has HNF pivot 2, yet its single factor is gcd(2, 3) = 1
    assert intlin.hermite_form([[2, 3]]).pivots == [(0, 2)]
    assert certified([[2, 3]]) == [1]
    assert certified([[2, 0]]) == [2]
    # rank-deficient input: the zero row has no factor
    assert certified([[1, 0], [2, 0]]) == [1]
    assert len(calls) == 3


def test_certified_factors_agree_with_smith_on_random_pairs():
    from qtm.charmat import RowBasisChange, refine, transform
    from qtm.cohomology import presentation_deg4
    from qtm.harness import SearchSpec, enumerate_matrices
    from qtm.polytope import cube, polygon, prism

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
            moved = transform(p, lam, RowBasisChange(tuple(map(tuple, u))))
            rl = refine(p, moved, rng.choice(p.vertices))
            pres = presentation_deg4(p, rl)
            # the relations alone, and the relations plus each unit row,
            # as greedy_basis stacks them: full rank or not, unit or not
            stacks = [pres.relations]
            for k in range(len(pres.generators)):
                unit = [0] * len(pres.generators)
                unit[k] = 1
                stacks.append(pres.relations + [unit])
                stacks.append(pres.relations + [[2 * x for x in unit]])
            for rows in stacks:
                assert certified(rows) == intlin.smith_invariant_factors(rows)
                checked += 1
    assert checked > 100
