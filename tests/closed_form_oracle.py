"""Closed p_1 forms for two families with at most 2n + 2 facets: a
test-only oracle for the engine.

The pentagon prism C2(5) x I^(n-2) has 2n + 1 facets and the Q prism
Q x I^(n-3) has 2n + 2.  For each, the p_1 coefficients in a fixed
monomial basis are explicit polynomials in the entries of a pair in
its normal form.  No command runs these forms; the tests pin them
against `cohomology.p1_vanishes` and `presentation_deg4` on random
walks.  They share with the package only the scalar tables of
`stringcheck.ClosedFormContext` and `charmat._normalizing_moves`, and
nothing of the degree-4 reduction.  Each form checks its own labeling
first, with `_require_refined_at` and `_require_units` below: the
refining vertex, and the unit entries its normal form makes +1.
"""

from qtm.charmat import CharMatrix, _normalizing_moves
from qtm.polytope import SimplePolytope, cube, polygon, product
from qtm.stringcheck import (
    ClosedFormContext,
    StringCheckError,
    _checked,
    q_prism_polytope,
)


def _require_refined_at(lam: CharMatrix, vertex, family: str) -> None:
    if lam.refined_at != vertex:
        raise StringCheckError(
            f"{family} closed form needs the matrix refined at {vertex}, "
            f"got {lam.refined_at}"
        )


def _require_units(lam: CharMatrix, units, family: str) -> None:
    for r, c in units:
        if lam.entry(r, c) != 1:
            raise StringCheckError(
                f"{family} closed form needs entry ({r},{c}) = 1, "
                f"got {lam.entry(r, c)}; normalize column signs first"
            )


# facets adjacent to facets 1, 2, 3 of Q, in cyclic order around each
Q_ADJACENCY_CYCLES = ((2, 3, 4, 5), (3, 1, 5, 8, 6), (1, 2, 6, 7, 4))


# ---------------------------------------------------------------------------
# pentagon prism C2(5) x I^(n-2): facets 1..5 the pentagon sides,
# 5+j and n+3+j the j-th interval pair


def pent_prism_polytope(n: int) -> SimplePolytope:
    if n < 3:
        raise StringCheckError("pentagon prism needs dimension >= 3")
    return product(polygon(5), cube(n - 2))


def pent_prism_units(n: int) -> tuple:
    return ((1, 3), (2, 5)) + tuple((r, n + 1 + r) for r in range(3, n + 1))


def pent_prism_normal_form(n: int, lam: CharMatrix) -> CharMatrix:
    p = pent_prism_polytope(n)
    _checked(p, lam)
    vertex = tuple(sorted((1, 2) + tuple(range(6, n + 4))))
    return _normalizing_moves(p, lam, vertex, pent_prism_units(n), StringCheckError)[1]


def pent_prism_closed_form(n: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over C2(5) x I^(n-2) in the basis v_4 v_5,
    {v_i v_j}_{i in 3..5, j in n+4..2n+1}, {v_i v_j}_{n+4<=i<j<=2n+1}.

    Needs the refined normalized form: identity at {1,2,6..n+3},
    entries (1,3), (2,5) and the second-block diagonal equal to +1.
    """
    m = 2 * n + 1
    if lam.n != n or lam.m != m:
        raise StringCheckError(f"expected an {n}x{m} matrix, got {lam.n}x{lam.m}")
    p = pent_prism_polytope(n)
    _checked(p, lam)
    vertex = tuple(sorted((1, 2) + tuple(range(6, n + 4))))
    _require_refined_at(lam, vertex, "pentagon prism")
    _require_units(lam, pent_prism_units(n), "pentagon prism")

    ctx = ClosedFormContext(lam)
    pent = (1, 2, 3, 4, 5)
    l = ctx.cycle_l(pent)

    def w(x):
        return (x - 1) % 5 + 1

    e = lam.entry
    second = tuple(range(n + 4, m + 1))
    row = {i: i - n - 1 for i in second}
    c: dict = {}
    for a, i in enumerate(second):
        for j in second[a + 1:]:
            c[(i, j)] = (
                -e(row[i], j) * ctx.rho(i)
                - e(row[j], i) * ctx.rho(j)
                + ctx.rho_pair(i, j)
            )
    for i in second:
        c[(3, i)] = -e(1, i) * ctx.rho(3) - e(row[i], 3) * ctx.rho(i) + ctx.rho_pair(3, i)
        c[(5, i)] = -e(2, i) * ctx.rho(5) - e(row[i], 5) * ctx.rho(i) + ctx.rho_pair(5, i)
        c[(4, i)] = (
            -ctx.d2(3, 4) * ctx.d2(3, i) * ctx.rho(4)
            - e(row[i], 4) * ctx.rho(i)
            + ctx.rho_pair(4, i)
            + ctx.d2(4, i) * (l[3] * ctx.rho(3) + ctx.d2(3, 4) * ctx.rho_pair(3, 4))
        )
    c[(4, 5)] = ctx.d2(4, 5) * sum(
        l[t] * ctx.rho(t) + ctx.d2(t, w(t + 1)) * ctx.rho_pair(t, w(t + 1))
        for t in pent
    )
    return c


def pent_prism_basis(n: int) -> tuple:
    second = tuple(range(n + 4, 2 * n + 2))
    out = [(4, 5)]
    out += [(i, j) for i in (3, 4, 5) for j in second]
    out += [(i, j) for a, i in enumerate(second) for j in second[a + 1:]]
    return tuple(out)


# ---------------------------------------------------------------------------
# Q prism Q x I^(n-3) (`stringcheck.q_prism_polytope`)


def q_prism_units(n: int) -> tuple:
    return ((1, 6), (2, 4), (3, 5)) + tuple((r, n + 2 + r) for r in range(4, n + 1))


def q_prism_normal_form(n: int, lam: CharMatrix) -> CharMatrix:
    p = q_prism_polytope(n)
    _checked(p, lam)
    vertex = tuple(sorted((1, 2, 3) + tuple(range(9, n + 6))))
    return _normalizing_moves(p, lam, vertex, q_prism_units(n), StringCheckError)[1]


def _d3(cols, i: int, j: int, k: int) -> int:
    """The 3x3 minor of rows 1..3 at columns i, j, k."""
    (a, d, h), (b, f, s), (c, g, t) = (cols[x][:3] for x in (i, j, k))
    return a * (f * t - g * s) - b * (d * t - g * h) + c * (d * s - f * h)


def q_prism_closed_form(n: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over Q x I^(n-3) in the five-class basis.

    Classes: pairs within the second block; v_4/v_5/v_6 against the
    second block; v_4 v_5, v_5 v_8, v_4 v_7; v_7/v_8 against the second
    block; v_4 v_8, v_7 v_8.  The cyclic sums run over the facet cycles
    around facets 1, 2, 3 of Q, with 3x3 minors in the first index.
    """
    m = 2 * n + 2
    if lam.n != n or lam.m != m:
        raise StringCheckError(f"expected an {n}x{m} matrix, got {lam.n}x{lam.m}")
    p = q_prism_polytope(n)
    _checked(p, lam)
    vertex = tuple(sorted((1, 2, 3) + tuple(range(9, n + 6))))
    _require_refined_at(lam, vertex, "Q prism")
    _require_units(lam, q_prism_units(n), "Q prism")

    ctx = ClosedFormContext(lam)
    g = Q_ADJACENCY_CYCLES

    def d3(i, j, k):
        return _d3(ctx.cols, i, j, k)

    def gv(i, t):  # cycle position t (1-based, wrapped) around facet i
        cyc = g[i - 1]
        return cyc[(t - 1) % len(cyc)]

    def dt(i, a, b):  # 3x3 minor of facet i against two cycle positions
        return d3(i, gv(i, a), gv(i, b))

    def lt(i, t):
        return dt(i, t - 1, t) * dt(i, t, t + 1) * dt(i, t + 1, t - 1)

    def cyc_sum(i):
        return sum(
            lt(i, t) * ctx.rho(gv(i, t))
            + dt(i, t, t + 1) * ctx.rho_pair(gv(i, t), gv(i, t + 1))
            for t in range(1, len(g[i - 1]) + 1)
        )

    # the two partial tail terms shared by the mixed formulas
    tail2 = lt(2, 5) * ctx.rho(gv(2, 5)) + dt(2, 4, 5) * ctx.rho_pair(gv(2, 4), gv(2, 5))
    tail3 = lt(3, 3) * ctx.rho(gv(3, 3)) + dt(3, 3, 4) * ctx.rho_pair(gv(3, 3), gv(3, 4))

    e = lam.entry
    second = tuple(range(n + 6, m + 1))
    row = {i: i - n - 2 for i in second}
    c: dict = {}
    for a, i in enumerate(second):
        for j in second[a + 1:]:
            c[(i, j)] = (
                -e(row[i], j) * ctx.rho(i)
                - e(row[j], i) * ctx.rho(j)
                + ctx.rho_pair(i, j)
            )
    for i in second:
        c[(4, i)] = -e(2, i) * ctx.rho(4) - e(row[i], 4) * ctx.rho(i) + ctx.rho_pair(4, i)
        c[(5, i)] = -e(3, i) * ctx.rho(5) - e(row[i], 5) * ctx.rho(i) + ctx.rho_pair(5, i)
        c[(6, i)] = -e(1, i) * ctx.rho(6) - e(row[i], 6) * ctx.rho(i) + ctx.rho_pair(6, i)
        c[(7, i)] = (
            -d3(3, 6, 7) * d3(3, 6, i) * ctx.rho(7)
            - e(row[i], 7) * ctx.rho(i)
            + ctx.rho_pair(7, i)
            + d3(3, 7, i) * tail3
        )
        c[(8, i)] = (
            -d3(2, 6, 8) * d3(2, 6, i) * ctx.rho(8)
            - e(row[i], 8) * ctx.rho(i)
            + ctx.rho_pair(8, i)
            + d3(2, 8, i) * tail2
        )
    c[(4, 5)] = d3(1, 4, 5) * cyc_sum(1)
    c[(5, 8)] = d3(2, 5, 8) * cyc_sum(2)
    c[(4, 7)] = d3(3, 7, 4) * cyc_sum(3)
    c[(4, 8)] = (
        -e(2, 8) * ctx.rho(4)
        - d3(2, 6, 4) * d3(2, 6, 8) * ctx.rho(8)
        + ctx.rho_pair(4, 8)
        + d3(2, 4, 8) * tail2
    )
    c[(7, 8)] = (
        -d3(3, 6, 7) * d3(3, 6, 8) * ctx.rho(7)
        - d3(2, 6, 7) * d3(2, 6, 8) * ctx.rho(8)
        + ctx.rho_pair(7, 8)
        + d3(3, 7, 8) * tail3
        + d3(2, 7, 8) * tail2
    )
    return c


def q_prism_basis(n: int) -> tuple:
    second = tuple(range(n + 6, 2 * n + 3))
    out = [(i, j) for a, i in enumerate(second) for j in second[a + 1:]]
    out += [(r, i) for r in (4, 5, 6) for i in second]
    out += [(4, 5), (5, 8), (4, 7)]
    out += [(r, i) for r in (7, 8) for i in second]
    out += [(4, 8), (7, 8)]
    return tuple(out)
