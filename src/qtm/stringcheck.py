"""Spin and string tests for characteristic pairs.

The general engine works over any simple polytope: the manifold is spin
when the degree-2 class w = sum of all facet classes vanishes mod 2,
and string when additionally p_1 = sum of squared facet classes is zero
in integral degree-4 cohomology.

A pair refined at a base vertex is spin exactly when every free column
sum is odd.  Its string verdict comes from the relation template of
the polytope at that vertex (`cohomology.relation_template`): the pair
fills in only the live degree-4 rows, the relations with a base facet
less their dead monomials (products of two free facets that do not
meet, zero outright).  `cohomology.p1_vanishes` reduces the live rows
by unit pivots, falling back to the certified stepwise quotient map
when that gets stuck, and reduces p_1 by the result.  A verdict
builds no presentation.  When coefficients are wanted,
`presentation_deg4` certifies its quotient map on the same live rows,
and the coefficients of p_1 in a basis of the free quotient decide the
verdict as well: p_1 is zero exactly when they all vanish.  So
`check-string` decides each verdict once, from its coefficients: a
family with a closed form (`_closed_form_coefficients`) reduces no
live row, and any other pair is reduced once, in `presentation_deg4`.

For the recurring families (polygon, prism over an even polygon, cube,
pentagon prism C2(5) x I^(n-2), Q prism Q x I^(n-3)) the p_1
coefficients in a fixed monomial basis are explicit polynomials in the
matrix entries.  Each closed form validates the expected labeling and
normalization up front so it cannot be applied to a mislabeled
polytope; the general engine stays the source of truth and the test
suite pins every family against it.  The polygon, prism and cube forms
have private cores that skip the validation, for pairs the caller has
already validated (`_closed_form_coefficients`, after refined_pair).
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .charmat import (
    CharMatrix,
    CharMatrixError,
    _check_shape,
    _normalizing_moves,
    refine,
    validate,
)
from .cohomology import columns, p1_vanishes, relation_template, w2_vector
from .polytope import SimplePolytope, cube, polygon, prism, product, q_polytope

# facets adjacent to facets 1, 2, 3 of Q, in cyclic order around each
Q_ADJACENCY_CYCLES = ((2, 3, 4, 5), (3, 1, 5, 8, 6), (1, 2, 6, 7, 4))


class StringCheckError(ValueError):
    pass


def _checked(p: SimplePolytope, lam: CharMatrix) -> None:
    ok, bad = validate(p, lam)
    if not ok:
        raise StringCheckError(f"matrix is not characteristic: vertex {bad}")


def refined_pair(p: SimplePolytope, lam: CharMatrix) -> CharMatrix:
    """The matrix as it is when refined at a vertex, else refined at the
    first vertex v0; validated either way.

    The refined matrix is validated, which is cheaper (see
    `charmat.validate`) and gives the same verdict: refining does not
    change a vertex |det|.  A v0 whose determinant is not +-1 cannot be
    refined at; it is the first vertex `validate` would name, and it is
    reported as such.
    """
    if lam.refined_at is None or not p.is_vertex(lam.refined_at):
        _check_shape(p, lam)
        v0 = p.vertices[0]
        try:
            lam = refine(p, lam, v0)
        except CharMatrixError:  # v0 has a non-unit determinant
            raise StringCheckError(f"matrix is not characteristic: vertex {v0}") from None
    _checked(p, lam)
    return lam


class StringVerdict(NamedTuple):
    """Spin and string verdicts from one validation and one refinement."""

    refined: CharMatrix
    spin: bool
    string: bool


def _spin(p: SimplePolytope, rl: CharMatrix) -> bool:
    """Every free column sum is odd: w_2 has only even coefficients."""
    return all(c % 2 == 0 for c in w2_vector(p, rl).values())


def string_verdict(p: SimplePolytope, lam: CharMatrix) -> StringVerdict:
    """Validate and refine once, then decide spin and string."""
    return _refined_verdict(p, refined_pair(p, lam))


def _refined_verdict(p: SimplePolytope, rl: CharMatrix) -> StringVerdict:
    """string_verdict for a pair already valid and refined: the relation
    template of p at the base vertex decides p_1 from the columns."""
    if not _spin(p, rl):
        return StringVerdict(rl, False, False)
    t = relation_template(p, rl.refined_at)
    return StringVerdict(rl, True, p1_vanishes(t, columns(rl)))


def is_spin(p: SimplePolytope, lam: CharMatrix) -> bool:
    return _spin(p, refined_pair(p, lam))


def is_string(p: SimplePolytope, lam: CharMatrix) -> bool:
    return string_verdict(p, lam).string


# ---------------------------------------------------------------------------
# shared scalar tables


class ClosedFormContext:
    """Memoized scalars the closed-form formulas are written in.

    rho(i) = sum of squared entries of column i, plus 1
    rho_pair(i, j) = twice the dot product of columns i and j
    d2(i, j) = the 2x2 minor of the chosen row pair at columns i, j
    d3(i, j, k) = the 3x3 minor of rows 1..3 at columns i, j, k
    cycle_l(cycle) = for each column of a facet cycle, the product of
        the three minors of it and its two neighbors
    """

    __slots__ = ("cols", "minor_rows", "_rho", "_rho_pair", "_d2", "_d3")

    def __init__(self, lam: CharMatrix, minor_rows=(1, 2)):
        self.cols = columns(lam)  # read once; cols[i][r - 1] is entry (r, i)
        self.minor_rows = (minor_rows[0] - 1, minor_rows[1] - 1)  # 0-based
        self._rho: dict = {}
        self._rho_pair: dict = {}
        self._d2: dict = {}
        self._d3: dict = {}

    def rho(self, i: int) -> int:
        if i not in self._rho:
            c = self.cols[i]
            self._rho[i] = sum(map(mul, c, c)) + 1
        return self._rho[i]

    def rho_pair(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        if key not in self._rho_pair:
            self._rho_pair[key] = 2 * sum(map(mul, self.cols[i], self.cols[j]))
        return self._rho_pair[key]

    def d2(self, i: int, j: int) -> int:
        if (i, j) not in self._d2:
            r1, r2 = self.minor_rows
            ci, cj = self.cols[i], self.cols[j]
            self._d2[(i, j)] = ci[r1] * cj[r2] - cj[r1] * ci[r2]
        return self._d2[(i, j)]

    def d3(self, i: int, j: int, k: int) -> int:
        if (i, j, k) not in self._d3:
            (a, d, h), (b, f, s), (c, g, t) = (self.cols[x][:3] for x in (i, j, k))
            self._d3[(i, j, k)] = (
                a * (f * t - g * s) - b * (d * t - g * h) + c * (d * s - f * h)
            )
        return self._d3[(i, j, k)]

    def cycle_l(self, cycle) -> dict:
        period = len(cycle)
        out = {}
        for t, i in enumerate(cycle):
            a = cycle[(t - 1) % period]
            b = cycle[(t + 1) % period]
            out[i] = self.d2(a, i) * self.d2(i, b) * self.d2(b, a)
        return out


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


# ---------------------------------------------------------------------------
# polygon


def polygon_closed_form(lam: CharMatrix):
    """Per-edge minor products l_i and their total for an m-gon matrix.

    p_1 is total * v_1 v_2 up to the sign of the minor at columns 1, 2,
    so string <=> spin and total == 0.  Any characteristic matrix over
    the cyclically labeled m-gon is accepted; no refinement is assumed.
    """
    if lam.n != 2:
        raise StringCheckError("polygon closed form needs a 2-row matrix")
    _checked(polygon(lam.m), lam)
    return _polygon_closed_form(lam)


def _polygon_closed_form(lam: CharMatrix):
    """polygon_closed_form for a pair already valid over the m-gon."""
    m = lam.m
    l = ClosedFormContext(lam).cycle_l(tuple(range(1, m + 1)))
    ls = [l[i] for i in range(1, m + 1)]
    return ls, sum(ls)


def polygon_parity_criterion(lam: CharMatrix) -> bool:
    """String test for a refined polygon matrix: every column sum odd."""
    return all(sum(lam.column(j)) % 2 == 1 for j in range(1, lam.m + 1))


# ---------------------------------------------------------------------------
# prism over an even polygon: facet 1 top, 2..2k+1 sides, 2k+2 bottom


def prism_normal_form(k: int, lam: CharMatrix) -> CharMatrix:
    """Refine at the top vertex {1,2,3} and sign-normalize the units."""
    p = prism(2 * k)
    _checked(p, lam)
    return _prism_normal_form(p, k, lam)


def _prism_normal_form(p: SimplePolytope, k: int, lam: CharMatrix) -> CharMatrix:
    """prism_normal_form for a pair already valid over p = prism(2k)."""
    units = ((2, 4), (3, 2 * k + 1), (1, 2 * k + 2))
    return _normalizing_moves(p, lam, (1, 2, 3), units, StringCheckError)[1]


def prism_closed_form(k: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over the 2k-gonal prism, in the monomial basis
    {v_i v_{2k+2}}_{4<=i<=2k+1} plus v_{k+2} v_{k+3}.

    Needs the matrix refined at {1,2,3} with entries (2,4), (3,2k+1)
    and (1,2k+2) normalized to +1; subscripts of side facets wrap
    cyclically within 2..2k+1.
    """
    if k < 2:
        raise StringCheckError("prism closed form needs k >= 2")
    m = 2 * k + 2
    if lam.n != 3 or lam.m != m:
        raise StringCheckError(f"expected a 3x{m} matrix, got {lam.n}x{lam.m}")
    _checked(prism(2 * k), lam)
    _require_refined_at(lam, (1, 2, 3), "prism")
    _require_units(lam, ((2, 4), (3, m - 1), (1, m)), "prism")
    return _prism_closed_form(k, lam)


def _prism_closed_form(k: int, lam: CharMatrix) -> dict:
    """prism_closed_form for a pair already valid and in prism normal form."""
    m = 2 * k + 2
    ctx = ClosedFormContext(lam, minor_rows=(2, 3))
    sides = tuple(range(2, m))

    def w(x):  # wrap a side subscript into 2..2k+1
        return (x - 2) % (2 * k) + 2

    l = ctx.cycle_l(sides)
    e = lam.entry
    c: dict = {}
    c[(k + 2, k + 3)] = ctx.d2(k + 2, k + 3) * sum(
        l[i] * ctx.rho(i) + ctx.d2(i, w(i + 1)) * ctx.rho_pair(i, w(i + 1))
        for i in sides
    )
    for i in range(4, k + 3):
        tail = sum(
            l[s] * ctx.rho(s) + ctx.d2(s, s + 1) * ctx.rho_pair(s, s + 1)
            for s in range(4, i)
        )
        c[(i, m)] = (
            -ctx.d2(i - 1, i) * ctx.d2(i - 1, m) * ctx.rho(i)
            - e(1, i) * ctx.rho(m)
            + ctx.rho_pair(i, m)
            + ctx.d2(i, m) * tail
        )
    for i in range(k + 3, m):
        tail = sum(
            l[s] * ctx.rho(s) + ctx.d2(s - 1, s) * ctx.rho_pair(s - 1, s)
            for s in range(i + 1, m)
        )
        c[(i, m)] = (
            -ctx.d2(w(i + 1), i) * ctx.d2(w(i + 1), m) * ctx.rho(i)
            - e(1, i) * ctx.rho(m)
            + ctx.rho_pair(i, m)
            - ctx.d2(i, m) * tail
        )
    return c


def prism_basis(k: int) -> tuple:
    """Monomial basis matching the keys of prism_closed_form."""
    m = 2 * k + 2
    return tuple((i, m) for i in range(4, m)) + ((k + 2, k + 3),)


# ---------------------------------------------------------------------------
# cube: facet i opposite facet n+i


def cube_normal_form(n: int, lam: CharMatrix) -> CharMatrix:
    p = cube(n)
    _checked(p, lam)
    return _cube_normal_form(p, n, lam)


def _cube_normal_form(p: SimplePolytope, n: int, lam: CharMatrix) -> CharMatrix:
    """cube_normal_form for a pair already valid over p = cube(n)."""
    return refine(p, lam, tuple(range(1, n + 1)))


def cube_closed_form(n: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over the n-cube in the basis
    {v_i v_j}_{n+1<=i<j<=2n}, for a matrix refined at {1..n}."""
    if lam.n != n or lam.m != 2 * n:
        raise StringCheckError(f"expected an {n}x{2 * n} matrix, got {lam.n}x{lam.m}")
    _checked(cube(n), lam)
    _require_refined_at(lam, tuple(range(1, n + 1)), "cube")
    return _cube_closed_form(n, lam)


def _cube_closed_form(n: int, lam: CharMatrix) -> dict:
    """cube_closed_form for a pair already valid and refined at {1..n}."""
    ctx = ClosedFormContext(lam)
    e = lam.entry
    c = {}
    for i in range(n + 1, 2 * n + 1):
        for j in range(i + 1, 2 * n + 1):
            c[(i, j)] = (
                -e(i - n, i) * e(i - n, j) * ctx.rho(i)
                - e(j - n, j) * e(j - n, i) * ctx.rho(j)
                + ctx.rho_pair(i, j)
            )
    return c


def cube_basis(n: int) -> tuple:
    return tuple(
        (i, j)
        for i in range(n + 1, 2 * n + 1)
        for j in range(i + 1, 2 * n + 1)
    )


# ---------------------------------------------------------------------------
# the families check-string recognizes


def _closed_form_coefficients(p: SimplePolytope, lam: CharMatrix, rl: CharMatrix):
    """Family-specific p_1 coefficients when the labeling matches one of
    the shapes with a closed form; None otherwise.

    lam is the matrix as read and rl the same pair refined by
    `refined_pair`, which has validated it, so the closed-form cores do
    not validate again.  The coefficients are coordinates of p_1, up to
    sign, in a basis of the free degree-4 quotient: p_1 is zero exactly
    when they all vanish.
    """
    n, m = p.dim, p.num_facets
    if n == 2 and p.vertices == polygon(m).vertices:
        _ls, total = _polygon_closed_form(lam)
        return [{"monomial": [1, 2], "coeff": total}]
    if n >= 2 and m == 2 * n and p.vertices == cube(n).vertices:
        c = _cube_closed_form(n, _cube_normal_form(p, n, rl))
        return [{"monomial": list(b), "coeff": c[b]} for b in cube_basis(n)]
    if n == 3 and m >= 6 and m % 2 == 0 and p.vertices == prism(m - 2).vertices:
        k = (m - 2) // 2
        c = _prism_closed_form(k, _prism_normal_form(p, k, rl))
        return [{"monomial": list(b), "coeff": c[b]} for b in prism_basis(k)]
    return None


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
# Q prism Q x I^(n-3): facets 1..8 the facets of Q,
# 8+j and n+5+j the j-th interval pair


def q_prism_polytope(n: int) -> SimplePolytope:
    if n < 3:
        raise StringCheckError("Q prism needs dimension >= 3")
    if n == 3:
        return q_polytope()
    return product(q_polytope(), cube(n - 3))


def q_prism_units(n: int) -> tuple:
    return ((1, 6), (2, 4), (3, 5)) + tuple((r, n + 2 + r) for r in range(4, n + 1))


def q_prism_normal_form(n: int, lam: CharMatrix) -> CharMatrix:
    p = q_prism_polytope(n)
    _checked(p, lam)
    vertex = tuple(sorted((1, 2, 3) + tuple(range(9, n + 6))))
    return _normalizing_moves(p, lam, vertex, q_prism_units(n), StringCheckError)[1]


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

    def gv(i, t):  # cycle position t (1-based, wrapped) around facet i
        cyc = g[i - 1]
        return cyc[(t - 1) % len(cyc)]

    def dt(i, a, b):  # 3x3 minor of facet i against two cycle positions
        return ctx.d3(i, gv(i, a), gv(i, b))

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
            -ctx.d3(3, 6, 7) * ctx.d3(3, 6, i) * ctx.rho(7)
            - e(row[i], 7) * ctx.rho(i)
            + ctx.rho_pair(7, i)
            + ctx.d3(3, 7, i) * tail3
        )
        c[(8, i)] = (
            -ctx.d3(2, 6, 8) * ctx.d3(2, 6, i) * ctx.rho(8)
            - e(row[i], 8) * ctx.rho(i)
            + ctx.rho_pair(8, i)
            + ctx.d3(2, 8, i) * tail2
        )
    c[(4, 5)] = ctx.d3(1, 4, 5) * cyc_sum(1)
    c[(5, 8)] = ctx.d3(2, 5, 8) * cyc_sum(2)
    c[(4, 7)] = ctx.d3(3, 7, 4) * cyc_sum(3)
    c[(4, 8)] = (
        -e(2, 8) * ctx.rho(4)
        - ctx.d3(2, 6, 4) * ctx.d3(2, 6, 8) * ctx.rho(8)
        + ctx.rho_pair(4, 8)
        + ctx.d3(2, 4, 8) * tail2
    )
    c[(7, 8)] = (
        -ctx.d3(3, 6, 7) * ctx.d3(3, 6, 8) * ctx.rho(7)
        - ctx.d3(2, 6, 7) * ctx.d3(2, 6, 8) * ctx.rho(8)
        + ctx.rho_pair(7, 8)
        + ctx.d3(3, 7, 8) * tail3
        + ctx.d3(2, 7, 8) * tail2
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


# ---------------------------------------------------------------------------
# the cyclic window identities behind the odd-face obstruction


def cyclic_identities(cols):
    """Evaluate the two cyclic sums over a window of 2k-1 columns.

    cols are the 3-vectors at an odd cycle of facets around a fixed
    facet, listed in cyclic order starting with (.,1,0) and (.,0,1).
    Hypotheses checked: odd length >= 5, unit adjacent minors in rows
    2 and 3 (cyclically), and odd column sums.  Returns (S1 mod 8, S2);
    S1 is always 4 and S2 always 0 when the hypotheses hold.
    """
    cols = [tuple(c) for c in cols]
    count = len(cols)
    if count < 5 or count % 2 == 0:
        raise StringCheckError("need an odd number >= 5 of columns")
    if any(len(c) != 3 for c in cols):
        raise StringCheckError("columns must have 3 entries")
    if cols[0][1:] != (1, 0) or cols[1][1:] != (0, 1):
        raise StringCheckError("first two columns must end in (1,0) and (0,1)")
    for t, c in enumerate(cols):
        if sum(c) % 2 == 0:
            raise StringCheckError(f"column {t} has even sum")

    def d(t, u):
        return cols[t][1] * cols[u][2] - cols[u][1] * cols[t][2]

    for t in range(count):
        if d(t, (t + 1) % count) not in (1, -1):
            raise StringCheckError(f"adjacent minor at position {t} is not a unit")

    s1 = 0
    s2 = 0
    for t in range(count):
        tp = (t + 1) % count
        tm = (t - 1) % count
        l = d(tm, t) * d(t, tp) * d(tp, tm)
        x, xp = cols[t][0], cols[tp][0]
        s1 += l * (x * x + 1) + 2 * d(t, tp) * x * xp
        a, b = cols[t][1], cols[t][2]
        ap, bp = cols[tp][1], cols[tp][2]
        s2 += l * (a * a + b * b) + 2 * d(t, tp) * (a * ap + b * bp)
    return s1 % 8, s2


def random_cyclic_instance(k: int, bound: int, rng) -> list:
    """A random column window satisfying the cyclic_identities hypotheses."""
    if k < 3 or bound < 1:
        raise StringCheckError("need k >= 3 and bound >= 1")
    evens = [x for x in range(-bound, bound + 1) if x % 2 == 0]
    while True:
        cols = [[rng.choice(evens), 1, 0], [rng.choice(evens), 0, 1]]
        ok = True
        for t in range(2 * k - 3):
            last = t == 2 * k - 4
            p_, q_ = cols[-1][1], cols[-1][2]
            cand = [
                (a, b)
                for a in range(-bound, bound + 1)
                for b in range(-bound, bound + 1)
                if abs(p_ * b - q_ * a) == 1 and (not last or abs(b) == 1)
            ]
            if not cand:
                ok = False
                break
            a, b = rng.choice(cand)
            parity = (1 + a + b) % 2
            top = [x for x in range(-bound, bound + 1) if x % 2 == parity]
            cols.append([rng.choice(top), a, b])
        if ok:
            return [tuple(c) for c in cols]
