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
when that gets stuck, and reduces p_1 by the result.  The verdict is
one bool, `_refined_string`, for a pair already valid and refined: it
reads the template only for a spin pair and builds no presentation.
`is_string` validates and refines first (`refined_pair`).  When
coefficients are wanted, `presentation_deg4` certifies its quotient map
on the same live rows, and the coefficients of p_1 in a basis of the
free quotient decide the verdict as well: p_1 is zero exactly when they
all vanish.  So `check-string` decides each verdict once, from its
coefficients: a family with a closed form (`_closed_form_coefficients`)
reduces no live row, and any other pair is reduced once, in
`presentation_deg4`.

For the families `check-string` recognizes (polygon, prism over an
even polygon, cube) the p_1 coefficients in a fixed monomial basis are
explicit polynomials in the matrix entries.  `_closed_form_coefficients`
applies a form only when the polytope's vertices are exactly the
family's labeling, and only to a pair that `refined_pair` has validated;
it brings that pair to the form's normal form first (`_prism_normal_form`,
or a refine at {1..n} for the cube), so the prism and cube forms check
no labeling of their own.  `polygon_closed_form` validates its input and
calls the core `_polygon_closed_form`.  The general engine stays the
source of truth and the test suite pins every family against it.  The
closed forms of the pentagon prism C2(5) x I^(n-2) and the Q prism
Q x I^(n-3), which no command runs, live in the test suite as a second
oracle for the engine, with the labeling checks that guard them;
`q_prism_polytope` builds the Q prism.
"""

from __future__ import annotations

from operator import mul

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


def _spin(p: SimplePolytope, rl: CharMatrix) -> bool:
    """Every free column sum is odd: w_2 has only even coefficients."""
    return all(c % 2 == 0 for c in w2_vector(p, rl).values())


def _refined_string(p: SimplePolytope, rl: CharMatrix) -> bool:
    """The string verdict of a pair already valid and refined: spin, and
    p_1 zero as the relation template of p at the base vertex reads it
    off the columns."""
    return _spin(p, rl) and p1_vanishes(relation_template(p, rl.refined_at), columns(rl))


def is_string(p: SimplePolytope, lam: CharMatrix) -> bool:
    return _refined_string(p, refined_pair(p, lam))


# ---------------------------------------------------------------------------
# shared scalar tables


class ClosedFormContext:
    """Memoized scalars the closed-form formulas are written in.

    rho(i) = sum of squared entries of column i, plus 1
    rho_pair(i, j) = twice the dot product of columns i and j
    d2(i, j) = the 2x2 minor of the chosen row pair at columns i, j
    cycle_l(cycle) = for each column of a facet cycle, the product of
        the three minors of it and its two neighbors
    """

    __slots__ = ("cols", "minor_rows", "_rho", "_rho_pair", "_d2")

    def __init__(self, lam: CharMatrix, minor_rows=(1, 2)):
        self.cols = columns(lam)  # read once; cols[i][r - 1] is entry (r, i)
        self.minor_rows = (minor_rows[0] - 1, minor_rows[1] - 1)  # 0-based
        self._rho: dict = {}
        self._rho_pair: dict = {}
        self._d2: dict = {}

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

    def cycle_l(self, cycle) -> dict:
        period = len(cycle)
        out = {}
        for t, i in enumerate(cycle):
            a = cycle[(t - 1) % period]
            b = cycle[(t + 1) % period]
            out[i] = self.d2(a, i) * self.d2(i, b) * self.d2(b, a)
        return out


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
    """polygon_closed_form for a pair already valid over the m-gon.

    Read off the cyclic minors of the two rows directly: with
    d_i = det(c_i, c_{i+1}), l_i = d_{i-1} d_i det(c_{i+1}, c_{i-1}),
    as `ClosedFormContext.cycle_l` gives it over the facet cycle 1..m.
    """
    x, y = lam.rows
    xn, yn = x[1:] + x[:1], y[1:] + y[:1]  # column i + 1
    xp, yp = x[-1:] + x[:-1], y[-1:] + y[:-1]  # column i - 1
    d = [a * bn - an * b for a, b, an, bn in zip(x, y, xn, yn)]
    ls = [
        dp * di * (an * bp - ap * bn)
        for dp, di, an, bn, ap, bp in zip(d[-1:] + d[:-1], d, xn, yn, xp, yp)
    ]
    return ls, sum(ls)


def polygon_parity_criterion(lam: CharMatrix) -> bool:
    """String test for a refined polygon matrix: every column sum odd."""
    return all(sum(lam.column(j)) % 2 == 1 for j in range(1, lam.m + 1))


# ---------------------------------------------------------------------------
# prism over an even polygon: facet 1 top, 2..2k+1 sides, 2k+2 bottom


def _prism_normal_form(p: SimplePolytope, k: int, lam: CharMatrix, error=StringCheckError):
    """(moves, normal form) of a pair already valid over p = prism(2k):
    refined at the top vertex {1,2,3}, with the units at (2,4),
    (3,2k+1) and (1,2k+2) made +1.  A listed entry that is not a unit
    raises error."""
    units = ((2, 4), (3, 2 * k + 1), (1, 2 * k + 2))
    return _normalizing_moves(p, lam, (1, 2, 3), units, error)


def _prism_closed_form(k: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over the 2k-gonal prism, in the monomial basis
    {v_i v_{2k+2}}_{4<=i<=2k+1} plus v_{k+2} v_{k+3}.

    Needs a valid pair refined at {1,2,3} with entries (2,4), (3,2k+1)
    and (1,2k+2) normalized to +1 (`_prism_normal_form`); subscripts of
    side facets wrap cyclically within 2..2k+1.
    """
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
    """Monomial basis matching the keys of `_prism_closed_form`."""
    m = 2 * k + 2
    return tuple((i, m) for i in range(4, m)) + ((k + 2, k + 3),)


# ---------------------------------------------------------------------------
# cube: facet i opposite facet n+i


def _cube_closed_form(n: int, lam: CharMatrix) -> dict:
    """p_1 coefficients over the n-cube in the basis
    {v_i v_j}_{n+1<=i<j<=2n}, for a valid pair refined at {1..n}."""
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
        c = _cube_closed_form(n, refine(p, rl, tuple(range(1, n + 1))))
        return [{"monomial": list(b), "coeff": c[b]} for b in cube_basis(n)]
    if n == 3 and m >= 6 and m % 2 == 0 and p.vertices == prism(m - 2).vertices:
        k = (m - 2) // 2
        c = _prism_closed_form(k, _prism_normal_form(p, k, rl)[1])
        return [{"monomial": list(b), "coeff": c[b]} for b in prism_basis(k)]
    return None


# ---------------------------------------------------------------------------
# Q prism Q x I^(n-3): facets 1..8 the facets of Q,
# 8+j and n+5+j the j-th interval pair


def q_prism_polytope(n: int) -> SimplePolytope:
    if n < 3:
        raise StringCheckError("Q prism needs dimension >= 3")
    if n == 3:
        return q_polytope()
    return product(q_polytope(), cube(n - 3))


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
