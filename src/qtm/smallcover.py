"""Small covers: orientability and the string condition over GF(2).

A small cover is the real analogue of a characteristic pair: the torus
is replaced by its 2-torsion subgroup, so the matrix lives over the
field with two elements and every facet class v_i sits in degree 1 of
the mod-2 cohomology.  The matrix is a `charmat.CharMatrix`, the type
of the integer pairs: every function here reads its entries mod 2
(`intlin.f2_mask`), so any integer lift of a GF(2) matrix gives the
same answers, and `refine_mod2` returns entries in {0, 1}.  Shape and
construction errors raise `CharMatrixError`, as over Z; the GF(2)
computations raise `SmallCoverError` (a vertex that is not one or is
singular, dependent live rows).  The total Stiefel-Whitney class is the product
of (1 + v_i) over all facets and the rational Pontryagin classes
vanish, which collapses the string condition: a small cover is string
exactly when it is orientable (sum of all v_i zero in degree 1) and
the degree-2 class sum_{i<j} v_i v_j vanishes.

The degree-2 presentation is the integral degree-4 one read mod 2, so
it comes from the same relation template (`cohomology.relation_template`):
generators are the monomials v_i v_j over free facets i <= j, squares
included, and each nonface pair gives one relation.  A product of two
free facets that form a nonface is dead (its relation is v_a v_b = 0),
so the relations span e_dead plus the live rows, rank(relations) =
#dead + rank(live rows), and the class sum_{i<j} v_i v_j vanishes
exactly when its live part lies in the span of the live rows.  A
string test packs the live rows from the column bitmasks, runs one
`intlin._f2_echelon`, and reduces the class by it.  The certificate,
checked on every call, is that the live rows are independent: that is
#generators - rank(relations) = h_2, since the template's count
|live| - |live rows| equals h_2.  The class needs no substitution: if
S_i = 1 + popcount(column i) counts the facet classes that involve
free v_i, it is C(S_i, 2) on v_i^2 (mod 2 that is bit 1 of S_i) and
S_i S_j + popcount(column i & column j) on v_i v_j, mod 2.

Vertex tests work on columns packed as bitmasks: a vertex is fine iff
its n column masks have GF(2) rank n.  The mod-2 search does not rank
them: the determinant is linear in the last-assigned column x, equal
to the parity of c & x for the normal mask c of the other n - 1
columns, so the walk filters the values of that column by mask, once
per node.  `qtm smallcover` validates its input with `validate_mod2`
and refines it with `_refined`; `_refined_verdicts` then decides
orientability and the string condition from one set of column masks,
and the mod-2 search hands `_w2_vanishes` its column masks, building a
matrix only for a survivor.  The simplex-product criterion is decided
by that search, string filter on, under the node and time caps its
caller passes (the defaults of `harness.SearchSpec` when none is
given), and then checked against its closed form: it returns only when
the two agree.
"""

from __future__ import annotations

from . import intlin
from .charmat import CharMatrix, _check_shape
from .cohomology import RelationTemplate, relation_template
from .polytope import SimplePolytope, product, simplex


class SmallCoverError(ValueError):
    pass


class CriterionContradiction(SmallCoverError):
    """The exhaustive mod-2 search disagrees with the simplex-product
    parity criterion: a counterexample to it, not a bad input."""


def validate_mod2(p: SimplePolytope, lam: CharMatrix) -> bool:
    """Is every vertex's column submatrix invertible over GF(2)?"""
    _check_shape(p, lam)
    cols = [intlin.f2_mask(c) for c in zip(*lam.rows)]
    # an n x n mod-2 matrix is invertible when its n columns have rank n
    return all(intlin.f2_rank([cols[j - 1] for j in v]) == lam.n for v in p.vertices)


def refine_mod2(p: SimplePolytope, lam: CharMatrix, v) -> CharMatrix:
    """Row reduce lam mod 2 until the columns of vertex v are the
    identity; the result's entries are 0 or 1."""
    _check_shape(p, lam)
    v = tuple(sorted(v))
    if not p.is_vertex(v):
        raise SmallCoverError(f"{v} is not a vertex")
    n, m = lam.n, lam.m
    rows = [intlin.f2_mask(list(r)) for r in lam.rows]
    for k, j in enumerate(v):
        c = j - 1
        piv = next((i for i in range(k, n) if rows[i] >> c & 1), None)
        if piv is None:
            raise SmallCoverError(f"vertex {v} is singular over GF(2)")
        rows[k], rows[piv] = rows[piv], rows[k]
        for i in range(n):
            if i != k and rows[i] >> c & 1:
                rows[i] ^= rows[k]
    out = [[rows[i] >> j & 1 for j in range(m)] for i in range(n)]
    return CharMatrix(out, refined_at=v)


def _refined(p: SimplePolytope, lam: CharMatrix) -> CharMatrix:
    """lam when it is refined at a vertex, else lam refined at the first
    vertex: a relation template is built at a vertex."""
    if lam.refined_at is not None and p.is_vertex(lam.refined_at):
        return lam
    return refine_mod2(p, lam, p.vertices[0])


def _orientable(col) -> bool:
    """Every column sum odd, for column masks indexed by facet: in
    refined form, the sum of all facet classes vanishes in degree 1."""
    return all(c.bit_count() & 1 for c in col[1:])


def _column_masks(rl: CharMatrix) -> list[int]:
    """The columns of rl as bitmasks, bit i for row i, indexed by facet
    as the mod-2 walk keeps them: entry 0 is a placeholder."""
    return [0] + [intlin.f2_mask(c) for c in zip(*rl.rows)]


def _live_echelon(t: RelationTemplate, col) -> dict[int, int]:
    """The `intlin._f2_echelon` basis of the live rows of the pair over
    t's polytope refined at t's base with column masks col (col[j] is
    column j, bit k for row k), raising `SmallCoverError` unless they
    are independent."""
    rows = []
    for k, terms in t.live_terms:
        mask = 0
        for j, c in terms:
            if col[j] >> k & 1:
                mask |= 1 << c
        rows.append(mask)
    basis = intlin._f2_echelon(rows)
    if len(basis) != len(rows):
        raise SmallCoverError(
            f"degree-2 quotient dimension {len(t.live) - len(basis)} "
            f"!= h_2 = {t.quotient_rank}"
        )
    return basis


def _w2_vanishes(t: RelationTemplate, col) -> bool:
    """Is sum_{i<j} v_i v_j zero in degree 2, for the pair over t's
    polytope refined at t's base with column masks col?  Its live part,
    in the closed form of the module docstring, is reduced by the live
    rows, which must be independent (`_live_echelon`)."""
    basis = _live_echelon(t, col)
    s = [1 + c.bit_count() for c in col]
    w2 = 0
    for c, (i, j) in enumerate(t.live):
        if i == j:
            bit = s[i] >> 1
        else:
            bit = s[i] * s[j] + (col[i] & col[j]).bit_count()
        if bit & 1:
            w2 |= 1 << c
    while w2:
        b = basis.get(w2.bit_length())
        if b is None:
            return False
        w2 ^= b
    return True


def _refined_verdicts(p: SimplePolytope, rl: CharMatrix) -> tuple[bool, bool]:
    """(orientable, string) for a pair already valid and refined, from
    one set of column masks.  String means orientable and
    sum_{i<j} v_i v_j zero in degree 2; for small covers this coincides
    with the spin condition, so there is no separate test."""
    col = _column_masks(rl)
    orientable = _orientable(col)
    return orientable, orientable and _w2_vanishes(relation_template(p, rl.refined_at), col)


# ---------------------------------------------------------------------------
# products of simplices


def simplex_product(ns) -> SimplePolytope:
    """Product of simplices; factor i (dimension ns[i]) contributes
    ns[i] + 1 consecutively labeled facets."""
    ns = tuple(int(n) for n in ns)
    if not ns or any(n < 1 for n in ns):
        raise SmallCoverError("factor dimensions must be positive")
    poly = simplex(ns[0])
    for n in ns[1:]:
        poly = product(poly, simplex(n))
    return poly


# the largest sum of factor dimensions the criterion searches over
_ENUMERATION_CAP = 7


def verify_simplex_product_criterion(ns, **caps) -> bool:
    """Does a string small cover exist over the product of these simplices?

    All factor dimensions must be at least 2, and their sum at most 7.
    The answer comes from the pruned mod-2 search with the string
    filter: it walks every GF(2) matrix refined at the product's first
    vertex, cutting a branch at the first singular vertex or even
    column sum.  That is exhaustive: every small cover can be
    row-reduced to the identity at that vertex, row operations leave
    the string verdict unchanged, and an even column sum means
    non-orientable, hence not string.  The outcome is checked against
    the closed form -- existence iff every dimension is odd and some
    dimension is 3 mod 4 -- and a disagreement raises, since it would
    falsify that criterion rather than being a soft result.  The search
    takes the node and time caps of `harness.SearchSpec` as keyword
    arguments (their defaults when none is given), and raises
    `harness.ResourceCapExceeded` when it hits one.
    """
    from .harness import SearchSpec, enumerate_matrices

    ns = tuple(int(n) for n in ns)
    if not ns or any(n < 2 for n in ns):
        raise SmallCoverError("criterion needs every factor dimension >= 2")
    total = sum(ns)
    if total > _ENUMERATION_CAP:
        raise SmallCoverError(
            f"sum of dimensions {total} exceeds the enumeration cap {_ENUMERATION_CAP}"
        )
    poly = simplex_product(ns)
    survivors, _stats = enumerate_matrices(
        SearchSpec(poly, 1, "signs", "string", mod2_only=True, **caps)
    )
    found = bool(survivors)
    expected = all(x % 2 == 1 for x in ns) and any(x % 4 == 3 for x in ns)
    if found != expected:
        raise CriterionContradiction(
            f"exhaustive search over {ns} contradicts the parity criterion: "
            f"found={found}, expected={expected}"
        )
    return found
