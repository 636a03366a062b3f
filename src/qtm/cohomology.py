"""Degree-4 integral cohomology of a characteristic pair, exactly.

For a refined pair the degree-2 part is free on the generators of the
non-identity (free) columns.  The degree-4 part is presented by one
relation per nonface facet pair: substitute each identity-column
generator by minus its row of the matrix, expand the product, and read
off coefficients on monomials v_i v_j over free i <= j.

The certificate of a presentation is its quotient map
q: Z^N -> Z^h2 (N generators), onto with kernel exactly the relation
lattice; `presentation_deg4` builds it and stores it on the
presentation.  It exists exactly when the relation rows are
independent and span a direct summand, and the quotient rank
N - |R| must equal h_2 of the polytope.  Both facts are consequences of
the theory this package implements, so a violation is a hard error
rather than a soft result.

q comes from `intlin.unit_pivot_reduce`, which pivots only on +-1
entries and keeps every row fully reduced.  When it succeeds the pivot
columns hold an identity block, so the rows are a basis of a rank-|R|
direct summand and q is read off them: q(e_j) = e_j for the non-pivot
columns j and q(e_p) = -(row of pivot p) on them.  When it gets stuck
(no unit entry left) the lattice may still be a direct summand, so q
comes from the HNF with transform U of the transposed N x |R| relation
matrix instead, certified to have rank |R| and unit pivots; for a
full-column-rank matrix the product of the HNF pivots is the gcd of its
maximal minors, so this holds exactly when the relations span a rank-|R|
direct summand.  Rows |R|..N-1 of U then define q.

A class is zero in the quotient exactly when q maps it to 0.  For any
monomial set S, Z^N / (relations + span e_S) = Z^h2 / span q(e_S), so
`greedy_basis` and `reduce_to_basis` work on the small images q(e_g)
instead of the relation stack; their outputs do not depend on which
valid q was built.

Degree-4 classes are sparse dicts {(i, j): coefficient} with i <= j
both free; degree-2 classes are dicts {i: coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import intlin
from .charmat import CharMatrix
from .polytope import SimplePolytope


class CohomologyError(ValueError):
    pass


@dataclass(frozen=True)
class FaceSummary:
    """Face counts in the shapes the rest of the package consumes."""

    f_vector: tuple  # (f_0, ..., f_{n-1}, 1)
    h_vector: tuple
    nonface_pairs: tuple


def face_summary(p: SimplePolytope) -> FaceSummary:
    return FaceSummary(
        f_vector=p.f_vector() + (1,),
        h_vector=p.h_vector(),
        nonface_pairs=tuple(p.nonface_pairs()),
    )


@dataclass
class DegreeFourPresentation:
    """Generators, relation rows, and the quotient map certifying them."""

    free: tuple  # free facet indices, ascending
    generators: tuple  # monomials (i, j), i <= j free, lex order
    relations: list  # one dense row per nonface pair, generator order
    relation_pairs: tuple  # the nonface pairs, aligned with relations
    quotient_rank: int
    quotient_map: tuple = field(repr=False)  # q(e_g) in Z^quotient_rank, generator order
    _gen_index: dict = field(repr=False)

    def to_vector(self, expr: dict) -> list[int]:
        vec = [0] * len(self.generators)
        for mono, coef in expr.items():
            i, j = mono
            key = (i, j) if i <= j else (j, i)
            if key not in self._gen_index:
                raise CohomologyError(f"monomial {key} uses a non-free facet")
            vec[self._gen_index[key]] += coef
        return vec


def _substituted(lam: CharMatrix) -> dict[int, dict[int, int]]:
    """Each facet's degree-2 class as a dict over free facets."""
    v0 = lam.refined_at
    if v0 is None:
        raise CohomologyError("presentation needs a refined matrix")
    free = [j for j in range(1, lam.m + 1) if j not in set(v0)]
    sub: dict[int, dict[int, int]] = {}
    for k, t in enumerate(sorted(v0)):
        sub[t] = {j: -lam.rows[k][j - 1] for j in free if lam.rows[k][j - 1]}
    for j in free:
        sub[j] = {j: 1}
    return sub


def presentation_deg4(p: SimplePolytope, lam: CharMatrix) -> DegreeFourPresentation:
    """Build and certify the degree-4 presentation of a refined pair."""
    if lam.n != p.dim or lam.m != p.num_facets:
        raise CohomologyError("matrix shape does not match the polytope")
    sub = _substituted(lam)
    free = tuple(j for j in range(1, lam.m + 1) if j not in set(lam.refined_at))
    gens = tuple((i, j) for a, i in enumerate(free) for j in free[a:])
    gen_index = {g: k for k, g in enumerate(gens)}
    pairs = tuple(p.nonface_pairs())
    relations = []
    for a, b in pairs:
        row = [0] * len(gens)
        for i, ci in sub[a].items():
            for j, cj in sub[b].items():
                key = (i, j) if i <= j else (j, i)
                row[gen_index[key]] += ci * cj
        relations.append(row)
    q = _certified_quotient_map(relations, len(gens))
    qrank = len(gens) - len(relations)
    expected = p.h_vector()[2] if p.dim >= 2 else 0
    if qrank != expected:
        raise CohomologyError(f"quotient rank {qrank} != h_2 = {expected}")
    return DegreeFourPresentation(
        free=free,
        generators=gens,
        relations=relations,
        relation_pairs=pairs,
        quotient_rank=qrank,
        quotient_map=q,
        _gen_index=gen_index,
    )


def _certified_quotient_map(relations: list, ngen: int) -> tuple:
    """Images q(e_g) in Z^(ngen - |R|) of the ngen generators: q is onto
    with kernel exactly the lattice of the relation rows.

    Read off the unit-pivot reduction of the relations when it succeeds,
    else from the transposed HNF with transform, which raises unless the
    relations span a rank-|R| direct summand.
    """
    pivots = intlin.unit_pivot_reduce(relations)
    if pivots is None:
        return _transposed_quotient_map(relations, ngen)
    return _read_off_quotient_map(pivots, ngen)


# ---------------------------------------------------------------------------
# characteristic classes as expressions over the free generators


def w2_vector(p: SimplePolytope, lam: CharMatrix) -> dict[int, int]:
    """Degree-2 class: sum of all facet classes, over the free generators.

    The manifold is spin exactly when every coefficient is even, i.e.
    every free column sum of the matrix is odd.
    """
    sub = _substituted(lam)
    out: dict[int, int] = {}
    for t in range(1, lam.m + 1):
        for j, c in sub[t].items():
            out[j] = out.get(j, 0) + c
    return {j: c for j, c in out.items() if c}


def p1_vector(p: SimplePolytope, lam: CharMatrix) -> dict[tuple, int]:
    """First Pontryagin class: sum of squares of all facet classes."""
    if lam.refined_at is None:
        raise CohomologyError("p1 needs a refined matrix")
    v0 = set(lam.refined_at)
    free = [j for j in range(1, lam.m + 1) if j not in v0]
    out: dict[tuple, int] = {}
    for j in free:
        col = lam.column(j)
        rho = sum(x * x for x in col) + 1
        out[(j, j)] = rho
    for a, i in enumerate(free):
        ci = lam.column(i)
        for j in free[a + 1:]:
            cj = lam.column(j)
            rho_ij = 2 * sum(x * y for x, y in zip(ci, cj))
            if rho_ij:
                out[(i, j)] = rho_ij
    return out


def is_zero_in_h4(pres: DegreeFourPresentation, expr: dict) -> bool:
    """Is the class zero in the degree-4 quotient, i.e. q(expr) = 0?"""
    return not any(_image(pres, pres.to_vector(expr)))


def _image(pres: DegreeFourPresentation, vec: list) -> list:
    """q(vec) in Z^quotient_rank for a vector over the generators."""
    target = [0] * pres.quotient_rank
    for x, img in zip(vec, pres.quotient_map):
        if x:
            target = [t + x * y for t, y in zip(target, img)]
    return target


def _transposed_quotient_map(relations: list, ngen: int) -> tuple:
    """q from the HNF with transform U of the transposed relations,
    certified to have full rank with unit pivots."""
    nrel = len(relations)
    h, u = intlin.hermite_form_with_transform(_as_columns(relations, ngen))
    if not _full_unit_pivots(h, nrel):
        raise CohomologyError(
            f"relation lattice is not a rank-{nrel} direct summand: "
            f"transposed HNF pivots {[p for _, p in h.pivots]}"
        )
    # row g of the transposed bottom block of U is q(e_g)
    return tuple(tuple(img) for img in _as_columns(u[nrel:], ngen))


def _read_off_quotient_map(pivot_row: dict, ngen: int) -> tuple:
    """q from the rows {pivot column: row} of `intlin.unit_pivot_reduce`,
    each 1 at its own pivot and 0 at the others: identity on the
    non-pivot columns, and each pivot column goes to minus its row
    there, so every row maps to 0 and q(x) is what is left of x after
    subtracting x_p times the row of each pivot p."""
    rest = [j for j in range(ngen) if j not in pivot_row]
    unit = {j: t for t, j in enumerate(rest)}
    images = []
    for j in range(ngen):
        row = pivot_row.get(j)
        if row is None:
            img = [0] * len(rest)
            img[unit[j]] = 1
            images.append(tuple(img))
        else:
            images.append(tuple(-row[c] for c in rest))
    return tuple(images)


def _full_unit_pivots(h: intlin.HermiteForm, k: int) -> bool:
    """For an HNF of k vectors (the rows, or the columns when they are
    given as columns): rank k and every pivot 1.  For columns that means
    exactly that they span a rank-k direct summand."""
    return h.rank == k and all(p == 1 for _, p in h.pivots)


def _as_columns(vectors: list, d: int) -> list[list[int]]:
    """The d x k matrix whose columns are the k vectors of length d;
    it keeps its d rows when k is 0."""
    return [[v[i] for v in vectors] for i in range(d)]


def reduce_to_basis(pres: DegreeFourPresentation, expr: dict, basis) -> list[int]:
    """Integer coefficients of expr on basis monomials, modulo relations.

    basis may be partial; it must be independent of the relations and
    span a direct summand (checked), and expr must lie in its span.
    Both are decided in the quotient: the images Q_S of the basis under
    the quotient map must have a transposed HNF of full rank with unit
    pivots, and then the transform of that HNF carries q(expr) to its
    coefficients c, the solution of c . Q_S = q(expr).
    """
    basis = [tuple(b) for b in basis]
    for b in basis:
        if b not in pres._gen_index:
            raise CohomologyError(f"{b} is not a generator monomial")
    q = pres.quotient_map
    d = pres.quotient_rank
    k = len(basis)
    h, u = intlin.hermite_form_with_transform(
        _as_columns([q[pres._gen_index[b]] for b in basis], d)
    )
    if not _full_unit_pivots(h, k):
        raise CohomologyError(
            f"basis {basis} is not independent and primitive over the relations"
        )
    vec = pres.to_vector(expr)
    if any(x % 1 for x in vec):
        raise CohomologyError("expression is not integral over the basis")
    target = _image(pres, vec)
    # unit pivots leave nothing above them, so U @ Q_S^T = [I_k; 0]: the
    # target lies in the span exactly when U @ target vanishes below
    # row k, and its first k entries are the coefficients
    y = intlin.mat_vec(u, target)
    if any(y[k:]):
        raise CohomologyError("expression is outside the span of the basis")
    return y[:k]


def greedy_basis(pres: DegreeFourPresentation) -> tuple:
    """Lexicographically first monomial basis of the degree-4 quotient.

    Walks the generators in order, keeping a monomial whenever the
    relations plus the kept unit rows still span a direct summand of
    full rank.  That is decided in the quotient, where it says the kept
    images under the quotient map plus the new one span a direct
    summand.  A unimodular u with u @ [kept images] = [I_k; 0]
    is kept up to date: the new image x qualifies exactly when
    (u x)[k:] is primitive, i.e. has gcd 1, and then xgcd row steps
    turn u x into e_k and extend the identity block by one.
    """
    d = pres.quotient_rank
    u = intlin.identity(d)
    chosen: list[tuple] = []
    for g, img in zip(pres.generators, pres.quotient_map):
        k = len(chosen)
        if k == d:
            break
        y = intlin.mat_vec(u, img)
        if gcd(*y[k:]) != 1:
            continue
        # column 0 of work is u x; row steps on work keep u unimodular
        work = [[yi] + row for yi, row in zip(y, u)]
        piv = next(i for i in range(k, d) if work[i][0])
        work[k], work[piv] = work[piv], work[k]
        for i in range(k + 1, d):
            if work[i][0]:
                work[k], work[i] = intlin.xgcd_rows(work[k], work[i], work[k][0], work[i][0])
        if work[k][0] < 0:
            work[k] = [-x for x in work[k]]
        for i in range(k):
            c = work[i][0]
            if c:
                work[i] = [x - c * z for x, z in zip(work[i], work[k])]
        u = [row[1:] for row in work]
        chosen.append(g)
    if len(chosen) != d:
        raise CohomologyError("no monomial basis extends the relations")
    return tuple(chosen)
