"""Degree-4 integral cohomology of a characteristic pair, exactly.

For a refined pair the degree-2 part is free on the generators of the
non-identity (free) columns.  The degree-4 part is presented by one
relation per nonface facet pair: substitute each identity-column
generator by minus its row of the matrix, expand the product, and read
off coefficients on monomials v_i v_j over free i <= j.

Every presentation carries a certificate: the relation matrix has full
row rank and all Smith invariant factors 1, and the quotient rank
equals h_2 of the polytope.  Both facts are consequences of the theory
this package implements, so a violation is a hard error rather than a
soft result.  The factors are read off the relation HNF when its
pivots are all 1, with the Smith form as the fallback; the same HNF
then decides membership in the relation lattice.

Degree-4 classes are sparse dicts {(i, j): coefficient} with i <= j
both free; degree-2 classes are dicts {i: coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Generators, relation rows, and exactness certificates."""

    free: tuple  # free facet indices, ascending
    generators: tuple  # monomials (i, j), i <= j free, lex order
    relations: list  # one dense row per nonface pair, generator order
    relation_pairs: tuple  # the nonface pairs, aligned with relations
    invariant_factors: list
    quotient_rank: int
    _gen_index: dict = field(repr=False)
    _hnf: intlin.HermiteForm | None = field(default=None, repr=False)

    def hnf(self) -> intlin.HermiteForm:
        if self._hnf is None:
            self._hnf = intlin.hermite_form(self.relations)
        return self._hnf

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
    hnf = intlin.hermite_form(relations)
    factors = intlin.certified_invariant_factors(relations, hnf)
    if len(factors) != len(relations) or any(f != 1 for f in factors):
        raise CohomologyError(
            f"relation matrix is not a rank-{len(relations)} direct summand: "
            f"invariant factors {factors}"
        )
    qrank = len(gens) - len(factors)
    expected = p.h_vector()[2] if p.dim >= 2 else 0
    if qrank != expected:
        raise CohomologyError(f"quotient rank {qrank} != h_2 = {expected}")
    return DegreeFourPresentation(
        free=free,
        generators=gens,
        relations=relations,
        relation_pairs=pairs,
        invariant_factors=factors,
        quotient_rank=qrank,
        _gen_index=gen_index,
        _hnf=hnf,
    )


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
    """Is the class zero in the degree-4 quotient?"""
    vec = pres.to_vector(expr)
    h = pres.hnf()
    ans = intlin.in_row_lattice(h, vec)
    # the quotient is free (all invariant factors 1), so rational and
    # integral membership must agree; a mismatch would mean the
    # certificate above was wrong
    if ans != intlin.in_row_span_q(h, vec):
        raise CohomologyError(
            "integral and rational membership disagree: the degree-4 "
            "quotient is not free"
        )
    return ans


def reduce_to_basis(pres: DegreeFourPresentation, expr: dict, basis) -> list[int]:
    """Integer coefficients of expr on basis monomials, modulo relations.

    basis may be partial; it must be independent of the relations and
    span a direct summand (checked), and expr must lie in its span.
    """
    basis = [tuple(b) for b in basis]
    stack = [list(r) for r in pres.relations]
    for b in basis:
        row = [0] * len(pres.generators)
        if b not in pres._gen_index:
            raise CohomologyError(f"{b} is not a generator monomial")
        row[pres._gen_index[b]] = 1
        stack.append(row)
    h, u = intlin.hermite_form_with_transform(stack)
    factors = intlin.certified_invariant_factors(stack, h)
    if len(factors) != len(stack) or any(f != 1 for f in factors):
        raise CohomologyError(
            f"basis {basis} is not independent and primitive over the relations"
        )
    vec = pres.to_vector(expr)
    mult = [0] * h.rank
    v = list(vec)
    for t, (row, (c, piv)) in enumerate(zip(h.rows, h.pivots)):
        if v[c] % piv:
            raise CohomologyError("expression is not integral over the basis")
        q = v[c] // piv
        mult[t] = q
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        raise CohomologyError("expression is outside the span of the basis")
    nrel = len(pres.relations)
    coeffs = []
    for k in range(len(basis)):
        coeffs.append(sum(mult[t] * u[t][nrel + k] for t in range(h.rank)))
    return coeffs


def greedy_basis(pres: DegreeFourPresentation) -> tuple:
    """Lexicographically first monomial basis of the degree-4 quotient.

    Walks the generators in order, keeping a monomial whenever the
    relations plus the kept unit rows still form a direct summand with
    all invariant factors 1.
    """
    chosen: list[tuple] = []
    rows = [list(r) for r in pres.relations]
    for g in pres.generators:
        if len(chosen) == pres.quotient_rank:
            break
        row = [0] * len(pres.generators)
        row[pres._gen_index[g]] = 1
        cand = rows + [row]
        h = intlin.hermite_form(cand)
        if h.rank != len(cand):
            continue
        if any(f != 1 for f in intlin.certified_invariant_factors(cand, h)):
            continue
        rows = cand
        chosen.append(g)
    if len(chosen) != pres.quotient_rank:
        raise CohomologyError("no monomial basis extends the relations")
    return tuple(chosen)
