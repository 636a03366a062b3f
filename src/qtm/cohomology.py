"""Degree-4 integral cohomology of a characteristic pair, exactly.

For a pair refined at a base vertex B (columns B_1 < ... < B_n form the
identity) the degree-2 part is free on the generators v_j of the free
facets j, and each base generator is minus its row of the matrix:
v_{B_k} = -sum_j lambda_kj v_j.  The degree-4 part is presented by one
relation per nonface facet pair over the monomials v_i v_j, i <= j
free.  Two base facets always share the vertex B, so every nonface
pair is of one of two kinds, and the shape of its relation depends on
the polytope alone (Davis-Januszkiewicz; Buchstaber-Panov, Toric
Topology, ch. 7):

* a, b both free: the relation says v_a v_b = 0, a unit row.  Such a
  monomial is dead; every other generator is live;
* (B_k, b) with b free: the relation is -sum_j lambda_kj v_j v_b over
  free j.  Its terms on live monomials are j = b and the free
  neighbours j of b; for every other free j the monomial v_j v_b is
  dead.

A `RelationTemplate` holds this shape for one (polytope, base vertex):
the generators, the live ones (and each generator's live index), the
term list of each live row and the quotient rank |live| - |live rows|,
compared with h_2 once when it is built.  That comparison never fails:
with f = m - n free facets and NF nonface pairs the count is
C(f+1, 2) - NF, which equals h_2 = C(m, 2) - NF - (n-1)m + C(n, 2) for
every complex whose h-vector computes, so it certifies nothing about
the polytope.  The checks that can fire are made per pair on the live
rows: over Z the quotient-map certificate below (the rows must span a
direct summand), over GF(2) their independence (`smallcover`).
Templates are kept in the package's one memo cache (`polytope._cached`,
key ("template", vertices, base)), so an equal polytope built again
reuses one.  A pair only fills the coefficients in from its columns.

Each dense (B_k, b) row is minus its live row plus terms on dead
monomials, and every dead monomial is itself a unit relation.  So the
relation lattice L is span(e_dead) plus the lattice of the live rows,
and Z^N / L = Z^live / (live rows) (N generators): the same quotient,
of rank N - |R| = |live| - |live rows|, and L is a direct summand
exactly when the live rows span one.  Both consumers below therefore
fill in and reduce the live rows alone (`_live_rows`).

`p1_vanishes` decides the string condition: it brings the live rows to
echelon form by `intlin.unit_pivot_reduce` and then reduces the live
part of p_1 by the pivot rows in pivot order.  Each row is 1 at its own
pivot and 0 at the pivots before it, so it clears its pivot and leaves
the earlier ones clear: what is left is 0 at every pivot, and the only
lattice vector that is 0 at every pivot is 0.  So p_1 is zero exactly
when nothing is left, and no back substitution is needed.  When the
reduction gets stuck it falls back to the stepwise quotient map of the
live rows (below), which raises unless they span a direct summand.

`presentation_deg4` certifies the presentation by the quotient map
q: Z^N -> Z^h2 of the live rows: every dead generator goes to 0 and
every live one to its image under the certified quotient map of the
live rows.  By the above, q is onto with kernel exactly L.
It exists exactly when the live rows are independent and span a direct
summand, a consequence of the theory this package implements, so a
violation is a hard error rather than a soft result.  (The quotient
rank equals h_2 by counting alone; see above.)

The certified quotient map of a set of rows comes from
`intlin.unit_pivot_reduce`, which pivots only on +-1 entries and leaves
the rows in echelon form.  When it succeeds, `_read_off_quotient_map`
substitutes back in reverse pivot order.  That leaves an identity block
in the pivot columns, and for a fixed set of pivots the basis of a
lattice with that block is unique.  So the rows are a basis of a direct
summand of their rank and q is read off them: q(e_j) = e_j for the
non-pivot columns j and q(e_p) = -(row of pivot p) on them.  When it
gets stuck (no unit entry left) the lattice may still be a direct
summand, so q comes from a unimodular u with u @ [the k rows]^T =
[I_k; 0] instead, grown from u = I one row at a time by
`intlin.extend_unimodular`.  A step takes the next row exactly when it
is primitive modulo the rows before it, and every prefix of a basis of
a direct summand spans one, so the steps all succeed exactly when the
rows span a rank-k direct summand.  The rows of u below k then define
q.

A class is zero in the quotient exactly when q maps it to 0.  For any
monomial set S, Z^N / (relations + span e_S) = Z^h2 / span q(e_S), so
`greedy_basis` and `reduce_to_basis` work on the small images q(e_g)
instead of the relation stack; their outputs do not depend on which
valid q was built.  A generator with q(e_g) = 0, a dead one among
them, never enters a basis.  The greedy walk keeps a unimodular u that
inverts the images of the monomials it has kept, so when the basis is
complete u carries any q(x) to its coefficients on the basis:
`basis_coefficients` returns the basis and those coefficients from that
one walk.  `reduce_to_basis`, which also takes a partial basis, grows
such a u again from the basis it is given.  Both take the step of
`intlin.extend_unimodular` once per image y = u q(e_g).  The images are
sparse: most are unit vectors, so y is usually a column of u.  The step
clears an accepted y by one xgcd chain on the rows of u, pivoting on a
+-1 entry of y[k:] when there is one, so that every step of the chain
is one row operation.  Whether y[k:] is primitive does not depend on
which valid u is kept, and the final u is the unique inverse of the
basis images, so the pivot choice changes neither the basis nor the
coefficients.

Degree-4 classes are sparse dicts {(i, j): coefficient} with i <= j
both free; degree-2 classes are dicts {i: coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import intlin
from .charmat import CharMatrix
from .polytope import SimplePolytope, _cached


class CohomologyError(ValueError):
    pass


@dataclass(frozen=True)
class RelationTemplate:
    """The shape of the degree-4 presentation of every pair over one
    polytope refined at one base vertex; see the module docstring.
    Read mod 2 it is also the degree-2 presentation of every small
    cover there (`smallcover`).

    Facet B_k of the base is row k of the matrix.  A live row's terms
    are (j, live index) pairs: its coefficient at that index is
    lambda_kj.
    """

    free: tuple  # free facet indices, ascending
    generators: tuple  # monomials (i, j), i <= j free, lex order
    gen_index: dict = field(repr=False)
    live: tuple  # live monomials, lex order
    gen_live: tuple  # per generator: its index in live, None when dead
    # per nonface pair (B_k, b), in nonface-pair order:
    # (k, ((j, live index), ...)) over j = b and the free neighbours of b
    live_terms: tuple = field(repr=False)
    quotient_rank: int


def relation_template(p: SimplePolytope, base) -> RelationTemplate:
    """The template of p at the base vertex (ascending), built once per
    key in the package cache (`polytope._cached`)."""
    return _cached(("template", p.vertices, base), lambda: _build_template(p, base))


def _build_template(p: SimplePolytope, base) -> RelationTemplate:
    if not p.is_vertex(base):
        raise CohomologyError(f"the matrix is refined at {base}, not at a vertex")
    row_of = {f: k for k, f in enumerate(base)}
    free = tuple(j for j in range(1, p.num_facets + 1) if j not in row_of)
    gens = tuple((i, j) for a, i in enumerate(free) for j in free[a:])
    gen_index = {g: k for k, g in enumerate(gens)}
    pairs = tuple(p.nonface_pairs())
    dead = {ab for ab in pairs if ab[0] not in row_of and ab[1] not in row_of}
    live = tuple(g for g in gens if g not in dead)
    live_index = {g: k for k, g in enumerate(live)}

    def mono(j, b):
        return (j, b) if j <= b else (b, j)

    live_terms = []
    for a, b in pairs:
        if (a, b) in dead:
            continue
        if b in row_of:
            a, b = b, a
        k = row_of[a]
        live_terms.append((k, tuple(
            (j, live_index[mono(j, b)]) for j in free if mono(j, b) in live_index
        )))
    qrank = len(live) - len(live_terms)
    expected = p.h_vector()[2] if p.dim >= 2 else 0
    if qrank != expected:
        raise CohomologyError(f"quotient rank {qrank} != h_2 = {expected}")
    return RelationTemplate(
        free=free,
        generators=gens,
        gen_index=gen_index,
        live=live,
        gen_live=tuple(live_index.get(g) for g in gens),
        live_terms=tuple(live_terms),
        quotient_rank=qrank,
    )


def columns(lam: CharMatrix) -> tuple:
    """The columns of lam indexed by facet: entry 0 is a placeholder."""
    return (None,) + tuple(zip(*lam.rows))


def _live_rows(t: RelationTemplate, cols) -> list:
    """The live rows of the pair with these columns, in nonface-pair
    order, over t.live."""
    nlive = len(t.live)
    rows = []
    for k, terms in t.live_terms:
        row = [0] * nlive
        for j, c in terms:
            row[c] = cols[j][k]
        rows.append(row)
    return rows


def p1_vanishes(t: RelationTemplate, cols) -> bool:
    """Is p_1 zero in degree 4, for the pair over t's polytope refined at
    t's base with these columns (cols[j] is column j; entry 0 unused)?

    Exact: reduces the live rows and the live part of p_1, raising
    `CohomologyError` unless the live rows span a direct summand.
    """
    nlive = len(t.live)
    rows = _live_rows(t, cols)
    # p_1 on the live monomials: |column|^2 + 1 on a square, twice the
    # dot product elsewhere (as in `p1_vector`)
    rest = [
        sum(map(mul, cols[i], cols[i])) + 1
        if i == j
        else 2 * sum(map(mul, cols[i], cols[j]))
        for i, j in t.live
    ]
    pivots = intlin.unit_pivot_reduce(rows)
    if pivots is None:
        q = _transposed_quotient_map(rows, nlive)
        return not any(_image(q, nlive - len(rows), rest))
    # in pivot order each row is 1 at its pivot and 0 at the pivots before
    # it, so it clears its pivot and keeps the earlier ones clear; what is
    # left is 0 at every pivot, and in the row lattice only if it is 0
    for c, row in pivots.items():
        x = rest[c]
        if x:
            rest = [a - x * b for a, b in zip(rest, row)]
    return not any(rest)


@dataclass
class DegreeFourPresentation:
    """Generators and the quotient map that certifies their relations."""

    generators: tuple  # monomials (i, j), i <= j free, lex order
    quotient_rank: int
    quotient_map: tuple = field(repr=False)  # q(e_g) in Z^quotient_rank, generator order; 0 when dead
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


def presentation_deg4(p: SimplePolytope, lam: CharMatrix) -> DegreeFourPresentation:
    """Build the degree-4 presentation of a refined pair, certified by
    the quotient map of its live rows (see the module docstring)."""
    if lam.n != p.dim or lam.m != p.num_facets:
        raise CohomologyError("matrix shape does not match the polytope")
    if lam.refined_at is None:
        raise CohomologyError("presentation needs a refined matrix")
    t = relation_template(p, lam.refined_at)
    live_q = _certified_quotient_map(_live_rows(t, columns(lam)), len(t.live))
    dead = (0,) * t.quotient_rank
    return DegreeFourPresentation(
        generators=t.generators,
        quotient_rank=t.quotient_rank,
        quotient_map=tuple(dead if c is None else live_q[c] for c in t.gen_live),
        _gen_index=t.gen_index,
    )


def _certified_quotient_map(relations: list, ngen: int) -> tuple:
    """Images q(e_g) in Z^(ngen - |R|) of the ngen generators: q is onto
    with kernel exactly the lattice of the relation rows.

    Read off the unit-pivot reduction of the relations when it succeeds,
    else from the stepwise transform of `_transposed_quotient_map`, which
    raises unless the relations span a rank-|R| direct summand.
    """
    pivots = intlin.unit_pivot_reduce(relations)
    if pivots is None:
        return _transposed_quotient_map(relations, ngen)
    return _read_off_quotient_map(pivots, ngen)


# ---------------------------------------------------------------------------
# characteristic classes as expressions over the free generators


def w2_vector(p: SimplePolytope, lam: CharMatrix) -> dict[int, int]:
    """Degree-2 class: sum of all facet classes, over the free generators.

    Each base class is minus its row, so the coefficient of free v_j is
    1 minus the sum of column j.  The manifold is spin exactly when every
    coefficient is even, i.e. every free column sum of the matrix is odd.
    """
    if lam.refined_at is None:
        raise CohomologyError("w2 needs a refined matrix")
    base = set(lam.refined_at)
    cols = columns(lam)
    out = {j: 1 - sum(cols[j]) for j in range(1, lam.m + 1) if j not in base}
    return {j: c for j, c in out.items() if c}


def p1_vector(p: SimplePolytope, lam: CharMatrix) -> dict[tuple, int]:
    """First Pontryagin class: sum of squares of all facet classes."""
    if lam.refined_at is None:
        raise CohomologyError("p1 needs a refined matrix")
    v0 = set(lam.refined_at)
    free = [j for j in range(1, lam.m + 1) if j not in v0]
    cols = columns(lam)
    out: dict[tuple, int] = {(j, j): sum(map(mul, cols[j], cols[j])) + 1 for j in free}
    for a, i in enumerate(free):
        ci = cols[i]
        for j in free[a + 1:]:
            rho_ij = 2 * sum(map(mul, ci, cols[j]))
            if rho_ij:
                out[(i, j)] = rho_ij
    return out


def _image(q: tuple, rank: int, vec: list) -> list:
    """q(vec) in Z^rank for a vector over the generators."""
    target = [0] * rank
    for x, img in zip(vec, q):
        if x:
            target = [t + x * y for t, y in zip(target, img)]
    return target


def _transposed_quotient_map(relations: list, ngen: int) -> tuple:
    """q from a unimodular u with u @ [relation rows]^T = [I_|R|; 0],
    grown one relation at a time by `intlin.extend_unimodular`, which
    refuses unless the rows span a rank-|R| direct summand.  Row g of
    the transposed bottom block u[|R|:] is q(e_g)."""
    nrel = len(relations)
    u = intlin.identity(ngen)
    for k, row in enumerate(relations):
        if not intlin.extend_unimodular(u, intlin.mat_vec(u, row), k):
            raise CohomologyError(
                f"relation lattice is not a rank-{nrel} direct summand: "
                f"relation {k} is not primitive over the ones before it"
            )
    return tuple(tuple(r[g] for r in u[nrel:]) for g in range(ngen))


def _read_off_quotient_map(pivot_row: dict, ngen: int) -> tuple:
    """q from the rows {pivot column: row} of `intlin.unit_pivot_reduce`,
    in pivot order, each 1 at its own pivot and 0 at the pivots before
    it.  Back substitution in reverse pivot order clears each row at the
    pivots after it as well, which leaves the one basis of their lattice
    with an identity block in the pivot columns.  q is then the identity
    on the non-pivot columns, and each pivot column goes to minus its
    row there, so every row maps to 0 and q(x) is what is left of x
    after subtracting x_p times the row of each pivot p."""
    jordan: dict = {}
    for c in reversed(pivot_row):
        row = pivot_row[c]
        for p, later in jordan.items():
            x = row[p]
            if x:
                row = [a - x * b for a, b in zip(row, later)]
        jordan[c] = row
    rest = [j for j in range(ngen) if j not in jordan]
    unit = {j: t for t, j in enumerate(rest)}
    images = []
    for j in range(ngen):
        row = jordan.get(j)
        if row is None:
            img = [0] * len(rest)
            img[unit[j]] = 1
            images.append(tuple(img))
        else:
            images.append(tuple(-row[c] for c in rest))
    return tuple(images)


def reduce_to_basis(pres: DegreeFourPresentation, expr: dict, basis) -> list[int]:
    """Integer coefficients of expr on basis monomials, modulo relations.

    basis may be partial; it must be independent of the relations and
    span a direct summand (checked), and expr must lie in its span.
    Both are decided in the quotient.  One `intlin.extend_unimodular`
    step per basis image, from u = I, checks the first and leaves
    u @ Q_S^T = [I_k; 0] for the images Q_S of the basis under the
    quotient map.  So u q(expr) is zero below row k exactly when expr
    lies in the span, and its first k entries are then the coefficients
    c, the solution of c . Q_S = q(expr).
    """
    basis = [tuple(b) for b in basis]
    for b in basis:
        if b not in pres._gen_index:
            raise CohomologyError(f"{b} is not a generator monomial")
    q = pres.quotient_map
    d = pres.quotient_rank
    k = len(basis)
    u = intlin.identity(d)
    for i, b in enumerate(basis):
        if not intlin.extend_unimodular(u, intlin.mat_vec(u, q[pres._gen_index[b]]), i):
            raise CohomologyError(
                f"basis {basis} is not independent and primitive over the relations"
            )
    vec = pres.to_vector(expr)
    if any(x % 1 for x in vec):
        raise CohomologyError("expression is not integral over the basis")
    y = intlin.mat_vec(u, _image(q, d, vec))
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
    is kept up to date by `intlin.extend_unimodular`: the new image x
    qualifies exactly when (u x)[k:] is primitive, i.e. has gcd 1, and
    then the step turns u x into e_k and extends the identity block by
    one.
    """
    return _greedy(pres)[0]


def basis_coefficients(pres: DegreeFourPresentation, expr: dict) -> tuple:
    """(greedy_basis(pres), reduce_to_basis(pres, expr, that basis)) from
    one elimination.

    When `greedy_basis` ends, its u satisfies u @ Q_S^T = I for the
    images Q_S of the full basis S, so u is the inverse that
    `reduce_to_basis` grows again from the basis: the coefficients are
    c = u q(expr), the unique solution of c . Q_S = q(expr).
    """
    basis, u = _greedy(pres)
    target = _image(pres.quotient_map, pres.quotient_rank, pres.to_vector(expr))
    return basis, intlin.mat_vec(u, target)


def _greedy(pres: DegreeFourPresentation) -> tuple:
    """greedy_basis and its final u, with u @ [basis images] = I."""
    d = pres.quotient_rank
    u = intlin.identity(d)
    chosen: list[tuple] = []
    for g, img in zip(pres.generators, pres.quotient_map):
        k = len(chosen)
        if k == d:
            break
        nz = [i for i, x in enumerate(img) if x]
        if not nz:  # gcd 0: never primitive
            continue
        if len(nz) == 1:  # a multiple of a unit vector: a column of u
            i = nz[0]
            x = img[i]
            y = [row[i] for row in u] if x == 1 else [row[i] * x for row in u]
        else:
            y = [sum(map(mul, row, img)) for row in u]
        if intlin.extend_unimodular(u, y, k):
            chosen.append(g)
    if len(chosen) != d:
        raise CohomologyError("no monomial basis extends the relations")
    return tuple(chosen), u
