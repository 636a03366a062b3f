"""Characteristic matrices paired with simple polytopes.

A characteristic matrix for an n-polytope with m facets is an n x m
integer matrix whose column j is the vector attached to facet j; the
pair is valid when every vertex's column submatrix has determinant +-1.
Entries are Python ints, so nothing can overflow; the constructor
refuses any other type (bool, float, str) rather than convert it, and a
refined_at outside the facets 1..m.  A small cover's
matrix is the same type: the `smallcover` functions read its entries
mod 2, as the functions here read them over Z, so the function a caller
picks decides the field.

The equivalence moves are integral row basis changes, column sign
flips, and facet relabelings by automorphisms of the polytope.  None of
them changes a vertex |det|, so the private `_moved` and
`_normalizing_moves` do not validate: the decompositions and the closed
forms run them on pairs they have validated.  A pair is *refined* at a
vertex v when the columns of v form the identity in sorted-v order.
Every refine over Z is one call of `_normalizing_moves`: one inverse of
the vertex submatrix, one product that also makes the listed unit
entries +1, one new matrix, and the moves recorded in that order;
`refine` is the call that lists no unit entry.  `validate` reads a refined
matrix through that identity block: a vertex determinant there is, up
to sign, a minor at most as wide as the number of facets the vertex
does not share with the refining vertex.  Which rows and columns each
minor takes depends on the polytope's vertices and the refining vertex
alone, so a plan listing them is built once per pair of those and kept
in the package's memo cache (`polytope._cached`), beside the relation
templates of `cohomology`.  An unrefined matrix has its columns read
once.  Both paths take every vertex determinant in p.vertices order up
to the first one that is not +-1, and name that vertex.  This module computes no normal
form of a class: the search tells classes apart by its own walk form,
the orbit leaders of `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul

from . import intlin
from .polytope import SimplePolytope, _cached


class CharMatrixError(ValueError):
    pass


_INT = {int}


def _refined_vertex_ok(rows, v) -> bool:
    n = len(rows)
    for k, j in enumerate(sorted(v)):
        for i in range(n):
            if rows[i][j - 1] != (1 if i == k else 0):
                return False
    return True


class CharMatrix:
    """Immutable n x m matrix of ints with 1-based column (facet) indexing.

    The entries are kept exactly as given and must be ints (a bool, a
    float or a string is refused, not converted); the GF(2) functions of
    `smallcover` read them mod 2.  refined_at, when given, must name n
    facets in 1..m, and is checked on the exact entries: its columns
    must be the identity.
    """

    __slots__ = ("n", "m", "rows", "refined_at")

    def __init__(self, rows, refined_at=None):
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise CharMatrixError("empty matrix")
        if len(set(map(len, rows))) != 1:
            raise CharMatrixError("ragged rows")
        types = set(map(type, chain.from_iterable(rows)))
        if types != _INT:
            bad = sorted(t.__name__ for t in types - _INT)
            raise CharMatrixError(f"entries must be ints, not {', '.join(bad)}")
        self.rows = rows
        self.n = len(rows)
        self.m = len(rows[0])
        if refined_at is not None:
            refined_at = tuple(sorted(refined_at))
            if len(refined_at) != self.n or refined_at[0] < 1 or refined_at[-1] > self.m:
                raise CharMatrixError(
                    f"refined_at {refined_at} is not {self.n} facets in 1..{self.m}"
                )
            if not _refined_vertex_ok(rows, refined_at):
                raise CharMatrixError(f"columns {refined_at} are not the identity")
        self.refined_at = refined_at

    def __repr__(self):
        return f"<CharMatrix {self.n}x{self.m} refined_at={self.refined_at}>"

    def __eq__(self, other):
        return isinstance(other, CharMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def column(self, j: int) -> list[int]:
        return [self.rows[i][j - 1] for i in range(self.n)]

    def submatrix(self, facets) -> list[list[int]]:
        """Columns at the given facets (sorted order), as row lists."""
        js = sorted(facets)
        return [[self.rows[i][j - 1] for j in js] for i in range(self.n)]

    def entry(self, i: int, j: int) -> int:
        """lambda_{i,j} with 1-based row and column."""
        return self.rows[i - 1][j - 1]

    def to_dict(self, key: str = "rows") -> dict:
        """The rows under key: "rows" for an integer matrix file,
        "rows_mod2" for a mod-2 one."""
        return {key: [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, d: dict, key: str = "rows") -> "CharMatrix":
        if not isinstance(d, dict) or not intlin.is_int_rows(d.get(key)):
            raise CharMatrixError(f"'{key}' must be a list of integer lists")
        return cls(d[key])


# ---------------------------------------------------------------------------
# validation and refinement


def _check_shape(p: SimplePolytope, lam: CharMatrix) -> None:
    if lam.n != p.dim or lam.m != p.num_facets:
        raise CharMatrixError(
            f"shape {lam.n}x{lam.m} does not match dim {p.dim}, facets {p.num_facets}"
        )


def _minor_plan(p: SimplePolytope, base) -> tuple:
    """(v, rows {k : B_k not in v}, 0-based columns v - B) for every
    vertex v of p.vertices but the base vertex B, in that order; built
    once per key in the package cache (`polytope._cached`)."""
    return _cached(("plan", p.vertices, base), lambda: tuple(
        (
            v,
            tuple(k for k, f in enumerate(base) if f not in v),
            tuple(j - 1 for j in v if j not in base),
        )
        for v in p.vertices
        if v != base
    ))


def validate(p: SimplePolytope, lam: CharMatrix):
    """(True, None) if every vertex determinant is +-1, else (False, the
    first vertex of p.vertices whose determinant is not).

    On a matrix refined at a vertex B of p, column B_k is e_k, so the
    vertex submatrix of v holds e_k for every B_k in v, and its |det| is
    the |det| of the minor on rows {k : B_k not in v} and columns v - B.
    Those minors are small, and which rows and columns they take depends
    on (p.vertices, B) alone: `_minor_plan` lists them once per key, in
    vertex order, and the package cache keeps the plans.  B itself is
    left out, since its minor is empty.  A matrix not refined at a vertex has
    its columns read once, and each vertex determinant is taken on the
    vertex's columns as rows: the transpose has the same |det|.  Either
    way every determinant is taken until the first that is not +-1.
    """
    _check_shape(p, lam)
    base = lam.refined_at
    if base is None or not p.is_vertex(base):
        cols = tuple(zip(*lam.rows))
        for v in p.vertices:
            if abs(intlin.det([cols[j - 1] for j in v])) != 1:
                return False, v
        return True, None
    rows = lam.rows
    for v, ks, js in _minor_plan(p, base):
        if abs(intlin.det([[rows[k][j] for j in js] for k in ks])) != 1:
            return False, v
    return True, None


def refine(p: SimplePolytope, lam: CharMatrix, v) -> CharMatrix:
    """Row basis change making the columns of vertex v the identity.

    The transformation is the exact inverse of the vertex submatrix, so
    the result represents the same pair with refined_at = v.  A matrix
    already refined at v is returned as it is.  This is
    `_normalizing_moves` with no unit entries to normalize.
    """
    return _normalizing_moves(p, lam, v)[1]


# ---------------------------------------------------------------------------
# equivalence moves


@dataclass(frozen=True)
class RowBasisChange:
    u: tuple  # n x n, det +-1


@dataclass(frozen=True)
class ColumnSignFlip:
    j: int


@dataclass(frozen=True)
class FacetPermutation:
    perm: tuple  # perm[f] = image of facet f, perm[0] = 0


def _moved(p: SimplePolytope, lam: CharMatrix, move) -> CharMatrix:
    """Apply an equivalence move without validating the result.

    No equivalence move changes a vertex |det|: a row basis change u
    multiplies every vertex submatrix by u, and det(u) = +-1; a column
    sign flip negates at most one column of it; an automorphism maps
    vertices to vertices, so it only permutes the columns of each
    vertex submatrix.  A valid input therefore gives a valid result, and
    callers that have validated the input do not validate again.  The
    move itself is still checked: u must be unimodular, the column must
    exist, and the permutation must be an automorphism: a bijection of
    the facets that carries every vertex to a vertex (a bijection maps
    distinct vertices to distinct facet sets, so the vertex set is then
    carried onto itself).
    """
    if isinstance(move, RowBasisChange):
        u = [list(r) for r in move.u]
        if abs(intlin.det(u)) != 1:
            raise CharMatrixError("row basis change must be unimodular")
        rows = intlin.mat_mul(u, [list(r) for r in lam.rows])
    elif isinstance(move, ColumnSignFlip):
        j = move.j
        if not 1 <= j <= lam.m:
            raise CharMatrixError(f"no column {j}")
        rows = [
            [-x if c == j - 1 else x for c, x in enumerate(r)] for r in lam.rows
        ]
    elif isinstance(move, FacetPermutation):
        perm = move.perm
        m = p.num_facets
        if len(perm) != m + 1 or sorted(perm[1:]) != list(range(1, m + 1)):
            raise CharMatrixError(f"permutation is not a bijection of facets 1..{m}")
        if not all(p.is_vertex([perm[f] for f in v]) for v in p.vertices):
            raise CharMatrixError("permutation is not an automorphism")
        rows = [[0] * lam.m for _ in range(lam.n)]
        for j in range(1, lam.m + 1):
            for i in range(lam.n):
                rows[i][perm[j] - 1] = lam.rows[i][j - 1]
    else:
        raise CharMatrixError(f"unknown move {move!r}")
    keep = lam.refined_at
    if isinstance(move, FacetPermutation) and keep is not None:
        keep = tuple(sorted(perm[f] for f in keep))
    return CharMatrix(rows, refined_at=keep if keep and _refined_vertex_ok(rows, keep) else None)


def _normalizing_moves(p: SimplePolytope, lam: CharMatrix, vertex, units=(), error=CharMatrixError):
    """Refine at the vertex, then flip columns until each listed unit
    entry is +1; returns (moves, normalized matrix) with the moves in
    the order applied: RowBasisChange(u) when u is not the identity,
    then one ColumnSignFlip per flipped column.  The one refine over Z.

    u, the weights at the vertex, is the inverse of its submatrix, taken
    once; it is unimodular by construction and is not checked again, and
    nothing is validated: no equivalence move changes a vertex |det|.  A
    matrix already refined at the vertex takes no inverse.  A listed
    entry that is not a unit raises ``error``; the callers list entries
    that are units by validity, in distinct free columns, so the flips
    commute and leave the identity block alone.  Each listed entry is
    read off u and its column before the product.  A column flip
    commutes with the row move, so the flips are applied to the rows the
    product reads, and one new matrix is built; a matrix that needs
    neither is returned as it is.
    """
    _check_shape(p, lam)
    v = tuple(sorted(vertex))
    if not p.is_vertex(v):
        raise CharMatrixError(f"{v} is not a vertex")
    u = None
    if lam.refined_at != v:
        try:
            u = intlin.inverse_unimodular(lam.submatrix(v))
        except ValueError:
            raise CharMatrixError(f"vertex {v} has non-unit determinant") from None
        if u == intlin.identity(lam.n):
            u = None
    moves = [RowBasisChange(tuple(map(tuple, u)))] if u else []
    signs = [1] * lam.m
    for r, c in units:
        col = lam.column(c)
        e = col[r - 1] if u is None else sum(map(mul, u[r - 1], col))
        if abs(e) != 1:
            raise error(f"entry ({r},{c}) = {e} should be a unit")
        if e == -1:
            signs[c - 1] = -1
            moves.append(ColumnSignFlip(c))
    if not moves and lam.refined_at == v:
        return moves, lam
    rows = lam.rows
    if -1 in signs:
        rows = [[s * x for s, x in zip(signs, r)] for r in rows]
    return moves, CharMatrix(rows if u is None else intlin.mat_mul(u, rows), refined_at=v)
