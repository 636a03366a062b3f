"""Characteristic matrices paired with simple polytopes.

A characteristic matrix for an n-polytope with m facets is an n x m
integer matrix whose column j is the vector attached to facet j; the
pair is valid when every vertex's column submatrix has determinant +-1.
Entries are Python ints, so nothing can overflow.

The equivalence moves are integral row basis changes, column sign
flips, and facet relabelings by automorphisms of the polytope.  A pair
is *refined* at a vertex v when the columns of v form the identity in
sorted-v order; `refine` produces that form for any vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .polytope import SimplePolytope


class CharMatrixError(ValueError):
    pass


def _refined_vertex_ok(rows, v) -> bool:
    n = len(rows)
    for k, j in enumerate(sorted(v)):
        for i in range(n):
            if rows[i][j - 1] != (1 if i == k else 0):
                return False
    return True


class CharMatrix:
    """Immutable n x m integer matrix with 1-based column (facet) indexing."""

    __slots__ = ("n", "m", "rows", "refined_at")

    def __init__(self, rows, refined_at=None):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if not rows or not rows[0]:
            raise CharMatrixError("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise CharMatrixError("ragged rows")
        self.rows = rows
        self.n = len(rows)
        self.m = len(rows[0])
        if refined_at is not None:
            refined_at = tuple(sorted(refined_at))
            if len(refined_at) != self.n or not _refined_vertex_ok(rows, refined_at):
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

    def to_dict(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, d: dict) -> "CharMatrix":
        return cls(d["rows"])


# ---------------------------------------------------------------------------
# validation and refinement


def validate(p: SimplePolytope, lam: CharMatrix):
    """(True, None) if every vertex determinant is +-1, else (False, vertex)."""
    if lam.n != p.dim or lam.m != p.num_facets:
        raise CharMatrixError(
            f"shape {lam.n}x{lam.m} does not match dim {p.dim}, facets {p.num_facets}"
        )
    for v in p.vertices:
        if abs(intlin.det(lam.submatrix(v))) != 1:
            return False, v
    return True, None


def refine(p: SimplePolytope, lam: CharMatrix, v) -> CharMatrix:
    """Row basis change making the columns of vertex v the identity.

    The transformation is the exact inverse of the vertex submatrix, so
    the result represents the same pair with refined_at = v.  A matrix
    already refined at v is returned as it is.
    """
    v = tuple(sorted(v))
    if not p.is_vertex(v):
        raise CharMatrixError(f"{v} is not a vertex")
    if lam.refined_at == v:
        return lam
    try:
        u = intlin.inverse_unimodular(lam.submatrix(v))
    except ValueError:
        raise CharMatrixError(f"vertex {v} has non-unit determinant") from None
    return CharMatrix(intlin.mat_mul(u, [list(r) for r in lam.rows]), refined_at=v)


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


def transform(p: SimplePolytope, lam: CharMatrix, move) -> CharMatrix:
    """Apply an equivalence move; the result is validated."""
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
        if p.apply_facet_permutation(perm).vertices != p.vertices:
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
    out = CharMatrix(rows, refined_at=keep if keep and _refined_vertex_ok(rows, keep) else None)
    ok, bad = validate(p, out)
    if not ok:
        raise CharMatrixError(f"move breaks validity at vertex {bad}")
    return out


# ---------------------------------------------------------------------------
# canonical keys and weights


def _sign_normalized(rows, skip_cols) -> tuple:
    """Flip each column (except skip_cols) so its first nonzero entry is > 0."""
    n, m = len(rows), len(rows[0])
    out = [list(r) for r in rows]
    for c in range(m):
        if c in skip_cols:
            continue
        for i in range(n):
            if out[i][c]:
                if out[i][c] < 0:
                    for k in range(n):
                        out[k][c] = -out[k][c]
                break
    return tuple(tuple(r) for r in out)


def canonical_key(p: SimplePolytope, lam: CharMatrix, group: str = "signs") -> bytes:
    """Deduplication key, equal exactly on orbits of the chosen group.

    Both variants first re-refine at the polytope's first vertex, which
    quotients out the row basis freedom.  A sign flip of an identity
    column reappears as a row flip after refinement, so the key
    minimizes over all row sign patterns with the remaining columns
    normalized to first-nonzero-positive.  `signs+automorphisms`
    additionally minimizes over facet relabelings.
    """
    if group not in ("signs", "signs+automorphisms"):
        raise CharMatrixError(f"unknown group {group!r}")
    v0 = p.vertices[0]
    skip = {j - 1 for j in v0}
    perms = [None]
    if group == "signs+automorphisms":
        perms = p.automorphisms()
    best = None
    for perm in perms:
        if perm is None:
            cand = lam
        else:
            rows = [[0] * lam.m for _ in range(lam.n)]
            for j in range(1, lam.m + 1):
                for i in range(lam.n):
                    rows[i][perm[j] - 1] = lam.rows[i][j - 1]
            cand = CharMatrix(rows)
        base = refine(p, cand, v0).rows
        for pattern in range(1 << lam.n):
            # sign-flipping identity column k and re-refining negates row
            # k at every non-identity column; that is the residual action
            flipped = [
                [
                    -x if (pattern >> i & 1) and c not in skip else x
                    for c, x in enumerate(base[i])
                ]
                for i in range(lam.n)
            ]
            key = _sign_normalized(flipped, skip)
            if best is None or key < best:
                best = key
    return repr((p.dim, p.num_facets, best)).encode()


def weights_at_vertex(p: SimplePolytope, lam: CharMatrix, v) -> list[list[int]]:
    """The n weight vectors at a fixed point: rows of the inverse of the
    vertex submatrix, ordered by sorted v.  Their pairing with the
    columns of v is the identity."""
    v = tuple(sorted(v))
    if not p.is_vertex(v):
        raise CharMatrixError(f"{v} is not a vertex")
    try:
        inv = intlin.inverse_unimodular(lam.submatrix(v))
    except ValueError:
        raise CharMatrixError(f"vertex {v} has non-unit determinant") from None
    return inv
