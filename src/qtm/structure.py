"""Normal forms and decompositions of characteristic pairs.

Four constructions live here:

* ``dobrinskaya_normalize``: a square integer matrix whose proper principal
  minors are all 1 is conjugate, by a simultaneous row/column permutation,
  either to a unipotent upper triangular matrix (determinant 1) or to a
  chordless cycle whose off-diagonal entries multiply to +-2 (determinant
  -1).  The permutation is found by topological sorting the off-diagonal
  support, which doubles as a check that no third shape can occur.
* ``_bott_triangularize``: over the n-cube, a string pair always admits
  equivalence moves (column sign flips, an opposite-pair-preserving facet
  permutation, row basis changes) bringing the free half of the matrix to
  unipotent upper triangular form.  The moves are recorded and replayed.
* equivariant connected sums, at a vertex and along an edge, mirroring the
  polytope-level gluings with the matching conditions on matrix columns.
  Both end in ``_glued``, which builds the glued matrix from its columns
  and validates it.
* ``decompose_prism`` and ``decompose_cube_connsum``: constructive
  decompositions of string pairs into bundle-type pieces, driven by case
  analysis on normalized matrix entries.  Every relation the case analysis
  relies on, and every reassembly, is re-verified numerically; a failure
  raises ``StructureContradiction`` instead of returning a wrong answer.
  The cube sum's seam test is ``dobrinskaya_normalize``: a string pair's
  seam block must come out "triangular", the package's one test of
  principal minors.  Both reports serialize through ``_jsonable``, field
  by field.

Each public entry point (``equivariant_connected_sum``,
``decompose_prism`` and ``decompose_cube_connsum``) validates its input
pair once and hands it to a private core that does not validate it
again.  The edge connected sum and the bundle certificate have no public
entry: the prism and cube decompositions run their cores on pairs they
have validated.  Nor has Bott's triangularization: its one caller, the
``cube-string-is-bott`` campaign, hands it search survivors, which are
valid by construction.  The cores relabel pairs with ``charmat._moved``,
which skips validation: no equivalence move changes a vertex |det|, so
a valid pair stays valid.
Every recorded normalization -- of the input, and again after the prism
mirror's or Bott's facet relabeling -- is one call of a normal form
written once: ``stringcheck._prism_normal_form`` (refined at {1,2,3},
units (2,4), (3,2k+1), (1,2k+2) made +1) or ``_cube_corner`` (refined
at {1..n}, each (i, n+i) made +1, with its seam block).  Both are one
call of ``charmat._normalizing_moves``, the one refine over Z: one
inverse, one product with the sign flips, one new matrix.  What is
checked once:

* every new pair -- each piece and each glued result -- is validated
  once, right after it is built;
* each string verdict is decided once, by ``stringcheck._refined_string``
  (a bool) on a pair already refined: the input on its normal form
  (unless the caller, such as a string search, has decided it already;
  Bott's triangularization decides it only for a pair with a witness),
  each split-off piece, and a prism remainder inside its own recursive
  call;
* each glued polytope is built once per key, not once per request: the
  far side of a cube connected sum (key: the input's vertex tuple), and
  the reassembled polytopes of ``connected_sum`` and
  ``edge_connected_sum`` (key: both inputs' vertex tuples and glued
  faces, and for the vertex sum both names).  They live in the package's
  one memo cache, ``polytope._cached``, beside the relation templates
  and minor plans, so the ``SimplePolytope`` checks run once per key and
  equal inputs share one instance.  Every request still gets its own
  facet maps.

Every ``_forced`` relation, every glued-matrix ``validate`` and every
reassembly comparison still runs on every call.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, fields
from itertools import combinations

from . import intlin
from .charmat import (
    CharMatrix,
    CharMatrixError,
    ColumnSignFlip,
    FacetPermutation,
    RowBasisChange,
    _moved,
    _normalizing_moves,
    refine,
    validate,
)
from .polytope import (
    BRUTE_FORCE_FACETS,
    PolytopeError,
    SimplePolytope,
    _cached,
    brute_force_refusal,
    connected_sum,
    cube,
    edge_connected_sum,
    prism,
    product_splits,
)
from .stringcheck import _prism_normal_form, _refined_string


class StructureError(ValueError):
    pass


class StructureContradiction(RuntimeError):
    """An invariant the decomposition theory guarantees did not hold.

    Hypothesis-satisfying inputs can only reach these raises through a bug
    or a genuine counterexample, so they must never be caught and ignored.
    """


def _checked_pair(p: SimplePolytope, lam: CharMatrix) -> None:
    ok, bad = validate(p, lam)
    if not ok:
        raise StructureError(f"matrix is singular at vertex {bad}")


def _forced(cond: bool, what: str) -> None:
    if not cond:
        raise StructureContradiction(f"forced relation failed: {what}")


# ---------------------------------------------------------------------------
# unipotent triangularization of unit-principal-minor matrices


@dataclass(frozen=True)
class DobrinskayaForm:
    """Outcome of ``dobrinskaya_normalize``.

    verdict    : "triangular" | "cycle" | "not-applicable"
    row_signs  : +-1 per row, applied first to make the diagonal +1
    order      : original 1-based indices in normalized position order
    normalized : rows after signs and the simultaneous permutation
    cycle      : successive off-diagonal entries b_1..b_k (cycle verdict)
    violation  : {"subset": facets, "value": minor} when not applicable
    """

    verdict: str
    row_signs: tuple = ()
    order: tuple = ()
    normalized: tuple = ()
    cycle: tuple = ()
    violation: dict | None = None


def _acyclic_order(b) -> list[int] | None:
    """Topological order of the digraph i -> j iff b[i][j] != 0 (i != j),
    smallest index first; None if the support has a directed cycle."""
    k = len(b)
    indeg = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and b[i][j]:
                indeg[j] += 1
    ready = [i for i in range(k) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in range(k):
            if i != j and b[i][j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
    return order if len(order) == k else None


def _hamiltonian_cycle(b) -> list[int] | None:
    """The single cycle through all indices if the off-diagonal support is
    exactly one chordless directed cycle, else None.  Starts at 0."""
    k = len(b)
    succ = []
    for i in range(k):
        outs = [j for j in range(k) if j != i and b[i][j]]
        if len(outs) != 1:
            return None
        succ.append(outs[0])
    order = [0]
    seen = {0}
    while True:
        nxt = succ[order[-1]]
        if nxt == 0:
            break
        if nxt in seen:
            return None
        order.append(nxt)
        seen.add(nxt)
    return order if len(order) == k else None


def dobrinskaya_normalize(a) -> DobrinskayaForm:
    """Classify a square integer matrix with unit proper principal minors.

    After flipping row signs to make the diagonal +1, every proper
    principal minor must equal 1 (checked exhaustively, hence the size
    cap).  Determinant 1 then forces the off-diagonal support to be
    acyclic and a topological sort exhibits the conjugating permutation;
    determinant -1 forces a single chordless cycle whose entries multiply
    to (-1)^k * 2.  Anything else is reported not-applicable with the
    violating minor.
    """
    rows = [[int(x) for x in r] for r in a]
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise StructureError("a square matrix is required")
    if k > BRUTE_FORCE_FACETS:
        raise StructureError(brute_force_refusal("principal minor check", k))
    for i in range(k):
        if abs(rows[i][i]) != 1:
            return DobrinskayaForm(
                "not-applicable",
                violation={"subset": (i + 1,), "value": rows[i][i]},
            )
    signs = tuple(1 if rows[i][i] > 0 else -1 for i in range(k))
    b = [[signs[i] * rows[i][j] for j in range(k)] for i in range(k)]
    for size in range(2, k):
        for sub in combinations(range(k), size):
            minor = intlin.det([[b[i][j] for j in sub] for i in sub])
            if minor != 1:
                return DobrinskayaForm(
                    "not-applicable",
                    row_signs=signs,
                    violation={
                        "subset": tuple(i + 1 for i in sub),
                        "value": minor,
                    },
                )
    d = intlin.det(b)
    if d == 1:
        order = _acyclic_order(b)
        if order is None:
            raise StructureContradiction(
                "unit minors with determinant 1 must have acyclic support"
            )
        normalized = tuple(tuple(b[i][j] for j in order) for i in order)
        for t in range(k):
            for u in range(t):
                _forced(normalized[t][u] == 0, "triangular normalized form")
        return DobrinskayaForm(
            "triangular",
            row_signs=signs,
            order=tuple(i + 1 for i in order),
            normalized=normalized,
        )
    if d == -1:
        order = _hamiltonian_cycle(b)
        if order is None:
            raise StructureContradiction(
                "unit minors with determinant -1 must form a chordless cycle"
            )
        cycle = tuple(b[order[t]][order[(t + 1) % k]] for t in range(k))
        prod = 1
        for x in cycle:
            prod *= x
        _forced(prod == (-1) ** k * 2, "cycle entry product (-1)^k * 2")
        normalized = tuple(tuple(b[i][j] for j in order) for i in order)
        return DobrinskayaForm(
            "cycle",
            row_signs=signs,
            order=tuple(i + 1 for i in order),
            normalized=normalized,
            cycle=cycle,
        )
    return DobrinskayaForm(
        "not-applicable",
        row_signs=signs,
        violation={"subset": tuple(range(1, k + 1)), "value": d},
    )


# ---------------------------------------------------------------------------
# cube pairs: triangularize the free half


@dataclass(frozen=True)
class BottForm:
    """Outcome of ``_bott_triangularize``.

    verdict    : "triangular" | "witness"
    normalized : refined matrix with unipotent upper triangular free half
    moves      : equivalence moves replaying the input to ``normalized``
    witness    : why triangularization is impossible (non-string inputs)
    """

    verdict: str
    normalized: CharMatrix | None
    moves: tuple
    witness: dict | None


def _bott_triangularize(p: SimplePolytope, n: int, lam: CharMatrix) -> BottForm:
    """Bring a pair already valid over p = cube(n) to the form
    [I | unipotent upper triangular].

    String pairs always succeed (anything else raises
    ``StructureContradiction``).  Non-string pairs may instead get a
    witness: a pair of opposite-facet entries multiplying to 2, a failing
    principal minor, or the determinant -1 cycle.
    """
    moves, cur, a = _cube_corner(p, n, lam)
    form = dobrinskaya_normalize(a)
    if form.verdict == "cycle":
        witness = {"kind": "cycle", "order": form.order, "entries": form.cycle}
    elif form.verdict == "not-applicable":
        sub = form.violation["subset"]
        if len(sub) == 2 and form.violation["value"] == -1:
            i, j = sub
            prod = a[i - 1][j - 1] * a[j - 1][i - 1]
            _forced(prod == 2, "2x2 minor -1 means the entry product is 2")
            witness = {
                "kind": "unit-product",
                "facets": (n + i, n + j),
                "product": prod,
                "minor": form.violation,
            }
        else:
            witness = {"kind": "principal-minor", "minor": form.violation}
    else:
        witness = None
    if witness is not None:
        # decided here alone: a triangular pair needs no verdict
        if _refined_string(p, cur):
            raise StructureContradiction(
                f"string cube pair failed to triangularize: {witness}"
            )
        return BottForm("witness", None, tuple(moves), witness)
    if form.order != tuple(range(1, n + 1)):
        perm = [0] * (2 * n + 1)
        for t, i in enumerate(form.order, start=1):
            perm[i] = t
            perm[n + i] = n + t
        mv = FacetPermutation(tuple(perm))
        # the relabeled diagonal entries are the old ones, all +1
        extra, cur, a = _cube_corner(p, n, _moved(p, cur, mv))
        moves += [mv] + extra
    _forced(a == form.normalized, "replayed moves match the normalized form")
    return BottForm("triangular", cur, tuple(moves), None)


def _cube_corner(p: SimplePolytope, n: int, lam: CharMatrix):
    """(moves, normalized matrix, seam block) of a pair already valid
    over p, whose facets i and n+i face each other at the corner
    {1..n}: refined there, each diagonal entry (i, n+i) made +1, and the
    block of columns n+1..2n read off as row tuples."""
    diag = tuple((i, n + i) for i in range(1, n + 1))
    moves, cur = _normalizing_moves(p, lam, range(1, n + 1), diag, StructureContradiction)
    return moves, cur, tuple(r[n:2 * n] for r in cur.rows)


# ---------------------------------------------------------------------------
# equivariant connected sums


def equivariant_connected_sum(p_l, lam_l, w_l, p_r, lam_r, w_r):
    """Glue two pairs at the fixed points over vertices w_l and w_r.

    Both matrices are refined at their glue vertex, and the k-th facet of
    sorted(w_l) is merged with the k-th facet of sorted(w_r).  The result
    has the left free columns first, unit columns on the merged facets,
    then the right free columns.  It is generally not refined: the merged
    facets no longer share a vertex.  Returns (polytope, matrix).
    """
    _checked_pair(p_l, lam_l)
    _checked_pair(p_r, lam_r)
    return _equivariant_connected_sum(p_l, lam_l, w_l, p_r, lam_r, w_r)


def _equivariant_connected_sum(p_l, lam_l, w_l, p_r, lam_r, w_r):
    """equivariant_connected_sum for two pairs already valid; the glued
    matrix is still validated."""
    if p_l.dim != p_r.dim:
        raise StructureError("connected sum needs equal dimensions")
    rl = refine(p_l, lam_l, w_l)
    rr = refine(p_r, lam_r, w_r)
    poly, p_map, q_map = connected_sum(p_l, w_l, p_r, w_r)
    cols = {p_map[f]: col for f, col in enumerate(zip(*rl.rows), start=1)}
    for g, col in enumerate(zip(*rr.rows), start=1):
        prev = cols.get(q_map[g])
        if prev is not None and prev != col:
            raise StructureContradiction("merged facet columns disagree")
        cols[q_map[g]] = col
    return _glued(poly, cols)


def _equivariant_edge_connected_sum(p1, lam1, edge1, ends1, p2, lam2, edge2, ends2):
    """Glue two pairs, both already valid, along edges.

    The n-1 edge facets and the 2 endpoint facets are matched in the
    order given, and each matched pair of matrix columns must agree
    exactly (no refinement is applied; the caller picks the row bases).
    Returns (polytope, matrix) in the facet order of the polytope-level
    edge connected sum: merged facets first, then each side's remainder.
    The glued matrix is validated.
    """
    if p1.dim != p2.dim:
        raise StructureError("edge connected sum needs equal dimensions")
    matched1 = tuple(edge1) + tuple(ends1)
    matched2 = tuple(edge2) + tuple(ends2)
    if len(matched1) != p1.dim + 1 or len(matched2) != p1.dim + 1:
        raise StructureError("need n-1 edge facets plus 2 endpoint facets per side")
    for t, (f, g) in enumerate(zip(matched1, matched2), start=1):
        if lam1.column(f) != lam2.column(g):
            raise StructureError(
                f"matched columns differ at position {t}: column {f} is "
                f"{lam1.column(f)} but column {g} is {lam2.column(g)}"
            )
    poly, p_map, q_map = edge_connected_sum(p1, edge1, ends1, p2, edge2, ends2)
    cols = {p_map[f]: lam1.column(f) for f in range(1, p1.num_facets + 1)}
    for g in range(1, p2.num_facets + 1):
        if q_map[g] not in cols:
            cols[q_map[g]] = lam2.column(g)
    return _glued(poly, cols)


def _glued(poly, cols):
    """The glued pair over poly whose column j is cols[j], validated once."""
    lam = CharMatrix(zip(*(cols[j] for j in range(1, poly.num_facets + 1))))
    ok, bad = validate(poly, lam)
    if not ok:
        raise StructureContradiction(f"glued matrix is singular at vertex {bad}")
    return poly, lam


# ---------------------------------------------------------------------------
# bundle-type certificates from zero blocks


def _split_blocks(lam: CharMatrix, a, b) -> dict:
    aset, bset = set(a), set(b)
    v = lam.refined_at
    vset = set(v)
    rows_a = [i for i, f in enumerate(v) if f in aset]
    rows_b = [i for i, f in enumerate(v) if f in bset]
    free_a = [f for f in a if f not in vset]
    free_b = [f for f in b if f not in vset]
    block_ab = [[lam.rows[i][f - 1] for f in free_b] for i in rows_a]
    block_ba = [[lam.rows[i][f - 1] for f in free_a] for i in rows_b]
    return {
        "split": (tuple(a), tuple(b)),
        "block_ab": block_ab,
        "block_ba": block_ba,
        "ab_zero": all(x == 0 for r in block_ab for x in r),
        "ba_zero": all(x == 0 for r in block_ba for x in r),
    }


def _bundle_certificate(p: SimplePolytope, lam: CharMatrix) -> dict | None:
    """First (vertex, product split) whose refinement of the valid pair
    has a zero block.

    Searching every vertex covers every refined representative up to row
    and column sign changes, which do not affect zero blocks, so a None
    answer means no refinement of the pair shows a literal zero block.
    """
    splits = product_splits(p)
    if not splits:
        return None
    for v in p.vertices:
        rl = refine(p, lam, v)
        for a, b in splits:
            info = _split_blocks(rl, a, b)
            if info["ab_zero"] or info["ba_zero"]:
                info["vertex"] = v
                return info
    return None


# ---------------------------------------------------------------------------
# decomposition reports


@dataclass(frozen=True)
class Piece:
    """One summand of a decomposition, with its verified properties."""

    polytope: SimplePolytope
    matrix: CharMatrix
    bundle_type: bool
    string: bool
    certificate: dict | None = None

    def to_dict(self) -> dict:
        return _jsonable(self)


@dataclass
class DecompositionReport:
    """Result of a decomposition procedure.

    verdict           : "decomposed" | "irreducible" | "not-applicable"
    pieces            : the summands, outermost cut first
    reassembly        : one step per cut; step t glues pieces[t] (left) to
                        the reassembly of pieces[t+1:] (right), and records
                        the matched faces, the right-hand matrix as glued,
                        and the relabeling back to the input facets
    normalized_matrix : the matrix the procedure actually worked on
    moves             : equivalence moves from the input to normalized_matrix
    detail            : branch taken, seam determinant, and similar facts
    """

    verdict: str
    pieces: tuple
    reassembly: tuple
    normalized_matrix: CharMatrix | None
    moves: tuple
    detail: dict

    def to_dict(self) -> dict:
        return _jsonable(self)


def _jsonable(obj):
    if isinstance(obj, (Piece, DecompositionReport)):
        # the field order is the key order of the JSON reply
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, RowBasisChange):
        return {"move": "row-basis-change", "u": [list(r) for r in obj.u]}
    if isinstance(obj, ColumnSignFlip):
        return {"move": "column-sign-flip", "facet": obj.j}
    if isinstance(obj, FacetPermutation):
        return {"move": "facet-permutation", "perm": list(obj.perm)}
    if isinstance(obj, CharMatrix):
        return obj.to_dict()
    if isinstance(obj, SimplePolytope):
        return obj.to_dict()
    return obj


# ---------------------------------------------------------------------------
# prisms over even polygons


def _prism_mirror(p, k, nf):
    """Reflect the prism across the plane through side facets 2|3, fixing
    top and bottom, then take the normal form again: the inverse of the
    reflected corner is the swap of rows 2 and 3.  The reflection
    exchanges the roles of the two side corners 4 and 2k+1 and of rows 2
    and 3 while keeping every unit entry at +1, so no sign flip is
    recorded."""
    m = 2 * k + 2
    perm = [0] * (m + 1)
    perm[1] = 1
    perm[m] = m
    for x in range(2, m):
        perm[x] = (3 - x) % (2 * k) + 2
    mv = FacetPermutation(tuple(perm))
    moves, cur = _prism_normal_form(p, k, _moved(p, nf, mv), StructureContradiction)
    swap = RowBasisChange(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    _forced(moves == [swap], "reflection keeps the unit normalization")
    return [mv] + moves, cur


def decompose_prism(k: int, lam: CharMatrix) -> DecompositionReport:
    """Split a string pair over prism(2k) into bundle-type string pieces.

    The matrix is normalized (refined at the top corner {1,2,3}, units at
    (2,4), (3,2k+1), (1,2k+2) made +1) and the corner entries of the free
    columns drive a case analysis: either a bundle certificate exists
    outright, or a prism(4) piece splits off along the edge between side
    facets 4 and 2k+1 and the prism(2k-2) remainder recurses.  Each split
    is re-verified by reassembling through the edge connected sum and
    comparing with the normalized matrix entry for entry.  Every k >= 2
    is accepted: the bundle certificates read the product splits from
    minimal nonfaces, which no facet count bounds.
    """
    if k < 2:
        raise StructureError("prism decomposition needs k >= 2")
    if lam.n != 3 or lam.m != 2 * k + 2:
        # before prism(2k) is built: each of its vertices keeps a
        # (2k+2)-bit mask, so a large k alone costs memory like k^2
        raise CharMatrixError(
            f"shape {lam.n}x{lam.m} does not match dim 3, facets {2 * k + 2}"
        )
    p = prism(2 * k)
    _checked_pair(p, lam)
    return _decompose_prism(p, k, lam)


def _decompose_prism(
    p: SimplePolytope, k: int, lam: CharMatrix, string: bool | None = None,
    remainder: bool = False,
) -> DecompositionReport:
    """decompose_prism for a pair already valid over p = prism(2k).

    string is the pair's string verdict when the caller has decided it,
    as a string search has for its survivors; None decides it here, on
    the normal form.  A remainder that is not string is a contradiction
    rather than a bad input, so remainder=True raises the forced
    relation instead.
    """
    m = 2 * k + 2
    moves, nf = _prism_normal_form(p, k, lam, StructureContradiction)
    if string is None:
        string = _refined_string(p, nf)
        if remainder:
            _forced(string, "remainder piece is string")
    if not string:
        raise StructureError("decompose_prism needs a string pair")
    e = nf.entry
    _forced(e(1, 4) * e(2, m) == 0, "la(1,4) la(2,2k+2) = 0")
    _forced(e(1, m - 1) * e(3, m) == 0, "la(1,2k+1) la(3,2k+2) = 0")
    mirrored = False
    if e(2, m) != 0 and e(3, m) == 0:
        extra, nf = _prism_mirror(p, k, nf)
        moves += extra
        e = nf.entry
        mirrored = True
    if e(2, m) == 0 and e(3, m) == 0:
        branch = "clear-corner-column"
    elif e(2, m) == 0:
        # one busy corner, arranged to sit in row 3
        _forced(e(1, m - 1) == 0, "la(1,2k+1) = 0")
        _forced(e(1, 4) * e(3, m) == 2 * e(3, 4), "la(1,4) la(3,2k+2) = 2 la(3,4)")
        _forced(e(2, m - 1) == 0, "la(2,2k+1) = 0")
        branch = "peel"
    else:
        # both corners busy
        _forced(e(1, 4) == 0, "la(1,4) = 0")
        _forced(e(1, m - 1) == 0, "la(1,2k+1) = 0")
        _forced(
            e(2, m) * e(3, 4) ** 2 == 2 * e(3, 4) * e(3, m),
            "la(2,2k+2) la(3,4)^2 = 2 la(3,4) la(3,2k+2)",
        )
        _forced(
            e(3, m) * e(2, m - 1) ** 2 == 2 * e(2, m - 1) * e(2, m),
            "la(3,2k+2) la(2,2k+1)^2 = 2 la(2,2k+1) la(2,2k+2)",
        )
        if e(3, 4) * e(2, m - 1) != 0:
            _forced(e(3, 4) * e(2, m - 1) == 4, "la(3,4) la(2,2k+1) = 4")
            _forced(
                all(e(1, j) == 0 for j in range(4, m)),
                "row 1 clear of side entries in the rigid case",
            )
            branch = "rigid-row"
        else:
            if e(2, m - 1) != 0:
                extra, nf = _prism_mirror(p, k, nf)
                moves += extra
                e = nf.entry
                mirrored = True
            _forced(e(2, m - 1) == 0, "la(2,2k+1) = 0 after reflection")
            branch = "peel"
    detail = {"k": k, "branch": branch, "mirrored": mirrored}
    if branch != "peel" or k == 2:
        cert = _bundle_certificate(p, nf)
        if cert is None:
            raise StructureContradiction(
                f"terminal prism case {branch!r} lacks a bundle certificate"
            )
        piece = Piece(p, nf, True, True, cert)
        return DecompositionReport(
            "irreducible", (piece,), (), nf, tuple(moves), detail
        )

    small_cols = (1, 2, 3, 4, m - 1, m)
    p_small = prism(4)
    lam_small = CharMatrix(
        [[e(r, c) for c in small_cols] for r in (1, 2, 3)], refined_at=(1, 2, 3)
    )
    _checked_pair(p_small, lam_small)
    rest_cols = (1,) + tuple(range(4, m + 1))
    p_rest = prism(2 * k - 2)
    lam_rest = CharMatrix([[e(r, c) for c in rest_cols] for r in (1, 2, 3)])
    _checked_pair(p_rest, lam_rest)
    _forced(
        _refined_string(p_small, lam_small),
        "split-off prism(4) piece is string",
    )
    cert = _bundle_certificate(p_small, lam_small)
    if cert is None:
        raise StructureContradiction("split-off piece lacks a bundle certificate")
    piece1 = Piece(p_small, lam_small, True, True, cert)
    inner = _decompose_prism(p_rest, k - 1, lam_rest, remainder=True)

    re_poly, re_lam = _equivariant_edge_connected_sum(
        p_small, lam_small, (4, 5), (1, 6),
        p_rest, lam_rest, (2, 2 * k - 1), (1, 2 * k),
    )
    new_to_old = {1: 4, 2: m - 1, 3: 1, 4: m, 5: 2, 6: 3}
    for t in range(1, 2 * k - 3):
        new_to_old[6 + t] = 4 + t
    back_vs = {tuple(sorted(new_to_old[f] for f in v)) for v in re_poly.vertices}
    _forced(back_vs == set(p.vertices), "reassembled polytope matches the prism")
    back_rows = [[0] * m for _ in range(3)]
    for newf, oldf in new_to_old.items():
        col = re_lam.column(newf)
        for i in range(3):
            back_rows[i][oldf - 1] = col[i]
    _forced(
        tuple(tuple(r) for r in back_rows) == nf.rows,
        "reassembled matrix matches the normalized input",
    )
    step = {
        "operation": "edge-connected-sum",
        "left_edge": (4, 5),
        "left_ends": (1, 6),
        "right_edge": (2, 2 * k - 1),
        "right_ends": (1, 2 * k),
        "right_matrix": lam_rest,
        "right_moves": inner.moves,
        "relabel": new_to_old,
        "verified": True,
    }
    detail["inner"] = inner.detail
    return DecompositionReport(
        "decomposed",
        (piece1,) + inner.pieces,
        (step,) + inner.reassembly,
        nf,
        tuple(moves),
        detail,
    )


# ---------------------------------------------------------------------------
# connected sums of a cube with another polytope


def decompose_cube_connsum(p: SimplePolytope, lam: CharMatrix) -> DecompositionReport:
    """Split a pair over cube(n) # P back into its two summands.

    The expected labeling is the one the polytope-level connected sum
    produces when the far corner {n+1..2n} of the cube is glued to the
    initial vertex of P: facets 1..n are the cube's free facets, n+1..2n
    the seam, the rest P's free facets.  For a string pair the seam block
    (columns n+1..2n refined at {1..n}, signs normalized) has all proper
    principal minors 1 and determinant 1; its inverse twists the two
    summand matrices, both of which come out string, and gluing them back
    reproduces the input exactly after the recorded row basis change.
    Non-string pairs are reported not-applicable with the seam determinant
    (the obstruction: the seam columns must form a unimodular basis for
    the P summand to exist).  Both summands get a bundle certificate
    search at every n: the cube summand must have a certificate, and the
    P summand's bundle_type says whether it has one.
    """
    n = p.dim
    m_total = p.num_facets
    if m_total < 2 * n + 1:
        raise StructureError("too few facets for a cube connected sum")
    _checked_pair(p, lam)
    return _decompose_cube_connsum(p, lam)


def _decompose_cube_connsum(
    p: SimplePolytope, lam: CharMatrix, string: bool | None = None
) -> DecompositionReport:
    """decompose_cube_connsum for a pair already valid over p.

    string is the pair's string verdict when the caller has decided it,
    as a string search has for its survivors; None decides it here, on
    the normalized matrix.
    """
    n = p.dim
    m_total = p.num_facets
    seam = tuple(range(n + 1, 2 * n + 1))
    if seam in p.vertices:
        raise StructureError("the seam facets still form a vertex; not a sum")
    cube_side = [v for v in p.vertices if v[-1] <= 2 * n]
    rest_side = [v for v in p.vertices if v[0] > n]
    if len(cube_side) + len(rest_side) != len(p.vertices):
        raise StructureError("a vertex mixes cube-free and far-side facets")
    pairs = [(i, n + i) for i in range(1, n + 1)]
    cube_vs = {tuple(sorted(c)) for c in itertools.product(*pairs)}
    if set(cube_side) != cube_vs - {seam}:
        raise StructureError("cube-side vertices are not a cube corner complement")
    try:
        # the far side depends on p's vertices alone: built once per key
        p_r = _cached(("cube-far-side", p.vertices), lambda: SimplePolytope(
            n,
            m_total - n,
            sorted(tuple(f - n for f in v) for v in rest_side)
            + [tuple(range(1, n + 1))],
        ))
    except PolytopeError as exc:
        raise StructureError(f"far side is not a simple polytope: {exc}") from None

    initial = tuple(range(1, n + 1))
    moves, cur, a = _cube_corner(p, n, lam)
    detail = {"seam_det": intlin.det(a)}
    if string is None:
        string = _refined_string(p, cur)
    if not string:
        detail["reason"] = "input is not string"
        return DecompositionReport(
            "not-applicable", (), (), cur, tuple(moves), detail
        )
    _forced(dobrinskaya_normalize(a).verdict == "triangular", "string seam minors")

    a_inv = intlin.inverse_unimodular(a)
    cube_p = cube(n)
    lam_cube = CharMatrix(
        [
            [1 if i == j else 0 for j in range(n)] + list(a_inv[i])
            for i in range(n)
        ],
        refined_at=initial,
    )
    _checked_pair(cube_p, lam_cube)
    rows_r = [
        [1 if i == j else 0 for j in range(n)]
        + [0] * (m_total - 2 * n)
        for i in range(n)
    ]
    for j in range(1, m_total - 2 * n + 1):
        col = intlin.mat_vec(a_inv, cur.column(2 * n + j))
        for i in range(n):
            rows_r[i][n + j - 1] = col[i]
    lam_r = CharMatrix(rows_r, refined_at=initial)
    _checked_pair(p_r, lam_r)
    _forced(_refined_string(cube_p, lam_cube), "cube summand is string")
    _forced(_refined_string(p_r, lam_r), "far summand is string")
    cert_cube = _bundle_certificate(cube_p, lam_cube)
    if cert_cube is None:
        raise StructureContradiction("string cube summand lacks a bundle certificate")
    cert_r = _bundle_certificate(p_r, lam_r)
    piece_cube = Piece(cube_p, lam_cube, True, True, cert_cube)
    piece_r = Piece(p_r, lam_r, cert_r is not None, True, cert_r)

    re_poly, re_lam = _equivariant_connected_sum(
        cube_p, lam_cube, initial, p_r, lam_r, initial
    )
    _forced(re_poly.vertices == p.vertices, "reassembled polytope matches the input")
    expected = intlin.mat_mul(a_inv, [list(r) for r in cur.rows])
    _forced(
        re_lam.rows == tuple(tuple(r) for r in expected),
        "reassembled matrix matches after the seam basis change",
    )
    step = {
        "operation": "connected-sum",
        "left_vertex": initial,
        "right_vertex": initial,
        "relabel": None,
        "row_basis_change": tuple(tuple(r) for r in a_inv),
        "verified": True,
    }
    return DecompositionReport(
        "decomposed",
        (piece_cube, piece_r),
        (step,),
        cur,
        tuple(moves),
        detail,
    )
