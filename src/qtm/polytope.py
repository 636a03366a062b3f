"""Simple polytopes encoded by their facet-subset complexes.

A combinatorial simple n-polytope with m facets is stored as the set of
its vertices, each vertex being the n-subset of facet indices (1..m)
whose facets meet there.  A subset of facet indices is a *face* when it
is contained in some vertex.  Construction validates the simple-polytope
invariants: every vertex has exactly n distinct facets, every facet occurs,
every (n-1)-subset of a vertex lies in exactly two vertices (the closed
pseudomanifold condition), and those shared ridges connect all the
vertices, so malformed complexes fail fast.

Facet indices are 1-based everywhere.  Internally each vertex is also
kept as a bitmask (bit f-1 for facet f) for fast face queries.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from . import intlin


class PolytopeError(ValueError):
    pass


# size limit of the brute-force searches: isomorphisms and principal
# minors; every polytope this package constructs is within it
BRUTE_FORCE_FACETS = 16


def brute_force_refusal(search: str, size: int) -> str:
    """The message of every brute-force guard refusing `size`."""
    return f"{search} is brute force, refusing size {size} > {BRUTE_FORCE_FACETS}"


def _mask(facets) -> int:
    m = 0
    for f in facets:
        m |= 1 << (f - 1)
    return m


# ---------------------------------------------------------------------------
# the package's memo cache
#
# One cache serves every module.  It holds the family polytopes (key
# ("cube", n) and so on, below), each polytope's derived data, keyed by
# kind and vertex tuple (("faces", vertices), "nonface-pairs",
# "h-vector", "automorphisms", "splits"), the relation templates of
# `cohomology` (("template", vertices, base)), the minor plans of
# `charmat` (("plan", vertices, base)) and the gluings below and in
# `structure`.  The vertex tuple fixes a polytope's dimension and facet
# count, and no derived datum reads its name, so equal polytopes share
# one entry whichever instance a caller holds.  A value depends on its
# key alone and is never mutated, so every caller may share it.  At most
# _CACHE_SIZE keys are held; the cache is cleared when it fills up.
# Python does not cache a tuple's hash, so each lookup hashes the whole
# vertex tuple: a loop fetches what it needs once.

_CACHE: dict = {}
_CACHE_SIZE = 1024


def _cached(key, build):
    """build(), run once per key while the key stays cached."""
    out = _CACHE.get(key)
    if out is None:
        out = build()
        if len(_CACHE) >= _CACHE_SIZE:
            _CACHE.clear()
        _CACHE[key] = out
    return out


class SimplePolytope:
    """Immutable combinatorial simple polytope.

    dim       : n
    num_facets: m
    vertices  : sorted tuple of sorted n-tuples of facet indices
    name      : optional human-readable tag set by the constructors

    An instance holds only these and its vertex bitmasks.  The data
    derived from it (faces, nonface pairs, h-vector, automorphisms,
    product splits) are built on first use and kept in the package cache
    under its vertex tuple, so equal instances share them.
    """

    __slots__ = ("dim", "num_facets", "vertices", "name", "_vmasks", "_vmask_set")

    def __init__(self, dim: int, num_facets: int, vertices, name: str = ""):
        n, m = dim, num_facets
        if n < 1 or m < n + 1:
            raise PolytopeError(f"impossible dimensions: dim={n}, facets={m}")
        vs = sorted(map(tuple, map(sorted, vertices)))
        if len(set(vs)) != len(vs):
            raise PolytopeError("duplicate vertices")
        # checked first, so no later step costs more than the vertex list
        if m > n * len(vs):
            raise PolytopeError(f"{m} facets cannot all occur on {len(vs)} vertices")
        for v in vs:
            if len(v) != n:
                raise PolytopeError(f"vertex {v} does not have {n} facets")
            if v[0] < 1 or v[-1] > m:
                raise PolytopeError(f"vertex {v} uses facet outside 1..{m}")
        masks = tuple(map(_mask, vs))
        if sum(map(int.bit_count, masks)) != n * len(vs):
            v = next(v for v, vm in zip(vs, masks) if vm.bit_count() != n)
            raise PolytopeError(f"vertex {v} repeats a facet")
        used = reduce(or_, masks)
        if used != (1 << m) - 1:
            unused = [f for f in range(1, m + 1) if not used >> (f - 1) & 1]
            more = f" and {len(unused) - 10} more" if len(unused) > 10 else ""
            raise PolytopeError(f"facets {unused[:10]}{more} unused")
        # every ridge (an (n-1)-subset of a vertex) must be shared by exactly
        # two vertices; this is what makes the dual complex a closed sphere-like
        # pseudomanifold and rules out boundaries and branching.  The two
        # vertices of a ridge are the ends of an edge, and the edge graph
        # of a polytope is connected.  A ridge is keyed by its bitmask, the
        # vertex's with one facet cleared; dropping the facets last to
        # first meets the ridges in the order of combinations(v, n - 1).
        ridge_owners: dict[int, list[int]] = {}
        for i, v in enumerate(vs):
            vm = masks[i]
            for f in reversed(v):
                ridge_owners.setdefault(vm ^ (1 << (f - 1)), []).append(i)
        parent = list(range(len(vs)))
        for r, owners in ridge_owners.items():
            if len(owners) != 2:
                ridge = tuple(f for f in vs[owners[0]] if r >> (f - 1) & 1)
                raise PolytopeError(f"ridge {ridge} lies in {len(owners)} vertices, expected 2")
            # union-find with path halving, inline: it runs once per ridge
            a, b = owners
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[a] = b
        parts = sum(parent[i] == i for i in range(len(vs)))
        if parts != 1:
            raise PolytopeError(f"the complex falls into {parts} disconnected parts")
        self.dim = n
        self.num_facets = m
        self.vertices = tuple(vs)
        self.name = name
        self._vmasks = masks
        self._vmask_set = frozenset(masks)

    # -- basic queries ------------------------------------------------------

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<SimplePolytope{tag} dim={self.dim} facets={self.num_facets} vertices={len(self.vertices)}>"

    def __eq__(self, other):
        return (isinstance(other, SimplePolytope)
                and self.dim == other.dim
                and self.num_facets == other.num_facets
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dim, self.num_facets, self.vertices))

    def is_vertex(self, facets) -> bool:
        return _mask(facets) in self._vmask_set

    def _face_set(self) -> frozenset[int]:
        """The bitmask of every face: every subset of every vertex.

        It answers every face query of the polytope; fetch it once for
        many queries (see the cache above).
        """
        return _cached(("faces", self.vertices), self._build_face_set)

    def _build_face_set(self) -> frozenset[int]:
        faces = {0}
        for vm in self._vmasks:
            sub = vm
            while sub:
                faces.add(sub)
                sub = (sub - 1) & vm
        return frozenset(faces)

    def is_face(self, facets) -> bool:
        """Is this set of facet indices a face (contained in some vertex)?"""
        return _mask(facets) in self._face_set()

    @property
    def facet_degrees(self) -> tuple[int, ...]:
        """Number of vertices on each facet, indexed by facet-1."""
        deg = [0] * self.num_facets
        for v in self.vertices:
            for f in v:
                deg[f - 1] += 1
        return tuple(deg)

    def nonface_pairs(self) -> list[tuple[int, int]]:
        """Sorted list of facet pairs {a, b} that are not faces; a fresh
        list per call."""
        return list(_cached(("nonface-pairs", self.vertices), self._build_nonface_pairs))

    def _build_nonface_pairs(self) -> tuple[tuple[int, int], ...]:
        faces = self._face_set()
        return tuple(
            (a, b)
            for a, b in combinations(range(1, self.num_facets + 1), 2)
            if (1 << (a - 1) | 1 << (b - 1)) not in faces
        )

    # -- face numbers -------------------------------------------------------

    def face_counts(self) -> tuple[int, ...]:
        """c_j = number of j-subsets of facets that are faces, j = 0..n."""
        counts = [0] * (self.dim + 1)
        for face in self._face_set():
            counts[face.bit_count()] += 1
        return tuple(counts)

    def h_vector(self) -> tuple[int, ...]:
        """(h_0, ..., h_n) from expanding sum_j c_j (s-1)^(n-j).

        Cached once known to be palindromic; otherwise every call raises.
        """
        return _cached(("h-vector", self.vertices), self._build_h_vector)

    def _build_h_vector(self) -> tuple[int, ...]:
        n = self.dim
        c = self.face_counts()
        poly = [0] * (n + 1)  # coefficients of s^0..s^n
        for j in range(n + 1):
            # add c_j * (s-1)^(n-j)
            d = n - j
            coef = 1
            # binomial expansion (s-1)^d = sum_k C(d,k) s^k (-1)^(d-k)
            for k in range(d + 1):
                poly[k] += c[j] * coef * (-1 if (d - k) % 2 else 1)
                coef = coef * (d - k) // (k + 1)
        h = tuple(poly[n - k] for k in range(n + 1))
        if any(x != h[len(h) - 1 - i] for i, x in enumerate(h)):
            raise PolytopeError(f"h-vector {h} is not palindromic")
        return h

    # -- automorphisms and isomorphisms --------------------------------------

    def _adjacency(self) -> list[int]:
        """adj[f] = bitmask of facets sharing a face with facet f (1-based index)."""
        adj = [0] * (self.num_facets + 1)
        for v in self.vertices:
            for a in v:
                for b in v:
                    if a != b:
                        adj[a] |= 1 << (b - 1)
        return adj

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All facet permutations preserving the vertex set.

        Each permutation is a tuple p of length m+1 with p[0] = 0 and
        p[f] = image of facet f.  Brute-force backtracking; guarded to
        m <= BRUTE_FORCE_FACETS.
        """
        return _cached(("automorphisms", self.vertices), lambda: find_isomorphisms(self, self))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "num_facets": self.num_facets,
            "vertices": [list(v) for v in self.vertices],
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimplePolytope":
        """Inverse of to_dict; raises PolytopeError on data outside that
        schema as well as on a complex that is not a simple polytope."""
        if not isinstance(d, dict):
            raise PolytopeError("a polytope must be a JSON object")
        for key in ("dim", "num_facets"):
            if type(d.get(key)) is not int:
                raise PolytopeError(f"{key!r} must be an integer")
        if not intlin.is_int_rows(d.get("vertices")):
            raise PolytopeError("'vertices' must be a list of integer lists")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise PolytopeError("'name' must be a string")
        return cls(d["dim"], d["num_facets"], d["vertices"], name=name)


def find_isomorphisms(p: SimplePolytope, q: SimplePolytope):
    """Facet bijections carrying p's vertex set onto q's.

    Returns a list of permutation tuples (see automorphisms); empty list
    if the polytopes are not combinatorially isomorphic.
    """
    if p.dim != q.dim or p.num_facets != q.num_facets or len(p.vertices) != len(q.vertices):
        return []
    m = p.num_facets
    if m > BRUTE_FORCE_FACETS:
        raise PolytopeError(brute_force_refusal("isomorphism search", m))
    deg_p = p.facet_degrees
    deg_q = q.facet_degrees
    if sorted(deg_p) != sorted(deg_q):
        return []
    adj_p = p._adjacency()
    adj_q = q._adjacency()
    # order source facets: rarest degree first to cut branching
    from collections import Counter

    freq = Counter(deg_p)
    order = sorted(range(1, m + 1), key=lambda f: (freq[deg_p[f - 1]], -bin(adj_p[f]).count("1"), f))
    image = [0] * (m + 1)
    used = [False] * (m + 1)
    results: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == m:
            perm = tuple(image)
            mapped = {_mask(tuple(perm[f] for f in v)) for v in p.vertices}
            if mapped == q._vmask_set:
                results.append(perm)
            return
        f = order[k]
        for g in range(1, m + 1):
            if used[g] or deg_q[g - 1] != deg_p[f - 1]:
                continue
            ok = True
            for j in range(k):
                fj = order[j]
                if bool(adj_p[f] >> (fj - 1) & 1) != bool(adj_q[g] >> (image[fj] - 1) & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[f] = g
            used[g] = True
            extend(k + 1)
            image[f] = 0
            used[g] = False

    extend(0)
    return results


# ---------------------------------------------------------------------------
# constructors
#
# The family constructors build each shape once per key of the package
# cache (("cube", n) and so on) and hand every caller that instance, so
# the constructor's checks run once per shape.  A shared instance must
# not be mutated; nothing in the package assigns to a polytope after
# __init__.


def simplex(n: int) -> SimplePolytope:
    """The n-simplex: n+1 facets, every n-subset a vertex."""
    if n < 1:
        raise PolytopeError(f"simplex needs dimension n >= 1, got {n}")
    return _cached(("simplex", n), lambda: SimplePolytope(
        n, n + 1, combinations(range(1, n + 2), n), name=f"simplex-{n}"))


def polygon(m: int) -> SimplePolytope:
    """The m-gon with edges labeled cyclically 1..m."""
    if m < 3:
        raise PolytopeError("polygon needs at least 3 edges")
    return _cached(("polygon", m), lambda: SimplePolytope(
        2, m, [(i, i + 1) for i in range(1, m)] + [(1, m)], name=f"polygon-{m}"))


def cube(n: int) -> SimplePolytope:
    """The n-cube: facet i opposite facet n+i."""
    if n < 1:
        raise PolytopeError(f"cube needs dimension n >= 1, got {n}")

    def build():
        vs = [tuple(sorted((i + 1) + (n if bits >> i & 1 else 0) for i in range(n)))
              for bits in range(1 << n)]
        return SimplePolytope(n, 2 * n, vs, name=f"cube-{n}")

    return _cached(("cube", n), build)


def prism(s: int) -> SimplePolytope:
    """Prism over an s-gon: facet 1 top, 2..s+1 sides (cyclic), s+2 bottom."""
    if s < 3:
        raise PolytopeError("prism needs an s-gon with s >= 3")

    def build():
        vs = []
        for i in range(2, s + 2):
            j = i + 1 if i < s + 1 else 2
            vs.append((1, i, j))
            vs.append((i, j, s + 2))
        return SimplePolytope(3, s + 2, vs, name=f"prism-{s}")

    return _cached(("prism", s), build)


_Q_VERTICES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
    (2, 5, 8), (2, 6, 8), (2, 3, 6), (3, 6, 7),
    (3, 4, 7), (4, 5, 8), (4, 7, 8), (6, 7, 8),
]


def q_polytope() -> SimplePolytope:
    """The 3-polytope with 4 quadrilateral and 4 pentagonal facets.

    Combinatorially this is a pentagonal prism with one top edge cut off;
    facet degrees are (4,5,5,5,4,4,4,5).
    """
    return SimplePolytope(3, 8, _Q_VERTICES, name="Q")


# ---------------------------------------------------------------------------
# operations
#
# The gluings are cached as well: `connected_sum`, `edge_connected_sum`
# and the far side of a cube connected sum (`structure`) each build
# their polytope once per key and hand every later caller the same
# instance.  A key holds everything the result depends on: the kind of
# gluing, each input's vertex tuple and the glued faces in the order
# given, and, for
# `connected_sum`, which names its result after its inputs, both input
# names (`SimplePolytope` equality ignores names).  So the constructor's
# checks run once per key; the checks on the inputs run on every call,
# and every call gets its own facet maps (a cached value holds the
# polytope and the maps, which are copied on the way out).


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Cartesian product; q's facets are shifted up by p's facet count."""
    mp = p.num_facets
    vs = []
    for vp in p.vertices:
        for vq in q.vertices:
            vs.append(tuple(sorted(vp + tuple(f + mp for f in vq))))
    name = f"({p.name})x({q.name})" if p.name and q.name else ""
    return SimplePolytope(p.dim + q.dim, mp + q.num_facets, vs, name=name)


def product_splits(p: SimplePolytope) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All facet bipartitions (A, B) realizing p as a product.

    A bipartition works when every vertex splits as (vertex of the
    A-part) + (vertex of the B-part) and all combinations occur, that is
    when the nerve of p is the join of its restrictions to A and to B.
    A simplicial complex is such a join exactly when each of its minimal
    nonfaces lies in A or in B, since the Stanley-Reisner ideal of a
    join is the sum of the factors' ideals (Buchstaber-Panov, Toric
    Topology, ch. 2).  So the irreducible factors are the connected
    components of the hypergraph of minimal nonfaces, and the splits
    are the unions of components that hold facet 1 but not every facet,
    in ascending order of the A-part's bitmask.  Computed once per
    vertex tuple; every call gets a fresh list.
    """
    return list(_cached(("splits", p.vertices), lambda: _build_splits(p)))


def _build_splits(p: SimplePolytope) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    m = p.num_facets
    faces = p._face_set()
    components = [1 << f for f in range(m)]
    # a minimal nonface S is found once, from the face S minus its top facet,
    # and merges the components it meets (disjoint masks, so sum is union)
    for face in faces:
        for top in range(face.bit_length(), m):
            s = face | (1 << top)
            if s in faces:
                continue
            rest = face  # drop each other facet of S in turn
            while rest and (s ^ (rest & -rest)) in faces:
                rest &= rest - 1
            if not rest:
                meet = [c for c in components if c & s]
                components = [c for c in components if not c & s] + [sum(meet)]
    amasks = [c for c in components if c & 1]
    for comp in components:
        if not comp & 1:
            amasks += [a | comp for a in amasks]
    # the largest union is every facet, which splits nothing off
    amasks = sorted(amasks)[:-1]
    facets = range(1, m + 1)
    return tuple((tuple(f for f in facets if a >> (f - 1) & 1),
                  tuple(f for f in facets if not a >> (f - 1) & 1)) for a in amasks)


def connected_sum(p: SimplePolytope, vp, q: SimplePolytope, vq):
    """Vertex connected sum: delete vertex vp of p and vq of q, glue facets.

    The facets of vp and vq are matched in sorted order.  New facet
    order: p's free facets (ascending), the n merged facets (in sorted
    vp order), q's free facets (ascending).  Returns (polytope, p_map, q_map) with the old
    facet -> new facet dictionaries.  The polytope is cached per key
    (above) and shared, so do not mutate it; the maps are new per call.
    """
    n = p.dim
    if q.dim != n:
        raise PolytopeError("connected sum needs equal dimensions")
    vp = tuple(sorted(vp))
    vq = tuple(sorted(vq))
    if not p.is_vertex(vp) or not q.is_vertex(vq):
        raise PolytopeError("connected sum must glue at vertices")

    def build():
        p_free = [f for f in range(1, p.num_facets + 1) if f not in set(vp)]
        q_free = [f for f in range(1, q.num_facets + 1) if f not in set(vq)]
        p_map = {f: i + 1 for i, f in enumerate(p_free)}
        base = len(p_free)
        for i, f in enumerate(vp):
            p_map[f] = base + i + 1
        q_map = {g: p_map[f] for f, g in zip(vp, vq)}
        base2 = base + n
        for i, f in enumerate(q_free):
            q_map[f] = base2 + i + 1
        vs = [tuple(sorted(p_map[f] for f in v)) for v in p.vertices if v != vp]
        vs += [tuple(sorted(q_map[f] for f in v)) for v in q.vertices if v != vq]
        name = f"({p.name})#({q.name})" if p.name and q.name else ""
        out = SimplePolytope(n, p.num_facets + q.num_facets - n, vs, name=name)
        return out, p_map, q_map

    key = ("vertex", p.vertices, p.name, vp, q.vertices, q.name, vq)
    out, p_map, q_map = _cached(key, build)
    return out, dict(p_map), dict(q_map)


def edge_connected_sum(p: SimplePolytope, edge_p, ends_p, q: SimplePolytope, edge_q, ends_q):
    """Connected sum along an edge: glue n+1 facets, delete 2 vertices each.

    edge_* is the (n-1)-subset carrying the edge, as an ordered sequence;
    ends_* the pair of remaining endpoint facets, ordered.  Facet i of
    (edge_p + ends_p) is merged with facet i of (edge_q + ends_q).  New
    facet order: the n+1 merged facets (in edge_p + ends_p order), p's
    remaining facets ascending, q's remaining facets ascending.  Returns
    (polytope, p_map, q_map), cached like `connected_sum`.
    """
    n = p.dim
    if q.dim != n:
        raise PolytopeError("edge connected sum needs equal dimensions")
    ep, eq = tuple(edge_p), tuple(edge_q)
    xp, yp = ends_p
    xq, yq = ends_q
    for poly, e, x, y in ((p, ep, xp, yp), (q, eq, xq, yq)):
        u = tuple(sorted(e + (x,)))
        w = tuple(sorted(e + (y,)))
        if not (poly.is_vertex(u) and poly.is_vertex(w)):
            raise PolytopeError(f"{e} with ends {(x, y)} is not an edge with those endpoints")

    def build():
        glue_p = list(ep) + [xp, yp]
        glue_q = list(eq) + [xq, yq]
        p_map = {f: i + 1 for i, f in enumerate(glue_p)}
        q_map = {f: i + 1 for i, f in enumerate(glue_q)}
        rest_p = [f for f in range(1, p.num_facets + 1) if f not in p_map]
        for i, f in enumerate(rest_p):
            p_map[f] = n + 2 + i
        base = n + 1 + len(rest_p)
        rest_q = [f for f in range(1, q.num_facets + 1) if f not in q_map]
        for i, f in enumerate(rest_q):
            q_map[f] = base + i + 1
        dead_p = {tuple(sorted(ep + (xp,))), tuple(sorted(ep + (yp,)))}
        dead_q = {tuple(sorted(eq + (xq,))), tuple(sorted(eq + (yq,)))}
        vs = [tuple(sorted(p_map[f] for f in v)) for v in p.vertices if v not in dead_p]
        vs += [tuple(sorted(q_map[f] for f in v)) for v in q.vertices if v not in dead_q]
        if len(vs) != len(set(vs)):
            raise PolytopeError("edge connected sum produced coincident vertices")
        out = SimplePolytope(n, p.num_facets + q.num_facets - n - 1, vs)
        return out, p_map, q_map

    # the result is unnamed, so the input names are not part of the key
    key = ("edge", p.vertices, ep, (xp, yp), q.vertices, eq, (xq, yq))
    out, p_map, q_map = _cached(key, build)
    return out, dict(p_map), dict(q_map)


# ---------------------------------------------------------------------------
# colorings and obstructions


def find_coloring(p: SimplePolytope, k: int) -> list[int] | None:
    """A proper facet k-coloring (facets of a common vertex all distinct),
    as a list color[f-1] in 1..k, or None."""
    m = p.num_facets
    adj = p._adjacency()
    color = [0] * (m + 1)
    order = sorted(range(1, m + 1), key=lambda f: -bin(adj[f]).count("1"))

    def go(i: int) -> bool:
        if i == m:
            return True
        f = order[i]
        taken = {color[g] for g in range(1, m + 1) if adj[f] >> (g - 1) & 1 and color[g]}
        for c in range(1, k + 1):
            if c in taken:
                continue
            color[f] = c
            if go(i + 1):
                return True
            color[f] = 0
        return False

    if not go(0):
        return None
    return color[1:]


def key_obstruction(p: SimplePolytope) -> tuple[tuple[int, ...], int] | None:
    """A vertex v and facet f outside v such that f meets every facet of v.

    With v as initial vertex, no degree-4 relation involves the square of
    f's generator, so that square has a strictly positive first Pontryagin
    coefficient (a sum of squares plus one) that nothing can cancel: no
    characteristic matrix over p gives a string manifold.  Returns the
    lexicographically first such (v, f), or None.
    """
    faces = p._face_set()
    for v, vm in zip(p.vertices, p._vmasks):
        for f in range(1, p.num_facets + 1):
            bit = 1 << (f - 1)
            if bit & vm:
                continue
            if all((bit | 1 << (g - 1)) in faces for g in v):
                return v, f
    return None
