"""Polytope constructions and predicates that only the tests use.

An edge cut, an isomorphism test, the 3-belts of a 3-polytope and the
ridge check on facet tuples.  The package has no caller for them; the
tests use them to check the constructors, the gluings and the
constructor's own checks.
"""

from itertools import combinations

from qtm.polytope import PolytopeError, SimplePolytope, find_isomorphisms


def isomorphic(p: SimplePolytope, q: SimplePolytope) -> bool:
    return bool(find_isomorphisms(p, q))


def edge_cut_3d(p: SimplePolytope, edge) -> SimplePolytope:
    """Cut off an edge of a 3-polytope, creating a quadrilateral facet m+1."""
    if p.dim != 3:
        raise PolytopeError("edge cut implemented for 3-polytopes")
    a, b = tuple(sorted(edge))
    u, w = [v for v in p.vertices if a in v and b in v]
    x = next(f for f in u if f not in (a, b))
    y = next(f for f in w if f not in (a, b))
    newf = p.num_facets + 1
    vs = [v for v in p.vertices if v not in (u, w)]
    vs += [tuple(sorted(t)) for t in ((a, x, newf), (b, x, newf), (a, y, newf), (b, y, newf))]
    return SimplePolytope(3, newf, vs)


def three_belts(p: SimplePolytope) -> list[tuple[int, int, int]]:
    """Facet triples, pairwise meeting, with empty triple intersection.

    These are the prismatic 3-circuits of a 3-polytope; a connected sum
    of two 3-polytopes along a vertex is separated by such a belt.
    """
    if p.dim != 3:
        raise PolytopeError("3-belts are defined for 3-polytopes")
    out = []
    for a, b, c in combinations(range(1, p.num_facets + 1), 3):
        if p.is_face((a, b, c)):
            continue
        if p.is_face((a, b)) and p.is_face((a, c)) and p.is_face((b, c)):
            out.append((a, b, c))
    return out


def ridge_verdict(n: int, vertices) -> str | None:
    """The message SimplePolytope gives a complex that passes its earlier
    checks, or None when it is accepted: the first ridge, in the order
    combinations(v, n - 1) meets them over the sorted vertices, that
    does not lie in exactly two vertices, else the number of connected
    parts of the edge graph when there is more than one."""
    vs = sorted(tuple(sorted(v)) for v in vertices)
    owners = {}
    for i, v in enumerate(vs):
        for r in combinations(v, n - 1):
            owners.setdefault(r, []).append(i)
    for r, o in owners.items():
        if len(o) != 2:
            return f"ridge {r} lies in {len(o)} vertices, expected 2"
    parts, seen = 0, set()
    for start in range(len(vs)):
        if start in seen:
            continue
        parts += 1
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for a, b in owners.values():
                for j in ((b,) if a == i else (a,) if b == i else ()):
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
    return None if parts == 1 else f"the complex falls into {parts} disconnected parts"
