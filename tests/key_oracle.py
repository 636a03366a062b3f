"""Canonical key of an equivalence class: a test-only oracle for dedup.

The search tells classes apart by its own walk form, the orbit leaders
of `qtm.harness`.  The key here shares nothing with that code but
`refine`: it relabels the pair by every automorphism (or none), refines
each image at the polytope's first vertex, and takes the least
row-major matrix over all 2^n row sign patterns, every non-identity
column flipped so that its first nonzero entry is positive.  It is
slow and plain on purpose.
"""

from qtm.charmat import CharMatrix, refine


def _sign_normalized(rows, skip_cols):
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


def canonical_key(p, lam, group):
    """Bytes equal exactly on the orbits of the group: "signs" (row basis
    changes and column sign flips) or "signs+automorphisms" (those and
    the polytope's facet relabellings)."""
    if group not in ("signs", "signs+automorphisms"):
        raise ValueError(f"unknown group {group!r}")
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
            flipped = [
                [-x if (pattern >> i & 1) and c not in skip else x for c, x in enumerate(base[i])]
                for i in range(lam.n)
            ]
            key = _sign_normalized(flipped, skip)
            if best is None or key < best:
                best = key
    return repr((p.dim, p.num_facets, best)).encode()
