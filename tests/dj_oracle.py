"""The degree-4 relation rows by substitution: a test-only oracle.

The package builds only the live rows of the Davis-Januszkiewicz
presentation, from the per-polytope relation template
(`qtm.cohomology.relation_template`), and certifies them by their
quotient map.  This builds every relation row directly: each base
class is minus its row of the matrix, a free class is itself, and each
nonface pair multiplies out over the monomials v_i v_j, i <= j free.
It shares nothing with the package but `SimplePolytope.nonface_pairs`.
"""


def substituted_relations(p, rl):
    """(generators, relation rows) of a refined pair: one row per
    nonface pair, in `p.nonface_pairs()` order, over the generators in
    lex order."""
    base = rl.refined_at
    free = [j for j in range(1, rl.m + 1) if j not in base]
    gens = [(i, j) for a, i in enumerate(free) for j in free[a:]]
    sub = {j: {j: 1} for j in free}
    for k, t in enumerate(base):
        sub[t] = {j: -rl.rows[k][j - 1] for j in free}
    rows = []
    for a, b in p.nonface_pairs():
        row = dict.fromkeys(gens, 0)
        for i, ci in sub[a].items():
            for j, cj in sub[b].items():
                row[(min(i, j), max(i, j))] += ci * cj
        rows.append([row[g] for g in gens])
    return gens, rows
