"""Smith invariant factors: a test-only oracle for the lattice certificates.

The package certifies a relation lattice through its quotient map
(`qtm.cohomology`); the tests check that certificate, and the stack
versions of `greedy_basis` and `reduce_to_basis`, against the Smith
form computed here, which shares nothing with the package but the
`xgcd_rows` step (the row HNF below comes from `hnf_oracle`).
`test_intlin.test_smith_matches_sympy` cross-checks this oracle
against sympy.
"""

from hnf_oracle import hermite_form
from qtm import intlin


def smith_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    m = [r for r in intlin.copy_rows(rows) if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    factors: list[int] = []
    top = 0
    left = 0
    while top < len(m) and left < ncols:
        # find a nonzero entry, move it to (top, left)
        found = None
        for i in range(top, len(m)):
            for j in range(left, ncols):
                if m[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        m[top], m[i] = m[i], m[top]
        if j != left:
            for r in m:
                r[left], r[j] = r[j], r[left]
        while True:
            # clear column `left` with row xgcd ops
            for i in range(top + 1, len(m)):
                if m[i][left]:
                    m[top], m[i] = intlin.xgcd_rows(m[top], m[i], m[top][left], m[i][left])
            # clear row `top` with column xgcd ops: the same step on the
            # columns; only a step that changes column `left` (b not a
            # multiple of a) can refill column `left` below row `top`
            row_clear = True
            for j in range(left + 1, ncols):
                a, b = m[top][left], m[top][j]
                if not b:
                    continue
                row_clear = row_clear and b % a == 0
                cl, cj = intlin.xgcd_rows([r[left] for r in m], [r[j] for r in m], a, b)
                for r, xl, xj in zip(m, cl, cj):
                    r[left], r[j] = xl, xj
            if row_clear and all(not m[i][left] for i in range(top + 1, len(m))):
                break
        piv = abs(m[top][left])
        # enforce divisibility: pivot must divide every remaining entry
        bad = None
        for i in range(top + 1, len(m)):
            for j in range(left + 1, ncols):
                if m[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            m[top] = [x + y for x, y in zip(m[top], m[bad])]
            continue
        factors.append(piv)
        top += 1
        left += 1
    return factors


def spans_unit_summand(rows: list[list[int]]) -> bool:
    """Do the rows span a direct summand of rank len(rows), i.e. are they
    independent with every invariant factor 1?

    A full-rank row HNF with every pivot 1 settles it at once (such a
    basis extends to a basis of Z^N); otherwise the Smith form decides.
    """
    h = hermite_form(rows)
    if h.rank != len(rows):
        return False
    if all(p == 1 for _, p in h.pivots):
        return True
    return smith_invariant_factors(rows) == [1] * len(rows)
