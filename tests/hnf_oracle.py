"""Row Hermite normal form: a test-only oracle for the lattice code.

The package grows its unimodular transforms one vector at a time
(`qtm.intlin.extend_unimodular`); the tests compare lattices, quotient
maps and the `smith_oracle` certificates against the row HNF computed
here, which shares nothing with the package but the `xgcd_rows` step.
`test_intlin.test_hermite_form_matches_sympy` cross-checks this oracle
against sympy.
"""

from dataclasses import dataclass

from qtm.intlin import copy_rows, identity, xgcd_rows


@dataclass
class HermiteForm:
    """Row Hermite normal form of an integer matrix.

    rows    : the reduced rows (zero rows dropped), row-echelon
    pivots  : for each kept row, (column index, pivot value > 0)
    rank    : number of nonzero rows
    """

    rows: list[list[int]]
    pivots: list[tuple[int, int]]

    @property
    def rank(self) -> int:
        return len(self.rows)


def hermite_form(rows: list[list[int]]) -> HermiteForm:
    """Row-style HNF via xgcd row operations.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    """
    work = copy_rows(rows)
    if not work:
        return HermiteForm([], [])
    r, pivots = _hnf_core(work, len(work[0]))
    return HermiteForm(work[:r], pivots)


def hermite_form_with_transform(rows: list[list[int]]) -> tuple[HermiteForm, list[list[int]]]:
    """HNF plus a unimodular U with (U @ rows) = HNF rows padded by zeros.

    The first `rank` rows of U reproduce the HNF rows; the remaining
    rows of U span the left kernel of the input.
    """
    if not rows:
        return HermiteForm([], []), []
    ncols = len(rows[0])
    work = [list(r) + ident for r, ident in zip(rows, identity(len(rows)))]
    r, pivots = _hnf_core(work, ncols)
    h = HermiteForm([w[:ncols] for w in work[:r]], pivots)
    u = [w[ncols:] for w in work]
    return h, u


def _hnf_core(work: list[list[int]], ncols: int) -> tuple[int, list[tuple[int, int]]]:
    """Shared elimination loop; mutates `work`, pivoting on columns < ncols."""
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        # find a row with a nonzero entry in column c
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        # clear column c below row r with xgcd combinations
        for i in range(r + 1, len(work)):
            if work[i][c]:
                work[r], work[i] = xgcd_rows(work[r], work[i], work[r][c], work[i][c])
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        # reduce entries above the pivot
        p = work[r][c]
        for i in range(r):
            q = work[i][c] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        pivots.append((c, p))
        r += 1
        if r == len(work):
            break
    return r, pivots
