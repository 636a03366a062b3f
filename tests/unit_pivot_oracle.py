"""The unit-pivot kernels as they were first written, kept as oracles.

`qtm.intlin.unit_pivot_reduce` clears each pending row with one inline
subtraction, and `qtm.cohomology._read_off_quotient_map` carries only
the non-pivot columns through its back substitution.  The versions
here take the longer road: every clear goes through the `xgcd_rows`
step, and the back substitution carries whole rows to the identity
block in the pivot columns before q is read off.  The tests check that
both roads give the same pivots, rows and quotient map.
"""

from qtm.intlin import copy_rows, xgcd_rows


def xgcd_unit_pivot_reduce(rows):
    """{pivot column: row} as `unit_pivot_reduce` returns it, clearing
    each pending row by `xgcd_rows` against the +1 pivot; None when no
    row left has a unit entry."""
    pending = copy_rows(rows)
    pivots = {}
    while pending:
        for i, row in enumerate(pending):
            if 1 in row:
                c = row.index(1)
                if -1 in row[:c]:
                    c = row.index(-1)
                break
            if -1 in row:
                c = row.index(-1)
                break
        else:
            return None
        row = pending.pop(i)
        if row[c] < 0:
            row = [-x for x in row]
        for k, other in enumerate(pending):
            if other[c]:
                pending[k] = xgcd_rows(row, other, 1, other[c])[1]
        pivots[c] = row
    return pivots


def full_row_read_off(pivot_row, ngen):
    """q from the rows {pivot column: row} of a unit-pivot reduction:
    back substitution in reverse pivot order on whole rows, then
    q(e_j) = e_j on the non-pivot columns j and q(e_p) = minus the
    Jordan row of pivot p there."""
    jordan = {}
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
