"""Exact integer linear algebra over Python ints.

Everything here is exact: determinants by fraction-free (Bareiss)
elimination, cofactor vectors from their minors, the unit-pivot
echelon reduction that certifies a relation lattice as a direct
summand, and `extend_unimodular`, the one step that grows a unimodular
transform: it decides whether a vector extends a basis of a direct
summand and, if it does, adds it.  Unimodular inverses, the fallback
quotient maps and the basis coefficients of `cohomology` all take that
step.  Every elimination over Z takes the same xgcd two-row step,
`xgcd_rows`.  Python integers never overflow, so there is no precision
story to worry about.

Matrices are plain lists of row lists.  Nothing here mutates its
arguments unless the docstring says so.
"""

from __future__ import annotations

from itertools import chain
from math import gcd


def is_int_rows(obj) -> bool:
    """Is obj a list of lists of ints, bools excluded, as JSON gives a
    matrix or a vertex list?"""
    return (isinstance(obj, list) and all(isinstance(r, list) for r in obj)
            and set(map(type, chain.from_iterable(obj))) <= {int})


def copy_rows(rows: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in rows]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b)
    cols = len(b[0]) if nb else 0
    out = []
    for ra in a:
        row = [0] * cols
        for k, aik in enumerate(ra):
            if aik:
                rb = b[k]
                for j in range(cols):
                    row[j] += aik * rb[j]
        out.append(row)
    return out


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss algorithm)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = copy_rows(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for s in range(k + 1, n):
                if m[s][k]:
                    m[k], m[s] = m[s], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            ri = m[i]
            rk = m[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - mik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def cofactors(rows: list[list[int]]) -> tuple[int, ...]:
    """Cofactor vector c of n - 1 integer rows of length n.

    c_j is (-1)^j times the minor of `rows` with column j deleted, so
    det([x] + rows) = sum_j c_j x_j for every row x: the determinant is
    linear in the one row left open, and putting x in another place
    only flips its sign.  c is zero exactly when the rows are dependent.
    """
    out = []
    for j in range(len(rows) + 1):
        minor = det([r[:j] + r[j + 1:] for r in rows])
        out.append(-minor if j & 1 else minor)
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def xgcd_rows(ra: list[int], rb: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """One unimodular two-row step clearing b against a != 0.

    a and b are the entries of rows ra and rb in the column being
    cleared.  Returns new rows (ra', rb') spanning the same lattice, with
    rb' zero in that column and ra' holding +-gcd(a, b) there: ra is kept
    as it is when a divides b, else ra' = x ra + y rb with a x + b y =
    gcd(a, b) >= 0.  The one xgcd update of every elimination here.
    """
    if b % a == 0:
        q = b // a
        return ra, [x - q * y for x, y in zip(rb, ra)]
    g, x, y = _xgcd(a, b)
    u, v = a // g, b // g
    return (
        [x * p + y * q for p, q in zip(ra, rb)],
        [-v * p + u * q for p, q in zip(ra, rb)],
    )


def extend_unimodular(u: list[list[int]], y: list[int], k: int) -> bool:
    """One step of growing a unimodular basis; mutates u.

    u is unimodular with u @ [x_1 .. x_k] = [I_k; 0] for k vectors
    already taken, and y = u x for a new vector x.  x extends them to a
    basis of a direct summand exactly when y[k:] is primitive, i.e.
    gcd(y[k:]) = 1.  If it is not, returns False and leaves u as it is.
    Otherwise an xgcd chain of row steps on u turns y into e_k, so that
    u @ [x_1 .. x_k x] = [I_(k+1); 0], and returns True.  The chain
    pivots on a +-1 entry of y[k:] when there is one, so that each of its
    steps is one row operation.  The rows of u may carry further columns
    beside u (as [u | u a], say): every step acts on whole rows.
    """
    d = len(y)
    if gcd(*y[k:]) != 1:
        return False
    piv = next((i for i in range(k, d) if y[i] == 1 or y[i] == -1), None)
    if piv is None:
        piv = next(i for i in range(k, d) if y[i])
    # row piv moves to k; the row it swaps with keeps its entry y[k]
    u[k], u[piv] = u[piv], u[k]
    yk = y[piv]
    for i in range(k + 1, d):
        b = y[k] if i == piv else y[i]
        if b:
            u[k], u[i] = xgcd_rows(u[k], u[i], yk, b)
            if b % yk:  # else row k is kept as it is
                yk = gcd(yk, b)
    if yk < 0:  # yk = +-gcd(y[k:]) = +-1
        u[k] = [-x for x in u[k]]
    for i in range(k):
        c = y[i]
        if c:
            u[i] = [x - c * z for x, z in zip(u[i], u[k])]
    return True


def unit_pivot_reduce(rows: list[list[int]]) -> dict[int, list[int]] | None:
    """Echelon reduction over Z that pivots only on +-1 entries.

    Returns {pivot column: row} in the order the pivots were chosen:
    rows spanning the same lattice as the input, one per input row, each
    +1 at its own pivot column and 0 at the pivot columns chosen before
    it.  A row is taken as the next pivot row once it has a unit entry,
    and it pivots on its first unit entry; the rows still pending are
    then cleared in that column by the divisible branch of `xgcd_rows`,
    and the pivot rows already taken are left as they are.  Rows of this
    shape are a basis of a rank-len(rows) direct summand of Z^N: a
    lattice vector that is 0 at every pivot column has coefficient 0 on
    the first pivot row, then on the second, and so on.  Back
    substitution in reverse pivot order turns them into the unique basis
    with an identity block in the pivot columns
    (`cohomology._read_off_quotient_map`).  Returns None when no row
    left has a unit entry, which includes a row that vanished; the
    lattice may still be a direct summand then.
    """
    pending = copy_rows(rows)
    pivots: dict[int, list[int]] = {}
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


def inverse_unimodular(a: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a square integer matrix with det = +-1.

    One `extend_unimodular` step per column of a, on rows [u | u a] that
    start as [I | a]: the image u a_k of column k is read off the rows.
    They end as [a^-1 | I]; some step refuses exactly when |det a| != 1.
    """
    n = len(a)
    work = [ident_row + list(r) for ident_row, r in zip(identity(n), a)]
    for k in range(n):
        if not extend_unimodular(work, [row[n + k] for row in work], k):
            raise ValueError("matrix is not unimodular")
    return [row[:n] for row in work]


# ---------------------------------------------------------------------------
# mod 2: rows as bitmasks (bit j = column j)


def f2_mask(row: list[int]) -> int:
    m = 0
    for j, x in enumerate(row):
        if x & 1:
            m |= 1 << j
    return m


def _f2_echelon(masks) -> dict[int, int]:
    """Top-bit reduction of vectors packed as bitmasks.

    The one elimination kernel of the mod-2 path.  The basis maps each
    pivot's bit_length() to its vector; a new vector is XORed with the
    basis vector sharing its top bit until it is zero or its top bit is
    new, and then joins the basis under that bit.
    """
    basis: dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return basis


def f2_rank(masks: list[int]) -> int:
    """Rank over GF(2) of vectors packed as bitmasks."""
    return len(_f2_echelon(masks))


def f2_normal(masks, n: int) -> int:
    """The nonzero annihilator of masks in GF(2)^n, or 0.

    When the masks span a hyperplane (n - 1 independent masks, say),
    the vectors x with an even popcount of c & x form exactly that span
    for one nonzero c, which is returned; it is their cofactor vector
    mod 2, so x completes them to a basis iff c & x has odd popcount.
    Any other span gives 0.  c gets the one bit no pivot holds, then
    each pivot bit in ascending order as the parity its basis vector
    needs to annihilate c.
    """
    basis = _f2_echelon(masks)
    if len(basis) != n - 1:
        return 0
    c = 1 << next(b for b in range(n) if b + 1 not in basis)
    for top in sorted(basis):
        if (basis[top] & c).bit_count() & 1:
            c |= 1 << (top - 1)
    return c
