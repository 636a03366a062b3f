"""Exact integer linear algebra over Python ints.

Everything here is exact: determinants by fraction-free (Bareiss)
elimination, row Hermite normal form by xgcd row operations, Smith
invariant factors (read off a unit-pivot HNF when possible), unimodular
inverses.  Every elimination over Z takes the same xgcd two-row step,
`xgcd_rows`.  Python integers never overflow, so there is no precision
story to worry about.

Matrices are plain lists of row lists.  Nothing here mutates its
arguments unless the docstring says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def is_int_rows(obj) -> bool:
    """Is obj a list of lists of ints, bools excluded, as JSON gives a
    matrix or a vertex list?"""
    return isinstance(obj, list) and all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in obj
    )


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


def rank(rows: list[list[int]]) -> int:
    return hermite_form(rows).rank


def in_row_lattice(h: HermiteForm, vec: list[int]) -> bool:
    """Is vec an integer combination of the HNF rows?"""
    v = list(vec)
    for row, (c, p) in zip(h.rows, h.pivots):
        if v[c] % p:
            return False
        q = v[c] // p
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def in_row_span_q(h: HermiteForm, vec: list[int]) -> bool:
    """Is vec a rational combination of the HNF rows?"""
    v = list(vec)
    for row, (c, p) in zip(h.rows, h.pivots):
        if v[c]:
            # eliminate over Q: scale v by p, subtract v[c] * row
            coef = v[c]
            v = [p * x - coef * y for x, y in zip(v, row)]
    if not any(v):
        return True
    return False


def smith_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    m = [r for r in copy_rows(rows) if any(r)]
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
                    m[top], m[i] = xgcd_rows(m[top], m[i], m[top][left], m[i][left])
            # clear row `top` with column xgcd ops: the same step on the
            # columns; only a step that changes column `left` (b not a
            # multiple of a) can refill column `left` below row `top`
            row_clear = True
            for j in range(left + 1, ncols):
                a, b = m[top][left], m[top][j]
                if not b:
                    continue
                row_clear = row_clear and b % a == 0
                cl, cj = xgcd_rows([r[left] for r in m], [r[j] for r in m], a, b)
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


def certified_invariant_factors(rows: list[list[int]], h: HermiteForm) -> list[int]:
    """Nonzero invariant factors of rows, read off their HNF `h` when it can.

    A full-row-rank HNF whose pivots are all 1 is a unit-pivot echelon
    basis of the row lattice; such a basis extends to a basis of Z^N,
    so every invariant factor is 1 (Kannan-Bachem).  Otherwise fall
    back to the Smith computation.
    """
    if h.rank == len(rows) and all(p == 1 for _, p in h.pivots):
        return [1] * len(rows)
    return smith_invariant_factors(rows)


def inverse_unimodular(a: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a square integer matrix with det = +-1."""
    n = len(a)
    aug = [list(r) + ident_row for r, ident_row in zip(a, identity(n))]
    h = hermite_form(aug)
    if h.rank != n or any(c != i or p != 1 for i, (c, p) in enumerate(h.pivots)):
        raise ValueError("matrix is not unimodular")
    return [row[n:] for row in h.rows]


# ---------------------------------------------------------------------------
# mod 2: rows as bitmasks (bit j = column j)


def f2_mask(row: list[int]) -> int:
    m = 0
    for j, x in enumerate(row):
        if x & 1:
            m |= 1 << j
    return m


def f2_rank(masks: list[int]) -> int:
    """Rank over GF(2) of vectors packed as bitmasks.

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
    return len(basis)


def f2_in_span(masks: list[int], target: int) -> bool:
    """Is target a GF(2) combination of masks?"""
    return f2_rank([*masks, target]) == f2_rank(masks)


def f2_det_one(masks: list[int], n: int) -> bool:
    """Is an n x n mod-2 matrix invertible?  masks are its rows or its
    columns: either way the test is rank n."""
    return f2_rank(masks) == n
