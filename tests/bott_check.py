"""Bott's triangularization of any cube pair, its shape and vertices
checked first.

The package's one caller, the `cube-string-is-bott` campaign, hands
`qtm.structure._bott_triangularize` search survivors, which are valid
by construction, so the wrapper that checks an arbitrary pair lives
with the tests that want it.
"""

from qtm.charmat import CharMatrixError
from qtm.polytope import cube
from qtm.structure import _bott_triangularize, _checked_pair


def bott_triangularize(n, lam):
    if lam.n != n or lam.m != 2 * n:
        # before cube(n) is built: it has 2**n vertices
        raise CharMatrixError(f"shape {lam.n}x{lam.m} does not match dim {n}, facets {2 * n}")
    p = cube(n)
    _checked_pair(p, lam)
    return _bott_triangularize(p, n, lam)
