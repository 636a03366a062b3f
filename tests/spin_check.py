"""The spin verdict of any pair, validated and refined first.

The package's commands and claims call `qtm.stringcheck._spin` on pairs
they have already validated and refined, so the wrapper that does both
for an arbitrary pair lives with the tests that want it.
"""

from qtm.stringcheck import _spin, refined_pair


def is_spin(p, lam) -> bool:
    return _spin(p, refined_pair(p, lam))
