"""The substitution-based degree-2 mod-2 builder: a test-only oracle.

The package decides small cover string verdicts on the live rows of
the relation template (`qtm.smallcover._w2_vanishes`).  This is the
builder it replaced: substitute every facet class as a GF(2)
combination of the free ones, make one relation per nonface pair and
the class sum_{a<b} v_a v_b over all facet pairs, and ask whether the
class lies in the span of the relations.  It shares nothing with the
package but `intlin.f2_rank`.
"""

from qtm import intlin
from qtm.smallcover import SmallCoverError


def f2_in_span(masks: list[int], target: int) -> bool:
    """Is target a GF(2) combination of masks?"""
    return intlin.f2_rank([*masks, target]) == intlin.f2_rank(masks)


def substituted(rl) -> dict[int, dict[int, int]]:
    """Each facet class of a refined pair as a GF(2) combination of the
    free facet classes."""
    v0 = rl.refined_at
    free = [j for j in range(1, rl.m + 1) if j not in set(v0)]
    sub: dict[int, dict[int, int]] = {}
    for k, t in enumerate(sorted(v0)):
        sub[t] = {j: 1 for j in free if rl.rows[k][j - 1]}
    for j in free:
        sub[j] = {j: 1}
    return sub


def degree2_core(p, rl, sub):
    """(generators, generator index, relation masks, free facets), with
    the count check #generators - rank(relations) = h_2."""
    free = tuple(j for j in range(1, rl.m + 1) if j not in set(rl.refined_at))
    gens = tuple((i, j) for a, i in enumerate(free) for j in free[a:])
    gen_index = {g: k for k, g in enumerate(gens)}
    masks = []
    for a, b in p.nonface_pairs():
        mask = 0
        for i in sub[a]:
            for j in sub[b]:
                key = (i, j) if i <= j else (j, i)
                mask ^= 1 << gen_index[key]
        masks.append(mask)
    rank = intlin.f2_rank(masks)
    expected = p.h_vector()[2] if p.dim >= 2 else 0
    if len(gens) - rank != expected:
        raise SmallCoverError(
            f"degree-2 quotient dimension {len(gens) - rank} != h_2 = {expected}"
        )
    return gens, gen_index, masks, free


def degree2_presentation(p, rl):
    """(generators, relation masks, free facets) of a refined pair."""
    gens, _index, masks, free = degree2_core(p, rl, substituted(rl))
    return gens, masks, free


def refined_is_string(p, rl) -> bool:
    """Orientable, and the class in the span of the relations, for a
    pair already valid and refined."""
    if not all(sum(c) % 2 == 1 for c in zip(*rl.rows)):
        return False
    sub = substituted(rl)
    _gens, gen_index, masks, _free = degree2_core(p, rl, sub)
    w2 = 0
    for a in range(1, rl.m + 1):
        for b in range(a + 1, rl.m + 1):
            for i in sub[a]:
                for j in sub[b]:
                    key = (i, j) if i <= j else (j, i)
                    w2 ^= 1 << gen_index[key]
    return f2_in_span(masks, w2)
