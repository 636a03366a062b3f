"""Tests for normal forms, equivariant sums, and decompositions.

The decomposition procedures re-verify their own case analysis at run
time, so these tests focus on pinning outputs: frozen normal forms and
pieces worked out by hand or produced once and checked against the
general string engine, plus randomized equivalence properties (spin and
string of a sum against the summands, move replays landing on the
normalized matrix).
"""

import hashlib
import itertools
import json
import random
import sys

import pytest

import qtm.charmat as charmat
from qtm import harness
from qtm.charmat import (
    CharMatrix,
    CharMatrixError,
    ColumnSignFlip,
    FacetPermutation,
    RowBasisChange,
    _moved,
    validate,
)
import qtm.polytope as polytope
import qtm.structure as structure
from qtm.polytope import (
    PolytopeError,
    SimplePolytope,
    connected_sum,
    cube,
    find_isomorphisms,
    polygon,
    prism,
)
from qtm.stringcheck import is_string
from qtm.structure import (
    BottForm,
    DobrinskayaForm,
    StructureContradiction,
    StructureError,
    _bundle_certificate,
    _equivariant_edge_connected_sum,
    _split_blocks,
    decompose_cube_connsum,
    decompose_prism,
    dobrinskaya_normalize,
    equivariant_connected_sum,
)
from bott_check import bott_triangularize
from key_oracle import canonical_key
from spin_check import is_spin

# string structure on the hexagonal prism; facet 1 top, 2..7 sides, 8 bottom
HEX_PRISM_LAM = CharMatrix(
    [
        [1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 2],
    ],
    refined_at=(1, 2, 3),
)

# the two square-prism pieces it splits into along the (4,7) side edge
HEX_PIECE_1 = (
    (1, 0, 0, 1, 0, 1),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 1, 1, 2),
)
HEX_PIECE_2 = (
    (1, 1, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 0),
    (0, 1, 1, 0, 1, 2),
)

# a twisted product structure on the square prism equivalent to both pieces
SQUARE_PRISM_BUNDLE = CharMatrix(
    [
        [1, 0, 0, 2, 1, 1],
        [0, 1, 0, 1, 1, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    refined_at=(1, 2, 3),
)

# 3-coloring of the hexagonal prism: top and bottom share a color
COLORED_HEX_PRISM = CharMatrix(
    [
        [1, 0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0, 1, 0],
    ],
    refined_at=(1, 2, 3),
)

# valid but not spin, hence not string; decompose_prism must refuse it
NON_STRING_SQUARE_PRISM = CharMatrix(
    [
        [1, 0, 0, -2, 0, -1],
        [0, 1, 0, 1, -2, 0],
        [0, 0, 1, -1, 1, 0],
    ],
    refined_at=(1, 2, 3),
)

# string structure with both free-column corner entries busy: the rigid
# case where no square prism splits off and the pair fibers over the
# interval factor instead
RIGID_HEX_PRISM = CharMatrix(
    [
        [1, 0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, -1, 2, 1],
        [0, 0, 1, 2, -1, 0, 1, 1],
    ],
    refined_at=(1, 2, 3),
)

# two string structures on the square (checked against the general engine)
SQUARE_STRING_1 = CharMatrix([[1, 0, -1, -2], [0, 1, 0, -1]])
SQUARE_STRING_2 = CharMatrix([[1, 0, -1, 0], [0, 1, -2, -1]])

# two string cube pairs used for the connected-sum round trip
CUBE_SUMMAND_A = CharMatrix(
    [[1, 0, 0, 1, 2, 2], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 0, 1]],
    refined_at=(1, 2, 3),
)
CUBE_SUMMAND_B = CharMatrix(
    [[1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 1]],
    refined_at=(1, 2, 3),
)

# spin pair over a double cube connected sum whose seam block has
# determinant -3: spin but not string, and the splitting obstruction is
# exactly that determinant
SPIN_NOT_STRING_VERTS = [
    (1, 4, 5), (1, 2, 4), (1, 3, 5), (1, 2, 3), (4, 5, 6), (2, 4, 6),
    (3, 5, 6), (7, 8, 9), (2, 7, 8), (3, 7, 9), (2, 3, 7), (6, 8, 9),
    (2, 6, 8), (3, 6, 9),
]
SPIN_NOT_STRING_LAM = CharMatrix(
    [
        [1, 0, 0, 2, 2, 3, 1, 2, 2],
        [0, 1, 0, 0, 1, 1, 0, 0, 1],
        [0, 0, 1, 1, 0, 1, 0, 1, 0],
    ],
    refined_at=(1, 2, 3),
)


def random_valid_cube_matrix(rng, n=3, steps=40, keep=None):
    """Random walk over valid cube(n) matrices starting at [I | I].

    With ``keep`` set, only steps preserving keep(p, lam) are taken, so
    the walk stays inside that stratum (the seed satisfies it).
    """
    p = cube(n)
    rows = [
        [1 if j == i or j == n + i else 0 for j in range(2 * n)] for i in range(n)
    ]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n, 2 * n)
        d = rng.choice((-1, 1))
        rows[i][j] += d
        lam = CharMatrix(rows)
        ok, _ = validate(p, lam)
        if ok and keep is not None:
            ok = keep(p, lam)
        if not ok:
            rows[i][j] -= d
    return CharMatrix(rows, refined_at=tuple(range(1, n + 1)))


def random_valid_square_prism(rng, fixed_cols, steps=30):
    """Random walk over valid prism(4) matrices keeping some columns fixed."""
    p = prism(4)
    base = [[1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0]]
    rows = [r[:] for r in base]
    for _ in range(steps):
        i = rng.randrange(3)
        j = rng.randrange(6)
        if (j + 1) in fixed_cols:
            continue
        d = rng.choice((-1, 1))
        rows[i][j] += d
        ok, _ = validate(p, CharMatrix(rows))
        if not ok:
            rows[i][j] -= d
    return CharMatrix(rows)


# ---------------------------------------------------------------------------
# unipotent triangularization


def test_dobrinskaya_identity_is_triangular():
    form = dobrinskaya_normalize([[1, 0], [0, 1]])
    assert form.verdict == "triangular"
    assert form.order == (1, 2)
    assert form.normalized == ((1, 0), (0, 1))


def test_dobrinskaya_lower_triangular_reverses_order():
    # [DERIVED] conjugating by the reversal permutation by hand
    form = dobrinskaya_normalize([[1, 0, 0], [2, 1, 0], [3, 4, 1]])
    assert form.verdict == "triangular"
    assert form.order == (3, 2, 1)
    assert form.normalized == ((1, 4, 3), (0, 1, 2), (0, 0, 1))


def test_dobrinskaya_flips_negative_diagonal():
    form = dobrinskaya_normalize([[-1, 0], [5, 1]])
    assert form.verdict == "triangular"
    assert form.row_signs == (-1, 1)
    assert form.order == (2, 1)
    assert form.normalized == ((1, 5), (0, 1))


def test_dobrinskaya_cycle():
    # determinant -1 with unit proper minors: one chordless cycle whose
    # entries multiply to (-1)^3 * 2
    form = dobrinskaya_normalize([[1, 0, -2], [-1, 1, 0], [0, -1, 1]])
    assert form.verdict == "cycle"
    assert form.order == (1, 3, 2)
    assert form.cycle == (-2, -1, -1)


def test_dobrinskaya_rejects_determinant_two():
    form = dobrinskaya_normalize([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert form.verdict == "not-applicable"
    assert form.violation == {"subset": (1, 2, 3), "value": 2}


def test_dobrinskaya_rejects_bad_diagonal():
    form = dobrinskaya_normalize([[2, 0], [0, 1]])
    assert form.verdict == "not-applicable"
    assert form.violation == {"subset": (1,), "value": 2}


def test_dobrinskaya_two_by_two_determinant_minus_one_is_a_cycle():
    # at size 2 there are no proper minors between the diagonal and the
    # determinant, so det -1 is the two-cycle with entry product 2
    form = dobrinskaya_normalize([[1, 1], [2, 1]])
    assert form.verdict == "cycle"
    assert form.cycle == (1, 2)


def test_dobrinskaya_rejects_bad_proper_minor():
    form = dobrinskaya_normalize([[1, 1, 0], [2, 1, 0], [0, 0, 1]])
    assert form.verdict == "not-applicable"
    assert form.violation == {"subset": (1, 2), "value": -1}


def test_dobrinskaya_rejects_nonsquare():
    with pytest.raises(StructureError):
        dobrinskaya_normalize([[1, 0]])


def test_dobrinskaya_random_unipotent_conjugates():
    # [DERIVED] permuted unipotent triangular matrices must come back
    # triangular, and the recovered order must conjugate the input to the
    # normalized form entry for entry
    rng = random.Random(20260825)
    for _ in range(40):
        k = rng.randrange(3, 7)
        u = [[0] * k for _ in range(k)]
        for i in range(k):
            u[i][i] = 1
            for j in range(i + 1, k):
                u[i][j] = rng.randrange(-2, 3)
        sigma = list(range(k))
        rng.shuffle(sigma)
        a = [[u[sigma[i]][sigma[j]] for j in range(k)] for i in range(k)]
        form = dobrinskaya_normalize(a)
        assert form.verdict == "triangular"
        pos = [i - 1 for i in form.order]
        for t in range(k):
            for s in range(k):
                assert form.normalized[t][s] == a[pos[t]][pos[s]]
            for s in range(t):
                assert form.normalized[t][s] == 0
            assert form.normalized[t][t] == 1


def test_dobrinskaya_random_cycles():
    # [DERIVED] any single k-cycle with entry product (-1)^k * 2 is
    # recognized, in any relabeling
    rng = random.Random(4711)
    for _ in range(40):
        k = rng.randrange(3, 7)
        entries = [rng.choice((-1, 1)) for _ in range(k)]
        entries[rng.randrange(k)] *= 2
        flips = sum(1 for x in entries if x < 0)
        want = (-1) ** k * 2
        prod = 1
        for x in entries:
            prod *= x
        if prod != want:
            entries[rng.randrange(k)] *= -1
            prod = -prod
        assert prod == want
        sigma = list(range(k))
        rng.shuffle(sigma)
        a = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for t in range(k):
            a[sigma[t]][sigma[(t + 1) % k]] = entries[t]
        form = dobrinskaya_normalize(a)
        assert form.verdict == "cycle"
        got = 1
        for x in form.cycle:
            got *= x
        assert got == want
        assert sorted(abs(x) for x in form.cycle) == sorted(abs(x) for x in entries)


# ---------------------------------------------------------------------------
# cube pairs


def test_bott_already_triangular_families():
    # two one-parameter families of upper triangular free blocks; both
    # are fixed points of the normalization
    for x, y in ((0, 0), (1, 3), (1, 2), (-2, 4)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        form = bott_triangularize(3, lam)
        assert form.verdict == "triangular"
        assert form.moves == ()
        assert form.normalized.rows == lam.rows
    for a, b in ((1, 1), (2, -1), (0, 3)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 2 * a, a * b], [0, 1, 0, 0, 1, b], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        form = bott_triangularize(3, lam)
        assert form.verdict == "triangular"
        assert form.moves == ()


def test_bott_replays_moves_to_normal_form():
    # conjugate a triangular pair by the opposite-pair permutation
    # swapping facets 1 and 3; the moves must replay the shuffled input
    # back onto the normalized matrix
    p = cube(3)
    lam = CharMatrix(
        [[1, 0, 0, 1, 2, 2], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    shuffled = _moved(p, lam, FacetPermutation((0, 3, 2, 1, 6, 5, 4)))
    assert validate(p, shuffled)[0]
    assert shuffled.rows == ((0, 0, 1, 2, 2, 1), (0, 1, 0, 2, 1, 0), (1, 0, 0, 1, 0, 0))
    form = bott_triangularize(3, CharMatrix(shuffled.rows))
    assert form.verdict == "triangular"
    assert form.normalized.rows == lam.rows
    cur = CharMatrix(shuffled.rows)
    for mv in form.moves:
        cur = _moved(p, cur, mv)
    assert cur.rows == form.normalized.rows


def test_bott_decides_a_verdict_only_for_a_witness(monkeypatch):
    # a triangular pair needs no string verdict; a witness does, to
    # tell a non-string pair from a contradiction
    decided = []
    real = structure._refined_string

    def recording(p, rl):
        decided.append(rl.rows)
        return real(p, rl)

    monkeypatch.setattr(structure, "_refined_string", recording)
    p = cube(3)
    lam = CharMatrix(
        [[1, 0, 0, 1, 2, 2], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    shuffled = CharMatrix(_moved(p, lam, FacetPermutation((0, 3, 2, 1, 6, 5, 4))).rows)
    for given in (lam, shuffled):
        assert bott_triangularize(3, given).verdict == "triangular"
    assert decided == []
    witness = CharMatrix([[1, 0, 1, 1], [0, 1, 2, 1]], refined_at=(1, 2))
    assert bott_triangularize(2, witness).verdict == "witness"
    assert decided == [witness.rows]


def test_bott_cycle_witness():
    # free block with determinant -1: the obstruction is the cycle
    lam = CharMatrix([[1, 0, 1, 1], [0, 1, 2, 1]], refined_at=(1, 2))
    form = bott_triangularize(2, lam)
    assert form.verdict == "witness"
    assert form.normalized is None
    assert form.witness["kind"] == "cycle"
    assert form.witness["entries"] == (1, 2)


def test_bott_unit_product_witness():
    # a 2x2 principal minor equal to -1 forces a pair of opposite-facet
    # entries multiplying to 2
    lam = CharMatrix(
        [[1, 0, 0, 1, 1, 0], [0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    form = bott_triangularize(3, lam)
    assert form.verdict == "witness"
    assert form.witness["kind"] == "unit-product"
    assert form.witness["facets"] == (4, 5)
    assert form.witness["product"] == 2


def test_bott_string_pairs_always_triangularize():
    # pinned against the general engine: every string cube pair reached
    # by the walk triangularizes, and replays land on the normal form
    p = cube(3)
    hits = 0
    for t in range(40):
        rng = random.Random(900 + t)
        lam = random_valid_cube_matrix(rng)
        form = bott_triangularize(3, lam)
        if is_string(p, lam):
            assert form.verdict == "triangular"
            hits += 1
        if form.verdict == "triangular":
            cur = lam
            for mv in form.moves:
                cur = _moved(p, cur, mv)
            assert cur.rows == form.normalized.rows
            free = [
                [form.normalized.entry(i, 3 + j) for j in range(1, 4)]
                for i in range(1, 4)
            ]
            for i in range(3):
                assert free[i][i] == 1
                for j in range(i):
                    assert free[i][j] == 0
    assert hits >= 3


# ---------------------------------------------------------------------------
# equivariant connected sums


def test_vertex_sum_of_squares_is_string_hexagon():
    p4 = polygon(4)
    assert is_string(p4, SQUARE_STRING_1)
    assert is_string(p4, SQUARE_STRING_2)
    q, lam = equivariant_connected_sum(
        p4, SQUARE_STRING_1, (3, 4), p4, SQUARE_STRING_2, (1, 2)
    )
    assert q.num_facets == 6
    assert find_isomorphisms(q, polygon(6))
    assert is_string(q, lam)
    assert lam.rows == ((-1, 2, 1, 0, -1, 0), (0, -1, 0, 1, -2, -1))


def test_vertex_sum_spin_and_string_match_summands():
    # spin and string of the sum agree with the conjunction over the
    # summands; pinned against the general engine on random walks
    p = cube(3)
    spin_hits = 0
    for t in range(60):
        rng = random.Random(1000 + t)
        la = random_valid_cube_matrix(rng)
        lb = random_valid_cube_matrix(rng)
        q, lam = equivariant_connected_sum(p, la, (4, 5, 6), p, lb, (1, 2, 3))
        assert q.num_facets == 9
        assert is_spin(q, lam) == (is_spin(p, la) and is_spin(p, lb))
        assert is_string(q, lam) == (is_string(p, la) and is_string(p, lb))
        spin_hits += is_spin(p, la) and is_spin(p, lb)
    assert spin_hits >= 2
    # deterministic both-string instance
    q, lam = equivariant_connected_sum(
        p, CUBE_SUMMAND_A, (4, 5, 6), p, CUBE_SUMMAND_B, (1, 2, 3)
    )
    assert is_string(q, lam)


def test_vertex_sum_rejects_dimension_mismatch():
    with pytest.raises(StructureError):
        equivariant_connected_sum(
            polygon(4), SQUARE_STRING_1, (1, 2),
            cube(3), CUBE_SUMMAND_A, (1, 2, 3),
        )


def test_vertex_sum_rejects_non_vertex():
    with pytest.raises(CharMatrixError):
        equivariant_connected_sum(
            polygon(4), SQUARE_STRING_1, (1, 3),
            polygon(4), SQUARE_STRING_2, (1, 2),
        )


def test_edge_sum_of_colored_square_prisms():
    # gluing two copies of the 3-colored square prism along a vertical
    # edge gives the 3-colored hexagonal prism
    p4 = prism(4)
    col = CharMatrix(
        [[1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0]],
        refined_at=(1, 2, 3),
    )
    assert validate(p4, col)[0]
    q, lam = _equivariant_edge_connected_sum(
        p4, col, (4, 5), (1, 6), p4, col, (2, 5), (1, 6)
    )
    assert q.num_facets == 8
    assert find_isomorphisms(q, prism(6))
    assert is_string(q, lam)
    for j in range(1, 9):
        assert sorted(abs(x) for x in lam.column(j)) == [0, 0, 1]


def test_edge_sum_reassembles_hexagonal_example():
    # the two frozen pieces glue back to the hexagonal prism pair, up to
    # the facet relabeling the decomposition records
    p4 = prism(4)
    lam1 = CharMatrix(HEX_PIECE_1)
    lam2 = CharMatrix(HEX_PIECE_2)
    assert validate(p4, lam1)[0] and validate(p4, lam2)[0]
    q, lam = _equivariant_edge_connected_sum(
        p4, lam1, (4, 5), (1, 6), p4, lam2, (2, 5), (1, 6)
    )
    new_to_old = {1: 4, 2: 7, 3: 1, 4: 8, 5: 2, 6: 3, 7: 5, 8: 6}
    back = {tuple(sorted(new_to_old[f] for f in v)) for v in q.vertices}
    assert back == set(prism(6).vertices)
    rows = [[0] * 8 for _ in range(3)]
    for newf, oldf in new_to_old.items():
        colv = lam.column(newf)
        for i in range(3):
            rows[i][oldf - 1] = colv[i]
    assert tuple(tuple(r) for r in rows) == HEX_PRISM_LAM.rows


def test_edge_sum_reports_first_mismatched_column():
    p4 = prism(4)
    lam1 = CharMatrix(HEX_PIECE_1)
    bad = CharMatrix([[1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 2]])
    assert validate(p4, lam1)[0] and validate(p4, bad)[0]
    with pytest.raises(StructureError, match="position 1"):
        _equivariant_edge_connected_sum(
            p4, lam1, (4, 5), (1, 6), p4, bad, (2, 5), (1, 6)
        )


def test_edge_sum_string_matches_summands():
    # string of the glued pair agrees with the conjunction over the
    # summands; pinned against the general engine on compatible walks
    p4 = prism(4)
    both = 0
    for t in range(50):
        rng = random.Random(3000 + t)
        la = random_valid_square_prism(rng, (1, 4, 5, 6))
        lb = random_valid_square_prism(rng, (1, 2, 5, 6))
        q, lam = _equivariant_edge_connected_sum(
            p4, la, (4, 5), (1, 6), p4, lb, (2, 5), (1, 6)
        )
        sa, sb = is_string(p4, la), is_string(p4, lb)
        assert is_string(q, lam) == (sa and sb)
        both += sa and sb
    assert both >= 1


# ---------------------------------------------------------------------------
# bundle-type certificates


def test_bundle_blocks_of_plain_product():
    lam = CharMatrix([[1, 0, 1, 0], [0, 1, 0, 1]], refined_at=(1, 2))
    info = _split_blocks(lam, (1, 3), (2, 4))
    assert info["ab_zero"] and info["ba_zero"]


def test_bundle_blocks_of_hexagonal_example():
    # at this refinement neither block vanishes
    info = _split_blocks(HEX_PRISM_LAM, (1, 8), (2, 3, 4, 5, 6, 7))
    assert info["block_ab"] == [[1, 0, 0, 0]]
    assert info["block_ba"] == [[0], [2]]
    assert not info["ab_zero"] and not info["ba_zero"]


def test_bundle_certificate_none_for_hexagonal_example():
    # no refinement of this pair shows a zero block at the only product
    # split, matching its known non-bundle structure
    assert validate(prism(6), HEX_PRISM_LAM)[0]
    assert _bundle_certificate(prism(6), HEX_PRISM_LAM) is None


def test_bundle_certificate_found_for_pieces():
    from qtm.charmat import refine

    p4 = prism(4)
    for rows in (HEX_PIECE_1, HEX_PIECE_2):
        assert validate(p4, CharMatrix(rows))[0]
        cert = _bundle_certificate(p4, CharMatrix(rows))
        assert cert is not None
        assert cert["ab_zero"] or cert["ba_zero"]
        # the certificate must reproduce under its own refinement
        refined = refine(p4, CharMatrix(rows), cert["vertex"])
        info = _split_blocks(refined, *cert["split"])
        assert info["ab_zero"] == cert["ab_zero"]
        assert info["ba_zero"] == cert["ba_zero"]


def test_bundle_certificate_none_without_product_splits():
    # a simplex has no product structure at all
    from qtm.polytope import simplex

    p = simplex(3)
    lam = CharMatrix([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], refined_at=(1, 2, 3))
    assert validate(p, lam)[0]
    assert _bundle_certificate(p, lam) is None


# ---------------------------------------------------------------------------
# prism decomposition


def test_decompose_hexagonal_prism_example():
    rep = decompose_prism(3, HEX_PRISM_LAM)
    assert rep.verdict == "decomposed"
    assert rep.detail == {
        "k": 3,
        "branch": "peel",
        "mirrored": False,
        "inner": {"k": 2, "branch": "peel", "mirrored": False},
    }
    assert len(rep.pieces) == 2
    assert rep.pieces[0].matrix.rows == HEX_PIECE_1
    assert rep.reassembly[0]["right_matrix"].rows == HEX_PIECE_2
    assert rep.reassembly[0]["left_edge"] == (4, 5)
    assert rep.reassembly[0]["right_edge"] == (2, 5)
    assert rep.reassembly[0]["verified"]
    for piece in rep.pieces:
        assert piece.string
        assert piece.bundle_type
        assert piece.certificate is not None
    # the normalization is the identity here: input already in normal form
    assert rep.moves == ()
    assert rep.normalized_matrix.rows == HEX_PRISM_LAM.rows


def test_decompose_hexagonal_prism_pieces_are_equivalent_bundles():
    # both pieces are equivalent, up to signs and symmetries of the
    # square prism, to the same twisted product
    p4 = prism(4)
    rep = decompose_prism(3, HEX_PRISM_LAM)
    want = canonical_key(p4, SQUARE_PRISM_BUNDLE, group="signs+automorphisms")
    for piece in rep.pieces:
        got = canonical_key(p4, piece.matrix, group="signs+automorphisms")
        assert got == want


def test_decompose_mirrored_hexagonal_prism():
    # reflecting the example across the 2|3 side plane lands in the
    # mirrored branch and yields the same pieces
    p6 = prism(6)
    perm = [0] * 9
    perm[1], perm[8] = 1, 8
    for x in range(2, 8):
        perm[x] = (3 - x) % 6 + 2
    mir = _moved(p6, HEX_PRISM_LAM, FacetPermutation(tuple(perm)))
    mir = _moved(p6, mir, RowBasisChange(((1, 0, 0), (0, 0, 1), (0, 1, 0))))
    assert validate(p6, mir)[0]
    rep = decompose_prism(3, CharMatrix(mir.rows))
    assert rep.verdict == "decomposed"
    assert rep.detail["mirrored"] is True
    assert rep.detail["branch"] == "peel"
    assert rep.pieces[0].matrix.rows == HEX_PIECE_1


def test_decompose_square_prism_is_irreducible():
    rep = decompose_prism(2, CharMatrix(HEX_PIECE_1))
    assert rep.verdict == "irreducible"
    assert len(rep.pieces) == 1
    assert rep.pieces[0].bundle_type
    assert rep.reassembly == ()


def test_decompose_colored_prism_clear_corner():
    rep = decompose_prism(3, COLORED_HEX_PRISM)
    assert rep.verdict == "irreducible"
    assert rep.detail["branch"] == "clear-corner-column"
    assert rep.pieces[0].certificate["split"] == ((1, 8), (2, 3, 4, 5, 6, 7))


def test_decompose_rigid_prism():
    rep = decompose_prism(3, RIGID_HEX_PRISM)
    assert rep.verdict == "irreducible"
    assert rep.detail["branch"] == "rigid-row"
    assert rep.pieces[0].certificate["split"] == ((1, 8), (2, 3, 4, 5, 6, 7))


def test_decompose_prism_rejects_non_string():
    p4 = prism(4)
    ok, _ = validate(p4, NON_STRING_SQUARE_PRISM)
    assert ok
    assert not is_string(p4, NON_STRING_SQUARE_PRISM)
    with pytest.raises(StructureError, match="^decompose_prism needs a string pair$"):
        decompose_prism(2, NON_STRING_SQUARE_PRISM)


def test_decompose_prism_rejects_bad_sizes():
    with pytest.raises(StructureError):
        decompose_prism(1, CharMatrix([[1, 0, 1], [0, 1, 1]]))


def test_decompose_prism_checks_the_shape_before_building_the_prism(monkeypatch):
    # prism(2k) keeps a (2k+2)-bit mask per vertex: a mismatched matrix
    # is refused from its shape alone, whatever k is
    built = []
    real = structure.prism

    def counting(n):
        built.append(n)
        if n > 6:
            raise AssertionError(f"prism({n}) built for a mismatched matrix")
        return real(n)

    monkeypatch.setattr(structure, "prism", counting)
    hexagonal = CharMatrix(HEX_PRISM_LAM.rows)
    for k, lam, shape in (
        (100000, hexagonal, "shape 3x8 does not match dim 3, facets 200002"),
        (4, hexagonal, "shape 3x8 does not match dim 3, facets 10"),
        (3, CharMatrix(HEX_PRISM_LAM.rows[:2]), "shape 2x8 does not match dim 3, facets 8"),
    ):
        with pytest.raises(CharMatrixError, match=f"^{shape}$"):
            decompose_prism(k, lam)
    assert built == []
    # the matching shape builds its prism and decomposes
    assert decompose_prism(3, hexagonal).verdict == "decomposed"
    assert built[0] == 6


def _scrambled(p, lam, rng):
    """lam after random unimodular row operations and column sign
    flips, as a file gives it: not refined."""
    cur = lam
    for _ in range(3):
        i, j = rng.sample(range(p.dim), 2)
        u = [[int(a == b) for b in range(p.dim)] for a in range(p.dim)]
        u[i][j] = rng.choice((-1, 1, 2))
        cur = _moved(p, cur, RowBasisChange(tuple(map(tuple, u))))
        cur = _moved(p, cur, ColumnSignFlip(rng.randint(1, p.num_facets)))
    return CharMatrix(cur.rows)


def _replayed(p, lam, moves):
    for mv in moves:
        lam = _moved(p, lam, mv)
    return lam


def test_decomposition_moves_replay_from_scrambled_inputs():
    # the recorded moves carry the input as given onto the normalized
    # matrix, through the prism mirror and Bott's relabeling too, each of
    # which refines again after its facet permutation: the string
    # survivors of prism(4), prism(6) and cube(3) at bound 2, and the
    # double-cube pairs
    rng = random.Random(2611)
    mirrored = relabeled = kinds = 0
    for k in (2, 3):
        p = prism(2 * k)
        survivors, _ = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "string"))
        for lam in survivors:
            given = _scrambled(p, lam, rng)
            rep = decompose_prism(k, given)
            assert _replayed(p, given, rep.moves).rows == rep.normalized_matrix.rows
            mirrored += rep.detail["mirrored"]
    assert mirrored > 0
    for p, lam in _double_cube_pairs():
        given = _scrambled(p, lam, rng)
        rep = decompose_cube_connsum(p, given)
        assert _replayed(p, given, rep.moves).rows == rep.normalized_matrix.rows
        kinds |= {type(mv) for mv in rep.moves} == {RowBasisChange, ColumnSignFlip}
    assert kinds
    p = cube(3)
    survivors, _ = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "string"))
    for lam in survivors:
        given = _scrambled(p, lam, rng)
        form = bott_triangularize(3, given)
        assert form.verdict == "triangular"
        assert _replayed(p, given, form.moves).rows == form.normalized.rows
        perms = [t for t, mv in enumerate(form.moves) if isinstance(mv, FacetPermutation)]
        if perms:
            # the permutation is followed by the row move that refines again
            (t,) = perms
            assert isinstance(form.moves[t + 1], RowBasisChange)
            relabeled += 1
    assert relabeled > 0


def test_decompositions_have_no_size_limit():
    # prism(16) = 16-gon x interval with the product matrix: one
    # bundle-type string piece, certified by the product split
    cyc = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cols = [(0, 0, 1)] + [cyc[i % 4] + (0,) for i in range(16)] + [(0, 0, 1)]
    rep = decompose_prism(8, CharMatrix([[c[r] for c in cols] for r in range(3)]))
    assert rep.verdict == "irreducible"
    (piece,) = rep.pieces
    assert piece.polytope.num_facets == 18 and piece.bundle_type and piece.string
    # cube(9) # cube(9) splits into two cube(9) pieces, each certified
    n = 9
    lam = CharMatrix([[int(i == j) for j in range(n)] * 2 for i in range(n)])
    c9 = cube(n)
    far, near = tuple(range(n + 1, 2 * n + 1)), tuple(range(1, n + 1))
    pair = equivariant_connected_sum(c9, lam, far, c9, lam, near)
    rep = decompose_cube_connsum(*pair)
    assert rep.verdict == "decomposed"
    assert [(pc.polytope.num_facets, pc.bundle_type) for pc in rep.pieces] == [(18, True), (18, True)]
    assert all(pc.certificate is not None for pc in rep.pieces)


def test_decompose_prism_random_string_walks():
    # walk inside the string stratum from the colored seed: every pair
    # reached decomposes or is irreducible, with string bundle pieces
    # throughout and verified reassembly steps
    p6 = prism(6)
    base = [list(r) for r in COLORED_HEX_PRISM.rows]
    verdicts = set()
    for t in range(20):
        rng = random.Random(5000 + t)
        rows = [r[:] for r in base]
        for _ in range(15):
            i = rng.randrange(3)
            j = rng.randrange(8)
            d = rng.choice((-1, 1))
            rows[i][j] += d
            lam = CharMatrix(rows)
            ok, _ = validate(p6, lam)
            if not (ok and is_string(p6, lam)):
                rows[i][j] -= d
        lam = CharMatrix(rows)
        rep = decompose_prism(3, lam)
        verdicts.add(rep.verdict)
        assert rep.verdict in ("decomposed", "irreducible")
        for piece in rep.pieces:
            assert piece.string
        for step in rep.reassembly:
            assert step["verified"]
    assert verdicts  # at least one walk ran; both verdicts commonly occur


def test_decomposition_report_serializes():
    rep = decompose_prism(3, HEX_PRISM_LAM)
    d = rep.to_dict()
    assert d["verdict"] == "decomposed"
    assert d["pieces"][0]["matrix"]["rows"] == [list(r) for r in HEX_PIECE_1]
    assert d["reassembly"][0]["operation"] == "edge-connected-sum"


# ---------------------------------------------------------------------------
# cube connected sum decomposition


def test_decompose_cube_connsum_round_trip():
    c3 = cube(3)
    big, biglam = equivariant_connected_sum(
        c3, CUBE_SUMMAND_A, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3)
    )
    assert big.num_facets == 9
    assert biglam.rows == (
        (1, -2, 2, 1, 0, 0, 1, 0, 0),
        (0, 1, -2, 0, 1, 0, 1, 1, 0),
        (0, 0, 1, 0, 0, 1, 1, 0, 1),
    )
    rep = decompose_cube_connsum(big, biglam)
    assert rep.verdict == "decomposed"
    assert rep.detail == {"seam_det": 1}
    assert rep.pieces[0].matrix.rows == (
        (1, 0, 0, 1, -2, 2),
        (0, 1, 0, 0, 1, -2),
        (0, 0, 1, 0, 0, 1),
    )
    assert rep.pieces[1].matrix.rows == CUBE_SUMMAND_B.rows
    assert rep.pieces[1].bundle_type
    step = rep.reassembly[0]
    assert step["operation"] == "connected-sum"
    assert step["row_basis_change"] == ((1, -2, 2), (0, 1, -2), (0, 0, 1))
    assert step["verified"]
    for piece in rep.pieces:
        assert piece.string


def test_decompose_cube_connsum_random_round_trips():
    # random string summands must come back as two string bundle pieces
    # with the far piece reproduced exactly
    c3 = cube(3)
    for t in range(12):
        rng = random.Random(7000 + t)
        la = random_valid_cube_matrix(rng, steps=20, keep=is_string)
        lb = random_valid_cube_matrix(rng, steps=20, keep=is_string)
        assert is_string(c3, la) and is_string(c3, lb)
        big, biglam = equivariant_connected_sum(c3, la, (4, 5, 6), c3, lb, (1, 2, 3))
        rep = decompose_cube_connsum(big, biglam)
        assert rep.verdict == "decomposed"
        assert rep.pieces[1].matrix.rows == lb.rows
        assert all(piece.string for piece in rep.pieces)


def test_decompose_cube_connsum_spin_not_string_obstruction():
    # a spin pair over the double cube sum whose seam block is not
    # unimodular: the decomposition refuses with the determinant
    fig = SimplePolytope(3, 9, SPIN_NOT_STRING_VERTS)
    ok, _ = validate(fig, SPIN_NOT_STRING_LAM)
    assert ok
    assert is_spin(fig, SPIN_NOT_STRING_LAM)
    assert not is_string(fig, SPIN_NOT_STRING_LAM)
    thm, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    isos = find_isomorphisms(fig, thm)
    assert len(isos) == 12
    iso = isos[0]
    rows = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        colv = SPIN_NOT_STRING_LAM.column(f)
        for i in range(3):
            rows[i][iso[f] - 1] = colv[i]
    relam = CharMatrix(rows)
    ok, _ = validate(thm, relam)
    assert ok
    rep = decompose_cube_connsum(thm, relam)
    assert rep.verdict == "not-applicable"
    assert abs(rep.detail["seam_det"]) == 3
    assert rep.detail["reason"] == "input is not string"
    assert rep.pieces == ()


def test_decompose_cube_connsum_rejects_plain_cube():
    lam = CharMatrix(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )
    with pytest.raises(StructureError):
        decompose_cube_connsum(cube(3), lam)


def test_decompose_cube_connsum_rejects_wrong_labeling():
    # relabel a genuine sum so the expected seam facets form a vertex
    thm, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    fig = SimplePolytope(3, 9, SPIN_NOT_STRING_VERTS)
    iso = find_isomorphisms(fig, thm)[0]
    rows = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        colv = SPIN_NOT_STRING_LAM.column(f)
        for i in range(3):
            rows[i][iso[f] - 1] = colv[i]
    relam = CharMatrix(rows)
    swap = {1: 4, 4: 1}
    vs = sorted(tuple(sorted(swap.get(f, f) for f in v)) for v in thm.vertices)
    bad_poly = SimplePolytope(3, 9, vs)
    bad_rows = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        colv = relam.column(f)
        g = swap.get(f, f)
        for i in range(3):
            bad_rows[i][g - 1] = colv[i]
    badlam = CharMatrix(bad_rows)
    ok, _ = validate(bad_poly, badlam)
    assert ok
    with pytest.raises(StructureError):
        decompose_cube_connsum(bad_poly, badlam)


def test_brute_force_guards_share_one_limit():
    # every brute-force search refuses size 17 with the same message
    big = polygon(17)
    with pytest.raises(PolytopeError, match="^isomorphism search is brute force, refusing size 17 > 16$"):
        find_isomorphisms(big, big)
    with pytest.raises(StructureError, match="^principal minor check is brute force, refusing size 17 > 16$"):
        dobrinskaya_normalize([[int(i == j) for j in range(17)] for i in range(17)])
    # the bundle certificate search has no size limit: a 17-gon is no product
    lam = CharMatrix([[1, 0] * 8 + [1], [0, 1] * 8 + [1]])
    assert validate(big, lam)[0]
    assert _bundle_certificate(big, lam) is None


# ---------------------------------------------------------------------------
# each pair validated once, each string verdict decided once


def _patch_everywhere(monkeypatch, name, wrapper):
    """Replace charmat.<name> under every qtm module binding of it."""
    real = getattr(charmat, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qtm") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper(real))


# HEX_PRISM_LAM with column 3 doubled: singular at the top corner {1,2,3}
SINGULAR_HEX_PRISM = CharMatrix(
    [
        [1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 2, 1, 1, 0, 1, 2],
    ]
)


@pytest.fixture
def validated(monkeypatch):
    """The (vertices, rows) of every pair validate sees, in call order."""
    calls = []

    def wrapper(real):
        def counting(p, lam):
            calls.append((p.vertices, lam.rows))
            return real(p, lam)
        return counting

    _patch_everywhere(monkeypatch, "validate", wrapper)
    return calls


def test_decompose_prism_validates_each_pair_once(validated):
    p4, p6 = prism(4), prism(6)
    perm = [0] * 9
    perm[1], perm[8] = 1, 8
    for x in range(2, 8):
        perm[x] = (3 - x) % 6 + 2
    mirrored = _moved(p6, HEX_PRISM_LAM, FacetPermutation(tuple(perm)))
    # the plain example, and its reflection, which takes the mirror moves
    for lam in (HEX_PRISM_LAM, CharMatrix(mirrored.rows)):
        del validated[:]
        rep = decompose_prism(3, lam)
        assert rep.verdict == "decomposed"
        # the input, the split-off piece, the remainder, then the glued matrix
        assert validated[:3] == [
            (p6.vertices, lam.rows),
            (p4.vertices, HEX_PIECE_1),
            (p4.vertices, rep.reassembly[0]["right_matrix"].rows),
        ]
        assert len(validated) == 4
    assert rep.detail["mirrored"] is True


def test_decompose_cube_connsum_validates_each_pair_once(validated):
    c3 = cube(3)
    big, biglam = equivariant_connected_sum(
        c3, CUBE_SUMMAND_A, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3)
    )
    del validated[:]
    rep = decompose_cube_connsum(big, biglam)
    assert rep.verdict == "decomposed"
    # the input, the cube piece, the far piece, then the glued matrix
    assert validated[:3] == [(big.vertices, biglam.rows)] + [
        (piece.polytope.vertices, piece.matrix.rows) for piece in rep.pieces
    ]
    assert len(validated) == 4


def test_decompositions_reject_invalid_input_before_any_move(monkeypatch):
    # a decomposition relabels its pair through `_moved` and refines it
    # through `_normalizing_moves` (every refine, row move and sign flip)
    p6 = prism(6)
    flipped = _moved(p6, HEX_PRISM_LAM, ColumnSignFlip(4))
    sheared = _moved(p6, HEX_PRISM_LAM, RowBasisChange(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    assert validate(p6, flipped)[0] and validate(p6, sheared)[0]
    c3 = cube(3)
    big, biglam = equivariant_connected_sum(
        c3, CUBE_SUMMAND_A, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3)
    )
    broken = CharMatrix([list(biglam.rows[0])] * 2 + [list(biglam.rows[2])])
    moves, normalized = [], []

    def moving(real):
        def recording(p, lam, move):
            moves.append(move)
            return real(p, lam, move)
        return recording

    def normalizing(real):
        def recording(p, lam, vertex, units=(), *rest):
            normalized.append((tuple(vertex), units))
            return real(p, lam, vertex, units, *rest)
        return recording

    _patch_everywhere(monkeypatch, "_moved", moving)
    _patch_everywhere(monkeypatch, "_normalizing_moves", normalizing)
    singular = SINGULAR_HEX_PRISM
    with pytest.raises(StructureError, match="singular"):
        decompose_prism(3, singular)
    with pytest.raises(StructureError, match="singular"):
        decompose_cube_connsum(big, broken)
    assert moves == [] and normalized == []
    # normalizing a valid pair records its sign flip and its row basis
    # change in the one pass of `_normalizing_moves`, neither through
    # `_moved`
    rep = decompose_prism(3, CharMatrix(flipped.rows))
    assert rep.moves == (ColumnSignFlip(4),) and ColumnSignFlip(4) not in moves
    assert normalized[0] == ((1, 2, 3), ((2, 4), (3, 7), (1, 8)))
    del moves[:], normalized[:]
    rep = decompose_prism(3, CharMatrix(sheared.rows))
    assert isinstance(rep.moves[0], RowBasisChange) and moves == []
    assert normalized[0] == ((1, 2, 3), ((2, 4), (3, 7), (1, 8)))


def test_public_entry_points_still_validate_their_inputs():
    # the four public entry points of `structure` validate their input
    # pairs; the edge sum and the bundle certificate are private cores
    # that only decompositions call, on pairs already validated
    c3 = cube(3)
    bad_cube = CharMatrix([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 2]])
    assert not validate(c3, bad_cube)[0]
    with pytest.raises(StructureError, match="singular"):
        equivariant_connected_sum(c3, CUBE_SUMMAND_A, (4, 5, 6), c3, bad_cube, (1, 2, 3))
    with pytest.raises(StructureError, match="singular"):
        equivariant_connected_sum(c3, bad_cube, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3))
    with pytest.raises(StructureError, match="singular"):
        bott_triangularize(3, bad_cube)
    with pytest.raises(StructureError, match="singular"):
        decompose_prism(3, SINGULAR_HEX_PRISM)
    big, biglam = equivariant_connected_sum(
        c3, CUBE_SUMMAND_A, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3)
    )
    broken = CharMatrix([list(biglam.rows[0])] * 2 + [list(biglam.rows[2])])
    with pytest.raises(StructureError, match="singular"):
        decompose_cube_connsum(big, broken)


def test_campaign_core_matches_the_public_decomposition():
    # the campaign hands each string-walk survivor to the private core
    # with its verdict; the report is the one the public function gives
    p = prism(6)
    survivors, _stats = harness.enumerate_matrices(harness.SearchSpec(p, 1, "signs", "string"))
    assert survivors
    for lam in survivors:
        core = structure._decompose_prism(p, 3, lam, string=True)
        assert core.to_dict() == decompose_prism(3, lam).to_dict()


def test_campaigns_decide_no_verdict_on_a_walk_survivor(monkeypatch):
    # every verdict the decompositions decide is on a piece or a
    # remainder, never on the searched polytope itself
    decided = []
    real = structure._refined_string

    def recording(p, rl):
        decided.append(p.num_facets)
        return real(p, rl)

    monkeypatch.setattr(structure, "_refined_string", recording)
    rep = harness.verify_claim("prism-decompose", {"k": 3, "bound": 1})
    assert rep.verdict == "verified" and rep.statistics["checked"] > 0
    assert decided and set(decided) == {6}
    del decided[:]
    rep = harness.verify_claim("cube-connsum", {"bound": 1})
    assert rep.verdict == "verified" and rep.statistics["checked"] > 0
    assert decided and set(decided) == {6}


# ---------------------------------------------------------------------------
# gluings built once per polytope, reports unchanged

# sha256 of the JSON list of DecompositionReport.to_dict(), keys sorted,
# pinned before the gluings were cached
REPORT_DIGESTS = {
    "double-cube": "88c6c26eb09de39deb8bb8563f9479c08af741d402dc996f1c5bd04a174f015d",
    "prism(4) bound 2": "cfbda28d81d984b5e45c98c2eb17bf1345f15dfb04b8a7a890078774c7cce492",
    "prism(6) bound 2": "49f3c480f139eb9e35696339496f919367fe06f501861b63d1a0eb47946917d3",
}


def _report_digest(reports) -> str:
    text = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _double_cube_pairs():
    """16 string pairs glued from the cube(3) bound-1 string classes, in
    product order, plus the spin-not-string pair: 17 pairs over one
    polytope."""
    c3 = cube(3)
    classes, _ = harness.enumerate_matrices(harness.SearchSpec(c3, 1, "signs", "string"))
    glued = itertools.islice(itertools.product(classes, repeat=2), 16)
    pairs = [
        equivariant_connected_sum(c3, a, (4, 5, 6), c3, b, (1, 2, 3))
        for a, b in glued
    ]
    fig = SimplePolytope(3, 9, SPIN_NOT_STRING_VERTS)
    big, _, _ = connected_sum(c3, (4, 5, 6), c3, (1, 2, 3))
    iso = find_isomorphisms(fig, big)[0]
    rows = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        col = SPIN_NOT_STRING_LAM.column(f)
        for i in range(3):
            rows[i][iso[f] - 1] = col[i]
    return pairs + [(big, CharMatrix(rows))]


def test_cached_gluings_keep_every_report():
    pairs = _double_cube_pairs()
    assert len({p for p, _lam in pairs}) == 1
    # twice: the first pass fills the gluing cache, the second reads it
    for _ in range(2):
        reports = [decompose_cube_connsum(p, lam) for p, lam in pairs]
        assert _report_digest(reports) == REPORT_DIGESTS["double-cube"]
    for k in (2, 3):
        p = prism(2 * k)
        survivors, _ = harness.enumerate_matrices(harness.SearchSpec(p, 2, "signs", "string"))
        reports = [decompose_prism(k, lam) for lam in survivors]
        assert _report_digest(reports) == REPORT_DIGESTS[f"prism({2 * k}) bound 2"]


def test_decompositions_build_each_gluing_once(monkeypatch):
    c3 = cube(3)
    big, biglam = equivariant_connected_sum(
        c3, CUBE_SUMMAND_A, (4, 5, 6), c3, CUBE_SUMMAND_B, (1, 2, 3)
    )
    built = []
    real = SimplePolytope.__init__

    def counting(self, dim, num_facets, vertices, name=""):
        built.append(num_facets)
        real(self, dim, num_facets, vertices, name)

    polytope._CACHE.clear()
    # the family shapes are cached too: build them before counting
    cube(3), prism(4), prism(6)
    monkeypatch.setattr(SimplePolytope, "__init__", counting)
    first = decompose_cube_connsum(big, biglam)
    again = decompose_cube_connsum(big, biglam)
    # the far side, then the reassembled sum, each built once
    assert built == [6, 9]
    far = first.pieces[1].polytope
    assert again.pieces[1].polytope is far
    assert far.name == "" and far == c3
    assert first.to_dict() == again.to_dict()
    del built[:]
    first = decompose_prism(3, HEX_PRISM_LAM)
    again = decompose_prism(3, HEX_PRISM_LAM)
    # the reassembled hexagonal prism, once; its pieces are family shapes
    assert built == [8]
    assert first.to_dict() == again.to_dict()
