"""Acceptance gate: one test per shipped guarantee, eleven in all.

Run with -v to get a pass/fail line per criterion; each test also
prints a one-line summary with the key numbers.  Every comparison is
exact (integer or boolean); where a criterion carries a wall clock
budget the elapsed time is asserted too.  Fixtures are inlined so this
file stands alone: if a library change breaks a guarantee, the failure
shows up here regardless of what the unit suites do.
"""

import time

from qtm.charmat import CharMatrix, validate
from qtm.cohomology import greedy_basis, p1_vector, presentation_deg4, reduce_to_basis
from qtm.harness import SearchSpec, enumerate_matrices, verify_claim
from qtm.polytope import (
    SimplePolytope,
    connected_sum,
    cube,
    find_isomorphisms,
    polygon,
    prism,
    product,
    simplex,
)
from qtm.smallcover import (
    _refined,
    _refined_verdicts,
    simplex_product,
    validate_mod2,
    verify_simplex_product_criterion,
)
from qtm.stringcheck import (
    is_string,
    polygon_closed_form,
    q_prism_polytope,
)
from qtm.structure import decompose_cube_connsum, decompose_prism
from closed_form_oracle import q_prism_closed_form
from dj_oracle import substituted_relations
from smith_oracle import smith_invariant_factors
from spin_check import is_spin


def _pass(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


# --- shared fixtures --------------------------------------------------------

# complex projective plane: triangle with both free entries 1
CP2 = CharMatrix([[1, 0, 1], [0, 1, 1]], refined_at=(1, 2))

# string structure on the hexagonal prism; facet 1 top, 2..7 sides, 8 bottom
HEX_PRISM_LAM = CharMatrix(
    [
        [1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 2],
    ],
    refined_at=(1, 2, 3),
)

# the two square-prism pieces it must split into
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

# spin pair over a double cube connected sum whose seam block has
# determinant of absolute value 3: spin but not string
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

# string structure on C2(4) x C2(5); square facets 1, 2, 5, 6 and
# pentagon facets 3, 4, 7, 8, 9, both cyclic in that order
C45_LAM = CharMatrix(
    [
        [1, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1, 2, 2, 2],
        [0, 0, 1, 0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 1],
    ],
    refined_at=(1, 2, 3, 4),
)


def c45_polytope() -> SimplePolytope:
    base = product(polygon(4), polygon(5))
    relabel = {1: 1, 2: 2, 3: 5, 4: 6, 5: 3, 6: 4, 7: 7, 8: 8, 9: 9}
    verts = [tuple(sorted(relabel[f] for f in v)) for v in base.vertices]
    return SimplePolytope(4, 9, verts)


# string structure on Q x I^2; facets 1..8 from Q, pairs (9,11), (10,12)
Q_TIMES_SQUARE = CharMatrix(
    [
        [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 2, 2, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 2, 2, 1, 3, 0, 1, 0, 1],
    ],
    refined_at=(1, 2, 3, 9, 10),
)

# three string small covers: over C2(4) x C2(3), over I x Delta^2,
# and over I x Delta^3 x Delta^4
QUAD_TRI_MOD2 = CharMatrix(
    [
        [1, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 1, 1],
    ],
    refined_at=(1, 2, 5, 6),
)
INTERVAL_TRI_MOD2 = CharMatrix(
    [[1, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
    refined_at=(1, 3, 4),
)


def tower_mod2() -> CharMatrix:
    cols = {
        1: (1, 0, 0, 0, 0, 0, 0, 0),
        2: (1, 0, 0, 0, 0, 0, 0, 0),
        3: (0, 1, 0, 0, 0, 0, 0, 0),
        4: (0, 0, 1, 0, 0, 0, 0, 0),
        5: (0, 0, 0, 1, 0, 0, 0, 0),
        6: (0, 1, 1, 1, 0, 0, 0, 0),
        7: (0, 0, 0, 0, 1, 0, 0, 0),
        8: (0, 0, 0, 0, 0, 1, 0, 0),
        9: (0, 0, 0, 0, 0, 0, 1, 0),
        10: (0, 0, 0, 0, 0, 0, 0, 1),
        11: (1, 0, 1, 1, 1, 1, 1, 1),
    }
    rows = [[cols[j][i] for j in range(1, 12)] for i in range(8)]
    return CharMatrix(rows, refined_at=(1, 3, 4, 5, 7, 8, 9, 10))


def _p1_on_greedy_basis(p, lam):
    pres = presentation_deg4(p, lam)
    basis = greedy_basis(pres)
    return pres, basis, reduce_to_basis(pres, p1_vector(p, lam), basis)


def _relabeled_connsum_pair():
    """The spin-not-string matrix carried onto the standard double cube."""
    fig = SimplePolytope(3, 9, SPIN_NOT_STRING_VERTS)
    big, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    iso = find_isomorphisms(fig, big)[0]
    rows = [[0] * 9 for _ in range(3)]
    for f in range(1, 10):
        col = SPIN_NOT_STRING_LAM.column(f)
        for i in range(3):
            rows[i][iso[f] - 1] = col[i]
    return big, CharMatrix(rows)


# --- the criteria -----------------------------------------------------------


def test_criterion_01_projective_plane():
    # p_1 carries coefficient 3 on the single degree-4 generator, and
    # the manifold is not spin
    tri = polygon(3)
    ok, _ = validate(tri, CP2)
    assert ok
    _pres, basis, coeffs = _p1_on_greedy_basis(tri, CP2)
    assert basis == ((3, 3),)
    assert coeffs == [3]
    assert is_spin(tri, CP2) is False
    _pass(1, "p1 = 3 v^2 on the triangle, spin = false")


def test_criterion_02_polygon_closed_form_equals_engine():
    # every valid 2 x m matrix with entries up to 3, m = 3..7: the
    # per-edge closed form total matches the engine coefficient up to
    # sign, and total parity equals m
    budget = 300.0
    started = time.time()
    expected_classes = {3: 1, 4: 9, 5: 32, 6: 165, 7: 708}
    totals = {}
    for m in range(3, 8):
        p = polygon(m)
        survivors, _stats = enumerate_matrices(SearchSpec(p, 3, "signs", "valid"))
        for lam in survivors:
            _ls, total = polygon_closed_form(lam)
            assert total % 2 == m % 2, (m, lam.rows)
            _pres, basis, coeffs = _p1_on_greedy_basis(p, lam)
            assert len(basis) == 1 and len(coeffs) == 1
            assert abs(coeffs[0]) == abs(total), (m, lam.rows)
        assert len(survivors) == expected_classes[m]
        totals[m] = len(survivors)
    elapsed = time.time() - started
    assert elapsed <= budget
    _pass(2, f"classes checked per m: {totals}, {elapsed:.0f}s")


def test_criterion_03_polygon_parity_criterion():
    for m in (4, 6):
        rep = verify_claim("polygon-parity", {"m": m, "bound": 3})
        assert rep.verdict == "verified", (m, rep.to_dict())
    checked = rep.statistics["checked"]
    for m in (5, 7):
        rep = verify_claim("odd-gon-not-spin", {"m": m, "bound": 3})
        assert rep.verdict == "verified", (m, rep.to_dict())
        assert rep.statistics["survivors"] == 0
    _pass(3, f"even-gon parity test matches engine ({checked} hexagon classes), "
             "odd-gons have no spin matrix at bound 3")


def test_criterion_04_prism_decomposition():
    budget = 600.0
    started = time.time()
    # the hexagonal prism fixture splits into the two expected square
    # prism bundle pieces, and reassembly is re-verified
    p6 = prism(6)
    assert is_string(p6, HEX_PRISM_LAM)
    rep = decompose_prism(3, HEX_PRISM_LAM)
    assert rep.verdict == "decomposed"
    assert rep.pieces[0].matrix.rows == HEX_PIECE_1
    assert rep.reassembly[0]["right_matrix"].rows == HEX_PIECE_2
    assert all(piece.string and piece.bundle_type for piece in rep.pieces)
    assert all(step["verified"] for step in rep.reassembly)
    # exhaustive at bound 2 over both prisms: every string class either
    # splits or carries a bundle certificate, with string pieces
    counts = {}
    for k in (2, 3):
        claim = verify_claim("prism-decompose", {"k": k, "bound": 2})
        assert claim.verdict == "verified", claim.to_dict()
        counts[2 * k] = claim.statistics["checked"]
    assert counts == {4: 25, 6: 579}
    elapsed = time.time() - started
    assert elapsed <= budget
    _pass(4, f"hexagonal prism split reproduced; string classes {counts}, "
             f"{elapsed:.0f}s")


def test_criterion_05_cyclic_identities():
    for k in (3, 4, 5):
        rep = verify_claim("cyclic-identities", {"k": k, "trials": 10000})
        assert rep.verdict == "verified", rep.to_dict()
        assert rep.statistics == {"trials": 10000, "failures": 0}
    _pass(5, "S1 = 4 mod 8 and S2 = 0 in 10000 trials each for k = 3, 4, 5")


def test_criterion_06_cube_string_implies_bott():
    budget = 600.0
    started = time.time()
    counts = {}
    for n, bound in ((3, 2), (4, 1)):
        rep = verify_claim("cube-string-is-bott", {"n": n, "bound": bound})
        assert rep.verdict == "verified", rep.to_dict()
        counts[n] = rep.statistics["checked"]
    assert counts == {3: 25, 4: 43}
    # the two upper-triangular families are string through the engine,
    # matching the zero coefficients the closed form produces
    c3 = cube(3)
    for x, y in ((0, 0), (1, 1), (2, 0), (-1, 3)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        assert is_string(c3, lam) == ((x - y) % 2 == 0)
    for a, b in ((1, 1), (2, 2), (1, -2), (0, 3)):
        lam = CharMatrix(
            [[1, 0, 0, 1, 2 * a, a * b], [0, 1, 0, 0, 1, b], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )
        assert is_string(c3, lam) == ((a * b - b) % 2 == 0)
    elapsed = time.time() - started
    assert elapsed <= budget
    _pass(6, f"string cube classes all triangular: {counts}, "
             f"both families verified, {elapsed:.0f}s")


def test_criterion_07_snf_certificates():
    # the presentation constructor refuses any relation matrix that is
    # not a full-rank direct summand (invariant factors not all 1) or
    # whose quotient rank differs from h_2, so every matrix the other
    # criteria touch is certified on the fly; here the named fixtures
    # are certified explicitly
    pairs = [
        (polygon(3), CP2),
        (prism(6), HEX_PRISM_LAM),
        (c45_polytope(), C45_LAM),
        (q_prism_polytope(5), Q_TIMES_SQUARE),
        (cube(3), CharMatrix(
            [[1, 0, 0, 1, 0, 2], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
            refined_at=(1, 2, 3),
        )),
    ]
    rep = decompose_prism(3, HEX_PRISM_LAM)
    pairs.extend((piece.polytope, piece.matrix) for piece in rep.pieces)
    big, relam = _relabeled_connsum_pair()
    from qtm.stringcheck import refined_pair
    pairs.append((big, refined_pair(big, relam)))
    for m in (4, 5):
        p = polygon(m)
        survivors, _ = enumerate_matrices(SearchSpec(p, 2, "signs", "valid"))
        pairs.extend((p, lam) for lam in survivors)
    for p, lam in pairs:
        pres = presentation_deg4(p, lam)
        # the Smith form of the substituted relation rows, both test
        # oracles, independent of the quotient map that certified the
        # presentation
        relations = substituted_relations(p, lam)[1]
        assert smith_invariant_factors(relations) == [1] * len(relations)
        expected = p.h_vector()[2] if p.dim >= 2 else 0
        assert pres.quotient_rank == expected
    _pass(7, f"{len(pairs)} presentations certified: unit invariant factors, "
             "quotient rank = h_2")


def test_criterion_08_higher_dimensional_examples():
    p45 = c45_polytope()
    ok, _ = validate(p45, C45_LAM)
    assert ok
    assert is_string(p45, C45_LAM)
    q5 = q_prism_polytope(5)
    ok, _ = validate(q5, Q_TIMES_SQUARE)
    assert ok
    assert is_string(q5, Q_TIMES_SQUARE)
    closed = q_prism_closed_form(5, Q_TIMES_SQUARE)
    assert all(v == 0 for v in closed.values())
    _pass(8, "C2(4) x C2(5) and Q x I^2 structures are string; "
             "Q x I^2 closed form vanishes")


def test_criterion_09_mod2_impossibilities():
    budget = 300.0
    started = time.time()
    rep = verify_claim("c5xc5-not-spin")
    assert rep.verdict == "verified", rep.to_dict()
    assert rep.statistics["survivors"] == 0
    fired = 0
    for ns in ((2,), (3,), (4,), (2, 2), (1, 2), (2, 1, 1), (3, 2), (1, 1, 4)):
        claim = verify_claim("product-simplices-obstruction", {"ns": list(ns)})
        assert claim.verdict == "verified", claim.to_dict()
        assert claim.witnesses, ns
        fired += 1
    elapsed = time.time() - started
    assert elapsed <= budget
    _pass(9, f"no odd-column mod-2 matrix over C2(5) x C2(5); vertex-facet "
             f"obstruction fired for {fired} simplex products, {elapsed:.0f}s")


def test_criterion_10_cube_connected_sum():
    big, relam = _relabeled_connsum_pair()
    ok, _ = validate(big, relam)
    assert ok
    assert is_spin(big, relam)
    assert not is_string(big, relam)
    rep = decompose_cube_connsum(big, relam)
    assert rep.verdict == "not-applicable"
    assert abs(rep.detail["seam_det"]) == 3
    claim = verify_claim("cube-connsum", {"bound": 1})
    assert claim.verdict == "verified", claim.to_dict()
    assert claim.statistics["checked"] == 31
    _pass(10, "spin-not-string pair blocked by seam determinant 3; "
              "all 31 string classes at bound 1 decompose")


def test_criterion_11_small_covers():
    checks = [
        (product(polygon(4), polygon(3)), QUAD_TRI_MOD2),
        (product(simplex(1), simplex(2)), INTERVAL_TRI_MOD2),
        (simplex_product((1, 3, 4)), tower_mod2()),
    ]
    for p, lam in checks:
        assert validate_mod2(p, lam), p.name
        assert _refined_verdicts(p, _refined(p, lam))[1], p.name
    cases = 0
    for ns in ((2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3), (2, 4),
               (2, 5), (3, 3), (3, 4), (2, 2, 2), (2, 2, 3)):
        found = verify_simplex_product_criterion(ns)
        expected = all(x % 2 == 1 for x in ns) and any(x % 4 == 3 for x in ns)
        assert found == expected, ns
        cases += 1
    _pass(11, f"three fixture small covers are string; product criterion "
              f"confirmed on {cases} factor lists")
