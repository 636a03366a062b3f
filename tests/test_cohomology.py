"""Tests for degree-4 presentations, reduction, and class vectors.

Hand-worked expectations are spelled out next to each assertion; the
2x3 and 2x4 cases are small enough to expand on paper.
"""

import random

import pytest

from qtm import intlin
from qtm.charmat import CharMatrix, RowBasisChange, transform, refine
from qtm.cohomology import (
    CohomologyError,
    face_summary,
    greedy_basis,
    is_zero_in_h4,
    p1_vector,
    presentation_deg4,
    reduce_to_basis,
    w2_vector,
)
from qtm.polytope import cube, polygon, q_polytope, simplex

TRIANGLE = simplex(2)
SQUARE = polygon(4)
SQUARE_LAM = CharMatrix([[1, 0, -1, 0], [0, 1, 1, -1]], refined_at=(1, 2))
CUBE3 = cube(3)


def cube_family(x, y):
    return CharMatrix(
        [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )


def test_face_summary():
    fs = face_summary(q_polytope())
    assert fs.f_vector == (12, 18, 8, 1)
    assert fs.h_vector == (1, 5, 5, 1)
    assert len(fs.nonface_pairs) == 28 - 18


def test_presentation_triangle():
    # no nonface pairs: H^4 is free of rank 1 on the single square v3^2
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]], refined_at=(1, 2))
    pres = presentation_deg4(TRIANGLE, lam)
    assert pres.generators == ((3, 3),)
    assert pres.relations == []
    assert pres.quotient_rank == 1
    p1 = p1_vector(TRIANGLE, lam)
    assert p1 == {(3, 3): 3}
    assert reduce_to_basis(pres, p1, [(3, 3)]) == [3]
    assert not is_zero_in_h4(pres, p1)


def test_presentation_square():
    # free columns 3, 4; relations from the two diagonals:
    #   v1*v3 -> v3^2,  v2*v4 -> -v3*v4 + v4^2
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    assert pres.generators == ((3, 3), (3, 4), (4, 4))
    assert sorted(pres.relation_pairs) == [(1, 3), (2, 4)]
    assert pres.quotient_rank == 1
    # rho_3 = 3, rho_4 = 2, rho_34 = -2; in the quotient v3^2 = 0 and
    # v4^2 = v3*v4, so p1 collapses to (3*0 - 2 + 2) v3 v4 = 0
    p1 = p1_vector(SQUARE, SQUARE_LAM)
    assert p1 == {(3, 3): 3, (4, 4): 2, (3, 4): -2}
    assert reduce_to_basis(pres, p1, [(3, 4)]) == [0]
    assert is_zero_in_h4(pres, p1)
    # w2 has even coefficient only on column 4: sums are 0 and -1+1+1=...
    # column 3 sums to 0, column 4 to -1, so only column 3 blocks spin
    w2 = w2_vector(SQUARE, SQUARE_LAM)
    assert w2.get(3, 0) % 2 == 1 and w2.get(4, 0) % 2 == 0


def test_reduce_rejects_bad_basis():
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    # v3^2 is itself a relation, so it cannot serve as a basis monomial
    with pytest.raises(CohomologyError):
        reduce_to_basis(pres, {(3, 4): 1}, [(3, 3)])
    # v4^2 equals v3*v4 in the quotient, so it is a legitimate basis
    assert reduce_to_basis(pres, {(3, 4): 1}, [(4, 4)]) == [1]
    with pytest.raises(CohomologyError):
        reduce_to_basis(pres, {(9, 9): 1}, [(3, 4)])


def test_presentation_cube_family():
    # greedy keeps (4,4) exactly when the relation -v4^2 - x*v4*v6 maps
    # v4^2 to a primitive class, i.e. when |x| = 1
    expected_basis = {
        (0, 0): ((4, 5), (4, 6), (5, 6)),
        (0, 2): ((4, 5), (4, 6), (5, 6)),
        (1, 1): ((4, 4), (4, 5), (5, 5)),
        (-2, 3): ((4, 5), (4, 6), (5, 6)),
    }
    for (x, y), basis in expected_basis.items():
        lam = cube_family(x, y)
        pres = presentation_deg4(CUBE3, lam)
        assert len(pres.generators) == 6
        assert len(pres.relations) == 3
        assert pres.quotient_rank == 3
        # cross products of opposite-facet columns vanish identically
        # for this family: expand by hand to see each term cancel
        p1 = p1_vector(CUBE3, lam)
        assert reduce_to_basis(pres, p1, [(4, 5), (4, 6), (5, 6)]) == [0, 0, 0]
        assert is_zero_in_h4(pres, p1)
        assert greedy_basis(pres) == basis


def test_greedy_basis_square():
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    assert greedy_basis(pres) == ((3, 4),)


def test_zero_test_is_refinement_invariant():
    rng = random.Random(9)
    pent = polygon(5)
    lam = CharMatrix([[1, 0, -1, -1, 0], [0, 1, 1, 0, -1]], refined_at=(1, 2))
    for _ in range(10):
        u = [[1, rng.randint(-2, 2)], [0, 1]]
        lam = transform(pent, lam, RowBasisChange(tuple(map(tuple, u))))
        verdicts = []
        for v in pent.vertices:
            ref = refine(pent, lam, v)
            pres = presentation_deg4(pent, ref)
            verdicts.append(is_zero_in_h4(pres, p1_vector(pent, ref)))
        assert len(set(verdicts)) == 1


def test_presentation_requires_refined():
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(CohomologyError):
        presentation_deg4(TRIANGLE, lam)


def test_zero_test_raises_when_integral_and_rational_disagree(monkeypatch):
    # an explicit error, not an assert, so it also holds under python -O
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    p1 = p1_vector(SQUARE, SQUARE_LAM)
    assert is_zero_in_h4(pres, p1)
    monkeypatch.setattr(intlin, "in_row_span_q", lambda h, vec: False)
    with pytest.raises(CohomologyError):
        is_zero_in_h4(pres, p1)


def test_presentation_keeps_its_certifying_hnf():
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    assert pres._hnf is not None
    assert pres.hnf() is pres._hnf
    assert pres.hnf().rows == intlin.hermite_form(pres.relations).rows
