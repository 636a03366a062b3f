"""Tests for degree-4 presentations, reduction, and class vectors.

Hand-worked expectations are spelled out next to each assertion; the
2x3 and 2x4 cases are small enough to expand on paper.
"""

import functools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qtm import cohomology, intlin, polytope
from qtm.charmat import CharMatrix, ColumnSignFlip, RowBasisChange, _moved, refine, validate
from qtm.cohomology import (
    CohomologyError,
    DegreeFourPresentation,
    basis_coefficients,
    greedy_basis,
    p1_vector,
    presentation_deg4,
    _certified_quotient_map,
    _read_off_quotient_map,
    _transposed_quotient_map,
    p1_vanishes,
    reduce_to_basis,
    relation_template,
    w2_vector,
)
from qtm.harness import SearchSpec, enumerate_matrices
from qtm.polytope import SimplePolytope, cube, polygon, prism, product, q_polytope, simplex
from qtm.stringcheck import q_prism_polytope, refined_pair
from dj_oracle import substituted_relations
from hnf_oracle import hermite_form, hermite_form_with_transform
from smith_oracle import spans_unit_summand
from unit_pivot_oracle import full_row_read_off, xgcd_unit_pivot_reduce

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/workloads.py, the pair-check pool)


def is_zero_in_h4(pres, expr) -> bool:
    """Is the class zero in the degree-4 quotient, i.e. q(expr) = 0?"""
    terms = pres.sparse_vector(expr).items()
    return not any(cohomology._image(pres.quotient_map, pres.quotient_rank, terms))


TRIANGLE = simplex(2)
SQUARE = polygon(4)
SQUARE_LAM = CharMatrix([[1, 0, -1, 0], [0, 1, 1, -1]], refined_at=(1, 2))
CUBE3 = cube(3)


def cube_family(x, y):
    return CharMatrix(
        [[1, 0, 0, 1, 0, x], [0, 1, 0, 0, 1, y], [0, 0, 1, 0, 0, 1]],
        refined_at=(1, 2, 3),
    )


@dataclass(frozen=True)
class FaceSummary:
    """Face counts of a polytope, read off its own queries."""

    f_vector: tuple  # (f_0, ..., f_{n-1}, 1): an (n-j)-face is a j-set of facets
    h_vector: tuple
    nonface_pairs: tuple


def face_summary(p: SimplePolytope) -> FaceSummary:
    return FaceSummary(
        f_vector=p.face_counts()[::-1],
        h_vector=p.h_vector(),
        nonface_pairs=tuple(p.nonface_pairs()),
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
    assert relation_template(TRIANGLE, (1, 2)).live_terms == ()
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
    relations = substituted_relations(SQUARE, SQUARE_LAM)[1]
    assert relations == [[1, 0, 0], [0, -1, 1]]
    _assert_onto_with_relation_kernel(pres, relations)
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
        # three opposite pairs, each with one base facet: three live rows
        assert len(relation_template(CUBE3, lam.refined_at).live_terms) == 3
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
        lam = _moved(pent, lam, RowBasisChange(tuple(map(tuple, u))))
        assert validate(pent, lam)[0]
        verdicts = []
        for v in pent.vertices:
            ref = refine(pent, lam, v)
            pres = presentation_deg4(pent, ref)
            verdicts.append(is_zero_in_h4(pres, p1_vector(pent, ref)))
        assert len(set(verdicts)) == 1


def test_template_rows_match_the_substitution():
    # a nonface pair of free facets gives the unit row of its dead
    # monomial; any other gives minus its live row plus terms on dead
    # monomials
    rng = random.Random(31)
    pairs = list(_search_pairs(DIFFERENTIAL_SEARCHES)) + [_q_times_square_pair(), _c45_pair()]
    for p, lam in pairs:
        rl = refine(p, lam, rng.choice(p.vertices))
        t, live_rows = _live_rows_of(p, rl)
        gens, rows = substituted_relations(p, rl)
        assert list(t.generators) == gens
        nonfaces = list(p.nonface_pairs())
        dead = {ab for ab in nonfaces if not set(ab) & set(rl.refined_at)}
        assert {g for g, c in zip(gens, t.gen_live) if c is None} == dead
        live_cols = [g for g, c in enumerate(t.gen_live) if c is not None]
        expected = []
        for ab, row in zip(nonfaces, rows):
            if ab in dead:
                assert row == [int(g == ab) for g in gens]
            else:
                expected.append([-row[g] for g in live_cols])
        assert live_rows == expected


def test_template_is_shared_by_equal_polytopes():
    t = relation_template(prism(6), (1, 2, 3))
    assert relation_template(prism(6), (1, 2, 3)) is t
    assert relation_template(prism(6), (1, 2, 7)) is not t
    # hexagonal prism at the top corner: the side pairs among the free
    # sides 4..7 that do not touch are dead, and every top-or-side pair
    # with a base facet leaves one live row
    dead = {(4, 6), (4, 7), (5, 7)}
    assert set(t.generators) - set(t.live) == dead
    assert len(t.live_terms) == 10 - len(dead)
    assert len(t.live) - len(t.live_terms) == t.quotient_rank == prism(6).h_vector()[2]


def test_template_keeps_its_checks(monkeypatch):
    # the base must be a vertex: then no nonface pair has two base facets
    with pytest.raises(CohomologyError, match="not at a vertex"):
        relation_template(SQUARE, (1, 3))
    # live rows that span no direct summand raise, as presentation_deg4
    # does: 2 v3^2 and 2 v4^2 leave torsion
    t = relation_template(SQUARE, (1, 2))
    with pytest.raises(CohomologyError, match="direct summand"):
        p1_vanishes(t, (None, (1, 0), (0, 1), (2, 0), (0, 2)))
    # a quotient rank off h_2 raises when the template is built
    monkeypatch.setattr(polytope, "_CACHE", {})
    # a square whose cached h-vector has h_2 = 2, not 1
    polytope._CACHE[("h-vector", SQUARE.vertices)] = (1, 2, 2)
    with pytest.raises(CohomologyError, match="h_2"):
        relation_template(SQUARE, (1, 2))
    with pytest.raises(CohomologyError, match="h_2"):
        presentation_deg4(SQUARE, SQUARE_LAM)
    assert not [key for key in polytope._CACHE if key[0] == "template"]


def test_presentation_requires_refined():
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(CohomologyError):
        presentation_deg4(TRIANGLE, lam)


def test_presentation_keeps_its_quotient_map():
    # the certificate is the quotient map of the live rows itself, built
    # once; the square has no dead monomial, so it covers every generator
    pres = presentation_deg4(SQUARE, SQUARE_LAM)
    t, rows = _live_rows_of(SQUARE, SQUARE_LAM)
    assert t.live == pres.generators
    assert pres.quotient_map == _certified_quotient_map(rows, len(t.live))
    # v3^2 and v2*v4's relation map to 0; v3*v4 = v4^2 spans the quotient
    assert pres.quotient_map == ((0,), (1,), (1,))


# ---------------------------------------------------------------------------
# the quotient map and the coefficient path built on it


def _hand_presentation(relations):
    gens = ((1, 1), (1, 2))
    return DegreeFourPresentation(
        generators=gens,
        quotient_rank=len(gens) - len(relations),
        quotient_map=_certified_quotient_map(relations, len(gens)),
        _gen_index={g: k for k, g in enumerate(gens)},
    )


def test_quotient_map_certificate():
    # 2 v1^2 = 0 leaves 2-torsion: the row (2, 0) is not primitive
    with pytest.raises(CohomologyError, match="direct summand"):
        _hand_presentation([[2, 0]])
    # dependent relations span no rank-2 summand
    with pytest.raises(CohomologyError, match="direct summand"):
        _hand_presentation([[1, 0], [1, 0]])
    # (2, 3) is primitive although it has no unit entry: gcd(2, 3) = 1
    pres = _hand_presentation([[2, 3]])
    (a,), (b,) = pres.quotient_map
    assert 2 * a + 3 * b == 0 and abs(a) == 3 and abs(b) == 2


def _assert_onto_with_relation_kernel(pres, relations):
    """q maps Z^N onto Z^h2 with kernel exactly the lattice of the
    relation rows."""
    q = pres.quotient_map
    assert len(q) == len(pres.generators)
    assert all(len(img) == pres.quotient_rank for img in q)
    assert _kernel_lattice_hnf(q) == hermite_form(relations).rows
    # onto Z^h2: the images have a unit-pivot HNF of full rank
    h = hermite_form([list(img) for img in q])
    assert h.rank == pres.quotient_rank and all(p == 1 for _, p in h.pivots)


def test_quotient_map_kernel_is_the_relation_lattice():
    # the relation rows come from the substitution oracle, not from the
    # template: the cube family at its base, and survivors refined at
    # random vertices
    rng = random.Random(77)
    pairs = [(CUBE3, cube_family(x, y)) for x, y in ((0, 0), (1, 1), (-2, 3))]
    sample = rng.sample(_search_pairs(CERTIFICATE_SEARCHES), 40)
    for p, lam in sample + [_q_times_square_pair(), _c45_pair()]:
        pairs.append((p, refine(p, lam, rng.choice(p.vertices))))
    for p, rl in pairs:
        pres = presentation_deg4(p, rl)
        relations = substituted_relations(p, rl)[1]
        for rel in relations:
            image = cohomology._image(pres.quotient_map, pres.quotient_rank, enumerate(rel))
            assert not any(image)
        _assert_onto_with_relation_kernel(pres, relations)


def test_reduce_on_the_triangle_identity_quotient():
    lam = CharMatrix([[1, 0, 1], [0, 1, 1]], refined_at=(1, 2))
    pres = presentation_deg4(TRIANGLE, lam)
    assert pres.quotient_map == ((1,),)
    assert greedy_basis(pres) == ((3, 3),)
    assert reduce_to_basis(pres, {(3, 3): -5}, [(3, 3)]) == [-5]
    assert reduce_to_basis(pres, {}, []) == []
    with pytest.raises(CohomologyError):
        reduce_to_basis(pres, {(3, 3): 1}, [])


def test_reduce_partial_and_empty_basis():
    pres = presentation_deg4(CUBE3, cube_family(0, 0))
    assert pres.quotient_rank == 3
    assert reduce_to_basis(pres, {(4, 5): 2}, [(4, 5)]) == [2]
    assert reduce_to_basis(pres, {(4, 5): 2, (5, 6): -1}, [(5, 6), (4, 5)]) == [-1, 2]
    with pytest.raises(CohomologyError):
        reduce_to_basis(pres, {(4, 6): 1}, [(4, 5)])
    # relations reduce to nothing over the empty basis; anything else
    # is outside its span
    rel = dict(zip(pres.generators, substituted_relations(CUBE3, cube_family(0, 0))[1][0]))
    assert reduce_to_basis(pres, rel, []) == []
    assert reduce_to_basis(pres, p1_vector(CUBE3, cube_family(0, 0)), []) == []
    with pytest.raises(CohomologyError):
        reduce_to_basis(pres, {(4, 5): 1}, [])


def test_reduce_keeps_its_errors():
    pres = presentation_deg4(CUBE3, cube_family(0, 0))
    with pytest.raises(CohomologyError, match="not a generator"):
        reduce_to_basis(pres, {(4, 5): 1}, [(1, 1)])
    with pytest.raises(CohomologyError, match="not independent"):
        reduce_to_basis(pres, {(4, 5): 1}, [(4, 5), (4, 5)])
    with pytest.raises(CohomologyError, match="not integral"):
        reduce_to_basis(pres, {(4, 5): Fraction(1, 2)}, [(4, 5)])
    with pytest.raises(CohomologyError, match="outside the span"):
        reduce_to_basis(pres, {(5, 6): 1}, [(4, 5)])
    with pytest.raises(CohomologyError, match="non-free"):
        reduce_to_basis(pres, {(1, 4): 1}, [(4, 5)])


def test_reduce_adds_split_coefficients_up_before_the_integrality_check():
    pres = presentation_deg4(CUBE3, cube_family(0, 0))
    half = Fraction(1, 2)
    # (4, 5) and (5, 4) name one generator: two halves make it integral,
    # and the coefficients come out as the exact Fractions they sum to
    out = reduce_to_basis(pres, {(4, 5): half, (5, 4): half}, [(4, 5)])
    assert out == [1] and all(type(x) is Fraction for x in out)
    out = reduce_to_basis(pres, {(4, 5): 3 * half, (5, 4): half, (5, 6): 2}, [(4, 5), (5, 6)])
    assert out == [2, 2] and all(type(x) is Fraction for x in out)
    # with several faults, the first check in order names one: the
    # basis, then the monomials, then integrality, then the span
    for expr, basis, message in (
        ({(1, 4): 1, (4, 5): half}, [(1, 1)], "not a generator"),
        ({(4, 5): half}, [(4, 5), (4, 5)], "not independent"),
        ({(4, 5): half, (1, 4): 1}, [(4, 5)], "non-free"),
        ({(1, 4): 1, (4, 5): half}, [(4, 5)], "non-free"),
        ({(5, 6): half}, [(4, 5)], "not integral"),
        ({(5, 6): 1, (4, 5): half}, [(4, 5)], "not integral"),
    ):
        with pytest.raises(CohomologyError, match=message):
            reduce_to_basis(pres, expr, basis)


# The stack-HNF versions the quotient map replaced: each stacks the
# relations with unit rows and reduces the whole stack, with the Smith
# form of the test oracle deciding the direct-summand test.


def _stack_greedy_basis(pres, relations):
    chosen = []
    rows = [list(r) for r in relations]
    for g in pres.generators:
        if len(chosen) == pres.quotient_rank:
            break
        row = [0] * len(pres.generators)
        row[pres._gen_index[g]] = 1
        cand = rows + [row]
        if not spans_unit_summand(cand):
            continue
        rows = cand
        chosen.append(g)
    if len(chosen) != pres.quotient_rank:
        raise CohomologyError("no monomial basis extends the relations")
    return tuple(chosen)


def _stack_reduce_to_basis(pres, relations, expr, basis):
    basis = [tuple(b) for b in basis]
    stack = [list(r) for r in relations]
    for b in basis:
        row = [0] * len(pres.generators)
        if b not in pres._gen_index:
            raise CohomologyError(f"{b} is not a generator monomial")
        row[pres._gen_index[b]] = 1
        stack.append(row)
    if not spans_unit_summand(stack):
        raise CohomologyError("basis is not independent and primitive")
    h, u = hermite_form_with_transform(stack)
    v = [0] * len(pres.generators)
    for g, x in pres.sparse_vector(expr).items():
        v[g] = x
    mult = [0] * h.rank
    for t, (row, (c, piv)) in enumerate(zip(h.rows, h.pivots)):
        if v[c] % piv:
            raise CohomologyError("expression is not integral over the basis")
        q = v[c] // piv
        mult[t] = q
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        raise CohomologyError("expression is outside the span of the basis")
    nrel = len(relations)
    return [sum(mult[t] * u[t][nrel + k] for t in range(h.rank)) for k in range(len(basis))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CohomologyError:
        return CohomologyError


def _c45_pair():
    base = product(polygon(4), polygon(5))
    relabel = {1: 1, 2: 2, 3: 5, 4: 6, 5: 3, 6: 4, 7: 7, 8: 8, 9: 9}
    p = SimplePolytope(4, 9, [tuple(sorted(relabel[f] for f in v)) for v in base.vertices])
    lam = CharMatrix([
        [1, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1, 2, 2, 2],
        [0, 0, 1, 0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 1],
    ])
    return p, lam


def _q_times_square_pair():
    return q_prism_polytope(5), CharMatrix([
        [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 2, 2, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 2, 2, 1, 3, 0, 1, 0, 1],
    ])


@functools.lru_cache(maxsize=None)
def _search_pairs(searches):
    pairs = []
    for p, bound, filt in searches:
        survivors, _stats = enumerate_matrices(SearchSpec(p, bound, "signs", filt))
        pairs.extend((p, lam) for lam in survivors)
    return tuple(pairs)


DIFFERENTIAL_SEARCHES = (
    (polygon(5), 2, "valid"),
    (polygon(6), 2, "valid"),
    (cube(3), 2, "valid"),
    (prism(4), 1, "valid"),
    (polygon(7), 1, "valid"),
    (prism(6), 1, "spin"),
)


def _random_basis_and_expr(pres, relations, rng):
    """A generator subset (repeats allowed) and a combination of some
    generators and relations, for comparing partial-basis outcomes."""
    gens = pres.generators
    basis = [rng.choice(gens) for _ in range(rng.randint(0, pres.quotient_rank + 1))]
    expr: dict = {}
    for b in rng.sample(gens, rng.randint(0, min(3, len(gens)))):
        expr[b] = expr.get(b, 0) + rng.randint(-3, 3)
    for rel in relations:
        c = rng.randint(-1, 1)
        for g, x in zip(gens, rel):
            if c and x:
                expr[g] = expr.get(g, 0) + c * x
    return basis, expr


def test_coefficients_match_the_stack_hnf_versions():
    pairs = list(_search_pairs(DIFFERENTIAL_SEARCHES)) + [_q_times_square_pair(), _c45_pair()]
    assert len(pairs) == 578
    rng = random.Random(404)
    for p, lam in pairs:
        rl = refined_pair(p, lam)
        pres = presentation_deg4(p, rl)
        rows = substituted_relations(p, rl)[1]
        basis = greedy_basis(pres)
        assert basis == _stack_greedy_basis(pres, rows)
        p1 = p1_vector(p, rl)
        assert reduce_to_basis(pres, p1, basis) == _stack_reduce_to_basis(pres, rows, p1, basis)
        partial, expr = _random_basis_and_expr(pres, rows, rng)
        assert _outcome(reduce_to_basis, pres, expr, partial) == _outcome(
            _stack_reduce_to_basis, pres, rows, expr, partial
        )


HYPOTHESIS_SEARCHES = (
    (polygon(5), 2, "valid"),
    (cube(3), 1, "valid"),
    (prism(4), 1, "valid"),
    (product(polygon(3), polygon(4)), 1, "valid"),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coefficients_match_the_stack_hnf_versions_on_random_pairs(data):
    pairs = _search_pairs(HYPOTHESIS_SEARCHES)
    p, lam = data.draw(st.sampled_from(pairs))
    for j in data.draw(st.sets(st.integers(1, p.num_facets))):
        lam = _moved(p, lam, ColumnSignFlip(j))
    assert validate(p, lam)[0]
    rl = refine(p, lam, data.draw(st.sampled_from(p.vertices)))
    pres = presentation_deg4(p, rl)
    rows = substituted_relations(p, rl)[1]
    assert greedy_basis(pres) == _stack_greedy_basis(pres, rows)
    p1 = p1_vector(p, rl)
    basis = greedy_basis(pres)
    assert reduce_to_basis(pres, p1, basis) == _stack_reduce_to_basis(pres, rows, p1, basis)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    partial, expr = _random_basis_and_expr(pres, rows, rng)
    assert _outcome(reduce_to_basis, pres, expr, partial) == _outcome(
        _stack_reduce_to_basis, pres, rows, expr, partial
    )


def test_basis_coefficients_match_greedy_basis_and_reduce_to_basis():
    """One elimination gives what greedy_basis and then reduce_to_basis
    give, on every class of polygon(6) bound 3 and prism(6) bound 1,
    refined at the walk's vertex and at the last vertex; where no
    monomial basis exists, both raise."""
    searches = ((polygon(6), 3, "valid"), (prism(6), 1, "valid"))
    pairs = _search_pairs(searches)
    assert len(pairs) == 165 + 920
    no_basis = 0
    for p, lam in pairs:
        for rl in (lam, refine(p, lam, p.vertices[-1])):
            pres = presentation_deg4(p, rl)
            p1 = p1_vector(p, rl)
            try:
                basis = greedy_basis(pres)
            except CohomologyError:
                no_basis += 1
                with pytest.raises(CohomologyError, match="no monomial basis"):
                    basis_coefficients(pres, p1)
                continue
            assert basis_coefficients(pres, p1) == (basis, reduce_to_basis(pres, p1, basis))
    # prism(6) classes refined at the bottom corner (6, 7, 8), where
    # the quotient has no monomial basis
    assert no_basis == 34


def _reference_greedy(pres):
    """The greedy walk before unit pivots: every accepted image is
    cleared by the xgcd chain over the rows below k."""
    d = pres.quotient_rank
    u = intlin.identity(d)
    chosen = []
    for g, img in zip(pres.generators, pres.quotient_map):
        k = len(chosen)
        if k == d:
            break
        nz = [(i, x) for i, x in enumerate(img) if x]
        if not nz:
            continue
        y = [sum(row[i] * x for i, x in nz) for row in u]
        if gcd(*y[k:]) != 1:
            continue
        work = [[yi] + row for yi, row in zip(y, u)]
        piv = next(i for i in range(k, d) if work[i][0])
        work[k], work[piv] = work[piv], work[k]
        for i in range(k + 1, d):
            if work[i][0]:
                work[k], work[i] = intlin.xgcd_rows(work[k], work[i], work[k][0], work[i][0])
        if work[k][0] < 0:
            work[k] = [-x for x in work[k]]
        for i in range(k):
            c = work[i][0]
            if c:
                work[i] = [x - c * z for x, z in zip(work[i], work[k])]
        u = [row[1:] for row in work]
        chosen.append(g)
    if len(chosen) != d:
        raise CohomologyError("no monomial basis extends the relations")
    return tuple(chosen), u


@functools.lru_cache(maxsize=None)
def _pair_check_pool():
    return tuple((p, lam) for _label, p, lam in workloads.pair_pool("full"))


def test_greedy_walk_matches_the_reference():
    """The same basis and the same final u as the xgcd-only walk, on
    every pair-check pool pair and every class of polygon(6) bound 3,
    prism(6) bound 1, cube(3) bound 1 and prism(4) bound 2; where no
    monomial basis exists, both raise."""
    pairs = (
        _pair_check_pool()
        + _search_pairs(((polygon(6), 3, "valid"), (prism(6), 1, "valid")))
        + _search_pairs(((cube(3), 1, "valid"), (prism(4), 2, "valid")))
    )
    assert len(pairs) == 53 + 165 + 920 + 404
    for p, lam in pairs:
        for rl in (refined_pair(p, lam), refine(p, lam, p.vertices[-1])):
            pres = presentation_deg4(p, rl)
            assert _outcome(cohomology._greedy, pres) == _outcome(_reference_greedy, pres)


@pytest.mark.parametrize(
    "images, basis",
    [
        # (2, 3) first at rank 2; (4, 6) then leaves y[1:] = 0
        (((2, 3), (0, 0), (4, 6), (1, 1), (5, 7), (0, 1)), ((1, 1), (2, 2))),
        # e_1, then (1, 2, 3) leaves y[1:] = (2, 3); (2, 4, 6) leaves 0
        (((1, 0, 0), (1, 2, 3), (2, 4, 6), (0, 1, 1), (0, 0, 1), (1, 1, 1)),
         ((1, 1), (1, 2), (2, 2))),
    ],
)
def test_greedy_walk_without_a_unit_entry(monkeypatch, images, basis):
    # y[k:] is primitive with no +-1 entry, so the xgcd chain runs
    gens = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    pres = DegreeFourPresentation(
        generators=gens,
        quotient_rank=len(images[0]),
        quotient_map=images,
        _gen_index={g: k for k, g in enumerate(gens)},
    )
    expected = _reference_greedy(pres)
    xgcd_calls = []
    xgcd_rows = intlin.xgcd_rows

    def counted(*args):
        xgcd_calls.append(args[2:])
        return xgcd_rows(*args)

    monkeypatch.setattr(intlin, "xgcd_rows", counted)
    assert cohomology._greedy(pres) == expected
    assert xgcd_calls
    got_basis, u = expected
    assert got_basis == basis
    # u inverts the kept images: u @ Q_S^T = I
    kept = [images[gens.index(b)] for b in basis]
    assert [[sum(map(mul, row, c)) for c in kept] for row in u] == intlin.identity(len(basis))


def test_basis_coefficients_keeps_the_greedy_basis_error():
    # q(e_1) = +-3 and q(e_2) = -+2: no monomial generates the quotient
    pres = _hand_presentation([[2, 3]])
    with pytest.raises(CohomologyError, match="no monomial basis"):
        basis_coefficients(pres, {(1, 1): 1})
    # the empty quotient: no basis and no coefficients
    pres = _hand_presentation([[1, 0], [0, 1]])
    assert basis_coefficients(pres, {(1, 1): 5}) == ((), [])


# ---------------------------------------------------------------------------
# the quotient map read off the unit-pivot reduction against the
# transposed one


def _kernel_lattice_hnf(q):
    """HNF rows of the lattice {x : sum_g x_g q(e_g) = 0}."""
    h, u = hermite_form_with_transform([list(img) for img in q])
    return hermite_form(u[h.rank:]).rows


def _live_rows_of(p, lam):
    t = relation_template(p, lam.refined_at)
    return t, cohomology._live_rows(t, cohomology.columns(lam))


def _live_path(p, lam):
    """(unit path taken on the live rows, their read-off or transposed
    map expanded with zeros on the dead generators)."""
    t, rows = _live_rows_of(p, lam)
    nlive = len(t.live)
    pivots = intlin.unit_pivot_reduce(rows)
    if pivots is None:
        live_q = _transposed_quotient_map(rows, nlive)
    else:
        live_q = _read_off_quotient_map(pivots, nlive)
    at = {g: c for c, g in enumerate(t.live)}
    zero = (0,) * t.quotient_rank
    return pivots is not None, tuple(
        live_q[at[g]] if g in at else zero for g in t.generators
    )


def _with_map(pres, q):
    return DegreeFourPresentation(
        generators=pres.generators,
        quotient_rank=pres.quotient_rank,
        quotient_map=q,
        _gen_index=pres._gen_index,
    )


CERTIFICATE_SEARCHES = (
    (prism(6), 1, "spin"),
    (prism(4), 2, "spin"),
    (cube(3), 2, "spin"),
    (polygon(6), 3, "valid"),
)


def _stuck_polygon7_pairs():
    """The valid polygon(7) classes at bound 3, refined at every vertex,
    whose live rows or substituted relation rows leave the unit-pivot
    reduction without a unit entry."""
    p = polygon(7)
    out = []
    for _p, lam in _search_pairs(((p, 3, "valid"),)):
        for v in p.vertices:
            rl = refine(p, lam, v)
            if (
                intlin.unit_pivot_reduce(_live_rows_of(p, rl)[1]) is None
                or intlin.unit_pivot_reduce(substituted_relations(p, rl)[1]) is None
            ):
                out.append((p, rl))
    return out


def test_read_off_quotient_map_kernel_is_the_relation_lattice():
    pairs = list(_search_pairs(CERTIFICATE_SEARCHES)) + _stuck_polygon7_pairs()
    paths = {True: 0, False: 0}
    rng = random.Random(505)
    for p, lam in pairs:
        pres = presentation_deg4(p, lam)
        rows = substituted_relations(p, lam)[1]
        unit, live_map = _live_path(p, lam)
        paths[unit] += 1
        assert pres.quotient_map == live_map
        _assert_onto_with_relation_kernel(pres, rows)
        # the transposed map of every relation row gives the same basis
        # and coefficients, whichever path the live rows took
        transposed = _transposed_quotient_map(rows, len(pres.generators))
        by_transposed = _with_map(pres, transposed)
        _assert_onto_with_relation_kernel(by_transposed, rows)
        basis = greedy_basis(pres)
        assert greedy_basis(by_transposed) == basis
        p1 = p1_vector(p, lam)
        assert reduce_to_basis(pres, p1, basis) == reduce_to_basis(by_transposed, p1, basis)
        assert is_zero_in_h4(pres, p1) == is_zero_in_h4(by_transposed, p1)
        partial, expr = _random_basis_and_expr(pres, rows, rng)
        assert _outcome(reduce_to_basis, pres, expr, partial) == _outcome(
            reduce_to_basis, by_transposed, expr, partial
        )
    # the search corpora never get stuck; 68 of the 124 polygon(7)
    # refinements send their live rows to the transposed fallback
    assert paths == {True: 391, False: 68}


def _in_order(pivots):
    return None if pivots is None else list(pivots.items())


def test_read_off_and_unit_pivots_equal_their_full_row_oracles():
    # on the live rows and on the substituted relation rows of every
    # pair the certificate searches and cube(4) at bound 1 reach: the
    # inline clear gives the pivots, their order and the rows of the
    # xgcd step, and the read-off on the rest columns gives the map of
    # the back substitution on whole rows, element for element
    unit_paths = 0
    for p, lam in _search_pairs(CERTIFICATE_SEARCHES + ((cube(4), 1, "valid"),)):
        t, live = _live_rows_of(p, lam)
        relations = substituted_relations(p, lam)[1]
        for rows, ngen in ((live, len(t.live)), (relations, len(t.generators))):
            pivots = intlin.unit_pivot_reduce(rows)
            assert _in_order(pivots) == _in_order(xgcd_unit_pivot_reduce(rows))
            if pivots is not None:
                unit_paths += 1
                assert _read_off_quotient_map(pivots, ngen) == full_row_read_off(pivots, ngen)
    assert unit_paths == 2 * (335 + 1245)


@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=5
        )
    )
)
# rows left with no unit entry, at once or after a clear: both get stuck
@example([[2, 3]])
@example([[1, 0], [1, 0]])
@example([[1, 2, 0], [3, 4, 2]])
def test_unit_pivot_reduce_equals_the_xgcd_oracle(rows):
    pivots = intlin.unit_pivot_reduce(rows)
    assert _in_order(pivots) == _in_order(xgcd_unit_pivot_reduce(rows))
    if pivots is not None:
        ngen = len(rows[0]) if rows else 0
        assert _read_off_quotient_map(pivots, ngen) == full_row_read_off(pivots, ngen)


def _dead_generators(p, pres):
    pairs = set(p.nonface_pairs())
    return [g for g in pres.generators if g[0] != g[1] and g in pairs]


def test_dead_generators_map_to_zero_and_stay_out_of_the_basis():
    dead_seen = 0
    for p, lam in _search_pairs(CERTIFICATE_SEARCHES):
        pres = presentation_deg4(p, lam)
        dead = _dead_generators(p, pres)
        dead_seen += len(dead)
        for g in dead:
            assert not any(pres.quotient_map[pres._gen_index[g]])
        assert not set(greedy_basis(pres)) & set(dead)
    assert dead_seen > 0


def _p1_by_columns(lam):
    """p1_vector by the per-column formula, one lam.column call per use."""
    v0 = set(lam.refined_at)
    free = [j for j in range(1, lam.m + 1) if j not in v0]
    out = {}
    for j in free:
        out[(j, j)] = sum(x * x for x in lam.column(j)) + 1
    for a, i in enumerate(free):
        for j in free[a + 1:]:
            rho_ij = 2 * sum(x * y for x, y in zip(lam.column(i), lam.column(j)))
            if rho_ij:
                out[(i, j)] = rho_ij
    return out


def test_p1_vector_matches_the_per_column_formula():
    pairs = _search_pairs(CERTIFICATE_SEARCHES)
    assert len(pairs) == 335
    for p, lam in pairs:
        assert list(p1_vector(p, lam).items()) == list(_p1_by_columns(lam).items())


def test_quotient_map_paths_on_hand_presentations(monkeypatch):
    import qtm.cohomology as cohomology

    fallbacks = []
    transposed_map = cohomology._transposed_quotient_map

    def counted(relations, ngen):
        fallbacks.append(relations)
        return transposed_map(relations, ngen)

    monkeypatch.setattr(cohomology, "_transposed_quotient_map", counted)
    # (1, 3): a unit entry, read off as q(e_1) = -3, q(e_2) = 1
    pres = _hand_presentation([[1, 3]])
    assert fallbacks == []
    assert pres.quotient_map == ((-3,), (1,))
    assert _kernel_lattice_hnf(pres.quotient_map) == [[1, 3]]
    assert greedy_basis(pres) == ((1, 2),)
    assert reduce_to_basis(pres, {(1, 1): 2}, [(1, 2)]) == [-6]
    assert is_zero_in_h4(pres, {(1, 1): 1, (1, 2): 3})
    assert not is_zero_in_h4(pres, {(1, 1): 1})
    # (2, 3): no unit entry, yet a direct summand; the map comes from
    # the stepwise fallback
    pres = _hand_presentation([[2, 3]])
    assert fallbacks == [[[2, 3]]]
    assert _kernel_lattice_hnf(pres.quotient_map) == [[2, 3]]
    assert is_zero_in_h4(pres, {(1, 1): -2, (1, 2): -3})
    # q(e_1) = +-3 and q(e_2) = -+2: neither monomial generates the quotient
    with pytest.raises(CohomologyError, match="no monomial basis"):
        greedy_basis(pres)
    # (2, 0) and a repeated (1, 0) get stuck, and the fallback raises
    for relations in ([[2, 0]], [[1, 0], [1, 0]]):
        with pytest.raises(CohomologyError):
            _hand_presentation(relations)
        assert fallbacks[-1] == relations
