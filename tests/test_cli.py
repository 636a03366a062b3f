"""End-to-end tests of the command line layer.

Commands run in-process through main(argv), except the closed-pipe
test, which needs a real process; every test checks both the JSON
payload and the exit code, since scripts branch on the latter.
Expected verdict values are pinned by the library test suites; what is
tested here is the plumbing: file parsing, output shape, exit codes.
"""

import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qtm
from qtm import charmat, cli, harness, polytope, stringcheck
from qtm.charmat import CharMatrix
from qtm.cli import main
from qtm.polytope import connected_sum, cube, polygon, prism, product


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# the one string class on the square at bound 1, and a non-string
# (indeed non-spin) triangle matrix: the projective plane
SQUARE_TWIST = [[1, 0, -1, 0], [0, 1, 0, -1]]
CP2 = [[1, 0, -1], [0, 1, -1]]

# string pair over the hexagonal prism, refined at the top corner
HEX_PRISM_LAM = [
    [1, 0, 0, 1, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 1, 0, 1, 2],
]

# the double cube sum of the connected-sum tests, a string pair over it
# and a valid pair glued to a non-spin summand
DOUBLE_CUBE, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
CONNSUM_STRING = [
    [1, -2, 2, 1, 0, 0, 1, 0, 0],
    [0, 1, -2, 0, 1, 0, 1, 1, 0],
    [0, 0, 1, 0, 0, 1, 1, 0, 1],
]
CONNSUM_NOT_STRING = [
    [1, -2, 2, 1, 0, 0, 1, 1, 0],
    [0, 1, -2, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1, 0, 0, 1],
]

# valid square-prism matrix whose p_1 does not vanish
NON_STRING_SQUARE_PRISM = [
    [1, 0, 0, -2, 0, -1],
    [0, 1, 0, 1, -2, 0],
    [0, 0, 1, -1, 1, 0],
]


def test_construct_polygon_round_trips(tmp_path, capsys):
    out = str(tmp_path / "p.json")
    code, d = _run(capsys, ["construct", "polygon", "5", "--out", out])
    assert code == 0
    assert d == polygon(5).to_dict()
    assert json.loads((tmp_path / "p.json").read_text()) == d


def test_construct_product_of_two_files(tmp_path, capsys):
    a = _write(tmp_path, "a.json", polygon(4).to_dict())
    b = _write(tmp_path, "b.json", polygon(3).to_dict())
    code, d = _run(capsys, ["construct", "product", a, b])
    assert code == 0
    assert d == product(polygon(4), polygon(3)).to_dict()


def test_construct_usage_errors(tmp_path, capsys):
    assert main(["construct", "polygon"]) == 2
    assert main(["construct", "polygon", "x"]) == 2
    assert main(["construct", "q", "3"]) == 2
    assert main(["construct", "product", "only-one.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, family",
    [
        (["construct", "cube", "-1"], "cube"),
        (["construct", "simplex", "-1"], "simplex"),
        (["construct", "simplex", "0"], "simplex"),
        (["verify", "cube-string-is-bott", "--n", "-1"], "cube"),
    ],
    ids=["cube", "simplex", "simplex-zero", "cube-claim"],
)
def test_family_size_below_one_names_the_family(capsys, argv, family):
    # these printed Python's own text: "negative shift count", "r must
    # be non-negative", "impossible dimensions"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {family} needs dimension n >= 1")


def test_validate_exit_codes(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(4).to_dict())
    good = _write(tmp_path, "good.json", {"rows": SQUARE_TWIST})
    bad = _write(tmp_path, "bad.json", {"rows": [[1, 0, 1, 0], [0, 1, 0, 2]]})
    code, d = _run(capsys, ["validate", "-p", p, "-m", good])
    assert (code, d) == (0, {"valid": True, "bad_vertex": None})
    code, d = _run(capsys, ["validate", "-p", p, "-m", bad])
    assert code == 1
    assert d["valid"] is False and d["bad_vertex"] == [1, 4]


def test_validate_mod2(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    m = _write(
        tmp_path, "m.json", {"rows_mod2": [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]}
    )
    code, d = _run(capsys, ["validate", "--mod2", "-p", p, "-m", m])
    assert (code, d) == (0, {"valid": True})


def test_classes_projective_plane(tmp_path, capsys):
    # p_1 = 3 v^2 on one generator, and the manifold is not spin
    p = _write(tmp_path, "p.json", polygon(3).to_dict())
    m = _write(tmp_path, "m.json", {"rows": CP2})
    code, d = _run(capsys, ["classes", "-p", p, "-m", m])
    assert code == 0
    assert d == {
        "spin": False,
        "p1_basis": [[3, 3]],
        "p1_coeffs": [3],
        "h_vector": [1, 1, 1],
        "snf_ok": True,
    }


@pytest.mark.parametrize("poly, rows, expected", [
    (prism(6), HEX_PRISM_LAM, {
        "spin": True,
        "p1_basis": [[4, 5], [4, 8], [5, 8], [6, 8], [7, 8]],
        "p1_coeffs": [0, 0, 0, 0, 0],
        "h_vector": [1, 5, 5, 1],
        "snf_ok": True,
    }),
    (prism(4), NON_STRING_SQUARE_PRISM, {
        "spin": False,
        "p1_basis": [[4, 5], [4, 6], [5, 6]],
        "p1_coeffs": [14, 0, 0],
        "h_vector": [1, 3, 3, 1],
        "snf_ok": True,
    }),
])
def test_classes_validates_its_pair_once(tmp_path, capsys, monkeypatch, poly, rows, expected):
    calls = []
    checked = stringcheck.validate

    def counted(p, lam):
        calls.append(lam)
        return checked(p, lam)

    monkeypatch.setattr(stringcheck, "validate", counted)
    p = _write(tmp_path, "p.json", poly.to_dict())
    m = _write(tmp_path, "m.json", {"rows": rows})
    code, d = _run(capsys, ["classes", "-p", p, "-m", m])
    assert (code, d) == (0, expected)
    assert len(calls) == 1


def test_check_string_square_twist_is_string(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(4).to_dict())
    m = _write(tmp_path, "m.json", {"rows": SQUARE_TWIST})
    code, d = _run(capsys, ["check-string", "-p", p, "-m", m])
    assert code == 0
    assert d["spin"] and d["string"]
    assert d["method"] == "closed-form"
    assert d["coefficients"] == [{"monomial": [1, 2], "coeff": 0}]


def test_check_string_projective_plane_fails(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(3).to_dict())
    m = _write(tmp_path, "m.json", {"rows": CP2})
    code, d = _run(capsys, ["check-string", "-p", p, "-m", m])
    assert code == 1
    assert d["spin"] is False and d["string"] is False
    assert d["coefficients"] == [{"monomial": [1, 2], "coeff": 3}]


def test_check_string_cube_uses_closed_form(tmp_path, capsys):
    p = _write(tmp_path, "p.json", cube(3).to_dict())
    rows = [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    m = _write(tmp_path, "m.json", {"rows": rows})
    code, d = _run(capsys, ["check-string", "-p", p, "-m", m])
    assert code == 0
    assert d["method"] == "closed-form"
    assert {tuple(c["monomial"]) for c in d["coefficients"]} == {
        (4, 5), (4, 6), (5, 6)
    }
    assert all(c["coeff"] == 0 for c in d["coefficients"])


def test_check_string_general_method_off_family(tmp_path, capsys):
    # a 4-dimensional product polytope has no closed form; the general
    # engine reports p_1 in the greedy monomial basis
    p = _write(tmp_path, "p.json", product(polygon(3), polygon(3)).to_dict())
    rows = [
        [1, 0, -1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, -1],
        [0, 0, 0, 0, 1, -1],
    ]
    m = _write(tmp_path, "m.json", {"rows": rows})
    code, d = _run(capsys, ["check-string", "-p", p, "-m", m])
    assert code == 1
    assert d["method"] == "general"
    assert d["spin"] is False
    # two projective-plane factors: p_1 = 3 v_3^2 + 3 v_6^2 on the
    # h_2 = 3 greedy basis monomials
    assert d["coefficients"] == [
        {"monomial": [3, 3], "coeff": 3},
        {"monomial": [3, 6], "coeff": 0},
        {"monomial": [6, 6], "coeff": 3},
    ]


C4XC4_GENERAL = {
    # not spin although p_1 = 0: the verdict needs spin
    "not-spin": (
        [
            [1, 0, -1, 0, 0, 0, 0, 0],
            [0, 1, -1, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 1, 0, -1, 0],
            [0, 0, -1, 0, 0, 1, 0, -1],
        ],
        False,
        [[3, 4], [3, 7], [3, 8], [4, 7], [4, 8], [7, 8]],
        [0, 0, 0, 0, 0, 0],
    ),
    # spin, and p_1 is 4 v_3^2 alone: the verdict needs every coefficient
    "first-coefficient": (
        [
            [1, 0, -1, 0, 0, 0, 0, -1],
            [0, 1, -1, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 1, 0, -1, 1],
            [0, 0, 0, 0, 0, 1, 0, -1],
        ],
        True,
        [[3, 3], [3, 4], [3, 7], [4, 7], [4, 8], [7, 7]],
        [4, 0, 0, 0, 0, 0],
    ),
}


@pytest.mark.parametrize("case", sorted(C4XC4_GENERAL))
def test_check_string_general_verdict_is_spin_and_zero_coefficients(tmp_path, capsys, case):
    rows, spin, basis, coeffs = C4XC4_GENERAL[case]
    p = _write(tmp_path, "p.json", product(polygon(4), polygon(4)).to_dict())
    m = _write(tmp_path, "m.json", {"rows": rows})
    code, d = _run(capsys, ["check-string", "-p", p, "-m", m])
    assert code == 1
    assert (d["spin"], d["string"], d["method"]) == (spin, False, "general")
    assert d["coefficients"] == [
        {"monomial": b, "coeff": c} for b, c in zip(basis, coeffs)
    ]


# scrambled (unrefined, sign-flipped) inputs to the three closed forms
CLOSED_FORM_REQUESTS = {
    "polygon": (polygon(5), [[1, 0, -1, -1, 0], [0, 1, 1, 0, -1]]),
    "cube": (cube(3), [[1, 1, 0, -1, 1, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, 0, 1]]),
    # the hexagonal-prism string pair with columns 2, 4 and 8 negated
    # and row 2 added to row 1: its normal form flips column 8 back
    "prism": (prism(6), [
        [1, -1, 0, -2, 0, 1, 0, -1],
        [0, -1, 0, -1, 0, 1, 0, 0],
        [0, 0, 1, -1, 1, 0, 1, -2],
    ]),
}


def _closed_form_reference(family, p, rows):
    # the closed forms on the matrix as read, not on its refine at the
    # first vertex, which is where check-string starts
    lam = CharMatrix(rows)
    if family == "polygon":
        return [{"monomial": [1, 2], "coeff": stringcheck.polygon_closed_form(lam)[1]}]
    stringcheck._checked(p, lam)
    if family == "cube":
        c = stringcheck._cube_closed_form(3, charmat.refine(p, lam, (1, 2, 3)))
        return [{"monomial": list(b), "coeff": c[b]} for b in stringcheck.cube_basis(3)]
    c = stringcheck._prism_closed_form(3, stringcheck._prism_normal_form(p, 3, lam)[1])
    return [{"monomial": list(b), "coeff": c[b]} for b in stringcheck.prism_basis(3)]


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_REQUESTS))
def test_check_string_closed_form_validates_once(tmp_path, capsys, monkeypatch, family):
    p, rows = CLOSED_FORM_REQUESTS[family]
    expected = _closed_form_reference(family, p, rows)
    pf = _write(tmp_path, "p.json", p.to_dict())
    mf = _write(tmp_path, "m.json", {"rows": rows})
    # the family polytopes live in the package cache: empty it so the
    # request builds its family polytope whatever ran before
    monkeypatch.setattr(polytope, "_CACHE", {})
    calls = {"validate": 0, "polytope": 0}
    validate = charmat.validate

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    init = polytope.SimplePolytope.__init__

    def counting_init(self, *args, **kwargs):
        calls["polytope"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(stringcheck, "validate", counting_validate)
    monkeypatch.setattr(charmat, "validate", counting_validate)
    monkeypatch.setattr(polytope.SimplePolytope, "__init__", counting_init)
    code, d = _run(capsys, ["check-string", "-p", pf, "-m", mf])
    assert code in (0, 1)
    assert d["method"] == "closed-form"
    assert d["coefficients"] == expected
    # one validation in refined_pair; one polytope read from the file
    # and one built to compare its labeling with the family's
    assert calls == {"validate": 1, "polytope": 2}


def test_enumerate_square_string(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(4).to_dict())
    code, d = _run(
        capsys, ["enumerate", "-p", p, "--bound", "1", "--filter", "string"]
    )
    assert code == 0
    assert d["survivors"] == [{"rows": SQUARE_TWIST}]
    assert d["statistics"]["survivors"] == 1
    assert {"lex_prunes", "parity_prunes"} <= set(d["statistics"])


def test_enumerate_mod2(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    code, d = _run(
        capsys, ["enumerate", "-p", p, "--mod2", "--filter", "string"]
    )
    assert code == 0
    assert d["survivors"] == [
        {"rows_mod2": [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]}
    ]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--mod2", "--bound", "2"], "bound 1 only, got 2"),
        (["--mod2", "--bound", "-3"], "bound 1 only, got -3"),
        (["--max-seconds", "nan"], "NaN"),
        # a node cap below zero stopped the walk after one node, exit 3
        (["--max-nodes", "-1"], "max_nodes must be at least 0, got -1"),
        (["--max-seconds", "-0.5"], "max_seconds must be at least 0, got -0.5"),
    ],
    ids=["mod2-bound-2", "mod2-bound-negative", "nan-seconds", "negative-nodes",
         "negative-seconds"],
)
def test_enumerate_refuses_budgets_it_cannot_honour(tmp_path, capsys, argv, named):
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    assert main(["enumerate", "-p", p, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


def test_enumerate_refuses_automorphisms_it_cannot_search(tmp_path, capsys):
    # 17 facets is past the brute-force automorphism guard: a usage
    # error before the walk, not a node budget spent on a search that
    # could never finish
    p = _write(tmp_path, "p17.json", polygon(17).to_dict())
    argv = ["enumerate", "-p", p, "--dedup", "signs+automorphisms", "--max-nodes", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "refusing size 17 > 16" in captured.err
    assert "Traceback" not in captured.err


def test_enumerate_refuses_a_value_table_past_the_limit(tmp_path, capsys):
    # 121**4 column values would be tabulated before any cap is read:
    # a usage error as the search is specified
    p = _write(tmp_path, "cube4.json", cube(4).to_dict())
    assert main(["enumerate", "-p", p, "--bound", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "over the limit of 262144" in captured.err
    assert "Traceback" not in captured.err


def test_verify_refuses_a_dimension_past_the_printable_count(capsys):
    # 5**7000 column values: the message printed the count itself and
    # failed on Python's limit of 4300 digits for int-to-str conversion
    assert main(["verify", "cube-string-is-bott", "--n", "7000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entry bound 2 in dimension 7000 ")
    assert "Exceeds the limit" not in captured.err and "Traceback" not in captured.err


def test_enumerate_time_cap_of_zero_exits_3(tmp_path, capsys):
    p = _write(tmp_path, "p5.json", polygon(5).to_dict())
    code, d = _run(capsys, ["enumerate", "-p", p, "--bound", "2", "--max-seconds", "0"])
    assert code == 3
    assert d["error"] == "time budget exhausted" and d["statistics"]["nodes"] == 1


def test_enumerate_resource_cap_exits_3(tmp_path, capsys):
    p = _write(tmp_path, "p.json", cube(3).to_dict())
    code, d = _run(
        capsys, ["enumerate", "-p", p, "--bound", "2", "--max-nodes", "100"]
    )
    assert code == 3
    assert "statistics" in d and d["statistics"]["nodes"] == 101


def test_decompose_prism_string_pair(tmp_path, capsys):
    m = _write(tmp_path, "m.json", {"rows": HEX_PRISM_LAM})
    code, d = _run(capsys, ["decompose", "prism", "-k", "3", "-m", m])
    assert code == 0
    assert d["verdict"] == "decomposed"
    assert len(d["pieces"]) == 2
    assert all(step["verified"] for step in d["reassembly"])


def test_decompose_prism_rejects_non_string(tmp_path, capsys):
    # the prism splitter demands a string pair up front, so a valid but
    # non-string matrix is refused as unusable input
    m = _write(tmp_path, "m.json", {"rows": NON_STRING_SQUARE_PRISM})
    assert main(["decompose", "prism", "-k", "2", "-m", m]) == 2
    err = capsys.readouterr().err
    assert "string" in err


def test_decompose_prism_refuses_a_mismatched_shape_before_building(tmp_path, capsys, monkeypatch):
    # a 3x8 matrix with -k 100000: refused from its shape, exit 2, and
    # prism(200000) is never built
    from qtm import structure

    def refuse(n):
        raise AssertionError(f"prism({n}) built for a mismatched matrix")

    monkeypatch.setattr(structure, "prism", refuse)
    m = _write(tmp_path, "m.json", {"rows": HEX_PRISM_LAM})
    assert main(["decompose", "prism", "-k", "100000", "-m", m]) == 2
    err = capsys.readouterr().err
    assert err == "error: shape 3x8 does not match dim 3, facets 200002\n"


def test_decompose_cube_connsum_round_trip(tmp_path, capsys):
    p = _write(tmp_path, "p.json", DOUBLE_CUBE.to_dict())
    m = _write(tmp_path, "m.json", {"rows": CONNSUM_STRING})
    code, d = _run(capsys, ["decompose", "cube-connsum", "-p", p, "-m", m])
    assert code == 0
    assert d["verdict"] == "decomposed"
    assert len(d["pieces"]) == 2


def test_decompose_cube_connsum_non_string_exits_1(tmp_path, capsys):
    # glue a string summand to a non-spin one: valid, but no splitting
    p = _write(tmp_path, "p.json", DOUBLE_CUBE.to_dict())
    m = _write(tmp_path, "m.json", {"rows": CONNSUM_NOT_STRING})
    code, d = _run(capsys, ["decompose", "cube-connsum", "-p", p, "-m", m])
    assert code == 1
    assert d["verdict"] == "not-applicable"
    assert d["detail"]["reason"] == "input is not string"


# case -> (argv, matrix rows for "{m}", exit code, sha256 of the printed
# reply); the digest covers key order and indentation, with the two
# version strings masked.  A report from a search has its clock frozen,
# so "elapsed" prints as 0.0
REPLY_PINS = {
    "decompose-prism-hex": (
        ["decompose", "prism", "-k", "3", "-m", "{m}"], HEX_PRISM_LAM, 0,
        "330d2f01e3837086faf3e5ce51478b0613d22eaecc043b95f86a9be05a67cd16",
    ),
    "decompose-connsum-string": (
        ["decompose", "cube-connsum", "-p", "{p}", "-m", "{m}"], CONNSUM_STRING, 0,
        "ad14322eee03628a5d7dfa12ebbe9b9ad297465947e5999015a8d7b29fbc694c",
    ),
    "decompose-connsum-not-string": (
        ["decompose", "cube-connsum", "-p", "{p}", "-m", "{m}"], CONNSUM_NOT_STRING, 1,
        "fadf05a788390979605ddfbcc1f9bb944ae8ab56827f05bc3cb17ac94652518b",
    ),
    "verify-connsum": (
        ["verify", "cube-connsum", "--bound", "1"], None, 0,
        "93eb81d07063e2f87ff14849ba48e128b33ad4f6198d00453416afa915a71460",
    ),
    "verify-simplices-obstruction": (
        ["verify", "product-simplices-obstruction", "--ns", "2,3"], None, 0,
        "754c642ee65545d93b5b0053ff9b1cf1432ee249bcb57cdca8c37db0353879bf",
    ),
    "verify-bott-capped": (
        ["verify", "cube-string-is-bott", "--max-nodes", "1"], None, 3,
        "456c5a7b8e1c8930c475d0da88153e58ddf02483eb001e428386aea840a12def",
    ),
}

# claim -> (exit code, sha256 of the `qtm verify <claim>` reply with no
# parameter and no cap), masked as above: every default is pinned
DEFAULT_CLAIM_PINS = {
    "c5xc5-not-spin": (0, "fd93b318f7c456dfee80b2be9eafc66df4f5a9e13af540580cc50a6d9f9f9177"),
    "cube-connsum": (0, "0f81d5ae3163df9fb8c7d9f9f4a824a0061169acbc278560a8f3b64b893a6659"),
    "cube-string-is-bott": (0, "7899fd4295cafb298176d20afc3560830e407468be23868806fc116e16211624"),
    "cyclic-identities": (0, "277da02360ba439ba002437e9f3f0be5a8910aa94ef9bc44511575ef2a21bf18"),
    "odd-gon-not-spin": (0, "32bc7c26194bfba2984ce4b519f9c2217bfbb37de761de311017aa73e9f36c86"),
    "polygon-bordism-parity": (
        0, "5847f941e39eca6b0247c2a1baf545eeeb99a3f19003fbe952d7d235e3bb7de4"
    ),
    "polygon-parity": (0, "acb7374f2332eda53f3209f0feb12492838893a67bf86ad34cf6687ed010ac61"),
    "prism-decompose": (0, "527ca35452d11169344974e23e17dfeef0f3bc04dfa47f6a43d8262ebabbab84"),
    "product-simplices-obstruction": (
        0, "92b5181cbb56f754d497d37e095b6ae43ba03bb43672747f9f3a57147a8e2d97"
    ),
    "smallcover-simplex-products": (
        0, "5637b32add546bd4ec2fad73eb4e6f9b33f0a3eac902a14e4c252d019d75ab1e"
    ),
}
REPLY_PINS.update({
    f"verify-{claim}-defaults": (["verify", claim], None, code, digest)
    for claim, (code, digest) in DEFAULT_CLAIM_PINS.items()
})


@pytest.mark.parametrize("case", sorted(REPLY_PINS))
def test_reply_bytes_are_pinned(tmp_path, monkeypatch, capsys, case):
    argv, rows, exit_code, digest = REPLY_PINS[case]
    monkeypatch.setattr(harness.time, "monotonic", lambda: 0.0)
    p = _write(tmp_path, "p.json", DOUBLE_CUBE.to_dict())
    m = _write(tmp_path, "m.json", {"rows": rows})
    assert main([a.format(p=p, m=m) for a in argv]) == exit_code
    text = capsys.readouterr().out
    for version, mask in ((platform.python_version(), "<python>"), (qtm.__version__, "<qtm>")):
        text = text.replace(json.dumps(version), json.dumps(mask))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# JSON trees with every kind of value a reply could hold, and some it
# never does: the writer must agree with json.dumps on all of them
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(min_value=-10**30, max_value=10**30)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text(max_size=8)
    | st.sampled_from(["é", "ü\u2028", "\x00\x1f\n\t\"\\", "\U0001f600", "\ud800"])
)
_JSON_TREES = st.recursive(_JSON_SCALARS, lambda kids: (
    st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4)
    | st.dictionaries(st.integers(-5, 5) | st.text(max_size=2), kids, max_size=3)
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_reply_writer_equals_indented_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_reply_writer_falls_back_inside_nested_values():
    # a float, an empty container and an int-keyed dict, two levels in
    obj = {"a": [{"x": 1.5, "y": [], "z": {}}, {1: [True, None], "k": "v"}], "b": (2, -0.0)}
    assert cli._dumps(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._dumps({"a": [object()]})


# one request per subcommand reply: (argv, polytope, matrix file content)
SUBCOMMAND_REPLIES = {
    "construct": (["construct", "prism", "4"], None, None),
    "validate": (["validate", "-p", "{p}", "-m", "{m}"], polygon(4), {"rows": SQUARE_TWIST}),
    "validate-mod2": (["validate", "--mod2", "-p", "{p}", "-m", "{m}"], polygon(6),
                      {"rows_mod2": [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]}),
    "classes": (["classes", "-p", "{p}", "-m", "{m}"], polygon(4), {"rows": SQUARE_TWIST}),
    "check-string": (["check-string", "-p", "{p}", "-m", "{m}"], polygon(3), {"rows": CP2}),
    "enumerate": (["enumerate", "-p", "{p}"], polygon(4), None),
    "enumerate-capped": (["enumerate", "-p", "{p}", "--max-nodes", "2"], polygon(5), None),
    "decompose-prism": (["decompose", "prism", "-k", "3", "-m", "{m}"], None,
                        {"rows": HEX_PRISM_LAM}),
    "decompose-cube-connsum": (["decompose", "cube-connsum", "-p", "{p}", "-m", "{m}"],
                               DOUBLE_CUBE, {"rows": CONNSUM_STRING}),
    "smallcover": (["smallcover", "-p", "{p}", "-m", "{m}"], polygon(6),
                   {"rows_mod2": [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]}),
    "verify": (["verify", "c5xc5-not-spin"], None, None),
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_REPLIES))
def test_every_reply_is_indented_json_dumps(tmp_path, monkeypatch, capsys, case):
    argv, poly, matrix = SUBCOMMAND_REPLIES[case]
    p = _write(tmp_path, "p.json", poly.to_dict() if poly else {})
    m = _write(tmp_path, "m.json", matrix or {})
    out = str(tmp_path / "out.json")
    replies = []
    dumps = cli._dumps

    def recording(obj):
        replies.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "_dumps", recording)
    assert main([a.format(p=p, m=m) for a in argv] + ["--out", out]) in (0, 1, 3)
    [obj] = replies
    expected = json.dumps(obj, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert Path(out).read_text(encoding="utf-8") == expected
    if case.startswith("enumerate"):
        # the search statistics carry a float
        assert type(obj["statistics"]["elapsed"]) is float


def test_default_claim_pins_cover_every_claim():
    assert sorted(DEFAULT_CLAIM_PINS) == sorted(harness.CLAIM_IDS)


def test_verify_simplex_products_reports_a_contradiction_and_exits_1(monkeypatch, capsys):
    # a search that finds no string cover over the 3-simplex, where the
    # parity criterion says one exists, refutes the criterion
    monkeypatch.setattr(harness, "enumerate_matrices", lambda spec: ([], {}))
    code, d = _run(capsys, ["verify", "smallcover-simplex-products", "--ns", "3"])
    assert code == 1
    assert (d["verdict"], d["statistics"]) == ("counterexample", {"ns": [3]})
    assert d["witnesses"] == [{
        "error": "exhaustive search over (3,) contradicts the parity criterion: "
        "found=False, expected=True"
    }]


def test_smallcover_hexagon_coloring(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    m = _write(
        tmp_path, "m.json", {"rows_mod2": [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]}
    )
    code, d = _run(capsys, ["smallcover", "-p", p, "-m", m])
    assert (code, d) == (0, {"orientable": True, "string": True})


def test_smallcover_nonorientable_exits_1(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(3).to_dict())
    m = _write(tmp_path, "m.json", {"rows_mod2": [[1, 0, 1], [0, 1, 1]]})
    code, d = _run(capsys, ["smallcover", "-p", p, "-m", m])
    assert code == 1
    assert d == {"orientable": False, "string": False}


def test_smallcover_invalid_matrix_is_usage_error(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(3).to_dict())
    m = _write(tmp_path, "m.json", {"rows_mod2": [[1, 0, 0], [0, 1, 0]]})
    assert main(["smallcover", "-p", p, "-m", m]) == 2
    err = capsys.readouterr().err
    assert err == "error: matrix is not characteristic over the polytope mod 2\n"


def test_smallcover_validates_and_refines_once(tmp_path, capsys, monkeypatch):
    from qtm import cli, smallcover

    calls = {"validate_mod2": 0, "refine_mod2": 0}

    def counting(name):
        fn = getattr(smallcover, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        wrapper = counting(name)
        for module in (cli, smallcover):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    # the hexagon 3-colouring with row 1 added to row 2: not refined
    m = _write(
        tmp_path, "m.json", {"rows_mod2": [[1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1]]}
    )
    code, d = _run(capsys, ["smallcover", "-p", p, "-m", m])
    assert (code, d) == (0, {"orientable": True, "string": True})
    assert calls == {"validate_mod2": 1, "refine_mod2": 1}


def test_verify_writes_report_and_exits_0(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, d = _run(
        capsys,
        ["verify", "polygon-parity", "--m", "3", "--bound", "1", "--out", out],
    )
    assert code == 0
    assert d["verdict"] == "verified"
    assert d["params"] == {"m": 3, "bound": 1}
    assert json.loads((tmp_path / "report.json").read_text()) == d


def test_verify_report_carries_the_versions_that_made_it(capsys):
    code, d = _run(capsys, ["verify", "polygon-parity", "--m", "3", "--bound", "1"])
    assert code == 0
    assert d["qtm_version"] == qtm.__version__
    assert d["python_version"] == platform.python_version()
    # a resource-capped report is stamped too
    code, d = _run(
        capsys,
        ["verify", "cube-string-is-bott", "--n", "3", "--bound", "2",
         "--max-nodes", "100"],
    )
    assert code == 3
    assert (d["qtm_version"], d["python_version"]) == (
        qtm.__version__, platform.python_version()
    )


def test_verify_flags_and_search_choices_come_from_the_harness():
    # one flag per claim parameter, as `_CLAIMS` declares it, and the
    # filters and dedup groups `SearchSpec` checks
    parser = cli._build_parser()
    names = {name for _, defaults, _ in harness._CLAIMS.values() for name in defaults}
    args = vars(parser.parse_args(["verify", "c5xc5-not-spin"]))
    assert names == {"bound", "trials", "m", "n", "k", "ns"} and names <= set(args)
    assert all(args[name] is None for name in names)
    for f, d in itertools.product(harness._FILTERS, harness._DEDUP_GROUPS):
        args = parser.parse_args(["enumerate", "-p", "x.json", "--filter", f, "--dedup", d])
        assert (args.filter, args.dedup) == (f, d)


def test_verify_ns_parameter(tmp_path, capsys):
    code, d = _run(capsys, ["verify", "product-simplices-obstruction", "--ns", "2"])
    assert code == 0
    assert d["witnesses"] == [{"vertex": [1, 2], "facet": 3}]
    assert main(["verify", "product-simplices-obstruction", "--ns", "a,b"]) == 2
    capsys.readouterr()


def test_verify_resource_cap_exits_3(tmp_path, capsys):
    code, d = _run(
        capsys,
        ["verify", "cube-string-is-bott", "--n", "3", "--bound", "2",
         "--max-nodes", "100"],
    )
    assert code == 3
    assert d["verdict"] == "resource-capped"
    assert {"lex_prunes", "parity_prunes"} <= set(d["statistics"])


def test_verify_smallcover_claim_exits_3_at_its_node_cap(capsys):
    # the claim ran its search uncapped and reported "verified"
    code, d = _run(
        capsys,
        ["verify", "smallcover-simplex-products", "--ns", "2,3", "--max-nodes", "1"],
    )
    assert code == 3
    assert d["verdict"] == "resource-capped"
    assert d["statistics"]["nodes"] == 2


@pytest.mark.parametrize(
    "claim", ["cyclic-identities", "product-simplices-obstruction", "smallcover-simplex-products"]
)
def test_verify_refuses_nan_seconds(capsys, claim):
    # these claims exited 0: the first two run no search, the third ran
    # its search without the caps
    assert main(["verify", claim, "--max-seconds", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "NaN" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        # both exited 0 "verified": cyclic-identities never reads the
        # node cap, and product-simplices-obstruction reads neither cap
        (["cyclic-identities", "--trials", "50", "--max-nodes", "1"],
         "does not read max_nodes; it reads: max_seconds"),
        (["product-simplices-obstruction", "--ns", "2", "--max-nodes", "0",
          "--max-seconds", "0"],
         "does not read max_nodes, max_seconds; it reads: no cap"),
        (["polygon-parity", "--m", "3", "--max-nodes", "-1"],
         "max_nodes must be at least 0, got -1"),
        (["cyclic-identities", "--max-seconds", "-1"],
         "max_seconds must be at least 0, got -1.0"),
    ],
    ids=["cyclic-nodes", "simplices-both", "negative-nodes", "negative-seconds"],
)
def test_verify_refuses_caps_it_cannot_honour(capsys, argv, named):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


def test_verify_cyclic_identities_takes_the_time_cap(monkeypatch, capsys):
    # a clock that ticks one second per reading: the cap is hit before
    # the fourth trial, where every trial used to run and exit 0
    clock = iter(range(10**6))
    monkeypatch.setattr(harness.time, "monotonic", lambda: next(clock))
    argv = ["verify", "cyclic-identities", "--trials", "2000", "--max-seconds", "3.5"]
    code, d = _run(capsys, argv)
    assert code == 3
    assert d["verdict"] == "resource-capped"
    assert d["statistics"] == {"trials": 3, "failures": 0}


def test_verify_unknown_claim_exits_2(capsys):
    assert main(["verify", "no-such-claim"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, named",
    [
        # c5xc5-not-spin reads no parameter; it reported "verified"
        # with {"bound": 5, "k": 9} in its params
        (["c5xc5-not-spin", "--bound", "5", "--k", "9"], "'bound', 'k'"),
        (["cube-connsum", "--bound", "1", "--m", "4"], "'m'"),
        # cyclic-identities checked nothing and reported "verified"
        (["cyclic-identities", "--trials", "-5"], "trials"),
        (["cyclic-identities", "--trials", "0"], "trials"),
    ],
    ids=["c5xc5-bound-k", "connsum-m", "trials-negative", "trials-zero"],
)
def test_verify_refuses_parameters_it_does_not_read(capsys, argv, named):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


def test_malformed_input_files_exit_2(tmp_path, capsys):
    p = _write(tmp_path, "p.json", polygon(4).to_dict())
    noise = tmp_path / "noise.json"
    noise.write_text("not json {")
    wrong = _write(tmp_path, "wrong.json", {"cols": [[1]]})
    assert main(["validate", "-p", p, "-m", str(noise)]) == 2
    assert main(["validate", "-p", p, "-m", wrong]) == 2
    assert main(["validate", "-p", str(tmp_path / "missing.json"), "-m", wrong]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", ["dir-polytope", "dir-matrix", "not-utf8", "dir-out"])
def test_unreadable_input_and_unwritable_out_exit_2(tmp_path, capsys, case):
    # a directory where a file is wanted was an IsADirectoryError
    # traceback (exit 1); a non-UTF-8 file exited 2 without its name
    p = _write(tmp_path, "p.json", polygon(4).to_dict())
    m = _write(tmp_path, "m.json", {"rows": SQUARE_TWIST})
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"rows": "\xe9"}')
    here = str(tmp_path)
    argv, named = {
        "dir-polytope": (["check-string", "-p", here, "-m", m], here),
        "dir-matrix": (["check-string", "-p", p, "-m", here], here),
        "not-utf8": (["check-string", "-p", p, "-m", str(latin1)], str(latin1)),
        "dir-out": (["check-string", "-p", p, "-m", m, "--out", here], here),
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "kind, bad",
    [
        # the two reproductions: no "dim" (was a KeyError), and "rows"
        # that is not a list (was a TypeError)
        ("polytope", {"num_facets": 4, "vertices": [[1, 2], [2, 3], [3, 4], [1, 4]]}),
        ("matrix", {"rows": 5}),
        ("polytope", {"dim": "2", "num_facets": 4, "vertices": [[1, 2]]}),
        ("polytope", {"dim": 2, "num_facets": 4, "vertices": [[1, 2], 3]}),
        ("polytope", {"dim": 2, "num_facets": 4, "vertices": [[1, 2]], "name": 7}),
        ("polytope", [1, 2]),
        ("matrix", {"rows": [[1, 0, "1"], [0, 1, 1]]}),
        ("matrix", {"rows": [[1, 0, True], [0, 1, 1]]}),
        ("mod2", {"rows_mod2": [1, 0, 1]}),
        ("polytope", {"dim": 2, "num_facets": 3, "vertices": [[1, 2], [2, 3], [True, 3]]}),
        ("polytope", {"dim": 2, "num_facets": 3, "vertices": [[1, 2], [2, 3], [1.0, 3]]}),
    ],
)
def test_malformed_schema_exits_2(tmp_path, capsys, kind, bad):
    good_p = _write(tmp_path, "good_p.json", polygon(3).to_dict())
    good_m = _write(tmp_path, "good_m.json", {"rows": CP2})
    bad_f = _write(tmp_path, "bad.json", bad)
    if kind == "polytope":
        argv = ["validate", "-p", bad_f, "-m", good_m]
    elif kind == "matrix":
        argv = ["validate", "-p", good_p, "-m", bad_f]
    else:
        argv = ["validate", "--mod2", "-p", good_p, "-m", bad_f]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad_f in err
    assert "Traceback" not in err


def test_from_dict_checks_the_schema():
    from qtm.charmat import CharMatrixError
    from qtm.polytope import PolytopeError, SimplePolytope

    with pytest.raises(PolytopeError):
        SimplePolytope.from_dict({"num_facets": 3, "vertices": [[1, 2], [2, 3], [1, 3]]})
    with pytest.raises(CharMatrixError):
        CharMatrix.from_dict({"rows": 5})
    with pytest.raises(CharMatrixError, match="'rows_mod2'"):
        CharMatrix.from_dict({"rows": [[1]]}, key="rows_mod2")
    tri = polygon(3)
    assert SimplePolytope.from_dict(tri.to_dict()).vertices == tri.vertices


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-p", "x.json", "--filter", "bogus"])
    assert exc.value.code == 2


def test_disconnected_complex_exits_2(tmp_path, capsys):
    # two disjoint triangles: every ridge lies in two vertices, but the
    # complex is not a sphere
    bad = _write(tmp_path, "two.json", {
        "dim": 2, "num_facets": 6,
        "vertices": [[1, 2], [2, 3], [1, 3], [4, 5], [4, 6], [5, 6]],
    })
    good_m = _write(tmp_path, "m.json", {"rows": CP2})
    assert main(["validate", "-p", bad, "-m", good_m]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2 disconnected parts" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["deep-nesting", "long-integer"])
def test_unreadable_json_names_the_file_and_exits_2(tmp_path, capsys, case):
    # json.loads raises RecursionError on the first and Python's own
    # digit-limit ValueError on the second; both are the file's fault
    if case == "deep-nesting":
        text = '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"
        named = "nests its JSON too deeply"
    else:
        text = '{"dim": ' + "7" * 5000 + ', "num_facets": 3, "vertices": []}'
        named = "holds a number too long to read"
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good_m = _write(tmp_path, "m.json", {"rows": CP2})
    assert main(["check-string", "-p", str(bad), "-m", good_m]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} {named}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_huge_declared_facet_count_exits_2_quickly(tmp_path, capsys):
    # a triangle declaring 10^6 facets: rejected before anything is
    # sized by the declared count, with one short line
    bad = _write(tmp_path, "tri.json", {
        "dim": 2, "num_facets": 10**6, "vertices": [[1, 2], [2, 3], [1, 3]],
    })
    good_m = _write(tmp_path, "m.json", {"rows": CP2})
    assert main(["validate", "-p", bad, "-m", good_m]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000000 facets cannot all occur on 3 vertices" in err
    assert len(err) < 200 + len(bad) and "Traceback" not in err


def test_closed_stdout_exits_141_without_a_traceback():
    # `qtm verify c5xc5-not-spin | head -5` with the reader gone before
    # the report is written: the write fails with EPIPE, the command
    # says nothing on stderr and exits 141
    env = dict(os.environ, PYTHONPATH=str(Path(qtm.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtm.cli", "verify", "c5xc5-not-spin"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""
