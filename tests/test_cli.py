"""End-to-end tests of the command line layer.

Commands run in-process through main(argv), except the closed-pipe
test, which needs a real process; every test checks both the JSON
payload and the exit code, since scripts branch on the latter.
Expected verdict values are pinned by the library test suites; what is
tested here is the plumbing: file parsing, output shape, exit codes.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import qtm
from qtm import charmat, polytope, stringcheck
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
    lam = CharMatrix(rows)
    if family == "polygon":
        return [{"monomial": [1, 2], "coeff": stringcheck.polygon_closed_form(lam)[1]}]
    if family == "cube":
        c = stringcheck.cube_closed_form(3, stringcheck.cube_normal_form(3, lam))
        return [{"monomial": list(b), "coeff": c[b]} for b in stringcheck.cube_basis(3)]
    c = stringcheck.prism_closed_form(3, stringcheck.prism_normal_form(3, lam))
    return [{"monomial": list(b), "coeff": c[b]} for b in stringcheck.prism_basis(3)]


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_REQUESTS))
def test_check_string_closed_form_validates_once(tmp_path, capsys, monkeypatch, family):
    p, rows = CLOSED_FORM_REQUESTS[family]
    expected = _closed_form_reference(family, p, rows)
    pf = _write(tmp_path, "p.json", p.to_dict())
    mf = _write(tmp_path, "m.json", {"rows": rows})
    # the family constructors are memoized: empty their caches so the
    # request builds its family polytope whatever ran before
    for make in (polytope.simplex, polytope.polygon, polytope.cube, polytope.prism):
        make.cache_clear()
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
    ],
    ids=["mod2-bound-2", "mod2-bound-negative", "nan-seconds"],
)
def test_enumerate_refuses_budgets_it_cannot_honour(tmp_path, capsys, argv, named):
    p = _write(tmp_path, "p.json", polygon(6).to_dict())
    assert main(["enumerate", "-p", p, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


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


def test_decompose_cube_connsum_round_trip(tmp_path, capsys):
    big, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    p = _write(tmp_path, "p.json", big.to_dict())
    m = _write(
        tmp_path, "m.json",
        {"rows": [
            [1, -2, 2, 1, 0, 0, 1, 0, 0],
            [0, 1, -2, 0, 1, 0, 1, 1, 0],
            [0, 0, 1, 0, 0, 1, 1, 0, 1],
        ]},
    )
    code, d = _run(capsys, ["decompose", "cube-connsum", "-p", p, "-m", m])
    assert code == 0
    assert d["verdict"] == "decomposed"
    assert len(d["pieces"]) == 2


def test_decompose_cube_connsum_non_string_exits_1(tmp_path, capsys):
    # glue a string summand to a non-spin one: valid, but no splitting
    big, _, _ = connected_sum(cube(3), (4, 5, 6), cube(3), (1, 2, 3))
    p = _write(tmp_path, "p.json", big.to_dict())
    m = _write(
        tmp_path, "m.json",
        {"rows": [
            [1, -2, 2, 1, 0, 0, 1, 1, 0],
            [0, 1, -2, 0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1, 0, 0, 1],
        ]},
    )
    code, d = _run(capsys, ["decompose", "cube-connsum", "-p", p, "-m", m])
    assert code == 1
    assert d["verdict"] == "not-applicable"
    assert d["detail"]["reason"] == "input is not string"


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
