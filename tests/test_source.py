"""Source-level checks on the qtm package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qtm

PACKAGE = Path(qtm.__file__).parent


def test_package_has_no_assert_statements():
    # certificates must raise explicitly: python -O strips assert
    # statements, and with them any check written as one
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 9
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_certificate_raises_under_python_O():
    # the AST scan above finds no assert; this shows the certificate's
    # raise survives -O: 2 v1^2 = 0 leaves 2-torsion in the quotient
    script = (
        "from qtm.cohomology import CohomologyError, _certified_quotient_map\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "try:\n"
        "    _certified_quotient_map([[2, 0]], 2)\n"
        "except CohomologyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: relation lattice is not a rank-1 direct summand")


def test_mod2_certificate_raises_under_python_O():
    # cube(3) refined at its first vertex with every free column e_1:
    # the live rows of the second and third base facets are zero, so the
    # live rows are dependent and the string core must raise, -O or not
    script = (
        "from qtm.polytope import cube\n"
        "from qtm.charmat import CharMatrix\n"
        "from qtm.smallcover import SmallCoverError, _refined_verdicts\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "p = cube(3)\n"
        "base = p.vertices[0]\n"
        "rows = [[int(f == base[i] or (i == 0 and f not in base))\n"
        "         for f in range(1, p.num_facets + 1)] for i in range(p.dim)]\n"
        "try:\n"
        "    _refined_verdicts(p, CharMatrix(rows, refined_at=base))[1]\n"
        "except SmallCoverError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: degree-2 quotient dimension")


def test_search_chooses_its_field_once():
    # the search reads the field in one block before the walk and keeps
    # no flag for later code to ask: the walk, the leaf and the
    # admissible-mask builders are field-free
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    search = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_matrices"
    )

    def asks(node):
        return [
            inner.lineno for inner in ast.walk(node)
            if (isinstance(inner, ast.Name) and inner.id in ("mod2", "mod2_only"))
            or (isinstance(inner, ast.Attribute) and inner.attr == "mod2_only")
        ]

    assert len(asks(search)) == 1
    nested = {}
    for node in ast.walk(search):
        if isinstance(node, ast.FunctionDef) and node is not search:
            nested.setdefault(node.name, []).append(node)
    assert len(nested["walk"]) == len(nested["emit"]) == 1
    assert len(nested["admissible_mask"]) == 2  # one per field
    for name in ("walk", "emit", "admissible_mask"):
        assert [line for node in nested[name] for line in asks(node)] == [], name


# public names with no caller in the package or the bench: only
# find_coloring, which ROADMAP item 3 gives a caller.  A public wrapper
# that validates before a private core has a caller or is not kept:
# tests call the core after their own validation
DOCUMENTED_WITHOUT_CALLER = {"polytope.find_coloring"}


def _names(node):
    """Every name node reads, as a bare name or as an attribute."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr


def test_every_public_name_has_a_caller():
    # a public top-level function or method is read, by name, somewhere
    # in the package outside its own body or in bench/*.py, or it is on
    # the documented list; code that only tests call lives in tests/
    bench = PACKAGE.parents[1] / "bench"
    assert sorted(bench.glob("*.py"))
    read = {name for path in bench.glob("*.py") for name in _names(ast.parse(path.read_text()))}
    public = {}  # qualified name -> its name
    readers = {}  # name -> qualified names of the bodies that read it
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                bodies = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
                rest = [sub for sub in node.body if sub not in methods]
                bodies = [(f"{node.name}.{sub.name}", sub) for sub in methods]
                bodies += [(None, sub) for sub in rest + node.bases + node.decorator_list]
            else:
                bodies = [(None, node)]
            for qual, body in bodies:
                owner = qual and f"{module}.{qual}"
                if qual and not qual.rsplit(".", 1)[-1].startswith("_"):
                    public[owner] = qual.rsplit(".", 1)[-1]
                for name in set(_names(body)):
                    readers.setdefault(name, set()).add(owner)
    uncalled = {
        qual for qual, name in public.items()
        if name not in read and not readers.get(name, set()) - {qual}
    }
    assert uncalled == DOCUMENTED_WITHOUT_CALLER
