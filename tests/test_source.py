"""Source-level checks on the qtm package."""

import ast
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
