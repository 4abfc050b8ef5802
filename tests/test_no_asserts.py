"""Library invariants must still be checked under ``python -O``, which
strips ``assert`` statements; so ``src/mcpaths`` raises instead and holds
no ``assert`` at all."""

import ast
from pathlib import Path

import mcpaths


def test_library_has_no_assert_statements():
    package = Path(mcpaths.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
