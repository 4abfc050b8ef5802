"""The package's floor is Python 3.10 (``requires-python`` in
``pyproject.toml``), so no source file may use newer syntax, such as
``except*`` from 3.11."""

import ast
from pathlib import Path

import pytest

import mcpaths


def test_every_source_file_parses_as_python_3_10():
    package = Path(mcpaths.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
