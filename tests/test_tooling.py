"""Static checks on the package source, run with the unit tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "inhernet"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scan_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom x import a, b as c\nprint(a, np)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert unused_imports(path.read_text()) == []
