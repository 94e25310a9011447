"""vlcloc imports only the standard library, its declared dependencies and
itself, so what it needs at run time stays what pyproject.toml declares."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlcloc"


def declared_dependencies() -> set[str]:
    """Names of the project's runtime dependencies, version specs dropped."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}


def foreign_imports(source: str) -> list[str]:
    """Sorted top-level names that the source imports from outside the
    standard library, the declared dependencies and vlcloc."""
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {"vlcloc"}
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return sorted(names - allowed)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_nothing_undeclared(path):
    assert foreign_imports(path.read_text()) == []


def test_an_undeclared_import_is_caught():
    source = ("from __future__ import annotations\nimport math, numpy as np\n"
              "from . import spectral\nfrom vlcloc.fusion import LsFit\n"
              "def solve():\n    from scipy.linalg import cho_solve\n    import sklearn.svm\n")
    assert foreign_imports(source) == ["scipy", "sklearn"]
