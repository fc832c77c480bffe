"""Source hygiene: every Python file of the package (except its export list
in __init__.py), of the test suite, of its oracle generators and of the
benchmark references each name it imports.

The scan uses only the standard library's ast, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ecs_lab").glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "tests/oracles", "bench") for p in (ROOT / d).glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})"
                  for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_resolves_aliases_and_dotted_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .mod import Used, Unused as Spare\n"
        "def f(x: Used) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Spare (line 4)", "os (line 3)"]
