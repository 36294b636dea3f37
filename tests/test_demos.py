"""Demos: every name a demo script imports from the package must exist.

The demos take tens of seconds to run, so the suite only parses them; a
renamed or deleted package name then fails here instead of at demo time.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) pairs imported from dwpt_auth; name None for `import m`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "dwpt_auth":
                out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "dwpt_auth"
            ]
    return out


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from dwpt_auth"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module}.{name} does not exist"
