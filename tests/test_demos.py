"""Demos: all seven run; every name any demo imports must exist.

Each demo runs in process.  The three default-tier demos (adversary drills,
IBE walkthrough, protocol session) take about 0.2 s each, mostly keygen.
The import check names a renamed or deleted package name directly, before
any demo code runs.
"""

import ast
import importlib
import runpy
import tempfile
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


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


@pytest.mark.parametrize("name", [p.name for p in DEMOS])
def test_fast_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # cli_tour's workspace
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    assert capsys.readouterr().out
