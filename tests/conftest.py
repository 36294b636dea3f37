"""Shared fixtures.

A default-tier `ra_setup` takes some 30-50 ms, but hundreds of tests use
an authority and the vehicles registered under it, so both are
session-scoped; tests that mutate credentials work on copies.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dwpt_auth
from dwpt_auth import TIERS, ra_setup, register_vehicle
from dwpt_auth.registration import RegistrationAuthority, VehicleCredentials


def copy_credentials(creds: VehicleCredentials) -> VehicleCredentials:
    return creds.copy()


@pytest.fixture(scope="session")
def default_authority() -> RegistrationAuthority:
    return ra_setup(TIERS["default"], "suite-default-authority")


@pytest.fixture(scope="session")
def default_vehicle(default_authority) -> VehicleCredentials:
    return register_vehicle(default_authority, b"EV-main", 8)


@pytest.fixture()
def fresh_vehicle(default_vehicle) -> VehicleCredentials:
    """Per-test copy: spending pseudonyms here does not leak across tests."""
    return copy_credentials(default_vehicle)


@pytest.fixture(scope="session")
def test_authority() -> RegistrationAuthority:
    return ra_setup(TIERS["test"], "suite-test-authority")


@pytest.fixture(scope="session")
def toy_authority() -> RegistrationAuthority:
    return ra_setup(TIERS["toy"], "suite-toy-authority")


# One-line detail per gate check, filled in by tests/test_acceptance.py as each
# check completes; keyed by test function name.
GATE_RESULTS: dict[str, str] = {}


def source_size() -> tuple[int, int]:
    """Lines of the package's modules, all and code-only: without blank
    lines, comment lines and docstrings (string statements, found by `ast`)."""
    total = code = 0
    for path in sorted(Path(dwpt_auth.__file__).parent.glob("*.py")):
        text = path.read_text()
        docs = {
            line
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)
        }
        lines = text.splitlines()
        total += len(lines)
        code += sum(
            1 for i, line in enumerate(lines, start=1)
            if i not in docs and line.strip() and not line.lstrip().startswith("#")
        )
    return total, code


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per gate check after any run that included
    them, then the package's source size, which gates nothing."""
    del exitstatus, config
    outcomes: dict[str, str] = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if key == "passed":
                outcomes.setdefault(name, "PASS")
            else:
                outcomes[name] = "FAIL"
    if outcomes:
        terminalreporter.write_sep("-", "acceptance gate")
    for name in sorted(outcomes):
        line = f"{outcomes[name]}  {name}"
        detail = GATE_RESULTS.get(name)
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
    total, code = source_size()
    terminalreporter.write_line(
        f"source: {total:,} lines, {code:,} code-only (no docstrings, comments or blank lines)"
    )
