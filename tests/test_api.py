"""The public surface that demos and the benchmark rely on.

Files are parsed with ``ast``, not run, so a deleted or renamed symbol shows
up here in milliseconds instead of as a broken demo or benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["gexpect"] + [f"gexpect.{m}" for m in (
    "operator_core", "covariance_set", "g_normal", "control_sim",
    "stoch_integral", "g_pde", "experiment_cli",
)]
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def gexpect_imports(path):
    """(module, name) for every ``from gexpect... import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "gexpect"
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_scripts_are_found():
    assert any(gexpect_imports(path) for path in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in gexpect_imports(path)
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []

