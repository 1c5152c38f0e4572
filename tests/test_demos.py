"""The fast demo scripts run to completion, and every demo imports only
names the package has."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hotelling_mediators

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["direction_rules_tour", "costs_and_intervention", "equilibrium_hunt", "nonuniform_users"]
)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    # The slow demo is never run here, so a retired name it imports would
    # otherwise fail only when someone runs it.
    imports = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "hotelling_mediators"
    ]
    names = [alias.name for node in imports for alias in node.names]
    assert names, path.name
    assert [name for name in names if not hasattr(hotelling_mediators, name)] == []
