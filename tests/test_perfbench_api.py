"""Every ``ucadiv`` name the benchmark scripts read exists on the package.

``perfbench/`` is not collected with ``tests/``, so a renamed or deleted
export would otherwise pass these tests and fail only when the benchmark
runs.  The scripts are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

import ucadiv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def ucadiv_reads(tree):
    """Names read as ``alias.name`` or imported ``from ucadiv import name``."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "ucadiv"}
        elif isinstance(node, ast.ImportFrom) and node.module == "ucadiv":
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_workloads_read_the_package():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    assert {"sweep", "fit_modes", "extend_to_2n_port"} <= ucadiv_reads(tree)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_name_read_exists(script):
    names = ucadiv_reads(ast.parse(script.read_text()))
    assert sorted(n for n in names if not hasattr(ucadiv, n)) == []
