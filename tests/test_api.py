"""The public names: each module exports only what some user calls, and no
module imports a name it does not use."""

from __future__ import annotations

import ast
import importlib
import re
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "restaking"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

#: Public names kept for a reason other than a caller in another module, a
#: perfbench script or the README: the paper's definitions, the tests'
#: references, and the types and constants that public functions return.
REFERENCE = {
    "byzantine_subsets": "every admissible Byzantine subset, the tests' reference enumerator",
    "min_cost_attack": "the tests' reference for consolidated_cost",
    "min_budget_bruteforce": "the oracle's side of mip.min_budget",
    "prize_shares": "the paper's split of the prize among attackers",
    "robustness_utility": "the paper's validator utility under an adversary budget",
    "eigenlayer_condition": "the paper's sufficient condition under full slashing",
    "generalized_eigenlayer_condition": "the paper's sufficient condition for elastic networks",
    "consolidated_cost": "the paper's cost of a consolidated attack",
    "formation_utility": "the paper's validator reward under the scheme",
    "MipProblem": "the type build_budget_mip returns",
    "MipSolution": "the type solve_mip returns",
    "BELOW_TARGET": "a status solve_mip returns",
    "UNBOUNDED": "a status solve_lp returns",
    "load_network_data": "load_network on parsed JSON",
}


def identifiers(path: Path) -> set[str]:
    """The names a Python file refers to, as code, or as a string that is an
    identifier (perfbench names its span targets so)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def load(module: str):
    return importlib.import_module("restaking" if module == "__init__" else f"restaking.{module}")


def exported() -> list[tuple[str, str]]:
    return [(module, name) for module in MODULES for name in getattr(load(module), "__all__", [])]


@cache
def used_outside(module: str) -> set[str]:
    """Names used by every other module, by perfbench's scripts, and in the README."""
    paths = [p for p in SRC.glob("*.py") if p.stem != module]
    names = set().union(*map(identifiers, paths + sorted((ROOT / "perfbench").glob("*.py"))))
    return names | set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))


@pytest.mark.parametrize("module, name", exported())
def test_every_exported_name_is_defined_and_used(module, name):
    assert hasattr(load(module), name)
    assert name in used_outside(module) or name in REFERENCE, (
        f"{module}.{name} has no user; delete it, or list it in REFERENCE with its reason")


def test_reference_names_are_exported():
    assert set(REFERENCE) <= {name for _, name in exported()}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(load(module), "__all__", []))) == []
