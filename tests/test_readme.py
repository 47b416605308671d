"""The README's library example runs and gives the results it documents, and
its sweep parameter table matches the sweep functions' signatures."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from restaking import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_results():
    # Statements run in order; each bare expression's value is kept.
    namespace: dict = {}
    values = []
    for node in ast.parse(library_example()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    budget, closed_form, verdict = values
    assert budget == pytest.approx(15.0)
    assert closed_form == pytest.approx(budget)
    assert verdict is None


def sweep_table() -> dict[str, list[str]]:
    """The README's sweep parameter table: each sweep's parameter cells, by
    preset name, or by ``custom <kind>``."""
    rows = re.findall(r"^\| `(\w+)`(?: `(\w+)`)? \| (.*) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    return {f"{name} {kind}".strip(): re.findall(r"`([^`]+)`", cells)
            for name, kind, cells in rows}


def test_sweep_table_matches_the_sweep_signatures():
    sweeps = {**cli._PRESETS, **{f"custom {k}": f for k, f in cli._CUSTOM.items()}}
    table = sweep_table()
    assert list(table) == list(sweeps)
    for name, cells in table.items():
        written = [cell.partition("=") for cell in cells]
        parameters = inspect.signature(sweeps[name]).parameters.values()
        assert [key for key, _, _ in written] == [p.name for p in parameters], name
        for (key, eq, default), p in zip(written, parameters):
            if p.default is p.empty:
                assert not eq, (name, key)
            else:
                assert eval(default, {"__builtins__": {}}) == p.default, (name, key)
