"""The README's library example runs and gives the results it documents."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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
