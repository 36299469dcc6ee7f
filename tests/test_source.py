"""Static checks on the source of ``fandist``, read from its syntax trees.

The exact checks must hold under ``python -O``, so the package has no
``assert`` statement; exact arithmetic means no float literal and no
``float(...)`` call; from ``math`` only ``gcd`` and ``lcm`` are used,
and ``numpy`` is not a dependency.  Every search reads no clock, so
neither ``time`` nor ``datetime`` is imported.
"""

import ast
from pathlib import Path

import pytest

import fandist

SOURCES = sorted(Path(fandist.__file__).parent.rglob("*.py"))
MATH_NAMES = {"gcd", "lcm"}
CLOCKS = {"time", "datetime"}


def violations(tree: ast.AST) -> list[str]:
    """Each node of ``tree`` that breaks a rule, as 'line: rule'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            rule = "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            rule = "float literal"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            rule = "float() call"
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
            if "math" in names:
                rule = "import math"
            elif "numpy" in names:
                rule = "numpy import"
            elif CLOCKS & set(names):
                rule = "clock import"
            else:
                continue
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top == "numpy":
                rule = "numpy import"
            elif top in CLOCKS:
                rule = "clock import"
            elif top == "math" and not {a.name for a in node.names} \
                    <= MATH_NAMES:
                rule = "math import beyond gcd and lcm"
            else:
                continue
        else:
            continue
        found.append(f"{node.lineno}: {rule}")
    return found


def test_sources_found():
    assert any(p.name == "tverberg.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_keeps_the_rules(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("line, rule", [
    ("assert x", "assert statement"),
    ("y = 0.5", "float literal"),
    ("y = float(x)", "float() call"),
    ("import math", "import math"),
    ("from math import sqrt", "math import beyond gcd and lcm"),
    ("import numpy as np", "numpy import"),
    ("from numpy.linalg import solve", "numpy import"),
    ("import time", "clock import"),
    ("import datetime", "clock import"),
    ("from time import perf_counter", "clock import"),
    ("from datetime import datetime", "clock import"),
])
def test_each_rule_catches_a_one_line_mutant(line, rule):
    assert violations(ast.parse("from math import gcd, lcm\n" + line)) == \
        [f"2: {rule}"]
