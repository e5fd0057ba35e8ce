"""Every parameter of a function in ``src/poplotto`` is read by its body."""

from __future__ import annotations

import ast
from pathlib import Path

import poplotto

PACKAGE = Path(poplotto.__file__).resolve().parent

# each unread parameter that stays, and why; remove an entry with its parameter
_HARNESS = "the benchmark harness, perfbench/session.py, passes TOL positionally"
UNREAD_ALLOWED = {
    "equilibrium.worst_deviation.tol": _HARNESS,
    "equilibrium.payoff_identity_check.tol": _HARNESS,
    "structure.league_rewire.seed": "the benchmark harness, perfbench/session.py,"
    " passes REWIRE_SEED positionally",
}


def unread_parameters() -> set[str]:
    """``module.function.parameter`` for every parameter no load reads."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = node.args
            params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs]
            params += [a for a in (spec.vararg, spec.kwarg) if a is not None]
            # nested functions count: a closure that reads a parameter reads it
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for a in params:
                if a.arg not in read and a.arg not in ("self", "cls"):
                    found.add(f"{path.stem}.{node.name}.{a.arg}")
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == set(UNREAD_ALLOWED)
