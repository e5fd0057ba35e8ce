"""The command line's contract: every input document gets an answer or a
documented exit code (1 invalid, 2 not certified, 3 solver failure), never
a Python traceback.

The inputs are the fixture documents of ``tests/data`` with one to three
mutations each: a key or list item deleted, a value swapped for one of
another type, or a number replaced by NaN, an infinity, a subnormal, a
large integer or itself moved by 5e-10.  ``verify`` reads the ``solve``
documents of the small populations, so its mutations reach strategies and
aggregates as well.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from poplotto.cli import main

DATA = Path(__file__).resolve().parent / "data"
SMALL_POPULATIONS = ("pair", "near_tie", "nine_rows", "wide")
POPULATION_COMMANDS = ("solve", "analyze", "rewire", "export")
SWAPS = ("1.0", None, True, [], {}, [1.0, 2.0], {"budget": 1.0, "mass": 1.0})


def quiet_main(argv: list[str]) -> int:
    """``cli.main`` with its output and summary captured and dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@functools.cache
def fixtures() -> tuple[tuple[str, str], ...]:
    """Each command with the JSON text of a document it reads."""
    pairs = [
        (command, (DATA / f"{name}.json").read_text())
        for command in POPULATION_COMMANDS
        for name in SMALL_POPULATIONS
    ]
    pairs.append(("dice", (DATA / "dice.json").read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "solution.json"
        for name in SMALL_POPULATIONS:
            argv = ["solve", str(DATA / f"{name}.json"), "--out", str(out)]
            assert quiet_main(argv) == 0
            pairs.append(("verify", out.read_text()))
    return tuple(pairs)


def paths(node: object, path: tuple = ()) -> list[tuple]:
    """The path of every value below the top-level object."""
    found = [path] if path else []
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return found
    for key, value in items:
        found += paths(value, (*path, key))
    return found


def replacements(value: object) -> list[object]:
    """What a mutation may put in place of ``value``."""
    out: list[object] = [v for v in SWAPS if type(v) is not type(value)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [math.nan, math.inf, -math.inf, 1e-320, 2**60, 0, -value]
        out += [value + 5e-10, value - 5e-10]
    return out


@st.composite
def mutated_documents(draw) -> tuple[str, str]:
    command, text = draw(st.sampled_from(fixtures()))
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        where = paths(doc)
        if not where:
            break
        *parents, last = draw(st.sampled_from(where))
        node = doc
        for key in parents:
            node = node[key]
        if draw(st.booleans()):
            del node[last]
        else:
            # a copy, so a later mutation inside it leaves ``SWAPS`` alone
            node[last] = copy.deepcopy(draw(st.sampled_from(replacements(node[last]))))
    return command, json.dumps(doc)


@given(mutated_documents())
@settings(deadline=None, max_examples=150)
def test_every_mutated_document_gets_a_documented_exit(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        assert quiet_main([command, str(path)]) in {0, 1, 2, 3}
