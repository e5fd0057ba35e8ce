"""Byte-identical CLI documents for the checked-in inputs in ``tests/data``.

``golden_sha256.json`` pins the sha256 of every ``solve``, ``verify``,
``analyze``, ``export`` (json and dot) and ``dice`` document, of every
``solve --format csv`` document, of four ``rewire --seed 0`` documents,
which carry prefix verdicts, of one ``rewire --format csv`` document, and
of the ``dice`` document of the built-in triple, read with no input.
The csv and dot keys carry the format after the command, the rewire
keys of a league other than 0 carry ``league-k``, and the built-in dice
key is ``dice-builtin/dice``.  The four rewires end in
four different ways: a grid flip (near_tie league 0), the fallback
(nine_rows league 0), a warm-start flip (flooding league 4) and a grid
move (flooding league 6).  A change that moves any of them changes what
users get for a fixed input, so it must be deliberate.  Every key in
the file must name a document that ``documents`` lists, so a dropped
document cannot leave its hash behind unchecked.  Print the current hashes
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from poplotto.cli import main

DATA = Path(__file__).resolve().parent / "data"
POPULATIONS = ("pair", "wide", "near_tie", "nine_rows", "flooding", "staircase")
DICE = ("dice",)
REWIRED = {"near_tie": (0,), "nine_rows": (0,), "flooding": (4, 6)}
REWIRED_CSV = ("near_tie",)


def documents(name: str, workdir: Path) -> dict[str, tuple[list[str], Path]]:
    """Every CLI command for one checked-in input and the file it writes,
    keyed ``command/name`` in run order: verify reads what solve wrote."""
    src = str(DATA / f"{name}.json")
    if name in DICE:
        return {
            f"dice/{name}": (["dice", src], workdir / "dice.json"),
            f"dice-builtin/{name}": (["dice"], workdir / "builtin.json"),
        }
    solution = workdir / f"{name}.solution.json"
    commands = {
        f"solve/{name}": (["solve", src], solution),
        f"verify/{name}": (["verify", str(solution)], workdir / "v.json"),
        f"analyze/{name}": (["analyze", src], workdir / "a.json"),
        f"export/{name}": (["export", src, "--format", "json"], workdir / "e.json"),
        f"solve-csv/{name}": (["solve", src, "--format", "csv"], workdir / "s.csv"),
        f"export-dot/{name}": (["export", src, "--format", "dot"], workdir / "e.dot"),
    }
    for league in REWIRED.get(name, ()):
        rewire = ["rewire", src, "--league", str(league), "--seed", "0"]
        command = "rewire" if league == 0 else f"rewire-league-{league}"
        commands[f"{command}/{name}"] = (rewire, workdir / "r.json")
    if name in REWIRED_CSV:
        commands[f"rewire-csv/{name}"] = (
            ["rewire", src, "--league", "0", "--seed", "0", "--format", "csv"],
            workdir / "r.csv",
        )
    return commands


def document_hashes(name: str, workdir: Path) -> dict[str, str]:
    """sha256 of every document ``documents(name)`` lists, by its key."""
    hashes = {}
    for key, (argv, out) in documents(name, workdir).items():
        assert main([*argv, "--out", str(out)]) == 0, argv
        hashes[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", POPULATIONS + DICE)
def test_documents_match_golden_hashes(name, tmp_path, capsys):
    golden = json.loads((DATA / "golden_sha256.json").read_text())
    got = document_hashes(name, tmp_path)
    capsys.readouterr()
    assert got == {key: golden[key] for key in got}


def test_every_golden_hash_names_a_produced_document(tmp_path):
    """A key no input produces would otherwise go unchecked for good."""
    golden = json.loads((DATA / "golden_sha256.json").read_text())
    produced = set()
    for name in POPULATIONS + DICE:
        produced.update(documents(name, tmp_path))
    assert produced == set(golden)


if __name__ == "__main__":
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        for name in POPULATIONS + DICE:
            hashes.update(document_hashes(name, Path(tmp)))
    print(json.dumps(hashes, indent=2, sort_keys=True))
