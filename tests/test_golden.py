"""Byte-identical CLI documents for the checked-in inputs in ``tests/data``.

``golden_sha256.json`` pins the sha256 of every ``solve``, ``verify``,
``analyze``, ``export`` (json and dot) and ``dice`` document, of every
``solve --format csv`` document, of four ``rewire --seed 0`` documents,
which carry prefix verdicts, and of one ``rewire --format csv`` document.
The csv and dot keys carry the format after the command, and the rewire
keys of a league other than 0 carry ``league-k``.  The four rewires end in
each way the search can return: a greedy flip (near_tie league 0), the
fallback (nine_rows league 0), a warm-start flip (flooding league 4) and a
greedy move (flooding league 6).  A change that moves any of them changes
what users get for a fixed input, so it must be deliberate.  Print the current hashes with
``PYTHONPATH=src python tests/test_golden.py``.
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


def _document(argv: list[str], out: Path) -> str:
    """sha256 of the machine document ``poplotto argv --out out`` writes."""
    assert main([*argv, "--out", str(out)]) == 0, argv
    return hashlib.sha256(out.read_bytes()).hexdigest()


def document_hashes(name: str, workdir: Path) -> dict[str, str]:
    """Every CLI document for one checked-in input, keyed ``command/name``."""
    src = str(DATA / f"{name}.json")
    if name in DICE:
        return {f"dice/{name}": _document(["dice", src], workdir / "dice.json")}
    solution = workdir / f"{name}.solution.json"
    hashes = {
        f"solve/{name}": _document(["solve", src], solution),
        f"verify/{name}": _document(["verify", str(solution)], workdir / "v.json"),
        f"analyze/{name}": _document(["analyze", src], workdir / "a.json"),
        f"export/{name}": _document(
            ["export", src, "--format", "json"], workdir / "e.json"
        ),
        f"solve-csv/{name}": _document(
            ["solve", src, "--format", "csv"], workdir / "s.csv"
        ),
        f"export-dot/{name}": _document(
            ["export", src, "--format", "dot"], workdir / "e.dot"
        ),
    }
    for league in REWIRED.get(name, ()):
        rewire = ["rewire", src, "--league", str(league), "--seed", "0"]
        command = "rewire" if league == 0 else f"rewire-league-{league}"
        hashes[f"{command}/{name}"] = _document(rewire, workdir / "r.json")
    if name in REWIRED_CSV:
        hashes[f"rewire-csv/{name}"] = _document(
            ["rewire", src, "--league", "0", "--seed", "0", "--format", "csv"],
            workdir / "r.csv",
        )
    return hashes


@pytest.mark.parametrize("name", POPULATIONS + DICE)
def test_documents_match_golden_hashes(name, tmp_path, capsys):
    golden = json.loads((DATA / "golden_sha256.json").read_text())
    got = document_hashes(name, tmp_path)
    capsys.readouterr()
    assert got == {key: golden[key] for key in got}


if __name__ == "__main__":
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        for name in POPULATIONS + DICE:
            hashes.update(document_hashes(name, Path(tmp)))
    print(json.dumps(hashes, indent=2, sort_keys=True))
