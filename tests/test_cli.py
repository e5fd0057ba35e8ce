"""End-to-end runs of the command line via main(argv)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import poplotto
from poplotto import (
    EquilibriumSolution,
    SolverError,
    solver,
    verify_linear_bounds,
    verify_nash,
)
from poplotto.cli import main

DATA = Path(__file__).resolve().parent / "data"

PAIR = {
    "subpopulations": [
        {"budget": 1.0, "mass": 0.5},
        {"budget": 1.5, "mass": 0.5},
    ]
}

NEAR_TIE = {
    "subpopulations": [
        {"budget": 1.0, "mass": 1 / 3},
        {"budget": 1.5, "mass": 1 / 3},
        {"budget": 1.501, "mass": 1 / 3},
    ]
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a subprocess that imports this package."""
    package_root = str(Path(poplotto.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m poplotto.cli args`` in a subprocess that imports this package."""
    return run_python("-m", "poplotto.cli", *args)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_writes_machine_output_to_file(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    out = tmp_path / "solution.json"
    assert main(["solve", src, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    # summary moves to stdout once the document has its own file
    assert "league" in captured.out
    assert "worst violation" in captured.out
    assert captured.err == ""
    payload = json.loads(out.read_text())
    assert set(payload) == {"subpopulations", "strategies", "aggregate", "reports"}
    assert set(payload["reports"]) == {"nash", "linear_bounds", "leagues"}
    assert payload["reports"]["nash"]["passed"] is True
    assert payload["aggregate"]["heights"] == [pytest.approx(0.4, abs=1e-12)]


def test_solve_streams_machine_output_without_out(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    assert main(["solve", src]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["reports"]["nash"]["passed"] is True
    assert "worst violation" in captured.err


def test_solve_then_verify_round_trip(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    out = tmp_path / "solution.json"
    main(["solve", src, "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["nash"]["passed"] is True
    assert report["linear_bounds"]["passed"] is True
    assert "nash: pass" in captured.err


def test_verify_rejects_tampered_solution(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    out = tmp_path / "solution.json"
    main(["solve", src, "--out", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    # same unit mass, wrong shape: strategies no longer mix to it
    payload["aggregate"]["breakpoints"] = [0.0, 2.0]
    payload["aggregate"]["heights"] = [0.5]
    tampered = write_json(tmp_path, "tampered.json", payload)
    assert main(["verify", tampered]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.err


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    src = write_json(tmp_path, "near_tie.json", NEAR_TIE)
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["rewire", src, "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name, league", [("near_tie", "0"), ("flooding", "6")])
def test_rewire_seed_has_no_effect(name, league, tmp_path, capsys):
    """The search draws nothing at random; flooding league 6 ends in a
    chain of grid exchanges, not in a trade or a warm start."""
    runs = []
    for seed in ("0", "7"):
        out = tmp_path / f"{seed}.json"
        argv = ["rewire", str(DATA / f"{name}.json"), "--league", league]
        assert main([*argv, "--seed", seed, "--out", str(out)]) == 0
        capsys.readouterr()
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def test_rewire_reports_flips_and_broken_prefix(tmp_path, capsys):
    src = write_json(tmp_path, "near_tie.json", NEAR_TIE)
    assert main(["rewire", src]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    reports = payload["reports"]
    assert reports["nash"]["passed"] is True
    assert reports["flips"]
    assert reports["matrix_before"] != reports["matrix_after"]
    verdicts = [row["passed"] for row in reports["prefix_consistency"]]
    assert False in verdicts
    assert "edge(s) flipped" in captured.err


def test_rewire_refuses_a_league_no_exchange_moves():
    proc = run_cli("rewire", str(DATA / "flooding.json"), "--league", "5")
    assert proc.returncode == 1
    assert "no slice exchange changed the outcome matrix" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rewired_solution_passes_verify(tmp_path, capsys):
    src = write_json(tmp_path, "near_tie.json", NEAR_TIE)
    out = tmp_path / "rewired.json"
    # at --tol 0.002 budgets 1.5 and 1.501 share a league but not a mean,
    # so their strategies may not be traded
    for tol in ([], ["--tol", "0.002"]):
        assert main(["rewire", src, *tol, "--out", str(out)]) == 0
        capsys.readouterr()
        rewired = EquilibriumSolution.from_dict(json.loads(out.read_text()))
        for g in rewired.groups:
            assert abs(g.strategy.mean() - g.budget) <= 1e-9, tol
        # solution fields sit at top level, so verify can re-read any payload
        assert main(["verify", str(out)]) == 0, tol


def test_analyze_reports_structure(tmp_path, capsys):
    src = write_json(tmp_path, "near_tie.json", NEAR_TIE)
    assert main(["analyze", src]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload["reports"]) == {
        "nash",
        "linear_bounds",
        "leagues",
        "outcome_matrix",
        "transitivity",
        "sub_leagues",
    }
    assert payload["reports"]["transitivity"]["flags"]["weak_stochastic"] is True
    subs = payload["reports"]["sub_leagues"]["sub_leagues"]
    assert subs == [{"members": [0, 1], "thresholds": [1.5]}]
    assert "sub-league [0, 1]: a league when truncated at budget 1.5" in captured.err


def test_analyze_pours_each_group_once(capsys, monkeypatch):
    """analyze reads its solution off the pour that sub_leagues makes."""
    pour = solver._pour_group
    poured = []

    def counted(bounds, levels, budget, mass):
        poured.append(budget)
        return pour(bounds, levels, budget, mass)

    monkeypatch.setattr(solver, "_pour_group", counted)
    assert main(["analyze", str(DATA / "nine_rows.json")]) == 0
    assert poured == [1.0, 1.05, 1.1, 5.0, 5.2, 5.4, 5.6, 7.0, 13.0]


def test_dice_defaults_to_builtin_triple(capsys):
    assert main(["dice"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["dice"] == [
        [1, 1, 6, 6, 8, 8],
        [3, 3, 5, 5, 7, 7],
        [2, 2, 4, 4, 9, 9],
    ]
    assert payload["reports"]["nash"]["passed"] is True
    assert "P(die 0 beats die 1) = 0.555556" in captured.err


def test_dice_reads_custom_faces(tmp_path, capsys):
    src = write_json(tmp_path, "dice.json", {"dice": [[1, 3, 5], [1, 3, 5]]})
    assert main(["dice", src]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["reports"]["outcome_matrix"]["probs"][0][1] == pytest.approx(0.5)
    bad = write_json(tmp_path, "notdice.json", {"faces": [[1, 2]]})
    assert main(["dice", bad]) == 1


def test_export_formats(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    assert main(["export", src]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph outcomes {")
    # step samples come from solve and rewire, which produce the solution
    assert main(["export", src, "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'csv'" in err
    assert "Traceback" not in err
    assert main(["export", src, "--format", "json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert {node["id"] for node in graph["nodes"]} == {0, 1}


def test_mass_normalization_warning(tmp_path, capsys):
    doubled = {
        "subpopulations": [
            {"budget": 1.0, "mass": 1.0},
            {"budget": 1.5, "mass": 1.0},
        ]
    }
    src = write_json(tmp_path, "doubled.json", doubled)
    assert main(["solve", src, "--out", str(tmp_path / "o.json")]) == 0
    captured = capsys.readouterr()
    assert "normalizing" in captured.err


def test_mass_warning_spells_out_a_sum_past_the_float_range(tmp_path, capsys):
    rows = [{"budget": 1.0, "mass": 1e308}, {"budget": 1.5, "mass": 1e308}]
    src = write_json(tmp_path, "huge.json", {"subpopulations": rows})
    assert main(["solve", src]) == 0
    err = capsys.readouterr().err
    assert "warning: masses sum to 2E+308, normalizing to 1\n" in err
    # a sum that fits in a float keeps its repr
    rows = [{"budget": 1.0, "mass": 0.1}, {"budget": 1.5, "mass": 0.2}]
    src = write_json(tmp_path, "small.json", {"subpopulations": rows})
    assert main(["solve", src]) == 0
    err = capsys.readouterr().err
    assert "warning: masses sum to 0.30000000000000004, normalizing to 1\n" in err


def test_deeply_nested_json_exits_one(tmp_path):
    """Nesting past the decoder's recursion limit is invalid input to
    every command that reads a file, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for command in ("solve", "verify", "analyze", "dice", "rewire", "export"):
        proc = run_cli(command, str(deep))
        assert proc.returncode == 1, command
        assert proc.stderr.startswith("error:"), command
        assert "Traceback" not in proc.stderr, command


@pytest.mark.parametrize("mass", [1e308, 1e-320])
def test_masses_at_either_end_of_the_float_range_solve(mass, tmp_path, capsys):
    """Only mass ratios matter, even where a plain sum overflows or is subnormal."""
    rows = [{"budget": 1.0, "mass": 1.0}, {"budget": 1.5, "mass": 1.0}]
    src = write_json(tmp_path, "unit.json", {"subpopulations": rows})
    assert main(["solve", src]) == 0
    unit = capsys.readouterr().out
    for row in rows:
        row["mass"] = mass
    src = write_json(tmp_path, "extreme.json", {"subpopulations": rows})
    assert main(["solve", src]) == 0
    assert capsys.readouterr().out == unit


def test_invalid_inputs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", missing]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["solve", str(bad_json)]) == 1
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["solve", str(array)]) == 1
    unsorted = write_json(
        tmp_path,
        "unsorted.json",
        {
            "subpopulations": [
                {"budget": 2.0, "mass": 0.5},
                {"budget": 1.0, "mass": 0.5},
            ]
        },
    )
    assert main(["solve", unsorted]) == 1
    src = write_json(tmp_path, "pair.json", PAIR)
    solution = tmp_path / "solution.json"
    assert main(["solve", src, "--out", str(solution)]) == 0
    good = json.loads(solution.read_text())
    malformed = {
        "no_budget": lambda d: d["subpopulations"][0].pop("budget"),
        "rows_not_a_list": lambda d: d.update(subpopulations=3),
        "zero_budget": lambda d: d["subpopulations"][0].update(budget=0),
        "nan_budget": lambda d: d["subpopulations"][0].update(budget=float("nan")),
        "huge_budget": lambda d: d["subpopulations"][0].update(budget=float("inf")),
        "negative_mass": lambda d: d["subpopulations"][1].update(mass=-0.5),
        "string_budget": lambda d: d["subpopulations"][0].update(budget="1"),
        "boolean_mass": lambda d: d["subpopulations"][1].update(mass=True),
        "string_breakpoints": lambda d: d["strategies"][0].update(
            breakpoints="02", heights="1"
        ),
    }
    for name, spoil in malformed.items():
        doc = json.loads(json.dumps(good))
        spoil(doc)
        # json writes inf as Infinity; 1e400 is how a JSON file spells it
        text = json.dumps(doc).replace("Infinity", "1e400")
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 1, name
    for dice in ([[1.5, 2], [3, 4]], [1, 2], 5, [[1, None]], [[1, "2"]]):
        assert main(["dice", write_json(tmp_path, "dice.json", {"dice": dice})]) == 1
    capsys.readouterr()
    # float() reads a string or a boolean as a number; a document may not
    typed = {
        "budget": [{"budget": "1.5", "mass": True}],
        "mass": [{"budget": 1.5, "mass": True}],
    }
    for field, rows in typed.items():
        src = write_json(tmp_path, "typed.json", {"subpopulations": rows})
        assert main(["solve", src]) == 1, field
        assert f"error: {field} must be a number" in capsys.readouterr().err
    for name in ("string_budget", "boolean_mass", "string_breakpoints"):
        proc = run_cli("verify", str(tmp_path / f"{name}.json"))
        assert proc.returncode == 1, name
        assert "must be a number" in proc.stderr, name
        assert "Traceback" not in proc.stderr, name
    dice = write_json(tmp_path, "dice.json", {"dice": [[True, 2], [2, 1]]})
    assert main(["dice", dice]) == 1
    assert "got True" in capsys.readouterr().err
    # past 2**53 a float rounds the face or its lower edge v - 1
    for face in (2**53 + 1, 2**53 + 2, 1e300):
        dice = {"dice": [[1, face], [2, 3]]}
        assert main(["dice", write_json(tmp_path, "dice.json", dice)]) == 1, face
        assert "face values must be integers 1..2**53" in capsys.readouterr().err
    # strategies 0 and 8 of nine_rows swapped: linear bounds fail at the
    # default tolerance, and a non-finite one must not wave them through
    assert main(["solve", str(DATA / "nine_rows.json"), "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    strategies = doc["strategies"]
    strategies[0], strategies[8] = strategies[8], strategies[0]
    swapped = write_json(tmp_path, "swapped.json", doc)
    assert main(["verify", swapped, "--tol", "1e-9"]) == 2
    for tol in ("inf", "1e400", "nan", "-inf"):
        assert main(["verify", swapped, f"--tol={tol}"]) == 1, tol
        assert "finite and positive" in capsys.readouterr().err
    capsys.readouterr()
    proc = run_cli("verify", str(tmp_path / "no_budget.json"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "malformed solution record" in proc.stderr


def test_integers_too_large_for_a_float_exit_one(tmp_path, capsys):
    """JSON integers have no size limit; one past the float range is invalid
    input to every command that reads it, whichever field holds it."""
    huge = 10**400

    def refused(argv, name):
        assert main(argv) == 1, name
        assert capsys.readouterr().err.startswith("error:"), name

    for field in ("budget", "mass"):
        doc = json.loads(json.dumps(PAIR))
        doc["subpopulations"][0][field] = huge
        src = write_json(tmp_path, f"{field}.json", doc)
        for command in ("solve", "analyze", "rewire", "export"):
            refused([command, src], f"{command} {field}")
    solution = tmp_path / "solution.json"
    assert main(["solve", str(DATA / "pair.json"), "--out", str(solution)]) == 0
    capsys.readouterr()
    good = json.loads(solution.read_text())
    spoils = {
        "budget": lambda d: d["subpopulations"][0].update(budget=huge),
        "mass": lambda d: d["subpopulations"][1].update(mass=huge),
        "breakpoint": lambda d: d["strategies"][0]["breakpoints"].append(huge),
        "height": lambda d: d["strategies"][1]["heights"].__setitem__(0, huge),
        "atom": lambda d: d["strategies"][0]["atoms"].append([huge, 0.5]),
        "aggregate": lambda d: d["aggregate"]["breakpoints"].__setitem__(0, huge),
    }
    for name, spoil in spoils.items():
        doc = json.loads(json.dumps(good))
        spoil(doc)
        refused(["verify", write_json(tmp_path, f"{name}.json", doc)], f"verify {name}")
    dice = write_json(tmp_path, "dice.json", {"dice": [[1, 2], [3, huge]]})
    refused(["dice", dice], "dice face")


def test_verify_refuses_a_negative_breakpoint(tmp_path, capsys):
    """A strategy on [-1, 2] is invalid input, as a negative atom is, not a
    solution that fails certification."""
    solution = tmp_path / "solution.json"
    assert main(["solve", str(DATA / "pair.json"), "--out", str(solution)]) == 0
    capsys.readouterr()
    doc = json.loads(solution.read_text())
    doc["strategies"][0] = {"breakpoints": [-1.0, 2.0], "heights": [0.5], "atoms": []}
    assert main(["verify", write_json(tmp_path, "negative.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_summary_reads_both_certificates(tmp_path, capsys):
    """The JSON document's worst violation is the worse of its two reports,
    as ``verify`` reads them back, and its linear bounds fail, so it exits
    2; CSV writes no linear bounds and reads nash alone, which passes."""
    rows = [{"budget": 1, "mass": 1}, {"budget": 2, "mass": 1e-8}]
    src = write_json(tmp_path, "light.json", {"subpopulations": rows})
    assert main(["solve", src]) == 2
    captured = capsys.readouterr()
    sol = EquilibriumSolution.from_dict(json.loads(captured.out))
    nash, linear = verify_nash(sol), verify_linear_bounds(sol)
    assert f"worst violation: {max(nash.worst(), linear.worst()):.3e}\n" in captured.err
    assert main(["solve", src, "--format", "csv"]) == 0
    assert f"worst violation: {nash.worst():.3e}\n" in capsys.readouterr().err


def test_invalid_arguments_exit_one(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    assert main(["verify", src, "--format", "csv"]) == 1
    assert main(["solve", src, "--tol", "0"]) == 1
    assert main(["solve", src, "--format", "dot"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err


OPTIONS = {
    "solve": {"--tol", "--out", "--format"},
    "verify": {"--tol", "--out"},
    "analyze": {"--tol", "--out"},
    "dice": {"--tol", "--out"},
    "rewire": {"--tol", "--out", "--format", "--league", "--seed"},
    "export": {"--tol", "--out", "--format"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_command_lists_only_the_options_it_reads(command, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert listed == OPTIONS[command] | {"--help"}


def test_options_a_command_does_not_read_exit_one(tmp_path):
    src = write_json(tmp_path, "near_tie.json", NEAR_TIE)
    for argv in (
        ["analyze", src, "--seed", "1"],
        ["verify", src, "--format", "json"],
        ["solve", src, "--format", "dot"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
    proc = run_cli("rewire", src, "--league", "0", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reports"]["flips"]


def test_usage_errors_exit_one_and_help_exits_zero(tmp_path, capsys):
    # exit 2 must stay exclusive to failed verification
    src = write_json(tmp_path, "pair.json", PAIR)
    assert main(["solve", src, "--seeed", "3"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unwritable_output_exits_one(tmp_path, capsys):
    src = write_json(tmp_path, "pair.json", PAIR)
    target = str(tmp_path / "no" / "such" / "dir" / "out.json")
    assert main(["solve", src, "--out", target]) == 1
    captured = capsys.readouterr()
    assert "cannot write" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("analyze", "--out", "{tmp}/analyze.json")],
    ids=["solve document", "analyze summary"],
)
def test_closed_stdout_exits_one_without_traceback(argv, tmp_path):
    """A reader that closes the pipe at once ends the run with exit 1, as
    an unwritable ``--out`` does, and leaves no traceback on stderr."""
    package_root = str(Path(poplotto.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    command, *options = (arg.format(tmp=tmp_path) for arg in argv)
    proc = subprocess.Popen(
        [sys.executable, "-m", "poplotto.cli", command, str(DATA / "pair.json"), *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "standard output is closed" in err


def test_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    def explode(dist):
        raise SolverError("synthetic failure", group_index=0)

    monkeypatch.setattr("poplotto.cli.solve", explode)
    src = write_json(tmp_path, "pair.json", PAIR)
    assert main(["solve", src]) == 3
    captured = capsys.readouterr()
    assert "solver failure" in captured.err


def test_verify_sliver_past_the_aggregate_fails_cleanly(tmp_path):
    """A strategy ending 2e-9 past the aggregate is a mixture gap, not a crash."""
    solution = {
        "subpopulations": [{"budget": 0.5 + 2e-9, "mass": 1.0}],
        "strategies": [
            {"breakpoints": [2e-9, 1.0 + 2e-9], "heights": [1.0], "atoms": []}
        ],
        "aggregate": {"breakpoints": [0.0, 1.0], "heights": [1.0], "atoms": []},
    }
    proc = run_cli("verify", write_json(tmp_path, "sliver.json", solution))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["nash"]["mixture_gap"] > 1e-9


# Runs each command in one fresh interpreter and prints, per step, the exit
# status and whether numpy has been imported by then.
NUMPY_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import poplotto
    import poplotto.cli

    src, out = sys.argv[1:]
    steps = {"import": (0, "numpy" in sys.modules)}
    for name, argv in (
        ("solve", ["solve", src, "--out", out]),
        ("solve csv", ["solve", src, "--format", "csv"]),
        ("verify", ["verify", out]),
        ("analyze", ["analyze", src]),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                status = poplotto.cli.main(argv)
        steps[name] = (status, "numpy" in sys.modules)
    print(json.dumps(steps))
    """
)


def test_array_free_commands_never_import_numpy(tmp_path):
    """solve, csv included, and verify start without numpy; analyze loads it."""
    proc = run_python(
        "-c", NUMPY_PROBE, str(DATA / "flooding.json"), str(tmp_path / "s.json")
    )
    assert proc.returncode == 0, proc.stderr
    steps = {name: tuple(v) for name, v in json.loads(proc.stdout).items()}
    assert steps == {
        "import": (0, False),
        "solve": (0, False),
        "solve csv": (0, False),
        "verify": (0, False),
        "analyze": (0, True),
    }
