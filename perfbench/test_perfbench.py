"""Self-tests of the benchmark harness (not of the program).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import gate
import run
import session as session_module
import workloads
from poplotto import DiscreteBudgetDistribution, PiecewiseDensity, solve
from poplotto.solver import EquilibriumSolution, SubPopulation

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.populations(workload, 3)
    assert first == workloads.populations(workload, 3)
    assert first != workloads.populations(workload, 4)
    for rows in first:
        budgets = [b for b, _ in rows]
        assert all(b2 > b1 for b1, b2 in zip(budgets, budgets[1:]))
        assert all(m > 0 for _, m in rows)
        assert abs(sum(m for _, m in rows) - 1.0) < 1e-12


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced_session(tmp_path_factory):
    s = session_module.Session(
        "batch-small", 1, tmp_path_factory.mktemp("run"), run.child_env(), traced=True
    )
    s.run_traced(0.0)
    return s


def test_metric_names(traced_session):
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = list(run.per_layer_metrics(traced_session))
    assert end_to_end == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert per_layer == [m["name"] for m in BENCHMARK["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert traced_session.failed == 0


def _perturbed(sol: EquilibriumSolution) -> EquilibriumSolution:
    """Shift the poorest group's strategy right: same mass, wrong place."""
    groups = list(sol.groups)
    g = groups[0]
    moved = PiecewiseDensity(
        tuple(x + 0.05 for x in g.strategy.breakpoints), g.strategy.heights
    )
    groups[0] = SubPopulation(g.budget, g.mass, moved)
    return EquilibriumSolution(tuple(groups), sol.aggregate)


def test_perturbed_solution_is_counted_failed(traced_session, tmp_path):
    dist = DiscreteBudgetDistribution(((1.0, 0.5), (1.5, 0.3), (4.0, 0.2)))
    sol = solve(dist)
    assert gate.certificate_problems(session_module.certificates(dist, sol)) == []
    bad = _perturbed(sol)
    problems = gate.certificate_problems(session_module.certificates(dist, bad))
    assert problems

    before = traced_session.failed
    traced_session._record("ok", problems, "perturbed solution")
    assert traced_session.failed == before + 1

    # the same solution through the command line: verify exits 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_dict()))
    _, code, err = traced_session._cli(["verify", str(path), "--out", str(tmp_path / "v.json")])
    status, problems = gate.exit_problems(code, err)
    assert (status, code) == ("failed", 2) and problems


def test_rewire_gate_catches_a_moved_aggregate():
    sol = solve(DiscreteBudgetDistribution(((1.0, 1.0), (1.5, 1.0), (1.501, 1.0))))
    assert gate.rewire_doc_problems(sol.to_dict(), sol.aggregate) == []
    assert gate.rewire_doc_problems(_perturbed(sol).to_dict(), sol.aggregate)


def test_exit_classification():
    assert gate.exit_problems(0, "")[0] == "ok"
    refusal = "error: no slice exchange changed the outcome matrix\n"
    assert gate.exit_problems(1, refusal, refusable=True)[0] == "refused"
    assert gate.exit_problems(1, refusal)[0] == "failed"
    assert gate.exit_problems(7, "")[0] == "failed"
    assert gate.exit_problems(0, "Traceback (most recent call last):")[0] == "failed"


def test_changed_document_is_counted_failed(traced_session, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}')
    assert traced_session._document("probe", (0,), path)[1] == []
    path.write_text('{"a": 2}')
    assert traced_session._document("probe", (0,), path)[1]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "flooding", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
