"""Acceptance gate: eight criteria, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test prints ``criterion N [label]: PASS`` or ``FAIL`` and then asserts.
Criteria 3 and 4 share one batch of 200 seeded random populations, built
once per process.
"""

from __future__ import annotations

import math
import time

import numpy as np

from poplotto import (
    DiscreteBudgetDistribution,
    PiecewiseDensity,
    mixture,
    payoff_identity_check,
    solve,
    step_gap,
    verify_linear_bounds,
    verify_nash,
    verify_subpop_consistency,
    win_prob,
    worst_deviation,
)
from poplotto.structure import (
    DICE_TRIPLE,
    dice_to_population,
    league_rewire,
    outcome_matrix,
    transitivity_report,
)
from tests.conftest import NINE_ROWS, budget_rows
from tests.test_payoff import lopsided_pair


def _verdict(number: int, label: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {', '.join(failed)}"


_BATCH: list[tuple[DiscreteBudgetDistribution, object]] | None = None
_BATCH_SECONDS: float | None = None


def _random_batch():
    """200 seeded populations, up to 20 groups, solved and kept for reuse."""
    global _BATCH, _BATCH_SECONDS
    if _BATCH is None:
        rng = np.random.default_rng(20260821)
        dists = []
        for _ in range(200):
            n = int(rng.integers(1, 21))
            while True:
                budgets = np.sort(
                    np.exp(rng.uniform(np.log(0.1), np.log(100.0), n))
                )
                if n == 1 or np.min(np.diff(budgets)) > 1e-4:
                    break
            while True:
                masses = rng.dirichlet(np.ones(n))
                if masses.min() > 1e-9:
                    break
            dists.append(DiscreteBudgetDistribution(tuple(zip(budgets, masses))))
        start = time.perf_counter()
        _BATCH = [(dist, solve(dist)) for dist in dists]
        _BATCH_SECONDS = time.perf_counter() - start
    return _BATCH


def test_criterion_1_single_group_closed_form():
    checks = {}
    for budget in (0.5, 1.0, 7.0):
        dist = budget_rows((budget, 1.0))
        best = math.inf
        for _ in range(7):
            start = time.perf_counter()
            sol = solve(dist)
            best = min(best, time.perf_counter() - start)
        expected = PiecewiseDensity.uniform(0.0, 2.0 * budget)
        checks[f"shape b={budget}"] = step_gap(sol.aggregate, expected) <= 1e-12
        checks[f"height b={budget}"] = (
            abs(sol.aggregate.height_at(budget) - 0.5 / budget) <= 1e-12
        )
        checks[f"runtime b={budget}"] = best < 1e-3
    _verdict(1, "single-group closed form", checks)


def test_criterion_2_hand_traced_pairs():
    pair = solve(budget_rows((1.0, 0.5), (1.5, 0.5)))
    rich = mixture(
        [
            (1.0, PiecewiseDensity((0.0, 2.0), (0.15,))),
            (1.0, PiecewiseDensity((2.0, 2.5), (0.4,))),
        ]
    )
    wide = solve(budget_rows((1.0, 0.5), (10.0, 0.5)))
    terraces = mixture(
        [
            (1.0, PiecewiseDensity((0.0, 2.0), (0.25,))),
            (1.0, PiecewiseDensity((2.0, 18.0), (0.03125,))),
        ]
    )
    checks = {
        "pair wall": abs(pair.aggregate.support[1] - 2.5) <= 1e-9,
        "pair level": abs(pair.aggregate.height_at(1.0) - 0.4) <= 1e-9,
        "pair poor slab": step_gap(
            pair.groups[0].strategy, PiecewiseDensity.uniform(0.0, 2.0, 0.5)
        )
        <= 1e-9,
        "pair rich slab": step_gap(pair.groups[1].strategy, rich) <= 1e-9,
        "wide terraces": step_gap(wide.aggregate, terraces) <= 1e-9,
        "wide sure win": outcome_matrix(wide).probs[1, 0] == 1.0,
    }
    _verdict(2, "hand-traced two-group fixtures", checks)


def test_criterion_3_random_populations_certified():
    start = time.perf_counter()
    batch = _random_batch()
    worst_nash = worst_linear = worst_identity = worst_dyad = 0.0
    prefixes_ok = True
    for dist, sol in batch:
        worst_nash = max(worst_nash, verify_nash(sol, 1e-9).worst())
        worst_linear = max(worst_linear, verify_linear_bounds(sol, 1e-9).worst())
        worst_identity = max(worst_identity, payoff_identity_check(sol))
        _, gain = worst_deviation(sol)
        worst_dyad = max(worst_dyad, gain)
        prefix = verify_subpop_consistency(dist, sol, 1e-9)
        prefixes_ok = prefixes_ok and all(check.passed for check in prefix)
    elapsed = time.perf_counter() - start
    checks = {
        "staircase <= 1e-9": worst_nash <= 1e-9,
        "chords <= 1e-9": worst_linear <= 1e-9,
        "payoff identity <= 1e-9": worst_identity <= 1e-9,
        "dyad gain <= 1e-9": worst_dyad <= 1e-9,
        "all prefixes pass": prefixes_ok,
        "under 30s": elapsed < 30.0,
    }
    _verdict(3, "random populations certified", checks)


def test_criterion_4_budget_order_and_transitivity():
    order_ok = True
    weak = certainty = dominance = 0
    for _, sol in _random_batch():
        matrix = outcome_matrix(sol)
        W = matrix.probs
        for i in range(matrix.n):
            for j in range(i + 1, matrix.n):
                # group j carries the larger budget
                if W[j, i] < 0.5 - 1e-9:
                    order_ok = False
        report = transitivity_report(matrix, tol=1e-9)
        weak += len(report.weak_stochastic)
        certainty += len(report.certainty)
        dominance += len(report.dominance)
    checks = {
        "richer never loses": order_ok,
        "weak violations == 0": weak == 0,
        "certainty violations == 0": certainty == 0,
        "dominance violations == 0": dominance == 0,
    }
    _verdict(4, "budget order and transitivity", checks)


def test_criterion_5_dice_embedding():
    pop = dice_to_population(DICE_TRIPLE)
    W = outcome_matrix(pop).probs
    cycle = max(
        abs(W[0, 1] - 5 / 9), abs(W[1, 2] - 5 / 9), abs(W[2, 0] - 5 / 9)
    )
    checks = {
        "budgets 4.5": all(abs(b - 4.5) <= 1e-12 for b in pop.budgets),
        "cycle at 5/9": cycle <= 1e-12,
        "uniform aggregate": step_gap(
            pop.aggregate, PiecewiseDensity.uniform(0.0, 9.0)
        )
        <= 1e-12,
        "equilibrium": verify_nash(pop, 1e-9).passed,
    }
    _verdict(5, "dice embed as an equilibrium cycle", checks)


def test_criterion_6_two_player_closed_form():
    checks = {}
    for a, b in ((1.0, 0.5), (2.0, 1.0), (3.0, 0.3)):
        rich, poor = lopsided_pair(a, b)
        expected = 1.0 - b / (2.0 * a)
        checks[f"closed form a={a} b={b}"] = (
            abs(win_prob(rich, poor) - expected) <= 1e-12
        )
    rich, poor = lopsided_pair(2.0, 1.0)
    rng = np.random.default_rng(2026)
    n = 1_000_000
    x = rich.sample(n, rng)
    y = poor.sample(n, rng)
    observed = float(np.mean((x > y) + 0.5 * (x == y)))
    expected = 0.75
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    checks["monte carlo within 3 sigma"] = abs(observed - expected) < 3.0 * sigma
    _verdict(6, "two-player closed form", checks)


def test_criterion_7_establishment_counterexample():
    expected = tuple((i, j, 7) for i in range(3) for j in range(3, 7))

    def audit():
        sol = solve(budget_rows(*NINE_ROWS))
        matrix = outcome_matrix(sol)
        return matrix.probs, transitivity_report(matrix, tol=1e-9)

    W, report = audit()
    W2, report2 = audit()
    checks = {
        "establishment fails": report.establishment == expected,
        "certainty holds": report.certainty == (),
        "dominance holds": report.dominance == (),
        "deterministic": np.array_equal(W, W2)
        and report2.establishment == expected,
    }
    _verdict(7, "establishment breaks while certainty holds", checks)


def test_criterion_8_league_rewiring():
    dice = dice_to_population(DICE_TRIPLE)
    before = outcome_matrix(dice).probs
    rewired = league_rewire(dice, 0, seed=0)
    after = outcome_matrix(rewired).probs
    flips = int(np.sum((before - 0.5) * (after - 0.5) < 0.0))
    remix = mixture([(1.0, g.strategy) for g in rewired.groups])

    staircase = solve(
        budget_rows((1.0, 1.0), (1.5, 1.0), (1.501, 1.0))
    )
    dist = budget_rows((1.0, 1.0), (1.5, 1.0), (1.501, 1.0))
    stair_rewired = league_rewire(staircase, 0, seed=0)
    stair_flips = int(
        np.sum(
            (outcome_matrix(staircase).probs - 0.5)
            * (outcome_matrix(stair_rewired).probs - 0.5)
            < 0.0
        )
    )
    prefix = verify_subpop_consistency(dist, stair_rewired, 1e-9)
    checks = {
        "dice edge flipped": flips >= 1,
        "dice aggregate unchanged": step_gap(remix, dice.aggregate) <= 1e-12,
        "dice still equilibrium": verify_nash(rewired, 1e-9).passed,
        "staircase edge flipped": stair_flips >= 1,
        "staircase still equilibrium": verify_nash(stair_rewired, 1e-9).passed,
        "a prefix check fails": any(not check.passed for check in prefix),
    }
    _verdict(8, "league rewiring bends outcomes, not the aggregate", checks)
