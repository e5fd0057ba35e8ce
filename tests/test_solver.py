"""Pour order, the three pour regimes, and exact conservation per group."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from poplotto import (
    DiscreteBudgetDistribution,
    EquilibriumSolution,
    PiecewiseDensity,
    SolverError,
    SubPopulation,
    TerraceProfile,
    mixture,
    quadratic_fill,
    solve,
    step_gap,
    verify_nash,
    win_prob,
)
from poplotto.density import stack
from poplotto.solver import _pour, _pour_group
from tests import grid_oracles as oracle
from tests.conftest import (
    NINE_ROWS,
    budget_rows,
    document_or_error,
    near_equal_populations,
    scaled_populations,
)

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("budget", [0.5, 1.0, 7.0])
def test_single_group_is_uniform_on_twice_budget(budget):
    sol = solve(budget_rows((budget, 1.0)))
    expected = PiecewiseDensity.uniform(0.0, 2.0 * budget)
    assert step_gap(sol.aggregate, expected) <= 1e-12
    assert step_gap(sol.groups[0].strategy, expected) <= 1e-12
    assert sol.aggregate.heights == (pytest.approx(0.5 / budget, abs=1e-15),)


def test_pair_fixture_hand_traced(pair_sol):
    """Two equal halves at budgets 1 and 1.5: the aggregate is flat 0.4."""
    assert step_gap(pair_sol.aggregate, PiecewiseDensity.uniform(0.0, 2.5)) <= 1e-12
    low, high = pair_sol.groups
    assert step_gap(low.strategy, PiecewiseDensity.uniform(0.0, 2.0, 0.5)) <= 1e-12
    # richer half: thin layer over the poorer block plus its own wall block
    expected_high = mixture(
        [
            (1.0, PiecewiseDensity((0.0, 2.0), (0.15,))),
            (1.0, PiecewiseDensity((2.0, 2.5), (0.4,))),
        ]
    )
    assert step_gap(high.strategy, expected_high) <= 1e-12
    assert high.strategy.total_mass == pytest.approx(0.5, abs=1e-12)
    assert high.strategy.mean() == pytest.approx(1.5, abs=1e-12)


def test_quadratic_fill_pair_step_exact():
    # the settle step behind the pair fixture, in closed form
    wall, level = quadratic_fill(0.0, 2.0, 0.25, 0.5, 1.5)
    assert wall == pytest.approx(2.5, abs=1e-12)
    assert level == pytest.approx(0.4, abs=1e-12)


def test_quadratic_fill_conserves_mass_and_mean():
    wall, level = quadratic_fill(1.0, 3.0, 0.1, 0.7, 4.0)
    top = level - 0.1
    slab = mixture(
        [
            (1.0, PiecewiseDensity((1.0, 3.0), (top,))),
            (1.0, PiecewiseDensity((3.0, wall), (level,))),
        ]
    )
    assert slab.total_mass == pytest.approx(0.7, abs=1e-12)
    assert slab.mean() == pytest.approx(4.0, abs=1e-12)


def test_quadratic_fill_refuses_a_negative_discriminant():
    # the discriminant is (b + 2 a left)**2 in exact arithmetic; here
    # left * left underflows to zero and leaves it at 1 - 4e30
    with pytest.raises(SolverError, match="negative discriminant"):
        quadratic_fill(1e-170, 1.0, 1.0, 1e200, 0.0)


def test_quadratic_fill_refuses_a_wall_on_the_left_edge():
    # a mean left of the terrace puts the larger root on its left edge
    with pytest.raises(SolverError, match="degenerate slab"):
        quadratic_fill(1.0, 2.0, 0.0, 1.0, 0.5)


def test_overflow_that_floods_the_whole_mass_ends_the_pour():
    """A group whose mass floods the last terrace flush to within 1e-12,
    with its mean within EPS of that terrace's centre, ends its pour in
    the flood: its slab is the flood block alone, and the two terraces
    merge into one."""
    rows = ((1.0, 0.5), (3.0, 0.5 - 2e-4), (3.0 + 1.5e-9, 2e-4 + 5e-13))
    sol = solve(budget_rows(*rows))
    assert len(sol.aggregate.heights) == 1
    assert sol.aggregate.breakpoints == (0.0, 4.0)
    assert sol.groups[2].strategy.breakpoints == (2.0, 4.0)
    for g in sol.groups:
        assert g.strategy.total_mass == pytest.approx(g.mass, abs=1e-12)
    assert verify_nash(sol).passed


def test_wide_fixture_two_terraces(wide_sol):
    agg = wide_sol.aggregate
    assert agg.breakpoints == (0.0, 2.0, 18.0)
    assert agg.heights[0] == pytest.approx(0.25, abs=1e-12)
    assert agg.heights[1] == pytest.approx(0.03125, abs=1e-12)
    low, high = wide_sol.groups
    assert low.strategy.support == (0.0, 2.0)
    assert high.strategy.support == (2.0, 18.0)
    # disjoint supports: the richer group wins outright
    assert win_prob(high.strategy.normalized(), low.strategy.normalized()) == 1.0


def test_overflow_merges_terraces_into_one():
    """A heavy top group floods the structure into a single flat slab."""
    sol = solve(budget_rows((1.0, 1.0), (4.0, 1.0), (5.0, 6.0)))
    assert step_gap(sol.aggregate, PiecewiseDensity.uniform(0.0, 8.75)) <= 1e-12
    heavy = sol.groups[2]
    assert heavy.strategy.total_mass == pytest.approx(0.75, abs=1e-12)
    assert heavy.strategy.mean() == pytest.approx(5.0, abs=1e-12)
    # the flooded span [2, 6] is covered twice: flush fill plus the re-pour
    assert heavy.strategy.support == (0.0, 8.75)


def test_append_regime_far_budget(wide_dist):
    sol = solve(budget_rows((1.0, 0.5), (100.0, 0.5)))
    agg = sol.aggregate
    assert agg.breakpoints == (0.0, 2.0, 198.0)
    assert agg.heights[1] == pytest.approx(0.5 / 196.0, abs=1e-15)
    assert sol.groups[1].strategy.mean() == pytest.approx(100.0, abs=1e-9)


def test_distribution_normalizes_masses():
    dist = DiscreteBudgetDistribution(((1.0, 2.0), (2.0, 6.0)))
    assert dist.masses == (0.25, 0.75)
    assert dist.budgets == (1.0, 2.0)
    assert len(dist) == 2


def test_distribution_rejects_bad_rows():
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(())
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(((0.0, 1.0),))
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(((1.0, 0.0),))
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution(((math.inf, 1.0),))


def test_distribution_prefix_renormalizes():
    dist = budget_rows((1.0, 1.0), (2.0, 1.0), (3.0, 2.0))
    head = dist.prefix(2)
    assert head.masses == (0.5, 0.5)
    with pytest.raises(ValueError):
        dist.prefix(0)
    with pytest.raises(ValueError):
        dist.prefix(4)


def test_distribution_dict_roundtrip():
    dist = budget_rows((1.0, 0.25), (3.0, 0.75))
    assert DiscreteBudgetDistribution.from_dict(dist.to_dict()) == dist
    with pytest.raises(ValueError):
        DiscreteBudgetDistribution.from_dict({"subpopulations": [{"budget": 1.0}]})


def test_profile_validation():
    with pytest.raises(ValueError):
        TerraceProfile((1.0,), (math.inf,))
    with pytest.raises(ValueError):
        TerraceProfile((0.0, 1.0), (0.5, 0.25))
    with pytest.raises(ValueError):
        TerraceProfile((0.0, 1.0, 0.5), (math.inf, 0.5, 0.25))
    with pytest.raises(ValueError):
        TerraceProfile((0.0, 1.0, 2.0), (math.inf, 0.25, 0.5))
    with pytest.raises(ValueError):
        TerraceProfile((0.0, 1.0), (math.inf, -0.5))
    with pytest.raises(ValueError):
        TerraceProfile((0.0, 1.0), (math.inf,))


def test_empty_profile_density_is_zero():
    assert TerraceProfile((0.0,), (math.inf,)).as_density().total_mass == 0.0


def test_fill_rejects_bad_slabs():
    for budget, mass in ((-1.0, 0.5), (1.0, 0.0), (math.nan, 0.5)):
        with pytest.raises(ValueError):
            _pour_group([0.0], [math.inf], budget, mass)


def test_fill_unreachable_mean_raises():
    # budget 3 against a structure already built out to 18: the slab would
    # have to settle inside the terrace, which only happens when pours are
    # fed out of budget order
    with pytest.raises(SolverError, match="unreachable"):
        _pour_group([0.0, 2.0, 18.0], [math.inf, 0.25, 0.03125], 3.0, 0.1)


def test_solve_wraps_group_index(monkeypatch):
    def boom(bounds, levels, budget, mass):
        raise SolverError("boom")

    monkeypatch.setattr("poplotto.solver._pour_group", boom)
    with pytest.raises(SolverError, match="group 0: boom") as err:
        solve(budget_rows((1.0, 1.0)))
    assert err.value.group_index == 0


def test_solve_rejects_drifting_slab(monkeypatch):
    # a slab that comes back light should be caught by the reconstruction
    def leaky(bounds, levels, budget, mass):
        bounds.append(2.0)
        levels.append(0.45)
        return PiecewiseDensity.uniform(0.0, 2.0, 0.9)

    monkeypatch.setattr("poplotto.solver._pour_group", leaky)
    with pytest.raises(SolverError, match="drifted") as err:
        solve(budget_rows((1.0, 1.0)))
    assert err.value.group_index == 0


def test_solution_dict_roundtrip(pair_sol):
    data = pair_sol.to_dict()
    back = EquilibriumSolution.from_dict(data)
    assert back.budgets == pair_sol.budgets
    assert back.masses == pair_sol.masses
    assert back.strategies == pair_sol.strategies
    assert back.aggregate == pair_sol.aggregate
    with pytest.raises(ValueError):
        EquilibriumSolution.from_dict({"subpopulations": []})
    short = dict(data, strategies=data["strategies"][:1])
    with pytest.raises(ValueError):
        EquilibriumSolution.from_dict(short)


def test_random_populations_conserve_everything():
    """Mass, mean, monotonicity, and the mixture identity, 20 seeds deep."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        budgets = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(100.0), n)))
        while n > 1 and np.min(np.diff(budgets)) < 1e-3:
            budgets = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(100.0), n)))
        masses = rng.dirichlet(np.ones(n))
        dist = DiscreteBudgetDistribution(tuple(zip(budgets, masses)))
        sol = solve(dist)
        assert sol.aggregate.total_mass == pytest.approx(1.0, abs=1e-9)
        target_mean = float(np.dot(dist.budgets, dist.masses))
        assert sol.aggregate.mean() == pytest.approx(target_mean, rel=1e-9)
        for group, (budget, mass) in zip(sol.groups, dist.entries):
            assert group.strategy.total_mass == pytest.approx(mass, abs=1e-9)
            assert group.strategy.mean() == pytest.approx(budget, rel=1e-9)
        heights = sol.aggregate.heights
        assert all(a >= b - 1e-12 for a, b in zip(heights, heights[1:]))
        assert sol.aggregate.support[0] == 0.0
        remix = mixture([(1.0, g.strategy) for g in sol.groups])
        assert step_gap(sol.aggregate, remix) <= 1e-9


def test_prefix_solutions_embed_in_full_solve():
    """Early pours never move again: a prefix solve is the full one rescaled."""
    dist = budget_rows(*NINE_ROWS)
    full = solve(dist)
    weights = [mass for _, mass in NINE_ROWS]
    total = sum(weights)
    for count in range(1, len(NINE_ROWS) + 1):
        part = solve(dist.prefix(count))
        share = sum(weights[:count]) / total
        for i in range(count):
            rescaled = part.groups[i].strategy.scaled(share)
            assert step_gap(full.groups[i].strategy, rescaled) <= 1e-9


def _solve_by_fill(dist: DiscreteBudgetDistribution) -> EquilibriumSolution:
    """Reference solve: each pour on fresh copies of a validated profile."""
    profile = TerraceProfile((0.0,), (math.inf,))
    groups = []
    for index, (budget, mass) in enumerate(dist.entries):
        bounds, levels = list(profile.bounds), list(profile.levels)
        try:
            slab = _pour_group(bounds, levels, budget, mass)
        except SolverError as exc:
            raise SolverError(f"group {index}: {exc}", group_index=index) from exc
        profile = TerraceProfile(tuple(bounds), tuple(levels))
        if (
            abs(slab.total_mass - mass) > 1e-7
            or abs(slab.mean() - budget) > 1e-7 * max(1.0, budget)
        ):
            raise SolverError(
                f"group {index}: poured slab drifted from its mass or mean",
                group_index=index,
            )
        groups.append(SubPopulation(budget, mass, slab))
    return EquilibriumSolution(tuple(groups), profile.as_density())


@given(scaled_populations())
@settings(deadline=None, max_examples=80)
def test_solve_matches_chained_fill(dist):
    """The in-place pour loop cannot drift from pours chained over profiles."""
    assert document_or_error(solve, dist) == document_or_error(_solve_by_fill, dist)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_solve_matches_chained_fill_on_nine(scale):
    dist = budget_rows(*((b * scale, m) for b, m in NINE_ROWS))
    assert document_or_error(solve, dist) == document_or_error(_solve_by_fill, dist)


@pytest.mark.parametrize(
    "budget, mass", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                     (1.0, 0.0), (1.0, -0.5), (1.0, math.nan), (1.0, math.inf)]
)
def test_solution_record_rejects_bad_budget_or_mass(budget, mass):
    record = {
        "subpopulations": [{"budget": budget, "mass": mass}],
        "strategies": [PiecewiseDensity.uniform(0.0, 2.0).to_dict()],
        "aggregate": PiecewiseDensity.uniform(0.0, 2.0).to_dict(),
    }
    with pytest.raises(ValueError, match="positive and finite"):
        EquilibriumSolution.from_dict(record)


def _poured_pieces(dist: DiscreteBudgetDistribution) -> list[list[tuple]]:
    """The pieces ``_pour`` records for each group it pours without error."""
    bounds, levels = [0.0], [math.inf]
    poured = []
    for budget, mass in dist.entries:
        pieces: list[tuple[float, float, float]] = []
        try:
            _pour(bounds, levels, budget, mass, pieces)
        except SolverError:
            break
        poured.append(pieces)
    return poured


@given(scaled_populations() | near_equal_populations())
@settings(deadline=None, max_examples=120)
def test_stacked_slab_matches_mixture_of_pieces(dist):
    """One construction per slab holds the values the mixture of one-segment
    pieces held, including where near-equal budgets pour slivers."""
    for pieces in _poured_pieces(dist):
        assert document_or_error(stack, pieces) == document_or_error(
            oracle.pour_slab, pieces
        )


SLIVER = 1.0 + 5e-10


@pytest.mark.parametrize(
    "pieces, breakpoints, heights",
    [
        # overflow floods nested terraces flush against one wall, then
        # settles; each cell sums its pieces in pour order, which shows in
        # the last bit of 0.1 + 0.2 + 0.3
        (
            [(2.0, 3.0, 0.1), (1.0, 3.0, 0.2), (0.0, 3.0, 0.3), (3.0, 4.0, 0.5)],
            (0.0, 1.0, 2.0, 3.0, 4.0),
            (0.3, 0.5, 0.6000000000000001, 0.5),
        ),
        # narrower than EPS: dropped with its mass, its end merged away ...
        (
            [(0.0, 1.0, 0.5), (1.0, SLIVER, 3.0), (SLIVER, 2.0, 0.25)],
            (0.0, 1.0, 2.0),
            (0.5, 0.25),
        ),
        # ... or, at the slab's low end, with no edge of its own
        ([(0.0, 5e-10, 3.0), (5e-10, 1.0, 0.5)], (5e-10, 1.0), (0.5,)),
        # zero height, and a negative height within EPS of zero: dropped,
        # so neither end merges the next piece's start away
        (
            [(0.0, 1.0 - 5e-10, 0.0), (1.0, 2.0, 0.5), (2.0, 3.0, -5e-10)],
            (1.0, 2.0),
            (0.5,),
        ),
        # a start within EPS below zero moves onto zero
        ([(-5e-10, 1.0, 0.5), (1.0, 2.0, 0.25)], (0.0, 1.0, 2.0), (0.5, 0.25)),
        ([], (), ()),
    ],
)
def test_stacked_slab_hand_built(pieces, breakpoints, heights):
    slab = stack(pieces)
    assert (slab.breakpoints, slab.heights, slab.atoms) == (breakpoints, heights, ())
    assert slab == oracle.pour_slab(pieces)


@pytest.mark.parametrize(
    "piece, message",
    [
        ((1.0, 2.0, -1e-6), "heights must be non-negative"),
        ((-1e-6, 1.0, 0.5), "breakpoints must be non-negative"),
        ((2.0, 1.0, 0.5), "breakpoints must be increasing"),
        ((0.0, math.inf, 0.5), "must be finite"),
        ((0.0, 1.0, math.nan), "must be finite"),
    ],
)
def test_stacked_slab_refuses_what_a_segment_refuses(piece, message):
    pieces = [(0.0, 1.0, 0.5), piece]
    assert document_or_error(stack, pieces) == document_or_error(
        oracle.pour_slab, pieces
    )
    with pytest.raises(ValueError, match=message):
        stack(pieces)


def test_solve_builds_each_slab_once(monkeypatch, nine_dist):
    """``solve`` constructs one density per group and one aggregate: no
    density per poured piece and no mixture of them; the payoffs then
    build at most one unit-mass copy per group."""
    flooding = DiscreteBudgetDistribution.from_dict(
        json.loads((DATA / "flooding.json").read_text())
    )
    built = []
    post_init = PiecewiseDensity.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PiecewiseDensity, "__post_init__", counted)
    for dist in (nine_dist, flooding):
        built.clear()
        sol = solve(dist)
        assert len(built) == len(sol.groups) + 1
        built.clear()
        sol.payoffs
        assert 0 < len(built) <= len(sol.groups)
