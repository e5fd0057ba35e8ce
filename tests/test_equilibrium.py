"""Certification routines: staircase checks, chord bounds, dyad search."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import poplotto
import poplotto.density as density
import poplotto.equilibrium as equilibrium
import poplotto.payoff as payoff
import poplotto.solver as solver
from poplotto import (
    EPS,
    DiscreteBudgetDistribution,
    Dyad,
    EquilibriumReport,
    EquilibriumSolution,
    PiecewiseDensity,
    SolverError,
    SubPopulation,
    best_dyad,
    leagues,
    mixture,
    payoff_identity_check,
    solve,
    verify_linear_bounds,
    verify_nash,
    verify_subpop_consistency,
    worst_deviation,
)
from poplotto.density import refine
from poplotto.payoff import dyad_payoff, win_prob
from poplotto.structure import league_rewire
from tests import grid_oracles as oracle
from tests.conftest import scaled_populations


def test_nash_passes_on_solved_fixtures(pair_sol, wide_sol, nine_sol):
    for sol in (pair_sol, wide_sol, nine_sol):
        report = verify_nash(sol, tol=1e-12)
        assert report.passed
        assert report.worst() <= 1e-12


def test_nash_payoffs_match_cumulative_levels(pair_sol, wide_sol):
    report = verify_nash(pair_sol)
    assert report.groups[0].payoff == pytest.approx(0.4, abs=1e-12)
    assert report.groups[1].payoff == pytest.approx(0.6, abs=1e-12)
    report = verify_nash(wide_sol)
    assert report.groups[0].payoff == pytest.approx(0.25, abs=1e-12)
    assert report.groups[1].payoff == pytest.approx(0.75, abs=1e-12)


def test_nash_catches_rising_density():
    # support starting above zero leaves a gap an opponent can sit under
    block = PiecewiseDensity.uniform(1.0, 2.0)
    sol = EquilibriumSolution((SubPopulation(1.5, 1.0, block),), block)
    report = verify_nash(sol)
    assert not report.passed
    assert report.monotone_violation == pytest.approx(1.0, abs=1e-12)


def test_nash_catches_interior_step_up():
    rising = mixture(
        [
            (1.0, PiecewiseDensity((0.0, 1.0), (0.25,))),
            (1.0, PiecewiseDensity((1.0, 2.0), (0.75,))),
        ]
    )
    sol = EquilibriumSolution((SubPopulation(1.25, 1.0, rising),), rising)
    report = verify_nash(sol)
    assert report.monotone_violation == pytest.approx(0.5, abs=1e-12)


def test_nash_catches_mass_at_zero():
    lumpy = mixture(
        [
            (1.0, PiecewiseDensity.point(0.0, 0.5)),
            (1.0, PiecewiseDensity.uniform(0.0, 2.0, 0.5)),
        ]
    )
    sol = EquilibriumSolution((SubPopulation(0.5, 1.0, lumpy),), lumpy)
    report = verify_nash(sol)
    assert not report.passed
    assert report.cdf_at_zero == pytest.approx(0.5, abs=1e-12)


def test_nash_catches_strategy_aggregate_drift(pair_sol):
    shaved = (
        SubPopulation(
            pair_sol.groups[0].budget,
            pair_sol.groups[0].mass,
            pair_sol.groups[0].strategy.scaled(0.9),
        ),
        pair_sol.groups[1],
    )
    report = verify_nash(EquilibriumSolution(shaved, pair_sol.aggregate))
    assert not report.passed
    # the poorer block's height drops from 0.25 to 0.225 in the blend
    assert report.mixture_gap == pytest.approx(0.025, abs=1e-12)


def test_nash_catches_support_spanning_two_treads(wide_sol):
    # a strategy spread across both terraces sees two different levels
    spread = (
        SubPopulation(2.0, 0.5, PiecewiseDensity.uniform(0.0, 4.0, 0.5)),
        wide_sol.groups[1],
    )
    report = verify_nash(EquilibriumSolution(spread, wide_sol.aggregate))
    assert not report.passed
    assert report.groups[0].flat_violation == pytest.approx(0.21875, abs=1e-12)


def test_linear_bounds_pass_with_known_lines(pair_sol, wide_sol):
    """Chord intercepts and slopes for the two hand-traced fixtures."""
    report = verify_linear_bounds(pair_sol, tol=1e-12)
    assert report.passed
    for check in report.groups:
        assert check.intercept == pytest.approx(0.0, abs=1e-12)
        assert check.slope == pytest.approx(0.4, abs=1e-12)
    report = verify_linear_bounds(wide_sol, tol=1e-12)
    assert report.passed
    low, high = report.groups
    assert low.intercept == pytest.approx(0.0, abs=1e-12)
    assert low.slope == pytest.approx(0.25, abs=1e-12)
    assert high.intercept == pytest.approx(0.4375, abs=1e-12)
    assert high.slope == pytest.approx(0.03125, abs=1e-12)


def test_linear_bounds_catch_stretched_support(wide_sol):
    # hull reaching past the first tread cannot sit on one straight line
    stretched = (
        SubPopulation(1.5, 0.5, PiecewiseDensity.uniform(0.0, 3.0, 0.5)),
        wide_sol.groups[1],
    )
    report = verify_linear_bounds(EquilibriumSolution(stretched, wide_sol.aggregate))
    assert not report.passed
    assert report.groups[0].support_gap > 1e-3


def test_best_dyad_finds_no_gain_at_equilibrium(pair_sol, wide_sol, nine_sol):
    for sol in (pair_sol, wide_sol, nine_sol):
        for group in sol.groups:
            _, gain = best_dyad(group.budget, sol.aggregate)
            assert abs(gain) <= 1e-12


def test_best_dyad_exploits_convex_curve():
    # cumulative curve convex on [0, 2]: the extreme split beats the middle
    agg = PiecewiseDensity((0.0, 1.0, 2.0), (0.2, 0.8))
    dyad, gain = best_dyad(1.0, agg)
    assert dyad == Dyad(0.0, 2.0, 1.0)
    assert gain == pytest.approx(0.3, abs=1e-12)


def test_dyad_certificates_read_a_start_just_below_zero():
    """A density starting within EPS below zero starts at zero, so its grid
    has zero as the low point of the dyad over the budget."""
    agg = PiecewiseDensity((-5e-10, 2.0), (0.5,))
    sol = EquilibriumSolution((SubPopulation(1.0, 1.0, agg),), agg)
    assert best_dyad(1.0, agg) == (Dyad(0.0, 2.0, 1.0), 0.0)
    assert worst_deviation(sol) == (Dyad(0.0, 2.0, 1.0), 0.0)


def test_best_dyad_rejects_bad_budget():
    agg = PiecewiseDensity.uniform(0.0, 2.0)
    with pytest.raises(ValueError):
        best_dyad(0.0, agg)
    with pytest.raises(ValueError):
        best_dyad(float("inf"), agg)


def test_best_dyad_rejects_budget_with_no_straddling_grid():
    """A budget within EPS of zero has no grid point below it to pair with,
    and one too large for ``budget + 1`` to register has none above."""
    tiny = PiecewiseDensity.uniform(0.0, 2e-10)
    with pytest.raises(ValueError, match="no dyad straddles"):
        best_dyad(1e-10, tiny)
    with pytest.raises(ValueError, match="no dyad straddles"):
        best_dyad(1e17, PiecewiseDensity.uniform(0.0, 2.0))
    sol = EquilibriumSolution((SubPopulation(1e-10, 1.0, tiny),), tiny)
    with pytest.raises(ValueError, match="no dyad straddles"):
        worst_deviation(sol)


def test_best_dyad_rejects_budget_near_zero_under_optimize():
    """The rejection is a raised error, not an ``assert`` that ``-O`` strips."""
    code = (
        "from poplotto import PiecewiseDensity, best_dyad\n"
        "try:\n"
        "    best_dyad(1e-10, PiecewiseDensity.uniform(0.0, 2e-10))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    package_root = str(Path(poplotto.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\n"


@st.composite
def dyad_searches(draw) -> tuple[float, PiecewiseDensity]:
    """A unit-mass aggregate with zero-height gaps and atoms at zero or on
    breakpoints, and a budget on a grid point or 0.3-1.2 EPS from one."""
    n = draw(st.integers(1, 6))
    start = draw(st.sampled_from([0.0]) | st.floats(0.0, 3.0))
    widths = draw(st.lists(st.floats(1e-3, 5.0), min_size=n, max_size=n))
    breakpoints = list(itertools.accumulate(widths, initial=start))
    heights = draw(
        st.lists(st.sampled_from([0.0]) | st.floats(0.0, 2.0), min_size=n, max_size=n)
    )
    locs = draw(
        st.lists(
            st.sampled_from([0.0, *breakpoints]) | st.floats(0.0, breakpoints[-1] + 1.0),
            max_size=3,
        )
    )
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(locs), max_size=len(locs)))
    raw = PiecewiseDensity(breakpoints, heights, tuple(zip(locs, masses)))
    assume(raw.total_mass > 1e-6)
    agg = raw.normalized()
    grid = [0.0, *agg.breakpoints, *(loc for loc, _ in agg.atoms)]
    anchor = draw(st.sampled_from(grid) | st.floats(0.0, max(grid) + 2.0))
    near = st.floats(0.3 * EPS, 1.2 * EPS)
    offset = draw(st.sampled_from([0.0]) | near | near.map(lambda d: -d))
    budget = anchor + offset
    assume(budget > 0.0)
    return budget, agg


def _assert_dyad_matches_scan(budget: float, agg: PiecewiseDensity) -> float:
    """``best_dyad`` earns what the pair scan finds, with a straddling dyad
    whose payoff is the reported gain; returns the gain."""
    dyad, gain = best_dyad(budget, agg)
    _, want = oracle.best_dyad_scan(budget, agg)
    assert abs(gain - want) <= 1e-12
    assert dyad.low < budget - EPS
    assert dyad.high > budget + EPS
    assert dyad_payoff(dyad, agg) - agg.cdf(budget).midpoint == gain
    return gain


@given(dyad_searches())
@settings(deadline=None, max_examples=300)
def test_best_dyad_matches_pair_scan(case):
    budget, agg = case
    if not 0.0 < budget - EPS:
        # zero is the lowest grid point, so nothing lies below budget - EPS
        with pytest.raises(ValueError, match="no dyad straddles"):
            best_dyad(budget, agg)
        return
    _assert_dyad_matches_scan(budget, agg)


@given(scaled_populations())
@settings(deadline=None, max_examples=60)
def test_best_dyad_matches_pair_scan_on_solutions(dist):
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    gains = [_assert_dyad_matches_scan(g.budget, sol.aggregate) for g in sol.groups]
    assert worst_deviation(sol)[1] == max(gains)


def test_worst_deviation_reads_the_aggregate_once(monkeypatch):
    """Linear in groups plus grid points on the staircase input, where the
    pair scan made O(n K^2) payoff evaluations."""
    data = json.loads((Path(__file__).parent / "data" / "staircase.json").read_text())
    sol = solve(DiscreteBudgetDistribution.from_dict(data))
    agg = sol.aggregate
    # zero, the breakpoints, the atoms and one point past the support
    grid = 2 + len(agg.breakpoints) + len(agg.atoms)
    payoffs = []
    reads = []
    cdf = PiecewiseDensity.cdf

    def counted_payoff(dyad, aggregate):
        payoffs.append(dyad)
        return dyad_payoff(dyad, aggregate)

    def counted_cdf(self, x):
        reads.append(x)
        return cdf(self, x)

    monkeypatch.setattr(equilibrium, "dyad_payoff", counted_payoff)
    monkeypatch.setattr(PiecewiseDensity, "cdf", counted_cdf)
    dyad, gain = worst_deviation(sol)
    n = len(sol.groups)
    assert (n, len(agg.breakpoints)) == (100, 79)
    assert len(payoffs) <= n
    assert len(reads) <= 4 * (n + grid)
    assert dyad is not None and gain <= 1e-12


def _best_of_searches(sol: EquilibriumSolution) -> tuple[Dyad | None, float]:
    """The first largest ``best_dyad`` gain over the groups, each search
    building its own envelope."""
    worst_dyad, worst_gain = None, -math.inf
    for g in sol.groups:
        dyad, gain = best_dyad(g.budget, sol.aggregate)
        if gain > worst_gain:
            worst_dyad, worst_gain = dyad, gain
    return worst_dyad, worst_gain


@given(scaled_populations())
@settings(deadline=None, max_examples=60)
def test_worst_deviation_matches_per_group_searches(dist):
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    assert worst_deviation(sol) == _best_of_searches(sol)


def test_worst_deviation_searches_its_own_envelope_off_the_shared_one(pair_sol):
    """A budget within EPS of an aggregate breakpoint drops that point, and
    one past the support moves the point past it; each such group builds
    its own envelope, as ``best_dyad`` does."""
    agg = pair_sol.aggregate
    kink, end = agg.breakpoints[1], agg.support[1]
    for budget in (kink - 0.5 * EPS, kink + 0.5 * EPS, end + 0.5):
        group = dataclasses.replace(pair_sol.groups[0], budget=budget)
        sol = dataclasses.replace(pair_sol, groups=(group,))
        assert worst_deviation(sol) == _best_of_searches(sol)


def test_worst_deviation_certifies_fixture(pair_sol):
    dyad, gain = worst_deviation(pair_sol)
    assert dyad is not None
    assert abs(gain) <= 1e-12


def test_dyad_search_ignores_tol(nine_sol):
    """``tol`` is not read: the gain comes back raw for the caller to judge."""
    assert worst_deviation(nine_sol, 1e-300) == worst_deviation(nine_sol, 1.0)
    assert payoff_identity_check(nine_sol, 1e-300) == payoff_identity_check(
        nine_sol, 1.0
    )


def test_payoff_identity_on_fixtures(pair_sol, wide_sol, nine_sol):
    for sol in (pair_sol, wide_sol, nine_sol):
        assert payoff_identity_check(sol) <= 1e-12


def test_subpop_consistency_passes_on_solved(nine_dist, nine_sol):
    checks = verify_subpop_consistency(nine_dist, nine_sol, tol=1e-9)
    assert len(checks) == len(nine_sol.groups)
    assert all(check.passed for check in checks)
    assert [check.count for check in checks] == list(range(1, 10))
    assert checks[-1].threshold == 13.0


def test_subpop_consistency_fails_after_rewire(near_tie_dist, near_tie_sol):
    """A rewired league still mixes to the aggregate but breaks a prefix."""
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    checks = verify_subpop_consistency(near_tie_dist, rewired, tol=1e-9)
    verdicts = [check.passed for check in checks]
    assert verdicts[-1] is True
    assert False in verdicts


def test_subpop_consistency_rejects_mismatches(pair_dist, pair_sol, wide_sol):
    with pytest.raises(ValueError):
        verify_subpop_consistency(pair_dist, wide_sol)
    shifted = EquilibriumSolution(
        (
            SubPopulation(1.1, 0.5, pair_sol.groups[0].strategy),
            pair_sol.groups[1],
        ),
        pair_sol.aggregate,
    )
    with pytest.raises(ValueError):
        verify_subpop_consistency(pair_dist, shifted)


def _assert_prefix_matches(new, count, g, old, agg):
    """One prefix check against an oracle's report and the aggregate it read."""
    assert (new.count, new.threshold) == (count, g.budget)
    assert new.passed == old.passed
    slack = 1e-12 * max(agg.heights, default=0.0)
    a = new.report
    assert a.passed == new.passed
    assert a.mixture_gap is None
    assert abs(a.monotone_violation - old.monotone_violation) <= slack
    assert abs(a.cdf_at_zero - old.cdf_at_zero) <= slack
    assert len(a.groups) == len(old.groups)
    for x, y in zip(a.groups, old.groups):
        assert x.budget == y.budget
        assert x.payoff is None
        assert abs(x.flat_violation - y.flat_violation) <= slack


def _assert_prefixes_match_oracle(dist, sol, prefix_oracle):
    got = verify_subpop_consistency(dist, sol, 1e-9)
    want = prefix_oracle(sol, 1e-9)
    assert len(got) == len(want)
    for count, (new, g, (old, agg)) in enumerate(zip(got, sol.groups, want), 1):
        _assert_prefix_matches(new, count, g, old, agg)


def _solved_and_rewired(dist):
    """The solution of ``dist`` and, when a league accepts one, a rewire."""
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    shared = [i for i, lg in enumerate(leagues(sol)) if len(lg.members) >= 2]
    if shared:
        try:
            return sol, league_rewire(sol, shared[0], seed=0)
        except ValueError:
            pass  # the league declined every exchange
    return sol, None


@given(scaled_populations())
@settings(deadline=None, max_examples=100)
def test_subpop_consistency_matches_prefix_oracle(dist):
    """The shared grid gives the verdicts of rescaling and remixing every
    prefix, on solved populations and on one rewire of each."""
    for sol in filter(None, _solved_and_rewired(dist)):
        _assert_prefixes_match_oracle(dist, sol, oracle.subpop_consistency)


@given(scaled_populations())
@settings(deadline=None, max_examples=100)
def test_subpop_consistency_matches_running_mixture(dist):
    """Every verdict and violation of the running-mixture loop, within
    1e-12 of the largest prefix height, on solved and rewired populations.

    The running mixture coalesces equal neighbouring heights as it goes,
    so its grid can lack a breakpoint that a one-shot mix keeps, and a
    later point within EPS of it then merges differently (ROADMAP item 2).
    On a prefix where the loop's verdict differs from the remix oracle's,
    the remix oracle is the reference instead.
    """
    for sol in filter(None, _solved_and_rewired(dist)):
        got = verify_subpop_consistency(dist, sol, 1e-9)
        running = oracle.running_subpop_consistency(sol, 1e-9)
        remixed = oracle.subpop_consistency(sol, 1e-9)
        for count, (new, g, run, mix) in enumerate(
            zip(got, sol.groups, running, remixed), 1
        ):
            old, agg = run if run[0].passed == mix[0].passed else mix
            _assert_prefix_matches(new, count, g, old, agg)


def _atom_solution() -> tuple[DiscreteBudgetDistribution, EquilibriumSolution]:
    """Hand-built strategies with atoms: one at zero, one inside the first
    group's hull, two within EPS of each other that pool, and one that
    stretches the last hull past the end of every breakpoint.  The first
    two strategies start within EPS below zero, which construction moves
    onto zero, so no prefix counts mass below zero at zero."""
    strategies = (
        PiecewiseDensity((-0.5 * EPS, 1.0), (0.5,), ((0.0, 0.1),)),
        PiecewiseDensity((-EPS, 2.0), (0.4,), ((0.5, 0.2),)),
        PiecewiseDensity((1.7, 2.0), (1.0,), ((1.5, 0.3),)),
        PiecewiseDensity((2.0, 3.0), (0.5,), ((1.5 + 0.5 * EPS, 0.9), (4.0, 0.2))),
    )
    budgets = (0.5, 1.0, 1.5, 2.0)
    dist = DiscreteBudgetDistribution(tuple((b, 1.0) for b in budgets))
    groups = tuple(SubPopulation(b, 1.0, f) for b, f in zip(budgets, strategies))
    return dist, EquilibriumSolution(groups, mixture([(1.0, f) for f in strategies]))


@pytest.mark.parametrize(
    "prefix_oracle", [oracle.running_subpop_consistency, oracle.subpop_consistency]
)
def test_subpop_consistency_reads_atoms_as_the_oracles_do(prefix_oracle):
    dist, sol = _atom_solution()
    _assert_prefixes_match_oracle(dist, sol, prefix_oracle)
    checks = verify_subpop_consistency(dist, sol, 1e-9)
    assert not any(check.passed for check in checks)
    # on the whole population, of mass 4: the pooled pair, 0.3 + 0.9, is
    # the largest interior atom and breaks the second group's hull; the
    # atom at zero is cumulative mass there; the last hull reads the zero
    # past x = 3 against the height 1.4 on [1.7, 2]
    last = checks[-1].report
    assert last.monotone_violation == pytest.approx(1.2 / 4.0, abs=1e-12)
    assert last.groups[1].flat_violation == pytest.approx(1.2 / 4.0, abs=1e-12)
    assert last.cdf_at_zero == pytest.approx(0.1 / 4.0, abs=1e-12)
    assert last.groups[3].flat_violation == pytest.approx(1.4 / 4.0, abs=1e-12)


def test_subpop_consistency_near_tie_rewire_matches_running_mixture(
    near_tie_dist, near_tie_sol
):
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    _assert_prefixes_match_oracle(
        near_tie_dist, rewired, oracle.running_subpop_consistency
    )
    checks = verify_subpop_consistency(near_tie_dist, rewired, 1e-9)
    assert [check.passed for check in checks] == [True, False, True]


def test_subpop_consistency_builds_reports_only_when_read(
    monkeypatch, near_tie_dist, near_tie_sol
):
    """Verdicts and documents need no ``GroupCheck``; a prefix's report is
    built on its first read, agrees with the verdict and is kept."""
    data = json.loads((Path(__file__).parent / "data" / "flooding.json").read_text())
    flooding_dist = DiscreteBudgetDistribution.from_dict(data)
    flooding_sol = solve(flooding_dist)
    built = []
    group_check = equilibrium.GroupCheck

    def counted(*args, **kwargs):
        built.append(args[0])
        return group_check(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "GroupCheck", counted)
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    for dist, sol in ((near_tie_dist, rewired), (flooding_dist, flooding_sol)):
        checks = verify_subpop_consistency(dist, sol, 1e-9)
        verdicts = [check.passed for check in checks]
        documents = [check.to_dict() for check in checks]
        assert built == []
        assert [doc["passed"] for doc in documents] == verdicts
        for check in checks:
            assert check.report.passed == check.passed
            assert len(built) == check.count
            assert check.report is check.report
            built.clear()


def test_subpop_consistency_never_mixes(
    monkeypatch, nine_dist, nine_sol, near_tie_dist, near_tie_sol
):
    """No ``mixture`` call on any number of groups, and no prefix goes
    through ``verify_nash`` or ``step_gap``, reports read or not.  The
    certificates read ``EquilibriumSolution.cells`` and never import
    ``mixture`` at all."""
    rewired = league_rewire(near_tie_sol, 0, seed=0)

    def forbidden(*args, **kwargs):
        raise AssertionError("prefix re-certification mixed or compared densities")

    assert not hasattr(equilibrium, "mixture")
    monkeypatch.setattr(equilibrium, "verify_nash", forbidden)
    monkeypatch.setattr(equilibrium, "step_gap", forbidden)
    for dist, sol in ((nine_dist, nine_sol), (near_tie_dist, rewired)):
        for check in verify_subpop_consistency(dist, sol, 1e-9):
            check.report.to_dict()


def test_certificates_read_each_payoff_once(monkeypatch, nine_dist):
    """``verify_nash``, ``verify_linear_bounds`` and ``payoff_identity_check``
    share ``EquilibriumSolution.payoffs``: n contests, not 3n."""
    calls = []

    def counted(f, h):
        calls.append(f)
        return win_prob(f, h)

    monkeypatch.setattr(solver, "win_prob", counted)
    sol = solve(nine_dist)
    assert not calls
    verify_nash(sol, 1e-9)
    verify_linear_bounds(sol, 1e-9)
    payoff_identity_check(sol, 1e-9)
    assert len(calls) == len(sol.groups) == 9


def test_payoffs_belong_to_their_solution(near_tie_sol):
    """A solution built from another, by ``league_rewire`` or
    ``dataclasses.replace``, reads its own payoffs, not the cached ones."""
    parent = near_tie_sol.payoffs
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    flipped = dataclasses.replace(near_tie_sol, groups=near_tie_sol.groups[::-1])
    for sol in (rewired, flipped):
        assert sol.payoffs == tuple(
            win_prob(g.strategy.normalized(), sol.aggregate) for g in sol.groups
        )
    assert flipped.payoffs == parent[::-1] != parent
    assert near_tie_sol.payoffs is parent


def test_certificates_refine_the_strategies_once(monkeypatch, nine_dist):
    """``verify_nash`` and ``verify_subpop_consistency`` share
    ``EquilibriumSolution.cells``: one ``refine`` of the strategies per
    solution, not one per certificate."""
    calls = []

    def counted(points, densities):
        calls.append(tuple(densities))
        return refine(points, densities)

    for module in (density, payoff, solver):
        monkeypatch.setattr(module, "refine", counted)
    sol = solve(nine_dist)
    calls.clear()
    verify_nash(sol, 1e-9)
    verify_subpop_consistency(nine_dist, sol, 1e-9)
    verify_nash(sol, 1e-9)
    assert [call for call in calls if len(call) == len(sol.groups)] == [sol.strategies]


def test_cells_belong_to_their_solution(near_tie_sol):
    """A solution built from another, by ``league_rewire`` or
    ``dataclasses.replace``, reads its own cells, not the cached ones."""
    parent = near_tie_sol.cells
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    flipped = dataclasses.replace(near_tie_sol, groups=near_tie_sol.groups[::-1])
    for sol in (rewired, flipped):
        strategies = sol.strategies
        points = [x for s in strategies for x in s.breakpoints]
        edges, rows = refine(points, strategies)
        assert sol.cells == (tuple(edges), tuple(map(tuple, rows)))
    assert rewired.cells != parent
    assert flipped.cells == (parent[0], parent[1][::-1]) != parent
    assert near_tie_sol.cells is parent


def test_certificates_never_call_the_solver(
    monkeypatch, nine_dist, nine_sol, near_tie_dist, near_tie_sol
):
    """Every pour goes through ``solver._pour_group``; with it broken, the
    certificates still judge pre-solved fixtures as before."""
    rewired = league_rewire(near_tie_sol, 0, seed=0)

    def broken(*args, **kwargs):
        raise AssertionError("a group was poured")

    monkeypatch.setattr(solver, "_pour_group", broken)
    with pytest.raises(AssertionError, match="poured"):
        solve(nine_dist)
    for sol in (nine_sol, rewired):
        assert verify_nash(sol, 1e-9).passed
        assert verify_linear_bounds(sol, 1e-9).passed
        assert payoff_identity_check(sol, 1e-9) <= 1e-9
        assert worst_deviation(sol, 1e-9)[1] <= 1e-9
    prefixes = verify_subpop_consistency(nine_dist, nine_sol, 1e-9)
    assert all(check.passed for check in prefixes)
    prefixes = verify_subpop_consistency(near_tie_dist, rewired, 1e-9)
    assert [check.passed for check in prefixes] == [True, False, True]


def test_report_serializes_to_json(pair_sol):
    report = verify_nash(pair_sol)
    data = report.to_dict()
    assert set(data) == {
        "tol",
        "passed",
        "groups",
        "monotone_violation",
        "cdf_at_zero",
        "mixture_gap",
        "best_dyad",
        "best_dyad_gain",
    }
    assert data["passed"] is True
    json.dumps(data)
    bounds = verify_linear_bounds(pair_sol).to_dict()
    assert bounds["groups"][0]["slope"] == pytest.approx(0.4, abs=1e-12)
    json.dumps(bounds)


def test_empty_report_is_clean():
    report = EquilibriumReport(tol=1e-9, groups=())
    assert report.passed
    assert report.worst() == 0.0
