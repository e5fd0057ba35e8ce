"""League extraction, outcome matrices, transitivity audits, rewiring."""

from __future__ import annotations

import csv
import json
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from poplotto import (
    DiscreteBudgetDistribution,
    EquilibriumSolution,
    PiecewiseDensity,
    SolverError,
    SubPopulation,
    mixture,
    solve,
    step_gap,
    verify_nash,
    verify_subpop_consistency,
)
from poplotto import cli, density, structure
from poplotto.density import EPS
from poplotto.structure import (
    League,
    LeaguePartition,
    OutcomeMatrix,
    SubLeague,
    SubLeagueReport,
    TransitivityReport,
    _replayed,
    _slice_swap,
    dice_to_population,
    export_digraph,
    league_rewire,
    leagues,
    outcome_matrix,
    step_samples_csv,
    sub_leagues,
    transitivity_report,
)
from tests.conftest import (
    NINE_ROWS,
    budget_rows,
    scaled_populations,
)
from tests import grid_oracles as oracle

FLOODING = Path(__file__).parent / "data" / "flooding.json"


def test_leagues_pair_single_tread(pair_sol):
    part = leagues(pair_sol)
    assert len(part.leagues) == 1
    lg = part.leagues[0]
    assert lg.members == (0, 1)
    assert lg.height == pytest.approx(0.4, abs=1e-12)
    assert lg.span == pytest.approx((0.0, 2.5), abs=1e-12)


def test_leagues_wide_two_treads(wide_sol):
    part = leagues(wide_sol)
    assert part.member_sets() == [frozenset({0}), frozenset({1})]
    low, high = part.leagues
    # poorest first: the lower budget stands on the taller tread
    assert low.height == pytest.approx(0.25, abs=1e-12)
    assert low.span == pytest.approx((0.0, 2.0), abs=1e-12)
    assert high.height == pytest.approx(0.03125, abs=1e-12)
    assert high.span == pytest.approx((2.0, 18.0), abs=1e-12)


def test_leagues_nine_flooded_partition(nine_sol):
    part = leagues(nine_sol)
    assert part.member_sets() == [frozenset(range(8)), frozenset({8})]
    flood, top = part.leagues
    assert flood.span == pytest.approx((0.0, 11.405263157894737), abs=1e-9)
    assert top.span == pytest.approx(
        (11.405263157894737, 14.594736842105263), abs=1e-9
    )
    assert flood.height == pytest.approx(nine_sol.aggregate.heights[0], abs=1e-15)
    assert top.height == pytest.approx(nine_sol.aggregate.heights[1], abs=1e-15)


def test_leagues_tolerance_merges_treads(wide_sol):
    merged = leagues(wide_sol, tol=1.0)
    assert merged.member_sets() == [frozenset({0, 1})]
    assert merged.leagues[0].span == pytest.approx((0.0, 18.0), abs=1e-12)


def test_league_lookup(nine_sol):
    part = leagues(nine_sol)
    assert part.league_of(0) == 0
    assert part.league_of(7) == 0
    assert part.league_of(8) == 1
    with pytest.raises(KeyError):
        part.league_of(9)
    assert len(part) == 2
    assert [lg.members for lg in part] == [tuple(range(8)), (8,)]
    json.dumps(part.to_dict())


def test_sub_leagues_absent_in_simple_fixtures(pair_dist, wide_dist):
    assert sub_leagues(pair_dist).sub_leagues == ()
    assert sub_leagues(wide_dist).sub_leagues == ()


def test_sub_leagues_of_nine(nine_dist):
    """Latent leagues appear under truncation and dissolve in the flood."""
    report = sub_leagues(nine_dist)
    assert [(s.members, s.thresholds) for s in report.sub_leagues] == [
        ((0, 1), (1.05,)),
        ((0, 1, 2), (1.1, 5.0, 5.2, 5.4, 5.6)),
        ((3, 4), (5.2,)),
        ((3, 4, 5), (5.4,)),
        ((3, 4, 5, 6), (5.6,)),
    ]
    assert report.full.member_sets() == [frozenset(range(8)), frozenset({8})]
    json.dumps(report.to_dict())


def _sub_leagues_by_resolving(
    dist: DiscreteBudgetDistribution, tol: float = 1e-9
) -> SubLeagueReport:
    """Reference sub-leagues: solve every budget truncation from scratch."""
    full = solve(dist)
    full_partition = leagues(full, tol)
    full_sets = set(full_partition.member_sets())
    found: dict[tuple[int, ...], list[float]] = {}
    for count in range(1, len(dist)):
        part = leagues(solve(dist.prefix(count)), tol)
        threshold = dist.budgets[count - 1]
        for lg in part.leagues:
            if len(lg.members) < 2 or frozenset(lg.members) in full_sets:
                continue
            found.setdefault(lg.members, []).append(threshold)
    subs = tuple(
        SubLeague(members=members, thresholds=tuple(ts))
        for members, ts in sorted(found.items())
    )
    return SubLeagueReport(full=full_partition, sub_leagues=subs, solution=full)


def _report_documents(fn, dist: DiscreteBudgetDistribution) -> tuple[str, str]:
    """Documents of ``fn``'s report and of its solution, or the error raised."""
    try:
        report = fn(dist)
    except (ValueError, SolverError) as exc:
        return (f"{type(exc).__name__}: {exc}",) * 2
    return json.dumps(report.to_dict()), json.dumps(report.solution.to_dict())


@given(scaled_populations())
@settings(deadline=None, max_examples=60)
def test_sub_leagues_match_resolved_truncations(dist):
    expected = _report_documents(_sub_leagues_by_resolving, dist)
    assert _report_documents(sub_leagues, dist) == expected


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_sub_leagues_of_scaled_nine_match_resolved_truncations(scale):
    dist = budget_rows(*((b * scale, m) for b, m in NINE_ROWS))
    expected = _report_documents(_sub_leagues_by_resolving, dist)
    assert _report_documents(sub_leagues, dist) == expected


def test_sub_leagues_never_solve(nine_dist, monkeypatch):
    def forbidden(dist):
        raise AssertionError("sub_leagues must read truncations off one pour")

    monkeypatch.setattr("poplotto.solver.solve", forbidden)
    monkeypatch.setattr("poplotto.structure.solve", forbidden, raising=False)
    assert len(sub_leagues(nine_dist).sub_leagues) == 5


def test_sub_leagues_build_only_the_densities_solve_builds(nine_dist, monkeypatch):
    """Truncation heights come off the terrace lists, not per-truncation densities."""
    built = {"count": 0}
    clean = density._clean_segments

    def counted(*args):
        built["count"] += 1
        return clean(*args)

    monkeypatch.setattr(density, "_clean_segments", counted)
    solve(nine_dist)
    by_solve = built["count"]
    built["count"] = 0
    sub_leagues(nine_dist)
    assert built["count"] == by_solve


def test_outcome_matrix_wide_is_sure(wide_sol):
    W = outcome_matrix(wide_sol).probs
    assert W[1, 0] == 1.0
    assert W[0, 1] == 0.0


def test_outcome_matrix_consistency(nine_sol):
    matrix = outcome_matrix(nine_sol)
    W = matrix.probs
    assert matrix.n == 9
    assert np.all(np.diagonal(W) == 0.5)
    assert np.max(np.abs(W + W.T - 1.0)) == 0.0
    # richer groups never lose in expectation
    assert np.all(W[np.triu_indices(9, 1)] <= 0.5)


def test_outcome_matrix_validation():
    with pytest.raises(ValueError):
        OutcomeMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OutcomeMatrix(np.array([[0.4, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        OutcomeMatrix(np.array([[0.5, 0.7], [0.4, 0.5]]))
    matrix = OutcomeMatrix(np.array([[0.5, 0.9], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        matrix.probs[0, 1] = 0.2


def test_outcome_matrix_rejects_nan():
    nan = float("nan")
    probs = np.array([[0.5, nan, 0.2], [nan, 0.5, 0.3], [0.8, 0.7, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        OutcomeMatrix(probs)
    with pytest.raises(ValueError, match="finite"):
        OutcomeMatrix(np.array([[nan]]))


def test_transitivity_nine_breaks_establishment_only(nine_sol):
    report = transitivity_report(outcome_matrix(nine_sol), tol=1e-9)
    expected = tuple((i, j, 7) for i in range(3) for j in range(3, 7))
    assert report.establishment == expected
    assert report.strong_stochastic == expected
    assert report.weak_stochastic == ()
    assert report.certainty == ()
    assert report.dominance == ()
    assert report.flags == {
        "weak_stochastic": True,
        "strong_stochastic": False,
        "certainty": True,
        "dominance": True,
        "establishment": False,
    }


def test_transitivity_dice_cycle(dice_pop):
    report = transitivity_report(outcome_matrix(dice_pop), tol=1e-9)
    cycle = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    assert report.weak_stochastic == cycle
    assert report.strong_stochastic == cycle
    # no sure edge anywhere, so the probability-one notions hold vacuously
    assert report.certainty == ()
    assert report.dominance == ()
    assert report.establishment == ()


def test_transitivity_tolerance_widens_sure_edges():
    eps = 1e-13
    probs = np.full((3, 3), 0.5)
    for winner, loser in ((1, 0), (2, 1), (0, 2)):
        probs[winner, loser] = 1.0 - eps
        probs[loser, winner] = eps
    matrix = OutcomeMatrix(probs)
    wide = transitivity_report(matrix, tol=1e-9)
    assert all(flag is False for flag in wide.flags.values())
    assert len(wide.certainty) == 3
    narrow = transitivity_report(matrix, tol=1e-15)
    # below the widening the 1 - 1e-13 edges no longer count as sure
    assert narrow.certainty == ()
    assert narrow.dominance == ()
    assert narrow.establishment == ()
    assert len(narrow.weak_stochastic) == 3


def test_transitivity_report_serializes(dice_pop):
    data = transitivity_report(outcome_matrix(dice_pop)).to_dict()
    assert set(data) == {"tol", "flags", "violations"}
    assert data["violations"]["weak_stochastic"] == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    json.dumps(data)


def _transitivity_by_loop(matrix: OutcomeMatrix, tol: float) -> TransitivityReport:
    """Reference audit: one Python comparison chain per ordered triple."""
    W = matrix.probs
    sure = 1.0 - tol
    weak, strong, certain, dominance, establishment = [], [], [], [], []
    for i, j, k in permutations(range(matrix.n), 3):
        wji, wkj, wki = W[j, i], W[k, j], W[k, i]
        if wji >= 0.5 and wkj >= 0.5:
            if wki < 0.5 - tol:
                weak.append((i, j, k))
            if wki < max(wji, wkj) - tol:
                strong.append((i, j, k))
        if wji >= sure and wkj >= sure and wki < sure:
            certain.append((i, j, k))
        if wji >= 0.5 and wkj >= sure and wki < sure:
            dominance.append((i, j, k))
        if wji >= sure and wkj >= 0.5 and wki < sure:
            establishment.append((i, j, k))
    return TransitivityReport(
        tol=tol,
        weak_stochastic=tuple(weak),
        strong_stochastic=tuple(strong),
        certainty=tuple(certain),
        dominance=tuple(dominance),
        establishment=tuple(establishment),
    )


@st.composite
def audited_matrices(draw) -> tuple[OutcomeMatrix, float]:
    """Antisymmetric matrices crowded with values on the audit's thresholds."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.1, 0.6]))
    delta = draw(st.sampled_from([1e-16, 2.0**-52, 1e-12, 1e-6]))
    edges = (0.0, 0.5, 1.0, 0.7, 0.7 - tol, 1.0 - tol)
    nudged = (1.0 - tol + delta, 1.0 - tol - delta, 0.5 - delta, 0.5 + delta)
    value = st.sampled_from(edges + nudged) | st.floats(0.0, 1.0)
    n = draw(st.integers(0, 9))
    probs = np.full((n, n), 0.5)
    for i in range(n):
        for j in range(i + 1, n):
            probs[i, j] = draw(value)
            probs[j, i] = 1.0 - probs[i, j]
    return OutcomeMatrix(probs), tol


@given(audited_matrices())
@settings(deadline=None, max_examples=150)
def test_transitivity_matches_triple_loop(case):
    matrix, tol = case
    expected = json.dumps(_transitivity_by_loop(matrix, tol).to_dict())
    assert json.dumps(transitivity_report(matrix, tol).to_dict()) == expected


def test_transitivity_matches_triple_loop_on_fixtures(nine_sol, dice_pop, near_tie_sol):
    for sol in (nine_sol, dice_pop, near_tie_sol):
        matrix = outcome_matrix(sol)
        for tol in (1e-15, 1e-9, 0.1):
            report = transitivity_report(matrix, tol)
            assert report == _transitivity_by_loop(matrix, tol)


@st.composite
def hull_gapped_solutions(draw) -> EquilibriumSolution:
    """Strategies whose hulls follow one another at gaps of a few EPS, with
    atoms at the hull ends, listed in hull order or shuffled as dice are."""
    left = draw(st.sampled_from([0.0, 1.0, 1000.0]))
    strategies = []
    for _ in range(draw(st.integers(2, 7))):
        width = draw(st.sampled_from([0.0, 1e-3, 0.5]))
        right = left + width
        if width:
            ends = draw(st.sampled_from([(), (left,), (right,), (left, right)]))
            strategies.append(
                PiecewiseDensity((left, right), (1.0,), [(x, 0.25) for x in ends])
            )
        else:
            strategies.append(PiecewiseDensity.point(left))
        left = right + draw(st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0])) * EPS
    if draw(st.booleans()):
        strategies = draw(st.permutations(strategies))
    share = 1.0 / len(strategies)
    groups = tuple(SubPopulation(f.mean(), share, f) for f in strategies)
    # the contests read only the strategies
    return EquilibriumSolution(groups, PiecewiseDensity())


@given(hull_gapped_solutions())
@settings(deadline=None, max_examples=200)
def test_settled_contests_match_every_contest_played(sol):
    """A pair whose hulls lie more than 2 EPS apart reads exactly what
    ``win_prob`` returns for it, at every gap around that threshold."""
    got = outcome_matrix(sol).probs
    assert got.tobytes() == oracle.outcome_matrix(sol).probs.tobytes()


def test_outcome_matrix_plays_only_contests_in_reach(monkeypatch):
    """Of flooding's 4,950 pairs, 653 have hulls within 2 EPS of each other;
    every other pair is settled without a contest."""
    sol = solve(DiscreteBudgetDistribution.from_dict(json.loads(FLOODING.read_text())))
    played = []
    contest = structure.win_prob

    def counted(f, h):
        played.append(1)
        return contest(f, h)

    monkeypatch.setattr(structure, "win_prob", counted)
    outcome_matrix(sol)
    assert len(played) <= 653


@st.composite
def blocked_matrices(draw) -> tuple[OutcomeMatrix, float]:
    """Matrices built block by block, poorest first, whose results across
    blocks sit on or beside the thresholds of a cut, with the groups then
    relabelled at random."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.1, 0.5, 0.6]))
    delta = draw(st.sampled_from([1e-16, 2.0**-52, 1e-12, 1e-6]))
    edges = (1.0 - tol - delta, 1.0 - tol, 1.0 - tol + delta)
    edges += (0.5 - delta, 0.5, 0.5 + delta)
    inside = st.sampled_from((0.0, 1.0) + edges) | st.floats(0.0, 1.0)
    across = st.sampled_from((1.0,) + edges)
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = len(block)
    probs = np.full((n, n), 0.5)
    for poorer in range(n):
        for richer in range(poorer + 1, n):
            value = draw(inside if block[richer] == block[poorer] else across)
            # either orientation may be the one computed as a complement
            if draw(st.booleans()):
                probs[richer, poorer] = value
                probs[poorer, richer] = 1.0 - value
            else:
                probs[poorer, richer] = 1.0 - value
                probs[richer, poorer] = 1.0 - probs[poorer, richer]
    labels = np.array(draw(st.permutations(range(n))))
    return OutcomeMatrix(probs[np.ix_(labels, labels)]), tol


@given(blocked_matrices())
@settings(deadline=None, max_examples=200)
def test_blocked_audit_matches_the_whole_matrix_audit(case):
    matrix, tol = case
    assert transitivity_report(matrix, tol) == oracle.transitivity_report(matrix, tol)


OVER = 1.0 + 2.0**-52


@pytest.mark.parametrize(
    "rows, tol, notion, triple",
    [
        # 0.45 is below one half yet a sure win at tol = 0.6, so a cut that
        # asked only for results above one half would split all three
        (
            [[0.5, 0.45, 0.35], [0.55, 0.5, 0.45], [0.65, 0.55, 0.5]],
            0.6,
            "certainty",
            (2, 1, 0),
        ),
        # a contest that rounds a hair above 1 makes the strong notion ask
        # more than 1 - tol of the conclusion
        (
            [[0.5, 0.4, 1e-9], [0.6, 0.5, 1.0 - OVER], [1.0 - 1e-9, OVER, 0.5]],
            1e-9,
            "strong_stochastic",
            (0, 1, 2),
        ),
    ],
    ids=["sure win below one half", "result above one"],
)
def test_cut_keeps_a_violation_across_would_be_blocks(rows, tol, notion, triple):
    matrix = OutcomeMatrix(np.array(rows))
    report = transitivity_report(matrix, tol)
    assert triple in getattr(report, notion)
    assert report == oracle.transitivity_report(matrix, tol)


def test_flooding_blocks_are_its_leagues():
    """Leagues settle every contest between them, so the audit's finest
    blocks on the flooding equilibrium are exactly its twelve leagues."""
    sol = solve(DiscreteBudgetDistribution.from_dict(json.loads(FLOODING.read_text())))
    blocks = structure._blocks(outcome_matrix(sol).probs, EPS)
    assert sorted(map(sorted, blocks)) == sorted(map(sorted, leagues(sol).member_sets()))


@given(scaled_populations(max_groups=15))
@settings(deadline=None, max_examples=40)
def test_solved_analysis_matches_the_dense_oracles(dist):
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    matrix = outcome_matrix(sol)
    dense = oracle.outcome_matrix(sol)
    assert matrix.probs.tobytes() == dense.probs.tobytes()
    for tol in (1e-9, 1e-3, 0.6):
        assert transitivity_report(matrix, tol) == oracle.transitivity_report(dense, tol)


def test_single_die_embedding():
    pop = dice_to_population([(1, 2, 3)])
    group = pop.groups[0]
    assert group.budget == pytest.approx(1.5, abs=1e-12)
    assert group.mass == 1.0
    assert group.strategy.support == (0.0, 3.0)
    assert step_gap(group.strategy, PiecewiseDensity.uniform(0.0, 3.0)) <= 1e-12


def test_repeated_faces_stack():
    pop = dice_to_population([(2, 2)])
    assert step_gap(pop.groups[0].strategy, PiecewiseDensity.uniform(1.0, 2.0)) <= 1e-12
    assert pop.groups[0].budget == pytest.approx(1.5, abs=1e-12)


def test_searched_triple_tiles_the_uniform(dice_pop):
    assert dice_pop.budgets == (4.5, 4.5, 4.5)
    assert dice_pop.masses == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert step_gap(dice_pop.aggregate, PiecewiseDensity.uniform(0.0, 9.0)) == 0.0
    assert verify_nash(dice_pop, tol=1e-12).passed


def test_searched_triple_cycles_at_five_ninths(dice_pop):
    W = outcome_matrix(dice_pop).probs
    expected = np.full((3, 3), 0.5)
    for winner, loser in ((0, 1), (1, 2), (2, 0)):
        expected[winner, loser] = 5 / 9
        expected[loser, winner] = 4 / 9
    assert np.max(np.abs(W - expected)) <= 1e-12


def test_identical_dice_draw():
    pop = dice_to_population([(1, 3, 5), (1, 3, 5)])
    W = outcome_matrix(pop).probs
    assert W[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_dice_validation():
    with pytest.raises(ValueError):
        dice_to_population([])
    with pytest.raises(ValueError):
        dice_to_population([()])
    with pytest.raises(ValueError):
        dice_to_population([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        dice_to_population([(0, 2, 3)])
    with pytest.raises(ValueError):
        dice_to_population([(1.5, 2, 3)])
    with pytest.raises(ValueError):
        dice_to_population([1, 2])
    with pytest.raises(ValueError):
        dice_to_population([(1, "2")])
    with pytest.raises(ValueError):
        dice_to_population([(1, float("inf"))])


def test_lopsided_dice_are_not_an_equilibrium():
    # two standard dice plus a shifted one leave a rising step at 1
    pop = dice_to_population(
        [(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7)]
    )
    report = verify_nash(pop)
    assert not report.passed
    assert report.monotone_violation == pytest.approx(1 / 18, abs=1e-12)


def test_dice_triple_is_a_thirty_pip_cycle(dice_triple):
    """Counted from the faces: nine values twice each, 30 pips per die, and
    each die beats the next in 20 of 36 face pairs."""
    assert len(dice_triple) == 3
    assert all(len(die) == 6 for die in dice_triple)
    assert all(sum(die) == 30 for die in dice_triple)
    faces = [v for die in dice_triple for v in die]
    assert sorted(faces) == sorted(list(range(1, 10)) * 2)
    for k in range(3):
        die, next_die = dice_triple[k], dice_triple[(k + 1) % 3]
        assert sum(x > y for x in die for y in next_die) == 20


def test_rewire_dice_reverses_the_cycle(dice_pop):
    """Equal budgets allow a whole-strategy trade; the cycle flips exactly."""
    before = outcome_matrix(dice_pop).probs
    rewired = league_rewire(dice_pop, 0, seed=0)
    after = outcome_matrix(rewired).probs
    assert np.max(np.abs(after - before.T)) <= 1e-12
    assert rewired.aggregate is dice_pop.aggregate
    remix = mixture([(1.0, g.strategy) for g in rewired.groups])
    assert step_gap(remix, dice_pop.aggregate) <= 1e-12
    assert verify_nash(rewired, tol=1e-9).passed
    # the search draws nothing at random, so the seed has no effect
    other = league_rewire(dice_pop, 0, seed=99)
    assert np.array_equal(outcome_matrix(other).probs, after)


def test_rewire_near_tie_flips_one_edge(near_tie_sol):
    before = outcome_matrix(near_tie_sol).probs
    rewired = league_rewire(near_tie_sol, 0, seed=0)
    after = outcome_matrix(rewired).probs
    flipped = np.argwhere((before - 0.5) * (after - 0.5) < 0.0)
    assert {tuple(pos) for pos in flipped} == {(1, 2), (2, 1)}
    remix = mixture([(1.0, g.strategy) for g in rewired.groups])
    assert step_gap(remix, near_tie_sol.aggregate) <= 1e-12
    assert verify_nash(rewired, tol=1e-9).passed


def test_rewire_falls_back_to_any_change():
    # margins too wide to flip, so the exchange only moves probabilities
    sol = solve(budget_rows((1.0, 1.0), (1.5, 1.0), (1.8, 1.0)))
    before = outcome_matrix(sol).probs
    rewired = league_rewire(sol, 0, seed=0)
    after = outcome_matrix(rewired).probs
    assert np.max(np.abs(after - before)) > 1e-3
    assert verify_nash(rewired, tol=1e-9).passed


@given(scaled_populations(max_groups=12), st.data())
@settings(deadline=None, max_examples=60)
def test_replayed_contests_match_the_full_matrix(dist, data):
    """A warm-start slice swap changes two strategies; replaying their
    contests on a copy of the solved matrix gives the candidate's own
    matrix, to the bit."""
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    shared = [lg.members for lg in leagues(sol) if len(lg.members) >= 2]
    if not shared:
        return
    giver, taker = data.draw(st.permutations(data.draw(st.sampled_from(shared))))[:2]
    hull_g = sol.groups[giver].strategy.support
    hull_t = sol.groups[taker].strategy.support
    lo, hi = max(hull_g[0], hull_t[0]), min(hull_g[1], hull_t[1])
    if hi - lo <= 100.0 * EPS:
        return
    third = (hi - lo) / 3.0
    candidate = _slice_swap(sol, giver, taker, 0.5 * (lo + hi), third, third)
    if candidate is None:
        return
    replayed = _replayed(outcome_matrix(sol).probs, sol, candidate)
    assert np.array_equal(replayed, outcome_matrix(candidate).probs)


@given(scaled_populations())
@settings(deadline=None, max_examples=100)
def test_no_warm_start_swap_passes_every_prefix(dist):
    """The paper's uniqueness claim: the solved equilibrium is the only one
    that stays an equilibrium below every budget threshold.  So every
    warm-start slice swap the rewire search builds (equal thirds of each
    overlapping league pair's hull overlap, both directions) that moves a
    strategy fails at least one prefix."""
    try:
        sol = solve(dist)
    except SolverError:
        reject()
    for league in leagues(sol):
        for a, b in combinations(league.members, 2):
            hull_a = sol.groups[a].strategy.support
            hull_b = sol.groups[b].strategy.support
            lo, hi = max(hull_a[0], hull_b[0]), min(hull_a[1], hull_b[1])
            if hi - lo <= 100.0 * EPS:
                continue
            third = (hi - lo) / 3.0
            for giver, taker in ((a, b), (b, a)):
                candidate = _slice_swap(sol, giver, taker, 0.5 * (lo + hi), third, third)
                if candidate is None or candidate.groups == sol.groups:
                    continue
                prefixes = verify_subpop_consistency(dist, candidate)
                assert not all(check.passed for check in prefixes), (giver, taker)


def test_rewire_command_builds_one_matrix_for_its_document(monkeypatch, capsys):
    """The full matrix the rewire search judges against is the document's
    ``matrix_before``, built once by ``outcome_matrix`` inside the search;
    every candidate and the rewired document replay two groups' contests."""
    n = 9
    played = []
    contests = structure._contests

    def recorded(probs, sol, pairs):
        pairs = list(pairs)
        played.append(len(pairs))
        contests(probs, sol, pairs)

    def forbidden(sol):
        raise AssertionError("a second full matrix was built")

    monkeypatch.setattr(structure, "_contests", recorded)
    monkeypatch.setattr(cli, "outcome_matrix", forbidden)
    src = str(Path(__file__).parent / "data" / "nine_rows.json")
    assert cli.main(["rewire", src, "--league", "0", "--seed", "0"]) == 0
    capsys.readouterr()
    assert played.count(n * (n - 1) // 2) == 1
    assert set(played) == {n * (n - 1) // 2, 2 * n - 3}


def test_rewire_candidates_reuse_the_solved_unit_strategies(monkeypatch):
    """Each candidate replays only the 2n - 3 contests of its two changed
    strategies; the solved strategies are scaled to unit mass once, for the
    solved matrix and every replay to share."""
    doc = json.loads((Path(__file__).parent / "data" / "flooding.json").read_text())
    sol = solve(DiscreteBudgetDistribution.from_dict(doc))
    n = len(sol.groups)
    solved = {id(g.strategy) for g in sol.groups}
    normalized = []
    original = PiecewiseDensity.scaled

    def counted(self, factor):
        normalized.append(id(self) in solved)
        return original(self, factor)

    played = []
    contests = structure._contests

    def recorded(probs, sol, pairs):
        pairs = list(pairs)
        played.append(len(pairs))
        contests(probs, sol, pairs)

    monkeypatch.setattr(PiecewiseDensity, "scaled", counted)
    monkeypatch.setattr(structure, "_contests", recorded)
    league_rewire(sol, 4, seed=0)  # a warm-start flip, several candidates
    assert played[0] == n * (n - 1) // 2
    assert len(played) > 2 and set(played[1:]) == {2 * n - 3}
    assert sum(normalized) == n


@pytest.mark.parametrize(
    "name, league",
    [
        ("near_tie", 0),
        ("nine_rows", 0),
        ("staircase", 0),
        ("flooding", 4),
        ("flooding", 6),
    ],
)
def test_rewired_strategies_start_at_zero_or_above(name, league):
    """A slice whose left edge rounds below zero is cut at zero: nine_rows
    and staircase league 0 wrote a breakpoint of -5.55e-17 without it."""
    doc = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    rewired = league_rewire(solve(DiscreteBudgetDistribution.from_dict(doc)), league)
    for g in rewired.groups:
        assert all(x >= 0.0 for x in g.strategy.breakpoints), g.budget


def test_rewire_rejects_unusable_leagues(wide_sol):
    with pytest.raises(ValueError, match="fewer than two"):
        league_rewire(wide_sol, 0)
    with pytest.raises(ValueError, match="no league"):
        league_rewire(wide_sol, 5)
    apart = EquilibriumSolution(
        (
            SubPopulation(0.5, 0.5, PiecewiseDensity.uniform(0.0, 1.0, 0.5)),
            SubPopulation(1.5, 0.5, PiecewiseDensity.uniform(1.0, 2.0, 0.5)),
        ),
        PiecewiseDensity.uniform(0.0, 2.0),
    )
    with pytest.raises(ValueError, match="overlapping"):
        league_rewire(apart, 0)


def test_export_dot_wide(wide_sol, wide_dist):
    text = export_digraph(
        outcome_matrix(wide_sol), leagues(wide_sol), "dot", wide_dist.budgets
    )
    assert text.startswith("digraph outcomes {")
    assert 'label="league 0 (height 0.25)";' in text
    assert 'n0 [label="g0 (b=1)"];' in text
    assert 'n1 [label="g1 (b=10)"];' in text
    assert 'n0 -> n1 [label="1.000", certain=true, color=red];' in text
    assert "n1 -> n0" not in text


def test_export_json_wide(wide_sol, wide_dist):
    text = export_digraph(
        outcome_matrix(wide_sol), leagues(wide_sol), "json", wide_dist.budgets
    )
    data = json.loads(text)
    assert data["nodes"] == [
        {"id": 0, "league": 0, "budget": 1.0},
        {"id": 1, "league": 1, "budget": 10.0},
    ]
    assert data["edges"] == [{"from": 0, "to": 1, "prob": 1.0, "certain": True}]


def test_export_coin_flip_gets_both_edges():
    matrix = OutcomeMatrix(np.full((2, 2), 0.5))
    part = LeaguePartition((League(0.5, (0, 1), (0.0, 1.0)),))
    data = json.loads(export_digraph(matrix, part, "json"))
    assert len(data["edges"]) == 2


def test_export_single_node_has_no_edges():
    matrix = OutcomeMatrix(np.array([[0.5]]))
    part = LeaguePartition((League(1.0, (0,), (0.0, 1.0)),))
    data = json.loads(export_digraph(matrix, part, "json"))
    assert data["edges"] == []
    assert len(data["nodes"]) == 1


def test_export_rejects_unknown_format(wide_sol):
    with pytest.raises(ValueError, match="format"):
        export_digraph(outcome_matrix(wide_sol), leagues(wide_sol), "svg")


def test_step_samples_csv_pair(pair_sol):
    rows = list(csv.reader(step_samples_csv(pair_sol).splitlines()))
    assert rows[0] == ["series", "kind", "x", "value"]
    body = rows[1:]
    # two corners per segment: 1 aggregate + 1 poor + 2 rich segments
    assert len(body) == 8
    assert {row[0] for row in body} == {"aggregate", "group0", "group1"}
    assert all(row[1] == "step" for row in body)
    for _, _, x, value in body:
        float(x), float(value)


def test_step_samples_csv_emits_atoms():
    lumpy = mixture(
        [
            (1.0, PiecewiseDensity.point(1.0, 0.2)),
            (1.0, PiecewiseDensity.uniform(0.0, 2.0, 0.8)),
        ]
    )
    sol = EquilibriumSolution((SubPopulation(1.0, 1.0, lumpy),), lumpy)
    rows = list(csv.reader(step_samples_csv(sol).splitlines()))
    atom_rows = [row for row in rows if row[1] == "atom"]
    assert [row[0] for row in atom_rows] == ["aggregate", "group0"]
    assert float(atom_rows[0][2]) == 1.0
    assert float(atom_rows[0][3]) == 0.2
