"""Population structure: leagues, pairwise outcomes, and their graph.

At equilibrium the aggregate density is a descending staircase, and groups
whose budgets land on the same stair tread share its height.  Those
``leagues`` settle every cross-league contest almost surely, while outcomes
inside a league stay probabilistic and can be reshaped without disturbing
the aggregate.  This module extracts the league partition, computes the
full pairwise outcome matrix, audits it against five transitivity notions,
embeds classic dice as populations, and performs the aggregate-preserving
rewiring that demonstrates how loosely the matrix is pinned down.
"""

from __future__ import annotations

import bisect
import json
import numbers
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import TYPE_CHECKING, Sequence

from .density import EPS, PiecewiseDensity, _summed, mixture, stack
from .payoff import win_prob
from .solver import (
    DiscreteBudgetDistribution,
    EquilibriumSolution,
    SubPopulation,
    TerraceProfile,
    iter_pours,
)

# numpy loads inside the functions that build or read arrays, so the
# array-free commands (solve, verify) start without it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class League:
    """Groups sharing one aggregate height, with the tread they stand on."""

    height: float
    members: tuple[int, ...]
    span: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "members": list(self.members),
            "span": list(self.span),
        }


@dataclass(frozen=True)
class LeaguePartition:
    """All leagues ordered by strictly decreasing height (poorest first)."""

    leagues: tuple[League, ...]

    def __iter__(self):
        return iter(self.leagues)

    def __len__(self) -> int:
        return len(self.leagues)

    def league_of(self, index: int) -> int:
        for rank, lg in enumerate(self.leagues):
            if index in lg.members:
                return rank
        raise KeyError(f"group {index} is in no league")

    def member_sets(self) -> list[frozenset[int]]:
        return [frozenset(lg.members) for lg in self.leagues]

    def to_dict(self) -> dict:
        return {"leagues": [lg.to_dict() for lg in self.leagues]}


def _height_classes(
    heights: Sequence[float], budgets: Sequence[float], tol: float
) -> list[list[int]]:
    """Groups chained by the aggregate height at their budgets.

    Groups are visited tallest first (ties by budget), and each joins the
    previous class when its height is within ``tol`` of the last member's.
    """
    order = sorted(range(len(budgets)), key=lambda i: (-heights[i], budgets[i]))
    classes: list[list[int]] = []
    for i in order:
        if classes and abs(heights[classes[-1][-1]] - heights[i]) <= tol:
            classes[-1].append(i)
        else:
            classes.append([i])
    return classes


def leagues(sol: EquilibriumSolution, tol: float = EPS) -> LeaguePartition:
    """Partition groups by the aggregate height at their budgets.

    A budget sitting exactly on a breakpoint reads the height of the
    segment on its left.  Heights within ``tol`` of each other chain into
    one league; the span is the x-range over which the aggregate holds the
    league's height.
    """
    agg = sol.aggregate
    heights = [agg.height_at(b) for b in sol.budgets]
    classes = _height_classes(heights, sol.budgets, tol)
    built = []
    for members in classes:
        c = heights[members[0]]
        runs: list[tuple[float, float]] = []
        for lo, hi, h in agg.segments():
            if abs(h - c) <= tol:
                if runs and abs(runs[-1][1] - lo) <= EPS:
                    runs[-1] = (runs[-1][0], hi)
                else:
                    runs.append((lo, hi))
        anchor = sol.groups[members[0]].budget
        span = next(
            (r for r in runs if r[0] - EPS <= anchor <= r[1] + EPS),
            (anchor, anchor),
        )
        built.append(League(height=c, members=tuple(sorted(members)), span=span))
    return LeaguePartition(tuple(built))


@dataclass(frozen=True)
class SubLeague:
    """A set that forms a league in some truncation but not in the full one."""

    members: tuple[int, ...]
    thresholds: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"members": list(self.members), "thresholds": list(self.thresholds)}


@dataclass(frozen=True)
class SubLeagueReport:
    """Full and latent leagues, and the solution they were read off (unserialised)."""

    full: LeaguePartition
    sub_leagues: tuple[SubLeague, ...]
    solution: EquilibriumSolution

    def to_dict(self) -> dict:
        return {
            "full_leagues": self.full.to_dict(),
            "sub_leagues": [s.to_dict() for s in self.sub_leagues],
        }


def sub_leagues(
    dist: DiscreteBudgetDistribution, tol: float = EPS
) -> SubLeagueReport:
    """Find latent leagues: sets that are leagues only below some cutoff.

    Reads the league partition of every budget truncation off a single
    pour of the population: after group j the terraces are the truncated
    equilibrium with its levels scaled by the first j groups' mass share,
    so a budget's height in the truncation is the level of the terrace
    holding it (the left one on a bound, as ``height_at`` reads) over that
    share; the absolute ``tol`` applies to those heights.  Records league
    sets that do not survive into the full equilibrium, together with the
    truncation thresholds at which they appear.  Singletons are skipped: a
    lone group is a league in any truncation, so it says nothing about
    groups merging.  Only one level of nesting is reported; sub-leagues of
    sub-leagues show up under their own thresholds rather than recursively.
    The report carries the pour's full equilibrium, equal to ``solve(dist)``.
    """
    groups: list[SubPopulation] = []
    budgets: list[float] = []
    share = 0.0
    found: dict[tuple[int, ...], list[float]] = {}
    for group, bounds, levels in iter_pours(dist):
        groups.append(group)
        budgets.append(group.budget)
        share += group.mass
        if len(groups) == len(dist):
            continue
        heights = [levels[bisect.bisect_left(bounds, b)] / share for b in budgets]
        for members in _height_classes(heights, budgets, tol):
            if len(members) > 1:
                found.setdefault(tuple(sorted(members)), []).append(group.budget)
    full = TerraceProfile(tuple(bounds), tuple(levels)).as_density()
    solution = EquilibriumSolution(tuple(groups), full)
    full_partition = leagues(solution, tol)
    full_sets = set(full_partition.member_sets())
    subs = tuple(
        SubLeague(members=members, thresholds=tuple(ts))
        for members, ts in sorted(found.items())
        if frozenset(members) not in full_sets
    )
    return SubLeagueReport(full=full_partition, sub_leagues=subs, solution=solution)


@dataclass(frozen=True, eq=False)
class OutcomeMatrix:
    """Pairwise expected outcomes: ``probs[i, j]`` is i's payoff against j."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError("outcome matrix must be square")
        if not np.all(np.isfinite(probs)):
            raise ValueError("outcome matrix entries must be finite")
        if probs.size:
            if np.max(np.abs(np.diagonal(probs) - 0.5)) > 1e-12:
                raise ValueError("outcome matrix diagonal must be one half")
            if np.max(np.abs(probs + probs.T - 1.0)) > 1e-12:
                raise ValueError("outcome matrix must satisfy W + W^T = 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def to_dict(self) -> dict:
        return {"probs": self.probs.tolist()}


def outcome_matrix(sol: EquilibriumSolution) -> OutcomeMatrix:
    """Compute every pairwise contest, 0.5 on the diagonal."""
    import numpy as np

    n = len(sol.groups)
    probs = np.full((n, n), 0.5)
    _contests(probs, sol, np.column_stack(np.triu_indices(n, 1)))
    return OutcomeMatrix(probs)


def _contests(
    probs: np.ndarray,
    sol: EquilibriumSolution,
    pairs: np.ndarray | Sequence[tuple[int, int]],
) -> None:
    """Play each pair ``i < j`` of unit-mass strategies into ``probs[i, j]``.

    The lower triangle takes the zero-sum complement, which keeps the
    matrix exactly consistent.  A pair whose hulls satisfy
    ``hi_i + EPS < lo_j - EPS``, each side rounded as computed, is settled
    as 0.0 without a contest, because ``win_prob(f_i, f_j)`` is exactly 0.0:
    ``refine`` reads each breakpoint as the kept edge at or below it, so
    f_i has a height only on cells before the edge ``lo_j`` reads as, where
    f_j has none and ``f_j.cdf(lo)`` reads 0.0, as does
    ``f_j.cdf(loc).midpoint`` at every atom of f_i (``cdf`` pools atoms only
    within ``EPS``); no point lies in the gap, so the last kept edge lies
    past ``hi_i`` and the tail term is 0.0.  So each term is a finite height
    or mass times 0.0.  A pair with j below i still plays: its masses need
    not sum to exactly 1.0.
    """
    import numpy as np

    units = [g.strategy.normalized() for g in sol.groups]
    # (m, 2) and (n, 2) even when there are no pairs or no groups
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    hulls = np.array([d.support for d in units], dtype=float).reshape(-1, 2)
    i, j = pairs.T
    settled = hulls[i, 1] + EPS < hulls[j, 0] - EPS
    probs[i[settled], j[settled]] = 0.0
    probs[j[settled], i[settled]] = 1.0
    for i, j in pairs[~settled].tolist():
        p = win_prob(units[i], units[j])
        probs[i, j] = p
        probs[j, i] = 1.0 - p


def _replayed(
    probs: np.ndarray, sol: EquilibriumSolution, changed: EquilibriumSolution
) -> np.ndarray:
    """``outcome_matrix(changed).probs`` from ``probs`` of ``sol``, playing
    only the contests of groups whose ``SubPopulation`` is not ``sol``'s."""
    n = len(changed.groups)
    moved = [k for k, g in enumerate(changed.groups) if g is not sol.groups[k]]
    pairs = sorted({(min(k, m), max(k, m)) for k in moved for m in range(n) if m != k})
    after = probs.copy()
    _contests(after, changed, pairs)
    return after


@dataclass(frozen=True)
class TransitivityReport:
    """Which transitivity notions hold, with every violating triple.

    A triple ``(i, j, k)`` reads: j's result against i and k's against j
    form the hypothesis, k's against i the conclusion.  Probability-one
    comparisons are widened by ``tol`` on both sides.
    """

    tol: float
    weak_stochastic: tuple[tuple[int, int, int], ...]
    strong_stochastic: tuple[tuple[int, int, int], ...]
    certainty: tuple[tuple[int, int, int], ...]
    dominance: tuple[tuple[int, int, int], ...]
    establishment: tuple[tuple[int, int, int], ...]

    @property
    def flags(self) -> dict[str, bool]:
        return {name: not getattr(self, name) for name in _NOTIONS}

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "flags": self.flags,
            "violations": {
                name: [list(t) for t in getattr(self, name)] for name in _NOTIONS
            },
        }


# the report's fields in the order every flag, violation list and mask takes
_NOTIONS = (
    "weak_stochastic",
    "strong_stochastic",
    "certainty",
    "dominance",
    "establishment",
)


def transitivity_report(
    matrix: OutcomeMatrix, tol: float = EPS
) -> TransitivityReport:
    """Audit every ordered triple against five notions.

    weak: two expected wins chain to an expected win.
    strong: the chained win is at least as strong as both links.
    certainty: two sure wins chain to a sure win.
    dominance: an expected win followed by a sure win chains to a sure win.
    establishment: a sure win followed by an expected win chains to a sure
    win; this is the one notion equilibrium populations can break.

    Only triples inside one block of ``_blocks`` are compared, since no
    other triple can violate a notion.  Take ``(i, j, k)`` across blocks.
    If k's block is richer than i's, ``w_ki`` is at least
    ``max(1, max W) - tol``: not below ``0.5 - tol``, ``1 - tol`` or either
    link minus ``tol``, so no conclusion fails.  Otherwise the blocks rank
    ``j`` below ``i``, or ``j`` above ``k``, so ``w_ji`` or ``w_kj`` is a poorer
    block's result against a richer one, below ``min(0.5, 1 - tol)``, and
    no hypothesis holds.  A matrix with no cut is one block.

    Each block is vectorised one ``i`` at a time over the ``(j, k)`` plane,
    so memory stays O(n^2).  Rows are the j whose result against i can
    open a hypothesis.  Sorting the triples lists them in
    ``itertools.permutations`` order.
    """
    import numpy as np

    sure = 1.0 - tol
    found: dict[str, list[tuple[int, int, int]]] = {name: [] for name in _NOTIONS}
    for block in _blocks(matrix.probs, tol):
        if len(block) < 3:
            continue
        W = matrix.probs[np.ix_(block, block)]
        cols = np.arange(len(block))
        for i in cols:
            w = W[:, i]  # each group's result against i, read at j and at k
            rows = np.flatnonzero((w >= min(0.5, sure)) & (cols != i))
            if not rows.size:
                continue
            wji = w[rows, None]
            wki = w[None, :]
            wkj = W[:, rows].T
            # k ranges over everyone but i and j
            other = (cols[None, :] != rows[:, None]) & (cols[None, :] != i)
            wins = (wkj >= 0.5) & other
            sure_wins = (wkj >= sure) & other
            expected = wji >= 0.5
            certain = wji >= sure
            falls = wki < sure
            chained = expected & wins
            masks = (
                chained & (wki < 0.5 - tol),
                chained & (wki < np.maximum(wji, wkj) - tol),
                certain & sure_wins & falls,
                expected & sure_wins & falls,
                certain & wins & falls,
            )
            for name, mask in zip(_NOTIONS, masks):
                j, k = np.nonzero(mask)
                found[name].extend(
                    zip(
                        [int(block[i])] * len(j),
                        block[rows[j]].tolist(),
                        block[k].tolist(),
                    )
                )
    return TransitivityReport(
        tol=tol, **{name: tuple(sorted(triples)) for name, triples in found.items()}
    )


def _blocks(W: np.ndarray, tol: float) -> list[np.ndarray]:
    """The finest split of the groups, by row sum, into blocks of settled rank.

    Groups are sorted by row sum, stably, and cut wherever every entry
    ``W[r, p]`` of a richer group r against a poorer group p across the cut
    is at least ``max(1, max W) - tol``, and its mirror ``W[p, r]`` is below
    ``min(0.5, 1 - tol)``.  A cut before position c needs this of every
    ``p < c <= r``, so it holds when no column p < c has an unsettled entry
    in a row at or past c.  O(n^2) time and memory.
    """
    import numpy as np

    n = len(W)
    order = np.argsort(W.sum(axis=1), kind="stable")
    P = W[np.ix_(order, order)]
    settled = (P >= P.max(initial=1.0) - tol) & (P.T < min(0.5, 1.0 - tol))
    pos = np.arange(n)
    # the last row past p whose entry against p is unsettled, else p itself
    reach = np.where(np.tril(~settled, -1), pos[:, None], pos[None, :])
    reach = np.maximum.accumulate(reach.max(axis=0, initial=0))
    return np.split(order, np.flatnonzero(reach[:-1] < pos[1:]) + 1)


# Each value 1..9 on two faces, 30 pips per die, and die k beats die k+1
# (mod 3) in 20 of 36 face pairs: a non-transitive cycle at 5/9.
DICE_TRIPLE = ((1, 1, 6, 6, 8, 8), (3, 3, 5, 5, 7, 7), (2, 2, 4, 4, 9, 9))


def dice_to_population(dice: Sequence[Sequence[int]]) -> EquilibriumSolution:
    """Embed dice as a population: face v becomes a flat block on [v-1, v].

    Each die turns into one group of equal population share whose strategy
    spreads 1/faces of its mass per face; repeated faces stack.  The group
    budget is the strategy's mean, pip total over faces minus one half.
    """
    if not (isinstance(dice, Sequence) and dice):
        raise ValueError("dice must be a non-empty list of face lists")
    if not all(isinstance(die, Sequence) for die in dice):
        raise ValueError("each die must be a list of face values")
    counts = {len(die) for die in dice}
    if counts == {0} or len(counts) != 1:
        raise ValueError("all dice must have the same positive face count")
    faces = counts.pop()
    share = 1.0 / len(dice)
    groups = []
    for die in dice:
        for v in die:
            # up to 2**53 a float holds both v and v - 1 exactly
            if isinstance(v, bool) or not (
                isinstance(v, numbers.Real) and 1 <= v <= 2**53 and float(v).is_integer()
            ):
                raise ValueError(f"face values must be integers 1..2**53, got {v!r}")
        strategy = stack((v - 1.0, v, share / faces) for v in die)
        groups.append(SubPopulation(strategy.mean(), share, strategy))
    aggregate = mixture([(1.0, g.strategy) for g in groups])
    return EquilibriumSolution(tuple(groups), aggregate)


def _patched(
    dens: PiecewiseDensity, cells: list[tuple[float, float]], deltas: list[float]
) -> PiecewiseDensity:
    """Add a flat delta per cell to a density, summed by ``_summed`` as
    ``mixture`` sums, and clamp the result at zero."""
    patches = [(cell, (delta,)) for cell, delta in zip(cells, deltas)]
    edges, heights = _summed([(dens.breakpoints, dens.heights), *patches])
    clamped = tuple(max(h, 0.0) for h in heights)
    return PiecewiseDensity(tuple(edges), clamped, dens.atoms)


def _slice_swap(
    sol: EquilibriumSolution,
    giver: int,
    taker: int,
    center: float,
    spacing: float,
    width: float,
) -> EquilibriumSolution | None:
    """Exchange three equally spaced slices between two strategies.

    The giver sheds height ``s`` on the two outer slices and absorbs
    ``2s`` on the middle one; the taker does the opposite.  Equal spacing
    makes the exchange conserve both mass and mean for both groups, and
    the two deltas cancel so the aggregate is untouched.  A slice whose
    left edge rounds below zero starts at zero, so no strategy gains a
    negative breakpoint.  The clamp stays although construction moves a
    start within ``EPS`` below zero onto zero: at large budgets the
    rounding goes past ``EPS`` (to -6.1e-5 on a three-group near tie
    scaled by 1e12), and construction refuses such a start.
    """
    cells = [
        (max(mid - 0.5 * width, 0.0), mid + 0.5 * width)
        for mid in (center - spacing, center, center + spacing)
    ]
    f_give = sol.groups[giver].strategy
    f_take = sol.groups[taker].strategy
    # the lowest height each strategy has to shed on its slices
    low = [
        min(dens.heights_across(*cell), default=0.0)
        for dens, cell in zip((f_give, f_take, f_give), cells)
    ]
    s = min(low[0], 0.5 * low[1], low[2])
    if s <= 100.0 * EPS:
        return None
    give_delta = [-s, 2.0 * s, -s]
    take_delta = [s, -2.0 * s, s]
    new_groups = list(sol.groups)
    new_groups[giver] = replace(
        sol.groups[giver], strategy=_patched(f_give, cells, give_delta)
    )
    new_groups[taker] = replace(
        sol.groups[taker], strategy=_patched(f_take, cells, take_delta)
    )
    return EquilibriumSolution(tuple(new_groups), sol.aggregate)


def league_rewire(
    sol: EquilibriumSolution,
    league_index: int,
    seed: int = 0,
    tol: float = EPS,
) -> EquilibriumSolution:
    """Reshape outcomes inside one league without touching the aggregate.

    Tries equal-budget strategy trades first, then searches for a
    mass-and-mean-preserving slice exchange between two league members,
    preferring any move that flips an edge direction outright over one
    that merely shifts probabilities.  Raises if the league has fewer
    than two members, no overlapping supports, or no exchange that moves
    any outcome.  The search draws nothing at random, so the output is
    deterministic for a fixed input and ``seed`` has no effect.
    """
    return _rewire(sol, league_index, tol)[0]


def _rewire(
    sol: EquilibriumSolution, league_index: int, tol: float = EPS
) -> tuple[EquilibriumSolution, np.ndarray, np.ndarray]:
    """``league_rewire``, with the solved outcome matrix it judged
    candidates against and the rewired one."""
    import numpy as np

    partition = leagues(sol, tol)
    if not 0 <= league_index < len(partition.leagues):
        raise ValueError(f"no league {league_index}")
    league = partition.leagues[league_index]
    members = league.members
    span_lo, span_hi = league.span
    if len(members) < 2:
        raise ValueError("league has fewer than two members, nothing to rewire")
    pairs = []
    for a, b in combinations(members, 2):
        hull_a = sol.groups[a].strategy.support
        hull_b = sol.groups[b].strategy.support
        if hull_a is None or hull_b is None:
            continue
        lo = max(hull_a[0], hull_b[0])
        hi = min(hull_a[1], hull_b[1])
        if hi - lo > 100.0 * EPS:
            pairs.append((a, b, lo, hi))
    if not pairs:
        raise ValueError("league members have no overlapping supports")
    before = outcome_matrix(sol).probs

    def judge(candidate: EquilibriumSolution) -> tuple[np.ndarray, bool, bool]:
        """``candidate``'s matrix, whether it flips an edge, and whether it
        shifts any outcome."""
        after = _replayed(before, sol, candidate)
        flips = ((before - 0.5) * (after - 0.5) < 0.0) & (np.abs(after - 0.5) > tol)
        return after, bool(np.any(flips)), bool(np.max(np.abs(after - before)) > tol)

    def trades():
        # Equal-budget members can trade entire strategies: the aggregate
        # is a mixture of the same densities, so it is literally unchanged,
        # and a cycle through the pair reverses.
        for a, b, _, _ in pairs:
            if abs(sol.groups[a].budget - sol.groups[b].budget) > EPS:
                continue
            swapped = list(sol.groups)
            swapped[a] = replace(sol.groups[a], strategy=sol.groups[b].strategy)
            swapped[b] = replace(sol.groups[b], strategy=sol.groups[a].strategy)
            yield EquilibriumSolution(tuple(swapped), sol.aggregate)
        for trial in range(2 * len(pairs)):
            # deterministic warm start: equal thirds of each hull overlap
            a, b, lo, hi = pairs[trial % len(pairs)]
            third = (hi - lo) / 3.0
            giver, taker = (a, b) if trial < len(pairs) else (b, a)
            yield _slice_swap(sol, giver, taker, 0.5 * (lo + hi), third, third)

    fallback: tuple[EquilibriumSolution, np.ndarray] | None = None
    for candidate in filter(None, trades()):
        after, flips, shifts = judge(candidate)
        if flips:
            return candidate, before, after
        if fallback is None and shifts:
            fallback = candidate, after

    # Greedy composition: single exchanges are bounded by slice headroom,
    # so chain up to eight, each the grid exchange that pushes the
    # tightest pair furthest towards the coin-flip line.  Every step
    # preserves the invariants, hence so does the composite.
    ti, tj = min(
        combinations(members, 2), key=lambda p: abs(before[p[0], p[1]] - 0.5)
    )
    direction = 1.0 if before[ti, tj] < 0.5 else -1.0
    fractions = [k / 7.0 for k in range(1, 7)]

    def exchanges(current: EquilibriumSolution):
        # the middle slice sits in a taker run, an outer one in a giver
        # run, so gapped supports (dice) stay reachable; the centre and
        # the anchor of the outer slices sit at fixed fractions of the runs
        for giver, taker in ((ti, tj), (tj, ti)):
            take_runs, give_runs = (
                [
                    r
                    for r in current.groups[k].strategy.support_runs()
                    if r[1] - r[0] > 100.0 * EPS
                ]
                for k in (taker, giver)
            )
            for (t_lo, t_hi), (g_lo, g_hi) in product(take_runs, give_runs):
                for a, b in product(fractions, fractions):
                    center = t_lo + a * (t_hi - t_lo)
                    spacing = abs(g_lo + b * (g_hi - g_lo) - center)
                    width = min(
                        2.0 * (t_hi - center),
                        2.0 * (center - t_lo),
                        spacing,
                        2.0 * (center - spacing - span_lo),
                        2.0 * (span_hi - center - spacing),
                    )
                    if spacing > 100.0 * EPS and width > 100.0 * EPS:
                        yield _slice_swap(current, giver, taker, center, spacing, width)

    current = sol
    value = before[ti, tj]
    for _ in range(8):
        best = None
        gain = 1e-13
        for candidate in filter(None, exchanges(current)):
            moved = win_prob(
                candidate.groups[ti].strategy.normalized(),
                candidate.groups[tj].strategy.normalized(),
            )
            if (moved - value) * direction > gain:
                best, gain = (moved, candidate), (moved - value) * direction
        if best is None:
            break
        value, current = best
        if (value - 0.5) * (before[ti, tj] - 0.5) < 0.0 and abs(value - 0.5) > tol:
            break
    if current is not sol:
        after, _, shifts = judge(current)
        if shifts:
            return current, before, after
    if fallback is not None:
        return fallback[0], before, fallback[1]
    raise ValueError("no slice exchange changed the outcome matrix")


def export_digraph(
    matrix: OutcomeMatrix,
    partition: LeaguePartition,
    fmt: str = "dot",
    budgets: Sequence[float] | None = None,
    tol: float = EPS,
) -> str:
    """Render the outcome digraph, leagues as clusters.

    An edge runs from each group to its expected winner; a certain edge
    marks a probability-one outcome.  Exact coin flips yield edges both
    ways.  Formats: ``dot`` (Graphviz) or ``json``.
    """
    import numpy as np

    W = matrix.probs
    n = matrix.n
    # row-major (i, j): an edge from i to each j that beats it at least half
    # the time
    wins = (W.T >= 0.5) & ~np.eye(n, dtype=bool)
    edges = [
        {
            "from": i,
            "to": j,
            "prob": float(W[j, i]),
            "certain": bool(W[j, i] >= 1.0 - tol),
        }
        for i, j in np.argwhere(wins).tolist()
    ]
    nodes = []
    for i in range(n):
        node = {"id": i, "league": partition.league_of(i)}
        if budgets is not None:
            node["budget"] = float(budgets[i])
        nodes.append(node)
    if fmt == "json":
        return json.dumps({"nodes": nodes, "edges": edges}, indent=2)
    if fmt != "dot":
        raise ValueError(f"unsupported digraph format {fmt!r}")
    lines = ["digraph outcomes {", "  rankdir=BT;"]
    for rank, lg in enumerate(partition.leagues):
        lines.append(f"  subgraph cluster_{rank} {{")
        lines.append(f'    label="league {rank} (height {lg.height:.6g})";')
        for i in lg.members:
            label = f"g{i}"
            if budgets is not None:
                label += f" (b={budgets[i]:.6g})"
            lines.append(f'    n{i} [label="{label}"];')
        lines.append("  }")
    for e in edges:
        style = ", color=red" if e["certain"] else ""
        lines.append(
            f'  n{e["from"]} -> n{e["to"]} '
            f'[label="{e["prob"]:.3f}", certain={"true" if e["certain"] else "false"}{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def step_samples_csv(sol: EquilibriumSolution) -> str:
    """CSV samples of the aggregate and every strategy for step plotting.

    Each segment contributes its two corners, so plotting x against value
    with straight lines reproduces the exact step function.  Atoms appear
    as their own rows.
    """
    lines = ["series,kind,x,value"]

    def emit(name: str, dens: PiecewiseDensity) -> None:
        for lo, hi, h in dens.segments():
            lines.append(f"{name},step,{lo!r},{h!r}")
            lines.append(f"{name},step,{hi!r},{h!r}")
        for loc, mass in dens.atoms:
            lines.append(f"{name},atom,{loc!r},{mass!r}")

    emit("aggregate", sol.aggregate)
    for idx, g in enumerate(sol.groups):
        emit(f"group{idx}", g.strategy)
    return "\n".join(lines) + "\n"
