"""Reference implementations kept only as oracles.

Each grid function below rebuilds its own union grid, drops each point
within EPS of the last kept, and reads a density on each cell by the edge
rule of ``density.refine``: every breakpoint snaps to the last kept edge
at or below it, found by a linear scan, and a segment holds the cells
between its ends' snapped edges.  ``tests/test_refine.py`` checks that
the rewritten functions give exactly the same output.
``skip_cell_step_gap`` is the loop ``step_gap`` ran before, which kept
every point, skipped cells narrower than EPS and read ``height_at`` at
each cell midpoint; ``height_at`` is the exact point read, a scan over
the segments in place of the method's ``bisect``.
``win_prob`` counts the mass past the last kept point as ``payoff.win_prob``
does.
``subpop_consistency`` is the prefix loop ``verify_subpop_consistency`` ran
before it kept one running mixture, ``running_subpop_consistency`` the
running mixture it kept before it read every prefix off one cumulative sum
on a shared grid, and ``best_dyad_scan`` is the pair scan ``best_dyad`` ran
before it read the best dyad off the upper concave envelope;
``tests/test_equilibrium.py`` compares each with its rewrite.
``support_runs`` is the two-pass loop ``PiecewiseDensity.support_runs``
ran before it merged once: it joined touching segments first and merged
them with the atoms after; ``tests/test_density.py`` compares the two.
``pour_slab`` is the slab ``solver._pour_group`` built before
``density.stack`` built it in one construction: the unit-weight mixture
of one one-segment density per poured piece, summed by this module's
``mixture``, since ``density.stack`` and ``density.mixture`` now share
one summation routine; ``tests/test_solver.py`` compares the two.
``outcome_matrix`` plays every contest, and ``transitivity_report`` audits
the whole matrix as one block, as the package did before it settled
contests whose hulls do not meet and audited the blocks of the matrix one
by one; ``tests/test_structure.py`` compares each with its rewrite.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from poplotto import density, payoff
from poplotto.density import EPS, PiecewiseDensity
from poplotto.equilibrium import EquilibriumReport, GroupCheck
from poplotto.equilibrium import _flat_violation, _shape_checks
from poplotto.payoff import Dyad, dyad_payoff
from poplotto.solver import EquilibriumSolution, SubPopulation
from poplotto.structure import _NOTIONS, OutcomeMatrix, TransitivityReport


def merged_edges(points) -> list[float]:
    """The sorted points, each within EPS of the last kept dropped."""
    merged: list[float] = []
    for x in sorted(set(points)):
        if not merged or x - merged[-1] >= EPS:
            merged.append(x)
    return merged


def snapped(x: float, edges: list[float]) -> float:
    """The last edge at or below ``x``; the first edge when all lie above."""
    at = edges[0]
    for edge in edges:
        if edge <= x:
            at = edge
    return at


def cell_heights(dens: PiecewiseDensity, edges: list[float]) -> list[float]:
    """``dens``'s height on each cell of ``edges``: the segment whose
    snapped ends hold the cell's left edge, else 0.0."""
    spans = [
        (snapped(lo, edges), snapped(hi, edges), h) for lo, hi, h in dens.segments()
    ]
    return [next((h for a, b, h in spans if a <= lo < b), 0.0) for lo in edges[:-1]]


def step_gap(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    edges = merged_edges((*a.breakpoints, *b.breakpoints))
    gap = 0.0
    for ha, hb in zip(cell_heights(a, edges), cell_heights(b, edges)):
        gap = max(gap, abs(ha - hb))
    return max(gap, atom_gap(a, b))


def skip_cell_step_gap(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    """``step_gap`` as it read before its cells were merged: every point
    kept, cells narrower than EPS skipped."""
    pts = sorted(set(a.breakpoints) | set(b.breakpoints))
    gap = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < EPS:
            continue
        mid = 0.5 * (lo + hi)
        gap = max(gap, abs(height_at(a, mid) - height_at(b, mid)))
    return max(gap, atom_gap(a, b))


def atom_gap(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    locs = sorted(
        set(loc for loc, _ in a.atoms) | set(loc for loc, _ in b.atoms)
    )
    return max((abs(a.cdf(loc).at - b.cdf(loc).at) for loc in locs), default=0.0)


def mixture(parts: Sequence[tuple[float, PiecewiseDensity]]) -> PiecewiseDensity:
    pts: list[float] = []
    atoms: list[tuple[float, float]] = []
    active: list[tuple[float, PiecewiseDensity]] = []
    for weight, dens in parts:
        weight = float(weight)
        if not math.isfinite(weight) or weight < 0.0:
            raise ValueError("mixture weights must be non-negative and finite")
        if weight == 0.0:
            continue
        active.append((weight, dens))
        pts.extend(dens.breakpoints)
        atoms.extend((loc, weight * mass) for loc, mass in dens.atoms)
    if not pts:
        return PiecewiseDensity((), (), tuple(atoms))
    merged = merged_edges(pts)
    rows = [cell_heights(d, merged) for _, d in active]
    heights = []
    for c in range(len(merged) - 1):
        # parts in order from 0.0; from Python 3.12 on, the builtin sum
        # of floats compensates its rounding
        total = 0.0
        for (w, _), row in zip(active, rows):
            total += w * row[c]
        heights.append(total)
    return PiecewiseDensity(tuple(merged), tuple(heights), tuple(atoms))


def pour_slab(pieces: Sequence[tuple[float, float, float]]) -> PiecewiseDensity:
    return mixture([(1.0, PiecewiseDensity((lo, hi), (h,))) for lo, hi, h in pieces])


def win_prob(f: PiecewiseDensity, h: PiecewiseDensity) -> float:
    """The contest integral without the unit-mass checks of ``payoff.win_prob``."""
    pts = set(f.breakpoints) | set(h.breakpoints)
    pts.update(loc for loc, _ in f.atoms)
    pts.update(loc for loc, _ in h.atoms)
    grid = sorted(pts)
    merged = merged_edges(grid)
    total = 0.0
    cells = zip(merged, merged[1:], cell_heights(f, merged), cell_heights(h, merged))
    for lo, hi, f_height, h_height in cells:
        if f_height <= 0.0:
            continue
        start = h.cdf(lo)
        width = hi - lo
        total += f_height * (
            start.inclusive * width + 0.5 * h_height * width * width
        )
    if merged[-1] < grid[-1]:
        # f's mass past the last kept point beats all of h below it
        tail = f.cdf(grid[-1]).inclusive - f.cdf(merged[-1]).inclusive
        total += tail * h.cdf(merged[-1]).inclusive
    for loc, mass in f.atoms:
        total += mass * h.cdf(loc).midpoint
    return total


def flat_violation(
    aggregate: PiecewiseDensity, hull: tuple[float, float] | None
) -> float:
    if hull is None:
        return 0.0
    lo, hi = hull
    if hi - lo <= EPS:
        return 0.0
    edges = merged_edges((lo, hi, *(x for x in aggregate.breakpoints if lo < x < hi)))
    seen = cell_heights(aggregate, edges)
    spread = max(seen) - min(seen) if seen else 0.0
    atom_breach = max(
        (mass for loc, mass in aggregate.atoms if lo + EPS < loc < hi - EPS),
        default=0.0,
    )
    return max(spread, atom_breach)


def min_height(dens: PiecewiseDensity, lo: float, hi: float) -> float:
    edges = merged_edges((lo, hi, *(x for x in dens.breakpoints if lo < x < hi)))
    return min(cell_heights(dens, edges), default=0.0)


def patched(
    dens: PiecewiseDensity, cells: list[tuple[float, float]], deltas: list[float]
) -> PiecewiseDensity:
    merged = merged_edges((*dens.breakpoints, *(x for cell in cells for x in cell)))
    heights = []
    for lo, h in zip(merged, cell_heights(dens, merged)):
        for (c_lo, c_hi), delta in zip(cells, deltas):
            if snapped(c_lo, merged) <= lo < snapped(c_hi, merged):
                h += delta
        heights.append(max(h, 0.0))
    return PiecewiseDensity(tuple(merged), tuple(heights), dens.atoms)


def height_at(dens: PiecewiseDensity, x: float) -> float:
    for lo, hi, h in dens.segments():
        if lo <= x <= hi:
            return h
    return 0.0


def support(dens: PiecewiseDensity) -> tuple[float, float] | None:
    lo = math.inf
    hi = -math.inf
    for s_lo, s_hi, h in dens.segments():
        if h > 0.0:
            lo = min(lo, s_lo)
            hi = max(hi, s_hi)
    for loc, _ in dens.atoms:
        lo = min(lo, loc)
        hi = max(hi, loc)
    if lo > hi:
        return None
    return lo, hi


def subpop_consistency(
    sol: EquilibriumSolution, tol: float
) -> list[tuple[EquilibriumReport, PiecewiseDensity]]:
    """Every prefix rescaled to unit mass, remixed, and put through the
    staircase checks of ``verify_nash`` without its payoff sweep; each
    prefix's report comes with the prefix aggregate it read."""
    out = []
    for count in range(1, len(sol.groups) + 1):
        kept = sol.groups[:count]
        share = sum(g.mass for g in kept)
        scaled = tuple(
            SubPopulation(g.budget, g.mass / share, g.strategy.scaled(1.0 / share))
            for g in kept
        )
        agg = mixture([(1.0, g.strategy) for g in scaled])
        rise = 0.0
        heights = agg.heights
        if heights and agg.breakpoints[0] > EPS:
            rise = heights[0]
        for prev, nxt in zip(heights, heights[1:]):
            rise = max(rise, nxt - prev)
        interior_atom = max((m for loc, m in agg.atoms if loc > EPS), default=0.0)
        # the remix check compares this mixture with itself, so it reads 0
        blended = mixture([(1.0, g.strategy) for g in scaled])
        report = EquilibriumReport(
            tol=tol,
            groups=tuple(
                GroupCheck(
                    g.budget, flat_violation=flat_violation(agg, g.strategy.support)
                )
                for g in scaled
            ),
            monotone_violation=max(rise, interior_atom),
            cdf_at_zero=agg.cdf(0.0).inclusive,
            mixture_gap=step_gap(blended, agg),
        )
        out.append((report, agg))
    return out


def running_subpop_consistency(
    sol: EquilibriumSolution, tol: float
) -> list[tuple[EquilibriumReport, PiecewiseDensity]]:
    """One running mixture grown by one strategy per prefix and scaled to
    unit mass, then the shape checks of ``verify_nash`` and each kept
    group's flatness; each prefix's report comes with the aggregate it read."""
    out = []
    mixed = PiecewiseDensity((), ())
    share = 0.0
    for count, g in enumerate(sol.groups, start=1):
        mixed = density.mixture([(1.0, mixed), (1.0, g.strategy)])
        share += g.mass
        agg = mixed.scaled(1.0 / share)
        checks = tuple(
            GroupCheck(
                k.budget, flat_violation=_flat_violation(agg, k.strategy.support)
            )
            for k in sol.groups[:count]
        )
        out.append((EquilibriumReport(tol, checks, **_shape_checks(agg)), agg))
    return out


def best_dyad_scan(budget: float, aggregate: PiecewiseDensity) -> tuple[Dyad, float]:
    """Every (low, high) pair of grid points straddling the budget, tried in
    turn; O(K^2) payoff evaluations on a grid of K points."""
    pts = {0.0, *aggregate.breakpoints, *(loc for loc, _ in aggregate.atoms)}
    sup = aggregate.support
    top = max(sup[1] if sup else 0.0, budget) + 1.0
    pts.add(top)
    lows = sorted(x for x in pts if x < budget - EPS)
    highs = sorted(x for x in pts if x > budget + EPS)
    baseline = aggregate.cdf(budget).midpoint
    best: Dyad | None = None
    best_value = -math.inf
    for lo in lows:
        for hi in highs:
            dyad = Dyad(lo, hi, budget)
            value = dyad_payoff(dyad, aggregate)
            if value > best_value + 1e-15:
                best = dyad
                best_value = value
    assert best is not None, "no grid pair straddles the budget"
    return best, best_value - baseline


def support_runs(d: PiecewiseDensity) -> list[tuple[float, float]]:
    """Positive segments joined across edges within EPS, then sorted with
    the atoms as zero-width runs and merged once more."""
    runs: list[tuple[float, float]] = []
    for lo, hi, h in d.segments():
        if h <= 0.0:
            continue
        if runs and abs(runs[-1][1] - lo) <= EPS:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    for loc, _ in d.atoms:
        runs.append((loc, loc))
    runs.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in runs:
        if merged and lo <= merged[-1][1] + EPS:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def outcome_matrix(sol: EquilibriumSolution) -> OutcomeMatrix:
    """``payoff.win_prob`` for every pair ``i < j``, the complement below."""
    n = len(sol.groups)
    norms = [g.strategy.normalized() for g in sol.groups]
    probs = np.full((n, n), 0.5)
    for i, j in combinations(range(n), 2):
        p = payoff.win_prob(norms[i], norms[j])
        probs[i, j] = p
        probs[j, i] = 1.0 - p
    return OutcomeMatrix(probs)


def transitivity_report(matrix: OutcomeMatrix, tol: float) -> TransitivityReport:
    """Every ordered triple of the whole matrix, one ``i`` at a time over
    the ``(j, k)`` plane, in ``itertools.permutations`` order."""
    W = matrix.probs
    sure = 1.0 - tol
    cols = np.arange(matrix.n)
    found: dict[str, list[tuple[int, int, int]]] = {name: [] for name in _NOTIONS}
    for i in range(matrix.n):
        w = W[:, i]
        rows = np.flatnonzero((w >= min(0.5, sure)) & (cols != i))
        if not rows.size:
            continue
        wji = w[rows, None]
        wki = w[None, :]
        wkj = W[:, rows].T
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
            found[name].extend(zip([i] * len(j), rows[j].tolist(), k.tolist()))
    return TransitivityReport(
        tol=tol, **{name: tuple(triples) for name, triples in found.items()}
    )
