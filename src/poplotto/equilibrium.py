"""Independent certification of candidate equilibria.

A candidate solution passes when no group can gain by moving its mass
elsewhere.  Two equivalent certificates are checked by separate routines,
which read one shared payoff per group, ``EquilibriumSolution.payoffs``:

* the staircase conditions: the aggregate density is non-increasing,
  starts at zero cumulative mass, and is constant across each group's
  support hull (``verify_nash``);
* the chord conditions: for each group the aggregate's cumulative curve
  stays under a straight line through that group's operating point and
  touches it across the group's support (``verify_linear_bounds``).

On top of these, ``best_dyad`` searches for the most profitable two-point
deviation directly, and ``verify_subpop_consistency`` re-certifies every
budget-truncated prefix of the population, all prefixes at once from one
cumulative sum of the strategies' heights on one ``refine`` of them all;
a prefix's report is built only when read.  ``verify_nash`` blends the
strategies with ``mixture``, which sums them as the solver sums its
slabs.  All failures are report content, not exceptions; tolerances are
absolute.  numpy is imported inside ``verify_subpop_consistency``, so
importing this module does not load it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .density import EPS, REPORT_TOL, PiecewiseDensity, mixture, refine, step_gap
from .payoff import Dyad, dyad_payoff
from .solver import EquilibriumSolution, DiscreteBudgetDistribution
from .solver import positive_finite


@dataclass(frozen=True)
class GroupCheck:
    """Per-group slice of a verification report.

    Fields not produced by the routine that built the report stay None and
    serialize as null.
    """

    budget: float
    payoff: float | None = None
    flat_violation: float | None = None
    intercept: float | None = None
    slope: float | None = None
    bound_violation: float | None = None
    support_gap: float | None = None

    def violations(self) -> list[float]:
        out = []
        for value in (self.flat_violation, self.bound_violation, self.support_gap):
            if value is not None:
                out.append(value)
        return out

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "payoff": self.payoff,
            "flat_violation": self.flat_violation,
            "intercept": self.intercept,
            "slope": self.slope,
            "bound_violation": self.bound_violation,
            "support_gap": self.support_gap,
        }


@dataclass(frozen=True)
class EquilibriumReport:
    """Violation magnitudes for one certification pass.

    ``passed`` holds iff every recorded violation is within ``tol``.
    """

    tol: float
    groups: tuple[GroupCheck, ...]
    monotone_violation: float | None = None
    cdf_at_zero: float | None = None
    mixture_gap: float | None = None

    def violations(self) -> list[float]:
        out = []
        for check in self.groups:
            out.extend(check.violations())
        for value in (self.monotone_violation, self.cdf_at_zero, self.mixture_gap):
            if value is not None:
                out.append(value)
        return out

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.violations())

    def worst(self) -> float:
        vs = self.violations()
        return max(vs) if vs else 0.0

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "groups": [check.to_dict() for check in self.groups],
            "monotone_violation": self.monotone_violation,
            "cdf_at_zero": self.cdf_at_zero,
            "mixture_gap": self.mixture_gap,
            # no certificate fills these; the keys stay so documents keep their shape
            "best_dyad": None,
            "best_dyad_gain": None,
        }


@dataclass(frozen=True)
class PrefixCheck:
    """Verification verdict for one budget-truncated prefix.

    ``passed`` is the verdict; ``report``, whose ``passed`` agrees with it,
    is built by ``_report`` when first read.
    """

    count: int
    threshold: float
    passed: bool
    _report: Callable[[], EquilibriumReport] = field(repr=False, compare=False)

    @functools.cached_property
    def report(self) -> EquilibriumReport:
        return self._report()

    def to_dict(self) -> dict:
        """The verdict alone; ``report`` stays out of rewire documents."""
        return {
            "count": self.count,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _flat_violation(
    aggregate: PiecewiseDensity, hull: tuple[float, float] | None
) -> float:
    """How far the aggregate is from constant across ``hull``."""
    if hull is None:
        return 0.0
    lo, hi = hull
    if hi - lo <= EPS:
        return 0.0
    # a hull wider than EPS holds at least one cell
    seen = aggregate.heights_across(lo, hi)
    spread = max(seen) - min(seen)
    atom_breach = max(
        (mass for loc, mass in aggregate.atoms if lo + EPS < loc < hi - EPS),
        default=0.0,
    )
    return max(spread, atom_breach)


def _shape_checks(aggregate: PiecewiseDensity) -> dict:
    """The aggregate's largest rise or interior atom, and its cumulative
    mass at zero, keyed as ``EquilibriumReport`` fields."""
    rise = 0.0
    heights = aggregate.heights
    if heights and aggregate.breakpoints[0] > EPS:
        # support starts above zero, so the density rises from nothing
        rise = heights[0]
    for prev, nxt in zip(heights, heights[1:]):
        rise = max(rise, nxt - prev)
    interior_atom = max(
        (mass for loc, mass in aggregate.atoms if loc > EPS), default=0.0
    )
    return {
        "monotone_violation": max(rise, interior_atom),
        "cdf_at_zero": aggregate.cdf(0.0).inclusive,
    }


def verify_nash(sol: EquilibriumSolution, tol: float = REPORT_TOL) -> EquilibriumReport:
    """Certify the staircase conditions on a candidate solution.

    Checks that the aggregate density never increases, that no cumulative
    mass sits at zero, that the aggregate is constant across each group's
    support hull, and that the strategies actually mix to the aggregate.
    Each group's payoff against the aggregate is reported alongside.
    """
    agg = sol.aggregate
    blended = mixture([(1.0, s) for s in sol.strategies])
    checks = tuple(
        GroupCheck(
            budget=g.budget,
            payoff=payoff,
            flat_violation=_flat_violation(agg, g.strategy.support),
        )
        for g, payoff in zip(sol.groups, sol.payoffs)
    )
    return EquilibriumReport(
        tol, checks, **_shape_checks(agg), mixture_gap=step_gap(blended, agg)
    )


def _chord_intercept(
    aggregate: PiecewiseDensity, budget: float, hull: tuple[float, float] | None
) -> float:
    """Intercept of the bounding line for one group.

    Built from the chord through the hull endpoints when the budget lies
    strictly between them; otherwise from the tangent at the budget, using
    the aggregate segment on its left.
    """
    if hull is not None:
        lo, hi = hull
        if lo < budget - EPS and hi > budget + EPS:
            g_lo = aggregate.cdf(lo).midpoint
            g_hi = aggregate.cdf(hi).midpoint
            return (hi * g_lo - lo * g_hi) / (hi - lo)
    slope = aggregate.height_at(budget)
    return aggregate.cdf(budget).midpoint - slope * budget


def verify_linear_bounds(
    sol: EquilibriumSolution, tol: float = REPORT_TOL
) -> EquilibriumReport:
    """Certify the chord conditions on a candidate solution.

    For each group, the line through ``(0, intercept)`` and the group's
    operating point ``(budget, payoff)`` must dominate the aggregate's
    cumulative curve everywhere and agree with it across the group's
    support.
    """
    agg = sol.aggregate
    bp = agg.breakpoints
    candidate_list = sorted({0.0, *bp, *(loc for loc, _ in agg.atoms)})
    inclusive = [agg.cdf(x).inclusive for x in candidate_list]
    checks = []
    for g, payoff in zip(sol.groups, sol.payoffs):
        intercept = _chord_intercept(agg, g.budget, g.strategy.support)
        slope = (payoff - intercept) / g.budget
        bound = max(
            0.0,
            *[
                g_x - (intercept + slope * x)
                for x, g_x in zip(candidate_list, inclusive)
            ],
        )
        support_gap = 0.0
        for lo, hi in g.strategy.support_runs():
            inner = bp[bisect.bisect_right(bp, lo) : bisect.bisect_left(bp, hi)]
            for x in (lo, hi, *inner):
                line = intercept + slope * x
                support_gap = max(support_gap, abs(agg.cdf(x).midpoint - line))
        checks.append(
            GroupCheck(
                budget=g.budget,
                payoff=payoff,
                intercept=intercept,
                slope=slope,
                bound_violation=bound,
                support_gap=support_gap,
            )
        )
    return EquilibriumReport(tol=tol, groups=tuple(checks))


# grid points, the cumulative midpoint value at each, and the support end
_DyadGrid = tuple[list[float], list[float], float]


def _upper_envelope(
    points: Iterable[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Upper concave envelope of points in increasing ``x``, by monotone
    chain: drop the last vertex while the new point is on or above the
    line through the last two."""
    hull: list[tuple[float, float]] = []
    for x, g in points:
        while len(hull) >= 2:
            (x0, g0), (x1, g1) = hull[-2], hull[-1]
            if (x1 - x0) * (g - g0) < (g1 - g0) * (x - x0):
                break
            hull.pop()
        hull.append((x, g))
    return hull


def _dyad_grid(aggregate: PiecewiseDensity) -> _DyadGrid:
    """Where an optimal dyad may sit, read once per aggregate.

    Returns zero, the breakpoints and the atom locations, sorted, with the
    cumulative midpoint value at each, and the end of the support.  The
    grid also holds one point past the support, where the curve reads the
    total mass; its place depends on the budget, so it is added per search.
    """
    xs = sorted({0.0, *aggregate.breakpoints, *(loc for loc, _ in aggregate.atoms)})
    sup = aggregate.support
    return xs, [aggregate.cdf(x).midpoint for x in xs], sup[1] if sup else 0.0


def _envelope_dyad(
    budget: float,
    aggregate: PiecewiseDensity,
    grid: _DyadGrid,
    shared: list[tuple[float, float]] | None = None,
) -> tuple[Dyad, float]:
    """``best_dyad`` on a grid already read by ``_dyad_grid``.

    ``shared`` is the envelope of the whole grid with the point past the
    support at ``end + 1``; a search that would build exactly that, at a
    budget at most ``end`` with no grid point within ``EPS``, takes its
    edge from it.
    """
    budget = positive_finite("budget", budget)
    xs, gs, end = grid
    left = bisect.bisect_left(xs, budget - EPS)
    top = max(end, budget) + 1.0
    if left == 0 or not top > budget + EPS:
        raise ValueError(
            f"no dyad straddles budget {budget!r}: the grid needs a point "
            f"below budget - EPS and one above budget + EPS"
        )
    right = bisect.bisect_right(xs, budget + EPS)
    hull = shared
    if hull is None or left < right or budget > end:
        # the search drops grid points or moves the one past the support
        hull = _upper_envelope(
            itertools.chain(
                zip(xs[:left], gs[:left]),
                zip(xs[right:], gs[right:]),
                ((top, aggregate.total_mass),),
            )
        )
    # every vertex is below budget - EPS or above budget + EPS, and both
    # sides are present, so exactly one edge spans the budget
    k = bisect.bisect_right(hull, budget, key=operator.itemgetter(0))
    dyad = Dyad(hull[k - 1][0], hull[k][0], budget)
    return dyad, dyad_payoff(dyad, aggregate) - aggregate.cdf(budget).midpoint


def best_dyad(budget: float, aggregate: PiecewiseDensity) -> tuple[Dyad, float]:
    """Most profitable two-point deviation for a unit budget holder.

    A dyad ``(low, high)`` at the budget earns the chord of the cumulative
    midpoint curve ``G(x) = aggregate.cdf(x).midpoint`` between ``low``
    and ``high``, read at the budget.  ``G`` is linear between the grid
    points (zero, breakpoints, atom locations and one past the support),
    so the optimum has both points on the grid, and the best chord over
    the budget is the upper concave envelope of the grid points outside
    ``(budget - EPS, budget + EPS)``: the dyad is the envelope's edge over
    the budget.  The envelope is built by monotone chain, linear in the
    grid size.  Returns the dyad and its gain over staying at the budget
    point.  Raises ``ValueError`` when no grid point lies below
    ``budget - EPS``, as for a budget within ``EPS`` of zero, or above
    ``budget + EPS``, as for a budget so large that adding one is lost to
    rounding.  The gain comes back raw, and the caller compares it.
    """
    return _envelope_dyad(budget, aggregate, _dyad_grid(aggregate))


def worst_deviation(
    sol: EquilibriumSolution, tol: float = REPORT_TOL
) -> tuple[Dyad | None, float]:
    """Best dyad gain across all groups; the global deviation certificate.

    The aggregate's grid and the upper envelope of all of it are built
    once.  A group with no grid point within ``EPS`` of its budget, and
    its budget at most the support's end, searches exactly that point set,
    so it takes its edge from the shared envelope by bisection; any other
    group builds its own envelope, linear in the grid size.  ``tol`` is
    accepted for call compatibility and is not read: the gain comes back
    raw, and the caller compares it.
    """
    xs, gs, end = grid = _dyad_grid(sol.aggregate)
    past_end = ((end + 1.0, sol.aggregate.total_mass),)
    shared = _upper_envelope(itertools.chain(zip(xs, gs), past_end))
    worst_dyad: Dyad | None = None
    worst_gain = -math.inf
    for g in sol.groups:
        dyad, gain = _envelope_dyad(g.budget, sol.aggregate, grid, shared)
        if gain > worst_gain:
            worst_dyad = dyad
            worst_gain = gain
    if worst_dyad is None:
        return None, 0.0
    return worst_dyad, worst_gain


def payoff_identity_check(sol: EquilibriumSolution, tol: float = REPORT_TOL) -> float:
    """Max gap between each group's payoff and the aggregate cumulative value
    at its budget.  At equilibrium the two coincide, which pins every
    pairwise outcome without computing it.  ``tol`` is accepted for call
    compatibility and is not read: the gap comes back raw for the caller."""
    worst = 0.0
    for g, payoff in zip(sol.groups, sol.payoffs):
        worst = max(worst, abs(payoff - sol.aggregate.cdf(g.budget).midpoint))
    return worst


def verify_subpop_consistency(
    dist: DiscreteBudgetDistribution, sol: EquilibriumSolution, tol: float = REPORT_TOL
) -> list[PrefixCheck]:
    """Re-certify every budget-truncated prefix of the solution.

    The prefix keeping the ``j`` lowest budgets has as aggregate the sum of
    their strategies renormalized to unit mass.  Every strategy is read
    once onto one grid, a ``refine`` on all their breakpoints, so one
    cumulative sum over the groups, divided by the running mass share,
    gives every prefix aggregate at once, cell for cell the heights a
    running mixture of the strategies would hold.  Atoms are pooled across
    all strategies as the density constructor pools them, and summed the
    same way.  Each prefix must pass the shape checks of ``verify_nash``
    (no rise, no interior atom, no mass at zero) and be constant across
    each kept group's support hull: on the cells that the hull overlaps by
    at least ``EPS``, and on zero where it overlaps the grid's outside by
    as much.  The verdicts come straight off these arrays; a prefix's
    ``report`` carries no payoffs and a null ``mixture_gap``, since the
    prefix aggregate is its strategies' mixture by construction.
    Solutions built by the solver pass every prefix; hand-modified ones
    may not.
    """
    import numpy as np

    if len(dist) != len(sol.groups):
        raise ValueError("distribution and solution must have the same groups")
    for (budget, _), g in zip(dist.entries, sol.groups):
        if abs(budget - g.budget) > EPS:
            raise ValueError("distribution budgets do not match the solution")
    groups = sol.groups
    n = len(groups)
    strategies = sol.strategies
    edges, rows = refine([x for s in strategies for x in s.breakpoints], strategies)
    # times 1 / share, not divided by it, as ``scaled`` does to a mixture
    scale = (1.0 / np.add.accumulate([g.mass for g in groups]))[:, None]
    heights = np.add.accumulate(np.array(rows)) * scale
    # a grid starting above zero rises from nothing into its first cell
    rise = heights[:, :1] if edges and edges[0] > EPS else heights[:, :0]
    rise = np.maximum(
        rise.max(axis=1, initial=0.0),
        (heights[:, 1:] - heights[:, :-1]).max(axis=1, initial=0.0),
    )

    # atoms pool onto the first location of each run within EPS
    atoms = sorted(
        (loc, k, mass) for k, s in enumerate(strategies) for loc, mass in s.atoms
    )
    locs: list[float] = []
    pooled = np.zeros((n, len(atoms)))
    for loc, k, mass in atoms:
        if not locs or loc - locs[-1] > EPS:
            locs.append(loc)
        pooled[k, len(locs) - 1] += mass
    pooled = np.add.accumulate(pooled[:, : len(locs)]) * scale
    at_zero = bisect.bisect_right(locs, EPS)
    cdf_at_zero = pooled[:, :at_zero].sum(axis=1)
    monotone = np.maximum(rise, pooled[:, at_zero:].max(axis=1, initial=0.0))

    # flat[k, j]: group k's flatness at prefix j >= k, read on the cells
    # reaching at least EPS into its hull and, where the hull reaches as
    # far past the grid, on the zero outside it; column-major, since each
    # group reads a run of columns
    lefts, rights = edges[:-1], edges[1:]
    level = np.asfortranarray(heights)
    flat = np.zeros((n, n))
    for k, s in enumerate(strategies):
        hull = s.support
        if hull is None or hull[1] - hull[0] <= EPS:
            continue
        lo, hi = hull
        # the cells with right - lo >= EPS and hi - left >= EPS
        start = bisect.bisect_left(rights, EPS, key=lo.__rsub__)
        stop = bisect.bisect_right(lefts, -EPS, key=hi.__rsub__)
        if start < stop:
            seen = level[k:, start:stop]
            outside = edges[0] - lo >= EPS or hi - edges[-1] >= EPS
            floor = 0.0 if outside else seen.min(axis=1)
            flat[k, k:] = seen.max(axis=1) - floor
        start = bisect.bisect_right(locs, lo + EPS)
        stop = bisect.bisect_left(locs, hi - EPS)
        if start < stop:
            flat[k, k:] = np.maximum(flat[k, k:], pooled[k:, start:stop].max(axis=1))
    worst = np.maximum(np.maximum(flat.max(axis=0), monotone), cdf_at_zero)

    def report(j: int) -> EquilibriumReport:
        checks = tuple(
            GroupCheck(g.budget, flat_violation=float(v))
            for g, v in zip(groups[: j + 1], flat[: j + 1, j])
        )
        return EquilibriumReport(
            tol,
            checks,
            monotone_violation=float(monotone[j]),
            cdf_at_zero=float(cdf_at_zero[j]),
        )

    return [
        PrefixCheck(j + 1, g.budget, verdict, functools.partial(report, j))
        for j, (g, verdict) in enumerate(zip(groups, (worst <= tol).tolist()))
    ]
