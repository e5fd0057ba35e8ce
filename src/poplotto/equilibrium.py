"""Independent certification of candidate equilibria.

A candidate solution passes when no group can gain by moving its mass
elsewhere.  Two equivalent certificates are checked by separate routines
and never collapsed into one:

* the staircase conditions: the aggregate density is non-increasing,
  starts at zero cumulative mass, and is constant across each group's
  support hull (``verify_nash``);
* the chord conditions: for each group the aggregate's cumulative curve
  stays under a straight line through that group's operating point and
  touches it across the group's support (``verify_linear_bounds``).

On top of these, ``best_dyad`` searches for the most profitable two-point
deviation directly, and ``verify_subpop_consistency`` re-certifies every
budget-truncated prefix of the population.  All failures are report
content, not exceptions; tolerances are absolute.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .density import EPS, PiecewiseDensity, mixture, refine, step_gap
from .payoff import Dyad, dyad_payoff, win_prob
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
    """Verification verdict for one budget-truncated prefix."""

    count: int
    threshold: float
    report: EquilibriumReport

    @property
    def passed(self) -> bool:
        return self.report.passed

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
    inner = [x for x in aggregate.breakpoints if lo < x < hi]
    # a hull without inner breakpoints is one cell, whose spread is zero
    seen = refine((lo, hi, *inner), (aggregate,), merge=False)[1][0] if inner else []
    spread = max(seen) - min(seen) if seen else 0.0
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


def verify_nash(sol: EquilibriumSolution, tol: float = EPS) -> EquilibriumReport:
    """Certify the staircase conditions on a candidate solution.

    Checks that the aggregate density never increases, that no cumulative
    mass sits at zero, that the aggregate is constant across each group's
    support hull, and that the strategies actually mix to the aggregate.
    Each group's payoff against the aggregate is reported alongside.
    """
    agg = sol.aggregate
    blended = mixture([(1.0, g.strategy) for g in sol.groups])
    checks = tuple(
        GroupCheck(
            budget=g.budget,
            payoff=win_prob(g.strategy.normalized(), agg),
            flat_violation=_flat_violation(agg, g.strategy.support),
        )
        for g in sol.groups
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
    sol: EquilibriumSolution, tol: float = EPS
) -> EquilibriumReport:
    """Certify the chord conditions on a candidate solution.

    For each group, the line through ``(0, intercept)`` and the group's
    operating point ``(budget, payoff)`` must dominate the aggregate's
    cumulative curve everywhere and agree with it across the group's
    support.
    """
    agg = sol.aggregate
    candidate_list = sorted({0.0, *agg.breakpoints, *(loc for loc, _ in agg.atoms)})
    inclusive = [agg.cdf(x).inclusive for x in candidate_list]
    checks = []
    for g in sol.groups:
        payoff = win_prob(g.strategy.normalized(), agg)
        intercept = _chord_intercept(agg, g.budget, g.strategy.support)
        slope = (payoff - intercept) / g.budget
        bound = 0.0
        for x, g_x in zip(candidate_list, inclusive):
            line = intercept + slope * x
            bound = max(bound, g_x - line)
        support_gap = 0.0
        for lo, hi in g.strategy.support_runs():
            pts = {lo, hi, *(x for x in agg.breakpoints if lo < x < hi)}
            for x in pts:
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
    budget: float, aggregate: PiecewiseDensity, grid: _DyadGrid
) -> tuple[Dyad, float]:
    """``best_dyad`` on a grid already read by ``_dyad_grid``."""
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
    outside = itertools.chain(
        zip(xs[:left], gs[:left]),
        zip(xs[right:], gs[right:]),
        ((top, aggregate.total_mass),),
    )
    # monotone chain: drop the last vertex while the new point is on or
    # above the line through the last two, leaving the upper envelope
    hull: list[tuple[float, float]] = []
    for x, g in outside:
        while len(hull) >= 2:
            (x0, g0), (x1, g1) = hull[-2], hull[-1]
            if (x1 - x0) * (g - g0) < (g1 - g0) * (x - x0):
                break
            hull.pop()
        hull.append((x, g))
    # every vertex is below budget - EPS or above budget + EPS, and both
    # sides are present, so exactly one edge spans the budget
    k = next(k for k, (x, _) in enumerate(hull) if x > budget)
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
    sol: EquilibriumSolution, tol: float = EPS
) -> tuple[Dyad | None, float]:
    """Best dyad gain across all groups; the global deviation certificate.

    The aggregate's grid is read once and shared by every group's search.
    ``tol`` is accepted for call compatibility and is not read: the gain
    comes back raw, and the caller compares it.
    """
    grid = _dyad_grid(sol.aggregate)
    worst_dyad: Dyad | None = None
    worst_gain = -math.inf
    for g in sol.groups:
        dyad, gain = _envelope_dyad(g.budget, sol.aggregate, grid)
        if gain > worst_gain:
            worst_dyad = dyad
            worst_gain = gain
    if worst_dyad is None:
        return None, 0.0
    return worst_dyad, worst_gain


def payoff_identity_check(sol: EquilibriumSolution, tol: float = EPS) -> float:
    """Max gap between each group's payoff and the aggregate cumulative value
    at its budget.  At equilibrium the two coincide, which pins every
    pairwise outcome without computing it.  ``tol`` is accepted for call
    compatibility and is not read: the gap comes back raw for the caller."""
    worst = 0.0
    for g in sol.groups:
        payoff = win_prob(g.strategy.normalized(), sol.aggregate)
        worst = max(worst, abs(payoff - sol.aggregate.cdf(g.budget).midpoint))
    return worst


def verify_subpop_consistency(
    dist: DiscreteBudgetDistribution, sol: EquilibriumSolution, tol: float = EPS
) -> list[PrefixCheck]:
    """Re-certify every budget-truncated prefix of the solution.

    The prefix keeping the ``j`` lowest budgets is one running mixture of
    their strategies, grown by one strategy per prefix and renormalized to
    unit mass.  It must pass the shape checks of ``verify_nash`` and be
    constant across each kept group's support hull.  Prefix reports carry
    no payoffs and a null ``mixture_gap``, since the prefix aggregate is
    its strategies' mixture by construction.  Solutions built by the
    solver pass every prefix; hand-modified ones may not.
    """
    if len(dist) != len(sol.groups):
        raise ValueError("distribution and solution must have the same groups")
    for (budget, _), g in zip(dist.entries, sol.groups):
        if abs(budget - g.budget) > EPS:
            raise ValueError("distribution budgets do not match the solution")
    out = []
    mixed = PiecewiseDensity((), ())
    share = 0.0
    for count, g in enumerate(sol.groups, start=1):
        mixed = mixture([(1.0, mixed), (1.0, g.strategy)])
        share += g.mass
        agg = mixed.scaled(1.0 / share)
        checks = tuple(
            GroupCheck(
                k.budget, flat_violation=_flat_violation(agg, k.strategy.support)
            )
            for k in sol.groups[:count]
        )
        report = EquilibriumReport(tol, checks, **_shape_checks(agg))
        out.append(PrefixCheck(count=count, threshold=g.budget, report=report))
    return out
