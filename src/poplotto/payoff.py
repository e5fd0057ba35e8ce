"""Pairwise contest payoffs between step densities.

The payoff of playing ``f`` against ``h`` is the probability that an
independent draw from ``f`` beats a draw from ``h``, with ties worth half:
``P(F > H) + 0.5 * P(F = H)``.  Because densities are piecewise constant,
the integral decomposes into closed-form cell contributions on the union
grid of both break sets; no quadrature is involved.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .density import EPS, PiecewiseDensity, refine

# Slack allowed when checking that contest inputs carry unit mass.
UNIT_MASS_TOL = 1e-6


@dataclass(frozen=True)
class Dyad:
    """Two-point strategy straddling a budget.

    Mass splits between ``low`` and ``high`` so the mean lands exactly on
    ``budget``; the split weight is determined by the geometry.  Dyads are
    the deviation certificates used by the equilibrium checks: a population
    strategy is unbeatable iff no dyad earns more against the aggregate.
    """

    low: float
    high: float
    budget: float

    def __post_init__(self) -> None:
        for name in ("low", "high", "budget"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("dyad coordinates must be finite")
        if not 0.0 <= self.low < self.budget < self.high:
            raise ValueError(
                f"dyad needs 0 <= low < budget < high, got "
                f"({self.low}, {self.budget}, {self.high})"
            )

    @property
    def low_weight(self) -> float:
        """Fraction of mass placed at ``low``; lies strictly in (0, 1)."""
        return (self.high - self.budget) / (self.high - self.low)

    def as_density(self) -> PiecewiseDensity:
        lam = self.low_weight
        return PiecewiseDensity((), (), ((self.low, lam), (self.high, 1.0 - lam)))

    def to_dict(self) -> dict:
        return {
            "low": self.low,
            "high": self.high,
            "budget": self.budget,
            "low_weight": self.low_weight,
        }


def _require_unit_mass(dens: PiecewiseDensity, label: str) -> None:
    mass = dens.total_mass
    if abs(mass - 1.0) > UNIT_MASS_TOL:
        raise ValueError(f"{label} density must carry unit mass, has {mass!r}")


def _kept(pts: list[float], i: int) -> int:
    """The last index at or before ``i`` that ``refine`` keeps whatever
    came before it: the first point, or one ``EPS`` clear of the point
    before it.  The merge chain from there on is the whole grid's."""
    while i > 0 and pts[i] - pts[i - 1] < EPS:
        i -= 1
    return i


def win_prob(f: PiecewiseDensity, h: PiecewiseDensity) -> float:
    """Probability that a draw from ``f`` beats a draw from ``h``, ties half.

    Both inputs must be normalized.  Exact per cell: within a cell the
    opponent's cumulative mass is linear, so the integral of ``f`` against
    it is a rectangle plus a triangle.  Both are read on ``refine``'s cells,
    only on the window of the union grid where ``f`` has a height: from its
    first breakpoint, walked back to a point that every merge chain keeps,
    through its last.  Those cells are the whole grid's, read in the same
    order.  When ``refine`` merges the largest point into the last cell,
    ``f``'s mass past the last edge beats all of ``h`` below it.
    """
    _require_unit_mass(f, "first")
    _require_unit_mass(h, "second")
    pts = [*f.breakpoints, *h.breakpoints]
    for loc, _ in f.atoms + h.atoms:
        pts.append(loc)
    pts.sort()
    total = 0.0
    bp = f.breakpoints
    if bp:
        first = _kept(pts, bisect.bisect_left(pts, bp[0]))
        stop = bisect.bisect_right(pts, bp[-1])
        edges, (f_heights, h_heights) = refine(pts[first:stop], (f, h))
        for lo, hi, f_height, h_height in zip(edges, edges[1:], f_heights, h_heights):
            if f_height <= 0.0:
                continue
            start = h.cdf(lo)
            width = hi - lo
            total += f_height * (
                start.inclusive * width + 0.5 * h_height * width * width
            )
    # unit mass means at least one point; the last kept edge ends the
    # merge chain from the last point that every chain keeps
    j = _kept(pts, len(pts) - 1)
    top, last = pts[-1], pts[j]
    for x in pts[j + 1 :]:
        if x - last >= EPS:
            last = x
    if last < top:
        tail = f.cdf(top).inclusive - f.cdf(last).inclusive
        total += tail * h.cdf(last).inclusive
    for loc, mass in f.atoms:
        total += mass * h.cdf(loc).midpoint
    return total


def dyad_payoff(dyad: Dyad, aggregate: PiecewiseDensity) -> float:
    """Payoff of a dyad against the population aggregate.

    Equals ``win_prob`` of the dyad's two-atom density against the
    aggregate, but costs two cumulative lookups instead of a grid sweep.
    """
    _require_unit_mass(aggregate, "aggregate")
    lam = dyad.low_weight
    return (
        lam * aggregate.cdf(dyad.low).midpoint
        + (1.0 - lam) * aggregate.cdf(dyad.high).midpoint
    )

