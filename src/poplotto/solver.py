"""Equilibrium construction for populations of budgeted contestants.

Groups are processed in increasing budget order.  Each group's strategy is
"poured" against the profile built so far, like concrete behind a retaining
wall: the slab settles at a flat level, and where it would rise above the
level of the previous terrace the two terraces flood into one.  The
resulting aggregate density is a staircase that is non-increasing in x,
which is exactly the shape an unbeatable population must have.

The pour has three regimes, dispatched per group:

* append: the budget clears the current structure, so the slab stands free
  to the right of it as a uniform block centred on the budget;
* settle: the slab tops up the last terrace and pushes the wall right,
  with both the slab's mass and its mean matched by a quadratic in the
  wall position;
* overflow: the settled level would reach the previous terrace, so the
  last terrace is flooded flush, the two merge, and the remaining mass is
  poured with the mean adjusted to conserve the group total.

Every step keeps the group's mass and mean exact by construction; the pour
loop re-checks both and reports the offending group on any drift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .density import EPS, PiecewiseDensity, as_float, refine, stack
from .payoff import win_prob

# Safety net on the per-group mass and mean reconstruction inside solve;
# unit tests pin the much tighter 1e-9 behaviour on top of this.
_POST_TOL = 1e-7


class SolverError(RuntimeError):
    """Numerical or ordering failure during equilibrium construction."""

    def __init__(self, message: str, group_index: int | None = None):
        super().__init__(message)
        self.group_index = group_index


def positive_finite(name: str, value: float) -> float:
    value = as_float(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class DiscreteBudgetDistribution:
    """Finite budget distribution: (budget, mass) rows, increasing budgets.

    Masses are normalized to sum to one at construction.  Rows with equal
    budgets are rejected; merge them by summing their masses first.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        rows = [
            (positive_finite("budget", b), positive_finite("mass", m))
            for b, m in self.entries
        ]
        if not rows:
            raise ValueError("at least one subpopulation is required")
        for (b1, _), (b2, _) in zip(rows, rows[1:]):
            if b2 - b1 <= EPS:
                raise ValueError(
                    "budgets must be strictly increasing; merge groups with "
                    "equal budgets by summing their masses"
                )
        # a power-of-two shift is exact, so the shares keep their bits while
        # masses near the float maximum no longer sum to infinity
        shift = math.frexp(max(mass for _, mass in rows))[1]
        scaled = [math.ldexp(mass, -shift) for _, mass in rows]
        total = sum(scaled)
        object.__setattr__(
            self,
            "entries",
            tuple((budget, mass / total) for (budget, _), mass in zip(rows, scaled)),
        )

    @property
    def budgets(self) -> tuple[float, ...]:
        return tuple(budget for budget, _ in self.entries)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(mass for _, mass in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def prefix(self, count: int) -> "DiscreteBudgetDistribution":
        """First ``count`` rows, renormalized to unit mass."""
        if not 1 <= count <= len(self.entries):
            raise ValueError(f"prefix length {count} out of range")
        return DiscreteBudgetDistribution(self.entries[:count])

    def to_dict(self) -> dict:
        return {
            "subpopulations": [
                {"budget": budget, "mass": mass} for budget, mass in self.entries
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteBudgetDistribution":
        try:
            rows = tuple(
                (as_float("budget", row["budget"]), as_float("mass", row["mass"]))
                for row in data["subpopulations"]
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed subpopulation record: {exc}") from exc
        return cls(rows)


@dataclass(frozen=True)
class TerraceProfile:
    """The solver's working state: a staircase of terraces.

    ``levels[j]`` is the aggregate height over ``[bounds[j-1], bounds[j]]``.
    The leading entry pairs the base point 0 with an infinite sentinel level
    so the first real terrace always has something to stop against.
    """

    bounds: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        bounds = tuple(float(x) for x in self.bounds)
        levels = tuple(float(y) for y in self.levels)
        if len(bounds) != len(levels) or not bounds:
            raise ValueError("bounds and levels must be equally long, non-empty")
        if bounds[0] != 0.0:
            raise ValueError("profile must start at 0")
        if levels[0] != math.inf:
            raise ValueError("profile must start at the sentinel level")
        for left, right in zip(bounds, bounds[1:]):
            if right - left <= EPS:
                raise ValueError("profile bounds must be strictly increasing")
        for upper, lower in zip(levels, levels[1:]):
            if not lower > 0.0 or not math.isfinite(lower):
                raise ValueError("terrace levels must be positive and finite")
            if upper - lower <= 0.0:
                raise ValueError("terrace levels must be strictly decreasing")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "levels", levels)

    def as_density(self) -> PiecewiseDensity:
        if len(self.bounds) == 1:
            return PiecewiseDensity()
        return PiecewiseDensity(self.bounds, self.levels[1:])


@dataclass(frozen=True)
class SubPopulation:
    """One solved group: its budget, population share, and strategy slab."""

    budget: float
    mass: float
    strategy: PiecewiseDensity


@dataclass(frozen=True)
class EquilibriumSolution:
    groups: tuple[SubPopulation, ...]
    aggregate: PiecewiseDensity

    @property
    def budgets(self) -> tuple[float, ...]:
        return tuple(g.budget for g in self.groups)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(g.mass for g in self.groups)

    @property
    def strategies(self) -> tuple[PiecewiseDensity, ...]:
        return tuple(g.strategy for g in self.groups)

    @functools.cached_property
    def payoffs(self) -> tuple[float, ...]:
        """Each group's unit strategy played against the aggregate, built
        on the first read and kept; the certificates share it."""
        return tuple(
            win_prob(g.strategy.normalized(), self.aggregate) for g in self.groups
        )

    @functools.cached_property
    def cells(self) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """``refine`` of every strategy on all their breakpoints, as tuples,
        built on the first read and kept; ``verify_nash`` and the prefix
        certificate share it."""
        strategies = self.strategies
        edges, rows = refine([x for s in strategies for x in s.breakpoints], strategies)
        return tuple(edges), tuple(map(tuple, rows))

    def to_dict(self) -> dict:
        return {
            "subpopulations": [
                {"budget": g.budget, "mass": g.mass} for g in self.groups
            ],
            "strategies": [g.strategy.to_dict() for g in self.groups],
            "aggregate": self.aggregate.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EquilibriumSolution":
        try:
            rows = data["subpopulations"]
            strategies = data["strategies"]
            aggregate = PiecewiseDensity.from_dict(data["aggregate"])
            if len(rows) != len(strategies):
                raise ValueError("subpopulations and strategies must align")
            groups = tuple(
                SubPopulation(
                    positive_finite("budget", row["budget"]),
                    positive_finite("mass", row["mass"]),
                    PiecewiseDensity.from_dict(strat),
                )
                for row, strat in zip(rows, strategies)
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed solution record: {exc}") from exc
        return cls(groups, aggregate)


def quadratic_fill(
    left: float, right: float, base_height: float, mass: float, mean: float
) -> tuple[float, float]:
    """Wall position and level for a slab settling on the end terrace.

    The slab tops up the terrace spanning ``[left, right]`` at ``base_height``
    and extends past ``right`` to a new wall at height ``level``, with its
    total mass and mean prescribed.  Eliminating the level turns the pair of
    conservation equations into a quadratic in the wall position; the larger
    root is the physical one (the smaller puts the wall inside the terrace).
    """
    a = mass + (right - left) * base_height
    b = -2.0 * mass * mean - (right * right - left * left) * base_height
    c = -left * left * a - left * b
    disc = b * b - 4.0 * a * c
    scale = max(b * b, abs(4.0 * a * c), 1.0)
    if disc < -1e-12 * scale:
        raise SolverError(f"negative discriminant {disc} in end-terrace quadratic")
    wall = (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)
    if wall - left <= EPS:
        raise SolverError("degenerate slab: wall landed on the terrace's left edge")
    level = a / (wall - left)
    return wall, level


def _pour(
    bounds: list[float],
    levels: list[float],
    budget: float,
    mass: float,
    pieces: list[tuple[float, float, float]],
) -> None:
    """Pour one group's slab into the profile, recording its trace pieces."""
    while True:
        end = len(bounds) - 1
        if budget > bounds[end]:
            # free-standing block centred on the budget
            wall = 2.0 * budget - bounds[end]
            level = mass / (wall - bounds[end])
            if level < levels[end]:
                pieces.append((bounds[end], wall, level))
                bounds.append(wall)
                levels.append(level)
                return
        if end == 0:
            raise SolverError("pour cannot settle against the empty profile")
        left, right, base = bounds[end - 1], bounds[end], levels[end]
        wall, level = quadratic_fill(left, right, base, mass, budget)
        if level < levels[end - 1]:
            if wall < right - EPS:
                # settling inside the terrace means the requested mean sits
                # below what the structure allows: budgets were not increasing
                raise SolverError(
                    "slab mean unreachable; budgets must increase between pours"
                )
            wall = max(wall, right)
            pieces.append((left, right, level - base))
            if wall > right:
                pieces.append((right, wall, level))
            bounds[end] = wall
            levels[end] = level
            return
        # Overflow: flood the last terrace flush with the previous one,
        # merge them, and pour what is left.  Adjusting the leftover mean
        # keeps the group's overall mean exact.
        flood = (levels[end - 1] - base) * (right - left)
        leftover = mass - flood
        centroid = 0.5 * (left + right)
        pieces.append((left, right, levels[end - 1] - base))
        del bounds[end - 1]
        del levels[end]
        if leftover <= 1e-12 * max(1.0, mass):
            if leftover < -1e-9 * max(1.0, mass) or abs(
                mass * budget - flood * centroid
            ) > 1e-9 * max(1.0, mass * budget):
                raise SolverError("overflow accounting failed to balance")
            return
        budget = (mass * budget - flood * centroid) / leftover
        mass = leftover


def _pour_group(
    bounds: list[float], levels: list[float], budget: float, mass: float
) -> PiecewiseDensity:
    """Pour one group into the terrace lists in place and return its slab.

    The slab is built once, by ``stack``, straight from the constant-height
    pieces the pour records, with the values their unit-weight mixture
    would hold.
    """
    budget = positive_finite("budget", budget)
    mass = positive_finite("mass", mass)
    pieces: list[tuple[float, float, float]] = []
    _pour(bounds, levels, budget, mass, pieces)
    return stack(pieces)


def iter_pours(
    dist: DiscreteBudgetDistribution,
) -> Iterator[tuple[SubPopulation, list[float], list[float]]]:
    """Pour the groups in budget order, one checked group per step.

    Yields each solved group with the live terrace ``bounds`` and ``levels``
    lists right after its pour; the lists are mutated by the next step, so
    copy them to keep a snapshot.  Because every pour depends only on the
    groups poured before it and is homogeneous of degree one in mass, the
    terraces after group j are the equilibrium of the first j groups with
    their levels multiplied by those groups' mass share: the truncation's
    height at a poured budget ``b`` is ``levels[bisect_left(bounds, b)]``
    divided by that share, with no density built.
    """
    bounds = [0.0]
    levels = [math.inf]
    for index, (budget, mass) in enumerate(dist.entries):
        try:
            slab = _pour_group(bounds, levels, budget, mass)
        except SolverError as exc:
            raise SolverError(f"group {index}: {exc}", group_index=index) from exc
        if (
            abs(slab.total_mass - mass) > _POST_TOL
            or abs(slab.mean() - budget) > _POST_TOL * max(1.0, budget)
        ):
            raise SolverError(
                f"group {index}: poured slab drifted from its mass or mean",
                group_index=index,
            )
        yield SubPopulation(budget, mass, slab), bounds, levels


def solve(dist: DiscreteBudgetDistribution) -> EquilibriumSolution:
    """Equilibrium strategies for every group plus the population aggregate.

    Pours groups in increasing budget order in one pass over mutable
    terrace lists; the terrace profile is built and validated once, from
    the final state.  The returned strategies carry their group masses, so
    the aggregate equals their plain (unweighted) mixture.
    """
    groups = []
    for group, bounds, levels in iter_pours(dist):
        groups.append(group)
    profile = TerraceProfile(tuple(bounds), tuple(levels))
    return EquilibriumSolution(tuple(groups), profile.as_density())
