"""Step-function densities on the non-negative reals.

A density is a finite list of constant-height segments plus optional point
masses.  Segments are half-open ``[x[j-1], x[j])``, so a value sitting on an
interior breakpoint belongs to the segment on its right.  Cumulative queries
report the mass strictly below a point and the mass sitting exactly on it
separately, which is what tie-splitting payoffs need.

Construction canonicalizes the segments in one pass, and the atoms only
when there are any: locations within ``EPS`` below zero move onto zero,
breakpoints closer than ``EPS`` merge, dropping the slivers between them,
zero-height edge segments are trimmed, adjacent segments of identical
height coalesce, and coincident atoms are pooled.  Instances are
immutable and safe to share across threads; the unit-mass copy that
``normalized`` keeps is equal whichever thread builds it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

# numpy loads inside ``sample``, the one method that builds arrays, so
# importing the package does not pull it in
if TYPE_CHECKING:
    import numpy as np

# Absolute resolution of every geometric comparison: closer points merge.
EPS = 1e-9

# Default violation tolerance of every report; equal to EPS, but its own
# value, so the resolution can change without moving a verdict.
REPORT_TOL = 1e-9


def as_float(name: str, value: object) -> float:
    """A document value read as a number; ``float`` would also read a
    string or a boolean, and neither is one."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class CdfValue(NamedTuple):
    """Cumulative mass split into a strictly-below part and an exactly-at part."""

    below: float
    at: float

    @property
    def midpoint(self) -> float:
        """Mass below plus half the mass at; the tie-splitting evaluation."""
        return self.below + 0.5 * self.at

    @property
    def inclusive(self) -> float:
        return self.below + self.at


def _clean_segments(
    breakpoints: Sequence[float], heights: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Canonical breakpoints and heights, and the mass below each kept
    breakpoint, checked, merged, trimmed and summed in one pass; the checks
    raise in the order of separate passes, each over the whole input."""
    bp = list(map(float, breakpoints))
    hs = list(map(float, heights))
    if not (all(map(math.isfinite, bp)) and all(map(math.isfinite, hs))):
        raise ValueError("breakpoints and heights must be finite")
    if not bp and not hs:
        return (), (), (0.0,)
    if len(bp) != len(hs) + 1:
        raise ValueError(
            f"expected one more breakpoint than heights, got {len(bp)} and {len(hs)}"
        )
    # a start within EPS below zero moves onto zero; a later breakpoint
    # below zero is within EPS of the start, so it merges away
    left = bp[0]
    cursor = 0.0 if left < 0.0 else left
    out_bp: list[float] = []
    out_hs: list[float] = []
    cum = [0.0]
    negative = False
    for right, h in zip(bp[1:], hs):
        if right < left - EPS:
            raise ValueError("breakpoints must be increasing")
        left = right
        if h < 0.0:
            negative = negative or h < -EPS
            h = 0.0
        # a sliver narrower than EPS is skipped and its ends merged
        if right - cursor < EPS:
            continue
        if out_hs and out_hs[-1] == h:
            # equal heights coalesce, the later kept for the sign of a zero
            out_bp[-1] = right
            out_hs[-1] = h
            cum[-1] = cum[-2] + h * (right - out_bp[-2])
        elif out_hs or h:
            # zero-height segments before the first positive one are trimmed
            if not out_bp:
                out_bp.append(cursor)
            out_bp.append(right)
            out_hs.append(h)
            cum.append(cum[-1] + h * (right - cursor))
        cursor = right
    if bp[0] < -EPS:
        raise ValueError("breakpoints must be non-negative")
    if negative:
        raise ValueError("heights must be non-negative")
    if out_hs and not out_hs[-1]:
        # coalescing leaves at most one zero-height segment at the end
        del out_bp[-1], out_hs[-1], cum[-1]
    return tuple(out_bp), tuple(out_hs), tuple(cum)


def _clean_atoms(
    atoms: Sequence[tuple[float, float]]
) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...], tuple[float, ...]]:
    """Canonical atoms, their locations, and the atom mass below each."""
    cleaned: list[tuple[float, float]] = []
    for loc, mass in atoms:
        loc = float(loc)
        mass = float(mass)
        if not (math.isfinite(loc) and math.isfinite(mass)):
            raise ValueError("atoms must be finite")
        if loc < -EPS:
            raise ValueError("atom locations must be non-negative")
        if mass < -EPS:
            raise ValueError("atom masses must be non-negative")
        if mass <= 0.0:
            continue
        cleaned.append((max(loc, 0.0), mass))
    cleaned.sort()
    merged: list[tuple[float, float]] = []
    for loc, mass in cleaned:
        if merged and loc - merged[-1][0] <= EPS:
            merged[-1] = (merged[-1][0], merged[-1][1] + mass)
        else:
            merged.append((loc, mass))
    locs = tuple(loc for loc, _ in merged)
    cum = tuple(itertools.accumulate((mass for _, mass in merged), initial=0.0))
    return tuple(merged), locs, cum


_NO_ATOMS = ((), (), (0.0,))  # what ``_clean_atoms`` makes of no atoms


@dataclass(frozen=True)
class PiecewiseDensity:
    """Non-negative step density with optional point masses.

    ``heights[j]`` applies on ``[breakpoints[j], breakpoints[j+1])``.  The
    empty tuple pair represents the zero density.
    """

    breakpoints: tuple[float, ...] = ()
    heights: tuple[float, ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()
    _seg_cum: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _atom_locs: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _atom_cum: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        bp, hs, seg_cum = _clean_segments(self.breakpoints, self.heights)
        atoms, locs, atom_cum = _clean_atoms(self.atoms) if self.atoms else _NO_ATOMS
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_seg_cum", seg_cum)
        object.__setattr__(self, "_atom_locs", locs)
        object.__setattr__(self, "_atom_cum", atom_cum)

    @classmethod
    def uniform(cls, lo: float, hi: float, mass: float = 1.0) -> "PiecewiseDensity":
        """Single flat block on ``[lo, hi]`` carrying ``mass``."""
        if not hi > lo:
            raise ValueError("uniform block needs hi > lo")
        return cls((float(lo), float(hi)), (float(mass) / (float(hi) - float(lo)),))

    @classmethod
    def point(cls, loc: float, mass: float = 1.0) -> "PiecewiseDensity":
        """Pure point mass at ``loc``."""
        return cls((), (), ((float(loc), float(mass)),))

    def segments(self) -> Iterator[tuple[float, float, float]]:
        """Yield ``(lo, hi, height)`` for each segment in order."""
        for j, h in enumerate(self.heights):
            yield self.breakpoints[j], self.breakpoints[j + 1], h

    @property
    def total_mass(self) -> float:
        return self._seg_cum[-1] + self._atom_cum[-1]

    @property
    def first_moment(self) -> float:
        moment = 0.0
        bp = self.breakpoints
        for lo, hi, h in zip(bp, bp[1:], self.heights):
            moment += h * (hi * hi - lo * lo) / 2.0
        for loc, mass in self.atoms:
            moment += mass * loc
        return moment

    def mean(self) -> float:
        mass = self.total_mass
        if mass <= EPS:
            raise ValueError("mean of a zero-mass density is undefined")
        return self.first_moment / mass

    def cdf(self, x: float) -> CdfValue:
        """Mass strictly below ``x`` and mass sitting exactly at ``x``.

        Atoms within ``EPS`` of ``x`` count as sitting at ``x``.
        """
        x = float(x)
        below = 0.0
        bp = self.breakpoints
        if bp:
            if x >= bp[-1]:
                below = self._seg_cum[-1]
            elif x > bp[0]:
                j = bisect.bisect_right(bp, x) - 1
                below = self._seg_cum[j] + self.heights[j] * (x - bp[j])
        if not self._atom_locs:
            return CdfValue(below, 0.0)
        lo = bisect.bisect_left(self._atom_locs, x - EPS)
        hi = bisect.bisect_right(self._atom_locs, x + EPS)
        below += self._atom_cum[lo]
        at = self._atom_cum[hi] - self._atom_cum[lo]
        return CdfValue(below, at)

    def height_at(self, x: float) -> float:
        """Density height at ``x``, zero outside the breakpoints.

        On a breakpoint the left segment's height is reported, so plateau
        heights are stable when queried at their right edge; the left end
        reads the first segment.
        """
        bp = self.breakpoints
        if not bp or x < bp[0] or x > bp[-1]:
            return 0.0
        return self.heights[max(bisect.bisect_left(bp, x) - 1, 0)]

    @property
    def support(self) -> tuple[float, float] | None:
        """Hull of the support, or None for the zero density."""
        # construction trims zero-height end segments and sorts the atoms
        bp, locs = self.breakpoints, self._atom_locs
        ends = (*bp[:1], *bp[-1:], *locs[:1], *locs[-1:])
        if not ends:
            return None
        return min(ends), max(ends)

    def heights_across(self, lo: float, hi: float) -> list[float]:
        """``refine``'s heights on ``[lo, hi]`` cut at the breakpoints inside it."""
        bp = self.breakpoints
        inner = bp[bisect.bisect_right(bp, lo) : bisect.bisect_left(bp, hi)]
        return refine((lo, *inner, hi), (self,))[1][0]

    def support_runs(self) -> list[tuple[float, float]]:
        """Maximal intervals of positive height, atoms as zero-width runs."""
        runs = [(lo, hi) for lo, hi, h in self.segments() if h > 0.0]
        runs += [(loc, loc) for loc, _ in self.atoms]
        runs.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in runs:
            if merged and lo <= merged[-1][1] + EPS:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    def scaled(self, factor: float) -> "PiecewiseDensity":
        if not math.isfinite(factor) or factor < 0.0:
            raise ValueError("scale factor must be non-negative and finite")
        return PiecewiseDensity(
            self.breakpoints,
            tuple([h * factor for h in self.heights]),
            tuple([(loc, mass * factor) for loc, mass in self.atoms]),
        )

    def normalized(self) -> "PiecewiseDensity":
        """This density at unit mass, built on the first call and kept."""
        return self._unit

    @functools.cached_property
    def _unit(self) -> "PiecewiseDensity":
        mass = self.total_mass
        if mass <= EPS:
            raise ValueError("cannot normalize a zero-mass density")
        return self.scaled(1.0 / mass)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values by inverse transform sampling."""
        import numpy as np

        mass = self.total_mass
        if mass <= EPS:
            raise ValueError("cannot sample from a zero-mass density")
        running = 0.0
        pieces: list[tuple[float, float, float]] = []
        for lo, hi, h in self.segments():
            if h > 0.0:
                running += h * (hi - lo)
                pieces.append((running, lo, h))
        for loc, m in self.atoms:
            running += m
            pieces.append((running, loc, 0.0))
        cum = np.array([p[0] for p in pieces])
        lo_arr = np.array([p[1] for p in pieces])
        height_arr = np.array([p[2] for p in pieces])
        u = rng.random(n) * mass
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(pieces) - 1)
        prev = np.where(idx > 0, cum[idx - 1], 0.0)
        h = height_arr[idx]
        offset = np.where(h > 0.0, (u - prev) / np.where(h > 0.0, h, 1.0), 0.0)
        return lo_arr[idx] + offset

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "heights": list(self.heights),
            "atoms": [[loc, mass] for loc, mass in self.atoms],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseDensity":
        try:
            bp = tuple(as_float("breakpoint", x) for x in data["breakpoints"])
            hs = tuple(as_float("height", h) for h in data["heights"])
            atoms = tuple(
                (as_float("atom location", a[0]), as_float("atom mass", a[1]))
                for a in data.get("atoms", ())
            )
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed density record: {exc}") from exc
        return cls(bp, hs, atoms)


def _cell_edges(points: Iterable[float]) -> list[float]:
    """The points sorted, each within ``EPS`` of the last kept dropped."""
    edges = sorted(points)
    kept = edges[:1]
    for x in edges[1:]:
        if x - kept[-1] >= EPS:
            kept.append(x)
    return kept


def _add_segments(
    row: list[float], edges: Sequence[float], bp: Sequence[float], hs: Sequence[float]
) -> None:
    """Add segment j's height to ``row`` on cells ``idx(bp[j]):idx(bp[j + 1])``,
    where ``idx(x) = max(bisect_right(edges, x) - 1, 0)`` indexes the kept
    edge x merged into, the last at or below it; only the segments that
    reach ``[edges[0], edges[-1]]`` are visited."""
    if not hs or not edges:
        return
    j = max(bisect.bisect_right(bp, edges[0]) - 1, 0)
    lo = max(bisect.bisect_right(edges, bp[j]) - 1, 0)
    # later breakpoints lie above edges[0] and rise: no clamp, no index below lo
    for x, h in zip(bp[j + 1 :], hs[j:]):
        hi = bisect.bisect_right(edges, x, lo) - 1
        row[lo:hi] = [v + h for v in row[lo:hi]]
        if x >= edges[-1]:
            break
        lo = hi


def refine(
    points: Iterable[float], densities: Sequence[PiecewiseDensity]
) -> tuple[list[float], list[list[float]]]:
    """Common refinement of step densities: cells cut at ``points``.

    Sorts the points and drops each within ``EPS`` of the last kept, so
    the cells are ``zip(edges, edges[1:])``, each at least ``EPS`` wide.
    Returns the edges and each density's heights on the cells, each
    breakpoint read as the kept edge at or below it: 0.0 on every cell
    outside its segments.
    """
    kept = _cell_edges(points)
    rows = [[0.0] * (len(kept) - 1) for _ in densities]
    for row, dens in zip(rows, densities):
        _add_segments(row, kept, dens.breakpoints, dens.heights)
    return kept, rows


def step_gap(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    """Largest pointwise difference between two densities.

    Compares segment heights on every cell ``refine`` cuts and atom masses
    at pooled locations; zero means the same measure on every merged cell.
    """
    _, (ha, hb) = refine((*a.breakpoints, *b.breakpoints), (a, b))
    gap = max(map(abs, map(operator.sub, ha, hb)), default=0.0)
    for loc in {loc for loc, _ in a.atoms + b.atoms}:
        gap = max(gap, abs(a.cdf(loc).at - b.cdf(loc).at))
    return gap


def _summed(
    parts: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> tuple[list[float], list[float]]:
    """Sum of step functions ``(breakpoints, heights)``: the cells cut at
    every part's breakpoints by ``refine``'s rule, each part's heights
    added on them in part order, so a cell reads ``0.0 + h1 + h2 ...``."""
    edges = _cell_edges([x for bp, _ in parts for x in bp])
    heights = [0.0] * (len(edges) - 1)
    for bp, hs in parts:
        _add_segments(heights, edges, bp, hs)
    return edges, heights


def mixture(parts: Sequence[tuple[float, PiecewiseDensity]]) -> PiecewiseDensity:
    """Weighted sum of densities.  Weights must be non-negative.

    The result's mass is the weighted sum of the parts' masses; the
    weighted segments are summed by ``_summed`` on the cells of every
    part's breakpoints, and atoms landing within ``EPS`` of each other are
    pooled by the constructor.
    """
    weighted: list[tuple[tuple[float, ...], list[float]]] = []
    atoms: list[tuple[float, float]] = []
    for weight, dens in parts:
        weight = float(weight)
        if not math.isfinite(weight) or weight < 0.0:
            raise ValueError("mixture weights must be non-negative and finite")
        if weight == 0.0:
            continue
        weighted.append((dens.breakpoints, [weight * h for h in dens.heights]))
        atoms.extend((loc, weight * mass) for loc, mass in dens.atoms)
    edges, heights = _summed(weighted)
    return PiecewiseDensity(tuple(edges), tuple(heights), tuple(atoms))


def stack(pieces: Iterable[tuple[float, float, float]]) -> PiecewiseDensity:
    """Sum of constant-height float pieces ``(lo, hi, height)``, built once.

    Each piece is checked by the rules of the one-segment density
    ``PiecewiseDensity((lo, hi), (height,))``, raising what it raises, and
    dropped where that density is zero: narrower than ``EPS`` once a start
    within ``EPS`` below zero moves onto zero, or not above zero in height.
    The kept pieces are summed in piece order by ``_summed``, the sum
    ``mixture`` makes.
    """
    kept = []
    for lo, hi, h in pieces:
        lo, hi, h = float(lo), float(hi), float(h)
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(h)):
            raise ValueError("breakpoints and heights must be finite")
        if hi < lo - EPS:
            raise ValueError("breakpoints must be increasing")
        if lo < -EPS:
            raise ValueError("breakpoints must be non-negative")
        if h < -EPS:
            raise ValueError("heights must be non-negative")
        lo = max(lo, 0.0)
        if hi - lo >= EPS and h > 0.0:
            kept.append(((lo, hi), (h,)))
    edges, heights = _summed(kept)
    return PiecewiseDensity(tuple(edges), tuple(heights))
