"""The six grid-walking functions against their cell-by-cell reference loops.

Every function that works on the common refinement of step densities now
calls ``density.refine``, which reads each breakpoint as the kept edge at
or below it.  Each is compared with a loop of its own in
``tests/grid_oracles.py`` that snaps breakpoints by a linear scan, and
``height_at`` with a scan over its segments, by exact equality of
serialised output; ``step_gap`` is also held at or above the loop that
skipped cells narrower than EPS instead of merging their points.
Breakpoints are drawn at {0, 0.3, 0.5, 0.6, 0.9, 1, 1.2, 2} x EPS from one
another, next to ordinary gaps, so that merging chains of close points,
cells between EPS and 2·EPS wide and breakpoints merged from either half
of a cell all occur.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poplotto import density
from poplotto.density import EPS, PiecewiseDensity, mixture, refine, step_gap
from poplotto.equilibrium import _flat_violation
from poplotto.payoff import win_prob
from poplotto.structure import _patched
from tests import grid_oracles as oracle

OFFSETS = tuple(k * EPS for k in (0.0, 0.3, 0.5, 0.6, 0.9, 1.0, 1.2, 2.0))
GAPS = st.sampled_from(OFFSETS) | st.sampled_from((0.25, 0.5, 1.0))
HEIGHTS = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)) | st.floats(0.0, 3.0)


def same(a, b) -> bool:
    return json.dumps(a) == json.dumps(b)


@st.composite
def lattices(draw) -> list[float]:
    """Sorted candidate points: a start plus cumulative gaps, many of them tiny."""
    start = draw(st.sampled_from((0.0, 0.5 * EPS, 1.0)))
    points = [start]
    for gap in draw(st.lists(GAPS, min_size=3, max_size=12)):
        points.append(points[-1] + gap)
    return points


@st.composite
def densities(draw, lattice: list[float], atoms: bool = True) -> PiecewiseDensity:
    picked = sorted(
        set(draw(st.lists(st.sampled_from(lattice), min_size=2, max_size=8)))
    )
    if len(picked) < 2:
        picked = [lattice[0], lattice[-1] + 1.0]
    heights = draw(st.lists(HEIGHTS, min_size=len(picked) - 1, max_size=len(picked) - 1))
    point_masses = []
    if atoms:
        point_masses = draw(
            st.lists(st.tuples(st.sampled_from(lattice), HEIGHTS), max_size=2)
        )
    return PiecewiseDensity(tuple(picked), tuple(heights), tuple(point_masses))


@st.composite
def density_pairs(draw, atoms: bool = True):
    lattice = draw(lattices())
    return draw(densities(lattice, atoms)), draw(densities(lattice, atoms)), lattice


@given(density_pairs())
@settings(deadline=None, max_examples=200)
def test_step_gap_matches_reference(case):
    a, b, _ = case
    assert same(step_gap(a, b), oracle.step_gap(a, b))


@given(density_pairs())
@settings(deadline=None, max_examples=200)
def test_step_gap_never_below_the_skip_cell_reference(case):
    # every cell the old loop read keeps its reading under the merge, so
    # the remix certificate only gets stricter
    a, b, _ = case
    assert step_gap(a, b) >= oracle.skip_cell_step_gap(a, b)


def test_step_gap_reads_a_segment_narrower_than_two_eps():
    # b's breakpoint at 1 + 0.75 EPS merges into 1, so the cell is a's own
    # 1.5 EPS segment, where a carries 3 and b, its breakpoint read as the
    # kept edge 1, carries its right height 1 + 1e-7; the skip-cell loop
    # split it into two sliver cells and read neither
    a = PiecewiseDensity((0.0, 1.0, 1.0 + 1.5 * EPS, 2.0), (1.0, 3.0, 1.0))
    b = PiecewiseDensity((0.0, 1.0 + 0.75 * EPS, 2.0), (1.0, 1.0 + 1e-7))
    assert step_gap(a, b) == 3.0 - (1.0 + 1e-7)
    assert oracle.skip_cell_step_gap(a, b) < 1e-6


@st.composite
def mixture_parts(draw):
    lattice = draw(lattices())
    weights = st.sampled_from((0.0, 0.5, 1.0, 3.0)) | st.floats(0.0, 4.0)
    return draw(
        st.lists(st.tuples(weights, densities(lattice)), min_size=1, max_size=5)
    )


@given(mixture_parts())
@settings(deadline=None, max_examples=200)
def test_mixture_matches_reference(parts):
    assert same(mixture(parts).to_dict(), oracle.mixture(parts).to_dict())


@pytest.mark.parametrize(
    "parts",
    [
        # overlapping parts, one of weight zero, sum cell by cell in order
        [
            (0.1, PiecewiseDensity((0.0, 2.0), (1.0,), ((1.0, 0.5),))),
            (0.0, PiecewiseDensity((0.5, 3.0), (2.0,))),
            (0.2, PiecewiseDensity((1.0, 1.0 + 0.5 * EPS, 3.0), (1.0, 3.0))),
            (0.3, PiecewiseDensity((1.0, 2.0), (1.0,))),
        ],
        # a weight times a height that underflows to 0.0 keeps its edges,
        # so the edge within EPS above 1.0 merges into it
        [
            (1e-320, PiecewiseDensity((1.0, 2.0), (1e-10,))),
            (1.0, PiecewiseDensity((1.0 + 0.5 * EPS, 3.0), (0.25,))),
        ],
        [(2.0, PiecewiseDensity.point(1.0))],
        [],
    ],
    ids=["overlap", "underflow", "atoms only", "empty"],
)
def test_mixture_sums_without_refine(parts):
    """``mixture`` sums its weighted parts on one row, with no ``refine``
    row per part."""

    def forbidden(*args):
        raise AssertionError("mixture called refine")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "refine", forbidden)
        mixed = mixture(parts)
    assert same(mixed.to_dict(), oracle.mixture(parts).to_dict())


@given(density_pairs())
@settings(deadline=None, max_examples=200)
def test_win_prob_matches_reference(case):
    f, h, _ = case
    if f.total_mass <= EPS or h.total_mass <= EPS:
        return
    f, h = f.normalized(), h.normalized()
    assert same(win_prob(f, h), oracle.win_prob(f, h))


@st.composite
def hulls(draw, lattice: list[float]):
    lo, hi = sorted(draw(st.lists(st.sampled_from(lattice), min_size=2, max_size=2)))
    return lo, hi


@given(density_pairs(), st.data())
@settings(deadline=None, max_examples=200)
def test_flat_violation_matches_reference(case, data):
    aggregate, strategy, lattice = case
    hull = data.draw(st.none() | hulls(lattice) | st.just(strategy.support))
    assert same(
        _flat_violation(aggregate, hull), oracle.flat_violation(aggregate, hull)
    )


@given(density_pairs(atoms=False), st.data())
@settings(deadline=None, max_examples=200)
def test_min_height_matches_reference(case, data):
    dens, _, lattice = case
    lo, hi = data.draw(hulls(lattice))
    low = min(dens.heights_across(lo, hi), default=0.0)
    assert same(low, oracle.min_height(dens, lo, hi))


@given(density_pairs(), st.data())
@settings(deadline=None, max_examples=200)
def test_patched_matches_reference(case, data):
    dens, _, lattice = case
    cells = data.draw(st.lists(hulls(lattice), min_size=1, max_size=3))
    deltas = data.draw(
        st.lists(st.floats(-2.0, 2.0), min_size=len(cells), max_size=len(cells))
    )
    assert same(
        _patched(dens, cells, deltas).to_dict(),
        oracle.patched(dens, cells, deltas).to_dict(),
    )


@given(density_pairs(atoms=False), st.data())
@settings(deadline=None, max_examples=200)
def test_height_at_matches_reference(case, data):
    dens, _, lattice = case
    base = data.draw(st.sampled_from(lattice))
    x = base + data.draw(st.sampled_from((0.0, *OFFSETS, *(-d for d in OFFSETS))))
    assert same(dens.height_at(x), oracle.height_at(dens, x))


@given(density_pairs())
@settings(deadline=None, max_examples=200)
def test_support_matches_reference(case):
    dens, _, _ = case
    assert same(dens.support, oracle.support(dens))


def test_win_prob_reads_no_height_in_the_sliver_cell_between_strategies():
    # the cell (1, 1 + 1.2 EPS) lies past f's last breakpoint and before
    # h's first, both kept edges, so neither reads a height there
    f = PiecewiseDensity.uniform(0.0, 1.0)
    h = PiecewiseDensity.uniform(1.0 + 1.2 * EPS, 2.0)
    assert win_prob(f, h) == 0.0
    assert win_prob(h, f) == 1.0
    assert same(win_prob(f, h), oracle.win_prob(f, h))


def test_refine_merges_and_drops_slivers():
    dens = PiecewiseDensity((0.0, 1.0, 2.0), (1.0, 2.0))
    points = (0.0, 0.6 * EPS, 1.2 * EPS, 1.0, 2.0)
    edges, (heights,) = refine(points, (dens,))
    # 0.6 EPS merges into 0, then 1.2 EPS is EPS clear of 0 and stays
    assert edges == [0.0, 1.2 * EPS, 1.0, 2.0]
    assert heights == [1.0, 1.0, 2.0]


def test_refine_reads_zero_outside_each_density():
    low = PiecewiseDensity.uniform(0.0, 1.0)
    high = PiecewiseDensity.uniform(2.0, 3.0)
    edges, heights = refine((0.0, 1.0, 2.0, 3.0), (low, high, PiecewiseDensity()))
    assert edges == [0.0, 1.0, 2.0, 3.0]
    assert heights == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


def _window_cases():
    """Pairs whose union grid merges or rounds at an end of the window of
    cells that ``win_prob`` refines for its first density."""
    unit = 1.5e7
    ulp = math.ulp(unit)
    return {
        # 1 is kept and 1 + 1.2 EPS is kept; between them h's atom, f's
        # atom and f's first breakpoint merge into 1, so a window starting
        # at any of them would keep it and cut the cells elsewhere; f's
        # first breakpoint reads as 1, so f has its height from 1 on
        "chain across the first breakpoint": (
            PiecewiseDensity((1.0 + 0.9 * EPS, 2.0), (1.0,), ((1.0 + 0.6 * EPS, 0.5),)),
            PiecewiseDensity(
                (0.0, 1.0, 1.0 + 1.2 * EPS, 3.0),
                (0.25, 1.0, 0.3),
                ((1.0 + 0.3 * EPS, 0.15),),
            ),
        ),
        # the chain 1, f's last breakpoint, h's atom, 1 + 1.05 EPS, f's
        # atom, 1 + 2.1 EPS runs past 1.7 EPS: f's last breakpoint merges
        # into 1, so f reads its height up to 1 and none on the cell to
        # the kept 1 + 1.05 EPS
        "chain across the last breakpoint plus EPS": (
            PiecewiseDensity((0.5, 1.0 + 0.7 * EPS), (1.0,), ((1.0 + 1.6 * EPS, 0.5),)),
            PiecewiseDensity(
                (0.0, 1.0, 1.0 + 1.05 * EPS, 1.0 + 2.1 * EPS, 3.0),
                (0.25, 1.0, 0.9, 0.3),
                ((1.0 + 0.9 * EPS, 0.15),),
            ),
        ),
        # f's hull is the grid's top, which merges two points down the
        # chain 1, 1 + 0.6 EPS, 1 + 1.2 EPS, 1 + 1.8 EPS
        "hull reaching the merged top": (
            PiecewiseDensity((0.5, 1.0 + 1.8 * EPS), (1.0,), ((1.0 + 1.2 * EPS, 0.5),)),
            PiecewiseDensity(
                (0.0, 1.0, 1.0 + 1.2 * EPS), (0.5, 1.0), ((1.0 + 0.6 * EPS, 0.5),)
            ),
        ),
        # f's last atom at 1 lies past its segments and merges into h's
        # kept 1 - 0.6 EPS; h's atom at 1 + 1.3 EPS, the top, merges into
        # h's kept 1 + 0.5 EPS.  f's inclusive mass at that last edge and
        # at the top differ by one rounding, so the tail term reads 1.1e-16
        "atom past the segments": (
            PiecewiseDensity((0.0, 0.5), (0.6,), ((0.3, 0.35), (1.0, 0.35))),
            PiecewiseDensity(
                (0.0, 1.0 - 0.6 * EPS, 1.0 + 0.5 * EPS),
                (0.5, 1.0),
                ((1.0 + 1.3 * EPS, 0.5),),
            ),
        ),
        # float spacing 1.9e-9 exceeds EPS at this unit, so every point is
        # kept and every cell is one float spacing wide, so a cell's
        # midpoint rounds onto one of its edges
        "float spacing past EPS": (
            PiecewiseDensity.uniform(unit + 2 * ulp, unit + 4 * ulp),
            PiecewiseDensity.uniform(unit + ulp, unit + 3 * ulp),
        ),
    }


@pytest.mark.parametrize("name", list(_window_cases()))
def test_win_prob_window_matches_reference(name):
    f, h = (d.normalized() for d in _window_cases()[name])
    for a, b in ((f, h), (h, f)):
        assert same(win_prob(a, b), oracle.win_prob(a, b))


def test_win_prob_past_float_spacing_sums_to_one():
    # f = U(x + 2u, x + 4u) against h = U(x + u, x + 3u): f wins 7/8, h 1/8
    for x in (1.5e7, 1e9, 1e12):
        u = math.ulp(x)
        f = PiecewiseDensity.uniform(x + 2 * u, x + 4 * u).normalized()
        h = PiecewiseDensity.uniform(x + u, x + 3 * u).normalized()
        assert (win_prob(f, h), win_prob(h, f)) == (0.875, 0.125)
