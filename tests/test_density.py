"""Step densities: construction canon, cumulative queries, mixtures."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poplotto import (
    EPS,
    DiscreteBudgetDistribution,
    PiecewiseDensity,
    cli,
    mixture,
    solve,
    step_gap,
    verify_subpop_consistency,
    win_prob,
)
from poplotto.density import refine, stack
from poplotto.structure import _patched
from tests import grid_oracles as oracle

DATA = Path(__file__).parent / "data"


def test_uniform_block_mass_and_mean():
    u = PiecewiseDensity.uniform(0.0, 2.0)
    assert u.total_mass == 1.0
    assert u.mean() == 1.0
    assert u.heights == (0.5,)
    scaled = PiecewiseDensity.uniform(1.0, 4.0, mass=6.0)
    assert scaled.total_mass == pytest.approx(6.0, abs=1e-12)
    assert scaled.mean() == pytest.approx(2.5, abs=1e-12)


def test_point_mass_queries():
    p = PiecewiseDensity.point(3.0, 0.25)
    assert p.total_mass == 0.25
    assert p.first_moment == 0.75
    at = p.cdf(3.0)
    assert at.below == 0.0
    assert at.at == 0.25
    assert at.midpoint == 0.125
    assert at.inclusive == 0.25
    assert p.cdf(2.0).inclusive == 0.0
    assert p.cdf(4.0).below == 0.25


def test_halfopen_segments_and_left_height_rule():
    d = PiecewiseDensity((0.0, 1.0, 2.0), (0.2, 0.8))
    # interior values read their own segment
    assert d.height_at(0.5) == 0.2
    assert d.height_at(1.5) == 0.8
    # a breakpoint reads the segment on its left; the left edge reads the first
    assert d.height_at(1.0) == 0.2
    assert d.height_at(2.0) == 0.8
    assert d.height_at(0.0) == 0.2
    assert d.height_at(-1.0) == 0.0
    assert d.height_at(3.0) == 0.0
    # reads are exact: a point within EPS of a breakpoint reads its own side
    e = PiecewiseDensity((0.0, 1.0, 2.0), (1.0, 2.0))
    assert e.height_at(1.0 + 0.5 * EPS) == 2.0
    assert e.height_at(-0.5 * EPS) == 0.0


def test_height_at_is_total_just_outside_the_ends():
    """Points outside the breakpoints read zero, however close they are.

    These two sit where ``x - bp[-1]`` rounds above ``EPS`` while
    ``x <= bp[-1] + EPS`` still holds, and likewise at the left end.
    """
    right = PiecewiseDensity.uniform(2e-9, 1.0 + 2e-9)
    x = right.breakpoints[-1] + EPS
    assert abs(x - right.breakpoints[-1]) > EPS and not x > right.breakpoints[-1] + EPS
    assert right.height_at(x) == 0.0
    left = PiecewiseDensity((0.5, 1.0, 2.0), (2.0, 1.0))
    x = 0.499999999
    assert abs(left.breakpoints[0] - x) > EPS and not x < left.breakpoints[0] - EPS
    assert left.height_at(x) == 0.0


def test_construction_validation():
    with pytest.raises(ValueError):
        PiecewiseDensity((0.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        PiecewiseDensity((1.0, 0.0), (0.5,))
    with pytest.raises(ValueError):
        PiecewiseDensity((0.0, 1.0), (-0.5,))
    with pytest.raises(ValueError):
        PiecewiseDensity((0.0, math.inf), (0.5,))
    with pytest.raises(ValueError):
        PiecewiseDensity((), (), ((-1.0, 0.5),))
    with pytest.raises(ValueError):
        PiecewiseDensity((), (), ((1.0, -0.5),))
    with pytest.raises(ValueError):
        PiecewiseDensity.uniform(2.0, 2.0)


def test_canonicalization():
    # slivers between near-equal breakpoints vanish
    d = PiecewiseDensity((0.0, 1.0, 1.0 + 1e-12, 2.0), (0.5, 9.0, 0.5))
    assert d.breakpoints == (0.0, 2.0)
    assert d.heights == (0.5,)
    # equal adjacent heights coalesce
    d = PiecewiseDensity((0.0, 1.0, 2.0), (0.3, 0.3))
    assert d.breakpoints == (0.0, 2.0)
    # zero-height edges trim away
    d = PiecewiseDensity((0.0, 1.0, 2.0, 3.0), (0.0, 0.7, 0.0))
    assert d.breakpoints == (1.0, 2.0)
    assert d.heights == (0.7,)
    # coincident atoms pool at the leftmost location, zero-mass atoms drop
    d = PiecewiseDensity((), (), ((1.0, 0.2), (1.0 + 1e-12, 0.3), (2.0, 0.0)))
    assert d.atoms == ((1.0, 0.5),)


def test_locations_just_below_zero_move_onto_zero():
    """A segment start within EPS below zero moves onto zero as an atom
    there does, and drops its sliver below zero; one further below is
    refused."""
    d = PiecewiseDensity((-5e-10, 2.0), (0.5,))
    assert d.breakpoints == (0.0, 2.0)
    assert d.total_mass == 1.0
    assert PiecewiseDensity((), (), ((-5e-10, 1.0),)).atoms == ((0.0, 1.0),)
    with pytest.raises(ValueError, match="non-negative"):
        PiecewiseDensity((-2e-9, 2.0), (0.5,))


def test_zero_density():
    z = PiecewiseDensity()
    assert z.total_mass == 0.0
    assert z.support is None
    assert z.support_runs() == []
    with pytest.raises(ValueError):
        z.mean()
    with pytest.raises(ValueError):
        z.normalized()
    with pytest.raises(ValueError):
        z.sample(1, np.random.default_rng(0))


def test_cdf_splits_mass_at_a_point():
    d = PiecewiseDensity((0.0, 2.0), (0.25,), ((1.0, 0.5),))
    assert d.total_mass == pytest.approx(1.0, abs=1e-12)
    mid = d.cdf(1.0)
    assert mid.below == pytest.approx(0.25, abs=1e-12)
    assert mid.at == 0.5
    assert mid.midpoint == pytest.approx(0.5, abs=1e-12)
    assert d.cdf(2.0).inclusive == pytest.approx(1.0, abs=1e-12)
    assert d.cdf(5.0).below == pytest.approx(1.0, abs=1e-12)
    assert d.cdf(-1.0).inclusive == 0.0


def test_support_and_runs():
    d = PiecewiseDensity(
        (0.0, 1.0, 2.0, 3.0), (0.5, 0.0, 0.5), ((5.0, 0.1),)
    )
    assert d.support == (0.0, 5.0)
    assert d.support_runs() == [(0.0, 1.0), (2.0, 3.0), (5.0, 5.0)]
    # adjacent runs merge across a shared edge
    c = PiecewiseDensity((0.0, 1.0, 2.0), (0.5, 0.7))
    assert c.support_runs() == [(0.0, 2.0)]


def test_scaled_and_normalized():
    d = PiecewiseDensity((0.0, 4.0), (0.125,), ((1.0, 0.5),))
    doubled = d.scaled(2.0)
    assert doubled.total_mass == pytest.approx(2.0, abs=1e-12)
    assert doubled.mean() == pytest.approx(d.mean(), abs=1e-12)
    unit = d.normalized()
    assert unit.total_mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        d.scaled(-1.0)


def test_each_strategy_is_scaled_to_unit_mass_once(monkeypatch, capsys):
    """``analyze`` reads every solved strategy at unit mass in the outcome
    matrix and in two certificates, and scales each one once."""
    scalings = []
    original = PiecewiseDensity.scaled

    def counted(self, factor):
        scalings.append(factor)
        return original(self, factor)

    monkeypatch.setattr(PiecewiseDensity, "scaled", counted)
    assert cli.main(["analyze", str(DATA / "flooding.json")]) == 0
    capsys.readouterr()
    assert len(scalings) == 100
    d = PiecewiseDensity((0.0, 4.0), (0.125,), ((1.0, 0.5),))
    assert d.normalized() is d.normalized()
    assert len(scalings) == 101


def test_densities_are_read_only_on_their_support(monkeypatch):
    """``refine``, ``stack``, ``_patched`` and ``win_prob``, and the prefix
    certificates and ``mixture`` through them, place segments by edge index
    and make no ``height_at`` call, and each ``refine`` row is zero outside
    the cells between the density's first and last breakpoints, each read
    as the last kept edge at or below it."""
    dist = DiscreteBudgetDistribution.from_dict(
        json.loads((DATA / "staircase.json").read_text())
    )
    sol = solve(dist)
    strategies = [g.strategy for g in sol.groups]
    pieces = [seg for s in strategies for seg in s.segments()]
    lo, hi = strategies[0].support

    def refused(self, x):
        raise AssertionError(f"height_at({x!r}) called")

    with monkeypatch.context() as patch:
        patch.setattr(PiecewiseDensity, "height_at", refused)
        edges, rows = refine([x for s in strategies for x in s.breakpoints], strategies)
        stack(pieces)
        _patched(strategies[0], [(lo, 0.5 * (lo + hi))], [0.1])
        for s in strategies:
            win_prob(s.normalized(), sol.aggregate)
        verify_subpop_consistency(dist, sol)
        mixture([(1.0, s) for s in strategies])
    for dens, row in zip(strategies, rows):
        first, last = (
            max(k for k, edge in enumerate(edges) if edge <= x)
            for x in (dens.breakpoints[0], dens.breakpoints[-1])
        )
        assert any(row[first:last])
        assert not any(row[:first]) and not any(row[last:])


def test_mixture_is_linear_in_mass_and_moment():
    a = PiecewiseDensity.uniform(0.0, 2.0)
    b = PiecewiseDensity.uniform(1.0, 4.0)
    c = PiecewiseDensity.point(3.0)
    mix = mixture([(0.5, a), (0.3, b), (0.2, c)])
    assert mix.total_mass == pytest.approx(1.0, abs=1e-12)
    want = 0.5 * a.first_moment + 0.3 * b.first_moment + 0.2 * c.first_moment
    assert mix.first_moment == pytest.approx(want, abs=1e-12)
    assert mix.height_at(0.5) == pytest.approx(0.25, abs=1e-12)
    assert mix.height_at(1.5) == pytest.approx(0.25 + 0.1, abs=1e-12)
    with pytest.raises(ValueError):
        mixture([(-0.1, a)])


def test_mixture_drops_zero_weights():
    a = PiecewiseDensity.uniform(0.0, 2.0)
    b = PiecewiseDensity.uniform(10.0, 12.0)
    mix = mixture([(1.0, a), (0.0, b)])
    assert mix == a


def test_step_gap_detects_equality_and_difference():
    a = PiecewiseDensity((0.0, 1.0, 2.0), (0.5, 0.5))
    b = PiecewiseDensity((0.0, 2.0), (0.5,))
    assert step_gap(a, b) == 0.0
    c = PiecewiseDensity((0.0, 2.0), (0.6,))
    assert step_gap(a, c) == pytest.approx(0.1, abs=1e-12)
    with_atom = PiecewiseDensity((0.0, 2.0), (0.5,), ((1.0, 0.2),))
    assert step_gap(a, with_atom) == pytest.approx(0.2, abs=1e-12)


def test_heights_across_cuts_at_inner_breakpoints():
    d = PiecewiseDensity((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert d.heights_across(0.5, 2.5) == [1.0, 2.0, 3.0]
    assert d.heights_across(1.0, 2.0) == [2.0]
    # a breakpoint within EPS of an end merges into it
    assert d.heights_across(0.5, 1.0 + 0.5 * EPS) == [1.0]
    # past the last breakpoint the density reads zero
    assert d.heights_across(2.5, 4.0) == [3.0, 0.0]


def test_dict_roundtrip_is_exact():
    d = PiecewiseDensity((0.0, 1.0 / 3.0, 2.0), (0.3, 0.7), ((1.5, 0.25),))
    assert PiecewiseDensity.from_dict(d.to_dict()) == d
    with pytest.raises(ValueError):
        PiecewiseDensity.from_dict({"heights": [1.0]})
    # numpy floats are numbers; strings and booleans are not, though
    # ``float`` reads both
    record = {"breakpoints": list(np.array([0.0, 2.0])), "heights": [np.float32(0.5)]}
    assert PiecewiseDensity.from_dict(record) == PiecewiseDensity.uniform(0.0, 2.0)
    for record in (
        {"breakpoints": "02", "heights": "1"},
        {"breakpoints": [0.0, True], "heights": [1.0]},
        {"breakpoints": [0.0, 1.0], "heights": [1.0], "atoms": [["0.5", 1.0]]},
    ):
        with pytest.raises(ValueError, match="must be a number"):
            PiecewiseDensity.from_dict(record)


def test_sample_matches_distribution():
    d = PiecewiseDensity((0.0, 2.0), (0.375,), ((3.0, 0.25),))
    rng = np.random.default_rng(7)
    draws = d.normalized().sample(200_000, rng)
    assert draws.min() >= 0.0
    assert draws.max() <= 3.0
    # exact mean 0.75*1 + 0.25*3 = 1.5, sd of the sample mean ~ 0.0024
    assert abs(draws.mean() - 1.5) < 3.0 * 1.1 / math.sqrt(200_000)
    atom_share = np.mean(draws == 3.0)
    assert abs(atom_share - 0.25) < 3.0 * 0.45 / math.sqrt(200_000)


@st.composite
def step_densities(draw):
    start = draw(st.floats(0.0, 5.0))
    widths = draw(
        st.lists(st.floats(0.1, 4.0), min_size=1, max_size=6)
    )
    heights = draw(
        st.lists(
            st.floats(0.0, 5.0), min_size=len(widths), max_size=len(widths)
        )
    )
    bp = [start]
    for w in widths:
        bp.append(bp[-1] + w)
    return PiecewiseDensity(tuple(bp), tuple(heights))


@given(step_densities())
@settings(deadline=None, max_examples=80)
def test_mass_equals_segment_area(d):
    area = sum(h * (hi - lo) for lo, hi, h in d.segments())
    assert d.total_mass == pytest.approx(area, abs=1e-9)
    if d.breakpoints:
        assert d.cdf(d.breakpoints[-1]).inclusive == pytest.approx(
            d.total_mass, abs=1e-9
        )


@given(step_densities(), st.lists(st.floats(-1.0, 25.0), min_size=2, max_size=8))
@settings(deadline=None, max_examples=80)
def test_cdf_monotone(d, xs):
    xs = sorted(xs)
    values = [d.cdf(x).inclusive for x in xs]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


@given(step_densities())
@settings(deadline=None, max_examples=80)
def test_canonical_form_is_idempotent(d):
    again = PiecewiseDensity(d.breakpoints, d.heights, d.atoms)
    assert again == d
    assert PiecewiseDensity.from_dict(d.to_dict()) == d


@st.composite
def gapped_densities(draw):
    """Positive blocks apart by zero-height gaps of none, EPS, 1.5 EPS or
    2 EPS, the widths where two runs start or stop merging, and atoms at
    and within EPS of the block ends."""
    bp = [draw(st.floats(0.0, 2.0))]
    heights: list[float] = []
    for _ in range(draw(st.integers(1, 5))):
        gap = draw(st.sampled_from([0.0, EPS, 1.5 * EPS, 2.0 * EPS]))
        if gap:
            bp.append(bp[-1] + gap)
            heights.append(0.0)
        bp.append(bp[-1] + draw(st.floats(0.1, 2.0)))
        heights.append(draw(st.floats(0.1, 3.0)))
    offsets = st.sampled_from([-EPS, -0.5 * EPS, 0.0, 0.5 * EPS, EPS])
    atoms = draw(
        st.lists(
            st.tuples(st.sampled_from(bp), offsets, st.floats(0.1, 1.0)),
            max_size=4,
        )
    )
    atoms = [(end + offset, mass) for end, offset, mass in atoms]
    return PiecewiseDensity(tuple(bp), tuple(heights), tuple(atoms))


@given(gapped_densities())
@settings(deadline=None, max_examples=200)
def test_support_runs_merge_once_as_the_two_pass_loop(d):
    assert d.support_runs() == oracle.support_runs(d)
