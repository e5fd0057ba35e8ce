"""Pairwise contests: closed-form checks, symmetry, and dyads."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poplotto import Dyad, PiecewiseDensity, dyad_payoff, win_prob


def lopsided_pair(a: float, b: float) -> tuple[PiecewiseDensity, PiecewiseDensity]:
    """Unit-mass strategies of a rich player (mean a) and a poor one (mean b).

    The rich side spreads uniformly on [0, 2a]; the poor side concedes a
    fraction of contests outright with an atom at zero and rides the same
    block with the rest.  Closed form: the rich side wins 1 - b/(2a).
    """
    rich = PiecewiseDensity.uniform(0.0, 2.0 * a)
    poor = PiecewiseDensity(
        (0.0, 2.0 * a),
        ((b / a) / (2.0 * a),),
        ((0.0, 1.0 - b / a),),
    )
    return rich, poor


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (2.0, 1.0), (3.0, 0.3)])
def test_lopsided_closed_form(a, b):
    rich, poor = lopsided_pair(a, b)
    assert poor.total_mass == pytest.approx(1.0, abs=1e-12)
    assert poor.mean() == pytest.approx(b, abs=1e-12)
    assert win_prob(rich, poor) == pytest.approx(1.0 - b / (2.0 * a), abs=1e-12)
    assert win_prob(poor, rich) == pytest.approx(b / (2.0 * a), abs=1e-12)


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (2.0, 1.0)])
def test_lopsided_monte_carlo(a, b):
    rich, poor = lopsided_pair(a, b)
    rng = np.random.default_rng(11)
    n = 1_000_000
    x = rich.sample(n, rng)
    y = poor.sample(n, rng)
    observed = np.mean((x > y) + 0.5 * (x == y))
    expected = 1.0 - b / (2.0 * a)
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(observed - expected) < 3.0 * sigma


def test_self_contest_is_a_coin_flip():
    u = PiecewiseDensity.uniform(0.0, 2.0)
    assert win_prob(u, u) == pytest.approx(0.5, abs=1e-12)
    spiky = PiecewiseDensity((0.0, 1.0), (0.5,), ((2.0, 0.5),))
    assert win_prob(spiky, spiky) == pytest.approx(0.5, abs=1e-12)


def test_disjoint_supports_are_certain():
    low = PiecewiseDensity.uniform(0.0, 1.0)
    high = PiecewiseDensity.uniform(3.0, 4.0)
    assert win_prob(high, low) == 1.0
    assert win_prob(low, high) == 0.0


def test_atom_ties_split():
    a = PiecewiseDensity.point(1.0)
    b = PiecewiseDensity.point(1.0)
    assert win_prob(a, b) == 0.5
    assert win_prob(PiecewiseDensity.point(2.0), a) == 1.0


def test_touching_supports_are_certain():
    # sharing only an endpoint leaves a zero-probability tie
    left = PiecewiseDensity.uniform(0.0, 2.0)
    right = PiecewiseDensity.uniform(2.0, 3.0)
    assert win_prob(right, left) == pytest.approx(1.0, abs=1e-12)


def test_win_prob_requires_unit_mass():
    half = PiecewiseDensity.uniform(0.0, 1.0, mass=0.5)
    unit = PiecewiseDensity.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        win_prob(half, unit)
    with pytest.raises(ValueError):
        win_prob(unit, half)


def test_population_payoff_is_win_prob(pair_sol):
    """Against an infinite population the payoff is a contest with the aggregate."""
    f = PiecewiseDensity.uniform(0.0, 2.0)
    by_group = sum(
        g.mass * win_prob(f, g.strategy.normalized()) for g in pair_sol.groups
    )
    assert win_prob(f, pair_sol.aggregate) == pytest.approx(by_group, abs=1e-12)


def test_dyad_validation_and_weight():
    with pytest.raises(ValueError):
        Dyad(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        Dyad(-0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        Dyad(0.0, 1.0, 1.0)
    d = Dyad(0.0, 2.0, 1.5)
    assert d.low_weight == pytest.approx(0.25, abs=1e-15)
    assert d.as_density().total_mass == pytest.approx(1.0, abs=1e-12)
    assert d.as_density().mean() == pytest.approx(1.5, abs=1e-12)
    record = d.to_dict()
    assert record["low_weight"] == d.low_weight


def test_dyad_payoff_matches_full_contest():
    agg = PiecewiseDensity((0.0, 1.0, 3.0), (0.6, 0.2))
    d = Dyad(0.5, 2.5, 1.0)
    direct = dyad_payoff(d, agg)
    via_density = win_prob(d.as_density(), agg)
    assert direct == pytest.approx(via_density, abs=1e-12)


@st.composite
def unit_densities(draw):
    start = draw(st.floats(0.0, 3.0))
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5))
    heights = draw(
        st.lists(
            st.floats(0.01, 4.0), min_size=len(widths), max_size=len(widths)
        )
    )
    bp = [start]
    for w in widths:
        bp.append(bp[-1] + w)
    atom_mass = draw(st.floats(0.0, 1.0))
    atom_loc = draw(st.floats(0.0, 12.0))
    atoms = ((atom_loc, atom_mass),) if atom_mass > 0.0 else ()
    return PiecewiseDensity(tuple(bp), tuple(heights), atoms).normalized()


@given(unit_densities(), unit_densities())
@example(
    # h is f shifted by EPS, so the cell (1, 1 + 1e-9) lies past f's end,
    # where f reads no height
    PiecewiseDensity((0.0, 1.0), (1.0,)),
    PiecewiseDensity((1e-9, 1.000000001), (1.0,)),
)
@example(
    # 0.500000001 - 0.5 rounds below EPS, so refine merges h's top away
    # and h's mass past 0.5 counts in the tail term
    PiecewiseDensity((0.0, 0.5), (2.0,)),
    PiecewiseDensity((1e-9, 0.500000001), (2.0000000000000004,)),
)
@settings(deadline=None, max_examples=60)
def test_antisymmetry(f, h):
    p = win_prob(f, h)
    q = win_prob(h, f)
    assert 0.0 <= p <= 1.0 + 1e-12
    assert p + q == pytest.approx(1.0, abs=1e-9)


@given(unit_densities())
@example(
    # the atom sits within EPS of the top, which refine merges away
    PiecewiseDensity((1e-9, 0.500000001), (1.0,), ((0.5, 0.5),)),
)
@settings(deadline=None, max_examples=60)
def test_everyone_draws_against_themselves(f):
    assert win_prob(f, f) == pytest.approx(0.5, abs=1e-9)


@st.composite
def ulp_spaced_densities(draw, x: float):
    """A unit-mass block or step density with breakpoints at small integer
    multiples of ``math.ulp(x)`` above ``x``."""
    u = math.ulp(x)
    steps = sorted(set(draw(st.lists(st.integers(0, 12), min_size=2, max_size=6))))
    if len(steps) < 2:
        steps = [steps[0], steps[0] + 1]
    heights = draw(
        st.lists(
            st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
            min_size=len(steps) - 1,
            max_size=len(steps) - 1,
        ).filter(any)
    )
    dens = PiecewiseDensity(tuple(x + k * u for k in steps), tuple(heights))
    return dens.scaled(1.0 / dens.total_mass)


@given(st.floats(2.0**24, 1e12), st.data())
@settings(deadline=None, max_examples=100)
def test_antisymmetry_where_float_spacing_passes_eps(x, data):
    # from 2**24 on, adjacent floats lie more than EPS apart, so refine
    # merges no two breakpoints and every cell is read exactly; the
    # masses are 1 only to rounding, hence the slack on [0, 1]
    f = data.draw(ulp_spaced_densities(x))
    h = data.draw(ulp_spaced_densities(x))
    p = win_prob(f, h)
    q = win_prob(h, f)
    for value in (p, q):
        assert -1e-12 <= value <= 1.0 + 1e-12
    assert p + q == pytest.approx(1.0, abs=1e-12)
