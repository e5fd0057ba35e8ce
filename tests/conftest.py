"""Shared fixtures: small populations whose equilibria are known exactly."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import reject
from hypothesis import strategies as st

from poplotto import DiscreteBudgetDistribution, SolverError, solve
from poplotto.structure import DICE_TRIPLE, dice_to_population


def budget_rows(*rows: tuple[float, float]) -> DiscreteBudgetDistribution:
    return DiscreteBudgetDistribution.from_dict(
        {"subpopulations": [{"budget": b, "mass": m} for b, m in rows]}
    )


def criterion3_rows(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """The generator of acceptance criterion 3.

    Log-uniform budgets on [0.1, 100] at least 1e-4 apart and Dirichlet(1)
    masses above 1e-9.
    """
    while True:
        budgets = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(100.0), n)))
        if n == 1 or np.min(np.diff(budgets)) > 1e-4:
            break
    while True:
        masses = rng.dirichlet(np.ones(n))
        if masses.min() > 1e-9:
            break
    return [(float(b), float(m)) for b, m in zip(budgets, masses)]


@st.composite
def scaled_populations(draw, max_groups: int = 25) -> DiscreteBudgetDistribution:
    """A criterion-3 population in a budget unit drawn from [1e-6, 1e6]."""
    n = draw(st.integers(1, max_groups))
    seed = draw(st.integers(0, 2**32 - 1))
    exponent = draw(st.sampled_from([0.0]) | st.floats(-6.0, 6.0))
    scale = 10.0**exponent
    rows = criterion3_rows(np.random.default_rng(seed), n)
    try:
        return DiscreteBudgetDistribution(tuple((b * scale, m) for b, m in rows))
    except ValueError:
        # budgets closer than the absolute EPS once scaled down
        reject()


@st.composite
def near_equal_populations(draw, max_groups: int = 11) -> DiscreteBudgetDistribution:
    """Budgets ``1 + cumsum(gaps)`` with every gap in one decade, from
    [1e-9, 1e-8) up to [1e-5, 1e-4), and Dirichlet(1) masses."""
    n = draw(st.integers(2, max_groups))
    decade = draw(st.integers(-9, -5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    budgets = 1.0 + np.cumsum(10.0 ** (decade + rng.random(n)))
    masses = rng.dirichlet(np.ones(n))
    try:
        return DiscreteBudgetDistribution(
            tuple((float(b), float(m)) for b, m in zip(budgets, masses))
        )
    except ValueError:
        # a gap within EPS once rounded, or a mass that underflows
        reject()


def document_or_error(fn, *args) -> str:
    """The JSON document of what ``fn`` returns, or the error it raises."""
    try:
        return json.dumps(fn(*args).to_dict())
    except (ValueError, SolverError) as exc:
        return f"{type(exc).__name__}: {exc}"


# Nine groups: three closely bunched low budgets, four mid budgets, one
# heavyweight whose pour floods every terrace below it, and one group on
# top.  Pinned because its outcome matrix mixes sure and probabilistic
# results in a way that defeats establishment transitivity while keeping
# certainty and dominance intact.
NINE_ROWS = (
    (1.0, 1.0),
    (1.05, 1.0),
    (1.1, 1.0),
    (5.0, 1.0),
    (5.2, 1.0),
    (5.4, 1.0),
    (5.6, 1.0),
    (7.0, 12.0),
    (13.0, 2.0),
)


@pytest.fixture(scope="session")
def pair_dist():
    return budget_rows((1.0, 0.5), (1.5, 0.5))


@pytest.fixture(scope="session")
def pair_sol(pair_dist):
    return solve(pair_dist)


@pytest.fixture(scope="session")
def wide_dist():
    return budget_rows((1.0, 0.5), (10.0, 0.5))


@pytest.fixture(scope="session")
def wide_sol(wide_dist):
    return solve(wide_dist)


@pytest.fixture(scope="session")
def near_tie_dist():
    # budgets 1.5 and 1.501 produce an outcome close enough to a coin flip
    # for a slice exchange to push it across
    return budget_rows((1.0, 1.0), (1.5, 1.0), (1.501, 1.0))


@pytest.fixture(scope="session")
def near_tie_sol(near_tie_dist):
    return solve(near_tie_dist)


@pytest.fixture(scope="session")
def nine_dist():
    return budget_rows(*NINE_ROWS)


@pytest.fixture(scope="session")
def nine_sol(nine_dist):
    return solve(nine_dist)


@pytest.fixture(scope="session")
def dice_triple():
    return DICE_TRIPLE


@pytest.fixture(scope="session")
def dice_pop(dice_triple):
    return dice_to_population(dice_triple)
