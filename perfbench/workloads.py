"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into a list of populations, each a list of
``(budget, mass)`` rows with strictly increasing budgets.  The rows are all
the program receives: the harness writes them out as the JSON document the
``poplotto`` command line reads, and builds the library's
``DiscreteBudgetDistribution`` from that same document.

Seed-to-seed variation is limited on purpose where it would swamp the
timing.  Between two drawn flooding populations of the same size the
certificate time differs by about 40%, and no run short enough for this
benchmark averages that out.  So ``flooding`` takes one fixed draw and
lets the seed set the budget unit, and ``staircase`` is the fixed
geometric ladder in a seeded budget unit.
The game is scale-covariant, so these seeds change every number in the
documents but not the work.  ``batch-small`` draws all 200 populations
afresh from the seed; that many average out once each size from 1 to 20
appears equally often.

Sizes are n = 100 rather than 150 so that one operation takes about a
second and a run holds several of each kind.  The staircase ratio is 1.08
rather than 1.05 to keep its terraces at about 0.78 n, as 1.05 gives at
n = 150.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("batch-small", "flooding", "staircase")

BATCH_SIZE = 200
BATCH_MAX_GROUPS = 20
FLOODING_GROUPS = 100
STAIRCASE_GROUPS = 100
STAIRCASE_RATIO = 1.08

# The fixed flooding draw: 12 terraces and leagues of up to 26 groups.
FLOODING_LAYOUT_SEED = 6

Rows = list[tuple[float, float]]


def flooding_rows(rng: np.random.Generator, n: int) -> Rows:
    """Log-uniform budgets on [0.1, 100] and Dirichlet(1) masses.

    This is the generator of acceptance criterion 3: budgets closer than
    1e-4 and masses below 1e-9 are redrawn.
    """
    while True:
        budgets = np.sort(np.exp(rng.uniform(math.log(0.1), math.log(100.0), n)))
        if n == 1 or np.min(np.diff(budgets)) > 1e-4:
            break
    while True:
        masses = rng.dirichlet(np.ones(n))
        if masses.min() > 1e-9:
            break
    return [(float(b), float(m)) for b, m in zip(budgets, masses)]


def _in_unit(layout_seed: int, n: int, rng: np.random.Generator) -> Rows:
    """The fixed flooding draw ``layout_seed``, budgets in a unit from [0.5, 2]."""
    unit = math.exp(float(rng.uniform(math.log(0.5), math.log(2.0))))
    layout = flooding_rows(np.random.default_rng(layout_seed), n)
    return [(unit * b, m) for b, m in layout]


def populations(workload: str, seed: int) -> list[Rows]:
    """The populations one run of ``workload`` processes, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "batch-small":
        # every size from 1 to BATCH_MAX_GROUPS equally often, in an order
        # that spreads the sizes and is the same for every seed
        sizes = [1 + (7 * k) % BATCH_MAX_GROUPS for k in range(BATCH_SIZE)]
        return [flooding_rows(rng, n) for n in sizes]
    if workload == "flooding":
        return [_in_unit(FLOODING_LAYOUT_SEED, FLOODING_GROUPS, rng)]
    if workload == "staircase":
        unit = STAIRCASE_RATIO ** float(rng.uniform())
        mass = 1.0 / STAIRCASE_GROUPS
        return [
            [(unit * STAIRCASE_RATIO**k, mass) for k in range(STAIRCASE_GROUPS)]
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def document(rows: Rows) -> dict:
    """The JSON input document the command line reads."""
    return {"subpopulations": [{"budget": b, "mass": m} for b, m in rows]}
