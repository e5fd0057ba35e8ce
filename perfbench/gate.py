"""Correctness gate: every operation the benchmark times is checked here.

An operation fails when its process exits with an undocumented code or a
traceback, when its output does not certify, when a rewired solution
breaks the staircase conditions or moves the aggregate, or when a command
line document differs byte for byte from an earlier run on the same input.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

from poplotto import EquilibriumSolution, PiecewiseDensity, mixture, step_gap, verify_nash

# Certificates, dyad gain and the richer-never-loses order use the
# acceptance gate's tolerance; a rewire must leave the aggregate exact.
TOL = 1e-9
REMIX_TOL = 1e-12

DOCUMENTED_EXITS = {0: "ok", 1: "invalid input", 2: "not certified", 3: "solver failure"}

# Exit-1 messages with which ``poplotto rewire`` declines a league.
REFUSALS = (
    "no slice exchange changed the outcome matrix",
    "league members have no overlapping supports",
)

# Transitivity notions an equilibrium population never violates.
TRANSITIVE = ("weak_stochastic", "certainty", "dominance")


def certificate_problems(cert: dict) -> list[str]:
    """Problems in the library certificates of one solution.

    ``cert`` holds the reports of ``verify_nash``, ``verify_linear_bounds``,
    ``payoff_identity_check``, ``worst_deviation`` and
    ``verify_subpop_consistency``.
    """
    problems = []
    for name in ("nash", "linear"):
        worst = cert[name].worst()
        if not worst <= TOL:
            problems.append(f"{name} certificate {worst:.3e} > {TOL:g}")
    if not cert["identity"] <= TOL:
        problems.append(f"payoff identity gap {cert['identity']:.3e} > {TOL:g}")
    if not cert["gain"] <= TOL:
        problems.append(f"dyad gain {cert['gain']:.3e} > {TOL:g}")
    broken = [check.count for check in cert["prefixes"] if not check.passed]
    if broken:
        problems.append(f"prefixes {broken[:5]} fail re-certification")
    return problems


def structure_problems(probs, violations: dict) -> list[str]:
    """Richer groups never lose, and no transitivity notion that must hold
    is violated.  Groups are in increasing budget order."""
    W = np.asarray(probs, dtype=float)
    problems = []
    lower = np.tril_indices(len(W), -1)  # j > i: row j is the richer group
    if len(W) > 1 and np.min(W[lower]) < 0.5 - TOL:
        problems.append(f"a richer group loses: min P = {np.min(W[lower]):.12g}")
    for name in TRANSITIVE:
        if len(violations[name]):
            problems.append(f"{len(violations[name])} {name} transitivity violations")
    return problems


def exit_problems(code: int, stderr: str, refusable: bool = False) -> tuple[str, list[str]]:
    """Classify a finished command: ("ok" | "refused" | "failed", problems)."""
    if "Traceback" in stderr:
        return "failed", [f"traceback (exit {code}): {stderr.strip()[-300:]}"]
    if code not in DOCUMENTED_EXITS:
        return "failed", [f"undocumented exit code {code}"]
    if code == 1 and refusable and any(r in stderr for r in REFUSALS):
        return "refused", []
    if code != 0:
        return "failed", [f"exit {code} ({DOCUMENTED_EXITS[code]}): {stderr.strip()[-300:]}"]
    return "ok", []


def _reports_problems(reports: dict, names: tuple[str, ...]) -> list[str]:
    return [f"{name} report does not pass" for name in names if not reports[name]["passed"]]


def solve_doc_problems(doc: dict) -> list[str]:
    return _reports_problems(doc["reports"], ("nash", "linear_bounds"))


def verify_doc_problems(doc: dict) -> list[str]:
    return _reports_problems(doc, ("nash", "linear_bounds"))


def analyze_doc_problems(doc: dict) -> list[str]:
    reports = doc["reports"]
    return _reports_problems(reports, ("nash", "linear_bounds")) + structure_problems(
        reports["outcome_matrix"]["probs"], reports["transitivity"]["violations"]
    )


def rewire_doc_problems(doc: dict, aggregate: PiecewiseDensity) -> list[str]:
    """The rewired solution still certifies and remixes to ``aggregate``,
    the aggregate of the solved input."""
    sol = EquilibriumSolution.from_dict(doc)
    problems = []
    nash = verify_nash(sol, TOL)
    if not nash.passed:
        problems.append(f"rewired solution fails verify_nash ({nash.worst():.3e})")
    gap = step_gap(mixture([(1.0, g.strategy) for g in sol.groups]), aggregate)
    if not gap <= REMIX_TOL:
        problems.append(f"rewired strategies remix {gap:.3e} away from the aggregate")
    return problems
