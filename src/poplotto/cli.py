"""Command-line front end.

Every command reads JSON, writes one machine-readable document, and prints
a short human summary.  The machine document goes to ``--out`` when given,
otherwise to standard output; the summary then moves to standard error so
pipes stay clean.  Outputs are deterministic for a fixed input and seed,
byte for byte.

Exit codes: 0 success, 1 invalid input or arguments, 2 verification
failed, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .equilibrium import verify_linear_bounds, verify_nash, verify_subpop_consistency
from .solver import DiscreteBudgetDistribution, EquilibriumSolution, SolverError, solve
from .structure import (
    LeaguePartition,
    _replayed,
    dice_to_population,
    export_digraph,
    league_rewire,
    leagues,
    outcome_matrix,
    search_dice_triple,
    step_samples_csv,
    sub_leagues,
    transitivity_report,
)

MASS_SLACK = 1e-6

FORMATS = {
    "solve": ("json", "csv"),
    "verify": ("json",),
    "analyze": ("json",),
    "dice": ("json",),
    "rewire": ("json", "csv"),
    "export": ("json", "csv", "dot"),
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation."""

    command: str
    input: str | None
    output: str | None
    tol: float
    fmt: str
    seed: int
    league: int

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.fmt not in FORMATS[self.command]:
            allowed = ", ".join(FORMATS[self.command])
            raise ValueError(
                f"format {self.fmt!r} not supported by {self.command} (use {allowed})"
            )


def _read_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def _load_distribution(path: str) -> DiscreteBudgetDistribution:
    data = _read_json(path)
    dist = DiscreteBudgetDistribution.from_dict(data)
    raw = sum(float(row["mass"]) for row in data["subpopulations"])
    if abs(raw - 1.0) > MASS_SLACK:
        print(
            f"warning: masses sum to {raw!r}, normalizing to 1",
            file=sys.stderr,
        )
    return dist


def _league_lines(partition: LeaguePartition, budgets: tuple[float, ...]) -> list[str]:
    lines = ["league  height      span                members (budget)"]
    for rank, lg in enumerate(partition.leagues):
        members = ", ".join(f"{i} ({budgets[i]:g})" for i in lg.members)
        lines.append(
            f"{rank:>6}  {lg.height:<10.6g}  [{lg.span[0]:.6g}, {lg.span[1]:.6g}]"
            f"{'':<2}{members}"
        )
    return lines


def _cmd_solve(config: RunConfig) -> tuple[str, list[str], int]:
    dist = _load_distribution(config.input)
    sol = solve(dist)
    nash = verify_nash(sol, config.tol)
    part = leagues(sol, config.tol)
    if config.fmt == "csv":
        machine = step_samples_csv(sol)
    else:
        reports = {
            "nash": nash.to_dict(),
            "linear_bounds": verify_linear_bounds(sol, config.tol).to_dict(),
            "leagues": part.to_dict(),
        }
        machine = json.dumps({**sol.to_dict(), "reports": reports}, indent=2) + "\n"
    summary = _league_lines(part, sol.budgets)
    summary.append(f"worst violation: {nash.worst():.3e}")
    return machine, summary, 0


def _cmd_verify(config: RunConfig) -> tuple[str, list[str], int]:
    sol = EquilibriumSolution.from_dict(_read_json(config.input))
    nash = verify_nash(sol, config.tol)
    linear = verify_linear_bounds(sol, config.tol)
    payload = {"nash": nash.to_dict(), "linear_bounds": linear.to_dict()}
    machine = json.dumps(payload, indent=2) + "\n"
    ok = nash.passed and linear.passed
    summary = [
        f"nash: {'pass' if nash.passed else 'FAIL'} (worst {nash.worst():.3e})",
        f"linear bounds: {'pass' if linear.passed else 'FAIL'}"
        f" (worst {linear.worst():.3e})",
    ]
    return machine, summary, 0 if ok else 2


def _cmd_analyze(config: RunConfig) -> tuple[str, list[str], int]:
    dist = _load_distribution(config.input)
    sol = solve(dist)
    matrix = outcome_matrix(sol)
    transitivity = transitivity_report(matrix, config.tol)
    subs = sub_leagues(dist, config.tol)
    payload = {
        **sol.to_dict(),
        "reports": {
            "nash": verify_nash(sol, config.tol).to_dict(),
            "linear_bounds": verify_linear_bounds(sol, config.tol).to_dict(),
            "leagues": subs.full.to_dict(),
            "outcome_matrix": matrix.to_dict(),
            "transitivity": transitivity.to_dict(),
            "sub_leagues": subs.to_dict(),
        },
    }
    machine = json.dumps(payload, indent=2) + "\n"
    summary = _league_lines(subs.full, sol.budgets)
    flags = ", ".join(
        f"{name}={'pass' if ok else 'FAIL'}"
        for name, ok in transitivity.flags.items()
    )
    summary.append(f"transitivity: {flags}")
    for sub in subs.sub_leagues:
        summary.append(
            f"sub-league {sorted(sub.members)}: a league when truncated at"
            f" budget {sub.thresholds[0]:g}"
        )
    return machine, summary, 0


def _cmd_dice(config: RunConfig) -> tuple[str, list[str], int]:
    if config.input is None:
        dice = search_dice_triple()
    else:
        data = _read_json(config.input)
        if "dice" not in data:
            raise ValueError("dice input needs a top-level 'dice' list")
        dice = data["dice"]
    pop = dice_to_population(dice)
    faces = [[int(v) for v in die] for die in dice]
    matrix = outcome_matrix(pop)
    transitivity = transitivity_report(matrix, config.tol)
    nash = verify_nash(pop, config.tol)
    payload = {
        "dice": faces,
        **pop.to_dict(),
        "reports": {
            "nash": nash.to_dict(),
            "leagues": leagues(pop, config.tol).to_dict(),
            "outcome_matrix": matrix.to_dict(),
            "transitivity": transitivity.to_dict(),
        },
    }
    machine = json.dumps(payload, indent=2) + "\n"
    n = matrix.n
    summary = [f"dice: {die}" for die in faces]
    for i in range(n):
        for j in range(i + 1, n):
            summary.append(f"P(die {i} beats die {j}) = {matrix.probs[i, j]:.6g}")
    summary.append(f"equilibrium: {'pass' if nash.passed else 'FAIL'}")
    return machine, summary, 0


def _cmd_rewire(config: RunConfig) -> tuple[str, list[str], int]:
    import numpy as np

    dist = _load_distribution(config.input)
    sol = solve(dist)
    rewired = league_rewire(sol, config.league, seed=config.seed, tol=config.tol)
    nash = verify_nash(rewired, config.tol)
    before = outcome_matrix(sol).probs
    after = _replayed(before, sol, rewired)
    # row-major like the matrix; the diagonal reads 0.5, so it never flips
    flips = np.argwhere((before - 0.5) * (after - 0.5) < 0.0).tolist()
    if config.fmt == "csv":
        machine = step_samples_csv(rewired)
    else:
        payload = {
            **rewired.to_dict(),
            "reports": {
                "nash": nash.to_dict(),
                "matrix_before": before.tolist(),
                "matrix_after": after.tolist(),
                "flips": flips,
                "prefix_consistency": [
                    {"count": c.count, "threshold": c.threshold, "passed": c.passed}
                    for c in verify_subpop_consistency(dist, rewired, config.tol)
                ],
            },
        }
        machine = json.dumps(payload, indent=2) + "\n"
    changed = float(abs(after - before).max())
    summary = [
        f"league {config.league} rewired: {len(flips)} edge(s) flipped,"
        f" largest probability shift {changed:.3g}",
        f"equilibrium after rewire: {'pass' if nash.passed else 'FAIL'}",
    ]
    return machine, summary, 0


def _cmd_export(config: RunConfig) -> tuple[str, list[str], int]:
    dist = _load_distribution(config.input)
    sol = solve(dist)
    if config.fmt == "csv":
        machine = step_samples_csv(sol)
    else:
        matrix = outcome_matrix(sol)
        part = leagues(sol, config.tol)
        machine = export_digraph(
            matrix, part, fmt=config.fmt, budgets=sol.budgets, tol=config.tol
        )
    summary = [f"exported {config.fmt} for {len(sol.groups)} group(s)"]
    return machine, summary, 0


_DISPATCH = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "dice": _cmd_dice,
    "rewire": _cmd_rewire,
    "export": _cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplotto",
        description="Solve, verify, and analyze population lotto games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_fmt: str = "json") -> None:
        p.add_argument("--tol", type=float, default=1e-9, help="violation tolerance")
        p.add_argument("--format", default=default_fmt, choices=("json", "csv", "dot"))
        p.add_argument("--out", default=None, help="write machine output here")
        p.add_argument("--seed", type=int, default=0, help="search seed")

    p = sub.add_parser("solve", help="equilibrium strategies for a budget distribution")
    p.add_argument("input", help="JSON with {'subpopulations': [{'budget','mass'}]}")
    common(p)

    p = sub.add_parser("verify", help="certify a stored solution, exit 2 on failure")
    p.add_argument("input", help="JSON solution as written by solve")
    common(p)

    p = sub.add_parser("analyze", help="leagues, outcomes, transitivity, sub-leagues")
    p.add_argument("input", help="JSON budget distribution")
    common(p)

    p = sub.add_parser("dice", help="embed dice as a population and report the cycle")
    p.add_argument(
        "input",
        nargs="?",
        default=None,
        help="JSON with {'dice': [[faces], ...]}; omit for the searched triple",
    )
    common(p)

    p = sub.add_parser("rewire", help="reshape outcomes inside one league")
    p.add_argument("input", help="JSON budget distribution")
    p.add_argument("--league", type=int, default=0, help="league index to rewire")
    common(p)

    p = sub.add_parser("export", help="digraph (dot/json) or step samples (csv)")
    p.add_argument("input", help="JSON budget distribution")
    common(p, default_fmt="dot")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed verification
        return 0 if exc.code == 0 else 1
    try:
        config = RunConfig(
            command=args.command,
            input=args.input,
            output=args.out,
            tol=args.tol,
            fmt=args.format,
            seed=args.seed,
            league=getattr(args, "league", 0),
        )
        machine, summary, status = _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if config.output is not None:
        try:
            Path(config.output).write_text(machine)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 1
        for line in summary:
            print(line)
    else:
        sys.stdout.write(machine)
        for line in summary:
            print(line, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
