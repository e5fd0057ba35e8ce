"""Command-line front end.

Every command reads JSON, writes one machine-readable document, and prints
a short human summary.  The machine document goes to ``--out`` when given,
otherwise to standard output; the summary then moves to standard error so
pipes stay clean.  Outputs are deterministic for a fixed input, byte for
byte.  Each subcommand declares only the options its handler reads, so an
option a command would ignore is a usage error; ``rewire --seed`` is the
one exception, accepted and without effect, since the search draws
nothing at random.

Exit codes: 0 success, 1 invalid input or arguments or output that
cannot be written (an unwritable ``--out``, a closed standard output),
2 verification failed, 3 solver failure.  ``verify`` exits 2 when either
report fails, and so does ``solve`` on a report it writes: ``nash`` and
``linear_bounds`` for JSON, ``nash`` alone for CSV, which writes no
reports but summarises ``nash``.  The document is written either way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Context, Decimal
from pathlib import Path

from .density import REPORT_TOL
from .equilibrium import verify_linear_bounds, verify_nash, verify_subpop_consistency
from .solver import DiscreteBudgetDistribution, EquilibriumSolution, SolverError, solve
from .structure import (
    DICE_TRIPLE,
    LeaguePartition,
    _rewire,
    dice_to_population,
    export_digraph,
    leagues,
    outcome_matrix,
    step_samples_csv,
    sub_leagues,
    transitivity_report,
)

MASS_SLACK = 1e-6


def _tolerance(text: str) -> float:
    """``--tol``: a finite, positive float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (tol > 0.0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}"
        )
    return tol


def _read_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is nested too deeply to read: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def _load_distribution(path: str) -> DiscreteBudgetDistribution:
    data = _read_json(path)
    dist = DiscreteBudgetDistribution.from_dict(data)
    masses = [float(row["mass"]) for row in data["subpopulations"]]
    raw = sum(masses)
    if abs(raw - 1.0) > MASS_SLACK:
        if math.isinf(raw):
            # past the float range: the exact sum, to 17 digits
            raw = sum(map(Decimal, masses)).normalize(Context(prec=17))
        print(f"warning: masses sum to {raw}, normalizing to 1", file=sys.stderr)
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


def _cmd_solve(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    dist = _load_distribution(args.input)
    sol = solve(dist)
    nash = verify_nash(sol, args.tol)
    part = leagues(sol, args.tol)
    worst, ok = nash.worst(), nash.passed
    if args.format == "csv":
        machine = step_samples_csv(sol)
    else:
        linear = verify_linear_bounds(sol, args.tol)
        worst, ok = max(worst, linear.worst()), ok and linear.passed
        reports = {
            "nash": nash.to_dict(),
            "linear_bounds": linear.to_dict(),
            "leagues": part.to_dict(),
        }
        machine = {**sol.to_dict(), "reports": reports}
    summary = _league_lines(part, sol.budgets)
    summary.append(f"worst violation: {worst:.3e}")
    return machine, summary, 0 if ok else 2


def _cmd_verify(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    sol = EquilibriumSolution.from_dict(_read_json(args.input))
    nash = verify_nash(sol, args.tol)
    linear = verify_linear_bounds(sol, args.tol)
    machine = {"nash": nash.to_dict(), "linear_bounds": linear.to_dict()}
    ok = nash.passed and linear.passed
    summary = [
        f"nash: {'pass' if nash.passed else 'FAIL'} (worst {nash.worst():.3e})",
        f"linear bounds: {'pass' if linear.passed else 'FAIL'}"
        f" (worst {linear.worst():.3e})",
    ]
    return machine, summary, 0 if ok else 2


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    subs = sub_leagues(_load_distribution(args.input), args.tol)
    sol = subs.solution
    matrix = outcome_matrix(sol)
    transitivity = transitivity_report(matrix, args.tol)
    machine = {
        **sol.to_dict(),
        "reports": {
            "nash": verify_nash(sol, args.tol).to_dict(),
            "linear_bounds": verify_linear_bounds(sol, args.tol).to_dict(),
            "leagues": subs.full.to_dict(),
            "outcome_matrix": matrix.to_dict(),
            "transitivity": transitivity.to_dict(),
            "sub_leagues": subs.to_dict(),
        },
    }
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


def _cmd_dice(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    if args.input is None:
        dice = DICE_TRIPLE
    else:
        data = _read_json(args.input)
        if "dice" not in data:
            raise ValueError("dice input needs a top-level 'dice' list")
        dice = data["dice"]
    pop = dice_to_population(dice)
    faces = [[int(v) for v in die] for die in dice]
    matrix = outcome_matrix(pop)
    transitivity = transitivity_report(matrix, args.tol)
    nash = verify_nash(pop, args.tol)
    machine = {
        "dice": faces,
        **pop.to_dict(),
        "reports": {
            "nash": nash.to_dict(),
            "leagues": leagues(pop, args.tol).to_dict(),
            "outcome_matrix": matrix.to_dict(),
            "transitivity": transitivity.to_dict(),
        },
    }
    n = matrix.n
    summary = [f"dice: {die}" for die in faces]
    for i in range(n):
        for j in range(i + 1, n):
            summary.append(f"P(die {i} beats die {j}) = {matrix.probs[i, j]:.6g}")
    summary.append(f"equilibrium: {'pass' if nash.passed else 'FAIL'}")
    return machine, summary, 0


def _cmd_rewire(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    import numpy as np

    dist = _load_distribution(args.input)
    sol = solve(dist)
    rewired, before, after = _rewire(sol, args.league, args.tol)
    nash = verify_nash(rewired, args.tol)
    # row-major like the matrix; the diagonal reads 0.5, so it never flips
    flips = np.argwhere((before - 0.5) * (after - 0.5) < 0.0).tolist()
    if args.format == "csv":
        machine = step_samples_csv(rewired)
    else:
        machine = {
            **rewired.to_dict(),
            "reports": {
                "nash": nash.to_dict(),
                "matrix_before": before.tolist(),
                "matrix_after": after.tolist(),
                "flips": flips,
                "prefix_consistency": [
                    check.to_dict()
                    for check in verify_subpop_consistency(dist, rewired, args.tol)
                ],
            },
        }
    changed = float(abs(after - before).max())
    summary = [
        f"league {args.league} rewired: {len(flips)} edge(s) flipped,"
        f" largest probability shift {changed:.3g}",
        f"equilibrium after rewire: {'pass' if nash.passed else 'FAIL'}",
    ]
    return machine, summary, 0


def _cmd_export(args: argparse.Namespace) -> tuple[dict | str, list[str], int]:
    dist = _load_distribution(args.input)
    sol = solve(dist)
    matrix = outcome_matrix(sol)
    part = leagues(sol, args.tol)
    machine = export_digraph(
        matrix, part, fmt=args.format, budgets=sol.budgets, tol=args.tol
    )
    summary = [f"exported {args.format} for {len(sol.groups)} group(s)"]
    return machine, summary, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplotto",
        description="Solve, verify, and analyze population lotto games.",
    )
    # every command reads both; each declares the rest itself
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--tol", type=_tolerance, default=REPORT_TOL, help="violation tolerance"
    )
    shared.add_argument("--out", default=None, help="write machine output here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve",
        parents=[shared],
        help="equilibrium strategies for a budget distribution",
    )
    p.add_argument("input", help="JSON with {'subpopulations': [{'budget','mass'}]}")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser(
        "verify", parents=[shared], help="certify a stored solution, exit 2 on failure"
    )
    p.add_argument("input", help="JSON solution as written by solve")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser(
        "analyze", parents=[shared], help="leagues, outcomes, transitivity, sub-leagues"
    )
    p.add_argument("input", help="JSON budget distribution")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser(
        "dice", parents=[shared], help="embed dice as a population and report the cycle"
    )
    p.add_argument(
        "input",
        nargs="?",
        default=None,
        help="JSON with {'dice': [[faces], ...]}; omit for the built-in triple",
    )
    p.set_defaults(run=_cmd_dice)

    p = sub.add_parser(
        "rewire", parents=[shared], help="reshape outcomes inside one league"
    )
    p.add_argument("input", help="JSON budget distribution")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--league", type=int, default=0, help="league index to rewire")
    p.add_argument("--seed", type=int, default=0, help="no effect")
    p.set_defaults(run=_cmd_rewire)

    p = sub.add_parser(
        "export", parents=[shared], help="outcome digraph, leagues as clusters"
    )
    p.add_argument("input", help="JSON budget distribution")
    p.add_argument("--format", default="dot", choices=("dot", "json"))
    p.set_defaults(run=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed verification
        return 0 if exc.code == 0 else 1
    try:
        machine, summary, status = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    # a handler returns a JSON document as its payload; CSV, dot and
    # export's JSON come back as text and are written as they are
    if isinstance(machine, dict):
        machine = json.dumps(machine, indent=2) + "\n"
    summary_stream = sys.stderr
    if args.out is not None:
        try:
            Path(args.out).write_text(machine)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        machine, summary_stream = "", sys.stdout
    try:
        sys.stdout.write(machine)
        for line in summary:
            print(line, file=summary_stream)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
