"""One benchmark run: timed operations on one workload's populations.

Untraced runs interleave operation kinds in a closed loop with one caller
and give each kind its share of the measured time.  The kinds are a fresh
set-up, the library pipeline or its certificate stage alone,
``poplotto solve`` then ``poplotto verify``, and ``poplotto analyze``.
Command line operations run as subprocesses, one at a time.

Traced runs process whole rounds instead: for one population the library
pipeline, probes of the density and payoff layers, and every command
through an in-process ``poplotto.cli.main``, each call inside a span.
Once per run they also rewire the smallest multi-member league, through
the library and through ``poplotto rewire``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from poplotto import (
    DiscreteBudgetDistribution,
    EquilibriumSolution,
    PiecewiseDensity,
    mixture,
    payoff_identity_check,
    solve,
    step_gap,
    verify_linear_bounds,
    verify_nash,
    verify_subpop_consistency,
    win_prob,
    worst_deviation,
)
from poplotto.cli import main as cli_main
from poplotto.structure import (
    league_rewire,
    leagues,
    outcome_matrix,
    sub_leagues,
    transitivity_report,
)

import gate
from speed import SpeedLog
from tracing import NullTracer, Tracer
from workloads import document, populations

TOL = gate.TOL
REWIRE_SEED = 0
SETUP_REPEATS = 5
OVERHEAD_ROUNDS = 5

# Fresh interpreter: import the command line, then solve one group.
# Prints the import time; the parent times the whole process.
SETUP_CODE = """\
import time
start = time.perf_counter()
import poplotto.cli
imported = time.perf_counter()
from poplotto import DiscreteBudgetDistribution, solve
solve(DiscreteBudgetDistribution(((1.0, 1.0),)))
print(imported - start)
"""

# Share of the measured time each operation kind gets, per workload.
SHARES = {
    "batch-small": {"setup": 0.05, "pipeline": 0.45, "solve_verify": 0.25, "analyze": 0.25},
    "flooding": {"setup": 0.05, "certify": 0.35, "solve_verify": 0.25, "analyze": 0.35},
    "staircase": {"setup": 0.05, "certify": 0.35, "solve_verify": 0.25, "analyze": 0.35},
}

# Commands cycle over the first few populations only, so that each input
# repeats within a run; on small inputs interpreter start-up dominates.
CLI_INPUTS = 5

# The operation behind ops_per_s.
HEADLINE = {"batch-small": "pipeline", "flooding": "certify", "staircase": "certify"}

# Library calls each command makes, with multiplicity; subtracting their
# separately timed durations from the command's time gives its derived
# self time.
CLI_LIBRARY_CALLS = {
    "solve": {"solver.solve": 1, "equilibrium.verify_nash": 2,
              "equilibrium.verify_linear_bounds": 1, "structure.leagues": 2},
    "verify": {"solution.from_dict": 1, "equilibrium.verify_nash": 1,
               "equilibrium.verify_linear_bounds": 1},
    "analyze": {"solver.solve": 1, "equilibrium.verify_nash": 1,
                "equilibrium.verify_linear_bounds": 1, "structure.leagues": 1,
                "structure.outcome_matrix": 1, "structure.transitivity_report": 1,
                "structure.sub_leagues": 1},
    "rewire": {"solver.solve": 1, "structure.league_rewire": 1,
               "structure.outcome_matrix": 2, "equilibrium.verify_nash": 2,
               "equilibrium.verify_subpop_consistency": 1},
}
REFUSED_REWIRE_CALLS = {"solver.solve": 1, "structure.league_rewire": 1}
COMMANDS = tuple(CLI_LIBRARY_CALLS)

LAYERS = (
    "density.mixture", "density.step_gap", "density.from_dict", "density.cdf",
    "payoff.win_prob",
    "solver.solve",
    "equilibrium.verify_nash", "equilibrium.verify_linear_bounds",
    "equilibrium.payoff_identity_check", "equilibrium.worst_deviation",
    "equilibrium.verify_subpop_consistency",
    "structure.outcome_matrix", "structure.transitivity_report", "structure.leagues",
    "structure.sub_leagues", "structure.league_rewire",
    *(f"cli.{cmd}" for cmd in COMMANDS),
)
COUNTS = (
    "solver.groups", "solver.terraces", "equilibrium.failed",
    "structure.leagues.count", "structure.league_rewire.refused",
)


@dataclass
class Kind:
    name: str
    share: float
    items: list
    run: Callable
    spent: float = 0.0
    count: int = 0
    durations: list = field(default_factory=list)


def _plain_call(name: str, fn: Callable, *args):
    return fn(*args)


def certificates(dist: DiscreteBudgetDistribution, sol: EquilibriumSolution,
                 call: Callable = _plain_call) -> dict:
    """The library certificates of ``sol``, as ``gate.certificate_problems`` reads them."""
    return {
        "nash": call("equilibrium.verify_nash", verify_nash, sol, TOL),
        "linear": call("equilibrium.verify_linear_bounds", verify_linear_bounds, sol, TOL),
        "identity": call("equilibrium.payoff_identity_check", payoff_identity_check, sol, TOL),
        "gain": call("equilibrium.worst_deviation", worst_deviation, sol, TOL)[1],
        "prefixes": call("equilibrium.verify_subpop_consistency", verify_subpop_consistency,
                         dist, sol, TOL),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Session:
    def __init__(self, workload: str, seed: int, workdir: Path, env: dict, traced: bool):
        self.workload = workload
        self.workdir = workdir
        self.env = env
        self.tracer = Tracer() if traced else NullTracer()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sample_inputs: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.problems: list[str] = []
        self.hashes: dict[tuple, str] = {}
        self.repeated: set[str] = set()
        self.first_item: dict[str, object] = {}
        self.doc_bytes: dict[str, list[int]] = defaultdict(list)
        self.last: dict[str, float] = {}
        self.cli_self: dict[str, float] = defaultdict(float)
        self.rounds = 0
        self.speed = SpeedLog()
        self.rewired_once = False
        self.max_league = 0
        self.overhead_s: float | None = None

        docs = [document(rows) for rows in populations(workload, seed)]
        self.inputs = []
        for i, doc in enumerate(docs):
            path = workdir / f"pop{i}.json"
            path.write_text(json.dumps(doc))
            self.inputs.append(str(path))
        self.dists = [DiscreteBudgetDistribution.from_dict(doc) for doc in docs]
        self.solutions = [solve(dist) for dist in self.dists]
        self.partitions = [leagues(sol, TOL) for sol in self.solutions]
        # every multi-member league of every population, as (population, league);
        # traced runs rewire the smallest one
        self.rewire_calls = [
            (i, k)
            for i, part in enumerate(self.partitions)
            for k, lg in enumerate(part.leagues)
            if len(lg.members) >= 2
        ]

    # -- bookkeeping -------------------------------------------------------

    def _record(self, status: str, problems: list[str], what: str) -> None:
        self.attempted += 1
        if status == "refused":
            self.refused += 1
        if problems:
            self.failed += 1
            for p in problems[:3]:
                self.problems.append(f"{what}: {p}")

    def _document(self, command: str, key: tuple, path: Path) -> tuple[dict | None, list[str]]:
        """Read, hash and parse one command line document."""
        try:
            data = path.read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as exc:
            return None, [f"unreadable document: {exc}"]
        self.doc_bytes[command].append(len(data))
        digest = _sha(data)
        full_key = (command, *key)
        if full_key in self.hashes:
            self.repeated.add(command)
            if self.hashes[full_key] != digest:
                return doc, ["document differs byte for byte from an earlier run"]
        self.hashes[full_key] = digest
        return doc, []

    def _sample(self, kind: str, key, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.sample_inputs[kind].append(key)

    def best_per_input(self, kind: str) -> list[float]:
        """The fastest repeat of ``kind`` on each distinct input.

        On a shared machine one operation repeated on the same input can
        vary by a factor of two with the load of its neighbours; its
        fastest repeat moves far less.  Metrics over distinct inputs take
        the median of these.
        """
        best: dict = {}
        for key, seconds in zip(self.sample_inputs[kind], self.samples[kind]):
            best[key] = min(seconds, best.get(key, seconds))
        return list(best.values())

    def _call(self, name: str, fn: Callable, *args):
        """Call into the program inside a span and remember the duration."""
        with self.tracer.span(name):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.last[name] = time.perf_counter() - start

    def _cli(self, args: list[str]) -> tuple[float, int, str]:
        """Run one command; returns (seconds, exit code, stderr)."""
        if not self.tracer.enabled:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "poplotto.cli", *args],
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            return time.perf_counter() - start, proc.returncode, proc.stderr
        err = io.StringIO()
        with self.tracer.span(f"cli.{args[0]}"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(args)
                except Exception:  # a crash is a gate failure, not a harness one
                    traceback.print_exc()
                    code = -1
            seconds = time.perf_counter() - start
        return seconds, code, err.getvalue()

    def _derive_cli_self(self, command: str, seconds: float, calls: dict | None = None) -> None:
        if self.tracer.enabled:
            calls = CLI_LIBRARY_CALLS[command] if calls is None else calls
            library = sum(self.last.get(name, 0.0) * k for name, k in calls.items())
            self.cli_self[command] += seconds - library

    # -- operations --------------------------------------------------------

    def setup(self, _: object = None) -> None:
        """Fresh interpreter: import the command line and solve one group."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
        status, problems = gate.exit_problems(proc.returncode, proc.stderr)
        self._record(status, problems, "set-up")
        if status == "ok":
            self._sample("setup", 0, seconds)
            self._sample("import", 0, float(proc.stdout))

    def _certified(self, i: int) -> tuple[EquilibriumSolution, list[str]]:
        """Library solve and certificates of population ``i``, timed."""
        dist = self.dists[i]
        start = time.perf_counter()
        sol = self._call("solver.solve", solve, dist)
        cert = certificates(dist, sol, self._call)
        self._sample("certify", i, time.perf_counter() - start)
        problems = gate.certificate_problems(cert)
        tr = self.tracer
        tr.count("solver.groups", len(sol.groups))
        tr.count("solver.terraces", len(sol.aggregate.heights))
        tr.count("equilibrium.failed", 1 if problems else 0)
        return sol, problems

    def certify(self, i: int) -> None:
        """solve -> certificates."""
        _, problems = self._certified(i)
        self._record("ok", problems, f"certificates of population {i}")

    def pipeline(self, i: int) -> None:
        """solve -> certificates -> outcome_matrix -> transitivity -> leagues -> sub_leagues."""
        call = self._call
        start = time.perf_counter()
        sol, problems = self._certified(i)
        matrix = call("structure.outcome_matrix", outcome_matrix, sol)
        transitivity = call("structure.transitivity_report", transitivity_report, matrix, TOL)
        part = call("structure.leagues", leagues, sol, TOL)
        call("structure.sub_leagues", sub_leagues, self.dists[i], TOL)
        self._sample("pipeline", i, time.perf_counter() - start)

        violations = {name: getattr(transitivity, name) for name in gate.TRANSITIVE}
        problems += gate.structure_problems(matrix.probs, violations)
        self._record("ok", problems, f"pipeline on population {i}")
        self.tracer.count("structure.leagues.count", len(part))
        self.max_league = max(self.max_league, *(len(lg.members) for lg in part))
        if self.tracer.enabled:
            self._probe_layers(sol)

    def _probe_layers(self, sol: EquilibriumSolution) -> None:
        """Time the density and payoff layers on every strategy of ``sol``."""
        call = self._call
        blended = call("density.mixture", mixture, [(1.0, g.strategy) for g in sol.groups])
        call("density.step_gap", step_gap, blended, sol.aggregate)
        for g in sol.groups:
            call("density.from_dict", PiecewiseDensity.from_dict, g.strategy.to_dict())
        agg = sol.aggregate
        for x in (*agg.breakpoints, *sol.budgets):
            call("density.cdf", agg.cdf, x)
        for g in sol.groups:
            call("payoff.win_prob", win_prob, g.strategy.normalized(), agg)

    def solve_verify(self, i: int, timed: bool = True) -> None:
        sol_path = self.workdir / f"sol{i}.json"
        ver_path = self.workdir / f"ver{i}.json"
        s1, code, err = self._cli(["solve", self.inputs[i], "--out", str(sol_path)])
        status, problems = gate.exit_problems(code, err)
        if status == "ok":
            doc, problems = self._document("solve", (i,), sol_path)
            if doc is not None:
                problems += gate.solve_doc_problems(doc)
        self._record(status, problems, f"solve on population {i}")
        self._derive_cli_self("solve", s1)
        if status != "ok":
            return
        if self.tracer.enabled:
            text = sol_path.read_text()
            self._call("solution.from_dict", EquilibriumSolution.from_dict, json.loads(text))
        s2, code, err = self._cli(["verify", str(sol_path), "--out", str(ver_path)])
        status, problems = gate.exit_problems(code, err)
        if status == "ok":
            doc, problems = self._document("verify", (i,), ver_path)
            if doc is not None:
                problems += gate.verify_doc_problems(doc)
        self._record(status, problems, f"verify on population {i}")
        self._derive_cli_self("verify", s2)
        if timed:
            self._sample("solve_verify", i, s1 + s2)

    def analyze(self, i: int, timed: bool = True) -> None:
        out = self.workdir / f"ana{i}.json"
        seconds, code, err = self._cli(["analyze", self.inputs[i], "--out", str(out)])
        status, problems = gate.exit_problems(code, err)
        if status == "ok":
            doc, problems = self._document("analyze", (i,), out)
            if doc is not None:
                problems += gate.analyze_doc_problems(doc)
        self._record(status, problems, f"analyze on population {i}")
        self._derive_cli_self("analyze", seconds)
        if timed:
            self._sample("analyze", i, seconds)

    def rewire(self, call: tuple[int, int]) -> None:
        """League ``k`` of population ``i`` through the library, then the command."""
        i, k = call
        try:
            self._call("structure.league_rewire", league_rewire, self.solutions[i], k, REWIRE_SEED, TOL)
        except ValueError:
            self.tracer.count("structure.league_rewire.refused")
        out = self.workdir / f"rew{i}-{k}.json"
        args = ["rewire", self.inputs[i], "--league", str(k), "--seed", str(REWIRE_SEED), "--out", str(out)]
        seconds, code, err = self._cli(args)
        status, problems = gate.exit_problems(code, err, refusable=True)
        if status == "ok":
            doc, problems = self._document("rewire", (i, k), out)
            if doc is not None:
                problems += gate.rewire_doc_problems(doc, self.solutions[i].aggregate)
        self._record(status, problems, f"rewire of league {k} on population {i}")
        # a refused rewire stops after the search
        self._derive_cli_self("rewire", seconds, None if status == "ok" else REFUSED_REWIRE_CALLS)

    # -- drivers -----------------------------------------------------------

    def _guarded(self, op: Callable, *args) -> None:
        """Run one operation; an exception from the program fails it."""
        try:
            op(*args)
        except Exception as exc:  # report and keep measuring
            self._record("failed", [f"{type(exc).__name__}: {exc}"], op.__name__)

    def kinds(self) -> list[Kind]:
        pool = list(range(len(self.dists)))
        runners = {
            "pipeline": (pool, self.pipeline),
            "certify": (pool, self.certify),
            "solve_verify": (pool[:CLI_INPUTS], self.solve_verify),
            "analyze": (pool[:CLI_INPUTS], self.analyze),
            "setup": ([None], self.setup),
        }
        return [
            Kind(name, share, *runners[name])
            for name, share in SHARES[self.workload].items()
        ]

    def run_untraced(self, seconds: float) -> None:
        """Interleave the kinds until ``seconds`` have passed.

        Every kind runs at least once.  After that, an operation starts
        only if its kind's median duration still fits before the deadline.
        The kind furthest below its share of the time goes next.
        """
        kinds = self.kinds()
        deadline = time.perf_counter() + seconds
        while True:
            now = time.perf_counter()
            ready = [
                k for k in kinds
                if k.count == 0 or now + statistics.median(k.durations) <= deadline
            ]
            if not ready:
                break
            kind = min(ready, key=lambda k: k.spent / k.share)
            item = kind.items[kind.count % len(kind.items)]
            self.speed.tick()
            self.first_item.setdefault(kind.name, item)
            start = time.perf_counter()
            self._guarded(kind.run, item)
            took = time.perf_counter() - start
            kind.spent += took
            kind.count += 1
            kind.durations.append(took)
        self.speed.sample()

    def run_traced(self, seconds: float) -> None:
        """Whole rounds, one population each, while the median round still
        fits before ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        pool = range(len(self.dists))
        for _ in range(SETUP_REPEATS):
            self._guarded(self.setup)
        overheads: list[float] = []
        took: list[float] = []
        while not took or time.perf_counter() + statistics.median(took) <= deadline:
            round_start = time.perf_counter()
            i = pool[self.rounds % len(pool)]
            self.tracer.population = i
            with self.tracer.span("round"):
                start = time.perf_counter()
                self._guarded(self.pipeline, i)
                traced = time.perf_counter() - start
                if len(overheads) < OVERHEAD_ROUNDS:
                    # the same pipeline untraced, right after the traced one
                    tracer, self.tracer = self.tracer, NullTracer()
                    start = time.perf_counter()
                    self._guarded(self.pipeline, i)
                    overheads.append(traced - (time.perf_counter() - start))
                    self.tracer = tracer
                self._guarded(self.solve_verify, i)
                self._guarded(self.analyze, i)
                calls = [c for c in self.rewire_calls if c[0] == i]
                if calls and not self.rewired_once:
                    smallest = min(calls, key=lambda c: len(self.partitions[i].leagues[c[1]].members))
                    self._guarded(self.rewire, smallest)
                    self.rewired_once = True
            self.rounds += 1
            took.append(time.perf_counter() - round_start)
        self.overhead_s = statistics.median(overheads)

    def ensure_repeats(self) -> None:
        """Re-run one input of each command that saw no repeat, so every
        command's document is compared byte for byte at least once."""
        if self.tracer.enabled:
            return
        if "solve" not in self.repeated:
            self._guarded(self.solve_verify, self.first_item.get("solve_verify", 0), False)
        if "analyze" not in self.repeated:
            self._guarded(self.analyze, self.first_item.get("analyze", 0), False)
