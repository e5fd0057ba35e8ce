#!/usr/bin/env python3
"""Benchmark of the poplotto library and command line.

Run from the repository root:

    python3 perfbench/run.py --workload flooding --seed 1 --seconds 38 --trace 0

The program is imported and executed from ``./src``; nothing needs to be
installed.  With ``--trace 0`` the run measures the end-to-end metrics,
with ``--trace 1`` the per-layer metrics (see README.md).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run, with the spans of a traced run, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

from speed import NOMINAL_S
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("certify_s", "s"),
    ("analyze_s", "s"),
    ("solve_verify_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process and every waited-for child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end_metrics(session, scale: float) -> dict:
    """Per input the fastest repeat, then the median over inputs; times are
    multiplied by ``scale`` (see speed.py)."""
    from session import HEADLINE

    def median(kind: str) -> float:
        return scale * statistics.median(session.best_per_input(kind))

    head = session.best_per_input(HEADLINE[session.workload])
    return {
        "setup_s": median("setup"),
        "ops_per_s": len(head) / sum(head) / scale,
        "certify_s": median("certify"),
        "analyze_s": median("analyze"),
        "solve_verify_s": median("solve_verify"),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(session) -> dict[str, tuple[float, str]]:
    """Per population: self seconds and calls of each layer, plus counts."""
    from session import COMMANDS, COUNTS, LAYERS

    rounds = session.rounds
    busy = session.tracer.busy()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        _, self_s, calls = busy.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = (self_s / rounds, "s")
        out[f"{name}.calls"] = (calls / rounds, "count")
    for name in COUNTS:
        out[name] = (session.tracer.counts[name] / rounds, "count")
    out["structure.leagues.max_size"] = (session.max_league, "count")
    out["cli.import.s"] = (min(session.samples["import"]), "s")
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self.s"] = (session.cli_self[cmd] / rounds, "s")
        sizes = session.doc_bytes.get(cmd)
        out[f"cli.{cmd}.out_bytes"] = (statistics.median(sizes) if sizes else 0, "bytes")
    out["trace.overhead.s"] = (session.overhead_s, "s")
    return out


def input_properties(session) -> dict:
    sols = session.solutions
    return {
        "populations": len(sols),
        "groups": [min(len(x.groups) for x in sols), max(len(x.groups) for x in sols)],
        "terraces": [min(len(x.aggregate.heights) for x in sols), max(len(x.aggregate.heights) for x in sols)],
        "leagues": [min(len(p) for p in session.partitions), max(len(p) for p in session.partitions)],
        "largest_league": max(len(lg.members) for p in session.partitions for lg in p),
        "rewire_calls": len(session.rewire_calls),
        "document_bytes": {
            cmd: int(statistics.median(b)) for cmd, b in sorted(session.doc_bytes.items()) if b
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "poplotto" / "cli.py").is_file():
        print(f"error: no poplotto sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()

    import session as session_module  # imports the program

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        session = session_module.Session(
            args.workload, args.seed, Path(tmp), env, traced=bool(args.trace)
        )
        # keep the harness's own objects out of the program's collections
        gc.collect()
        gc.freeze()
        if args.trace:
            session.run_traced(args.seconds)
        else:
            session.run_untraced(args.seconds)
            session.ensure_repeats()

    if args.trace:
        layer = per_layer_metrics(session)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        units = dict(END_TO_END)
        values = end_to_end_metrics(session, session.speed.factor())
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    props = input_properties(session)
    correct = session.failed == 0
    report_lines(args, session, metrics, props)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "refused": session.refused,
        "problems": session.problems,
        "metrics": metrics,
        "inputs": props,
        "samples": session.samples,
        "reference_s": session.speed.seconds,
        "documents": {"/".join(map(str, k)): v for k, v in sorted(session.hashes.items())},
    }
    if args.trace:
        record["self_time"] = {
            name: {"total_s": t, "self_s": s, "calls": c}
            for name, (t, s, c) in sorted(session.tracer.busy().items())
        }
        record["spans"] = session.tracer.records()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def report_lines(args, session, metrics: dict, props: dict) -> None:
    """Human-readable summary: metrics, aliases, gate, inputs and hashes."""
    print(f"# poplotto benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        raw = end_to_end_metrics(session, 1.0)
        print(f"times above are scaled by {session.speed.factor():.6g}: the fastest of"
              f" {len(session.speed.seconds)} reference samples took"
              f" {1000 * min(session.speed.seconds):.4g} ms; nominal {1000 * NOMINAL_S:g} ms")
        for name, unit in END_TO_END:
            print(f"  unscaled {name:<35} {raw[name]:>14.6g} {unit}")
        pipes = session.best_per_input("pipeline")
        lines = []
        if pipes:
            lines += [
                ("pops_per_s", len(pipes) / sum(pipes), "1/s"),
                ("pop_p50_ms", 1000 * statistics.median(pipes), "ms"),
                ("pop_p90_ms", 1000 * percentile(pipes, 90), "ms"),
            ]
        for name, value, unit in lines:
            print(f"{name:<44} {value:>14.6g} {unit}")
        if 0 < len(pipes) < 100:
            print(f"  (pop_p90_ms rests on {len(pipes)} inputs, under 100: not resolved)")
        for kind, values in session.samples.items():
            if values and kind != "import":
                inputs = len(session.best_per_input(kind))
                print(f"  {kind}: {len(values)} samples on {inputs} inputs,"
                      f" median of all samples {statistics.median(values):.6g} s")
    attempted = max(session.attempted, 1)
    print(f"failed_ratio  {session.failed}/{session.attempted} = {session.failed / attempted:.6g}")
    print(f"refused_ratio {session.refused}/{session.attempted} = {session.refused / attempted:.6g}")
    for problem in session.problems[:20]:
        print(f"FAILED {problem}")
    print(f"inputs {json.dumps(props)}")
    for key, digest in sorted(session.hashes.items()):
        print(f"doc {'/'.join(map(str, key))} sha256 {digest}")


if __name__ == "__main__":
    sys.exit(main())
