#!/usr/bin/env python3
"""Rebuild perfbench/REFERENCE.json from one traced and one untraced run
of every workload.

Run from the repository root:

    python3 perfbench/reference.py [--seed 1]

The file records, per workload, the input properties, the end-to-end
figures, each layer's share of the traced self time, and the shares inside
the certificate and analyze stages that the workload was chosen to stress.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

CERTIFY = (
    "solver.solve", "equilibrium.verify_nash", "equilibrium.verify_linear_bounds",
    "equilibrium.payoff_identity_check", "equilibrium.worst_deviation",
    "equilibrium.verify_subpop_consistency",
)
ANALYZE = (
    "solver.solve", "equilibrium.verify_nash", "equilibrium.verify_linear_bounds",
    "structure.leagues", "structure.outcome_matrix", "structure.transitivity_report",
    "structure.sub_leagues",
)


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    record = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def shares(self_time: dict, names) -> dict:
    total = sum(self_time.get(n, {}).get("self_s", 0.0) for n in names)
    return {n: round(self_time.get(n, {}).get("self_s", 0.0) / total, 4) for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from session import LAYERS

    out = {
        "seed": args.seed,
        "run_seconds": BENCHMARK["run_seconds"],
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": __import__("os").cpu_count(),
        },
        "workloads": {},
    }
    for w in BENCHMARK["workloads"]:
        name = w["name"]
        plain = run(name, args.seed, 0)
        traced = run(name, args.seed, 1)
        st = traced["self_time"]
        out["workloads"][name] = {
            "why": w["why"],
            "inputs": plain["inputs"],
            "end_to_end": {k: round(v["value"], 6) for k, v in plain["metrics"].items()},
            "failed": plain["failed"] + traced["failed"],
            "refused": plain["refused"],
            "trace_overhead_s": traced["metrics"]["trace.overhead.s"]["value"],
            "layer_self_time_share": shares(st, LAYERS),
            "certify_share": shares(st, CERTIFY),
            "analyze_share": shares(st, ANALYZE),
        }
        print(f"{name}: done", file=sys.stderr)
    (HERE / "REFERENCE.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
