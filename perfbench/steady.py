"""Steadiness mode: run one workload repeatedly, one seed per run, and report
the median and quartiles of every metric with its spread.

    python3 perfbench/steady.py --workload desk8x8 --runs 10 [--first-seed 1] [--trace 0]

The spread is (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``.  For each end-to-end metric it is
compared with the bound in ``BENCHMARK.json``; a bound is only steady
enough when the spread stays below a third of it (``setup_s`` is exempt
from the spread test).  In traced runs the metrics counted in the program
(nodes, LP calls, model sizes, attempts) must repeat exactly.  A summary is
written to ``.perfbench/steady-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("solver.lp_calls", "solver.nodes", "solver.prop_infeasible", "bilp.vars",
         "bilp.rows", "bilp.nonzeros", "route.attempts", "route.infeasible_attempts")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    units = {}
    incorrect = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: exit {out.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)

    rows = {}
    print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        steady = None if bound is None or name == "setup_s" else spread < bound / 3
        if args.trace and name in EXACT:
            steady = len(set(vals)) == 1
        rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                      "spread": spread, "bound": bound, "steady": steady, "values": vals}
        flag = {None: "", True: "ok", False: "NOT STEADY"}[steady]
        print(f"{name:28} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6} {flag}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "runs": args.runs,
                    "seconds": spec["run_seconds"], "first_seed": args.first_seed,
                    "incorrect_runs": incorrect, "metrics": rows}, indent=1) + "\n")
    return 1 if incorrect or any(r["steady"] is False for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
