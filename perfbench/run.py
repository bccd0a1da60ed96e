"""swaproute benchmark: solve a seeded corpus with ``solve_mqpf`` in a closed
loop (one caller, one solve at a time), check every answer against the
committed references, and print every metric with its name and unit.

    python3 perfbench/run.py --workload desk8x8 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures end-to-end metrics with tracing off.  The run visits
the corpus in seeded order in whole passes until ``--seconds`` have passed.
``--trace 1`` instead solves each instance twice in a row, untraced then
traced, in whole passes until ``--seconds`` have passed, and reports
per-layer metrics for one pass plus the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-run details, the
environment and (traced runs) all spans go to ``.perfbench/`` in the
checkout.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("desk8x8", "desk8x8_near_st", "tiny1500")
HARD_CAP_S = 120.0      # measuring stops here even mid-pass; unsolved instances fail
SETUP_PROBES = 4        # extra set-ups in fresh interpreters, for the setup_s median
COST_TOL = 1e-9
NEAR_GAP = 0.08         # SolverConfig default rel_gap and abs_gap
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="visit order of the corpus; 0 keeps the listed order")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--references", type=Path, default=None,
                   help="directory of reference JSON files (default: perfbench/references)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Imports, corpus generation and reference load: everything before the
    first solve.  Returns (workload, references per case, solve_mqpf, validate)."""
    sys.path.insert(0, str(SRC))
    import corpora
    from swaproute.route import solve_mqpf, validate

    wl = corpora.build(args.workload)
    ref_dir = args.references or corpora.REFERENCE_DIR
    entries = json.loads((ref_dir / wl.reference_file).read_text())["entries"]
    refs = []
    for case in wl.cases:
        ref = entries.get(case.key)
        if ref is None:
            raise SystemExit(f"perfbench: no reference for {case.key}")
        if ref["fingerprint"] != corpora.fingerprint(case):
            raise SystemExit(f"perfbench: {case.key} no longer matches its reference "
                             "(instance or error-map generator changed)")
        refs.append(ref)
    return wl, refs, solve_mqpf, validate


def measure_setup(args, main_setup_s):
    """Median of this process's set-up and SETUP_PROBES fresh-interpreter set-ups."""
    values = [main_setup_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.references:
        cmd += ["--references", str(args.references)]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment():
    import numpy
    import scipy
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def check(wl, case, ref, sol, validate):
    """None if ``sol`` is a correct answer for ``case``, else what is wrong."""
    if wl.check == "optimal":
        if sol.status != "optimal":
            return f"status {sol.status}"
    elif not sol.solved:
        return f"status {sol.status}"
    if sol.depth != ref["depth"]:
        return f"depth {sol.depth} != reference {ref['depth']}"
    gap = sol.cost - ref["cost"]
    if wl.check == "optimal":
        if abs(gap) > COST_TOL:
            return f"cost {sol.cost!r} != reference {ref['cost']!r}"
    elif gap < -COST_TOL:
        return f"cost {sol.cost!r} below the optimum {ref['cost']!r}"
    elif gap > NEAR_GAP + COST_TOL and gap / max(sol.cost, 1e-12) > NEAR_GAP + COST_TOL:
        return f"cost {sol.cost!r} outside the near-optimal gap of {ref['cost']!r}"
    violations = validate(case.graph, case.inst, sol)
    if violations:
        return "invalid: " + violations[0]
    return None


def solve_once(solve, case):
    """(seconds, solution or None, error text or None) for one closed-loop call."""
    t0 = time.perf_counter()
    try:
        sol = solve(case.graph, case.emap, case.inst, case.cfg)
    except Exception as exc:  # any exception is a counted failure, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, sol, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, wl, idx, ref, sol, error, validate):
        self.attempted += 1
        problem = error or check(wl, wl.cases[idx], ref, sol, validate)
        if problem:
            self.failures.append(f"{wl.cases[idx].key}: {problem}")

    def unsolved(self, wl, indices):
        for idx in indices:
            self.attempted += 1
            self.failures.append(f"{wl.cases[idx].key}: not reached within {HARD_CAP_S} s")


def untraced_pass(wl, refs, order, deadline, solve_mqpf, validate, tally, times, cal):
    """One pass over the corpus, appending (start, seconds) per solve.  False
    if the hard cap cut it short."""
    for idx in order:
        if time.perf_counter() >= deadline:
            return False
        cal.tick()
        t = time.perf_counter()
        dt, sol, error = solve_once(solve_mqpf, wl.cases[idx])
        times[idx].append((t, dt))
        tally.record(wl, idx, refs[idx], sol, error, validate)
    return True


def latency_metrics(per_case):
    """Throughput and latency from each instance's median solve seconds."""
    q = statistics.quantiles(per_case, n=10)
    return {
        "solves_per_s": (len(per_case) / sum(per_case), "1/s"),
        "solve_p50_s": (statistics.median(per_case), "s"),
        "solve_p90_s": (q[8], "s"),
    }


def run_untraced(wl, refs, order, seconds, solve_mqpf, validate, tally, cal):
    """End-to-end metrics in reference seconds, and the same in raw seconds."""
    n = len(order)
    times = [[] for _ in range(n)]
    start = time.perf_counter()
    passes = 0
    while untraced_pass(wl, refs, order, start + HARD_CAP_S, solve_mqpf, validate,
                        tally, times, cal):
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start
    cal.finish()
    tally.unsolved(wl, [idx for idx in order if not times[idx]])
    solved = [t for t in times if t]
    raw = latency_metrics([statistics.median(dt for _, dt in t) for t in solved])
    scaled = latency_metrics([statistics.median(dt * cal.scale_at(at) for at, dt in t)
                              for t in solved])
    detail = {"loop_s": loop_s, "passes": passes, "samples": len(solved),
              "times_s": {wl.cases[j].key: [dt for _, dt in t]
                          for j, t in enumerate(times) if t}}
    return scaled, raw, detail


def layer_metrics(summary, untraced_s, traced_s):
    """Per-layer metrics of one traced pass (see README.md for each name)."""
    import spans
    calls, incl, self_s, counts = (summary["calls"], summary["incl_s"],
                                   summary["self_s"], summary["counts"])
    g = incl.get
    lp_calls = calls.get("solver.linprog", 0)
    lp_s = g("solver.linprog", 0.0)
    solves = counts.get("route.solve", {})
    nodes = solves.get("nodes", 0)
    solve_s = g("route.solve", 0.0)
    model = counts.get("bilp.build_model", {})
    trim = counts.get("texpand.trim", {})
    presolve = ("route.lower_bound_dijkstra", "route.lower_bound_single_team")
    return {
        "solver.lp_calls": (lp_calls, "count"),
        "solver.lp_s": (lp_s, "s"),
        "solver.lp_ms_per_call": (1e3 * lp_s / lp_calls if lp_calls else 0.0, "ms"),
        "solver.lp_per_node": (lp_calls / nodes if nodes else 0.0, "ratio"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "solver.solve_s": (solve_s, "s"),
        "solver.self_s": (self_s.get("route.solve", 0.0), "s"),
        "solver.prop_infeasible": (summary["solve_without_lp"], "count"),
        "bilp.build_s": (g("bilp.build_model", 0.0), "s"),
        "bilp.vars": (model.get("vars", 0), "count"),
        "bilp.rows": (model.get("rows", 0), "count"),
        "bilp.nonzeros": (model.get("nonzeros", 0), "count"),
        "texpand.expand_s": (g("texpand.expand", 0.0), "s"),
        "texpand.trim_s": (g("texpand.trim", 0.0), "s"),
        "texpand.kept_ratio": (trim["kept"] / trim["moves"] if trim.get("moves") else 0.0,
                               "ratio"),
        "route.attempts": (calls.get("route.solve", 0), "count"),
        "route.infeasible_attempts": (solves.get("infeasible", 0), "count"),
        "route.presolve_s": (sum(g(p, 0.0) for p in presolve), "s"),
        "route.presolve_self_s": (sum(self_s.get(p, 0.0) for p in presolve), "s"),
        "route.extract_s": (g("route.extract_paths", 0.0), "s"),
        "route.metrics_s": (g("route.metrics", 0.0), "s"),
        "route.self_s": (self_s.get(spans.ROOT, 0.0), "s"),
        "trace.solve_wall_s": (g(spans.ROOT, 0.0), "s"),
        "trace.self_sum_s": (sum(self_s.values()), "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.spans": (sum(calls.values()), "count"),
    }


COUNT_METRICS = ("solver.lp_calls", "solver.nodes", "solver.prop_infeasible", "bilp.vars",
                 "bilp.rows", "bilp.nonzeros", "texpand.kept_ratio", "route.attempts",
                 "route.infeasible_attempts", "trace.spans")


def traced_pass(wl, refs, order, deadline, solve_mqpf, validate, tally, first):
    """Each instance untraced, then traced.  None if the hard cap cut the pass;
    instances a cut first pass never reached count as failures."""
    import spans
    tracer = spans.Tracer()
    untraced_s = traced_s = 0.0
    for pos, idx in enumerate(order):
        if time.perf_counter() >= deadline:
            if first:
                tally.unsolved(wl, order[pos:])
            return None
        case, ref = wl.cases[idx], refs[idx]
        dt, sol, error = solve_once(solve_mqpf, case)
        untraced_s += dt
        tally.record(wl, idx, ref, sol, error, validate)
        tracer.instance = idx
        with tracer:
            dt, sol, error = solve_once(
                lambda *a: tracer.call(spans.ROOT, solve_mqpf, *a), case)
        traced_s += dt
        tally.record(wl, idx, ref, sol, error, validate)
    summary = spans.summarize(tracer.spans)
    return layer_metrics(summary, untraced_s, traced_s), tracer.spans


def run_traced(wl, refs, order, seconds, solve_mqpf, validate, tally):
    passes = []
    all_spans = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        done = traced_pass(wl, refs, order, start + HARD_CAP_S, solve_mqpf, validate, tally,
                           first=not passes)
        if done is None:
            break
        passes.append(done[0])
        all_spans.append(done[1])
    detail = {"passes": len(passes), "loop_s": time.perf_counter() - start}
    if not passes:
        return {}, detail, all_spans
    first = passes[0]
    for k, p in enumerate(passes[1:], 2):
        for name in COUNT_METRICS:
            if p[name][0] != first[name][0]:
                tally.failures.append(f"pass {k}: {name} {p[name][0]} != {first[name][0]}")
    for k, p in enumerate(passes, 1):
        wall, total = p["trace.solve_wall_s"][0], p["trace.self_sum_s"][0]
        if abs(wall - total) > 1e-9 * max(1.0, wall) * p["trace.spans"][0]:
            tally.failures.append(f"pass {k}: self times sum to {total!r}, wall {wall!r}")
    # counts from the first pass, times and ratios as the mean over passes
    # (a mean keeps the self times adding up to the traced wall time)
    metrics = {name: (value if name in COUNT_METRICS
                      else statistics.fmean(p[name][0] for p in passes), unit)
               for name, (value, unit) in first.items()}
    return metrics, detail, all_spans


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "swaproute" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    wl, refs, solve_mqpf, validate = setup(args)
    main_setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(main_setup_s))
        return 0
    setup_s, setup_samples = measure_setup(args, main_setup_s)

    import calibrate
    import corpora
    import spans
    order = corpora.visit_order(len(wl.cases), args.seed)
    tally = Tally()
    raw = {}
    if args.trace:
        metrics, detail, pass_spans = run_traced(wl, refs, order, args.seconds, solve_mqpf,
                                                 validate, tally)
    else:
        cal = calibrate.Calibration()
        metrics, raw, detail = run_untraced(wl, refs, order, args.seconds, solve_mqpf,
                                            validate, tally, cal)
        # set-up time is left in raw seconds: it moves with imports and file
        # access more than with the interpreter speed the kernel tracks
        metrics["setup_s"] = raw["setup_s"] = (setup_s, "s")
        detail["calibration"] = {"reference_kernel_s": calibrate.REFERENCE_KERNEL_S,
                                 "kernel_s": cal.samples,
                                 "at_s": [t - cal.at[0] for t in cal.at]}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        pass_spans = None
    failed = len(tally.failures)
    fail_ratio = failed / tally.attempted if tally.attempted else 1.0

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "corpus_size": len(wl.cases), "env": env,
              "setup_samples_s": setup_samples, "attempted": tally.attempted,
              "failed": failed, "fail_ratio": fail_ratio, "failures": tally.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
              "detail": detail}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if pass_spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": list(spans.SPAN_FIELDS), "passes": pass_spans}) + "\n")

    for msg in tally.failures[:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(wl.cases)} instances, seed {args.seed}, "
          f"closed loop, 1 caller, {tally.attempted} solves")
    print(f"fail_ratio {fail_ratio!r} ratio ({failed}/{tally.attempted})")
    for name, (value, unit) in raw.items():
        print(f"raw {name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
