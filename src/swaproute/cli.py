"""Command-line interface: single-instance solving, benchmark sweeps, and
solver-vs-oracle spot checks.

Exit codes: 0 success, 2 usage error, 3 timed out, 4 infeasible up to the
depth cap, 5 oracle mismatch, 6 solver failure (an LP relaxation the
solver could not solve).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import graph, instance as inst_mod, noise, oracle, route, solver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMED_OUT = 3
EXIT_INFEASIBLE = 4
EXIT_MISMATCH = 5
EXIT_SOLVER = 6

_MODE_NAMES = {"optimal": "optimal", "near-optimal": "near_optimal", "feasible": "feasible_first"}

BENCH_COLUMNS = [
    "layout", "n_qubits", "team_mode", "instance_seed", "noise_seed", "solver_mode",
    "error_model", "status", "depth", "swap_count", "cost", "error", "fidelity",
    "idle_ratio", "runtime_ms", "bilp_vars", "bilp_rows", "presolve_bound",
]


class UsageError(Exception):
    pass


def _positive_seconds(text):
    """argparse type of ``--timeout``: seconds > 0, ``inf`` allowed, ``nan`` not."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _int_in(low, high=None, cap=""):
    """argparse type of an integer option that must be >= ``low`` and, when
    ``high`` is given, <= ``high``, the limit that ``cap`` names."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, {cap}, got {value}")
        return value
    return parse


def _qubit_counts(text):
    """argparse type of ``--qubits``: ``lo..hi`` or a comma list of counts >= 1."""
    count = _int_in(1)
    if ".." not in text:
        return [count(x) for x in text.split(",")]
    lo, _, hi = text.partition("..")
    lo, hi = count(lo), count(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _file_text(path, text=None):
    """Reads ``path``, or writes ``text`` to it when given.  A path the CLI
    cannot read or write is a usage error that names it."""
    try:
        return Path(path).read_text() if text is None else Path(path).write_text(text)
    except (OSError, UnicodeDecodeError) as exc:
        action = "read" if text is None else "write"
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot {action} {path}: {reason}") from None


def _load_layout(args):
    g = graph.build_layout(args.layout)
    if getattr(args, "drop_node", None) is not None:
        g = graph.drop_node(g, args.drop_node)
    return g


def _load_noise(spec: str, g, seed: int):
    if spec in noise.PRESETS:
        return noise.sample_error_map(g, noise.PRESETS[spec], seed)
    if Path(spec).exists():
        return noise.load_error_map(_file_text(spec), g)
    raise UsageError(f"--noise must be a preset ({', '.join(noise.PRESETS)}) or a file path")


def _solve_args(sub):
    p = sub.add_parser("solve", help="solve a single routing instance")
    p.add_argument("--layout", required=True,
                   help="named layout or grid:RxC (e.g. grid:8x8)")
    p.add_argument("--drop-node", type=int, default=None,
                   help="remove a physical qubit (e.g. an offline one) before solving")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance file to solve")
    src.add_argument("--random", type=int, metavar="N",
                     help="sample a random instance with N abstract qubits")
    p.add_argument("--team-mode", choices=inst_mod.TEAM_MODES, default="independent")
    p.add_argument("--seed", type=_int_in(0), default=0, help="instance sampling seed")
    p.add_argument("--noise", default="heron", help="noise preset name or error-map file")
    p.add_argument("--noise-seed", type=_int_in(0), default=0)
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="optimal")
    p.add_argument("--error-model", choices=noise.ERROR_MODELS, default="extended")
    p.add_argument("--depth-slack", type=_int_in(0), default=0)
    p.add_argument("--presolve", choices=route.PRESOLVES, default="dijkstra",
                   help="where deepening starts: 'dijkstra' at the bottleneck-assignment "
                        "bound, 'single_team' at the larger of that and the single-team "
                        "bound, 'none' at depth 0; 'none' deepens an instance with no "
                        "destination assignment up to the node_count^2 cap on purpose, "
                        "as an independent witness that the other bounds are sound")
    p.add_argument("--no-trim", action="store_true", help="disable variable trimming")
    p.add_argument("--timeout", type=_positive_seconds, default=None, help="seconds, > 0")
    p.add_argument("--flexible", action="store_true",
                   help="treat destinations as flexible (teams may share)")
    p.add_argument("--export-lp", metavar="PATH",
                   help="write the model at the hop lower-bound depth in LP "
                        "format and exit without solving")
    p.add_argument("--out", metavar="PATH", help="write the solution JSON here")
    p.set_defaults(func=cmd_solve)


def cmd_solve(args):
    g = _load_layout(args)
    if args.instance is not None:
        inst = inst_mod.load_instance(_file_text(args.instance))
    else:
        inst = inst_mod.random_instance(g, args.random, args.team_mode, args.seed)
    if args.flexible:
        inst = dataclasses.replace(inst, flexible=True)
    violations = inst_mod.validate(g, inst)
    if violations:
        raise UsageError("invalid instance: " + "; ".join(violations))
    emap = _load_noise(args.noise, g, args.noise_seed)

    if args.export_lp is not None:
        costs = noise.movement_costs(g, emap, args.error_model)
        depth = route.lower_bound_dijkstra(inst=inst, g=g)
        _, model = route.model_at_depth(g, inst, costs, depth, trim=not args.no_trim)
        _file_text(args.export_lp, solver.export_lp(model))
        print(f"wrote LP model ({model.var_count} vars, {model.row_count} rows, "
              f"depth {depth}) to {args.export_lp}")
        return EXIT_OK

    cfg = route.RouteConfig(
        solver=solver.SolverConfig(mode=_MODE_NAMES[args.mode]),
        error_model=args.error_model,
        depth_slack=args.depth_slack,
        presolve=args.presolve,
        timeout=args.timeout,
        trim=not args.no_trim,
    )
    sol = route.solve_mqpf(g, emap, inst, cfg)
    if args.out:
        _file_text(args.out, route.solution_to_json(sol))
    if sol.solved:
        print(f"status={sol.status} depth={sol.depth} swaps={sol.swap_count} "
              f"cost={sol.cost:.6g} error={sol.error:.6g} fidelity={sol.fidelity:.6g}")
        return EXIT_OK
    print(f"status={sol.status}", file=sys.stderr)
    return EXIT_TIMED_OUT if sol.status == "timed_out" else EXIT_INFEASIBLE


def _bench_args(sub):
    p = sub.add_parser("bench", help="run a benchmark sweep, emitting CSV rows")
    p.add_argument("--layout", required=True)
    p.add_argument("--qubits", required=True, type=_qubit_counts,
                   help="abstract qubit counts: 'lo..hi' or comma list")
    p.add_argument("--instances", type=_int_in(1), default=10)
    p.add_argument("--team-mode", choices=inst_mod.TEAM_MODES, default="independent")
    p.add_argument("--modes", default="optimal",
                   help="comma list from: " + ", ".join(sorted(_MODE_NAMES)))
    p.add_argument("--error-model", choices=noise.ERROR_MODELS, default="extended")
    p.add_argument("--timeout", type=_positive_seconds, default=3600.0,
                   help="seconds per instance, > 0")
    p.add_argument("--noise-preset", choices=sorted(noise.PRESETS), default="heron")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--jobs", type=_int_in(1), default=1)
    p.set_defaults(func=cmd_bench)


def _bench_seeds(base_seed, n_qubits, idx):
    # documented derivation so sweeps are reproducible row by row
    instance_seed = base_seed * 1_000_000 + n_qubits * 1_000 + idx
    noise_seed = instance_seed + 500
    return instance_seed, noise_seed


def _bench_one(task):
    args, n_qubits, idx, mode_cli = task
    g = graph.build_layout(args.layout)
    instance_seed, noise_seed = _bench_seeds(args.seed, n_qubits, idx)
    inst = inst_mod.random_instance(g, n_qubits, args.team_mode, instance_seed)
    emap = noise.sample_error_map(g, noise.PRESETS[args.noise_preset], noise_seed)
    cfg = route.RouteConfig(
        solver=solver.SolverConfig(mode=_MODE_NAMES[mode_cli]),
        error_model=args.error_model, timeout=args.timeout)
    t0 = time.monotonic()
    sol = route.solve_mqpf(g, emap, inst, cfg)
    runtime_ms = (time.monotonic() - t0) * 1e3
    row = {c: "" for c in BENCH_COLUMNS}
    row.update(layout=args.layout, n_qubits=n_qubits, team_mode=args.team_mode,
               instance_seed=instance_seed, noise_seed=noise_seed,
               solver_mode=mode_cli, error_model=args.error_model, status=sol.status,
               runtime_ms=f"{runtime_ms:.1f}", presolve_bound=sol.presolve_bound)
    if sol.solved:
        row.update(depth=sol.depth, swap_count=sol.swap_count,
                   cost=f"{sol.cost:.12g}", error=f"{sol.error:.12g}",
                   fidelity=f"{sol.fidelity:.12g}",
                   idle_ratio="" if sol.idle_ratio is None else f"{sol.idle_ratio:.12g}",
                   bilp_vars=sol.bilp_vars, bilp_rows=sol.bilp_rows)
    return row


def cmd_bench(args):
    # fail on an unknown layout, mode or qubit count before the header is written
    node_count = _load_layout(args).node_count
    modes = [m.strip() for m in args.modes.split(",")]
    for m in modes:
        if m not in _MODE_NAMES:
            raise UsageError(f"unknown mode {m!r}")
    if max(args.qubits) > node_count:
        raise UsageError(f"--qubits {max(args.qubits)} exceeds the {node_count} nodes "
                         f"of {args.layout}")
    tasks = [(args, n_qubits, idx, mode_cli) for n_qubits in args.qubits
             for idx in range(args.instances) for mode_cli in modes]
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    # --jobs 1 solves in this process and starts none
    with ProcessPoolExecutor(args.jobs) if args.jobs > 1 else nullcontext() as pool:
        for row in (pool.map if pool else map)(_bench_one, tasks):
            writer.writerow(row)
            sys.stdout.flush()
    return EXIT_OK


def _oracle_args(sub):
    p = sub.add_parser("oracle-check",
                       help="cross-check the solver against brute-force ground truth")
    cap = oracle._BFS_NODE_CAP
    p.add_argument("--nodes-max", type=_int_in(2, cap, "the oracle's node cap"),
                   default=8, help=f"largest random graph, in nodes (2..{cap})")
    p.add_argument("--samples", type=_int_in(0), default=50)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(func=cmd_oracle_check)


def random_connected_graph(n, rng):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = list(rng.permutation(n))
    for pos in range(1, n):
        a = order[pos]
        b = order[int(rng.integers(0, pos))]
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add((min(a, b), max(a, b)))
    return graph.HardwareGraph(n, sorted(edges))


def cmd_oracle_check(args):
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    for s in range(args.samples):
        n = int(rng.integers(2, args.nodes_max + 1))
        g = random_connected_graph(n, rng)
        n_qubits = int(rng.integers(1, min(n, 4) + 1))
        mode = inst_mod.TEAM_MODES[int(rng.integers(0, 3))]
        inst = inst_mod.random_instance(g, n_qubits, mode, int(rng.integers(0, 2**31)))
        emap = noise.sample_error_map(g, noise.PRESETS["heron"], int(rng.integers(0, 2**31)))
        sol = route.solve_mqpf(g, emap, inst)
        expect = oracle.bfs_optimal_depth(g, inst)
        if not sol.solved or sol.depth != expect:
            mismatches += 1
            got = sol.depth if sol.solved else sol.status
            print(f"MISMATCH sample {s}: solver {got} vs oracle {expect}", file=sys.stderr)
    print(f"{mismatches} mismatches / {args.samples} samples")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swaproute",
        description="Exact multi-team qubit routing via parallel SWAPs.")
    sub = parser.add_subparsers(dest="command", required=True)
    _solve_args(sub)
    _bench_args(sub)
    _oracle_args(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, graph.GraphError, inst_mod.InstanceError, noise.NoiseError,
            route.RouteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except solver.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
