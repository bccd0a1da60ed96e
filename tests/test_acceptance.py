"""Acceptance gate: end-to-end correctness, soundness, and performance checks.

Each test prints one PASS/FAIL line.  Tests run in definition order; the
instance/solution sets collected by criterion 1 feed criteria 4, 5 and 11.
"""

import math
import time

import numpy as np
import pytest

from swaproute import oracle, route
from swaproute.graph import HardwareGraph, build_grid
from swaproute.instance import MqpfInstance, random_instance
from swaproute.noise import (HERON, accumulated_error, idle_error, movement_costs,
                             sample_error_map, split_cnot_error)
from swaproute.route import (RouteConfig, lower_bound_dijkstra, metrics,
                             solve_mqpf, validate)
from swaproute.solver import SolverConfig

from conftest import build_cycle, random_maybe_flexible_instance, uniform_error_map

PER_GRAPH = 500

# criterion-1 corpus: one path, one cycle, one grid, all <= 6 nodes
GRAPHS = {
    "path6": build_grid(1, 6),
    "cycle6": build_cycle(6),
    "grid2x3": build_grid(2, 3),
}

# (graph name, instance, solution) tuples accumulated by criterion 1
_SOLVED = []


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def _criterion1_instances(g):
    for seed in range(PER_GRAPH):
        n_qubits = 1 + seed % 4
        mode = ("independent", "mixed", "single")[seed % 3]
        flexible = seed % 2 == 1
        yield random_maybe_flexible_instance(g, n_qubits, mode, seed, flexible)


def test_criterion_1_oracle_depth_equivalence(capsys):
    mismatches = 0
    total = 0
    for name, g in GRAPHS.items():
        emap = uniform_error_map(g)
        for inst in _criterion1_instances(g):
            sol = solve_mqpf(g, emap, inst)
            expect = oracle.bfs_optimal_depth(g, inst)
            total += 1
            if not sol.solved or sol.depth != expect:
                mismatches += 1
            else:
                _SOLVED.append((name, inst, sol))
    _report(capsys, 1, "oracle depth equivalence", mismatches == 0,
            f"{mismatches} mismatches over {total} instances")


def test_criterion_2_oracle_cost_equivalence(capsys):
    g = build_grid(2, 2)
    emap = sample_error_map(g, HERON, 0)
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 200:
        seed += 1
        inst = random_instance(g, 1 + seed % 3, ("independent", "mixed", "single")[seed % 3],
                               seed)
        if oracle.bfs_optimal_depth(g, inst) > 3:
            continue
        for model in ("simple", "extended"):
            cfg = RouteConfig(error_model=model)
            sol = solve_mqpf(g, emap, inst, cfg)
            costs = movement_costs(g, emap, model)
            expect = oracle.exhaustive_min_cost(g, costs, inst, sol.depth)
            assert expect is not None
            worst = max(worst, abs(sol.cost - expect))
        checked += 1
    _report(capsys, 2, "oracle cost equivalence", worst <= 1e-9,
            f"{checked} instances, both error models, max deviation {worst:.2e}")


def test_criterion_3_two_team_path_example(capsys):
    # Fixed published example: two teams on a 4-node path, depth 3.  The
    # 0-1-2-3 node ordering needs depth 4 (confirmed by the oracle), so the
    # path is read with node order 1-0-2-3, which the oracle verifies at 3.
    g = HardwareGraph(4, [(0, 1), (0, 2), (2, 3)])
    inst = MqpfInstance(sources=((0,), (2, 3)), destinations=((3,), (0, 1)))
    assert oracle.bfs_optimal_depth(g, inst) == 3
    sol = solve_mqpf(g, uniform_error_map(g), inst)
    ok = sol.status == "optimal" and sol.depth == 3 and validate(g, inst, sol) == []
    _SOLVED.append(("path4-relabeled", inst, sol))
    _report(capsys, 3, "two-team 4-path example", ok,
            f"status={sol.status} depth={sol.depth}")


def test_criterion_4_validity(capsys):
    assert len(_SOLVED) >= 3 * PER_GRAPH  # criteria 1 and 3 ran first
    bad = 0
    for name, inst, sol in _SOLVED:
        g = GRAPHS.get(name) or HardwareGraph(4, [(0, 1), (0, 2), (2, 3)])
        if validate(g, inst, sol):
            bad += 1
    fuzz_bad = 0
    for seed in range(1000):
        g = build_grid(2, 4) if seed % 2 else build_grid(1, 7)
        emap = uniform_error_map(g)
        inst = random_maybe_flexible_instance(
            g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3],
            10**6 + seed, seed % 3 == 0)
        model = ("simple", "extended")[seed % 2]
        sol = solve_mqpf(g, emap, inst, RouteConfig(error_model=model))
        if not sol.solved or validate(g, inst, sol):
            fuzz_bad += 1
    _report(capsys, 4, "solution validity", bad == 0 and fuzz_bad == 0,
            f"{bad} invalid among {len(_SOLVED)} collected, "
            f"{fuzz_bad} invalid among 1000 fuzz instances")


def test_criterion_5_trimming_soundness(capsys):
    worst = 0.0
    depth_diffs = 0
    checked = 0
    for name, inst, sol in _SOLVED:
        if name not in GRAPHS:
            continue
        g = GRAPHS[name]
        emap = uniform_error_map(g)
        untrimmed = solve_mqpf(g, emap, inst, RouteConfig(trim=False))
        checked += 1
        if untrimmed.depth != sol.depth:
            depth_diffs += 1
        else:
            worst = max(worst, abs(untrimmed.cost - sol.cost))
    ok = depth_diffs == 0 and worst <= 1e-9
    _report(capsys, 5, "trimming soundness", ok,
            f"{depth_diffs} depth diffs, max cost deviation {worst:.2e} "
            f"over {checked} instances")


def test_criterion_6_presolve_soundness(capsys):
    g = build_grid(2, 3)
    emap = uniform_error_map(g)
    presolve_diffs = 0
    for seed in range(100):
        inst = random_instance(g, 1 + seed % 4,
                               ("independent", "mixed", "single")[seed % 3], seed)
        depths = {
            p: solve_mqpf(g, emap, inst, RouteConfig(presolve=p)).depth
            for p in ("none", "dijkstra", "single_team")
        }
        if len(set(depths.values())) != 1:
            presolve_diffs += 1
    mono_bad = 0
    for seed in range(200):
        n = 2 + seed % 3
        single = random_instance(g, n, "single", seed)
        indep = MqpfInstance(
            sources=tuple((v,) for v in single.sources[0]),
            destinations=tuple((v,) for v in single.destinations[0]))
        d_single = solve_mqpf(g, emap, single).depth
        d_indep = solve_mqpf(g, emap, indep).depth
        if d_single > d_indep:
            mono_bad += 1
    ok = presolve_diffs == 0 and mono_bad == 0
    _report(capsys, 6, "presolve soundness and monotonicity", ok,
            f"{presolve_diffs} presolve depth diffs / 100, "
            f"{mono_bad} monotonicity violations / 200")


def test_criterion_7_error_arithmetic(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for e in rng.uniform(1e-9, 0.99, size=10**4):
        c = -math.log(1.0 - e)
        back, _ = accumulated_error(c)
        worst = max(worst, abs(back - e))
        out = split_cnot_error(e)
        worst = max(worst, abs((1.0 - out) ** 2 - (1.0 - e)))
    worst = max(worst, abs(idle_error(176.0, 140.0, 0.0)))
    for t in (1e-9, 79e-9, 5e-7):
        worst = max(worst, abs(idle_error(150.0, 150.0, t)
                               - (1.0 - math.exp(-t / 150e-6))))
    _report(capsys, 7, "error arithmetic", worst <= 1e-12,
            f"max deviation {worst:.2e} over 10^4 samples")


def test_criterion_8_mode_dominance(capsys):
    g = build_grid(2, 3)
    emap = sample_error_map(g, HERON, 8)
    dominance_bad = 0
    gap_bad = 0
    completed = 0
    settled = 0  # answers the planner's schedule settled, with no model searched
    for seed in range(100):
        inst = random_instance(g, 2 + seed % 3,
                               ("independent", "mixed", "single")[seed % 3], seed)
        sols = {m: solve_mqpf(g, emap, inst,
                              RouteConfig(error_model="extended",
                                          solver=SolverConfig(mode=m)))
                for m in ("optimal", "near_optimal", "feasible_first")}
        if not all(s.solved for s in sols.values()):
            continue
        completed += 1
        settled += sum(sols[m].bilp_vars is None for m in ("near_optimal", "feasible_first"))
        c_o, c_n, c_f = (sols[m].cost for m in ("optimal", "near_optimal",
                                                "feasible_first"))
        if not (c_o <= c_n + 1e-9 <= c_f + 2e-9):
            dominance_bad += 1
        near = sols["near_optimal"]
        # certified stopping condition: relative gap <= 8% or absolute <= 0.08
        if near.solver_status == "feasible":
            rel = near.solver_gap
            abs_gap = rel * c_n if rel is not None else None
            if rel is None or (rel > 0.08 + 1e-9 and abs_gap > 0.08 + 1e-9):
                gap_bad += 1
    ok = completed == 100 and dominance_bad == 0 and gap_bad == 0 and settled > 0
    _report(capsys, 8, "mode dominance and near-optimal gap", ok,
            f"{completed}/100 completed, {dominance_bad} dominance violations, "
            f"{gap_bad} gap violations, {settled} answers settled by the planner")


def test_criterion_9_equal_depth_optimal_beats_feasible(capsys):
    g = build_grid(2, 3)
    emap = sample_error_map(g, HERON, 9)
    bad = 0
    pairs = 0
    for seed in range(40):
        inst = random_instance(g, 2 + seed % 4,
                               ("independent", "mixed", "single")[seed % 3], seed)
        opt = solve_mqpf(g, emap, inst,
                         RouteConfig(error_model="extended",
                                     solver=SolverConfig(mode="optimal")))
        fea = solve_mqpf(g, emap, inst,
                         RouteConfig(error_model="extended",
                                     solver=SolverConfig(mode="feasible_first")))
        if opt.depth != fea.depth:
            bad += 1
            continue
        pairs += 1
        if opt.cost > fea.cost + 1e-9:
            bad += 1
    ok = bad == 0 and pairs >= 30
    _report(capsys, 9, "equal-depth optimal cost <= feasible cost", ok,
            f"{pairs} equal-depth pairs, {bad} violations")


def test_criterion_10_desk_scale_performance(capsys):
    g = build_grid(8, 8)
    within_budget = 0
    times = []
    for seed in range(10):
        inst = random_instance(g, 8, "independent", seed)
        emap = sample_error_map(g, HERON, seed + 1000)
        cfg = RouteConfig(error_model="extended",
                          solver=SolverConfig(mode="optimal"), timeout=300.0)
        t0 = time.monotonic()
        sol = solve_mqpf(g, emap, inst, cfg)
        dt = time.monotonic() - t0
        times.append(dt)
        if sol.status == "optimal" and dt <= 300.0:
            within_budget += 1
    _report(capsys, 10, "desk-scale performance", within_budget >= 8,
            f"{within_budget}/10 optimal within 300 s, max {max(times):.1f} s")


def test_criterion_11_bound_sanity(capsys):
    bad = 0
    for name, inst, sol in _SOLVED:
        g = GRAPHS.get(name) or HardwareGraph(4, [(0, 1), (0, 2), (2, 3)])
        lb = lower_bound_dijkstra(g, inst)
        if not (lb <= sol.depth <= g.node_count**2):
            bad += 1
        if inst.team_count == 1:
            n = inst.qubit_count
            if sol.depth > n + g.node_count - 1:
                bad += 1
    _report(capsys, 11, "bound sanity", bad == 0,
            f"{bad} violations over {len(_SOLVED)} instances")
