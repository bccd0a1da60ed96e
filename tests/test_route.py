import hashlib
import json
import math
import time
from dataclasses import replace

import pytest

from swaproute import bilp, oracle, plan, route, solver, texpand
from swaproute.graph import HardwareGraph, build_grid, build_layout, distances_from_set
from swaproute.instance import MqpfInstance, merge_teams, random_instance
from swaproute.noise import HERON, movement_costs, sample_error_map
from swaproute.route import (RouteConfig, RouteError, lower_bound_dijkstra,
                             lower_bound_matching, lower_bound_single_team, metrics,
                             schedule_from_paths, solution_to_json, solve_mqpf,
                             validate)
from swaproute.solver import NEAR_GAP, SolverConfig, _check_assignment

from conftest import build_cycle, random_maybe_flexible_instance, uniform_error_map


def relabeled_path4():
    # 4-node path in node order 1-0-2-3
    return HardwareGraph(4, [(0, 1), (0, 2), (2, 3)])


def two_team_instance():
    return MqpfInstance(sources=((0,), (2, 3)), destinations=((3,), (0, 1)))


def test_dijkstra_bound_zero_when_solved():
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0, 1),), destinations=((0, 1),))
    assert lower_bound_dijkstra(g, inst) == 0


def test_dijkstra_bound_path_distance():
    g = build_grid(1, 4)
    inst = MqpfInstance(sources=((0,),), destinations=((3,),))
    assert lower_bound_dijkstra(g, inst) == 3


def test_dijkstra_bound_two_teams():
    g = build_grid(1, 4)
    inst = MqpfInstance(sources=((0,), (3,)), destinations=((3,), (0,)))
    assert lower_bound_dijkstra(g, inst) == 3


def test_single_team_bound_identity_on_single_team():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,),), destinations=((2,),))
    assert lower_bound_single_team(g, inst) == 2


def test_single_team_bound_swap_pair_is_zero():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (0,)))
    assert lower_bound_single_team(g, inst) == 0


def test_matching_bound_one_qubit_teams_is_hop_bound():
    g = build_grid(1, 4)
    inst = MqpfInstance(sources=((0,), (3,)), destinations=((3,), (0,)))
    assert lower_bound_matching(g, inst) == lower_bound_dijkstra(g, inst) == 3


def test_matching_bound_between_hop_bound_and_oracle():
    # the criterion-1 generator: every team mode, strict and flexible
    above = 0
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            hop, matching = lower_bound_dijkstra(g, inst), lower_bound_matching(g, inst)
            assert hop <= matching <= oracle.bfs_optimal_depth(g, inst)
            above += matching > hop
    assert above > 0


def relabeled_path6_instance():
    # qubits 3 and 4 both have destination 5 nearest, so one of them goes to 0
    return MqpfInstance(sources=((3, 4), (2, 5)), destinations=((0, 5), (1, 3)),
                        flexible=True)


def record_depths(monkeypatch, inst):
    """The depths of the expansions built for ``inst`` (not for a merged instance)."""
    tried = []
    expand = route.expansion_at_depth

    def recorded(g_, inst_, depth, *args):
        if inst_ is inst:
            tried.append(depth)
        return expand(g_, inst_, depth, *args)
    monkeypatch.setattr(route, "expansion_at_depth", recorded)
    return tried


def test_dijkstra_deepening_starts_at_matching_bound(monkeypatch):
    g = build_grid(1, 6)
    inst = relabeled_path6_instance()
    assert (lower_bound_dijkstra(g, inst), lower_bound_matching(g, inst)) == (2, 3)
    tried = record_depths(monkeypatch, inst)
    sol = solve_mqpf(g, uniform_error_map(g), inst)
    assert sol.solved and sol.depth == oracle.bfs_optimal_depth(g, inst) == 4
    assert tried == [3, 4]
    assert sol.presolve_bound == 2


def shared_destination_instance():
    # two one-qubit teams whose only destination is the same node
    return MqpfInstance(sources=((0,), (1,)), destinations=((15,), (15,)), flexible=True)


@pytest.mark.parametrize("presolve,presolve_bound", [("dijkstra", 6), ("single_team", None)])
def test_no_matching_is_infeasible_at_once(presolve, presolve_bound, monkeypatch):
    g = build_grid(4, 4)
    inst = shared_destination_instance()
    assert lower_bound_matching(g, inst) is None
    tried = record_depths(monkeypatch, inst)
    start = time.monotonic()
    sol = solve_mqpf(g, uniform_error_map(g), inst,
                     RouteConfig(presolve=presolve, timeout=60))
    assert time.monotonic() - start < 1.0
    assert sol.status == "infeasible_up_to_cap"
    assert sol.presolve_bound == presolve_bound
    assert tried == []


# lower_bound_single_team before the matching-bound start and the unit movement
# costs of the merged solve: desk8x8 seeds 0..9, which the planner settles, and
# 20, 21 and 34, which it does not (seed 20 is infeasible at its merged matching
# bound, 6), then criterion-1 instances (graph, seed) with a multi-qubit team
DESK_SINGLE_TEAM_BOUNDS = {0: 5, 1: 4, 2: 5, 3: 6, 4: 4, 5: 6, 6: 4, 7: 5, 8: 6, 9: 4,
                           20: 7, 21: 6, 34: 4}
DESK_UNPLANNED_MERGED = (20, 21, 34)
TINY_SINGLE_TEAM_BOUNDS = {
    ("path6", 2): 1, ("path6", 5): 1, ("path6", 7): 3, ("path6", 10): 2,
    ("path6", 11): 2, ("path6", 13): 2, ("path6", 14): 1,
    ("cycle6", 2): 1, ("cycle6", 5): 1, ("cycle6", 7): 2, ("cycle6", 10): 2,
    ("cycle6", 11): 2, ("cycle6", 13): 1, ("cycle6", 14): 1,
    ("grid2x3", 2): 1, ("grid2x3", 5): 2, ("grid2x3", 7): 2, ("grid2x3", 10): 2,
    ("grid2x3", 11): 2, ("grid2x3", 13): 2, ("grid2x3", 14): 3,
}
TINY_GRAPHS = {"path6": build_grid(1, 6), "cycle6": build_cycle(6),
               "grid2x3": build_grid(2, 3)}


def single_team_cases():
    g = build_layout("grid:8x8")
    for seed, bound in DESK_SINGLE_TEAM_BOUNDS.items():
        yield g, random_instance(g, 8, "independent", seed), bound
    for (name, seed), bound in TINY_SINGLE_TEAM_BOUNDS.items():
        g = TINY_GRAPHS[name]
        inst = random_maybe_flexible_instance(
            g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed, seed % 2 == 1)
        assert max(map(len, inst.sources)) > 1
        yield g, inst, bound


def test_single_team_bound_pinned(monkeypatch):
    merged_depths, models = [], []
    expand, build = route.expansion_at_depth, bilp.build_model

    def recorded(g_, inst_, depth, *args):
        merged_depths.append(depth)
        return expand(g_, inst_, depth, *args)

    def built(teg, costs):
        models.append(build(teg, costs))
        return models[-1]
    monkeypatch.setattr(route, "expansion_at_depth", recorded)
    monkeypatch.setattr(bilp, "build_model", built)
    desk = build_layout("grid:8x8")
    unplanned = [random_instance(desk, 8, "independent", s) for s in DESK_UNPLANNED_MERGED]
    desk_built = []
    for g, inst, bound in single_team_cases():
        merged_depths.clear()
        before = len(models)
        assert lower_bound_single_team(g, inst) == bound
        assert merged_depths[0] == lower_bound_matching(g, merge_teams(inst))
        assert merged_depths[-1] == bound
        if g == desk:
            desk_built.append((len(models) > before, inst in unplanned))
    # a schedule planned at the merged matching bound settles it with no model
    assert desk_built == [(False, False)] * 10 + [(True, True)] * 3
    # the feasible_first depth does not depend on the costs, so the pins cannot
    # see them: every merged model costs 1.0 per movement and 0.0 otherwise
    assert models
    for model in models:
        kind, i, j = model.var_keys[:, 0], model.var_keys[:, 3], model.var_keys[:, 4]
        moving = (kind == bilp.MOVE) & (i != j)
        assert moving.any() and not moving.all()
        assert (model.objective[moving] == 1.0).all()
        assert (model.objective[~moving] == 0.0).all()


def test_single_team_presolve_solves_on_unit_costs_in_movement_order(monkeypatch):
    # each single_team solve hands its merged solve a cost of 1.0 on every
    # swap direction and 0.0 on every idle step, in movement order
    merged = []
    deepen = route._deepen

    def recorded(g_, inst_, cfg_, costs):
        if costs.model == "simple":
            merged.append(costs)
        return deepen(g_, inst_, cfg_, costs)
    monkeypatch.setattr(route, "_deepen", recorded)
    cfg = RouteConfig(error_model="extended", presolve="single_team")
    for seed in (1, 2):
        g = build_grid(2, 3)
        sol = solve_mqpf(g, uniform_error_map(g), random_instance(g, 3, "mixed", seed), cfg)
        assert sol.solved
    assert len(merged) == 2
    unit = [float(i != j) for i, j in texpand.graph_tables(g).moves]
    assert all(costs.vector.tolist() == unit for costs in merged)


def corrupt_plans(monkeypatch):
    """Makes every planned 8x8 schedule break the problem's rules: the last
    qubit's path jumps to a non-neighbour."""
    plan_paths = plan.plan_paths

    def corrupted(*args):
        paths = plan_paths(*args)
        *kept, (s, *rest) = paths
        return (*kept, (s, *[(s + 9) % 64] * len(rest)))
    monkeypatch.setattr(plan, "plan_paths", corrupted)


def test_single_team_planned_schedule_is_validated(monkeypatch):
    # a planned merged schedule that breaks the problem's rules is an error,
    # not a depth
    corrupt_plans(monkeypatch)
    g = build_layout("grid:8x8")
    with pytest.raises(solver.SolverError, match="failed validation"):
        lower_bound_single_team(g, random_instance(g, 8, "independent", 0))


def test_single_team_presolve_plans_each_merged_depth_once(monkeypatch):
    # the seeds whose merged matching bound the planner does not settle: every
    # merged depth tried is expanded and planned once, by the merged solve alone
    g = build_layout("grid:8x8")
    expand, plan_paths = route.expansion_at_depth, plan.plan_paths
    for seed in DESK_UNPLANNED_MERGED:
        inst = random_instance(g, 8, "independent", seed)
        expanded, planned = [], []
        monkeypatch.setattr(route, "expansion_at_depth",
                            lambda g_, i_, d, *a: expanded.append(d) or expand(g_, i_, d, *a))
        monkeypatch.setattr(plan, "plan_paths", lambda walks, *a: planned.append(
            walks.expansion.depth) or plan_paths(walks, *a))
        bound = lower_bound_single_team(g, inst)
        assert bound == DESK_SINGLE_TEAM_BOUNDS[seed]
        first = lower_bound_matching(g, merge_teams(inst))
        assert planned == expanded == list(range(first, bound + 1)), seed


def count_models(monkeypatch):
    """Counts ``bilp.build_model`` and ``route.solve`` calls from here on."""
    calls = {"build_model": 0, "solve": 0}
    for module, name in ((bilp, "build_model"), (route, "solve")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", ("near_optimal", "feasible_first"))
def test_settled_attempt_builds_no_model_and_validates_its_paths(mode, monkeypatch):
    # criterion-10 seed 2: the planned schedule settles the attempt at the
    # optimal depth, 10, so no model is built or searched; the planner's paths
    # are checked against the instance instead, once per settled attempt
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", 2)
    emap = sample_error_map(g, HERON, 1002)
    cfg = RouteConfig(error_model="extended", timeout=60, solver=SolverConfig(mode=mode))
    checked = []
    check = route.validate
    monkeypatch.setattr(route, "validate", lambda *a: checked.append(1) or check(*a))
    calls = count_models(monkeypatch)
    sol = solve_mqpf(g, emap, inst, cfg)
    assert (sol.status, sol.depth, sol.solver_status) == ("feasible", 10, "feasible")
    assert calls == {"build_model": 0, "solve": 0} and len(checked) == 1
    assert (sol.bilp_vars, sol.bilp_rows) == (None, None)
    assert not validate(g, inst, sol)
    # a settled schedule that breaks the problem's rules is a solver error
    corrupt_plans(monkeypatch)
    with pytest.raises(solver.SolverError, match="failed validation"):
        solve_mqpf(g, emap, inst, cfg)


def test_skipping_the_model_loses_nothing(monkeypatch):
    # every attempt that the acceptance rule settles on the criterion-1 corpus
    # (feasible_first and near_optimal) and criterion-10 seeds 0-9
    # (near_optimal): the start that solve would have been handed passes the
    # exact row check, decodes to the planner's paths, and its objective is
    # the planned cost to the last bit
    settled = []
    plan_expansion, plan_paths = plan.plan_expansion, plan.plan_paths

    def witnessed(teg, costs, narrow, mode):
        planned = plan_expansion(teg, costs, narrow, mode)
        if solver.settled(mode, planned.cost, planned.floor):
            # the same schedule, planned in the same mode, with its start
            with monkeypatch.context() as m:
                m.setattr(plan, "plan_paths", lambda walks, _: plan_paths(walks, mode))
                full = plan_expansion(teg, costs, narrow)
            model = bilp.build_model(full.expansion, costs)
            assert full.paths == planned.paths and full.cost == planned.cost
            assert planned.start is None and planned.basis is None
            assert _check_assignment(model, full.start)
            assert route.extract_paths(full.start, full.expansion, model) == planned.paths
            assert float(model.objective @ full.start) == planned.cost
            settled.append(mode)
        return planned
    monkeypatch.setattr(plan, "plan_expansion", witnessed)
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(500):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            for mode in ("feasible_first", "near_optimal"):
                sol = solve_mqpf(g, uniform_error_map(g), inst,
                                 RouteConfig(solver=SolverConfig(mode=mode)))
                assert sol.solved and not validate(g, inst, sol)
    tiny = (settled.count("feasible_first"), settled.count("near_optimal"))
    settled.clear()
    desk = build_grid(8, 8)
    for seed in range(10):
        sol = solve_mqpf(desk, sample_error_map(desk, HERON, seed + 1000),
                         random_instance(desk, 8, "independent", seed),
                         RouteConfig(error_model="extended", timeout=60,
                                     solver=SolverConfig(mode="near_optimal")))
        assert sol.solved
    # on the criterion-1 corpus every cost lies within the absolute gap, so
    # near_optimal settles every attempt that feasible_first does
    assert (*tiny, len(settled)) == (1458, 1458, 10)


@pytest.mark.parametrize("presolve", route.PRESOLVES)
def test_solve_runs_one_bfs_per_source_and_destination_node(presolve, monkeypatch):
    g = build_grid(3, 3)
    texpand.graph_tables.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return distances_from_set(*args)
    monkeypatch.setattr(texpand, "distances_from_set", counted)
    inst = random_instance(g, 4, "mixed", 3)
    for _ in range(2):
        assert solve_mqpf(g, uniform_error_map(g), inst, RouteConfig(presolve=presolve)).solved
    assert sorted(calls) == [(v,) for v in sorted({*sum(inst.sources, ()),
                                                   *sum(inst.destinations, ())})]


def test_solve_already_solved():
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((0,), (1,)))
    sol = solve_mqpf(g, uniform_error_map(g), inst)
    assert sol.status == "optimal"
    assert sol.depth == 0
    assert sol.cost == 0.0
    assert sol.fidelity == 1.0


def test_solve_swap_pair_simple_model():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (0,)))
    sol = solve_mqpf(g, uniform_error_map(g, eps=0.001), inst)
    assert sol.depth == 1
    assert sol.swap_count == 1
    assert sol.error == pytest.approx(1.0 - 0.999**3, abs=1e-12)
    assert sol.fidelity == pytest.approx(0.999**3, abs=1e-12)


def test_solve_two_team_example_depth_three():
    g = relabeled_path4()
    sol = solve_mqpf(g, uniform_error_map(g), two_team_instance())
    assert sol.status == "optimal"
    assert sol.depth == 3
    assert len(sol.paths) == 3
    assert all(len(p) == 4 for p in sol.paths)
    assert validate(g, two_team_instance(), sol) == []


def test_extract_paths_positional_identity():
    g = relabeled_path4()
    sol = solve_mqpf(g, uniform_error_map(g), two_team_instance())
    assert sol.teams == (0, 1, 1)
    assert sol.paths[0][0] == 0       # team 0 qubit starts at its source
    assert sol.paths[1][0] == 2       # team 1 qubits sorted by source node
    assert sol.paths[2][0] == 3


def test_validate_accepts_swap_crossing():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (0,)))
    sol = route.RoutingSolution(status="optimal", depth=1, teams=(0, 1),
                                paths=((0, 1), (1, 0)))
    assert validate(g, inst, sol) == []


def test_validate_rejects_collision():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,), (2,)), destinations=((1,), (1,)))
    sol = route.RoutingSolution(status="optimal", depth=1, teams=(0, 1),
                                paths=((0, 1), (2, 1)))
    assert any("both at node" in v for v in validate(g, inst, sol))


def test_validate_rejects_non_swap_movement():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (2,)))
    sol = route.RoutingSolution(status="optimal", depth=1, teams=(0, 1),
                                paths=((0, 1), (1, 2)))
    assert any("without swapping" in v for v in validate(g, inst, sol))


def test_validate_rejects_non_edge_step():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,),), destinations=((2,),))
    sol = route.RoutingSolution(status="optimal", depth=1, teams=(0,),
                                paths=((0, 2),))
    assert any("not a hardware edge" in v for v in validate(g, inst, sol))


def test_depth_slack_never_costlier_simple_model():
    # With free idling, any depth-T schedule pads to depth T+1 at equal cost,
    # so the optimum can only improve.  (Not true for the extended model,
    # where every extra timestep charges idle error.)
    g = build_grid(2, 3)
    emap = uniform_error_map(g)
    for seed in range(10):
        inst = random_instance(g, 3, "mixed", seed)
        base = solve_mqpf(g, emap, inst, RouteConfig(error_model="simple"))
        slack = solve_mqpf(g, emap, inst,
                           RouteConfig(error_model="simple", depth_slack=1))
        assert slack.depth == base.depth + 1
        assert slack.cost <= base.cost + 1e-9


def test_flexible_no_deeper_than_best_strict():
    g = build_grid(1, 3)
    emap = uniform_error_map(g)
    flex = MqpfInstance(sources=((0,),), destinations=((1, 2),), flexible=True)
    best_strict = min(
        solve_mqpf(g, emap, MqpfInstance(sources=((0,),), destinations=((d,),))).depth
        for d in (1, 2))
    assert solve_mqpf(g, emap, flex).depth <= best_strict


def test_nan_timeout_rejected():
    with pytest.raises(RouteError, match="timeout must be a number of seconds, got nan"):
        RouteConfig(timeout=math.nan)


def test_timeout_reports_timed_out():
    g = build_grid(4, 4)
    inst = random_instance(g, 6, "independent", 0)
    sol = solve_mqpf(g, uniform_error_map(g), inst, RouteConfig(timeout=0.0))
    assert sol.status == "timed_out"
    assert not sol.solved


def test_single_team_presolve_out_of_budget():
    g = build_grid(3, 3)
    inst = random_instance(g, 3, "independent", 0)
    cfg = RouteConfig(presolve="single_team", timeout=1e-9)
    with pytest.raises(route.PresolveIncomplete) as exc:
        lower_bound_single_team(g, inst, cfg)
    assert exc.value.status == "timed_out"
    sol = solve_mqpf(g, uniform_error_map(g), inst, cfg)
    assert sol.status == "timed_out"
    assert sol.paths is None and sol.presolve_bound is None


# (layout, qubits, seed) -> depth, near_optimal cost and presolve_bound, with the
# single-team bound below the hop bound in every case; instance seed s, heron noise
# seed s + 1000
SINGLE_TEAM_CASES = {
    ("grid:8x8", 8, 8): (10, 0.3916197067092741, 6),
    ("grid:8x8", 8, 36): (12, 0.557657690072735, 6),
    ("grid:2x3", 2, 4): (3, 0.03716534423359309, 2),
    ("grid:2x3", 3, 6): (3, 0.08512225315307742, 0),
}


@pytest.mark.parametrize("case", sorted(SINGLE_TEAM_CASES),
                         ids=lambda case: "{}-{}q-s{}".format(*case))
def test_single_team_deepening_starts_at_hop_bound(case, monkeypatch):
    layout, qubits, seed = case
    g = build_layout(layout)
    inst = random_instance(g, qubits, "independent", seed)
    emap = sample_error_map(g, HERON, seed + 1000)
    cfg = RouteConfig(error_model="extended", presolve="single_team")
    optimum = solve_mqpf(g, emap, inst, cfg).cost
    tried = []
    expand = route.expansion_at_depth

    def recorded(g_, inst_, depth, *args):
        if inst_ is inst:  # not the merged instance of the presolve
            tried.append(depth)
        return expand(g_, inst_, depth, *args)
    monkeypatch.setattr(route, "expansion_at_depth", recorded)
    sol = solve_mqpf(g, emap, inst, replace(cfg, solver=SolverConfig(mode="near_optimal")))
    depth, cost, presolve_bound = SINGLE_TEAM_CASES[case]
    hop_bound = lower_bound_dijkstra(g, inst)
    assert presolve_bound < hop_bound
    assert tried == list(range(hop_bound, depth + 1))
    assert sol.solved and sol.depth == depth
    assert sol.cost == pytest.approx(cost, rel=0, abs=1e-12)
    excess = sol.cost - optimum
    assert -1e-12 <= excess and (excess <= NEAR_GAP or excess / sol.cost <= NEAR_GAP)
    assert sol.presolve_bound == presolve_bound


@pytest.mark.parametrize("presolve", route.PRESOLVES)
def test_timeout_bounds_wall_time(presolve):
    # criterion-10 seed 2: several seconds to prove optimal in every presolve
    g = build_layout("grid:8x8")
    inst = random_instance(g, 8, "independent", 2)
    emap = sample_error_map(g, HERON, 1002)
    cfg = RouteConfig(error_model="extended", presolve=presolve, timeout=0.3,
                      solver=SolverConfig(mode="optimal"))
    start = time.monotonic()
    sol = solve_mqpf(g, emap, inst, cfg)
    assert sol.status == "timed_out"
    assert time.monotonic() - start <= 0.3 + 0.5


def test_invalid_instance_rejected():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,), (0,)), destinations=((0,), (1,)))
    with pytest.raises(RouteError):
        solve_mqpf(g, uniform_error_map(g), inst)


def test_metrics_one_swap_one_idle_extended():
    g = build_grid(1, 3)
    emap = uniform_error_map(g, eps=0.004)
    costs = movement_costs(g, emap, "extended")
    paths = ((0, 1), (1, 0), (2, 2))  # one swap plus one idling qubit
    m = metrics(paths, costs)
    expect_swap = costs.movement_cost(0, 1) + costs.movement_cost(1, 0)
    expect_idle = costs.movement_cost(2, 2)
    assert m["swap_cost"] == pytest.approx(expect_swap, abs=1e-12)
    assert m["idle_cost"] == pytest.approx(expect_idle, abs=1e-12)
    assert m["cost"] == pytest.approx(expect_swap + expect_idle, abs=1e-12)
    assert m["fidelity"] == pytest.approx(math.exp(-m["cost"]), abs=1e-12)
    assert m["swap_count"] == 1
    assert m["idle_ratio"] == pytest.approx(
        (1 - math.exp(-expect_idle)) / (1 - math.exp(-expect_swap)), abs=1e-12)


def test_metrics_zero_swap_ratio_absent():
    g = build_grid(1, 2)
    costs = movement_costs(g, uniform_error_map(g), "extended")
    m = metrics(((0, 0), (1, 1)), costs)
    assert m["swap_cost"] == 0.0
    assert m["idle_ratio"] is None


def test_metrics_match_solver_objective():
    g = build_grid(2, 3)
    emap = uniform_error_map(g, eps=0.005)
    for seed in range(30):
        inst = random_instance(g, 3, ("independent", "mixed", "single")[seed % 3], seed)
        for model in ("simple", "extended"):
            sol = solve_mqpf(g, emap, inst, RouteConfig(error_model=model))
            costs = movement_costs(g, emap, model)
            m = metrics(sol.paths, costs)
            assert m["cost"] == pytest.approx(sol.cost, abs=1e-9)


def test_schedule_from_paths():
    sched = schedule_from_paths(((0, 1, 1), (1, 0, 0), (2, 2, 3)))
    assert sched == (((0, 1),), ((2, 3),))


def test_solution_json_round_trip_fields():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (0,)))
    sol = solve_mqpf(g, uniform_error_map(g), inst)
    doc = json.loads(solution_to_json(sol))
    assert doc["status"] == "optimal"
    assert doc["depth"] == 1
    assert doc["paths"] == [[0, 1], [1, 0]]
    assert doc["swaps"] == [[[0, 1]]]
    assert doc["fidelity"] == pytest.approx(math.exp(-doc["cost"]))


def pinned_solution(case):
    """The routing results whose JSON bytes are pinned below."""
    kind, _, presolve = case.partition(":")
    if kind == "infeasible_up_to_cap":
        # two one-qubit teams sharing their only destination: no depth up to the cap
        g = build_grid(1, 3)
        inst = MqpfInstance(sources=((0,), (1,)), destinations=((2,), (2,)), flexible=True)
        return solve_mqpf(g, uniform_error_map(g), inst, RouteConfig(presolve=presolve))
    if kind == "simple":
        # two qubits crossing a path: every step of the schedule is forced
        g = build_grid(1, 4)
        inst = MqpfInstance(sources=((0,), (3,)), destinations=((3,), (0,)))
        return solve_mqpf(g, sample_error_map(g, HERON, 2), inst)
    g = build_grid(2, 3)
    inst = random_instance(g, 3, "independent", 3)
    cfg = RouteConfig(error_model="extended", depth_slack=int(kind == "depth_slack"),
                      timeout=1e-6 if kind == "timed_out" else None)
    return solve_mqpf(g, sample_error_map(g, HERON, 3), inst, cfg)


# sha256 of solution_to_json with timings replaced by {}
PINNED_SOLUTIONS = {
    "extended": "a78b3e113347a8daed3e612375e69687dc32763a03bf54e3b5e0d679fb7f55a4",
    "simple": "72f0c3a5aeaf84bbfa1ec6064aad0f3e56d31dd54963ae70c8d8ca0cd8b1e9d2",
    "depth_slack": "1be80c6efaf382b1285580aca6fb990c22ed707192f0f9724a4d3c4269a3cca9",
    "timed_out": "daae9b6ac9d2b4d095935afde0695cad90f0d30938f16ac1fba748006e707eac",
    "infeasible_up_to_cap:none":
        "34666d8dd3e743d63c6746c902492fbfc18fc1eda03ab02cc32d4d07aed71270",
    "infeasible_up_to_cap:dijkstra":
        "4a6f14a48c139e0a0483104b4f327d4b6649374e508682c1a63cd25fa67676b6",
    "infeasible_up_to_cap:single_team":
        "0bf4f63febe0e1e5710a59d31ec58d42d746f62c3ea3d102b41252feeb69e77f",
}


@pytest.mark.parametrize("case", sorted(PINNED_SOLUTIONS))
def test_solution_json_bytes_pinned(case):
    sol = pinned_solution(case)
    assert set(sol.timings) == {"presolve_s", "expand_s", "build_s", "solve_s", "total_s"}
    text = solution_to_json(replace(sol, timings={}))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SOLUTIONS[case]


def test_infeasible_up_to_cap_unreachable_in_connected_graphs():
    # connected graphs always admit a schedule, so a tiny cap is never hit
    g = build_grid(1, 4)
    inst = MqpfInstance(sources=((0,), (3,)), destinations=((3,), (0,)))
    sol = solve_mqpf(g, uniform_error_map(g), inst)
    assert sol.solved
    assert sol.depth <= g.node_count**2


def test_solve_path_derives_no_row_names(monkeypatch):
    def no_names(*args):
        raise AssertionError("row names derived on the solve path")
    monkeypatch.setattr(bilp, "_row_keys", no_names)
    g = build_grid(2, 3)
    costs = movement_costs(g, uniform_error_map(g), "simple")
    _, model = route.model_at_depth(g, random_instance(g, 2, "mixed", 0), costs, 3)
    with pytest.raises(AssertionError, match="row names"):
        model.rows  # the hook is where names come from
    solved = 0
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(17):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            solved += solve_mqpf(g, uniform_error_map(g), inst).solved
    desk = build_grid(8, 8)
    sol = solve_mqpf(desk, sample_error_map(desk, HERON, 1000),
                     random_instance(desk, 8, "independent", 0),
                     RouteConfig(error_model="extended"))
    assert solved == 51 and sol.status == "optimal"


@pytest.mark.parametrize("presolve", ("none", "dijkstra"))
def test_optimal_mode_plans_nothing_below_the_size_gate(presolve, monkeypatch):
    def refused(*args):
        raise AssertionError("planner called in optimal mode")
    monkeypatch.setattr(plan, "plan_paths", refused)
    g = build_grid(2, 3)
    for seed in range(12):
        inst = random_instance(g, 3, ("independent", "mixed", "single")[seed % 3], seed)
        sol = solve_mqpf(g, uniform_error_map(g), inst, RouteConfig(presolve=presolve))
        assert sol.solved and sol.bilp_vars < route.PLAN_MIN_COLUMNS
    with pytest.raises(AssertionError, match="planner called"):
        solve_mqpf(g, uniform_error_map(g), inst,
                   RouteConfig(solver=SolverConfig(mode="near_optimal")))


@pytest.mark.parametrize("seed", (2, 16))
def test_optimal_mode_plans_above_the_size_gate(seed, monkeypatch):
    # criterion-10 seeds: the restricted search returns what the full one does
    g = build_grid(8, 8)
    args = (g, sample_error_map(g, HERON, seed + 1000), random_instance(g, 8, "independent", seed),
            RouteConfig(error_model="extended", timeout=60))
    calls = []
    plan_paths = plan.plan_paths
    monkeypatch.setattr(plan, "plan_paths", lambda *a: calls.append(1) or plan_paths(*a))
    planned = solve_mqpf(*args)
    assert calls and planned.bilp_vars >= route.PLAN_MIN_COLUMNS
    calls.clear()
    monkeypatch.setattr(route, "PLAN_MIN_COLUMNS", 10**9)
    full = solve_mqpf(*args)
    assert not calls and planned.status == full.status == "optimal"
    assert (planned.depth, repr(planned.cost), planned.presolve_bound) == (
        full.depth, repr(full.cost), full.presolve_bound)


def test_bilp_size_counts_the_model_searched():
    # criterion-10 seed 2 at its optimal depth: optimal mode searches the
    # narrowed expansion, and near_optimal takes the planned schedule, which
    # settles the attempt with no model, so it reports no model size
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", 2)
    emap = sample_error_map(g, HERON, 1002)
    _, model = route.model_at_depth(g, inst, movement_costs(g, emap, "extended"), 10)
    sizes = {}
    for mode in ("optimal", "near_optimal"):
        sol = solve_mqpf(g, emap, inst, RouteConfig(error_model="extended", timeout=60,
                                                    solver=SolverConfig(mode=mode)))
        assert sol.solved and sol.depth == 10
        sizes[mode] = sol.bilp_vars, sol.bilp_rows
    assert sizes["near_optimal"] == (None, None)
    assert model.var_count == 3016 and sizes["optimal"][0] == 2019
    assert sizes["optimal"][1] < model.row_count


def test_result_builds_the_schedule_once(monkeypatch):
    calls = []
    schedule = route.schedule_from_paths
    monkeypatch.setattr(route, "schedule_from_paths",
                        lambda paths: calls.append(1) or schedule(paths))
    g = build_grid(2, 3)
    sol = solve_mqpf(g, uniform_error_map(g), random_instance(g, 3, "mixed", 1))
    assert len(calls) == 1 and sol.schedule == schedule(sol.paths)
