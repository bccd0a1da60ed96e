"""The LP-free planner of ``swaproute.plan``: its schedules, floor, walk
bounds, narrowing and forest, against plain-loop references."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from swaproute import bilp, oracle, plan, route, solver, texpand
from swaproute.graph import build_grid, build_layout
from swaproute.instance import MqpfInstance, merge_teams, random_instance
from swaproute.noise import HERON, MovementCosts, movement_costs, sample_error_map
from swaproute.route import (RouteConfig, lower_bound_dijkstra, lower_bound_matching,
                             metrics, solve_mqpf, validate)
from swaproute.solver import _OBJ_TOL, SolverConfig, _check_assignment

from conftest import build_cycle, random_maybe_flexible_instance, uniform_error_map
from test_route import record_depths, relabeled_path6_instance


def plan_with_floor(teg, costs, mode=None):
    """``plan.plan_paths`` on a fresh ``plan.solo_walks`` table, and its floor."""
    walks = plan.solo_walks(teg, costs)
    return plan.plan_paths(walks, mode), walks.floor


def solo_walks_floor(teg, costs):
    """Loop reference for the planner's floor: per qubit, the cheapest walk of
    ``depth`` trimmed moves of its team from its source to any destination."""
    inst, moves = teg.instance, teg.tables.moves
    total = 0.0
    for k, (src, dst) in enumerate(zip(inst.sources, inst.destinations)):
        for s in src:
            best = {s: 0.0}  # node -> cheapest cost to stand there after t steps
            for t in range(teg.depth):
                step = {}
                for m, (i, j) in enumerate(moves):
                    if teg.mask[k, t, m] and i in best:
                        step[j] = min(step.get(j, math.inf), best[i] + costs.movement_cost(i, j))
                best = step
            total += min((best.get(v, math.inf) for v in dst), default=math.inf)
    return total


def test_planned_schedules_are_feasible_and_floor_is_below_oracle_cost():
    planned = total = 0
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            costs = movement_costs(g, sample_error_map(g, HERON, seed),
                                   ("extended", "simple")[seed // 2 % 2])
            depth = oracle.bfs_optimal_depth(g, inst)
            teg, model = route.model_at_depth(g, inst, costs, depth)
            paths, floor = plan_with_floor(teg, costs)
            planned_start = plan.plan_expansion(teg, costs, narrow=False)
            start, planned_floor = planned_start.start, planned_start.floor
            total += 1
            assert planned_floor == floor
            assert floor == pytest.approx(solo_walks_floor(teg, costs), abs=1e-12), seed
            assert floor <= oracle.exhaustive_min_cost(g, costs, inst, depth) + 1e-12, seed
            assert (start is None) == (paths is None)
            if paths is None:
                continue
            planned += 1
            assert not validate(g, inst, route.RoutingSolution("feasible", depth, paths=paths))
            assert start.dtype == np.int8 and len(start) == model.var_count
            assert _check_assignment(model, start), seed
            assert route.extract_paths(start, teg, model) == paths
            assert float(model.objective @ start) == pytest.approx(
                metrics(paths, costs)["cost"], abs=1e-12)
    assert total == 300 and planned >= 250  # the planner finds 289


def stepwise_route(teg, costs, matched, order):
    """One routing pass of the reference planner, in ``order``: ``(paths,
    spent, None)`` with each qubit's walk cost, or ``(None, None, a)`` when
    qubit a has no walk left.  Every qubit runs the full dynamic program,
    and its walk is read step by step from the whole backward table (the
    first minimum over the node's ascending moves)."""
    g, depth, tab = teg.graph, teg.depth, teg.tables
    walks = plan.solo_walks(teg, costs)
    sources, teams, team_cost = walks.sources, walks.teams, walks.team_cost
    targets = np.append(tab.targets, 0)
    blocked = np.zeros((depth, len(tab.moves) + 1), dtype=bool)
    steps = np.arange(depth)
    paths, spent = [None] * len(sources), [None] * len(sources)
    for a in order:
        step_cost = np.where(blocked, np.inf, team_cost[teams[a]])
        cand = np.empty_like(step_cost)
        to_go = np.full(g.node_count, np.inf)
        to_go[matched[a]] = 0.0
        for t in reversed(range(depth)):
            np.add(step_cost[t], to_go[targets], out=cand[t])
            to_go = cand[t][tab.moves_from].min(axis=1)
        if to_go[sources[a]] == np.inf:
            return None, None, a
        spent[a] = float(to_go[sources[a]])
        node, moves = sources[a], []
        for t in range(depth):
            out = tab.moves_from[node]
            moves.append(out[np.argmin(cand[t][out])])
            node = tab.targets[moves[-1]]
        moves = np.array(moves, dtype=np.intp)
        u, w = tab.origins[moves], tab.targets[moves]
        paths[a] = (sources[a], *w.tolist())
        mine = np.zeros_like(blocked)
        mine[steps[:, None], tab.moves_into[w]] = True
        mine[steps[:, None], tab.moves_into[u]] = True
        mine[steps[:, None], tab.moves_from[w]] = True
        swapped = u != w
        mine[steps[swapped], moves[swapped] ^ 1] = False
        blocked |= mine
    return tuple(paths), spent, None


def stepwise_plan_paths(teg, costs, mode=None):
    """Reference for ``plan.plan_paths``: the same planner in plain steps.
    The qubits are routed by fewest spare steps, except those moved to the
    front, the latest first.  A qubit with no walk left, never the first routed
    (asserted here), moves to the front; once the restarts are spent, its
    matched destination is forbidden to it instead, the front is cleared and
    everything is matched and routed again.  In ``near_optimal`` mode, a
    schedule the mode does not settle moves its qubit with the largest walk
    cost over its solo walk to the front, unless that qubit is first.  Up to
    one restart and one re-match per qubit in all; no matching ends the plan.
    The cheapest schedule found is kept."""
    walks = plan.solo_walks(teg, costs)
    sources, solo = walks.sources, walks.solo
    solo = solo.tolist()
    floor = float(sum(solo))
    depth, hops_from, n = teg.depth, teg.tables.hops_from, len(solo)
    forbidden, front = set(), []
    rematches = restarts = 0
    kept, kept_cost = None, math.inf
    while True:
        level, matched = plan.match_destinations(teg.graph, teg.instance, depth, forbidden)
        if level is None:
            return kept, floor
        rest = [a for a in range(n) if a not in front]
        rest.sort(key=lambda a: (depth - hops_from(sources[a]).item(matched[a]), a))
        order = front + rest
        paths, spent, worst = stepwise_route(teg, costs, matched, order)
        assert not (paths is None and worst == order[0])
        if paths is not None:
            cost = 0.0
            for c in spent:
                cost += c
            if cost < kept_cost:
                kept, kept_cost = paths, cost
            if mode != "near_optimal" or solver.settled(mode, kept_cost, floor):
                return kept, floor
            excess = [c - s for c, s in zip(spent, solo)]
            worst = excess.index(max(excess))
        if worst != order[0] and restarts < n:
            restarts += 1
            front = [worst] + [a for a in front if a != worst]
        elif paths is None and rematches < n:
            rematches += 1
            forbidden.add((worst, matched[worst]))
            front = []
        else:
            return kept, floor


def test_table_walk_plans_as_the_stepwise_walk():
    # criterion-1 instances at their optimal depth and one step deeper, and
    # criterion-10 seeds 0-9 at the matching bound, each also merged into one
    # team on the unit costs of the single-team presolve
    cases = []
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            costs = movement_costs(g, sample_error_map(g, HERON, seed),
                                   ("extended", "simple")[seed // 2 % 2])
            depth = oracle.bfs_optimal_depth(g, inst)
            cases += [(g, inst, costs, depth), (g, inst, costs, depth + 1)]
    desk = build_grid(8, 8)
    for seed in range(10):
        inst = random_instance(desk, 8, "independent", seed)
        costs = movement_costs(desk, sample_error_map(desk, HERON, seed + 1000), "extended")
        cases.append((desk, inst, costs, lower_bound_matching(desk, inst)))
    planned = improved = 0
    for g, inst, costs, depth in cases:
        tab = texpand.graph_tables(g)
        unit = MovementCosts("simple", (tab.origins != tab.targets).astype(float),
                             tab.move_index)
        for inst, costs in ((inst, costs), (merge_teams(inst), unit)):
            teg = route.expansion_at_depth(g, inst, depth)
            paths, floor = plan_with_floor(teg, costs)
            assert (paths, floor) == stepwise_plan_paths(teg, costs)
            near = plan_with_floor(teg, costs, mode="near_optimal")
            assert near == stepwise_plan_paths(teg, costs, "near_optimal")
            planned += paths is not None
            improved += near[0] != paths
    # near_optimal restarts for cost on a few plans that the mode does not take
    assert len(cases) == 610 and (planned, improved) == (1204, 19)  # of 1220 plans


def loop_cost_to_go(teg, costs):
    """Reference for ``plan.solo_walks``'s costs to go, in plain loops: per
    step t = 0..depth, team and node, the cheapest walk on to a destination
    of the team over its trimmed moves."""
    inst, depth, tab = teg.instance, teg.depth, teg.tables
    cost, mask = costs.vector.tolist(), teg.mask.tolist()
    nodes = range(teg.graph.node_count)
    to_go = [[[math.inf] * len(nodes) for _ in inst.sources] for _ in range(depth + 1)]
    for k, dst in enumerate(inst.destinations):
        for v in dst:
            to_go[depth][k][v] = 0.0
    for t in reversed(range(depth)):
        for k in range(inst.team_count):
            for m, (i, j) in enumerate(tab.moves):
                if mask[k][t][m]:
                    to_go[t][k][i] = min(to_go[t][k][i], cost[m] + to_go[t + 1][k][j])
    return to_go


def test_forest_moves_attain_the_loop_cost_to_go():
    # criterion-1 instances and criterion-10 seeds 0-3, at the matching bound:
    # each node with a finite cost to go records one move, of the trimmed
    # mask, that attains it, the lowest such move index, and plan_expansion's
    # basis holds exactly those movement columns and every attachment
    cases = []
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            cases.append((g, inst, movement_costs(g, sample_error_map(g, HERON, seed),
                                                  ("extended", "simple")[seed // 2 % 2])))
    desk = build_grid(8, 8)
    for seed in range(4):
        inst = random_instance(desk, 8, "independent", seed)
        cases.append((desk, inst, movement_costs(
            desk, sample_error_map(desk, HERON, seed + 1000), "extended")))
    recorded = ties = 0
    for g, inst, costs in cases:
        teg = route.expansion_at_depth(g, inst, lower_bound_matching(g, inst))
        tab = teg.tables
        cost = costs.vector.tolist()
        to_go = loop_cost_to_go(teg, costs)
        best = plan.solo_walks(teg, costs).best
        forest = set()
        for t, k, i in np.ndindex(best.shape):
            if to_go[t][k][i] == math.inf:
                continue
            m = int(best[t, k, i])
            assert teg.mask[k, t, m] and tab.origins[m] == i
            walks = [cost[n] + to_go[t + 1][k][tab.targets[n]] if teg.mask[k, t, n] else math.inf
                     for n in tab.moves_from[i] if n < len(tab.moves)]
            assert cost[m] + to_go[t + 1][k][tab.targets[m]] == to_go[t][k][i] == min(walks)
            assert all(w > to_go[t][k][i] for n, w in zip(tab.moves_from[i], walks) if n < m)
            ties += walks.count(min(walks)) > 1
            forest.add((k, t + 1, *tab.moves[m]))
            recorded += 1
        basis = plan.plan_expansion(teg, costs, narrow=False).basis
        keys = bilp.build_model(teg, costs).var_keys
        assert np.array_equal(basis, [key[0] != bilp.MOVE or tuple(key[1:]) in forest
                                      for key in keys.tolist()])
    assert len(cases) == 304 and (recorded, ties) == (5211, 433)


def test_plan_start_computes_the_solo_walks_once(monkeypatch):
    # the planner and the walk bound of an attempt share one table
    calls, bounds = [], []
    solo_walks, walk_bound = plan.solo_walks, plan.walk_bound
    monkeypatch.setattr(plan, "solo_walks", lambda *a: calls.append(1) or solo_walks(*a))
    monkeypatch.setattr(plan, "walk_bound", lambda *a: bounds.append(1) or walk_bound(*a))
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", 0)
    tried = record_depths(monkeypatch, inst)
    sol = solve_mqpf(g, sample_error_map(g, HERON, 1000), inst,
                     RouteConfig(error_model="extended"))
    assert sol.status == "optimal" and len(calls) == len(tried) and len(bounds) == 1


def planned_on_devices(kind):
    """Per layout, how many of the 14-qubit ``kind`` instances of seeds 0-4
    (heron noise seed s + 1000, extended costs) the planner plans at the
    matching bound; each schedule passes the exact checks."""
    planned = {}
    for layout in ("rochester53", "grid:10x10", "paris27"):
        g = build_layout(layout)
        planned[layout] = 0
        for seed in range(5):
            inst = random_instance(g, 14, kind, seed)
            costs = movement_costs(g, sample_error_map(g, HERON, seed + 1000), "extended")
            teg, model = route.model_at_depth(g, inst, costs, lower_bound_matching(g, inst))
            paths, _ = plan_with_floor(teg, costs)
            start = plan.plan_expansion(teg, costs, narrow=False).start
            assert (start is None) == (paths is None)
            if paths is None:
                continue
            planned[layout] += 1
            assert not validate(g, inst, route.RoutingSolution("feasible", teg.depth, paths=paths))
            assert _check_assignment(model, start), (layout, seed)
            assert route.extract_paths(start, teg, model) == paths
    return planned


def test_planner_rematches_on_devices():
    # 14 qubits in one team: a qubit left with no walk gives up its
    # destination, and the planner matches and routes again.  With the
    # matching fixed, rochester53 planned none of these and grid:10x10 two;
    # paris27 still plans none
    assert planned_on_devices("single") == {"rochester53": 4, "grid:10x10": 5, "paris27": 0}


def test_planner_moves_blocked_qubits_to_the_front_on_devices():
    # 14 one-qubit teams: forbidding a qubit's only destination leaves no
    # matching, so only moving the blocked qubit to the front of the order
    # can plan it; without that the planner plans 0, 3 and 5
    assert planned_on_devices("independent") == {"rochester53": 4, "grid:10x10": 5,
                                                 "paris27": 1}


def desk_case(seed):
    g = build_grid(8, 8)
    return (g, random_instance(g, 8, "independent", seed),
            sample_error_map(g, HERON, seed + 1000))


def test_blocked_one_destination_qubit_moves_to_the_front():
    # criterion-10 seed 39 at its optimal depth, 9: a qubit whose only
    # destination has no walk left cannot be re-matched, and the planner
    # found no schedule; moved to the front, it routes, and so do the rest
    g, inst, emap = desk_case(39)
    costs = movement_costs(g, emap, "extended")
    teg, model = route.model_at_depth(g, inst, costs, 9)
    paths, _ = plan_with_floor(teg, costs)
    assert paths[0] == (8, 9, 17, 18, 26, 27, 28, 29, 30, 31)
    assert not validate(g, inst, route.RoutingSolution("feasible", 9, paths=paths))
    start = plan.plan_expansion(teg, costs, narrow=False).start
    assert _check_assignment(model, start)
    assert route.extract_paths(start, teg, model) == paths
    cfg = RouteConfig(error_model="extended", timeout=60)
    near = solve_mqpf(g, emap, inst, replace(cfg, solver=SolverConfig(mode="near_optimal")))
    assert (near.status, near.depth, near.bilp_vars) == ("feasible", 9, None)
    assert near.paths == plan_with_floor(teg, costs, mode="near_optimal")[0]
    best = solve_mqpf(g, emap, inst, cfg)
    assert (best.status, best.depth, repr(best.cost)) == ("optimal", 9, "0.4710239977459619")


# sha256 prefixes of repr(paths) planned by a single pass at the matching bound
DESK_FIRST_PASS_PLANS = {
    0: "c24711b2eeac8296", 1: "2303fb3d4318266c", 2: "cf7b0e3638d0b2a0",
    3: "2aebf53508c4e778", 4: "5d853964756e7114", 5: "7f4185858795c887",
    6: "4dbc499f6df2bf8d", 7: "852f0d21aff1b5b0", 8: "b7f807d000280dd8",
    9: "fe5fd2810e5cef30"}


def test_unblocked_plans_are_the_first_pass():
    # criterion-10 seeds 0-9 at the matching bound: the first pass routes
    # every qubit, so optimal mode takes it as it is, with no restart
    for seed, digest in DESK_FIRST_PASS_PLANS.items():
        g, inst, emap = desk_case(seed)
        costs = movement_costs(g, emap, "extended")
        teg = route.expansion_at_depth(g, inst, lower_bound_matching(g, inst))
        paths, _ = plan_with_floor(teg, costs, mode="optimal")
        _, matched = plan.match_destinations(g, inst, teg.depth)
        order = sorted(range(8), key=lambda a: (
            teg.depth - teg.tables.hops_from(inst.sources[a][0]).item(matched[a]), a))
        assert stepwise_route(teg, costs, matched, order)[0] == paths
        assert hashlib.sha256(repr(paths).encode()).hexdigest()[:16] == digest, seed
        if seed == 5:
            assert paths[0] == (48, 40, 32, 24, 16, 8, 9, 10, 11)
        if seed == 9:
            assert paths[0] == (24, 16, 8, 0, 0, 0, 0, 0, 0, 0, 1)


def test_near_optimal_plan_stops_at_its_first_settled_schedule(monkeypatch):
    # criterion-10 seeds at the depth of their near_optimal solves: the
    # planner asks the acceptance rule of each schedule it completes, stops
    # at the first one the rule takes, and never returns one costlier than
    # its first pass's, which optimal mode takes as it is
    verdicts = []
    monkeypatch.setattr(plan, "settled", lambda *a: verdicts.append(a) or solver.settled(*a))
    restarted = []
    for seed in (*range(10), 30, 39):
        g, inst, emap = desk_case(seed)
        costs = movement_costs(g, emap, "extended")
        depth = {9: 10, 30: 10, 39: 9}.get(seed, lower_bound_matching(g, inst))
        teg = route.expansion_at_depth(g, inst, depth)
        first, _ = plan_with_floor(teg, costs, mode="optimal")
        verdicts.clear()
        paths, floor = plan_with_floor(teg, costs, mode="near_optimal")
        taken = [solver.settled(*v) for v in verdicts]
        assert taken[-1] and not any(taken[:-1]), seed
        assert verdicts[0][1] == pytest.approx(metrics(first, costs)["cost"], rel=0, abs=1e-12)
        cost = metrics(paths, costs)["cost"]
        assert cost == pytest.approx(verdicts[-1][1], rel=0, abs=1e-12)
        assert cost <= metrics(first, costs)["cost"] + 1e-12
        assert not validate(g, inst, route.RoutingSolution("feasible", depth, paths=paths))
        if len(verdicts) > 1:
            restarted.append(seed)
    assert restarted == [9, 30]


def test_planner_walks_avoid_earlier_qubits():
    # qubit 1 has no spare step and goes first, straight along the path.  Alone,
    # qubit 0 would swap 1 -> 2 -> 1 -> 2, as a swap costs less than an idle step
    # here, but qubit 1 enters 2 at step 1; so it waits, then swaps through qubit 1
    g = build_grid(1, 4)
    inst = MqpfInstance(sources=((1,), (3,)), destinations=((2,), (0,)))
    costs = movement_costs(g, uniform_error_map(g), "extended")
    assert costs.movement_cost(1, 2) < costs.movement_cost(1, 1)
    teg, _ = route.model_at_depth(g, inst, costs, 3)
    paths, floor = plan_with_floor(teg, costs)
    assert paths == ((1, 1, 2, 2), (3, 2, 1, 0))
    assert not validate(g, inst, route.RoutingSolution("feasible", 3, paths=paths))
    assert floor == pytest.approx(6 * costs.movement_cost(1, 2), abs=1e-15)


@pytest.mark.parametrize("mode", ("near_optimal", "feasible_first"))
def test_planner_below_the_matching_level(mode):
    # at the hop bound, 2, no matching of qubits to distinct destinations
    # exists, so the planner gives a floor and no schedule
    g = build_grid(1, 6)
    inst = relabeled_path6_instance()
    costs = movement_costs(g, uniform_error_map(g), "simple")
    teg, _ = route.model_at_depth(g, inst, costs, lower_bound_dijkstra(g, inst))
    paths, floor = plan_with_floor(teg, costs)
    assert paths is None and math.isfinite(floor)
    sol = solve_mqpf(g, uniform_error_map(g), inst,
                     RouteConfig(presolve="none", solver=SolverConfig(mode=mode)))
    assert sol.solved and sol.depth == oracle.bfs_optimal_depth(g, inst) == 4


def test_walk_bound_is_sound_and_the_restricted_search_exact(monkeypatch):
    # with the size gate at 0, every optimal attempt that has a planned start
    # searches only the cells whose walk bound is below the start's cost
    monkeypatch.setattr(route, "PLAN_MIN_COLUMNS", 0)
    narrowed = []
    plan_expansion = plan.plan_expansion

    def recorded(teg, costs, narrow, mode):
        planned = plan_expansion(teg, costs, narrow, mode)
        if planned.paths is not None:
            narrowed.append(not np.array_equal(planned.expansion.mask, teg.mask))
        return planned
    monkeypatch.setattr(plan, "plan_expansion", recorded)
    total = 0
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            emap = sample_error_map(g, HERON, seed)
            error_model = ("extended", "simple")[seed // 2 % 2]
            costs = movement_costs(g, emap, error_model)
            depth = oracle.bfs_optimal_depth(g, inst)
            teg, model = route.model_at_depth(g, inst, costs, depth)
            full = solver.solve(model)
            bound = plan.walk_bound(plan.solo_walks(teg, costs))
            assert bound.shape == teg.mask.shape
            moved = full.assignment[:np.count_nonzero(teg.mask)] == 1  # movements come first
            assert (bound[teg.mask][moved] <= full.objective + 1e-9).all(), seed
            planned = solve_mqpf(g, emap, inst, RouteConfig(error_model=error_model))
            assert planned.status == full.status == "optimal" and planned.depth == depth
            assert planned.cost == pytest.approx(full.objective, rel=0, abs=1e-9), seed
            assert full.objective == pytest.approx(
                oracle.exhaustive_min_cost(g, costs, inst, depth), rel=0, abs=1e-9), seed
            total += 1
    # the others have no planned start (11); the rest narrow where a cell's
    # walk bound reaches the start's cost
    assert total == 300 and len(narrowed) == 289 and sum(narrowed) == 153


def test_narrowing_keeps_the_start_and_the_cells_below_its_cost():
    # criterion-1 instances at their optimal depth and criterion-10 seeds 0-9
    # at the matching bound, against the rule on the full model: a column
    # stays when the start sets it or its walk bound lies below the start's
    # cost; attachments, last in the model, have no walk bound and all stay
    cases = []
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            costs = movement_costs(g, sample_error_map(g, HERON, seed),
                                   ("extended", "simple")[seed // 2 % 2])
            cases.append((g, inst, costs, oracle.bfs_optimal_depth(g, inst)))
    desk = build_grid(8, 8)
    for seed in range(10):
        inst = random_instance(desk, 8, "independent", seed)
        costs = movement_costs(desk, sample_error_map(desk, HERON, seed + 1000), "extended")
        cases.append((desk, inst, costs, lower_bound_matching(desk, inst)))
    planned = narrowed = 0
    for g, inst, costs, depth in cases:
        teg, model = route.model_at_depth(g, inst, costs, depth)
        kept, _, _, _, narrowed_start, basis = plan.plan_expansion(teg, costs, narrow=True)
        full, _, _, _, start, forest = plan.plan_expansion(teg, costs, narrow=False)
        assert full is teg and len(forest) == model.var_count
        if start is None:
            assert kept is teg and narrowed_start is None and np.array_equal(basis, forest)
            continue
        cost = float(model.objective @ start)
        bound = np.full(model.var_count, -np.inf)
        bound[:np.count_nonzero(teg.mask)] = plan.walk_bound(plan.solo_walks(teg, costs))[teg.mask]
        keys = bilp.build_model(kept, costs).var_keys
        keep = (start == 1) | (bound < cost - _OBJ_TOL)
        assert np.array_equal(keys, model.var_keys[keep])
        # the narrowed model's start and forest are the full one's on the columns kept
        assert np.array_equal(narrowed_start, start[keep])
        assert np.array_equal(basis, forest[keep])
        planned += 1
        narrowed += len(keys) < model.var_count
    assert (len(cases), planned, narrowed) == (310, 299, 163)


def test_planning_on_the_untrimmed_expansion_agrees_with_the_trimmed():
    # criterion-1 instances, every mode, both matching presolves: the planner
    # plans on the full mask when trimming is off, and the solve still finds
    # the trimmed solve's status and depth, valid paths and, in optimal mode,
    # its cost
    solves = 0
    for g in (build_grid(1, 6), build_cycle(6), build_grid(2, 3)):
        for seed in range(60):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            emap = sample_error_map(g, HERON, seed)
            error_model = ("extended", "simple")[seed // 2 % 2]
            for mode in ("optimal", "near_optimal", "feasible_first"):
                for presolve in ("dijkstra", "single_team"):
                    cfg = RouteConfig(error_model=error_model, presolve=presolve,
                                      solver=SolverConfig(mode=mode))
                    trimmed = solve_mqpf(g, emap, inst, cfg)
                    full = solve_mqpf(g, emap, inst, replace(cfg, trim=False))
                    assert (full.status, full.depth) == (trimmed.status, trimmed.depth), seed
                    assert full.solved and not validate(g, inst, full), seed
                    if mode == "optimal":
                        assert full.cost == pytest.approx(trimmed.cost, rel=0, abs=1e-9), seed
                    solves += 1
    assert solves == 1080
