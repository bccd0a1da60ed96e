"""The outer routing algorithm: depth lower bounds, iterative deepening over
the time expansion, an LP-free planner that settles attempts, starts the
solver and narrows the expansion, path extraction, validation, and error
metrics."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bilp, texpand
from .instance import merge_teams, validate as validate_instance
from .noise import MovementCosts, accumulated_error, movement_costs
from .solver import _OBJ_TOL, SolverConfig, SolverError, result_gap, settled, solve

PRESOLVES = ("none", "dijkstra", "single_team")

# optimal mode plans only expansions with at least this many columns, movement
# cells plus attachments.  The tiny1500 models have at most 142 and mostly
# close by root propagation: with the planner on every attempt a pass took
# 1.40 s against 1.01 s without it (best of 3 passes, 2-core x86-64).  The
# desk models have at least 617.
PLAN_MIN_COLUMNS = 400


class RouteError(ValueError):
    pass


class PresolveIncomplete(RouteError):
    """The single-team presolve ended without a depth; ``status`` says why
    (``timed_out`` or ``infeasible_up_to_cap``)."""

    def __init__(self, status):
        super().__init__(f"single-team presolve did not complete: {status}")
        self.status = status


@dataclass(frozen=True)
class RouteConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    error_model: str = "simple"
    depth_slack: int = 0
    presolve: str = "dijkstra"
    timeout: float | None = None  # whole-instance wall-clock budget, seconds
    trim: bool = True             # reachability trimming of expansion variables

    def __post_init__(self):
        if self.presolve not in PRESOLVES:
            raise RouteError(f"unknown presolve {self.presolve!r}; expected one of {PRESOLVES}")
        if self.depth_slack < 0:
            raise RouteError("depth_slack must be >= 0")
        if self.timeout is not None and math.isnan(self.timeout):
            raise RouteError("timeout must be a number of seconds, got nan")


@dataclass(frozen=True)
class RoutingSolution:
    """A solved routing instance.

    ``paths[a][t]`` is abstract qubit a's node at timestep t; qubits are
    numbered by team order, then by source node within each team.
    ``schedule[t-1]`` is the matching of hardware edges swapped at step t.
    """

    status: str                   # optimal | feasible | timed_out | infeasible_up_to_cap
    depth: int | None = None
    teams: tuple = ()             # team id per abstract qubit
    paths: tuple | None = None
    schedule: tuple | None = None
    cost: float | None = None
    error: float | None = None
    fidelity: float | None = None
    swap_count: int | None = None
    swap_cost: float | None = None
    idle_cost: float | None = None
    idle_ratio: float | None = None
    arrival_time_sum: int | None = None
    solver_status: str | None = None
    solver_gap: float | None = None
    presolve_bound: int | None = None
    bilp_vars: int | None = None
    bilp_rows: int | None = None
    timings: dict = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.status in ("optimal", "feasible")


def lower_bound_dijkstra(g, inst) -> int:
    """Admissible depth bound: each qubit needs at least its hop distance to
    the nearest destination of its own team; take the max over qubits."""
    hops_from = texpand.graph_tables(g).hops_from
    return max(min(map(hops_from(s).item, dst))
               for src, dst in zip(inst.sources, inst.destinations) for s in src)


def lower_bound_matching(g, inst) -> int | None:
    """Admissible depth bound from a bottleneck assignment: the smallest T at
    which every qubit can be matched to a distinct destination of its own
    team within T hops of its source, or None when no such matching exists
    at any T (the instance is then infeasible at every depth).

    At the final step every qubit sits on a distinct destination of its
    team, at most ``depth`` hops from its source, so the optimal depth is at
    least this bound; and the bound is at least ``lower_bound_dijkstra``.
    """
    return _match_destinations(g, inst)[0]


def _match_destinations(g, inst, top=None, forbidden=frozenset()):
    """(level, matched) for the bottleneck matching of qubits to distinct
    destinations of their own teams: the smallest hop level, up to ``top``
    when given, at which every qubit has a destination within that many hops
    of its source, and the destination of each qubit at that level; (None,
    None) when no level up to ``top`` matches them all.  ``forbidden`` holds
    (qubit, destination) pairs the matching may not use; (None, None) also
    when it leaves some qubit no destination at all.

    The matching grows by augmenting paths, one hop level at a time from the
    hop bound up.
    """
    hops_from = texpand.graph_tables(g).hops_from
    # per qubit: (destination, hops from its source) pairs of its own team
    sources = [(s, dst) for src, dst in zip(inst.sources, inst.destinations) for s in src]
    options = [[(v, hops_from(s).item(v)) for v in dst if (a, v) not in forbidden]
               for a, (s, dst) in enumerate(sources)]
    if not all(options):
        return None, None
    owner = {}  # destination -> the qubit matched to it

    def augment(a, level, seen):
        for v, d in options[a]:
            if d <= level and v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], level, seen):
                    owner[v] = a
                    return True
        return False

    free = range(len(options))
    top = max(d for opts in options for _, d in opts) if top is None else top
    for level in range(max(min(d for _, d in opts) for opts in options), top + 1):
        # a qubit with no augmenting path now has none after later augmentations
        # at this level either, so one try per free qubit makes the matching maximum
        free = [a for a in free if not augment(a, level, set())]
        if not free:
            matched = [None] * len(options)
            for v, a in owner.items():
                matched[a] = v
            return level, matched
    return None, None


def lower_bound_single_team(g, inst, cfg: RouteConfig | None = None) -> int:
    """Admissible depth bound from the single-team relaxation.

    Merging all teams can only shorten the optimal schedule, and the merged
    instance solves orders of magnitude faster.  The merged solve runs under
    the ``dijkstra`` presolve, so it deepens from the merged instance's
    matching bound, and in ``feasible_first`` mode on ``simple`` movement
    costs of 1.0 on both directions of every edge and 0.0 for idling: the
    depth it returns does not depend on the costs, and positive ones steer
    its LP relaxations to integral vertices.  It runs within ``cfg.timeout``
    and raises ``PresolveIncomplete`` when it runs out of time or finds the
    merged instance infeasible up to the depth cap (which makes the original
    instance infeasible up to the same cap).
    The bound can lie below ``lower_bound_matching`` of the original
    instance; ``_deepen`` starts at the larger of the two.

    ``feasible_first`` takes any planned schedule, so a schedule that the
    planner finds at the merged matching bound, itself a proven lower bound,
    settles that depth with no model (see ``_deepen``), and each depth the
    merged solve tries is planned once.  Only the depth comes back.
    """
    cfg = cfg or RouteConfig()
    sub = replace(cfg, presolve="dijkstra", depth_slack=0,
                  solver=SolverConfig(mode="feasible_first"))
    status, _, found, _ = _deepen(g, merge_teams(inst), sub, _unit_costs(g))
    if found is None:
        raise PresolveIncomplete(status)
    return found[0].depth


@lru_cache(maxsize=32)
def _unit_costs(g):
    """``lower_bound_single_team``'s unit costs on ``g``, built once per graph
    (graphs are immutable), so their cost vector is built once too."""
    return MovementCosts("simple", {(i, j): float(i != j)
                                    for i, j in texpand.graph_tables(g).moves})


def solve_mqpf(g, emap, inst, cfg: RouteConfig | None = None) -> RoutingSolution:
    """Route an instance: find the optimal depth by iterative deepening, then
    return the cost-minimizing schedule at that depth (plus any depth slack).
    The paths are the planner's when its schedule settled the attempt, with
    no model searched and ``bilp_vars`` and ``bilp_rows`` None."""
    cfg = cfg or RouteConfig()
    violations = validate_instance(g, inst)
    if violations:
        raise RouteError("invalid instance: " + "; ".join(violations))
    costs = movement_costs(g, emap, cfg.error_model)
    start = time.monotonic()
    status, bound, found, timings = _deepen(g, inst, cfg, costs)
    fields = {}
    if found is not None:
        teg, model, answer, gap = found
        teams, paths = answer if model is None else extract_paths(answer, teg, model)
        fields = dict(depth=teg.depth, teams=teams, paths=paths, **metrics(paths, costs),
                      solver_status=status, solver_gap=gap,
                      bilp_vars=None if model is None else model.var_count,
                      bilp_rows=None if model is None else model.row_count)
    timings["total_s"] = time.monotonic() - start
    return RoutingSolution(status, presolve_bound=bound, timings=timings, **fields)


def expansion_at_depth(g, inst, depth, trim=True):
    """The time expansion at ``depth``, reachability-trimmed when ``trim`` is set."""
    teg = texpand.expand(g, inst, depth)
    return texpand.trim(teg) if trim else teg


def model_at_depth(g, inst, costs, depth, trim=True):
    """``expansion_at_depth`` and its BILP."""
    teg = expansion_at_depth(g, inst, depth, trim)
    return teg, bilp.build_model(teg, costs)


def _deepen(g, inst, cfg, costs):
    """Iterative deepening: solve the model at each depth from the presolve
    bound up to ``node_count ** 2`` and keep the first that is not
    infeasible, then the one ``depth_slack`` steps deeper when asked.

    Under ``dijkstra`` and ``single_team`` the first depth is the matching
    bound (``lower_bound_matching``), under ``single_team`` raised to the
    single-team bound when that is larger; ``presolve_bound`` reports the
    hop bound or the single-team bound.  When no matching exists the
    instance is infeasible at every depth and the result is
    ``infeasible_up_to_cap`` at once, before any single-team presolve.
    ``none`` starts at depth 0.  All budgets share ``cfg.timeout``.
    Returns ``(status, presolve_bound, found, timings)``: ``found`` is the
    solved attempt as ``(teg, model, answer, gap)``, None unless the status
    is ``optimal`` or ``feasible``.  ``answer`` is the planner's ``(teams,
    paths)`` when ``model`` is None, else the solver's assignment, not
    decoded here, so the single-team presolve pays for no paths.

    Each attempt plans on the trimmed expansion before any model
    (``plan_expansion``): in the non-optimal modes always, and in
    ``optimal`` mode on expansions of at least ``PLAN_MIN_COLUMNS`` columns.
    When ``solver.settled`` takes the schedule against the floor, the
    attempt ends with the planner's paths and builds no model; no exact row
    check ran on them, so they must pass ``validate`` or ``SolverError`` is
    raised.  Otherwise, in ``optimal`` mode the schedule also narrows the
    expansion to the cells that can beat it, so the one model built,
    searched and returned holds only those.  The planner hands the solver
    its start, the schedule as an assignment of the model's columns, with
    the floor as a bound and the cheapest-walk forest, a mask over the same
    columns, as the root LP's starting basis; the planner's time counts in
    ``solve_s``.  Whether a depth is feasible does not depend on the plan,
    so the depths tried, the single-team bound and ``presolve_bound`` are
    the same in every mode.
    """
    start = time.monotonic()
    timings = {"presolve_s": 0.0, "expand_s": 0.0, "build_s": 0.0, "solve_s": 0.0}
    budget = math.inf if cfg.timeout is None else cfg.timeout

    def remaining():
        return budget - (time.monotonic() - start)

    def result(status, found=None):
        return status, bound, found, timings

    t0 = time.monotonic()
    bound = first = 0
    status = None  # set when the presolve alone decides the result
    if cfg.presolve != "none":
        first = lower_bound_matching(g, inst)
        bound = lower_bound_dijkstra(g, inst) if cfg.presolve == "dijkstra" else None
        if first is None:
            status = "infeasible_up_to_cap"
        elif cfg.presolve == "single_team":
            try:
                bound = lower_bound_single_team(g, inst, replace(cfg, timeout=remaining()))
            except PresolveIncomplete as exc:
                status = exc.status
            else:
                first = max(bound, first)
    timings["presolve_s"] = time.monotonic() - t0
    if status is not None:
        return result(status)

    mode = cfg.solver.mode
    optimal = mode == "optimal"
    attachments = sum(map(len, inst.sources)) + sum(map(len, inst.destinations))
    teams = tuple(k for k, src in enumerate(inst.sources) for _ in src)

    def attempt(depth):
        t0 = time.monotonic()
        teg = expansion_at_depth(g, inst, depth, cfg.trim)
        t1 = time.monotonic()
        timings["expand_s"] += t1 - t0
        start, floor, basis = None, -math.inf, None
        if not optimal or teg.mask.sum() + attachments >= PLAN_MIN_COLUMNS:
            teg, paths, cost, floor, start, basis = plan_expansion(teg, costs, optimal, mode)
            if status := settled(mode, cost, floor):
                if validate(g, inst, RoutingSolution(status, depth, paths=paths)):
                    raise SolverError("planned schedule failed validation")
                timings["solve_s"] += time.monotonic() - t1
                return status, (teg, None, (teams, paths), result_gap(status, cost, floor))
        t2 = time.monotonic()
        model = bilp.build_model(teg, costs)
        t3 = time.monotonic()
        res = solve(model, cfg.solver, remaining(), start, floor, basis)
        timings["build_s"] += t3 - t2
        timings["solve_s"] += t2 - t1 + time.monotonic() - t3
        return res.status, (teg, model, res.assignment, res.gap)

    for depth in range(first, g.node_count ** 2 + 1):
        if remaining() <= 0:
            return result("timed_out")
        status, found = attempt(depth)
        if status != "infeasible":
            break
    else:
        return result("infeasible_up_to_cap")
    if cfg.depth_slack and status != "deadline_exceeded":
        status, found = attempt(depth + cfg.depth_slack)
        if status == "infeasible":
            raise RouteError("deeper expansion unexpectedly infeasible")
    if status == "deadline_exceeded":
        return result("timed_out")
    return result(status, found)


def plan_paths(teg, costs, walks=None, mode=None):
    """A schedule planned without any LP, and a lower bound on the model optimum.

    Returns ``(paths, floor)`` in the qubit order of ``extract_paths``;
    ``plan_expansion`` narrows the expansion with them and ``walk_bound``,
    which extends the floor to a bound per cell.  ``walks`` is
    ``_solo_walks`` of ``teg`` and ``costs``, computed here when not given.

    ``floor`` sums, over qubits, the cost of the cheapest walk of ``depth``
    steps from the qubit's source to any destination of its team over the
    team's trimmed moves, with no other qubit present (``inf`` when a qubit
    has none).  Dropping every row that couples qubits, and every row that
    keeps destinations distinct, leaves exactly these walks, so the floor
    bounds the model optimum from below.

    ``paths`` comes from prioritized planning: each qubit gets a distinct
    destination of its team from the matching of ``lower_bound_matching``,
    and the qubits are routed one at a time, those with the fewest spare
    steps (``depth`` minus the hops to their destination) first, ties by
    qubit number.  Each walk is a min-cost dynamic program over timesteps on
    the team's trimmed moves that leaves out, at each step t, the moves that
    the qubits routed before it forbid: a move into a node an earlier qubit
    holds at t (exclusivity); a move i -> j, i != j, when the earlier qubit
    on j at t - 1 goes anywhere but i; and a move i -> j, i != j, when an
    earlier qubit enters i at t from anywhere but j (swap pairing).  The
    backward pass keeps, per step and node, the move that starts the
    cheapest walk on from there, ties to the lowest move index, and the
    walk follows that table from the source.

    A qubit whose team has a single destination first follows its solo
    walk, ``_solo_walks``'s table of the same program with nothing blocked,
    and keeps it when no move on it is blocked.  That is the walk the
    program would find: blocking only raises costs to go, so the walk keeps
    its cost, and each of its moves stays the first minimum at its node.

    The planner restarts by moving one qubit to the front of the routing
    order and routing every qubit again (Bennewitz, Burgard & Thrun,
    Robotics and Autonomous Systems 2002).  When a qubit has no walk left
    and is not first, it moves to the front.  When it is first already, the
    planner forbids the pair of that qubit and its destination, adds it to
    the pairs forbidden before, matches again at levels up to ``depth`` and
    routes every qubit again from scratch in the order of the new matching.
    In ``near_optimal`` mode, a schedule that ``solver.settled`` does not
    take against the floor moves the qubit whose walk costs the most over
    its solo walk (the lowest on ties) to the front; the planner stops at
    the first schedule the mode takes, or when that qubit is first already,
    and returns the cheapest schedule it found.  The other modes take the
    first schedule.  There are at most as many restarts, and as many
    re-matches, as there are qubits.  ``paths`` is None when no pass
    completes a schedule: there is no matching at ``depth``, the forbidden
    pairs leave no matching (a qubit of a team with a single destination
    that has no walk when first ends the plan so), or the budget runs out
    with a qubit still left with no walk.
    """
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    n_moves = len(tab.moves)
    sources, teams, team_cost, _, solo_best, solo = walks or _solo_walks(teg, costs)
    floor = float(sum(solo.tolist()))
    targets = np.append(tab.targets, 0)
    steps = np.arange(depth)
    nodes = np.arange(g.node_count)
    next_node = tab.targets.tolist()

    def follow(a, table):  # the moves from a's source along a per-step, per-node move table
        node, moves = sources[a], []
        for best_t in table:
            moves.append(best_t[node])
            node = next_node[moves[-1]]
        return np.array(moves, dtype=np.intp)

    def route_all(matched, order):
        """(paths, spent, None), with the cost of each qubit's walk, or (None,
        None, a) when qubit a has no walk left."""
        blocked = np.zeros((depth, n_moves + 1), dtype=bool)  # moves the routed qubits forbid
        paths, spent = [None] * len(sources), solo.tolist()
        for a in order:
            moves = None
            if len(inst.destinations[teams[a]]) == 1 and solo[a] < np.inf:
                moves = follow(a, solo_best[:, teams[a]].tolist())
                if blocked[steps, moves].any():
                    moves = None
            if moves is None:
                step_cost = np.where(blocked, np.inf, team_cost[teams[a]])
                # per step and node, the move that starts its cheapest walk on: the
                # first minimum over the node's ascending moves, so the lowest index on ties
                best = np.empty((depth, g.node_count), dtype=np.intp)
                to_go = np.full(g.node_count, np.inf)
                to_go[matched[a]] = 0.0
                for t in reversed(range(depth)):
                    cand = step_cost[t] + to_go[targets]  # per move: its cost plus the cost to go
                    best[t] = tab.moves_from[nodes, cand[tab.moves_from].argmin(axis=1)]
                    to_go = cand[best[t]]
                if to_go[sources[a]] == np.inf:
                    return None, None, a
                moves = follow(a, best.tolist())
                spent[a] = to_go[sources[a]].item()
            u, w = tab.origins[moves], tab.targets[moves]
            paths[a] = (sources[a], *w.tolist())
            mine = np.zeros_like(blocked)
            mine[steps[:, None], tab.moves_into[w]] = True  # every move into w
            mine[steps[:, None], tab.moves_into[u]] = True  # into u, but for the swap w -> u
            mine[steps[:, None], tab.moves_from[w]] = True  # out of w, but for the swap w -> u
            swapped = u != w
            # both directions of an edge are adjacent movements (see texpand.GraphTables)
            mine[steps[swapped], moves[swapped] ^ 1] = False
            blocked |= mine
        return tuple(paths), spent, None

    forbidden = set()  # (qubit, destination) pairs taken away by a re-match
    order = None  # the routing order, None until the next matching sets it
    rematches = restarts = 0
    kept, kept_cost = None, math.inf  # the cheapest schedule so far
    while True:
        if order is None:
            level, matched = _match_destinations(g, inst, depth, forbidden)
            if level is None:
                return kept, floor
            order = sorted(range(len(sources)), key=lambda a: (
                depth - tab.hops_from(sources[a]).item(matched[a]), a))
        paths, spent, a = route_all(matched, order)
        if paths is not None:
            cost = sum(spent)
            if cost < kept_cost:
                kept, kept_cost = paths, cost
            if mode != "near_optimal" or settled(mode, kept_cost, floor):
                return kept, floor
            a = int(np.argmax(spent - solo))  # the worst qubit, the lowest on ties
        if a != order[0] and restarts < len(sources):
            restarts += 1
            order.remove(a)
            order.insert(0, a)
        elif paths is None and rematches < len(sources):
            rematches += 1
            forbidden.add((a, matched[a]))
            order = None
        else:
            return kept, floor


class Plan(NamedTuple):
    """What ``plan_expansion`` plans for one depth attempt."""

    expansion: texpand.TimeExpandedGraph  # narrowed when asked and there is a schedule
    paths: tuple | None    # the schedule, None without one
    cost: float | None     # the schedule's objective, as ``solver.solve`` sums a start
    floor: float           # ``plan_paths``'s lower bound on the model optimum
    start: np.ndarray | None  # the schedule as the model's int8 assignment
    basis: np.ndarray | None  # the cheapest-walk forest, a bool mask over the columns


def plan_expansion(teg, costs, narrow, mode=None):
    """``plan_paths`` on ``teg``, and ``teg`` narrowed to the schedule when
    ``narrow`` is set and there is one.  ``start`` and ``basis`` lie over
    the columns of the returned expansion's model in ``bilp.build_model``'s
    order, and ``cost`` is that model's objective times ``start`` in that
    order, bit for bit ``solver.solve``'s incumbent objective.  ``mode``,
    the attempt's solver mode, reaches ``plan_paths``, which restarts for
    cost only in ``near_optimal``.  When it is given and
    ``solver.settled(mode, cost, floor)`` takes the schedule, no model will
    be built, and ``start`` and ``basis`` are None.

    ``start`` is the schedule as that model's int8 assignment, None without
    a schedule: its own cells, then the attachments, every source one at 1
    and a destination one at 1 when a path of its team ends on its node.

    A solution that beats the schedule by more than ``_OBJ_TOL`` sets to 1
    only cells whose ``walk_bound`` lies below the schedule's cost less
    ``_OBJ_TOL``.  The narrowed expansion keeps those cells and the
    schedule's own, whose bound can reach its cost, so its model holds the
    schedule and every solution that beats it.  The planner and the bound
    share one ``_solo_walks`` table.

    ``basis`` is the cheapest-walk forest of that table, a bool mask: the
    cells of the moves that ``_solo_walks`` records, one per team, step and
    node with a finite cost to go, where the returned mask holds them, then
    every attachment.  Under the costs to go as node potentials no movement
    has a negative reduced cost, so the forest is a dual feasible start for
    the root LP (``solver.solve``'s ``basis``).  The walks come from the
    expansion before narrowing.  A cell kept for its walk bound keeps the
    forest move out of its target, whose walk bound is no larger; the forest
    moves that narrowing drops are left out, and HiGHS completes the basis
    without them.
    """
    walks = _solo_walks(teg, costs)
    paths, floor = plan_paths(teg, costs, walks, mode)
    tab, inst, (_, teams, team_cost, to_go, best, _) = teg.tables, teg.instance, walks
    n_src = sum(map(len, inst.sources))
    attachments = n_src + sum(map(len, inst.destinations))
    start = cost = None
    if paths is not None:
        move_of = np.zeros((teg.graph.node_count,) * 2, dtype=np.intp)
        move_of[tab.origins, tab.targets] = np.arange(len(tab.moves))
        p = np.array(paths)
        planned = np.zeros_like(teg.mask)  # the schedule's own cells
        planned[np.array(teams)[:, None], np.arange(teg.depth),
                move_of[p[:, :-1], p[:, 1:]]] = True
        if narrow:
            below = walk_bound(teg, costs, walks) < team_cost[..., :-1][planned].sum() - _OBJ_TOL
            teg = replace(teg, mask=planned | below)
        cells, pad = planned[teg.mask], np.zeros(attachments)  # attachments cost 0
        cost = float(np.append(team_cost[..., :-1][teg.mask], pad) @ np.append(cells, pad))
        if mode is not None and settled(mode, cost, floor):
            return Plan(teg, paths, cost, floor, None, None)
        ends = set(zip(teams, p[:, -1].tolist()))
        reached = [(k, v) in ends for k, dst in enumerate(inst.destinations) for v in dst]
        start = np.concatenate([cells, np.ones(n_src, bool), reached]).astype(np.int8)
    # a node with no walk on marks the padding move, which no column holds
    forest = np.zeros(team_cost.shape, dtype=bool)
    forest[np.arange(inst.team_count)[:, None], np.arange(teg.depth)[:, None, None],
           np.where(np.isfinite(to_go[:-1]), best, len(tab.moves))] = True
    basis = np.append(forest[..., :-1][teg.mask], np.ones(attachments, bool))
    return Plan(teg, paths, cost, floor, start, basis)


def _solo_walks(teg, costs):
    """The solo-walk tables behind ``plan_paths``'s floor and
    ``plan_expansion``'s forest.

    Returns ``(sources, teams, team_cost, to_go, best, solo)``: per qubit
    its source and team; per team, step and move the move's cost, inf where
    the trim drops it, with one more move at inf, the padding index of the
    movement tables; per step t = 0..depth, team and node the cost of the
    cheapest walk from that node at t to any destination of the team; per
    step t = 0..depth - 1, team and node the move that starts that walk,
    the first minimum over the node's ascending moves, so the lowest index
    on ties (any move of the node where the cost is inf); and per qubit the
    cost of its cheapest walk from its source.
    """
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    n_moves = len(tab.moves)
    sources = [s for src in inst.sources for s in src]
    teams = [k for k, src in enumerate(inst.sources) for _ in src]
    team_cost = np.full((inst.team_count, depth, n_moves + 1), np.inf)
    team_cost[..., :n_moves] = np.where(teg.mask, costs.vector(tab.moves), np.inf)
    targets = np.append(tab.targets, 0)  # the padding move's target is any node
    to_go = np.full((depth + 1, inst.team_count, g.node_count), np.inf)
    for k, dst in enumerate(inst.destinations):
        to_go[depth, k, list(dst)] = 0.0
    best = np.empty((depth, inst.team_count, g.node_count), dtype=np.intp)
    nodes, team = np.arange(g.node_count), np.arange(inst.team_count)[:, None]
    for t in reversed(range(depth)):
        cand = team_cost[:, t] + to_go[t + 1][:, targets]  # per team and move
        best[t] = tab.moves_from[nodes, cand[:, tab.moves_from].argmin(axis=2)]
        to_go[t] = cand[team, best[t]]
    return sources, teams, team_cost, to_go, best, to_go[0, teams, sources]


def walk_bound(teg, costs, walks=None):
    """Per (team, step, move) cell of ``teg``, shaped as its mask, a lower
    bound on the cost of every solution that sets the cell's movement
    column to 1.  ``walks`` is as in ``plan_paths``.

    A solution that moves a team-k qubit along movement m at step t costs at
    least, for one qubit a of team k, the cheapest walk of a through that
    move, plus the cheapest solo walks of all other qubits: ``plan_paths``'s
    floor, less a's solo walk, plus a's walk through the move.  The bound of
    a cell is the least of these over the team's qubits (inf when none has
    such a walk, as on every cell the trim drops).
    """
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    sources, teams, team_cost, to_go, _, solo = walks or _solo_walks(teg, costs)
    floor = sum(solo.tolist())
    origins, targets = np.append(tab.origins, 0), np.append(tab.targets, 0)
    # per qubit and node, the cost of its cheapest walk from its source to there
    reach = np.full((len(sources), g.node_count), np.inf)
    reach[np.arange(len(sources)), sources] = 0.0
    # per qubit, step and move, the cost of its cheapest walk through the move
    through = np.empty((len(sources), depth, len(tab.moves) + 1))
    for t in range(depth):
        step = reach[:, origins] + team_cost[teams, t]
        np.add(step, to_go[t + 1, teams][:, targets], out=through[:, t])
        reach = step[:, tab.moves_into].min(axis=2)
    through += (floor - solo)[:, None, None]
    first = np.cumsum([0] + [len(src) for src in inst.sources[:-1]])
    return np.minimum.reduceat(through[..., :-1], first, axis=0)


def extract_paths(assignment, teg, model):
    """Decode a feasible assignment into per-qubit node paths.

    Follows the unit flow of each team from its source attachments through
    the movement variables.  Qubit identity within a team is positional
    (sorted by source node), matching the instance convention.
    """
    inst, depth = teg.instance, teg.depth
    keys = model.var_keys
    chosen = {}  # (team, t, origin) -> target
    for _, k, t, i, j in keys[(assignment == 1) & (keys[:, 0] == bilp.MOVE)].tolist():
        key = (k, t, i)
        if key in chosen:
            raise RouteError(f"flow decode failure: two movements out of {key}")
        chosen[key] = j
    teams = []
    paths = []
    for k in range(inst.team_count):
        for s in inst.sources[k]:
            path = [s]
            for t in range(1, depth + 1):
                key = (k, t, path[-1])
                if key not in chosen:
                    raise RouteError(f"flow decode failure: no movement out of {key}")
                path.append(chosen[key])
            teams.append(k)
            paths.append(tuple(path))
    return tuple(teams), tuple(paths)


def schedule_from_paths(paths):
    """Per-timestep sets of swapped hardware edges, as sorted (i, j) pairs."""
    if not paths:
        return ()
    depth = len(paths[0]) - 1
    schedule = []
    for t in range(1, depth + 1):
        edges = set()
        for p in paths:
            if p[t] != p[t - 1]:
                edges.add((min(p[t - 1], p[t]), max(p[t - 1], p[t])))
        schedule.append(tuple(sorted(edges)))
    return tuple(schedule)


def validate(g, inst, sol: RoutingSolution) -> list[str]:
    """Exhaustively check a solution against all problem conditions."""
    violations = []
    if sol.paths is None or sol.depth is None:
        return ["solution carries no paths"]
    paths, depth = sol.paths, sol.depth
    expected = sum(len(s) for s in inst.sources)
    if len(paths) != expected:
        violations.append(f"expected {expected} paths, got {len(paths)}")
        return violations
    edge_set = set(g.edges)
    for a, p in enumerate(paths):
        if len(p) != depth + 1:
            violations.append(f"qubit {a}: path length {len(p)} != depth+1 {depth + 1}")
            return violations
        for t in range(1, depth + 1):
            i, j = p[t - 1], p[t]
            if i != j and (min(i, j), max(i, j)) not in edge_set:
                violations.append(f"qubit {a}, step {t}: {i} -> {j} is not a hardware edge")
    # exclusivity of location
    for t in range(depth + 1):
        occupied = {}
        for a, p in enumerate(paths):
            if p[t] in occupied:
                violations.append(
                    f"step {t}: qubits {occupied[p[t]]} and {a} both at node {p[t]}")
            occupied[p[t]] = a
    # swap-based movement
    for t in range(1, depth + 1):
        prev_at = {p[t - 1]: a for a, p in enumerate(paths)}
        for a, p in enumerate(paths):
            if p[t] != p[t - 1] and p[t] in prev_at:
                b = prev_at[p[t]]
                if paths[b][t] != p[t - 1]:
                    violations.append(
                        f"step {t}: qubit {a} moved onto qubit {b} without swapping")
    # starting and ending conditions
    pos = 0
    for k in range(inst.team_count):
        size = len(inst.sources[k])
        starts = sorted(p[0] for p in paths[pos:pos + size])
        ends = set(p[depth] for p in paths[pos:pos + size])
        if tuple(starts) != inst.sources[k]:
            violations.append(f"team {k}: starts {starts} != sources {inst.sources[k]}")
        dests = set(inst.destinations[k])
        if inst.flexible:
            if not ends <= dests:
                violations.append(f"team {k}: ends {sorted(ends)} not within {sorted(dests)}")
        elif ends != dests:
            violations.append(f"team {k}: ends {sorted(ends)} != destinations {sorted(dests)}")
        pos += size
    return violations


def metrics(paths, costs) -> dict:
    """Recompute error metrics from paths, independently of the solver
    objective, along with the swap schedule they count swaps on."""
    swap_cost = 0.0
    idle_cost = 0.0
    arrival_sum = 0
    depth = len(paths[0]) - 1 if paths else 0
    for p in paths:
        last_move = 0
        for t in range(1, depth + 1):
            if p[t] != p[t - 1]:
                swap_cost += costs.movement_cost(p[t - 1], p[t])
                last_move = t
            else:
                idle_cost += costs.movement_cost(p[t], p[t])
        arrival_sum += last_move
    schedule = schedule_from_paths(paths)
    swap_count = sum(map(len, schedule))
    total = swap_cost + idle_cost
    error, fidelity = accumulated_error(total)
    e_swap = 1.0 - math.exp(-swap_cost)
    e_idle = 1.0 - math.exp(-idle_cost)
    ratio = None
    if costs.model != "simple" and e_swap > 0.0:
        ratio = e_idle / e_swap
    return {
        "schedule": schedule,
        "cost": total,
        "error": error,
        "fidelity": fidelity,
        "swap_count": swap_count,
        "swap_cost": swap_cost,
        "idle_cost": idle_cost,
        "idle_ratio": ratio,
        "arrival_time_sum": arrival_sum,
    }


def solution_to_json(sol: RoutingSolution) -> str:
    """Serialize a routing solution to the JSON solution-file format: its
    fields in order, with ``schedule`` written as ``swaps``."""
    doc = {"swaps" if k == "schedule" else k: v for k, v in asdict(sol).items()}
    return json.dumps(doc, indent=2) + "\n"
