"""The outer routing algorithm: depth lower bounds, iterative deepening over
the time expansion, in which the LP-free planner of ``plan`` settles
attempts, starts the solver and narrows the expansion, path extraction,
validation, and error metrics."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

from . import bilp, plan, texpand
from .instance import merge_teams, validate as validate_instance
from .noise import MovementCosts, accumulated_error, movement_costs
from .solver import SolverConfig, SolverError, result_gap, settled, solve

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
    return plan.match_destinations(g, inst)[0]


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
        teg, model, paths, gap = found
        teams = tuple(k for k, src in enumerate(inst.sources) for _ in src)
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
    solved attempt as ``(teg, model, paths, gap)``, None unless the status
    is ``optimal`` or ``feasible``; the paths are the planner's when
    ``model`` is None, else the solver's assignment decoded by
    ``extract_paths``.

    Each attempt plans on the trimmed expansion before any model
    (``plan.plan_expansion``): in the non-optimal modes always, and in
    ``optimal`` mode on expansions of at least ``PLAN_MIN_COLUMNS`` columns.
    When ``solver.settled`` takes the schedule against the floor, the
    attempt ends with the planner's paths and builds no model; no exact row
    check ran on them, so they must pass ``validate`` or ``SolverError`` is
    raised.  Otherwise the solver gets the plan's start, floor and basis, and
    in ``optimal`` mode the model holds only the cells of the narrowed
    expansion; the planner's time counts in ``solve_s``.  Whether a depth
    is feasible does not depend on the plan, so the depths tried, the
    single-team bound and ``presolve_bound`` are the same in every mode.
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

    def attempt(depth):
        t0 = time.monotonic()
        teg = expansion_at_depth(g, inst, depth, cfg.trim)
        t1 = time.monotonic()
        timings["expand_s"] += t1 - t0
        start, floor, basis = None, -math.inf, None
        if not optimal or teg.mask.sum() + attachments >= PLAN_MIN_COLUMNS:
            teg, paths, cost, floor, start, basis = plan.plan_expansion(teg, costs, optimal, mode)
            if status := settled(mode, cost, floor):
                if validate(g, inst, RoutingSolution(status, depth, paths=paths)):
                    raise SolverError("planned schedule failed validation")
                timings["solve_s"] += time.monotonic() - t1
                return status, (teg, None, paths, result_gap(status, cost, floor))
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
    teg, model, paths, gap = found
    if model is not None:  # the solver's assignment, decoded
        paths = extract_paths(paths, teg, model)
    return result(status, (teg, model, paths, gap))


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
    paths = []
    for k in range(inst.team_count):
        for s in inst.sources[k]:
            path = [s]
            for t in range(1, depth + 1):
                key = (k, t, path[-1])
                if key not in chosen:
                    raise RouteError(f"flow decode failure: no movement out of {key}")
                path.append(chosen[key])
            paths.append(tuple(path))
    return tuple(paths)


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
