"""The LP-free planner.  For one depth attempt it plans a schedule without any
LP, bounds the model optimum from below, and hands the solver a start, a
narrowed expansion and a root basis, all from one ``solo_walks`` table.
The rules, stated once:

- Matching.  Each qubit gets a distinct destination of its team from the
  bottleneck matching of ``match_destinations``, at levels up to the depth.
- Routing order.  The qubits are routed one at a time, those with the fewest
  spare steps (the depth minus the hops to their destination) first, ties by
  qubit number.
- Blocking.  Each walk is a min-cost dynamic program over timesteps on the
  team's trimmed moves that leaves out, at each step t, the moves that the
  qubits routed before it forbid: a move into a node an earlier qubit holds
  at t (exclusivity); a move i -> j, i != j, when the earlier qubit on j at
  t - 1 goes anywhere but i; and a move i -> j, i != j, when an earlier qubit
  enters i at t from anywhere but j (swap pairing).  The backward pass keeps,
  per step and node, the move that starts the cheapest walk on from there,
  ties to the lowest move index, and the walk follows that table from the
  source.
- One-destination reuse.  A qubit whose team has a single destination first
  follows its solo walk, ``solo_walks``'s table of the same program with
  nothing blocked, and keeps it when no move on it is blocked.  That is the
  walk the program would find: blocking only raises costs to go, so the walk
  keeps its cost, and each of its moves stays the first minimum at its node.
- Restarts.  A restart moves one qubit to the front of the routing order and
  routes every qubit again (Bennewitz, Burgard & Thrun, Robotics and
  Autonomous Systems 2002).  A qubit with no walk left moves to the front; it
  is never first, as nothing blocks the first qubit routed and the trim keeps
  its shortest walks to its destination, at most ``depth`` hops away.  In
  ``near_optimal`` mode, a schedule that ``solver.settled`` does not take
  against the floor moves the qubit whose walk costs the most over its solo
  walk (the lowest on ties) to the front; the planner stops at the first
  schedule the mode takes, or when that qubit is first already, and keeps the
  cheapest schedule it found.  The other modes take the first schedule.
- Re-matching.  Once the restarts, at most one per qubit, are spent, a qubit
  left with no walk has the pair of it and its destination forbidden, with the
  pairs forbidden before; the planner matches again and routes every qubit
  from scratch in the order of the new matching, up to one re-match per qubit.
  No schedule comes back when there is no matching at the depth, when the
  forbidden pairs leave none, or when the re-matches run out.
- The floor sums, over qubits, the cost of the cheapest walk of ``depth``
  steps from the qubit's source to any destination of its team over the
  team's trimmed moves, with no other qubit present (inf when a qubit has
  none).  Dropping every row that couples qubits, and every row that keeps
  destinations distinct, leaves exactly these walks, so the floor bounds the
  model optimum from below.
- The walk bound extends the floor to each (team, step, move) cell: a
  solution that moves a team-k qubit along movement m at step t costs at
  least, for one qubit a of team k, the floor less a's solo walk plus a's
  cheapest walk through that move; the cell's bound is the least of these
  over the team's qubits (inf when none has such a walk, as on every cell
  the trim drops).
- Narrowing.  A solution that beats the schedule by more than
  ``solver._OBJ_TOL`` sets to 1 only cells whose walk bound lies below the
  schedule's cost less ``_OBJ_TOL``.  The narrowed expansion keeps those
  cells and the schedule's own, whose bound can reach its cost, so its model
  holds the schedule and every solution that beats it.
- The forest is the cells of the moves that ``solo_walks`` records, one per
  team, step and node with a finite cost to go.  Under the costs to go as
  node potentials no movement has a negative reduced cost, so the forest is
  a dual feasible start for the root LP (``solver.solve``'s ``basis``).  The
  walks come from the expansion before narrowing.  A cell kept for its walk
  bound keeps the forest move out of its target, whose walk bound is no
  larger; the forest moves that narrowing drops are left out, and HiGHS
  completes the basis without them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import texpand
from .solver import _OBJ_TOL, settled


def match_destinations(g, inst, top=None, forbidden=frozenset()):
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


class Walks(NamedTuple):
    """``solo_walks``'s table for one expansion."""

    expansion: texpand.TimeExpandedGraph
    sources: list          # per qubit, its source node
    teams: list            # per qubit, its team
    team_cost: np.ndarray  # (team, step, move + 1): the move's cost, inf where the
    #                        trim drops it and on the padding move of the tables
    to_go: np.ndarray      # (step 0..depth, team, node): the cheapest walk's cost
    #                        from the node at that step to any destination of the team
    best: np.ndarray       # (step 0..depth - 1, team, node): the move that starts that
    #                        walk, the first minimum over the node's ascending moves
    #                        (any move of the node where the cost is inf)
    solo: np.ndarray       # per qubit, the cost of its cheapest walk from its source
    floor: float           # the sum of ``solo``: a lower bound on the model optimum


def solo_walks(teg, costs) -> Walks:
    """The cheapest walks with no other qubit present, per team, on ``teg``."""
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    n_moves = len(tab.moves)
    sources = [s for src in inst.sources for s in src]
    teams = [k for k, src in enumerate(inst.sources) for _ in src]
    team_cost = np.full((inst.team_count, depth, n_moves + 1), np.inf)
    team_cost[..., :n_moves] = np.where(teg.mask, costs.vector, np.inf)
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
    solo = to_go[0, teams, sources]
    return Walks(teg, sources, teams, team_cost, to_go, best, solo, float(sum(solo.tolist())))


def plan_paths(walks, mode=None):
    """The schedule planned on ``walks.expansion`` by the rules of this
    module, in the qubit order of ``route.extract_paths``, or None when no
    pass completes one.  ``mode`` is the attempt's solver mode; only
    ``near_optimal`` restarts for cost."""
    teg, sources, teams, team_cost, _, solo_best, solo, floor = walks
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    n_moves = len(tab.moves)
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
            level, matched = match_destinations(g, inst, depth, forbidden)
            if level is None:
                return kept
            order = sorted(range(len(sources)), key=lambda a: (
                depth - tab.hops_from(sources[a]).item(matched[a]), a))
        paths, spent, a = route_all(matched, order)
        if paths is not None:
            cost = sum(spent)
            if cost < kept_cost:
                kept, kept_cost = paths, cost
            if mode != "near_optimal" or settled(mode, kept_cost, floor):
                return kept
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
            return kept


def walk_bound(walks):
    """Per (team, step, move) cell of ``walks.expansion``, shaped as its mask,
    the walk bound: a lower bound on the cost of every solution that sets the
    cell's movement column to 1."""
    teg, sources, teams, team_cost, to_go, _, solo, floor = walks
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
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


class Plan(NamedTuple):
    """What ``plan_expansion`` plans for one depth attempt."""

    expansion: texpand.TimeExpandedGraph  # narrowed when asked and there is a schedule
    paths: tuple | None    # the schedule, None without one
    cost: float | None     # the schedule's objective, as ``solver.solve`` sums a start
    floor: float           # ``Walks.floor``, a lower bound on the model optimum
    start: np.ndarray | None  # the schedule as the model's int8 assignment
    basis: np.ndarray | None  # the cheapest-walk forest, a bool mask over the columns


def plan_expansion(teg, costs, narrow, mode=None):
    """``plan_paths`` on ``teg``, and ``teg`` narrowed to the schedule when
    ``narrow`` is set and there is one.  ``start`` and ``basis`` lie over
    the columns of the returned expansion's model in ``bilp.build_model``'s
    order, and ``cost`` is that model's objective times ``start`` in that
    order, bit for bit ``solver.solve``'s incumbent objective.  ``mode``,
    the attempt's solver mode, reaches ``plan_paths``.  When it is given and
    ``solver.settled(mode, cost, floor)`` takes the schedule, no model will
    be built, and ``start`` and ``basis`` are None.

    ``start`` is the schedule as that model's int8 assignment, None without
    a schedule: its own cells, then the attachments, every source one at 1
    and a destination one at 1 when a path of its team ends on its node.
    ``basis`` is the forest, then every attachment.
    """
    walks = solo_walks(teg, costs)
    paths, floor = plan_paths(walks, mode), walks.floor
    tab, inst, teams, team_cost = teg.tables, teg.instance, walks.teams, walks.team_cost
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
            below = walk_bound(walks) < team_cost[..., :-1][planned].sum() - _OBJ_TOL
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
           np.where(np.isfinite(walks.to_go[:-1]), walks.best, len(tab.moves))] = True
    basis = np.append(forest[..., :-1][teg.mask], np.ones(attachments, bool))
    return Plan(teg, paths, cost, floor, start, basis)
