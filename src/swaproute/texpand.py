"""Time expansion of the hardware graph and reachability trimming.

A depth-T expansion has T movement layers (timesteps 1..T).  Each layer holds
one directed movement edge per direction of every hardware edge plus one idle
self-loop per node, for ``2|E| + |V|`` movements per timestep.  Per-team
boolean masks select the movements that survive trimming.  The movement
tables depend on the graph alone and are built once per graph; so are the hop
distances from each node, on its first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graph import distances_from_set


@dataclass(frozen=True)
class GraphTables:
    """Movement index tables of one graph.  Movement m is ``moves[m]``: both
    directions of every edge in edge order, then one idle loop per node.  The
    read-only 2-D tables pad their rows with ``len(moves)``."""

    moves: tuple            # ((i, j), ...) of length 2|E| + |V|
    origins: np.ndarray     # (M,) origin node of each movement
    targets: np.ndarray     # (M,) target node of each movement
    moves_from: np.ndarray  # (V, max out) movements leaving each node, ascending
    moves_into: np.ndarray  # (V, max in) movements entering each node, ascending
    swap_moves: np.ndarray  # (2|E|, max degree + 1) the movements of each swap row
    graph: object = field(repr=False)
    _hop_rows: dict = field(default_factory=dict, repr=False, compare=False)

    def hops_from(self, v) -> np.ndarray:
        """Read-only (V,) hop distances from node ``v``, one BFS on first use.
        Rows are kept only for the nodes asked for, so memory grows with the
        sources and destinations solved for, not with V squared."""
        row = self._hop_rows.get(v)
        if row is None:
            row = self._hop_rows[v] = np.array(distances_from_set(self.graph, (v,)))
            row.flags.writeable = False
        return row


def _frozen(rows, pad):
    """``rows`` padded with ``pad`` to one width, as a read-only array."""
    table = np.full((len(rows), max(map(len, rows), default=0)), pad, dtype=np.intp)
    for r, row in enumerate(rows):
        table[r, :len(row)] = row
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def graph_tables(g) -> GraphTables:
    """The movement tables of ``g``, built once per graph (graphs are immutable)."""
    moves = [mv for i, j in g.edges for mv in ((i, j), (j, i))]
    moves += [(v, v) for v in range(g.node_count)]
    move_index = {mv: m for m, mv in enumerate(moves)}
    ends = _frozen(moves, 0).T  # origins, targets
    nodes = range(g.node_count)
    # a move a -> b conflicts with every move out of b that does not return to a
    swaps = [[m] + [move_index[(b, l)] for l in (*g.neighbors[b], b) if l != a]
             for m, (a, b) in enumerate(moves[:2 * g.edge_count])]
    return GraphTables(
        moves=tuple(moves), origins=ends[0], targets=ends[1],
        moves_from=_frozen([np.flatnonzero(ends[0] == v) for v in nodes], len(moves)),
        moves_into=_frozen([np.flatnonzero(ends[1] == v) for v in nodes], len(moves)),
        swap_moves=_frozen(swaps, len(moves)), graph=g)


@dataclass(frozen=True)
class TimeExpandedGraph:
    """T-layer movement graph with per-team reachability masks.

    ``mask[k, t-1, m]`` says whether movement ``tables.moves[m]`` at
    timestep t is usable by team k.  Special per-team source/destination
    attachment nodes live outside the movement layers and are handled by
    the model builder.
    """

    graph: object
    instance: object
    depth: int
    mask: np.ndarray        # bool, shape (K, T, len(moves))
    tables: GraphTables


def expand(g, inst, depth: int) -> TimeExpandedGraph:
    """Build the depth-T expansion with all movements enabled.

    ``depth == 0`` yields a single layer with no movement edges; only the
    source/destination attachments remain.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    tables = graph_tables(g)
    mask = np.ones((inst.team_count, depth, len(tables.moves)), dtype=bool)
    return TimeExpandedGraph(graph=g, instance=inst, depth=depth, mask=mask, tables=tables)


def team_distances(g, inst):
    """Per team, the hop distances of every node from the team's sources and
    from its destinations, as a pair of arrays built from the cached
    ``GraphTables.hops_from`` rows."""
    hops_from = graph_tables(g).hops_from

    def nearest(nodes):
        if len(nodes) == 1:
            return hops_from(nodes[0])
        return np.minimum.reduce([hops_from(v) for v in nodes])
    return tuple((nearest(src), nearest(dst))
                 for src, dst in zip(inst.sources, inst.destinations))


def trim(teg: TimeExpandedGraph) -> TimeExpandedGraph:
    """Remove per-team movements that no feasible solution can use.

    A movement i -> j at timestep t survives for team k only when i lies
    within t-1 hops of the team's sources (forward sweep) and j within
    T-t hops of its destinations (backward sweep).  Reachability is a BFS
    ball on the hardware graph, ignoring occupancy, so trimming is a sound
    over-approximation and never cuts a feasible solution.
    """
    g, inst, depth, tables = teg.graph, teg.instance, teg.depth, teg.tables
    steps = np.arange(depth)[:, None]  # t - 1 for t = 1..T
    dist = np.array(team_distances(g, inst))  # (K, 2, V): from sources, from destinations
    mask = ((dist[:, None, 0, tables.origins] <= steps)
            & (dist[:, None, 1, tables.targets] <= depth - 1 - steps))
    return TimeExpandedGraph(graph=g, instance=inst, depth=depth, mask=mask, tables=tables)

