"""Translate a (trimmed) time expansion into a binary integer linear program.

All variables are binary and all coefficients +/-1.  A model is arrays: CSR
rows (``indptr``, ``indices``, and ``signs`` with each row's +1 entries before
its -1 entries), a per-row ``eq`` flag (``=``, else ``<=``) and ``rhs``.
``build_model`` fills them with numpy gathers of the ``(K, T, M)`` trim mask,
and the objective with one of ``MovementCosts.vector``, through the movement
tables of ``texpand.graph_tables``, built once per graph: each constraint
family lays out its candidate rows, and one compaction pass over all of them
drops the rows that are empty or that binarity satisfies.
Rows keep a fixed order (family, then timestep, team, node or edge) and so do
variables (movements by team, timestep and movement, then attachments:
sources, then destinations, each team by team with nodes ascending), so an
expansion always gives a byte-identical model; ``plan.plan_expansion``
lays out its start and basis in this order.  Names are never built for the
solver: ``rows`` is a view derived on first use.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

# Variable kinds in ``BilpModel.var_keys[:, 0]`` (the other columns are
# k, t, i, j) and the LP name each formats from its key:
#   move  x_k{k}_t{t}_{i}_{j}  movement of a team-k qubit from i at t-1 to j at t
#   src   s_k{k}_{i}           attachment edge from team k's source node to i
#   dst   d_k{k}_{i}           attachment edge from i to team k's destination node
MOVE, SRC, DST = 0, 1, 2
_VAR_NAMES = ("x_k{1}_t{2}_{3}_{4}", "s_k{1}_{3}", "d_k{1}_{3}")

# Row families in column 0 of ``BilpModel.derive_row_keys()``, in emission
# order: the row name each formats from the key's remaining columns, its
# relation and rhs.
_FAMILIES = ("flow_src_k{}_{}", "flow_k{}_t{}_{}", "flow_dst_k{}_{}", "cap_t{}_{}_{}",
             "srcflow_k{}_{}", "dstflow_k{}_{}", "excl_t{}_{}", "swap_t{}_{}_{}")
FLOW_SRC, FLOW, FLOW_DST, CAP, SRCFLOW, DSTFLOW, EXCL, SWAP = range(len(_FAMILIES))
_EQ = np.array([True, True, True, False, True, True, False, False])
_RHS = np.array([0, 0, 0, 1, 1, 1, 1, 1])
_MIN_COUNT = np.where(_EQ, 1, 2)  # fewest entries of a kept row


class Row(NamedTuple):
    """One sparse constraint row: sum(plus) - sum(minus) <rel> rhs."""

    name: str
    plus: tuple
    minus: tuple
    rel: str  # "=" or "<="
    rhs: int


@dataclass(frozen=True)
class BilpModel:
    """A routing BILP as arrays.  Every row has at least one nonzero."""

    var_count: int
    objective: np.ndarray  # float (n,)
    var_keys: np.ndarray   # int32 (n, 5): kind, k, t, i, j (t = 0 and j = i on attachments)
    indptr: np.ndarray     # int32 (rows + 1,)
    indices: np.ndarray    # int32 (nonzeros,): variable ordinals, plus entries first per row
    signs: np.ndarray      # int8 (nonzeros,): +1 or -1
    eq: np.ndarray         # bool (rows,)
    rhs: np.ndarray        # int64 (rows,)
    # returns the int32 (rows, 4) row keys: family, then the ints of the row's name
    derive_row_keys: Callable[[], np.ndarray] = field(repr=False)

    @property
    def row_count(self) -> int:
        return len(self.rhs)

    @cached_property
    def rows(self) -> tuple:
        """The rows as named ``Row`` tuples: a view for LP export and tests."""
        ind, ptr = self.indices.tolist(), self.indptr.tolist()
        mid = self.indptr[:-1] + np.add.reduceat(self.signs > 0, self.indptr[:-1], dtype=int)
        return tuple(Row(_FAMILIES[f].format(a, b, c), tuple(ind[lo:m]), tuple(ind[m:hi]),
                         "=" if eq else "<=", rhs)
                     for (f, a, b, c), eq, rhs, lo, m, hi in zip(
                         self.derive_row_keys().tolist(), self.eq.tolist(), self.rhs.tolist(),
                         ptr, mid.tolist(), ptr[1:]))

    def var_name(self, ordinal: int) -> str:
        key = self.var_keys[ordinal].tolist()
        return _VAR_NAMES[key[0]].format(*key)


def build_model(teg, costs) -> BilpModel:
    """Emit the routing BILP over the expansion's masked-in variables.

    Constraint families: (1) per-team flow conservation with source and
    destination boundary rows, (2) unit capacity per directed movement edge,
    (3) unit flow on source attachments (and destination attachments unless
    the instance is flexible), (5) at most one qubit per node per timestep,
    (6) swap pairing: a move i->j excludes any move out of j that does not
    return to i.  Trivially satisfied rows are dropped.
    """
    g, inst, depth, tab = teg.graph, teg.instance, teg.depth, teg.tables
    n_teams, n_nodes, n_moves = inst.team_count, g.node_count, len(tab.moves)

    # ordinal of each (k, t, m) movement variable, -1 where masked out; the
    # extra column m = n_moves is the padding index of the movement tables
    k_of, t_of, m_of = np.nonzero(teg.mask)
    n_move_vars = len(m_of)
    var_of = np.full((n_teams, depth, n_moves + 1), -1, dtype=np.int32)
    var_of[k_of, t_of, m_of] = np.arange(n_move_vars)
    att = np.array([(kind, k, 0, i, i) for kind, sets in ((SRC, inst.sources),
                                                          (DST, inst.destinations))
                    for k, nodes in enumerate(sets) for i in nodes], dtype=np.int32)
    var_keys = np.concatenate([np.column_stack([np.full_like(m_of, MOVE), k_of, t_of + 1,
                                                tab.origins[m_of], tab.targets[m_of]]),
                               att]).astype(np.int32)
    objective = np.concatenate([costs.vector[m_of], np.zeros(len(att))])
    # per team and node, the ordinal of its source (destination) attachment or -1
    att_ord = np.arange(n_move_vars, len(var_keys), dtype=np.int32)
    att_of = np.full((2, n_teams, n_nodes, 1), -1, dtype=np.int32)
    att_of[att[:, 0] - SRC, att[:, 1], att[:, 3], 0] = att_ord
    src_of, dst_of = att_of
    n_src = sum(map(len, inst.sources))  # attachments list sources first

    # per (k, t-1, node, slot): movement ordinals out of / into each node
    outflow = var_of[:, :, tab.moves_from]
    inflow = var_of[:, :, tab.moves_into]
    # Each family lays out its candidate rows over a grid of row coordinates:
    # ``plus`` (and ``minus``) hold, per grid cell, the ordinals of its +1
    # (-1) entries or -1 for "absent", and ``name`` maps grid coordinates to
    # name ints.  Every row has at least one slot, as ``np.add.reduceat`` needs.
    blocks = []

    def add(family, grid, name, plus, minus=None):
        blocks.append((family, grid, name, plus, minus))

    def step_move(t0, m):
        return t0 + 1, tab.origins[m], tab.targets[m]

    # (1) conservation of flow: source boundary, interior layers, destination boundary
    add(FLOW_SRC, (n_teams, n_nodes), lambda k, i: (k, i),
        src_of, outflow[:, 0] if depth else dst_of)
    if depth:
        # row (t, k, i): inflow at t minus outflow at t + 1
        add(FLOW, (depth - 1, n_teams, n_nodes), lambda t0, k, i: (k, t0 + 1, i),
            inflow[:, :-1].transpose(1, 0, 2, 3), outflow[:, 1:].transpose(1, 0, 2, 3))
        add(FLOW_DST, (n_teams, n_nodes), lambda k, i: (k, i), inflow[:, -1], dst_of)
    # (2) edge flow capacity: one qubit per directed movement per timestep
    add(CAP, (depth, n_moves), step_move, var_of[:, :, :n_moves].transpose(1, 2, 0))
    # (3) unit flow on attachments (destination equalities dropped when flexible)
    add(SRCFLOW, (n_src,), lambda a: att[a][:, [1, 3]].T, att_ord[:n_src, None])
    if not inst.flexible:
        add(DSTFLOW, (len(att) - n_src,), lambda a: att[n_src + a][:, [1, 3]].T,
            att_ord[n_src:, None])
    # (5) exclusivity of location: row (t, i) lists team by team the moves into i
    add(EXCL, (depth, n_nodes), lambda t0, i: (t0 + 1, i), inflow.transpose(1, 2, 0, 3))
    # (6) swap-based movement, one row per ordered pair of each hardware edge:
    # row (t, a -> b) lists move by move of its sequence the ordinals of every team
    add(SWAP, (depth, len(tab.swap_moves)), step_move,
        var_of[:, :, tab.swap_moves].transpose(1, 2, 3, 0))

    # Copy every candidate row into one flat array, a minus ordinal v stored as
    # -2 - v (which leaves -1 for "absent"), then compact them all at once:
    # drop empty rows and the "<= 1" rows binarity satisfies, that is, keep
    # the rows with at least _MIN_COUNT entries.
    families, grids, names, pluses, minuses = zip(*blocks)
    n_rows = np.array([math.prod(grid) for grid in grids])
    width = np.array([math.prod(p.shape[len(grid):]) + (0 if m is None else m.shape[-1])
                      for grid, p, m in zip(grids, pluses, minuses)]).repeat(n_rows)
    family = np.array(families).repeat(n_rows)
    flat = np.empty(width.sum(), dtype=np.int32)
    end = 0
    for p, m in zip(pluses, minuses):
        rows = flat[end:end + p.size + (0 if m is None else m.size)]
        end += rows.size
        if m is None:
            rows.reshape(p.shape)[...] = p  # a contiguous slice: reshape is a view
        else:
            rows = rows.reshape(*p.shape[:-1], p.shape[-1] + m.shape[-1])
            rows[..., :p.shape[-1]] = p
            np.subtract(-2, m, out=rows[..., p.shape[-1]:])
    present = flat != -1
    count = np.add.reduceat(present, width.cumsum() - width, dtype=np.int32)
    keep = count >= _MIN_COUNT[family]
    entries = flat[present & keep.repeat(width)]
    indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int32)
    np.cumsum(count[keep], out=indptr[1:])
    family = family[keep]
    minus = entries < 0
    return BilpModel(var_count=len(var_keys), objective=objective, var_keys=var_keys,
                     indptr=indptr, indices=np.where(minus, -2 - entries, entries),
                     signs=np.where(minus, -1, 1).astype(np.int8), eq=_EQ[family],
                     rhs=_RHS[family],
                     derive_row_keys=partial(_row_keys, keep, tuple(zip(families, grids, names))))


def _row_keys(keep, blocks):
    """The row keys of the candidate rows that ``keep`` selects from
    ``blocks``, a tuple of ``(family, grid, name)`` in emission order."""
    keys, start = [], 0
    for family, grid, name in blocks:
        n = math.prod(grid)
        kept = np.flatnonzero(keep[start:start + n])
        start += n
        block = np.zeros((len(kept), 4), dtype=np.int32)
        block[:, 0] = family
        for c, col in enumerate(name(*np.unravel_index(kept, grid)), 1):
            block[:, c] = col
        keys.append(block)
    return np.concatenate(keys)
