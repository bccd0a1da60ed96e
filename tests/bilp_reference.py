"""The loop-based model builder the array builder replaced, kept as its
reference: one Python ``Row`` per constraint, built per ``(k, t, m)``."""

from swaproute.bilp import Row


def reference_model(teg, costs):
    """(rows, var_ids, objective) of the routing BILP of ``teg``."""
    g, inst, depth = teg.graph, teg.instance, teg.depth
    n_teams = inst.team_count
    moves_from = [[m for m, (i, _) in enumerate(teg.tables.moves) if i == v]
                  for v in range(g.node_count)]
    moves_into = [[m for m, (_, j) in enumerate(teg.tables.moves) if j == v]
                  for v in range(g.node_count)]
    move_index = {mv: m for m, mv in enumerate(teg.tables.moves)}

    var_ids = []
    var_index = {}
    obj = []

    def add_var(vid, cost):
        var_index[vid] = len(var_ids)
        var_ids.append(vid)
        obj.append(cost)

    move_vars = {}  # (k, t, m) -> ordinal
    for k in range(n_teams):
        for t in range(1, depth + 1):
            row_mask = teg.mask[k, t - 1]
            for m, (i, j) in enumerate(teg.tables.moves):
                if row_mask[m]:
                    move_vars[(k, t, m)] = len(var_ids)
                    add_var(("move", k, t, i, j), costs.movement_cost(i, j))
    for k in range(n_teams):
        for i in inst.sources[k]:
            add_var(("src", k, i), 0.0)
    for k in range(n_teams):
        for i in inst.destinations[k]:
            add_var(("dst", k, i), 0.0)

    src_var = {(k, i): var_index[("src", k, i)]
               for k in range(n_teams) for i in inst.sources[k]}
    dst_var = {(k, i): var_index[("dst", k, i)]
               for k in range(n_teams) for i in inst.destinations[k]}

    def outflow(k, t, i):
        return [move_vars[(k, t, m)] for m in moves_from[i] if (k, t, m) in move_vars]

    def inflow(k, t, i):
        return [move_vars[(k, t, m)] for m in moves_into[i] if (k, t, m) in move_vars]

    rows = []

    def add_row(name, plus, minus, rel, rhs):
        if rel == "<=" and len(plus) <= rhs and not minus:
            return  # satisfied by binarity
        if not plus and not minus:
            if (rel == "=" and rhs != 0) or (rel == "<=" and rhs < 0):
                raise AssertionError(f"emitted an unsatisfiable empty row {name}")
            return
        rows.append(Row(name, tuple(plus), tuple(minus), rel, rhs))

    # (1) conservation of flow: source boundary, interior layers, destination boundary
    if depth == 0:
        for k in range(n_teams):
            for i in range(g.node_count):
                plus = [src_var[(k, i)]] if (k, i) in src_var else []
                minus = [dst_var[(k, i)]] if (k, i) in dst_var else []
                add_row(f"flow_src_k{k}_{i}", plus, minus, "=", 0)
    else:
        for k in range(n_teams):
            for i in range(g.node_count):
                out1 = outflow(k, 1, i)
                plus = [src_var[(k, i)]] if (k, i) in src_var else []
                add_row(f"flow_src_k{k}_{i}", plus, out1, "=", 0)
        for t in range(1, depth):
            for k in range(n_teams):
                for i in range(g.node_count):
                    add_row(f"flow_k{k}_t{t}_{i}",
                            inflow(k, t, i), outflow(k, t + 1, i), "=", 0)
        for k in range(n_teams):
            for i in range(g.node_count):
                minus = [dst_var[(k, i)]] if (k, i) in dst_var else []
                add_row(f"flow_dst_k{k}_{i}", inflow(k, depth, i), minus, "=", 0)

    # (2) edge flow capacity: one qubit per directed movement per timestep
    for t in range(1, depth + 1):
        for m, (i, j) in enumerate(teg.tables.moves):
            users = [move_vars[(k, t, m)] for k in range(n_teams) if (k, t, m) in move_vars]
            add_row(f"cap_t{t}_{i}_{j}", users, [], "<=", 1)

    # (3) unit flow on attachments (destination equalities dropped when flexible)
    for k in range(n_teams):
        for i in inst.sources[k]:
            add_row(f"srcflow_k{k}_{i}", [src_var[(k, i)]], [], "=", 1)
    if not inst.flexible:
        for k in range(n_teams):
            for i in inst.destinations[k]:
                add_row(f"dstflow_k{k}_{i}", [dst_var[(k, i)]], [], "=", 1)

    # (5) exclusivity of location
    for t in range(1, depth + 1):
        for i in range(g.node_count):
            users = [v for k in range(n_teams) for v in inflow(k, t, i)]
            add_row(f"excl_t{t}_{i}", users, [], "<=", 1)

    # (6) swap-based movement, one row per ordered pair of each hardware edge
    for t in range(1, depth + 1):
        for i, j in g.edges:
            for a, b in ((i, j), (j, i)):
                m_ab = move_index[(a, b)]
                vars_ = [move_vars[(k, t, m_ab)] for k in range(n_teams)
                         if (k, t, m_ab) in move_vars]
                for l in (*g.neighbors[b], b):
                    if l == a:
                        continue
                    m_bl = move_index[(b, l)]
                    vars_.extend(move_vars[(k, t, m_bl)] for k in range(n_teams)
                                 if (k, t, m_bl) in move_vars)
                add_row(f"swap_t{t}_{a}_{b}", vars_, [], "<=", 1)

    return tuple(rows), tuple(var_ids), obj
