import numpy as np

from swaproute import texpand
from swaproute.graph import build_grid, build_layout, distances_from_set
from swaproute.instance import MqpfInstance, random_instance


def team1(src, dst, flexible=False):
    return MqpfInstance(sources=(tuple(src),), destinations=(tuple(dst),),
                        flexible=flexible)


def test_expand_counts_grid13():
    g = build_grid(1, 3)
    teg = texpand.expand(g, team1([0], [2]), 1)
    assert len(teg.tables.moves) == 2 * 2 + 3  # 7 movement edges per timestep
    assert teg.mask.shape == (1, 1, 7)
    assert teg.mask.all()


def test_expand_depth_zero():
    g = build_grid(1, 2)
    teg = texpand.expand(g, team1([0], [1]), 0)
    assert teg.mask.shape == (1, 0, 4)
    assert teg.mask.sum() == 0


def test_expand_total_movements_grid12_t2():
    g = build_grid(1, 2)
    teg = texpand.expand(g, team1([0], [1]), 2)
    assert teg.mask.size == 2 * (2 * 1 + 2)  # 8 movement variables over 2 steps


def test_trim_removes_fatal_idle():
    # a single qubit at 0 must reach node 2 by t=2: idling at t=1 is fatal
    g = build_grid(1, 3)
    teg = texpand.trim(texpand.expand(g, team1([0], [2]), 2))
    idle0 = teg.tables.moves.index((0, 0))
    assert not teg.mask[0, 0, idle0]
    # moving 0 -> 1 at t=1 stays possible
    assert teg.mask[0, 0, teg.tables.moves.index((0, 1))]


def test_trim_saturates_at_large_depth():
    g = build_grid(2, 2)
    inst = team1([0, 1, 2, 3], [0, 1, 2, 3])
    teg = texpand.trim(texpand.expand(g, inst, 6))
    # by mid-schedule every movement is reachable both ways
    assert teg.mask[0, 3].all()


def test_trim_noop_at_depth_zero():
    g = build_grid(1, 2)
    inst = team1([0], [0])
    teg = texpand.trim(texpand.expand(g, inst, 0))
    assert teg.mask.sum() == 0


def test_trim_mask_is_subset():
    g = build_grid(2, 3)
    inst = MqpfInstance(sources=((0,), (5,)), destinations=((5,), (0,)))
    full = texpand.expand(g, inst, 3)
    trimmed = texpand.trim(full)
    assert trimmed.mask.sum() <= full.mask.sum()
    assert np.all(full.mask | ~trimmed.mask)


def test_trim_respects_bfs_balls():
    g = build_grid(1, 4)
    inst = team1([0], [3])
    teg = texpand.trim(texpand.expand(g, inst, 3))
    for t in range(1, 4):
        for m, (i, j) in enumerate(teg.tables.moves):
            if teg.mask[0, t - 1, m]:
                assert i <= t - 1          # forward reachability on the path
                assert 3 - j <= 3 - t      # backward reachability


def test_expand_deterministic():
    g = build_grid(2, 2)
    inst = team1([0], [3])
    a = texpand.expand(g, inst, 2)
    b = texpand.expand(g, inst, 2)
    assert a.tables.moves == b.tables.moves
    assert np.array_equal(a.mask, b.mask)


def test_graph_tables_built_once_per_graph():
    g = build_grid(3, 3)
    tables = texpand.expand(g, team1([0], [8]), 4).tables
    assert tables is texpand.graph_tables(build_grid(3, 3))
    assert texpand.trim(texpand.expand(g, team1([2], [6]), 2)).tables is tables
    assert not tables.moves_from.flags.writeable


def test_hop_rows_match_bfs():
    for g in (build_grid(3, 4), build_layout("paris27")):
        tables = texpand.graph_tables(g)
        for v in range(g.node_count):
            row = tables.hops_from(v)
            assert not row.flags.writeable
            assert row.tolist() == distances_from_set(g, [v])
            assert tables.hops_from(v) is row


def test_hop_rows_built_only_for_the_nodes_asked_for(monkeypatch):
    g = build_grid(30, 30)
    texpand.graph_tables.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return distances_from_set(*args)
    monkeypatch.setattr(texpand, "distances_from_set", counted)
    inst = MqpfInstance(sources=((0,), (899,)), destinations=((899,), (0,)))
    texpand.team_distances(g, inst)
    texpand.team_distances(g, inst)
    assert sorted(calls) == [(0,), (899,)]


def test_team_distances_match_bfs():
    g = build_grid(4, 4)
    for seed in range(6):
        inst = random_instance(g, 6, ("independent", "mixed", "single")[seed % 3], seed)
        dist = texpand.team_distances(g, inst)
        assert len(dist) == inst.team_count
        for (d_src, d_dst), src, dst in zip(dist, inst.sources, inst.destinations):
            assert d_src.tolist() == distances_from_set(g, src)
            assert d_dst.tolist() == distances_from_set(g, dst)

