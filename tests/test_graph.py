import dataclasses

import pytest

from swaproute import graph, texpand
from swaproute.graph import (GraphError, HardwareGraph, build_grid, build_layout,
                             distances_from_set, drop_node, load_graph, save_graph)


def test_grid_8x8_counts():
    g = build_grid(8, 8)
    assert g.node_count == 64
    assert g.edge_count == 112  # 2 * 8 * 7 four-neighbor adjacencies


def test_grid_1x2_smallest():
    g = build_grid(1, 2)
    assert g.node_count == 2
    assert g.edges == ((0, 1),)


def test_named_layout_sizes():
    assert build_layout("melbourne15").node_count == 15
    assert build_layout("poughkeepsie20").node_count == 20
    assert build_layout("acorn20").node_count == 20
    assert build_layout("paris27").node_count == 27
    g = build_layout("rochester53")
    assert g.node_count == 53


def test_grid_layout_name():
    g = build_layout("grid:2x3")
    assert g.node_count == 6


def test_unknown_layout():
    with pytest.raises(GraphError):
        build_layout("nonexistent99")
    with pytest.raises(GraphError):
        build_layout("grid:axb")


def test_save_load_round_trip():
    g = build_grid(1, 2)
    assert load_graph(save_graph(g)) == g
    g2 = build_layout("melbourne15")
    assert load_graph(save_graph(g2)) == g2


def test_load_rejects_self_loop():
    with pytest.raises(GraphError):
        load_graph("nodes 2\nedge 0 0\n")


def test_load_rejects_disconnected():
    with pytest.raises(GraphError, match=r"unreachable nodes \[2, 3\]"):
        load_graph("nodes 4\nedge 0 1\nedge 2 3\n")


@pytest.mark.parametrize("text, lineno", [
    ("nodes x\n", 1),
    ("nodes 3\nedge 0 y\n", 2),
    ("nodes 3\nedge 0.5 1\n", 2),
    ("nodes 2\nedge 0 1\nnodes 3\n", 3),
])
def test_load_rejects_malformed_lines_with_line(text, lineno):
    with pytest.raises(GraphError, match=f"^line {lineno}: "):
        load_graph(text)


def test_load_comments_and_blanks():
    g = load_graph("# a comment\nnodes 2\n\nedge 0 1  # trailing\n")
    assert g.edge_count == 1


def test_shortest_distances_path():
    g = build_grid(1, 3)
    assert distances_from_set(g, [0]) == [0, 1, 2]


def test_shortest_distances_self_zero():
    g = build_grid(2, 2)
    for v in range(4):
        assert distances_from_set(g, [v])[v] == 0


def test_shortest_distances_grid22_corner():
    g = build_grid(2, 2)
    assert distances_from_set(g, [0])[3] == 2


def test_distances_edge_lipschitz():
    for name in ("grid:3x3", "melbourne15"):
        g = build_layout(name)
        d = distances_from_set(g, [0])
        for i, j in g.edges:
            assert abs(d[i] - d[j]) <= 1


def test_grid_degrees():
    g = build_grid(4, 5)
    degrees = [len(ns) for ns in g.neighbors]
    assert set(degrees) <= {2, 3, 4}
    assert degrees[0] == 2  # corner


def test_all_layouts_validate():
    for name in graph.NAMED_LAYOUTS:
        g = build_layout(name)  # constructor raises on invalid graphs
        assert g.edge_count >= g.node_count - 1


def test_drop_node_reindexes():
    g = build_grid(1, 3)
    g2 = drop_node(g, 2)
    assert g2.node_count == 2
    assert g2.edges == ((0, 1),)


def test_drop_node_can_disconnect():
    g = build_grid(1, 3)
    with pytest.raises(GraphError):
        drop_node(g, 1)  # middle of a path


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError):
        HardwareGraph(2, [(0, 2)])
    with pytest.raises(GraphError):
        HardwareGraph(0, [])


def test_graph_is_frozen_and_keyed_by_its_edge_set():
    g = build_grid(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = ()
    reordered = HardwareGraph(6, [(j, i) for i, j in reversed(g.edges)])
    assert reordered == g and hash(reordered) == hash(g)
    assert reordered.neighbors == g.neighbors
    assert texpand.graph_tables(reordered) is texpand.graph_tables(g)
