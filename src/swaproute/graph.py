"""Hardware graph representation, built-in device layouts, and file I/O.

Nodes are dense integer indices ``0..n-1``.  Graphs are undirected, simple
and connected; edges are stored as sorted ``(i, j)`` pairs with ``i < j``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from importlib import resources


class GraphError(ValueError):
    """Raised for malformed or invalid hardware graphs."""


@dataclass(frozen=True)
class HardwareGraph:
    """Physical qubit layout: nodes are qubits, edges are two-qubit gate pairs.

    Frozen, so safe to share across concurrent solver runs.  ``edges`` may
    come in any order and orientation and are kept canonical, so graphs with
    the same node count and edge set are equal and hash equal.
    """

    node_count: int
    edges: tuple
    neighbors: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        node_count = self.node_count
        if node_count < 1:
            raise GraphError(f"node_count must be >= 1, got {node_count}")
        canonical = set()
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise GraphError(f"edge ({i}, {j}) out of range [0, {node_count})")
            canonical.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        neighbors = [[] for _ in range(node_count)]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(ns)) for ns in neighbors))
        missing = [v for v, d in enumerate(distances_from_set(self, (0,))) if d < 0]
        if missing:
            raise GraphError(f"graph is disconnected; unreachable nodes {missing}")

    @property
    def edge_count(self):
        return len(self.edges)


def distances_from_set(g: HardwareGraph, sources) -> list[int]:
    """Multi-source BFS hop distances (minimum over the source set)."""
    dist = [-1] * g.node_count
    queue = deque()
    for s in sources:
        if not (0 <= s < g.node_count):
            raise GraphError(f"node {s} out of range [0, {g.node_count})")
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        for w in g.neighbors[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def build_grid(rows: int, cols: int) -> HardwareGraph:
    """Rectangular grid with edges between 4-neighbors."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError(f"grid requires rows >= 1, cols >= 1, rows*cols >= 2; got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return HardwareGraph(rows * cols, edges)


#: Named device layouts shipped as adjacency data files.
NAMED_LAYOUTS = ("melbourne15", "poughkeepsie20", "acorn20", "paris27", "rochester53")


def build_layout(name: str) -> HardwareGraph:
    """Build a named layout, e.g. ``melbourne15`` or ``grid:8x8``."""
    if name.startswith("grid:"):
        try:
            rows_s, cols_s = name[len("grid:"):].split("x")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError:
            raise GraphError(f"bad grid layout name {name!r}, expected grid:RxC") from None
        return build_grid(rows, cols)
    if name in NAMED_LAYOUTS:
        text = resources.files("swaproute.data").joinpath(f"{name}.graph").read_text()
        return load_graph(text)
    raise GraphError(f"unknown layout {name!r}; known: {', '.join(NAMED_LAYOUTS)} or grid:RxC")


def drop_node(g: HardwareGraph, node: int) -> HardwareGraph:
    """Remove a node (e.g. an offline qubit) and reindex; re-validates connectivity."""
    if not (0 <= node < g.node_count):
        raise GraphError(f"node {node} out of range [0, {g.node_count})")
    if g.node_count < 2:
        raise GraphError("cannot drop the only node")
    remap = {}
    for v in range(g.node_count):
        if v != node:
            remap[v] = len(remap)
    edges = [(remap[i], remap[j]) for i, j in g.edges if i != node and j != node]
    return HardwareGraph(g.node_count - 1, edges)


def save_graph(g: HardwareGraph) -> str:
    """Serialize a graph to the line-oriented text format."""
    lines = [f"nodes {g.node_count}"]
    lines.extend(f"edge {i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def _line_int(text, lineno):
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"line {lineno}: expected an integer, got {text!r}") from None


def load_graph(text: str) -> HardwareGraph:
    """Parse the line-oriented graph format: ``nodes <n>`` then ``edge <i> <j>`` lines."""
    node_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: expected 'nodes <n>'")
            if node_count is not None:
                raise GraphError(f"line {lineno}: repeated nodes line")
            node_count = _line_int(parts[1], lineno)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'edge <i> <j>'")
            edges.append((_line_int(parts[1], lineno), _line_int(parts[2], lineno)))
        else:
            raise GraphError(f"line {lineno}: unknown directive {parts[0]!r}")
    if node_count is None:
        raise GraphError("missing 'nodes <n>' header")
    return HardwareGraph(node_count, edges)
