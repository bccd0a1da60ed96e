"""Problem instances: teams of abstract qubits with source/destination sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TEAM_MODES = ("independent", "mixed", "single")


class InstanceError(ValueError):
    """Raised for malformed instance files or bad generator arguments."""


@dataclass(frozen=True)
class MqpfInstance:
    """K teams of interchangeable abstract qubits on a hardware graph.

    ``sources[k]`` and ``destinations[k]`` are sorted node tuples.  In strict
    mode (``flexible=False``) destination sets are pairwise disjoint and
    match source cardinalities; in flexible mode a team may have more
    destinations than qubits and teams may share destinations.

    Qubit identities are positional: team k's members are numbered by the
    sorted order of their source nodes.
    """

    sources: tuple
    destinations: tuple
    flexible: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(tuple(sorted(s)) for s in self.sources))
        object.__setattr__(self, "destinations",
                           tuple(tuple(sorted(d)) for d in self.destinations))
        if len(self.sources) != len(self.destinations):
            raise InstanceError("sources and destinations must have the same team count")
        if len(self.sources) == 0:
            raise InstanceError("instance needs at least one team")

    @property
    def team_count(self) -> int:
        return len(self.sources)

    @property
    def qubit_count(self) -> int:
        return sum(len(s) for s in self.sources)


def validate(g, inst: MqpfInstance) -> list[str]:
    """Return every invariant violation (empty list means the instance is valid),
    the source ones first, then the destination ones, each in team order."""
    violations = []
    for kind, node_sets, exclusive in (("source", inst.sources, True),
                                       ("destination", inst.destinations, not inst.flexible)):
        owner = {}  # node -> the first team that holds it
        for k, nodes in enumerate(node_sets):
            if len(nodes) != len(set(nodes)):
                violations.append(f"team {k}: duplicate {kind} nodes")
            for v in nodes:
                if not (0 <= v < g.node_count):
                    violations.append(f"team {k}: {kind} node {v} out of range")
                elif exclusive and v in owner:
                    violations.append(f"teams {owner[v]} and {k}: shared {kind} node {v}")
                elif exclusive:
                    owner[v] = k
            n_src, n_dst = len(inst.sources[k]), len(nodes)
            if kind == "source":
                if not nodes:
                    violations.append(f"team {k}: empty source set")
            elif inst.flexible:
                if n_src > n_dst:
                    violations.append(
                        f"team {k}: {n_src} sources but only {n_dst} destinations")
            elif n_src != n_dst:
                violations.append(
                    f"team {k}: source/destination cardinality mismatch ({n_src} vs {n_dst})")
    return violations


def random_instance(g, n_qubits: int, mode: str, seed: int) -> MqpfInstance:
    """Sample a strict random instance.

    Sources and destinations are independent uniform random node subsets of
    size ``n_qubits`` (qubit i pairs source i with destination i).  Teams:
    ``independent`` puts each qubit in its own team, ``single`` one team, and
    ``mixed`` draws a team count uniformly in [1, n] then assigns each qubit
    to a uniform team, dropping empty teams.
    """
    if mode not in TEAM_MODES:
        raise InstanceError(f"unknown team mode {mode!r}; expected one of {TEAM_MODES}")
    if not (1 <= n_qubits <= g.node_count):
        raise InstanceError(
            f"n_qubits must be in [1, {g.node_count}], got {n_qubits}")
    rng = np.random.default_rng(seed)
    srcs = rng.choice(g.node_count, size=n_qubits, replace=False)
    dsts = rng.choice(g.node_count, size=n_qubits, replace=False)
    if mode == "independent":
        assign = list(range(n_qubits))
    elif mode == "single":
        assign = [0] * n_qubits
    else:
        n_teams = int(rng.integers(1, n_qubits + 1))
        assign = [int(t) for t in rng.integers(0, n_teams, size=n_qubits)]
    teams = sorted(set(assign))
    sources = tuple(tuple(int(srcs[i]) for i in range(n_qubits) if assign[i] == k)
                    for k in teams)
    destinations = tuple(tuple(int(dsts[i]) for i in range(n_qubits) if assign[i] == k)
                         for k in teams)
    return MqpfInstance(sources=sources, destinations=destinations, flexible=False)


def save_instance(inst: MqpfInstance) -> str:
    """Serialize an instance to the line-oriented text format."""
    lines = [f"teams {inst.team_count}",
             f"flexible {'true' if inst.flexible else 'false'}"]
    for k in range(inst.team_count):
        srcs = " ".join(str(v) for v in inst.sources[k])
        dsts = " ".join(str(v) for v in inst.destinations[k])
        lines.append(f"team {k} sources {srcs} dests {dsts}")
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> MqpfInstance:
    """Parse the instance text format."""
    team_count = None
    flexible = False
    teams = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "teams" and len(parts) == 2:
            if team_count is not None:
                raise InstanceError(f"line {lineno}: repeated teams line")
            try:
                team_count = int(parts[1])
            except ValueError:
                raise InstanceError(f"line {lineno}: bad teams line {raw!r}") from None
        elif parts[0] == "flexible" and len(parts) == 2:
            if parts[1] not in ("true", "false"):
                raise InstanceError(f"line {lineno}: flexible must be true or false")
            flexible = parts[1] == "true"
        elif parts[0] == "team":
            try:
                k = int(parts[1])
                si = parts.index("sources")
                di = parts.index("dests")
                team = (tuple(int(v) for v in parts[si + 1:di]),
                        tuple(int(v) for v in parts[di + 1:]))
            except (ValueError, IndexError):
                raise InstanceError(f"line {lineno}: bad team line {raw!r}") from None
            if k in teams:
                raise InstanceError(f"line {lineno}: repeated line for team {k}")
            teams[k] = team
        else:
            raise InstanceError(f"line {lineno}: unknown directive {parts[0]!r}")
    if team_count is None:
        raise InstanceError("missing 'teams <K>' header")
    if sorted(teams) != list(range(team_count)):
        raise InstanceError(f"expected team lines 0..{team_count - 1}, got {sorted(teams)}")
    return MqpfInstance(sources=tuple(teams[k][0] for k in range(team_count)),
                        destinations=tuple(teams[k][1] for k in range(team_count)),
                        flexible=flexible)


def merge_teams(inst: MqpfInstance) -> MqpfInstance:
    """Single-team relaxation: all qubits share one source and destination pool."""
    all_src = tuple(v for s in inst.sources for v in s)
    all_dst = tuple(sorted(set(v for d in inst.destinations for v in d)))
    return MqpfInstance(sources=(all_src,), destinations=(all_dst,),
                        flexible=inst.flexible or len(all_dst) != len(all_src))
