"""The three benchmark corpora, built from the package's own generators.

Every corpus is a fixed list of instances with committed reference answers
(see ``make_references.py``).  The benchmark's ``--seed`` only chooses the
order in which a run visits them: seed 0 keeps the order listed here, any
other seed is a seeded shuffle.  The set of instances never changes, so the
committed references always cover it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swaproute.graph import HardwareGraph, build_grid
from swaproute.instance import MqpfInstance, random_instance
from swaproute.noise import HERON, ErrorMap, sample_error_map
from swaproute.route import RouteConfig
from swaproute.solver import SolverConfig

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Seed 2 (57-68 s, 1417 B&B nodes) and seed 26 (over 120 s in every mode)
# are left out of the optimal-mode corpus for run length only; seed 26 is
# also left out of the near-optimal corpus.  See README.md.
DESK_OPTIMAL_SEEDS = tuple(s for s in range(40) if s not in (2, 26))
DESK_NEAR_SEEDS = tuple(s for s in range(40) if s != 26)
TINY_PER_GRAPH = 500

# Per-solve wall budget handed to solve_mqpf; a timeout counts as a failure.
DESK_TIMEOUT_S = 30.0
TINY_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Case:
    key: str            # reference key, e.g. "grid:8x8/s5" or "cycle6/17"
    graph: HardwareGraph
    emap: ErrorMap
    inst: MqpfInstance
    cfg: RouteConfig


@dataclass(frozen=True)
class Workload:
    name: str
    reference_file: str
    check: str          # "optimal": status optimal and cost equal to the reference;
                        # "near_optimal": solved, cost within the near-optimal gap
    cases: tuple


def build_cycle(n):
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return HardwareGraph(n, edges)


def uniform_error_map(g, eps=0.001, t1=176.0, t2=140.0):
    return ErrorMap(cnot_error={e: eps for e in g.edges},
                    t1=(t1,) * g.node_count, t2=(t2,) * g.node_count)


def maybe_flexible_instance(g, n_qubits, mode, seed, flexible):
    """A strict random instance, optionally widened to flexible destinations
    (one extra random destination per team with probability 1/2).  This is
    the criterion-1 acceptance corpus generator."""
    inst = random_instance(g, n_qubits, mode, seed)
    if not flexible:
        return inst
    rng = np.random.default_rng(seed + 10**9)
    dests = []
    for d in inst.destinations:
        extra = int(rng.integers(0, 2))
        pool = [v for v in range(g.node_count) if v not in d]
        if extra and pool:
            picks = rng.choice(len(pool), size=min(extra, len(pool)), replace=False)
            d = tuple(d) + tuple(pool[i] for i in picks)
        dests.append(tuple(d))
    return MqpfInstance(sources=inst.sources, destinations=tuple(dests), flexible=True)


def _desk_cases(seeds, mode, presolve):
    g = build_grid(8, 8)
    cfg = RouteConfig(error_model="extended", presolve=presolve, timeout=DESK_TIMEOUT_S,
                      solver=SolverConfig(mode=mode))
    return tuple(
        Case(f"grid:8x8/s{s}", g, sample_error_map(g, HERON, s + 1000),
             random_instance(g, 8, "independent", s), cfg)
        for s in seeds)


def _tiny_cases():
    cfg = RouteConfig(timeout=TINY_TIMEOUT_S)
    cases = []
    for name, g in (("path6", build_grid(1, 6)), ("cycle6", build_cycle(6)),
                    ("grid2x3", build_grid(2, 3))):
        emap = uniform_error_map(g)
        for seed in range(TINY_PER_GRAPH):
            inst = maybe_flexible_instance(g, 1 + seed % 4,
                                           ("independent", "mixed", "single")[seed % 3],
                                           seed, seed % 2 == 1)
            cases.append(Case(f"{name}/{seed}", g, emap, inst, cfg))
    return tuple(cases)


WORKLOADS = ("desk8x8", "desk8x8_near_st", "tiny1500")


def build(name) -> Workload:
    if name == "desk8x8":
        return Workload(name, "desk8x8.json", "optimal",
                        _desk_cases(DESK_OPTIMAL_SEEDS, "optimal", "dijkstra"))
    if name == "desk8x8_near_st":
        return Workload(name, "desk8x8.json", "near_optimal",
                        _desk_cases(DESK_NEAR_SEEDS, "near_optimal", "single_team"))
    if name == "tiny1500":
        return Workload(name, "tiny1500.json", "optimal", _tiny_cases())
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def visit_order(n, seed):
    """The order a run visits the corpus: as listed for seed 0, else shuffled."""
    order = list(range(n))
    if seed:
        random.Random(seed).shuffle(order)
    return order


def fingerprint(case: Case) -> str:
    """Digest of the generated instance and error map, so that a change to the
    package's generators cannot silently pair references with other inputs."""
    inst, emap = case.inst, case.emap
    text = repr((inst.sources, inst.destinations, inst.flexible,
                 sorted(emap.cnot_error.items()), emap.t1, emap.t2, emap.cnot_duration))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
