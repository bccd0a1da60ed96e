"""Write the committed reference answers with witnesses independent of the
built-in branch and bound.

    python3 perfbench/make_references.py [desk8x8|tiny1500 ...]

* ``desk8x8.json`` (used by ``desk8x8`` and ``desk8x8_near_st``): for each
  instance, starting at the hop-distance depth bound, build the trimmed
  depth-d BILP and hand it to ``scipy.optimize.milp`` (HiGHS MIP, relative
  gap 0).  Depths that ``milp`` proves infeasible are recorded; the first
  feasible depth is the reference depth and its optimum is the reference
  cost, recomputed exactly from the rounded, row-checked assignment.
* ``tiny1500.json``: ``oracle.bfs_optimal_depth`` gives the depth and
  ``oracle.exhaustive_min_cost`` the optimum cost at that depth.

Each entry also stores a fingerprint of its generated instance and error
map, which the benchmark compares at set-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402

import corpora  # noqa: E402
from swaproute import bilp, oracle, texpand  # noqa: E402
from swaproute.graph import distances_from_set  # noqa: E402
from swaproute.noise import movement_costs  # noqa: E402

MILP_TIME_LIMIT_S = 900.0


def hop_bound(g, inst):
    """The bound of ``route.lower_bound_dijkstra``, computed here so that the
    references call none of the solver's own code."""
    return max(max(distances_from_set(g, inst.destinations[k])[s] for s in inst.sources[k])
               for k in range(inst.team_count))


def milp_at_depth(g, inst, costs, depth):
    """Optimum (cost, seconds) of the trimmed depth-d model, or (None, seconds)."""
    model = bilp.build_model(texpand.trim(texpand.expand(g, inst, depth)), costs)
    data, ri, ci = [], [], []
    for r_idx, r in enumerate(model.rows):
        cols = r.plus + r.minus
        data += [1.0] * len(r.plus) + [-1.0] * len(r.minus)
        ri += [r_idx] * len(cols)
        ci += cols
    a = sp.csr_matrix((data, (ri, ci)), shape=(len(model.rows), model.var_count))
    rhs = np.array([r.rhs for r in model.rows], dtype=float)
    lo = np.array([r.rhs if r.rel == "=" else -np.inf for r in model.rows], dtype=float)
    t0 = time.perf_counter()
    res = milp(model.objective, constraints=LinearConstraint(a, lo, rhs),
               integrality=np.ones(model.var_count), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0.0, "time_limit": MILP_TIME_LIMIT_S})
    dt = time.perf_counter() - t0
    if res.status == 2:
        return None, dt
    if res.status != 0:
        raise RuntimeError(f"milp at depth {depth}: status {res.status} {res.message}")
    x = np.round(res.x).astype(int)
    for r in model.rows:
        val = sum(x[v] for v in r.plus) - sum(x[v] for v in r.minus)
        if (r.rel == "=" and val != r.rhs) or (r.rel == "<=" and val > r.rhs):
            raise RuntimeError(f"milp assignment violates row {r.name}")
    cost = float(sum(model.objective[v] for v in np.flatnonzero(x)))
    return cost, dt


def desk_references():
    out = {}
    for case in corpora.build("desk8x8_near_st").cases:
        g, inst = case.graph, case.inst
        costs = movement_costs(g, case.emap, case.cfg.error_model)
        bound = hop_bound(g, inst)
        infeasible, secs = [], 0.0
        depth = bound
        while True:
            cost, dt = milp_at_depth(g, inst, costs, depth)
            secs += dt
            if cost is not None:
                break
            infeasible.append(depth)
            depth += 1
        out[case.key] = {"fingerprint": corpora.fingerprint(case), "depth": depth,
                         "cost": cost, "hop_bound": bound,
                         "milp_infeasible_depths": infeasible,
                         "milp_s": round(secs, 3)}
        print(f"{case.key}: depth {depth} cost {cost!r} infeasible {infeasible} "
              f"({secs:.2f} s)", flush=True)
    return out


def tiny_references():
    out = {}
    for case in corpora.build("tiny1500").cases:
        g, inst = case.graph, case.inst
        depth = oracle.bfs_optimal_depth(g, inst)
        costs = movement_costs(g, case.emap, case.cfg.error_model)
        cost = oracle.exhaustive_min_cost(g, costs, inst, depth)
        out[case.key] = {"fingerprint": corpora.fingerprint(case), "depth": depth,
                         "cost": cost}
    return out


MAKERS = {
    "desk8x8": (desk_references,
                "scipy.optimize.milp (HiGHS, mip_rel_gap=0) on the trimmed depth-d "
                "BILP, deepening from the hop-distance bound"),
    "tiny1500": (tiny_references,
                 "oracle.bfs_optimal_depth for depth, oracle.exhaustive_min_cost "
                 "for the optimum cost at that depth"),
}


def main(argv):
    for name in argv or list(MAKERS):
        make, method = MAKERS[name]
        t0 = time.perf_counter()
        entries = make()
        doc = {"method": method, "scipy": scipy.__version__,
               "generated_s": round(time.perf_counter() - t0, 1), "entries": entries}
        path = corpora.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(entries)} entries", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
