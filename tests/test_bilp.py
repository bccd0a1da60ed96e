import hashlib
import math

import numpy as np
import pytest

from swaproute import bilp, solver, texpand
from swaproute.graph import build_grid, build_layout
from swaproute.instance import MqpfInstance, random_instance
from swaproute.noise import HERON, movement_costs, sample_error_map
from swaproute.route import lower_bound_dijkstra

from bilp_reference import reference_model
from conftest import build_cycle, random_maybe_flexible_instance, uniform_error_map


def one_swap_model(trim=False):
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((1,),))
    teg = texpand.expand(g, inst, 1)
    if trim:
        teg = texpand.trim(teg)
    costs = movement_costs(g, uniform_error_map(g, eps=0.001), "simple")
    return bilp.build_model(teg, costs)


def assignment_satisfies(model, x):
    for r in model.rows:
        val = sum(x[v] for v in r.plus) - sum(x[v] for v in r.minus)
        if r.rel == "=" and val != r.rhs:
            return False
        if r.rel == "<=" and val > r.rhs:
            return False
    return True


def test_one_swap_model_counts():
    model = one_swap_model()
    # 2|E| + |V| = 4 movement variables plus one source and one dest attachment
    assert model.var_count == 6


def test_one_swap_feasible_assignment():
    model = one_swap_model()
    x = [0] * model.var_count
    x[model.var_ids.index(("move", 0, 1, 0, 1))] = 1
    x[model.var_ids.index(("src", 0, 0))] = 1
    x[model.var_ids.index(("dst", 0, 1))] = 1
    assert assignment_satisfies(model, x)


def test_one_swap_idle_only_is_infeasible():
    model = one_swap_model()
    x = [0] * model.var_count
    x[model.var_ids.index(("move", 0, 1, 0, 0))] = 1
    x[model.var_ids.index(("src", 0, 0))] = 1
    x[model.var_ids.index(("dst", 0, 1))] = 1
    assert not assignment_satisfies(model, x)


def test_depth_zero_unsolved_instance_infeasible():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((1,),))
    teg = texpand.expand(g, inst, 0)
    costs = movement_costs(g, uniform_error_map(g), "simple")
    model = bilp.build_model(teg, costs)
    # source row demands flow at node 0, dest row at node 1; they conflict
    assert not any(assignment_satisfies(model, x)
                   for x in ([0, 0], [0, 1], [1, 0], [1, 1]))


def test_swap_row_contents_grid13():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,),), destinations=((2,),))
    teg = texpand.expand(g, inst, 2)
    costs = movement_costs(g, uniform_error_map(g), "simple")
    model = bilp.build_model(teg, costs)
    row = next(r for r in model.rows if r.name == "swap_t1_0_1")
    names = {model.var_ids[v] for v in row.plus}
    assert names == {("move", 0, 1, 0, 1), ("move", 0, 1, 1, 1), ("move", 0, 1, 1, 2)}


def test_objective_zero_on_attachments():
    model = one_swap_model()
    for ordinal, vid in enumerate(model.var_ids):
        if vid[0] in ("src", "dst"):
            assert model.objective[ordinal] == 0.0


def test_objective_simple_swap_cost():
    model = one_swap_model()
    v = model.var_ids.index(("move", 0, 1, 0, 1))
    assert model.objective[v] == pytest.approx(-3.0 * math.log(0.999), abs=1e-15)


def test_trimmed_no_larger():
    full = one_swap_model(trim=False)
    trimmed = one_swap_model(trim=True)
    assert trimmed.var_count <= full.var_count


def test_flexible_drops_destination_equalities():
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((2, 3),), flexible=True)
    teg = texpand.expand(g, inst, 1)
    costs = movement_costs(g, uniform_error_map(g), "simple")
    model = bilp.build_model(teg, costs)
    assert not any(r.name.startswith("dstflow") for r in model.rows)
    strict = MqpfInstance(sources=((0,), (1,)), destinations=((2,), (3,)))
    teg2 = texpand.expand(g, strict, 1)
    model2 = bilp.build_model(teg2, costs)
    assert any(r.name.startswith("dstflow") for r in model2.rows)


def test_row_order_stable():
    a = one_swap_model()
    b = one_swap_model()
    assert [r.name for r in a.rows] == [r.name for r in b.rows]
    assert a.var_ids == b.var_ids


def test_var_names():
    model = one_swap_model()
    names = {model.var_name(v) for v in range(model.var_count)}
    assert "x_k0_t1_0_1" in names
    assert "s_k0_0" in names
    assert "d_k0_1" in names


# --- the array builder against the loop-based reference ----------------------

LAYOUTS = {"grid:8x8": build_grid(8, 8), "path6": build_grid(1, 6), "cycle6": build_cycle(6),
           "paris27": build_layout("paris27"), "rochester53": build_layout("rochester53")}


def reference_corpus():
    """Seeded (name, teg, costs) cases: every layout, 1 to 8 teams, strict and
    flexible instances, trimmed and untrimmed, at depths 0 and b-1, b, b+1
    around the hop bound b."""
    names = sorted(LAYOUTS)
    for seed in range(24):
        name = names[seed % len(names)]
        g = LAYOUTS[name]
        n_qubits = min(1 + seed % 8, g.node_count)
        mode = "independent" if seed % 3 else ("mixed", "single")[seed // 3 % 2]
        inst = random_maybe_flexible_instance(g, n_qubits, mode, seed, flexible=seed % 4 == 1)
        costs = movement_costs(g, sample_error_map(g, HERON, seed),
                               ("simple", "extended")[seed % 2])
        bound = lower_bound_dijkstra(g, inst)
        for depth in sorted({0, max(bound - 1, 0), bound, bound + 1}):
            teg = texpand.expand(g, inst, depth)
            yield name, teg, costs
            yield name, texpand.trim(teg), costs


def test_builder_matches_loop_reference():
    covered = {"layouts": set(), "teams": set(), "flexible": set(), "depth0": 0}
    for name, teg, costs in reference_corpus():
        model = bilp.build_model(teg, costs)
        rows, var_ids, objective = reference_model(teg, costs)
        assert model.rows == rows, name
        assert model.var_ids == var_ids, name
        assert model.objective.tolist() == objective, name
        assert model.var_count == len(var_ids)
        covered["layouts"].add(name)
        covered["teams"].add(teg.instance.team_count)
        covered["flexible"].add(teg.instance.flexible)
        covered["depth0"] += teg.depth == 0
    assert covered["layouts"] == set(LAYOUTS)
    assert covered["teams"] >= set(range(1, 9))
    assert covered["flexible"] == {False, True}
    assert covered["depth0"] > 0


def pinned_model(case):
    """The models whose LP export is pinned below."""
    if case == "grid2x3":
        g = build_grid(2, 3)
        inst = random_instance(g, 3, "mixed", 1)
        costs = movement_costs(g, uniform_error_map(g, eps=0.002), "simple")
        teg = texpand.trim(texpand.expand(g, inst, lower_bound_dijkstra(g, inst)))
    elif case == "path6_flexible":
        g = build_grid(1, 6)
        inst = random_maybe_flexible_instance(g, 3, "independent", 4, True)
        costs = movement_costs(g, sample_error_map(g, HERON, 7), "extended")
        teg = texpand.expand(g, inst, lower_bound_dijkstra(g, inst) + 1)
    elif case == "paris27":
        g = build_layout("paris27")
        inst = random_instance(g, 6, "mixed", 2)
        costs = movement_costs(g, sample_error_map(g, HERON, 3), "extended")
        teg = texpand.trim(texpand.expand(g, inst, lower_bound_dijkstra(g, inst)))
    else:
        g = build_cycle(6)
        inst = random_instance(g, 2, "single", 5)
        costs = movement_costs(g, uniform_error_map(g), "simple")
        teg = texpand.expand(g, inst, 0)
    return bilp.build_model(teg, costs)


# sha256 of the LP text, as written by the loop-based builder
PINNED_EXPORTS = {
    "grid2x3": "17d4af97d97fb4af8cc051678427bfc149aa1352ea666f407dee336dd0ea2b2a",
    "path6_flexible": "b943c33592ea10602367912efb5420c0f429670b4bc6b7b55c3975ae4f3096e3",
    "paris27": "09c7c1e82b05d2ea7a71bd2e3566c68e438c1f248abfdb79cb5e7d33722acf36",
    "cycle6_depth0": "00dcc6999e880ed93e435016961f0db665558b7574709e07eba9e3cbd1d025c6",
}


@pytest.mark.parametrize("case", sorted(PINNED_EXPORTS))
def test_export_lp_bytes_pinned(case):
    text = solver.export_lp(pinned_model(case))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXPORTS[case]


# sha256 of the arrays HiGHS and the propagator read, each with its dtype and
# shape, as written by the builder that compacted every family separately
PINNED_ARRAYS = {
    "grid2x3": "b7f8b4e588bb29fd86764f655e1662804cbe1176f57e190200832f1a45288fc5",
    "path6_flexible": "f045ec19f004ebb1680bc55f3c11667130b1979bb386c7ac6d9f72ae6faa4bdd",
    "paris27": "450b894643f25f51ef09a0c14fc04e8ddc31e783ccca601104da3fd5c5c1c8bc",
    "cycle6_depth0": "b4fcc0fa4e1b63fe32e9d77be6a1edd49448ffd21b3697a304ec9b1f4858fab7",
}


@pytest.mark.parametrize("case", sorted(PINNED_EXPORTS))
def test_model_arrays_pinned(case):
    model = pinned_model(case)
    digest = hashlib.sha256()
    for name in ("indptr", "indices", "signs", "eq", "rhs", "var_keys", "objective"):
        a = getattr(model, name)
        digest.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == PINNED_ARRAYS[case]
