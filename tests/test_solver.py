import gc
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from swaproute import bilp, cli, oracle, route, solver, texpand
from swaproute.bilp import BilpModel, Row
from swaproute.graph import build_grid
from swaproute.instance import MqpfInstance, random_instance
from swaproute.noise import HERON, movement_costs, sample_error_map
from swaproute.solver import SolverConfig, SolverError, export_lp, solve

from conftest import build_cycle, random_maybe_flexible_instance, uniform_error_map
from test_bilp import PINNED_EXPORTS, pinned_model


def toy_model(objective, rows):
    """A model over ``len(objective)`` movement variables with the given
    ``Row`` constraints.  Row names are not kept: every row gets the key of
    ``flow_src_k0_0``."""
    n = len(objective)
    return BilpModel(
        var_count=n, objective=np.asarray(objective, dtype=float),
        var_keys=np.array([(bilp.MOVE, 0, 1, v, v) for v in range(n)],
                          dtype=np.int32).reshape(n, 5),
        indptr=np.cumsum([0] + [len(r.plus) + len(r.minus) for r in rows], dtype=np.int32),
        indices=np.array([v for r in rows for v in r.plus + r.minus], dtype=np.int32),
        signs=np.array([s for r in rows for s in (1,) * len(r.plus) + (-1,) * len(r.minus)],
                       dtype=np.int8),
        eq=np.array([r.rel == "=" for r in rows]),
        rhs=np.array([r.rhs for r in rows], dtype=np.int64),
        derive_row_keys=lambda: np.zeros((len(rows), 4), dtype=np.int32))


def brute_force_optimum(model):
    """Enumerate all assignments; returns (objective, assignment) or None."""
    best = None
    for bits in itertools.product((0, 1), repeat=model.var_count):
        ok = True
        for r in model.rows:
            val = sum(bits[v] for v in r.plus) - sum(bits[v] for v in r.minus)
            if (r.rel == "=" and val != r.rhs) or (r.rel == "<=" and val > r.rhs):
                ok = False
                break
        if ok:
            obj = float(np.dot(model.objective, bits))
            if best is None or obj < best[0]:
                best = (obj, bits)
    return best


def routing_model(g, inst, depth, model_name="simple", eps=0.003):
    teg = texpand.trim(texpand.expand(g, inst, depth))
    costs = movement_costs(g, uniform_error_map(g, eps=eps), model_name)
    return bilp.build_model(teg, costs)


def test_forced_variable():
    model = toy_model([0.3], [Row("force", (0,), (), "=", 1)])
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.3)
    assert res.assignment[0] == 1


def test_infeasible_toy():
    model = toy_model([0.0], [Row("up", (0,), (), "=", 1), Row("dn", (0,), (), "<=", 0)])
    assert solve(model).status == "infeasible"



def test_empty_model_solves_at_the_root():
    res = solve(toy_model([], []))
    assert (res.status, res.objective, res.best_bound, res.gap, res.nodes) == (
        "optimal", 0.0, 0.0, None, 1)
    assert res.assignment.dtype == np.int8 and res.assignment.shape == (0,)


def test_propagator_matches_brute_force():
    """Root propagation, then every ``assign``/``undo_to`` of a full search
    tree, on random rows of +1 and -1 entries in shuffled order, checked
    against the 0/1 points that satisfy every row."""
    rng = np.random.default_rng(3)
    counts = {"conflicts": 0, "fixings": 0}

    def check_node(prop, points, conflict):
        """``points``: the feasible points consistent with the node's fixings."""
        if conflict:
            assert not points
            counts["conflicts"] += 1
            return False
        fixed = prop.values != -1
        assert all((p[fixed] == prop.values[fixed]).all() for p in points)
        if fixed.all():
            assert len(points) == 1  # every row was examined after its last fixing
        return True

    def search(prop, points):
        free = np.flatnonzero(prop.values == -1)
        if not free.size:
            return
        v = int(free[0])
        for val in (1, 0):
            node = [p for p in points if p[v] == val]
            before, mark = prop.values.copy(), prop.mark()
            ok = prop.assign(v, val)
            if check_node(prop, node, not ok):
                counts["fixings"] += int((prop.values != -1).sum() - (before != -1).sum() - 1)
                search(prop, node)
            prop.undo_to(mark)
            assert np.array_equal(prop.values, before)

    for _ in range(300):
        n = int(rng.integers(3, 8))
        rows = []
        for r in range(int(rng.integers(1, 6))):
            vs = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            split = int(rng.integers(0, len(vs) + 1))
            rows.append(Row(f"r{r}", tuple(vs[:split]), tuple(vs[split:]),
                            ("=", "<=")[int(rng.integers(0, 2))], int(rng.integers(-1, 3))))
        model = toy_model([0.0] * n, rows)
        shuffle = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in
                                  zip(model.indptr[:-1], model.indptr[1:])])
        model = replace(model, indices=model.indices[shuffle], signs=model.signs[shuffle])
        points = []
        for bits in itertools.product((0, 1), repeat=n):
            lhs = [sum(bits[v] for v in r.plus) - sum(bits[v] for v in r.minus) for r in rows]
            if all(a == r.rhs if r.rel == "=" else a <= r.rhs for a, r in zip(lhs, rows)):
                points.append(np.array(bits, dtype=np.int8))
        prop = solver._Propagator(model)
        if check_node(prop, points, not prop.propagate_all()):
            counts["fixings"] += int((prop.values != -1).sum())
            search(prop, points)
    assert counts["conflicts"] > 0 and counts["fixings"] > 0


def test_propagator_incidence_past_16_bit_literals():
    """Literal ids reach 2 * 40000 > 2**16, so both radix passes run; the
    literal-to-row incidence must equal a stable argsort of the literals."""
    rng = np.random.default_rng(5)
    n = 40_000
    rows = []
    for r in range(30_000):
        vs = rng.choice(n, size=int(rng.integers(1, 7)), replace=False).tolist()
        split = int(rng.integers(0, len(vs) + 1))
        rows.append(Row(f"r{r}", tuple(vs[:split]), tuple(vs[split:]), "<=", 1))
    model = toy_model([0.0] * n, rows)
    prop = solver._Propagator(model)
    lit = 2 * model.indices.astype(np.int64) + (model.signs < 0)
    assert lit.max() >= 1 << 16 and len(np.unique(lit)) < len(lit)
    row_of = np.repeat(np.arange(model.row_count), np.diff(model.indptr))
    assert prop.var_rows == row_of[np.argsort(lit, kind="stable")].tolist()
    assert prop.at == [0] + np.cumsum(np.bincount(lit, minlength=2 * n)).tolist()


def test_one_swap_objective():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((1,),))
    model = routing_model(g, inst, 1, eps=0.001)
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0 * math.log(0.999), abs=1e-12)


def count_dropped(monkeypatch):
    """Columns that ``_LpRelaxation.drop`` deletes from here on, one entry per call."""
    counts = []
    drop = solver._LpRelaxation.drop

    def counted(lp, mask):
        held = int(lp.held.sum())
        drop(lp, mask)
        counts.append(held - int(lp.held.sum()))
    monkeypatch.setattr(solver._LpRelaxation, "drop", counted)
    return counts


def set_packing_model(rng):
    """A random model of 10-13 variables whose rows alternate between "= 1"
    and "<= 1" over 3-4 of them."""
    n = int(rng.integers(10, 14))
    rows = [Row(f"r{r}", tuple(rng.choice(n, size=int(rng.integers(3, 5)),
                                          replace=False).tolist()),
                (), ("=", "<=")[r % 2], 1)
            for r in range(int(rng.integers(6, 10)))]
    return toy_model(rng.random(n).round(3).tolist(), rows)


def test_solver_matches_brute_force(monkeypatch):
    """Small routing models, which all solve at the root, then random
    set-packing and set-partitioning models, some of which branch and so
    reach root reduced-cost fixing."""
    dropped = count_dropped(monkeypatch)
    rng = np.random.default_rng(0)
    models = []
    for seed in range(60):
        g = build_grid(1, 3) if seed % 2 else build_grid(2, 2)
        n = 1 + seed % 3
        inst = random_instance(g, n, ("independent", "mixed", "single")[seed % 3], seed)
        depth = int(rng.integers(1, 3))
        model = routing_model(g, inst, depth,
                              ("simple", "extended")[seed % 2], eps=0.004)
        if model.var_count <= 18:
            models.append(model)
    assert len(models) >= 20
    models += [set_packing_model(rng) for _ in range(60)]
    for model in models:
        expect = brute_force_optimum(model)
        res = solve(model)
        if expect is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(expect[0], abs=1e-9)
    assert sum(dropped) > 0


def cold_relaxation(model, values, dropped=None):
    """Reference LP bound: rows assembled in Python, one cold ``linprog`` call.
    Columns in the mask ``dropped`` get upper bound 0."""
    parts = {"=": ([], [], [], []), "<=": ([], [], [], [])}
    for r in model.rows:
        data, ri, ci, rhs = parts[r.rel]
        for sign, vs in ((1.0, r.plus), (-1.0, r.minus)):
            for v in vs:
                data.append(sign)
                ri.append(len(rhs))
                ci.append(v)
        rhs.append(r.rhs)

    def matrix(rel):
        data, ri, ci, rhs = parts[rel]
        if not rhs:
            return None, None
        return sp.csr_matrix((data, (ri, ci)), shape=(len(rhs), model.var_count)), rhs

    a_eq, b_eq = matrix("=")
    a_ub, b_ub = matrix("<=")
    if dropped is None:
        dropped = np.zeros(model.var_count, dtype=bool)
    bounds = [(1.0 if v == 1 else 0.0, 0.0 if v == 0 or gone else 1.0)
              for v, gone in zip(values, dropped)]
    if any(lo > hi for lo, hi in bounds):
        return None
    res = linprog(model.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


def desk_model():
    """Criterion-10 seed 0 (8x8 grid, 8 qubits) at its optimal depth 7."""
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", 0)
    costs = movement_costs(g, sample_error_map(g, HERON, 1000), "extended")
    return bilp.build_model(texpand.trim(texpand.expand(g, inst, 7)), costs)


def check_dive(model, drop):
    """With ``drop``, three fractional root columns and a third of the root
    zeros outside the dive leave HiGHS at the root, and another third at
    step 5; the bounds must then match a cold LP with those columns held at
    0, and ``x`` must be 0 on them.  The dive then backtracks as the search
    does, to earlier nodes at once, which frees fixings to 0 and to 1
    together."""
    lp = solver._LpRelaxation(model)
    values = np.full(model.var_count, -1, dtype=np.int8)
    dropped = np.zeros(model.var_count, dtype=bool)
    root = lp.bound(values)
    assert root[0] == pytest.approx(cold_relaxation(model, values), rel=0, abs=1e-9)
    # fixing variables to a root optimum's 0/1 values keeps that optimum feasible
    x0 = root[1]
    rng = np.random.default_rng(0)
    ones = rng.permutation(np.flatnonzero(x0 > 1 - 1e-9))
    zeros = rng.permutation(np.flatnonzero(x0 < 1e-9))
    # two variables of one "<= 1" row set to 1 make a node infeasible
    clash = next(r.plus[:2] for r in model.rows
                 if r.rel == "<=" and r.rhs == 1 and not r.minus and len(r.plus) >= 2)
    ones = [v for v in ones if v not in clash]
    zeros = [v for v in zeros if v not in clash]

    def drop_columns(cols):
        mask = np.zeros(model.var_count, dtype=bool)
        mask[cols] = True
        lp.drop(mask)
        dropped[mask] = True

    if drop:
        fractional = rng.permutation(np.flatnonzero((x0 > 1e-9) & (x0 < 1 - 1e-9)))
        drop_columns(list(fractional[:3]) + zeros[20::3])
        warm = lp.bound(values)
        assert warm[0] == pytest.approx(cold_relaxation(model, values, dropped), rel=0, abs=1e-9)
        assert warm[0] > root[0] + 1e-6 and not warm[1][dropped].any()

    def cold_bound():
        """The cold bound of the node ``values``, after checking the warm one against it."""
        warm, cold = lp.bound(values), cold_relaxation(model, values, dropped)
        if cold is None:
            assert warm is None
        else:
            assert warm is not None and warm[0] == pytest.approx(cold, rel=0, abs=1e-9)
            assert not warm[1][dropped].any()
        return cold

    infeasible = 0
    snapshots = [values.copy()]  # the root, then the nodes after steps 2 and 7
    for step in range(20):
        if step == 5 and drop:
            drop_columns(zeros[21::3])
        if step == 10:
            values[list(clash)] = 1
        elif step == 11:
            values[list(clash)] = -1
        elif step % 2:
            values[ones[step]] = 1
        else:
            values[zeros[step]] = 0
        infeasible += cold_bound() is None
        if step in (2, 7):
            snapshots.append(values.copy())
    assert infeasible == 1
    # backtracking: three root ones fixed to 0 move the bound (or close the
    # node), and a jump back to an earlier node frees them together with the
    # dive's other fixings, to 0 and to 1
    for snapshot in snapshots[::-1]:
        values[ones[20:23]] = 0
        zeroed = cold_bound()
        values[:] = snapshot
        back = cold_bound()
        assert back is not None and (zeroed is None or zeroed > back + 1e-6)
    if drop:
        # a node that fixes a dropped column to 1 is infeasible
        values[np.flatnonzero(dropped)[0]] = 1
        assert lp.bound(values) is None and cold_relaxation(model, values, dropped) is None


def test_warm_relaxation_matches_cold_along_dive():
    model = desk_model()
    for drop in (False, True):
        check_dive(model, drop)


@pytest.mark.parametrize("case", sorted(PINNED_EXPORTS) + ["desk"])
def test_array_handoff_matches_model_and_cold_lp(case):
    model = desk_model() if case == "desk" else pinned_model(case)
    lp = solver._LpRelaxation(model)
    held = lp.highs.getLp()
    a = held.a_matrix_
    layout = sp.csr_matrix if a.format_ == solver._highs.MatrixFormat.kRowwise else sp.csc_matrix
    shape = (model.row_count, model.var_count)
    matrix = layout((a.value_, a.index_, a.start_), shape=shape).tocsr().sorted_indices()
    expect = sp.csr_matrix((model.signs.astype(float), model.indices, model.indptr),
                           shape=shape).sorted_indices()
    assert (held.num_row_, held.num_col_) == shape
    assert np.array_equal(matrix.indptr, model.indptr)
    assert np.array_equal(matrix.indices, expect.indices)
    assert np.array_equal(matrix.data, expect.data)
    rhs = model.rhs.astype(float)
    assert np.array_equal(held.row_lower_, np.where(model.eq, rhs, -np.inf))
    assert np.array_equal(held.row_upper_, rhs)
    assert np.array_equal(held.col_cost_, model.objective)
    # the root relaxation gives the cold reference bound
    values = np.full(model.var_count, -1, dtype=np.int8)
    warm, cold = lp.bound(values), cold_relaxation(model, values)
    if cold is None:
        assert warm is None
    else:
        assert warm[0] == pytest.approx(cold, rel=0, abs=1e-9)


def test_binding_without_array_pass_model_is_solver_error(monkeypatch, capsys):
    # with idle objects at hand the solver would construct none
    monkeypatch.setattr(solver, "_IDLE_HIGHS", [])

    class ModelObjectsOnly:
        def setOptionValue(self, name, value):
            pass

        def passModel(self, lp):
            raise AssertionError("the solver passed one model object")
    monkeypatch.setattr(solver._highs, "_Highs", ModelObjectsOnly)
    g = build_grid(2, 2)
    model = routing_model(g, random_instance(g, 3, "independent", 5), 3)
    with pytest.raises(SolverError, match="passModel takes no model as arrays"):
        solve(model)
    assert cli.main(["solve", "--layout", "grid:4x4", "--random", "4", "--seed", "0"]) == 6
    assert "passModel takes no model as arrays" in capsys.readouterr().err


def test_missing_binding_fails_import_naming_scipy_floor(monkeypatch):
    import scipy.optimize._highspy as highspy
    monkeypatch.delattr(highspy, "_core", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    spec = importlib.util.spec_from_file_location("solver_without_binding", solver.__file__)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def run_fresh(code):
    """Runs ``code`` in a fresh interpreter, whose import state is its own, with
    the package and the tests importable; returns its stdout lines."""
    paths = [os.path.dirname(os.path.dirname(solver.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.splitlines()


def test_import_leaves_scipy_optimize_unloaded():
    assert run_fresh("import sys, swaproute, swaproute.cli\n"
                     "print('scipy.optimize' in sys.modules)") == ["False"]


def test_binding_loaded_by_scipy_optimize_is_reused():
    assert run_fresh("import sys, scipy.optimize\n"
                     "from swaproute import solver\n"
                     "print(solver._highs is sys.modules['scipy.optimize._highspy._core'])"
                     ) == ["True"]


def test_scipy_linprog_and_milp_work_after_the_package_loaded():
    code = """
import hashlib, sys
from dataclasses import replace
from swaproute import solver
from swaproute.route import solution_to_json
import numpy as np
from scipy.optimize import LinearConstraint, linprog, milp
from test_route import PINNED_SOLUTIONS, pinned_solution
print(linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1.5], bounds=(0, 1), method="highs").fun)
print(milp([1, 2], constraints=LinearConstraint([[1, 1]], 1.5, np.inf),
           integrality=[1, 1], bounds=(0, 1)).fun)
print(solver._highs is sys.modules["scipy.optimize._highspy._core"])
text = solution_to_json(replace(pinned_solution("simple"), timings={}))
print(hashlib.sha256(text.encode()).hexdigest() == PINNED_SOLUTIONS["simple"])
"""
    assert run_fresh(code) == ["2.0", "3.0", "True", "True"]


@pytest.mark.parametrize("core", [None, "raise ImportError('broken build')"])
def test_scipy_without_binding_fails_import_naming_scipy_floor(core, tmp_path):
    # a scipy tree with no _core file, or with one whose import fails
    if core is not None:
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "optimize" / "_highspy" / "_core.py").write_text(core)
    code = f"""
import sys, scipy
scipy.__path__[:] = [{str(tmp_path)!r}]
try:
    import swaproute
except ImportError as exc:
    print(exc)
    print(exc.__cause__)
print("scipy.optimize._highspy._core" in sys.modules)
"""
    assert run_fresh(code) == [
        "swaproute needs scipy >= 1.15 for its bundled HiGHS binding "
        "scipy.optimize._highspy._core",
        "no module named 'scipy.optimize._highspy._core'" if core is None else "broken build",
        "False"]


def count_lp_builds(monkeypatch):
    """Counts ``_LpRelaxation`` constructions from here on, one entry each."""
    calls = []
    relaxation = solver._LpRelaxation
    monkeypatch.setattr(solver, "_LpRelaxation",
                        lambda model: calls.append(1) or relaxation(model))
    return calls


def test_root_propagation_infeasible_builds_no_lp(monkeypatch):
    calls = count_lp_builds(monkeypatch)
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", 0)
    costs = movement_costs(g, sample_error_map(g, HERON, 1000), "extended")
    depth = route.lower_bound_dijkstra(g, inst) - 1
    _, model = route.model_at_depth(g, inst, costs, depth)
    res = solve(model)
    assert res.status == "infeasible" and res.nodes == 1
    assert not calls
    # at the hop bound the same instance does reach the LP
    assert solve(desk_model()).status == "optimal" and calls


def test_fully_fixed_root_builds_no_lp(monkeypatch):
    # one qubit along a 6-node path in exactly 5 steps: every variable is forced
    g = build_grid(1, 6)
    model = routing_model(g, MqpfInstance(sources=((0,),), destinations=((5,),)), 5)
    assert model.var_count == 7
    calls = count_lp_builds(monkeypatch)
    res = solve(model)
    assert res.status == "optimal" and res.nodes == 1
    assert not calls
    assert res.objective == float(model.objective @ res.assignment)


def test_criterion_1_solves_without_lp_match_oracle(monkeypatch):
    calls = count_lp_builds(monkeypatch)
    for name, g in {"path6": build_grid(1, 6), "cycle6": build_cycle(6),
                    "grid2x3": build_grid(2, 3)}.items():
        emap = uniform_error_map(g)
        costs = movement_costs(g, emap, "simple")
        without_lp = 0
        for seed in range(100):
            inst = random_maybe_flexible_instance(
                g, 1 + seed % 4, ("independent", "mixed", "single")[seed % 3], seed,
                seed % 2 == 1)
            before = len(calls)
            sol = route.solve_mqpf(g, emap, inst)
            without_lp += len(calls) == before
            assert sol.depth == oracle.bfs_optimal_depth(g, inst), (name, seed)
            expect = oracle.exhaustive_min_cost(g, costs, inst, sol.depth)
            assert sol.cost == pytest.approx(expect, abs=1e-9), (name, seed)
        assert without_lp >= 1, name


def test_lp_failure_raises_solver_error(monkeypatch):
    pool = []
    monkeypatch.setattr(solver, "_IDLE_HIGHS", pool)
    g = build_grid(2, 2)
    model = routing_model(g, random_instance(g, 3, "independent", 5), 3)
    lp = solver._LpRelaxation(model)
    lp.highs.setOptionValue("simplex_iteration_limit", 0)
    with pytest.raises(SolverError, match="LP relaxation failed"):
        lp.bound(np.full(model.var_count, -1, dtype=np.int8))
    # a relaxation built outside solve never hands its object to the pool
    calls = count_lp_builds(monkeypatch)
    assert solve(model).status == "optimal" and calls
    assert len(pool) == 1 and pool[0] is not lp.highs
    assert pool[0].getOptionValue("simplex_iteration_limit")[1] > 0
    del lp
    gc.collect()
    assert len(pool) == 1


def test_live_relaxations_never_share_highs(monkeypatch):
    pool = []
    monkeypatch.setattr(solver, "_IDLE_HIGHS", pool)
    g = build_grid(2, 2)
    model = routing_model(g, random_instance(g, 3, "independent", 5), 3)
    for lp in [solver._LpRelaxation(model) for _ in range(2)]:
        lp.release()
    assert len(pool) == 2
    live = [solver._LpRelaxation(model) for _ in range(3)]
    assert not pool and len({id(lp.highs) for lp in live}) == 3
    live.pop(0).release()
    live.append(solver._LpRelaxation(model))
    assert not pool and len({id(lp.highs) for lp in live}) == 3
    # a solve while relaxations are alive takes a HiGHS object of its own
    assert solve(model).status == "optimal"
    assert len(pool) == 1 and all(pool[0] is not lp.highs for lp in live)
    root = np.full(model.var_count, -1, dtype=np.int8)
    assert len({lp.bound(root)[0] for lp in live}) == 1


def outcome(res):
    assignment = None if res.assignment is None else res.assignment.tolist()
    return res.status, repr(res.objective), assignment, res.nodes


def test_reused_highs_leaves_no_trace(monkeypatch):
    """One HiGHS object goes through an LP time limit, column deletion and
    an infeasible LP; solves on it then match solves on fresh objects."""
    rng = np.random.default_rng(0)
    packing = [set_packing_model(rng) for _ in range(10)]
    dropping, toy = packing[3], packing[9]  # 4 nodes with a deletion; 2 nodes
    # no row forces a variable, but the two "= 1" rows overfill the "<= 1" row
    infeasible_lp = toy_model([1.0] * 4, [Row("a", (0, 1), (), "=", 1),
                                          Row("b", (2, 3), (), "=", 1),
                                          Row("c", (0, 1, 2, 3), (), "<=", 1)])
    desk = desk_model()
    fresh = []
    for model in (desk, toy):
        monkeypatch.setattr(solver, "_IDLE_HIGHS", [])
        fresh.append(outcome(solve(model)))
    expect = brute_force_optimum(toy)
    assert fresh[1][0] == "optimal" and fresh[1][3] > 1
    assert float(fresh[1][1]) == pytest.approx(expect[0], abs=1e-9)

    pool = []
    monkeypatch.setattr(solver, "_IDLE_HIGHS", pool)
    bound = solver._LpRelaxation.bound
    with monkeypatch.context() as m:
        m.setattr(solver._LpRelaxation, "bound",
                  lambda self, values, time_left: bound(self, values, 0.0))
        assert solve(desk, deadline=60.0).status == "deadline_exceeded"
    [highs] = pool
    assert highs.getOptionValue("output_flag")[1] is False
    assert highs.getOptionValue("presolve")[1] == "off"
    dropped = count_dropped(monkeypatch)
    assert solve(dropping).status == "optimal" and sum(dropped) > 0
    calls = count_lp_builds(monkeypatch)
    res = solve(infeasible_lp)
    assert res.status == "infeasible" and res.nodes == 1 and calls
    for model, want in zip((desk, toy), fresh):
        assert outcome(solve(model)) == want
    assert len(pool) == 1 and pool[0] is highs
    assert highs.getOptionValue("output_flag")[1] is False
    assert highs.getOptionValue("presolve")[1] == "off"


# scipy.optimize.milp optima of criterion-10 seeds (8x8 grid, 8 qubits, HERON
# noise seed s + 1000, extended error model), as in perfbench/references
DESK_OPTIMA = {0: 0.46290207497436264, 2: 0.4846704401502288,
               16: 0.49923058597153547, 36: 0.5549169378264706}


@pytest.mark.parametrize("seed", sorted(DESK_OPTIMA))
def test_root_reduced_cost_fixing_keeps_desk_optima(seed, monkeypatch):
    dropped = count_dropped(monkeypatch)
    g = build_grid(8, 8)
    inst = random_instance(g, 8, "independent", seed)
    emap = sample_error_map(g, HERON, seed + 1000)
    cost = {}
    for mode in ("optimal", "near_optimal", "feasible_first"):
        cfg = route.RouteConfig(solver=SolverConfig(mode=mode), error_model="extended",
                                timeout=60)
        sol = route.solve_mqpf(g, emap, inst, cfg)
        assert sol.solved, mode
        cost[mode] = sol.cost
        if mode == "optimal":
            assert sol.status == "optimal"
            assert sol.cost == pytest.approx(DESK_OPTIMA[seed], rel=0, abs=1e-9)
            assert sum(dropped) > 0
    assert cost["optimal"] <= cost["near_optimal"] + 1e-9
    assert cost["near_optimal"] <= cost["feasible_first"] + 1e-9


def test_determinism():
    g = build_grid(2, 2)
    inst = random_instance(g, 3, "independent", 5)
    model = routing_model(g, inst, 3)
    a, b = solve(model), solve(model)
    assert a.status == b.status and a.nodes == b.nodes
    assert np.array_equal(a.assignment, b.assignment)


def test_mode_dominance_and_gap_contract():
    for seed in range(20):
        g = build_grid(2, 3)
        inst = random_instance(g, 3, "mixed", seed)
        model = routing_model(g, inst, 4, "extended")
        res_o = solve(model, SolverConfig(mode="optimal"))
        res_n = solve(model, SolverConfig(mode="near_optimal"))
        res_f = solve(model, SolverConfig(mode="feasible_first"))
        if res_o.status == "infeasible":
            assert res_n.status == res_f.status == "infeasible"
            continue
        assert res_o.objective <= res_n.objective + 1e-9
        assert res_n.objective <= res_f.objective + 1e-9
        for res in (res_n, res_f):
            if res.status == "feasible":
                rel = (res.objective - res.best_bound) / max(res.objective, 1e-12)
                assert rel <= res.gap + 1e-9


def test_stopped_search_bound_and_gap_hold_against_optimum():
    # a frame left out of the open-subtree bound would overstate best_bound
    branched = stopped_short = 0
    for seed in range(60):
        g = build_grid(2, 3)
        model = routing_model(g, random_instance(g, 3, "mixed", seed), 4, "extended")
        optimum = solve(model, SolverConfig(mode="optimal")).objective
        for mode in ("near_optimal", "feasible_first"):
            res = solve(model, SolverConfig(mode=mode))
            if res.status != "feasible":
                continue
            assert res.best_bound <= optimum + 1e-9, (seed, mode)
            assert (res.objective - optimum) / max(res.objective, 1e-12) <= res.gap + 1e-9
            branched += res.nodes > 1
            stopped_short += res.gap > 0
    assert branched and stopped_short


def test_assignment_satisfies_rows_exactly():
    g = build_grid(2, 2)
    inst = random_instance(g, 2, "independent", 9)
    model = routing_model(g, inst, 2)
    res = solve(model)
    assert res.status == "optimal"
    for r in model.rows:
        val = sum(res.assignment[v] for v in r.plus) - sum(res.assignment[v] for v in r.minus)
        assert (val == r.rhs) if r.rel == "=" else (val <= r.rhs)


def test_nan_deadline_rejected():
    g = build_grid(2, 3)
    model = routing_model(g, random_instance(g, 4, "independent", 1), 4)
    with pytest.raises(ValueError, match="deadline must be a number of seconds, got nan"):
        solve(model, deadline=math.nan)


def test_deadline_zero():
    g = build_grid(2, 3)
    inst = random_instance(g, 4, "independent", 1)
    model = routing_model(g, inst, 4)
    res = solve(model, deadline=0.0)
    assert res.status == "deadline_exceeded"


def test_lp_time_limit_ends_solve_as_deadline_exceeded(monkeypatch):
    model = desk_model()
    lp = solver._LpRelaxation(model)
    with pytest.raises(solver._LpTimeLimit):
        lp.bound(np.full(model.var_count, -1, dtype=np.int8), time_left=0.0)
    # a relaxation that HiGHS stops at its time limit ends the whole solve
    bound = solver._LpRelaxation.bound
    monkeypatch.setattr(solver._LpRelaxation, "bound",
                        lambda self, values, time_left: bound(self, values, 0.0))
    assert solve(model, deadline=60.0).status == "deadline_exceeded"


def test_near_zero_deadline_on_desk_model():
    model = desk_model()
    for deadline in (1e-3, 0.02):
        start = time.monotonic()
        res = solve(model, deadline=deadline)
        assert res.status == "deadline_exceeded"
        assert time.monotonic() - start <= deadline + 0.5


def test_check_assignment_is_exact():
    model = toy_model([0.0, 0.0, 0.0], [Row("flow", (0,), (1, 2), "=", 0),
                                        Row("cap", (0, 1), (), "<=", 1)])
    check = solver._check_assignment
    assert check(model, np.array([1, 0, 1], dtype=np.int8))
    assert check(model, np.array([0, 0, 0], dtype=np.int8))
    assert not check(model, np.array([1, 1, 0], dtype=np.int8))  # only the <= row broken
    assert not check(model, np.array([1, 0, 0], dtype=np.int8))  # only the = row broken
    assert not check(model, np.array([0, 1, 1], dtype=np.int8))  # = row below its rhs


# --- LP export ---------------------------------------------------------------

_TERM = re.compile(r"([+-])\s+(?:([\d.eE+-]+)\s+)?(\S+)")


def parse_lp(text):
    """Tiny LP parser for the exported subset: objective, rows, binaries."""
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    obj = {}
    for sign, coef, name in _TERM.findall(lines[1].split(":", 1)[1]):
        obj[name] = float(coef if coef else 1.0) * (1 if sign == "+" else -1)
    idx = lines.index("Subject To")
    bidx = lines.index("Binary")
    rows = []
    for line in lines[idx + 1:bidx]:
        name, body = line.strip().split(":", 1)
        rel = "=" if " = " in body else "<="
        expr, rhs = body.rsplit(rel, 1)
        terms = [(s, n) for s, c, n in _TERM.findall(expr)]
        rows.append((name, terms, rel, int(rhs)))
    binaries = [ln.strip() for ln in lines[bidx + 1:] if ln.strip() and ln.strip() != "End"]
    return obj, rows, binaries


def test_export_trivial_model():
    model = toy_model([0.5], [Row("force", (0,), (), "=", 1)])
    text = export_lp(model)
    assert "Binary" in text
    _, _, binaries = parse_lp(text)
    assert len(binaries) == 1


def test_export_mentions_all_variables():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((1,),))
    model = routing_model(g, inst, 1)
    _, _, binaries = parse_lp(export_lp(model))
    assert len(binaries) == model.var_count
    assert set(binaries) == {model.var_name(v) for v in range(model.var_count)}


def test_export_round_trip_optimum():
    # solve the exported text with an independent brute-force LP-text solver
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((3,), (2,)))
    model = routing_model(g, inst, 2, eps=0.002)
    assert model.var_count <= 16  # keep the 2^n enumeration tractable
    obj, rows, binaries = parse_lp(export_lp(model))
    order = {name: i for i, name in enumerate(binaries)}
    best = None
    for bits in itertools.product((0, 1), repeat=len(binaries)):
        ok = True
        for _, terms, rel, rhs in rows:
            val = sum((1 if s == "+" else -1) * bits[order[n]] for s, n in terms)
            if (rel == "=" and val != rhs) or (rel == "<=" and val > rhs):
                ok = False
                break
        if ok:
            v = sum(obj.get(n, 0.0) * bits[order[n]] for n in binaries)
            best = v if best is None else min(best, v)
    res = solve(model)
    assert res.status == "optimal"
    assert best == pytest.approx(res.objective, abs=1e-9)


def test_export_byte_stable():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((0,),), destinations=((1,),))
    assert export_lp(routing_model(g, inst, 2)) == export_lp(routing_model(g, inst, 2))


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        SolverConfig(mode="quantum")
