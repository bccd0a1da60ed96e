"""Built-in exact solver for the routing BILPs, plus LP-format export.

The backend is a deterministic depth-first branch and bound over binary
variables.  Bounds come from the HiGHS linear relaxation of the current
subproblem (admissible: the relaxation never exceeds the subproblem
optimum).  Fixing a variable triggers constraint propagation over the
unit-coefficient rows, each read as literals (``v`` for a +1 entry, ``1 - v``
for a -1 entry) with two activity counts: its true literals and its literals
not yet false.  Branching picks the most fractional relaxation variable,
ties broken by ordinal, and all solver modes share the same search order so
their incumbents are comparable.  The stack holds only open branches:
branching pushes ``(var, untried value, trail mark, parent bound)`` and takes
the preferred value at once, and backtracking pops a frame, undoes the trail
to its mark and tries the stored value.  The least parent bound on the stack
therefore bounds every subtree not yet searched.

Root propagation comes first and alone closes most infeasible depths, and a
node whose variables are all fixed is its own relaxation, so a ``solve``
call builds its LP only at the first node that leaves a variable free.  The
relaxations are warm-started on scipy's bundled HiGHS binding
(``scipy.optimize._highspy._core``, hence scipy >= 1.15): the call hands its
CSR arrays once to the array overload of ``passModel`` and, at each node,
sets the bounds of every column it holds in one call before re-solving from
the previous basis.  A binding that is missing fails the import, and one
whose ``passModel`` takes no arrays raises ``SolverError``.  Each re-solve
runs with a HiGHS time limit of the time left of ``solve``'s ``deadline``
(none without one), and one that hits it ends the solve as
``deadline_exceeded``.  The HiGHS objects outlive their relaxations:
``solve`` hands its object, its model and basis cleared with ``clearModel``
and its options kept, to a per-process list of idle objects when it returns
a result, and the next relaxation takes one from there instead of
constructing its own.  A relaxation built anywhere else, or one whose solve
raises, is dropped with its object.

The binding is the only part of scipy the solver uses, and ``_load_highs``
loads that extension module by itself: it is found on the path of the
top-level ``scipy`` package and registered under its canonical name, so
importing the solver never runs ``scipy.optimize``'s package init, which
costs about 0.4 s and 40 MB of RSS against 5 ms for the extension (2-core
x86-64, scipy 1.17.1).  An extension already imported, as ``scipy.optimize``
imports it, is reused.  ``linprog`` is a placeholder ``None`` that nothing
calls, kept because ``perfbench/spans.py`` wraps that name.

Reduced-cost fixing runs on the root's relaxation alone (Achterberg,
*Constraint Integer Programming*, 2007, section 7.7).  At a fractional root,
outside ``feasible_first``, the search keeps the root bound z and reduced
costs d.  A column free at the root and nonbasic at 0 there lifts the bound
of every solution that sets it to 1 to at least z + d_j.  At the first
relaxation after each improvement of the incumbent, every such column whose
z + d_j, less HiGHS's dual feasibility tolerance, reaches the incumbent is
deleted from the HiGHS model.  The deletion is global, since the root bounds
every node, and it is never undone, so each later re-solve is smaller.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs():
    """Scipy's HiGHS extension module, loaded without ``scipy.optimize``'s package init.

    One already in ``sys.modules`` is reused.  A new one is registered under
    its canonical name: under any other, a later ``import scipy.optimize``
    would run the pybind11 init a second time and fail.
    """
    try:
        if _HIGHS in sys.modules:
            if sys.modules[_HIGHS] is None:
                raise ImportError(f"import of {_HIGHS} halted; None in sys.modules")
            return sys.modules[_HIGHS]
        import scipy  # the top-level package alone; on Windows it sets the DLL search path
        spec = importlib.machinery.PathFinder.find_spec(
            _HIGHS, [os.path.join(p, "optimize", "_highspy") for p in scipy.__path__])
        if spec is None:
            raise ModuleNotFoundError(f"no module named {_HIGHS!r}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS]
            raise
        return module
    except ImportError as exc:
        raise ImportError("swaproute needs scipy >= 1.15 for its bundled HiGHS binding "
                          f"{_HIGHS}") from exc


_highs = _load_highs()

# a name only: perfbench/spans.py wraps solver.linprog, and Tracer.install fails without it
linprog = None

MODES = ("optimal", "near_optimal", "feasible_first")

NEAR_GAP = 0.08  # near_optimal stops within this of the open-subtree bound, relative or absolute

_OBJ_TOL = 1e-9
_INT_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "optimal"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class SolveResult:
    status: str  # optimal | feasible | infeasible | deadline_exceeded
    assignment: np.ndarray | None
    objective: float | None
    best_bound: float | None
    gap: float | None = None
    nodes: int = 0


class _Propagator:
    """Unit-coefficient bound propagation over literals, with a trail for backtracking.

    An entry with sign +1 is the literal ``v`` and one with sign -1 the literal
    ``1 - v``, so a row bounds its number of true literals by ``rhs`` plus its
    number of -1 entries.  Each row keeps two activity counts: ``lo``, its true
    literals, and ``hi``, its literals not yet false.  The row and variable
    incidence comes from the model's CSR arrays as flat Python lists, which
    index faster than numpy arrays in these loops.  The literal-to-row side is
    a stable sort of the entries by literal, done as 16-bit radix passes, so
    it costs O(nonzeros).
    """

    def __init__(self, model):
        n, n_rows, indptr = model.var_count, model.row_count, model.indptr
        row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
        neg = model.signs < 0
        self.values = np.full(n, -1, dtype=np.int8)
        self.lo, self.hi = [0] * n_rows, np.diff(indptr).tolist()
        self.rhs = (model.rhs + np.bincount(row_of[neg], minlength=n_rows)).tolist()
        self.eq = model.eq.tolist()
        # row ri holds row_vars[start[ri]:start[ri + 1]], negated where row_neg is 1
        self.row_vars, self.row_neg = model.indices.tolist(), neg.astype(int).tolist()
        self.start = indptr.tolist()
        # literal l (2v for v, 2v + 1 for 1 - v) lies in rows var_rows[at[l]:at[l + 1]];
        # numpy radix-sorts 16-bit keys, so sort on the low, then the high 16 bits
        lit = 2 * model.indices.astype(np.int64) + neg
        order = np.argsort(lit.astype(np.uint16), kind="stable")
        if 2 * n > 1 << 16:
            order = order[np.argsort((lit[order] >> 16).astype(np.uint16), kind="stable")]
        self.var_rows = row_of[order].tolist()
        self.at = np.concatenate([[0], np.cumsum(np.bincount(lit, minlength=2 * n))]).tolist()
        self.trail = []

    def mark(self):
        return len(self.trail)

    def undo_to(self, mark):
        while len(self.trail) > mark:
            v = self.trail.pop()
            self._count(v, int(self.values[v]), -1)
            self.values[v] = -1

    def _count(self, v, val, step):
        """Adds ``step`` to ``lo`` on the rows of the literal that v = ``val``
        makes true and takes it from ``hi`` on the rows of the other one."""
        at, var_rows, lo, hi = self.at, self.var_rows, self.lo, self.hi
        true = 2 * v + 1 - val
        for ri in var_rows[at[true]:at[true + 1]]:
            lo[ri] += step
        false = true ^ 1
        for ri in var_rows[at[false]:at[false + 1]]:
            hi[ri] -= step

    def _fix(self, v, val, queue):
        """Fixes the free variable v to ``val`` and queues its rows."""
        self.values[v] = val
        self.trail.append(v)
        self._count(v, val, 1)
        queue.extend(self.var_rows[self.at[2 * v]:self.at[2 * v + 2]])

    def assign(self, v, val):
        """Fix a free variable and propagate to a fixpoint.  Returns False on conflict."""
        queue = []
        self._fix(v, val, queue)
        return self._propagate(queue)

    def propagate_all(self):
        """Examine every row once (used at the root).  Returns False on conflict."""
        return self._propagate(list(range(len(self.rhs))))

    def _propagate(self, queue):
        values, row_vars, row_neg, start = self.values, self.row_vars, self.row_neg, self.start
        lo, hi, rhs, eq = self.lo, self.hi, self.rhs, self.eq
        while queue:
            ri = queue.pop()
            if lo[ri] > rhs[ri] or eq[ri] and hi[ri] < rhs[ri]:
                return False
            if lo[ri] == hi[ri]:
                continue  # no free variable
            if lo[ri] == rhs[ri]:
                fill = 0  # one more true literal would overshoot
            elif eq[ri] and hi[ri] == rhs[ri]:
                fill = 1  # one more false literal would fall short
            else:
                continue
            for e in range(start[ri], start[ri + 1]):
                if values[row_vars[e]] == -1:
                    self._fix(row_vars[e], fill ^ row_neg[e], queue)
        return True


# idle HiGHS objects, with no model (``clearModel``) and the options a new one
# gets; list.pop and list.append are atomic, so threads that solve at once
# never share one
_IDLE_HIGHS = []


class _LpTimeLimit(Exception):
    """An LP relaxation ran out of the solve's remaining time."""


class _LpRelaxation:
    """The LP relaxation of one model, kept alive in HiGHS for a whole search.

    The model's CSR rows go to HiGHS as they are.  Each node sets the bounds
    of every column HiGHS holds in one call, [v, v] where it fixes the
    column to v and [0, 1] where it leaves it free, and re-solves with the
    dual simplex from the previous basis.  ``drop`` deletes columns from the
    HiGHS model for the rest of the search: from then on every relaxation
    holds them at 0, a node that fixes one of them to 1 is infeasible, and
    no deletion is ever undone.  ``held`` masks the model ordinals HiGHS
    still holds, in order, since deletion keeps the rest in order: ``bound``
    gathers the fixings through it and scatters the solution back, with
    zeros at the dropped columns.  The HiGHS object comes from the idle list
    when it holds one, and ``release`` gives it back there.
    """

    def __init__(self, model):
        n = model.var_count
        self.held = np.ones(n, dtype=bool)
        # "=" rows get lower = upper = rhs, "<=" rows get lower = -inf
        rhs = model.rhs.astype(float)
        try:
            self.highs = _IDLE_HIGHS.pop()
        except IndexError:
            self.highs = _highs._Highs()
            self.highs.setOptionValue("output_flag", False)
            self.highs.setOptionValue("presolve", "off")
        try:
            status = self.highs.passModel(
                n, model.row_count, len(model.indices), _highs.MatrixFormat.kRowwise,
                _highs.ObjSense.kMinimize, 0.0, model.objective, np.zeros(n), np.ones(n),
                np.where(model.eq, rhs, -np.inf), rhs, model.indptr, model.indices,
                model.signs.astype(float), np.zeros(n, dtype=np.int32))
        except TypeError as exc:
            raise SolverError(f"HiGHS passModel takes no model as arrays: {exc}") from exc
        if status == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP relaxation")

    def release(self):
        """Clears the HiGHS object's model and basis (``clearModel``; the
        options stay) and hands it to the idle list.  The relaxation cannot be
        used afterwards."""
        highs, self.highs = self.highs, None
        highs.clearModel()
        _IDLE_HIGHS.append(highs)

    def drop(self, mask):
        """Deletes the columns of the model ordinals in ``mask`` from HiGHS."""
        gone = mask[self.held]
        if not gone.any():
            return
        at = np.flatnonzero(gone).astype(np.int32)
        if self.highs.deleteCols(at.size, at) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS could not delete LP columns")
        self.held &= ~mask

    def bound(self, values, time_left=math.inf):
        """Relaxation of the subproblem with ``values`` fixed (-1 = free) and
        the dropped columns at 0.

        Returns (bound, x), or None when the subproblem is infeasible.
        Raises ``_LpTimeLimit`` when the solve takes longer than
        ``time_left`` seconds.
        """
        if (values[~self.held] == 1).any():
            return None
        values = values[self.held]
        self.highs.changeColsBounds(values.size, np.arange(values.size, dtype=np.int32),
                                    (values == 1).astype(float), (values != 0).astype(float))
        # HiGHS holds the limit against its run time summed over every run
        self.highs.setOptionValue("time_limit", self.highs.getRunTime() + max(time_left, 0.0))
        self.highs.run()
        status = self.highs.getModelStatus()
        # every column is boxed in [0, 1], so "unbounded or infeasible" is infeasible
        if status in (_highs.HighsModelStatus.kInfeasible,
                      _highs.HighsModelStatus.kUnboundedOrInfeasible):
            return None
        if status == _highs.HighsModelStatus.kTimeLimit:
            raise _LpTimeLimit
        if status != _highs.HighsModelStatus.kOptimal:
            raise SolverError("LP relaxation failed: "
                              + self.highs.modelStatusToString(status))
        x = np.zeros(self.held.size)
        x[self.held] = self.highs.getSolution().col_value
        return self.highs.getObjectiveValue(), x


def _check_assignment(model, x):
    """Exact integer check of every row (rows are never empty)."""
    lhs = np.add.reduceat(x.astype(np.int64)[model.indices] * model.signs, model.indptr[:-1])
    return bool(np.all(np.where(model.eq, lhs == model.rhs, lhs <= model.rhs)))


def solve(model, cfg: SolverConfig | None = None,
          deadline: float | None = None) -> SolveResult:
    """Solve a routing BILP by branch and bound, within ``deadline`` seconds if given."""
    mode = (cfg or SolverConfig()).mode
    if deadline is not None and math.isnan(deadline):
        raise ValueError("deadline must be a number of seconds, got nan")
    stop_at = time.monotonic() + (math.inf if deadline is None else deadline)

    c = model.objective
    prop = _Propagator(model)
    incumbent = None
    inc_obj = np.inf
    nodes = 1  # the root
    # open branches: (var, untried value, trail mark, parent bound)
    stack = []

    def open_bound():
        return min((f[3] for f in stack), default=inc_obj)

    def result(status):
        if lp is not None:
            lp.release()
        bb = open_bound()
        return SolveResult(
            status=status,
            assignment=incumbent,
            objective=None if incumbent is None else float(inc_obj),
            best_bound=float(bb) if np.isfinite(bb) else None,
            gap=max((inc_obj - bb) / max(inc_obj, 1e-12), 0.0) if status == "feasible" else None,
            nodes=nodes)

    lp = None  # built at the first node that leaves a variable free
    if not prop.propagate_all():
        return result("infeasible")
    # per column, a lower bound from the root's reduced costs on every solution
    # that sets it to 1 (-inf where none is known), set at a fractional root,
    # and the incumbent value that columns were last priced out against
    floor, priced = None, np.inf

    while True:
        if time.monotonic() > stop_at:
            return result("deadline_exceeded")
        free = prop.values == -1
        if not free.any():
            cand = prop.values.copy()  # the node is its own relaxation
        else:
            cand = None
            if lp is None:
                lp = _LpRelaxation(model)
            elif floor is not None and inc_obj < priced:
                # no solution that sets these columns to 1 can beat the incumbent;
                # done here, not when the incumbent improves, so that a search
                # ending first deletes nothing
                lp.drop(floor >= inc_obj - _OBJ_TOL)
                priced = inc_obj
            try:
                relaxed = lp.bound(prop.values, stop_at - time.monotonic())
            except _LpTimeLimit:
                return result("deadline_exceeded")
            if relaxed is not None and relaxed[0] < inc_obj - _OBJ_TOL:
                bound, x = relaxed
                if np.abs(x - np.round(x))[free].max() <= _INT_TOL:
                    cand = np.where(free, np.round(x), prop.values).astype(np.int8)
                else:
                    if nodes == 1 and mode != "feasible_first":
                        # a column nonbasic at 0 costs at least its reduced cost d
                        # more; HiGHS's dual tolerance covers d's own error.  The
                        # solution is fetched again, not kept from bound(): one held
                        # across re-solves raised desk8x8's peak RSS by about 1.7 MB
                        d = np.asarray(lp.highs.getSolution().col_dual)
                        tol = lp.highs.getOptionValue("dual_feasibility_tolerance")[1]
                        floor = np.where(free & (d > tol), bound + d - tol, -np.inf)
                    # branch on the most fractional free variable, ties by ordinal
                    v = int(np.argmax(np.where(free, 0.5 - np.abs(x - 0.5), -1.0)))
                    preferred = 1 if x[v] >= 0.5 else 0
                    stack.append((v, 1 - preferred, prop.mark(), bound))
                    if prop.assign(v, preferred):
                        nodes += 1
                        continue
        if cand is not None:
            if not _check_assignment(model, cand):
                raise SolverError("integral relaxation failed exact feasibility check")
            obj = float(c @ cand)
            if obj < inc_obj:
                incumbent, inc_obj = cand, obj
                if mode == "feasible_first":
                    return result("feasible")
        # backtrack to the deepest open branch that the incumbent does not prune
        while True:
            if mode == "near_optimal" and incumbent is not None:
                gap = inc_obj - open_bound()
                if gap / max(inc_obj, 1e-12) <= NEAR_GAP or gap <= NEAR_GAP:
                    return result("feasible")
            if not stack:
                return result("infeasible" if incumbent is None else "optimal")
            v, val, mark, parent_bound = stack.pop()
            prop.undo_to(mark)
            if parent_bound < inc_obj - _OBJ_TOL and prop.assign(v, val):
                nodes += 1
                break


def export_lp(model) -> str:
    """Standard LP-format text for external solvers.  Byte-stable per model."""
    names = [model.var_name(v) for v in range(model.var_count)]
    lines = ["Minimize", " obj:"]
    terms = [f" + {cost:.17g} {name}" for cost, name in zip(model.objective, names)]
    if terms:
        lines[-1] += "".join(terms)
    else:
        lines[-1] += " 0"
    lines.append("Subject To")
    for r in model.rows:
        parts = [f" + {names[v]}" for v in r.plus] + [f" - {names[v]}" for v in r.minus]
        lines.append(f" {r.name}:{''.join(parts)} {r.rel} {r.rhs}")
    lines.append("Binary")
    lines.extend(f" {name}" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"
