"""Built-in exact solver for the routing BILPs, plus LP-format export.

The backend is a deterministic depth-first branch and bound over binary
variables.  Bounds come from the HiGHS linear relaxation of the current
subproblem (admissible: the relaxation never exceeds the subproblem
optimum).  Fixing a variable triggers constraint propagation over the
unit-coefficient rows.  Branching picks the most fractional relaxation
variable, ties broken by ordinal, and all solver modes share the same
search order so their incumbents are comparable.

The relaxations are warm-started: each ``solve`` call passes its LP once to
scipy's bundled HiGHS binding (``scipy.optimize._highspy``, scipy >= 1.15)
and, at each node, changes only the column bounds of the fixings before
re-solving from the previous basis.  Without that binding every node makes
one cold ``linprog`` call instead, with the same bounds and about three
times the run time.  A degenerate relaxation may stop at a different vertex
on the two paths, so node counts can differ between them; optima do not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None
_HIGHS_API = ("passModel", "setOptionValue", "changeColsBounds", "run", "getModelStatus",
              "modelStatusToString", "getInfo", "getSolution")
if _highs is not None and not all(hasattr(_highs._Highs, f) for f in _HIGHS_API):
    _highs = None

MODES = ("optimal", "near_optimal", "feasible_first")

_OBJ_TOL = 1e-9
_INT_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "optimal"
    rel_gap: float = 0.08
    abs_gap: float = 0.08
    deadline: float | None = None  # wall-clock seconds for this solve call

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.rel_gap < 0 or self.abs_gap < 0:
            raise ValueError("rel_gap and abs_gap must be >= 0")


@dataclass(frozen=True)
class SolveResult:
    status: str  # optimal | feasible | infeasible | deadline_exceeded
    assignment: np.ndarray | None
    objective: float | None
    best_bound: float | None
    gap: float | None = None
    nodes: int = 0


class _Propagator:
    """Unit-coefficient bound propagation with a trail for backtracking."""

    def __init__(self, model):
        self.rows = model.rows
        n = model.var_count
        self.values = np.full(n, -1, dtype=np.int8)
        # per-row counters: plus fixed to 1, plus free, minus fixed to 1, minus free
        self.p1 = np.zeros(len(self.rows), dtype=np.int32)
        self.pf = np.array([len(r.plus) for r in self.rows], dtype=np.int32)
        self.m1 = np.zeros(len(self.rows), dtype=np.int32)
        self.mf = np.array([len(r.minus) for r in self.rows], dtype=np.int32)
        var_plus = [[] for _ in range(n)]
        var_minus = [[] for _ in range(n)]
        for ri, r in enumerate(self.rows):
            for v in r.plus:
                var_plus[v].append(ri)
            for v in r.minus:
                var_minus[v].append(ri)
        self.var_plus = [tuple(x) for x in var_plus]
        self.var_minus = [tuple(x) for x in var_minus]
        self.trail = []

    def mark(self):
        return len(self.trail)

    def undo_to(self, mark):
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = self.values[v]
            self.values[v] = -1
            for ri in self.var_plus[v]:
                self.pf[ri] += 1
                if val == 1:
                    self.p1[ri] -= 1
            for ri in self.var_minus[v]:
                self.mf[ri] += 1
                if val == 1:
                    self.m1[ri] -= 1

    def _fix(self, v, val, queue):
        cur = self.values[v]
        if cur != -1:
            return cur == val
        self.values[v] = val
        self.trail.append(v)
        for ri in self.var_plus[v]:
            self.pf[ri] -= 1
            if val == 1:
                self.p1[ri] += 1
            queue.append(ri)
        for ri in self.var_minus[v]:
            self.mf[ri] -= 1
            if val == 1:
                self.m1[ri] += 1
            queue.append(ri)
        return True

    def assign(self, v, val):
        """Fix a variable and propagate to a fixpoint.  Returns False on conflict."""
        queue = []
        if not self._fix(v, val, queue):
            return False
        return self._propagate(queue)

    def propagate_all(self):
        """Examine every row once (used at the root).  Returns False on conflict."""
        return self._propagate(list(range(len(self.rows))))

    def _propagate(self, queue):
        values = self.values
        while queue:
            ri = queue.pop()
            r = self.rows[ri]
            lo = self.p1[ri] - self.m1[ri] - self.mf[ri]
            hi = self.p1[ri] + self.pf[ri] - self.m1[ri]
            if lo > r.rhs:
                return False
            if r.rel == "=" and hi < r.rhs:
                return False
            if lo == r.rhs and (self.pf[ri] or self.mf[ri]):
                # any free plus at 1 (or free minus at 0) would overshoot
                for v in r.plus:
                    if values[v] == -1 and not self._fix(v, 0, queue):
                        return False
                for v in r.minus:
                    if values[v] == -1 and not self._fix(v, 1, queue):
                        return False
            elif r.rel == "=" and hi == r.rhs and (self.pf[ri] or self.mf[ri]):
                for v in r.plus:
                    if values[v] == -1 and not self._fix(v, 1, queue):
                        return False
                for v in r.minus:
                    if values[v] == -1 and not self._fix(v, 0, queue):
                        return False
        return True


def _lp_matrix(model):
    """Constraint matrix (CSC) and row bounds of the LP relaxation.

    ``=`` rows get lower = upper = rhs; ``<=`` rows get lower = -inf.
    """
    rows = model.rows
    m = len(rows)
    n_plus = np.fromiter((len(r.plus) for r in rows), np.int64, m)
    n_minus = np.fromiter((len(r.minus) for r in rows), np.int64, m)
    cols = np.fromiter(chain.from_iterable(r.plus + r.minus for r in rows), np.int64,
                       int(n_plus.sum() + n_minus.sum()))
    row_idx = np.repeat(np.arange(m), n_plus + n_minus)
    signs = np.repeat(np.tile([1.0, -1.0], m), np.column_stack([n_plus, n_minus]).ravel())
    a = sp.csc_matrix((signs, (row_idx, cols)), shape=(m, model.var_count))
    rhs = np.fromiter((r.rhs for r in rows), float, m)
    eq = np.fromiter((r.rel == "=" for r in rows), bool, m)
    return a, np.where(eq, rhs, -np.inf), rhs


def _col_bounds(values):
    """Column bounds of the subproblem with ``values`` fixed (-1 = free)."""
    return np.where(values == 1, 1.0, 0.0), np.where(values == 0, 0.0, 1.0)


class _LpRelaxation:
    """The LP relaxation of one model, kept alive in HiGHS for a whole search.

    Each node changes only the column bounds that differ from the previous
    node and re-solves with the dual simplex from the previous basis.
    """

    def __init__(self, model):
        n = model.var_count
        a, row_lo, row_hi = _lp_matrix(model)
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lo)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = model.objective
        self.lb = np.zeros(n)
        self.ub = np.ones(n)
        lp.col_lower_ = self.lb
        lp.col_upper_ = self.ub
        lp.row_lower_ = row_lo
        lp.row_upper_ = row_hi
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        if self.highs.passModel(lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP relaxation")

    def bound(self, values):
        """Relaxation of the subproblem with ``values`` fixed (-1 = free).

        Returns (bound, x), or None when the subproblem is infeasible.
        """
        lb, ub = _col_bounds(values)
        changed = np.flatnonzero((lb != self.lb) | (ub != self.ub)).astype(np.int32)
        if changed.size:
            self.highs.changeColsBounds(changed.size, changed, lb[changed], ub[changed])
            self.lb, self.ub = lb, ub
        self.highs.run()
        status = self.highs.getModelStatus()
        # every column is boxed in [0, 1], so "unbounded or infeasible" is infeasible
        if status in (_highs.HighsModelStatus.kInfeasible,
                      _highs.HighsModelStatus.kUnboundedOrInfeasible):
            return None
        if status != _highs.HighsModelStatus.kOptimal:
            raise SolverError("LP relaxation failed: "
                              + self.highs.modelStatusToString(status))
        return (self.highs.getInfo().objective_function_value,
                np.asarray(self.highs.getSolution().col_value))


class _ColdLp:
    """One cold scipy ``linprog`` call per node: the fallback for scipy
    releases that bundle no HiGHS binding."""

    def __init__(self, model):
        a, row_lo, row_hi = _lp_matrix(model)
        a = a.tocsr()
        eq = row_lo == row_hi
        self.c = model.objective
        self.a_eq, self.b_eq = (a[eq], row_hi[eq]) if eq.any() else (None, None)
        self.a_ub, self.b_ub = (a[~eq], row_hi[~eq]) if not eq.all() else (None, None)

    def bound(self, values):
        lb, ub = _col_bounds(values)
        res = linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, A_eq=self.a_eq,
                      b_eq=self.b_eq, bounds=np.column_stack([lb, ub]), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise SolverError(f"LP relaxation failed with status {res.status}: {res.message}")
        return res.fun, res.x


def _relaxation(model):
    return _LpRelaxation(model) if _highs is not None else _ColdLp(model)


def _check_assignment(model, x):
    for r in model.rows:
        val = sum(x[v] for v in r.plus) - sum(x[v] for v in r.minus)
        if r.rel == "=" and val != r.rhs:
            return False
        if r.rel == "<=" and val > r.rhs:
            return False
    return True


def solve(model, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a routing BILP with the built-in branch-and-bound backend."""
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    deadline = None if cfg.deadline is None else start + cfg.deadline

    n = model.var_count
    c = model.objective
    if n == 0:
        return SolveResult(status="optimal", assignment=np.zeros(0, dtype=np.int8),
                           objective=0.0, best_bound=0.0, nodes=1)

    prop = _Propagator(model)
    lp = _relaxation(model)

    incumbent = None
    inc_obj = np.inf
    nodes = 0
    # stack frames: [var, value_order, next_idx, trail_mark, node_bound]
    stack = []

    def global_bound():
        bounds = [f[4] for f in stack if f[2] < 2]
        return min(bounds) if bounds else inc_obj

    def result(status, gap=None):
        if status in ("optimal", "infeasible"):
            bb = inc_obj if incumbent is not None else None
        else:
            bb = global_bound()
        return SolveResult(
            status=status,
            assignment=None if incumbent is None else incumbent.copy(),
            objective=None if incumbent is None else float(inc_obj),
            best_bound=None if bb is None or not np.isfinite(bb) else float(bb),
            gap=gap, nodes=nodes)

    def gap_met():
        if incumbent is None:
            return None
        glb = global_bound()
        abs_gap = inc_obj - glb
        rel = abs_gap / max(inc_obj, 1e-12)
        if rel <= cfg.rel_gap or abs_gap <= cfg.abs_gap:
            return rel
        return None

    if not prop.propagate_all():
        return SolveResult(status="infeasible", assignment=None, objective=None,
                           best_bound=None, nodes=1)

    descend = True  # process the current node next (vs. backtrack)
    while True:
        if descend:
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return result("deadline_exceeded")
            # cheap prune on already-committed cost (all costs are >= 0)
            fixed_cost = float(c[prop.values == 1].sum())
            if fixed_cost >= inc_obj - _OBJ_TOL:
                descend = False
                continue
            relaxed = lp.bound(prop.values)
            if relaxed is None:
                descend = False
                continue
            bound, x = relaxed
            if bound >= inc_obj - _OBJ_TOL:
                descend = False
                continue
            frac = np.abs(x - np.round(x))
            free = prop.values == -1
            if not free.any() or frac[free].max() <= _INT_TOL:
                cand = np.round(x).astype(np.int8)
                cand[prop.values == 1] = 1
                cand[prop.values == 0] = 0
                if not _check_assignment(model, cand):
                    raise SolverError("integral relaxation failed exact feasibility check")
                obj = float(c @ cand)
                if obj < inc_obj:
                    incumbent = cand
                    inc_obj = obj
                    if cfg.mode == "feasible_first":
                        glb = global_bound()
                        rel = (inc_obj - glb) / max(inc_obj, 1e-12)
                        return result("feasible", gap=max(rel, 0.0))
                    if cfg.mode == "near_optimal":
                        g = gap_met()
                        if g is not None:
                            return result("feasible", gap=max(g, 0.0))
                descend = False
                continue
            # branch on the most fractional free variable, ties by ordinal
            score = np.where(free, 0.5 - np.abs(x - 0.5), -1.0)
            v = int(np.argmax(score))
            preferred = 1 if x[v] >= 0.5 else 0
            stack.append([v, (preferred, 1 - preferred), 0, prop.mark(), bound])
            frame = stack[-1]
            frame[2] = 1
            if prop.assign(v, frame[1][0]):
                continue
            descend = False
        else:
            if cfg.mode == "near_optimal":
                g = gap_met()
                if g is not None:
                    return result("feasible", gap=max(g, 0.0))
            if not stack:
                break
            frame = stack[-1]
            prop.undo_to(frame[3])
            if frame[2] < 2:
                val = frame[1][frame[2]]
                frame[2] += 1
                if frame[4] >= inc_obj - _OBJ_TOL:
                    # sibling subtree cannot beat the incumbent
                    stack.pop()
                    continue
                if prop.assign(frame[0], val):
                    descend = True
                continue
            stack.pop()

    if incumbent is None:
        return SolveResult(status="infeasible", assignment=None, objective=None,
                           best_bound=None, nodes=nodes)
    return SolveResult(status="optimal", assignment=incumbent.copy(),
                       objective=float(inc_obj), best_bound=float(inc_obj),
                       nodes=nodes)


def export_lp(model) -> str:
    """Standard LP-format text for external solvers.  Byte-stable per model."""
    lines = ["Minimize", " obj:"]
    terms = []
    for v in range(model.var_count):
        terms.append(f" + {model.objective[v]:.17g} {model.var_name(v)}")
    if terms:
        lines[-1] += "".join(terms)
    else:
        lines[-1] += " 0"
    lines.append("Subject To")
    for r in model.rows:
        parts = []
        for v in r.plus:
            parts.append(f" + {model.var_name(v)}")
        for v in r.minus:
            parts.append(f" - {model.var_name(v)}")
        rel = "=" if r.rel == "=" else "<="
        lines.append(f" {r.name}:{''.join(parts)} {rel} {r.rhs}")
    lines.append("Binary")
    for v in range(model.var_count):
        lines.append(f" {model.var_name(v)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
