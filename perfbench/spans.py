"""Span tracing from outside the package.

The tracer replaces the module attributes that ``route`` and ``solver`` look
up at call time with wrappers that record one span per call: id, name,
parent span id, instance id, start, end, and a few counts read from the
result.  Spans stay in memory until the caller writes them out.  Nothing in
the package changes; ``uninstall`` restores the original attributes.
"""

from __future__ import annotations

import time
from collections import defaultdict

from swaproute import bilp, route, solver, texpand


def _trim_counts(teg):
    return {"kept": int(teg.mask.sum()), "moves": int(teg.mask.size)}


def _model_counts(model):
    return {"vars": model.var_count, "rows": len(model.rows),
            "nonzeros": sum(len(r.plus) + len(r.minus) for r in model.rows)}


def _solve_counts(res):
    return {"nodes": res.nodes, "infeasible": int(res.status == "infeasible")}


# (module, attribute, counter applied to the result)
TARGETS = (
    (route, "lower_bound_dijkstra", None),
    (route, "lower_bound_single_team", None),
    (texpand, "expand", None),
    (texpand, "trim", _trim_counts),
    (bilp, "build_model", _model_counts),
    (route, "solve", _solve_counts),
    (solver, "linprog", None),
    (route, "extract_paths", None),
    (route, "metrics", None),
)
ROOT = "route.solve_mqpf"
SPAN_FIELDS = ("id", "name", "parent", "instance", "start", "end", "counts")


class Tracer:
    def __init__(self):
        self.spans = []      # [id, name, parent, instance, start, end, counts]
        self._stack = []
        self._saved = []
        self.instance = None

    def call(self, name, fn, *args, counter=None, **kwargs):
        sid = len(self.spans)
        rec = [sid, name, self._stack[-1] if self._stack else None, self.instance,
               time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[6] = counter(result)
        return result

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        return traced

    def install(self):
        for module, attr, counter in TARGETS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(f"{module.__name__.split('.')[-1]}.{attr}",
                                             orig, counter))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds and summed counts,
    plus the number of ``route.solve`` spans with no ``solver.linprog`` child.

    A span's self time is its duration minus its children's durations, so
    the self times of a tree add up to its root's duration.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    lp_children = defaultdict(int)
    for sid, name, parent, _inst, start, end, cnt in spans:
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        self_s[name] += dur
        if parent is not None:
            pname = spans[parent][1]
            self_s[pname] -= dur
            if name == "solver.linprog":
                lp_children[parent] += 1
        for k, v in (cnt or {}).items():
            counts[name][k] += v
    no_lp = sum(1 for sid, name, *_ in spans
                if name == "route.solve" and lp_children[sid] == 0)
    return {"calls": dict(calls), "incl_s": dict(incl), "self_s": dict(self_s),
            "counts": {k: dict(v) for k, v in counts.items()}, "solve_without_lp": no_lp}
