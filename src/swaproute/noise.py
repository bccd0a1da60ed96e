"""Error-map sampling and error/cost arithmetic.

Per-edge CNOT error rates are drawn log-normally (truncated); per-node T1/T2
decoherence times are drawn from linear-space truncated normals.  All costs
are of the form ``-ln(1 - eps)`` so that accumulated error stays multiplicative:
``fidelity = exp(-C)`` and ``E = 1 - exp(-C)``.

T1/T2 are in MICROSECONDS; gate durations in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Default CNOT duration in seconds (typical Heron-class device).
DEFAULT_CNOT_DURATION = 79e-9

#: Rejection-sampling cap for truncated draws.
_RESAMPLE_CAP = 10**6


class NoiseError(ValueError):
    """Raised for invalid noise parameters or sampling failures."""


@dataclass(frozen=True)
class NoiseParams:
    """Sampling parameters for an error map.

    ``cnot_mean`` is the linear-scale mean of the CNOT error; the draw is
    ``10**y`` with ``y ~ Normal(log10(cnot_mean), cnot_log10_sigma)``,
    rejection-resampled into ``cnot_bounds``.  T1/T2 (microseconds) use
    linear-space truncated normals.
    """

    cnot_mean: float = 0.001
    cnot_log10_sigma: float = 0.5
    cnot_bounds: tuple[float, float] = (0.0, 1.0)
    t1_mean: float = 176.0
    t1_sigma: float = 69.0
    t1_bounds: tuple[float, float] = (3.0, 310.0)
    t2_mean: float = 140.0
    t2_sigma: float = 71.0
    t2_bounds: tuple[float, float] = (6.0, 321.0)

    def __post_init__(self):
        for name, (lo, hi) in (("cnot_bounds", self.cnot_bounds),
                               ("t1_bounds", self.t1_bounds),
                               ("t2_bounds", self.t2_bounds)):
            if not (0.0 <= lo < hi):
                raise NoiseError(f"{name} must satisfy 0 <= lo < hi, got ({lo}, {hi})")
        for name, sig in (("cnot_log10_sigma", self.cnot_log10_sigma),
                          ("t1_sigma", self.t1_sigma), ("t2_sigma", self.t2_sigma)):
            if sig < 0:
                raise NoiseError(f"{name} must be >= 0, got {sig}")
        if not (0.0 < self.cnot_mean < 1.0):
            raise NoiseError(f"cnot_mean must be in (0, 1), got {self.cnot_mean}")


#: Parameters matching current IBM Quantum Heron device calibration data.
HERON = NoiseParams(
    cnot_mean=0.007, cnot_log10_sigma=0.3115, cnot_bounds=(0.0018, 0.0876),
    t1_mean=176.0, t1_sigma=69.0, t1_bounds=(3.0, 310.0),
    t2_mean=140.0, t2_sigma=71.0, t2_bounds=(6.0, 321.0),
)

#: Log-normal CNOT errors with a wide spread, as used for layout comparisons.
MELBOURNE_STYLE = NoiseParams(cnot_mean=0.001, cnot_log10_sigma=0.5, cnot_bounds=(0.0, 1.0))

PRESETS = {"heron": HERON, "melbourne-style": MELBOURNE_STYLE}


@dataclass(frozen=True)
class ErrorMap:
    """Per-edge CNOT errors and per-node decoherence times for a hardware graph."""

    cnot_error: dict  # (i, j) with i < j -> error in (0, 1)
    t1: tuple  # per-node relaxation time, microseconds
    t2: tuple  # per-node dephasing time, microseconds
    cnot_duration: float = DEFAULT_CNOT_DURATION  # seconds

    def __post_init__(self):
        _check_values(self.cnot_error, self.t1, self.t2, self.cnot_duration)


def _check_values(cnot_error, t1, t2, cnot_duration=0.0):
    """Raises ``NoiseError`` on the first value out of range; NaN is out of every range."""
    for edge, e in cnot_error.items():
        if not (0.0 < e < 1.0):
            raise NoiseError(f"cnot error on edge {edge} must be in (0, 1), got {e}")
    for name, vals in (("t1", t1), ("t2", t2)):
        for v in vals:
            if not v > 0:
                raise NoiseError(f"{name} values must be > 0, got {v}")
    if not cnot_duration >= 0:
        raise NoiseError(f"cnot duration must be >= 0 seconds, got {cnot_duration}")


def _truncated_draw(rng, mean, sigma, lo, hi, log10=False):
    """A Normal(mean, sigma) draw rejection-resampled into [lo, hi], or with
    ``log10`` ``10**y`` for y ~ Normal(log10(mean), sigma); ``mean`` itself,
    drawing nothing, when sigma is 0."""
    # Bounds are treated as inclusive except a zero lower bound, which the
    # positive-support draws never hit anyway.
    loc = math.log10(mean) if log10 else mean
    for _ in range(_RESAMPLE_CAP):
        if sigma == 0.0:
            v = mean
        else:
            v = rng.normal(loc, sigma)
            v = 10.0 ** v if log10 else v
        if lo <= v <= hi:
            return v
    raise NoiseError(f"rejection sampling failed to hit bounds ({lo}, {hi}) "
                     f"within {_RESAMPLE_CAP} draws")


def sample_error_map(g, params: NoiseParams, seed: int) -> ErrorMap:
    """Sample a deterministic error map for graph ``g``.

    Stream order is documented and portable: CNOT errors for edges in sorted
    order, then T1 for nodes in index order, then T2 for nodes in index order.
    """
    rng = np.random.default_rng(seed)
    p = params
    cnot = {edge: _truncated_draw(rng, p.cnot_mean, p.cnot_log10_sigma, *p.cnot_bounds,
                                  log10=True)
            for edge in g.edges}
    t1 = tuple(_truncated_draw(rng, p.t1_mean, p.t1_sigma, *p.t1_bounds)
               for _ in range(g.node_count))
    t2 = tuple(_truncated_draw(rng, p.t2_mean, p.t2_sigma, *p.t2_bounds)
               for _ in range(g.node_count))
    return ErrorMap(cnot_error=cnot, t1=t1, t2=t2)


def idle_error(t1_us: float, t2_us: float, t: float) -> float:
    """Decoherence error of a qubit idling for ``t`` seconds.

    Relaxation plus dephasing:
    ``1 - exp(-t/T1) + 1/2 exp(-t/T1) (1 - exp(-t (1/min(T1,T2) - 1/T1)))``.
    """
    if t < 0:
        raise NoiseError(f"idle time must be >= 0, got {t}")
    if t1_us <= 0 or t2_us <= 0:
        raise NoiseError("T1 and T2 must be > 0")
    t1 = t1_us * 1e-6
    t2 = t2_us * 1e-6
    relax = 1.0 - math.exp(-t / t1)
    dephase = 0.5 * math.exp(-t / t1) * (1.0 - math.exp(-t * (1.0 / min(t1, t2) - 1.0 / t1)))
    return relax + dephase


def split_cnot_error(e: float) -> float:
    """Per-direction movement error: ``(1 - out)**2 == 1 - e``.

    Splitting avoids double counting when both movement variables of a
    swapped pair carry a cost.
    """
    if not (0.0 <= e < 1.0):
        raise NoiseError(f"CNOT error must be in [0, 1), got {e}")
    return 1.0 - math.sqrt(1.0 - e)


ERROR_MODELS = ("simple", "extended")


@dataclass(frozen=True)
class MovementCosts:
    """Per-movement objective costs over a hardware graph.

    One table, ``cost``: ``cost[(i, j)]`` is the cost of the directed swap
    movement i -> j and ``cost[(v, v)]`` that of idling at node v for one
    timestep.

    Simple model: the full SWAP cost ``-3 ln(1 - eps)`` sits on the low-to-high
    direction of each edge, zero on the reverse, so a swapped pair (which uses
    both directions) is charged exactly once; idling is free.  Extended model:
    each direction costs ``-3 ln(1 - eps_v)`` with the split error, and idling
    costs ``-3 ln(1 - eps_idle)`` over one CNOT duration.
    """

    model: str
    cost: dict = field(repr=False)

    def movement_cost(self, i: int, j: int) -> float:
        """Cost of the movement i -> j (idle when i == j)."""
        return self.cost[(i, j)]


def movement_costs(g, emap: ErrorMap, model: str = "simple") -> MovementCosts:
    """Build the per-movement cost table for an error model."""
    if model not in ERROR_MODELS:
        raise NoiseError(f"unknown error model {model!r}; expected one of {ERROR_MODELS}")
    cost = {}
    for i, j in g.edges:
        e = emap.cnot_error[(i, j)]
        if model == "simple":
            cost[(i, j)], cost[(j, i)] = -3.0 * math.log1p(-e), 0.0
        else:
            cost[(i, j)] = cost[(j, i)] = -3.0 * math.log1p(-split_cnot_error(e))
    for v in range(g.node_count):
        cost[(v, v)] = 0.0 if model == "simple" else -3.0 * math.log1p(
            -idle_error(emap.t1[v], emap.t2[v], emap.cnot_duration))
    return MovementCosts(model=model, cost=cost)


def accumulated_error(cost: float) -> tuple[float, float]:
    """Convert a total cost C back to (accumulated error, fidelity)."""
    if cost < 0:
        raise NoiseError(f"total cost must be >= 0, got {cost}")
    fidelity = math.exp(-cost)
    return 1.0 - fidelity, fidelity


def save_error_map(emap: ErrorMap) -> str:
    """Serialize an error map to the line-oriented text format."""
    lines = [f"cnot_duration_ns {emap.cnot_duration * 1e9:.17g}"]
    for (i, j), e in sorted(emap.cnot_error.items()):
        lines.append(f"cnot {i} {j} {e:.17g}")
    for v, (a, b) in enumerate(zip(emap.t1, emap.t2)):
        lines.append(f"decoherence {v} {a:.17g} {b:.17g}")
    return "\n".join(lines) + "\n"


def load_error_map(text: str, g=None) -> ErrorMap:
    """Parse the error-map text format.  A ``cnot`` line must name two distinct
    nodes of the ``decoherence`` lines and, given ``g``, one of its edges;
    every edge of ``g`` needs one."""
    values = {}  # ("cnot", i, j) with i < j, ("decoherence", v) or ("cnot_duration_ns",)
    line_of = {}  # the same keys -> line number
    edges = None if g is None else set(g.edges)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cnot" and len(parts) == 4:
                i, j = int(parts[1]), int(parts[2])
                key, value = ("cnot", min(i, j), max(i, j)), float(parts[3])
            elif parts[0] == "decoherence" and len(parts) == 4:
                key, value = ("decoherence", int(parts[1])), (float(parts[2]), float(parts[3]))
            elif parts[0] == "cnot_duration_ns" and len(parts) == 2:
                key, value = (parts[0],), float(parts[1]) * 1e-9
            else:
                raise ValueError
        except ValueError:
            raise NoiseError(f"line {lineno}: bad error-map line {raw!r}") from None
        if key[0] == "cnot" and key[1] == key[2]:
            raise NoiseError(f"line {lineno}: cnot on the self-pair {key[1]} {key[2]}")
        if key[0] == "cnot" and edges is not None and key[1:] not in edges:
            raise NoiseError(f"line {lineno}: cnot {key[1]} {key[2]} is not a graph edge")
        if key in values:
            raise NoiseError(f"line {lineno}: repeated {' '.join(map(str, key))}")
        try:
            if key[0] == "cnot":
                _check_values({key[1:]: value}, (), ())
            elif key[0] == "decoherence":
                _check_values({}, value[:1], value[1:])
            else:
                _check_values({}, (), (), value)
        except NoiseError as exc:
            raise NoiseError(f"line {lineno}: {exc}") from None
        values[key], line_of[key] = value, lineno
    cnot = {key[1:]: e for key, e in values.items() if key[0] == "cnot"}
    deco = {key[1]: tt for key, tt in values.items() if key[0] == "decoherence"}
    duration = values.get(("cnot_duration_ns",), DEFAULT_CNOT_DURATION)
    if not deco:
        raise NoiseError("error map has no decoherence lines")
    n = max(deco) + 1
    if sorted(deco) != list(range(n)):
        raise NoiseError("decoherence lines must cover nodes 0..n-1")
    for i, j in cnot:
        if i < 0 or j >= n:
            raise NoiseError(f"line {line_of['cnot', i, j]}: cnot {i} {j} is not among "
                             f"the decoherence nodes 0..{n - 1}")
    if g is not None:
        missing = set(g.edges) - set(cnot)
        if missing or n != g.node_count:
            raise NoiseError(f"error map does not match graph (missing edges {sorted(missing)})")
    t1 = tuple(deco[v][0] for v in range(n))
    t2 = tuple(deco[v][1] for v in range(n))
    return ErrorMap(cnot_error=cnot, t1=t1, t2=t2, cnot_duration=duration)
