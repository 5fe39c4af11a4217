"""Systemic loss, shock-ray sweeps, and jump-discontinuity detection.

A shock ray c(eps) = c0 - eps * q lowers the exogenous flow along a fixed
nonnegative direction. As eps grows the extreme equilibria move down
piecewise-linearly until the effective inflow sum of some stochastic
trapping set crosses zero; there the equilibrium is a whole segment and the
selected equilibrium jumps from the segment top (limit from below) to the
segment bottom (limit from above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import csv_lines
from .decomposition import block_structure
from .errors import InputError, NotCriticalError
from .model import EquilibriumVector, Network, as_flow, require_valid
from .solver import (
    DEFAULT_OPTIONS,
    SinkKind,
    SolveOptions,
    _analyze,
    _assemble_extremes,
    _extremes,
    _transient_state,
)
from .structure import classify

#: Absolute bisection tolerance on the critical shock magnitude.
EPS_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class ShockRay:
    """Baseline flow, shock direction, magnitude range, and grid resolution.

    ``q`` must be nonnegative (shocks drain assets) unless
    ``allow_mixed_direction`` is set; mixed directions lose the monotone
    crossing structure, so root finding then falls back to a sign-change
    scan over the grid.
    """

    c0: np.ndarray
    q: np.ndarray
    eps_lo: float
    eps_hi: float
    grid: int
    allow_mixed_direction: bool = False

    def __post_init__(self):
        c0 = np.asarray(self.c0, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if c0.ndim != 1 or q.shape != c0.shape:
            raise InputError("c0 and q must be vectors of the same length")
        if not (np.all(np.isfinite(c0)) and np.all(np.isfinite(q))):
            raise InputError("c0 and q must be finite")
        if not np.any(q != 0):
            raise InputError("shock direction q must be nonzero")
        if np.any(q < 0) and not self.allow_mixed_direction:
            raise InputError(
                "shock direction q has negative entries; pass allow_mixed_direction=True to accept"
            )
        if not self.eps_lo <= self.eps_hi:
            raise InputError("eps_lo must not exceed eps_hi")
        if self.grid < 2:
            raise InputError("grid must be at least 2")
        c0 = c0.copy(); c0.setflags(write=False)
        q = q.copy(); q.setflags(write=False)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eps_lo", float(self.eps_lo))
        object.__setattr__(self, "eps_hi", float(self.eps_hi))
        object.__setattr__(self, "grid", int(self.grid))

    def c_at(self, eps: float) -> np.ndarray:
        return self.c0 - eps * self.q


@dataclass(frozen=True)
class SweepRecord:
    eps: float
    x_min: np.ndarray
    x_max: np.ndarray
    loss_min: float  # loss at the maximal equilibrium
    loss_max: float  # loss at the minimal equilibrium
    defaults: tuple[int, ...]  # nodes paying below capacity, judged on x_min
    unique: bool


@dataclass(frozen=True)
class CriticalCrossing:
    eps_star: float
    c_star: np.ndarray
    sink_index: int
    sink_nodes: tuple[int, ...]
    jump_vector: np.ndarray  # x_max(c*) - x_min(c*), full length
    loss_jump: float

    def to_json_dict(self) -> dict:
        return {
            "eps_star": self.eps_star,
            "c_star": self.c_star.tolist(),
            "sink_index": self.sink_index,
            "sink_nodes": list(self.sink_nodes),
            "jump_vector": self.jump_vector.tolist(),
            "loss_jump": self.loss_jump,
        }


def _loss(c0, c, w, x) -> float:
    return float(c0.sum() - c.sum() + w.sum() - x.sum())


def systemic_loss(net: Network, c0, c, x) -> float:
    """Aggregate pre-shock minus post-shock net worth at equilibrium x.

    Splits into the direct shock (sum c0 - sum c) plus the payment shortfall
    (sum w - sum x). Defined for shocks only: requires c <= c0 entrywise.
    """
    require_valid(net)
    c0 = as_flow(c0, net.n)
    c = as_flow(c, net.n)
    if np.any(c > c0 + 1e-12):
        raise InputError("loss requires a shock: c must not exceed c0 entrywise")
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise InputError(f"x has shape {x.shape}, expected ({net.n},)")
    return _loss(c0, c, net.w, x)


def loss_jump(net: Network, c_star, opts: SolveOptions | None = None) -> float:
    """Size of the loss discontinuity at a flow with non-unique equilibria.

    Equals the aggregate gap between the maximal and minimal equilibria,
    i.e. the condition values of the segment sinks summed (the stationary
    directions are normalized to sum 1). Raises NotCriticalError when the
    equilibrium at c_star is unique.
    """
    opts = opts or DEFAULT_OPTIONS
    _, analyses, unique = classify(net, c_star, opts)
    if unique:
        raise NotCriticalError("equilibrium at c_star is unique; no jump to measure")
    return float(
        sum(a.condition_value for a in analyses if a.kind is SinkKind.ZERO_SUM_SEGMENT)
    )


def max_jump_norm(net: Network, p: float) -> float:
    """Largest possible p-norm of an equilibrium jump, over all exogenous flows.

    Each stochastic trapping set contributes (min_i w_i/pi_i) * pi in the
    worst case (realized at c = 0); out-connected sinks and the transient
    part never jump.
    """
    require_valid(net)
    if not (p >= 1):
        raise InputError("norm exponent p must be >= 1")
    terms = [
        (float(np.min(net.w[sink.nodes] / sink.stationary)), sink.stationary)
        for sink in block_structure(net).sinks()
        if sink.stationary is not None
    ]
    if not terms:
        return 0.0
    if math.isinf(p):
        return max(m * float(np.max(pi)) for m, pi in terms)
    total = sum(m**p * float(np.sum(pi**p)) for m, pi in terms)
    return float(total ** (1.0 / p))


def _sink_inflow_sum(net, ray, st, sink, opts, eps: float) -> float:
    """Aggregate effective inflow of one trapping set at shock size eps."""
    c = ray.c_at(eps)
    total = float(c[sink.nodes].sum())
    if st.transient.size:
        x_T = _transient_state(net, c, opts, st)
        total += float((st.routed[:, sink.span].T @ x_T).sum())
    return total


def find_critical_eps(
    net: Network, ray: ShockRay, sink_index: int, opts: SolveOptions | None = None
) -> float | None:
    """Shock size at which a trapping set's effective inflow sum crosses zero.

    The sum is nonincreasing in eps for nonnegative shock directions
    (transient values move monotonically with c), so bisection localizes the
    root to within EPS_BISECT_TOL. Returns None when the sum keeps one sign
    over the whole range.
    """
    opts = opts or DEFAULT_OPTIONS
    st = block_structure(net)
    found = len(st.decomposition.sinks)
    if not 0 <= sink_index < found:
        raise InputError(f"sink_index {sink_index} out of range (found {found} sinks)")
    if ray.c0.shape != (net.n,):
        raise InputError("ray dimension does not match the network")
    sink = st.sink(sink_index)

    def g(eps):
        return _sink_inflow_sum(net, ray, st, sink, opts, eps)

    atol = 1e-12 * (1.0 + float(np.abs(ray.c0).sum()) + float(np.abs(ray.q).sum()))
    lo, hi = ray.eps_lo, ray.eps_hi
    g_lo, g_hi = g(lo), g(hi)
    if abs(g_lo) <= atol:
        return lo
    if abs(g_hi) <= atol:
        return hi
    if np.sign(g_lo) == np.sign(g_hi):
        bracket = None
        if ray.allow_mixed_direction:
            # monotonicity is lost: scan the grid for any sign change
            grid = np.linspace(lo, hi, ray.grid)
            values = [g(e) for e in grid]
            for a, b, ga, gb in zip(grid, grid[1:], values, values[1:]):
                if np.sign(ga) != np.sign(gb) or abs(gb) <= atol:
                    bracket = (float(a), float(b), ga, gb)
                    break
        if bracket is None:
            return None
        lo, hi, g_lo, g_hi = bracket
    while hi - lo > EPS_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if np.sign(g_mid) == np.sign(g_lo) and abs(g_mid) > atol:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return 0.5 * (lo + hi)


def sweep(
    net: Network, ray: ShockRay, opts: SolveOptions | None = None
) -> tuple[list[SweepRecord], list[CriticalCrossing]]:
    """Evaluate extreme equilibria, losses, and defaults along a shock ray.

    Grid points are evaluated independently in ascending eps order. Critical
    crossings are located by bisection per trapping set (a grid typically
    straddles the critical eps rather than hitting it) and recorded only
    where the equilibrium set is genuinely a segment; both one-sided limit
    equilibria there are the segment endpoints.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    if ray.c0.shape != (net.n,):
        raise InputError("ray dimension does not match the network")
    dec = block_structure(net).decomposition
    records = []
    for eps in np.linspace(ray.eps_lo, ray.eps_hi, ray.grid):
        c = ray.c_at(eps)
        lo_eq, hi_eq = _extremes(net, c, opts)
        defaults = tuple(
            int(i) for i in np.nonzero(lo_eq.x < net.w - opts.tol_class)[0]
        )
        records.append(
            SweepRecord(
                eps=float(eps),
                x_min=lo_eq.x,
                x_max=hi_eq.x,
                loss_min=_loss(ray.c0, c, net.w, hi_eq.x),
                loss_max=_loss(ray.c0, c, net.w, lo_eq.x),
                defaults=defaults,
                unique=bool(np.array_equal(lo_eq.x, hi_eq.x)),
            )
        )

    crossings = []
    for l, sink in enumerate(dec.sinks):
        if sink.out_connected:
            continue  # always unique, no jump possible
        eps_star = find_critical_eps(net, ray, l, opts)
        if eps_star is None:
            continue
        c_star = ray.c_at(eps_star)
        found = _analyze(net, c_star, opts)
        if found.sinks[l].kind is not SinkKind.ZERO_SUM_SEGMENT:
            continue  # inflow sum crosses zero but the line misses the box
        lo_eq, hi_eq = _assemble_extremes(net, found, opts)
        jump = hi_eq.x - lo_eq.x
        crossings.append(
            CriticalCrossing(
                eps_star=float(eps_star),
                c_star=c_star,
                sink_index=l,
                sink_nodes=sink.nodes,
                jump_vector=jump,
                loss_jump=float(jump.sum()),
            )
        )
    crossings.sort(key=lambda cr: cr.eps_star)
    return records, crossings


def sweep_to_csv(records: list[SweepRecord], n: int) -> str:
    header = ["eps", "unique", "loss_min", "loss_max", "n_defaults"]
    header += [f"x_min_{i + 1}" for i in range(n)]
    header += [f"x_max_{i + 1}" for i in range(n)]
    rows = []
    for r in records:
        rows.append(
            [r.eps, r.unique, r.loss_min, r.loss_max, len(r.defaults)]
            + list(r.x_min)
            + list(r.x_max)
        )
    return csv_lines(header, rows)
