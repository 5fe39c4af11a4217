"""Systemic loss, shock-ray sweeps, and jump-discontinuity detection.

A shock ray c(eps) = c0 - eps * q lowers the exogenous flow along a fixed
nonnegative direction. As eps grows the extreme equilibria move down
piecewise-linearly until the effective inflow sum of some stochastic
trapping set crosses zero; there the equilibrium is a whole segment and the
selected equilibrium jumps from the segment top (limit from below) to the
segment bottom (limit from above).

A sweep solves its grid as stacks of flows: each chunk of grid points is
one pass of the solver's stacked layer (one transient hunt, one verdict
pass and one hunt per size group), and every point keeps, bit for bit, the
equilibria it would get alone. The crossings of all stochastic sets are
bisected in lockstep, each step one stacked transient hunt with one row
per set still bracketing its root, and each set keeps the root it would
get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import fmt_float
from ._tol import ROUND_REL, flow_tolerance, scale
from .decomposition import BlockStructure, block_structure
from .errors import InputError, NotCriticalError
from .model import Network, as_flow, as_point, require_valid
from .solver import (
    _SEGMENT,
    DEFAULT_OPTIONS,
    SinkKind,
    SolveOptions,
    _analyze,
    _assemble_extremes,
    _transient_states,
)
from .structure import classify

#: Absolute bisection tolerance on the critical shock magnitude.
EPS_BISECT_TOL = 1e-10

#: Most float64 entries that one stack of flows may gather in blocks and per-row arrays.
STACK_ENTRIES = 2**19
#: Entries a stack holds per (flow, trapping set) row beside its block: the
#: verdict and hunt arrays of one value per row (about 35 were live at once
#: on a network of one-node sets).
ROW_ENTRIES = 32


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
        if not (math.isfinite(self.eps_lo) and math.isfinite(self.eps_hi)):
            raise InputError("eps_lo and eps_hi must be finite")
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
    (sum w - sum x). Defined for shocks only: requires c <= c0 entrywise, up
    to rounding relative to the network's scale and |c0|_1.
    """
    require_valid(net)
    c0 = as_flow(c0, net.n)
    c = as_flow(c, net.n)
    if np.any(c > c0 + flow_tolerance(ROUND_REL, scale(net.w), c0)):
        raise InputError("loss requires a shock: c must not exceed c0 entrywise")
    return _loss(c0, c, net.w, as_point(x, net.n))


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
    part never jump. The terms are added in decomposition order.
    """
    require_valid(net)
    if not (p >= 1):
        raise InputError("norm exponent p must be >= 1")
    st = block_structure(net)
    # per set: min(w_i/pi_i), and max(pi) or sum(pi**p); zero on out-connected sets
    size, spread = np.zeros((2, len(st.decomposition.sinks)))
    for g in st.groups:
        sets, w, pi = g.sets[g.stochastic], g.w[g.stochastic], g.stationary[g.stochastic]
        size[sets] = np.min(w / pi, axis=1)
        spread[sets] = np.max(pi, axis=1) if math.isinf(p) else np.sum(pi**p, axis=1)
    terms = zip(size.tolist(), spread.tolist())
    if math.isinf(p):
        return max(m * s for m, s in terms)
    return float(sum(m**p * s for m, s in terms) ** (1.0 / p))


def _flow_entries(st: BlockStructure) -> int:
    """The float64 entries one flow holds in a stack: k_T² + Σ m·(k² + ROW_ENTRIES) over size groups."""
    return st.transient.size**2 + sum(len(g.sets) * (g.nodes.shape[1] ** 2 + ROW_ENTRIES) for g in st.groups)


def _chunks(count: int, entries: int):
    """Slices of ``range(count)``, at least one flow each, of flows whose stacks hold ``entries`` each.

    A slice holds at most STACK_ENTRIES entries, unless one flow alone holds more.
    """
    step = max(1, STACK_ENTRIES // max(entries, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _at_eps(eps):
    """Names flow f of a stack by its shock size ``eps[f]``, for errors."""
    return lambda f: f"eps = {fmt_float(eps[f])}"


def _inflow_sums(net, st: BlockStructure, ray: ShockRay, eps, sets, opts) -> np.ndarray:
    """Effective inflow sums of the trapping sets ``sets[i]`` (a row of them) at each shock size ``eps[i]``.

    ``sets`` is (len(eps), j), and so is the result. The transient part is
    hunted at every shock size, in stacks of flows.
    """
    out = np.empty(sets.shape)
    group, place = st.place[sets, 0], st.place[sets, 1]
    for part in _chunks(len(eps), _flow_entries(st)):
        c = ray.c0 - eps[part, None] * ray.q
        inflow = st.inflows(c, _transient_states(net, st, c, opts, _at_eps(eps[part])))
        for g, size_group in enumerate(st.groups):
            r, j = np.nonzero(group[part] == g)
            if r.size:
                nodes = size_group.nodes[place[part][r, j]]
                out[part][r, j] = inflow[r[:, None], nodes].sum(axis=1)
    return out


def _critical_eps(net, ray: ShockRay, sets, opts) -> list[float | None]:
    """``find_critical_eps`` of every trapping set in ``sets``, bisected in lockstep.

    The range ends are one stack of two flows and the grid scan one stack of
    the grid; each bisection step is one stack with a row per set still
    bracketing its root, at that set's own midpoint. Every set takes the
    steps it would take alone, so its root is bit for bit the one it would
    get alone.
    """
    st = block_structure(net)
    sets = np.asarray(sets, dtype=np.intp)
    if not sets.size:
        return []
    atol = flow_tolerance(ROUND_REL, scale(net.w), np.abs(ray.c0) + np.abs(ray.q))
    lo, hi = np.full(sets.size, ray.eps_lo), np.full(sets.size, ray.eps_hi)
    ends = np.array([ray.eps_lo, ray.eps_hi])
    g_lo, g_hi = _inflow_sums(net, st, ray, ends, np.broadcast_to(sets, (2, sets.size)), opts)
    out = np.full(sets.size, np.nan)  # NaN: no root in range
    at_lo = np.abs(g_lo) <= atol
    at_hi = ~at_lo & (np.abs(g_hi) <= atol)
    out[at_lo], out[at_hi] = lo[at_lo], hi[at_hi]
    bisect = ~(at_lo | at_hi)
    same = bisect & (np.sign(g_lo) == np.sign(g_hi))
    bisect &= ~same
    if ray.allow_mixed_direction and np.count_nonzero(same):
        # monotonicity is lost: scan the grid for the first sign change
        scan = np.flatnonzero(same)
        grid = np.linspace(ray.eps_lo, ray.eps_hi, ray.grid)
        values = _inflow_sums(net, st, ray, grid, np.broadcast_to(sets[scan], (ray.grid, scan.size)), opts)
        change = (np.sign(values[:-1]) != np.sign(values[1:])) | (np.abs(values[1:]) <= atol)
        hit = change.any(axis=0)
        j, scan = change.argmax(axis=0)[hit], scan[hit]
        lo[scan], hi[scan], g_lo[scan] = grid[j], grid[j + 1], values[j, np.flatnonzero(hit)]
        bisect[scan] = True
    live = np.flatnonzero(bisect)
    while True:
        live = live[hi[live] - lo[live] > EPS_BISECT_TOL]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        g_mid = _inflow_sums(net, st, ray, mid, sets[live, None], opts)[:, 0]
        up = (np.sign(g_mid) == np.sign(g_lo[live])) & (np.abs(g_mid) > atol)
        lo[live[up]], g_lo[live[up]] = mid[up], g_mid[up]
        hi[live[~up]] = mid[~up]
    out[bisect] = 0.5 * (lo[bisect] + hi[bisect])
    return [None if np.isnan(e) else float(e) for e in out]


def find_critical_eps(
    net: Network, ray: ShockRay, sink_index: int, opts: SolveOptions | None = None
) -> float | None:
    """Shock size at which a trapping set's effective inflow sum crosses zero.

    The sum is nonincreasing in eps for nonnegative shock directions
    (transient values move monotonically with c), so bisection localizes the
    root to within EPS_BISECT_TOL. The sum is taken over the set's nodes of
    the node-indexed effective inflows. Returns None when the sum keeps one
    sign over the whole range. This is the lockstep bisection of ``sweep``
    on one set, so both give the same root bit for bit.
    """
    opts = opts or DEFAULT_OPTIONS
    st = block_structure(net)
    found = len(st.decomposition.sinks)
    if not 0 <= sink_index < found:
        raise InputError(f"sink_index {sink_index} out of range (found {found} sinks)")
    if ray.c0.shape != (net.n,):
        raise InputError("ray dimension does not match the network")
    return _critical_eps(net, ray, [sink_index], opts)[0]


def sweep(
    net: Network, ray: ShockRay, opts: SolveOptions | None = None
) -> tuple[list[SweepRecord], list[CriticalCrossing]]:
    """Evaluate extreme equilibria, losses, and defaults along a shock ray.

    The grid is solved in ascending eps order as stacks of flows, in chunks
    that hold at most STACK_ENTRIES entries in blocks and per-row arrays (a
    network whose one trapping set spans it goes one point at a time); each point
    gets, bit for bit, the equilibria it would get alone. An error names
    the block and the eps of the first point at fault in its stage.
    Critical crossings are located by one lockstep bisection over the
    stochastic trapping sets (a grid typically straddles the critical eps
    rather than hitting it) and recorded only where the equilibrium set is
    genuinely a segment; both one-sided limit equilibria there are the
    segment endpoints.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    if ray.c0.shape != (net.n,):
        raise InputError("ray dimension does not match the network")
    st = block_structure(net)
    paid = net.w - opts.tol_class * net.w
    eps = np.linspace(ray.eps_lo, ray.eps_hi, ray.grid)
    base = ray.c0.sum()
    records = []
    for part in _chunks(ray.grid, _flow_entries(st)):
        c = ray.c0 - eps[part, None] * ray.q
        found = _analyze(net, c, opts, _at_eps(eps[part]))
        x, _ = _assemble_extremes(net, found, opts)
        x.setflags(write=False)
        loss = base - c.sum(axis=1) + net.w.sum() - x.sum(axis=2)  # at the minimal, maximal equilibria
        unique = (x[0] == x[1]).all(axis=1).tolist()
        defaults = x[0] < paid
        for f, e in enumerate(eps[part].tolist()):
            records.append(
                SweepRecord(
                    eps=e,
                    x_min=x[0, f],
                    x_max=x[1, f],
                    loss_min=float(loss[1, f]),
                    loss_max=float(loss[0, f]),
                    defaults=tuple(np.flatnonzero(defaults[f]).tolist()),
                    unique=unique[f],
                )
            )

    crossings = []
    stochastic = [l for l, sink in enumerate(st.decomposition.sinks) if not sink.out_connected]
    for l, eps_star in zip(stochastic, _critical_eps(net, ray, stochastic, opts)):
        if eps_star is None:
            continue
        c_star = ray.c_at(eps_star)
        found = _analyze(net, c_star[None], opts, _at_eps([eps_star]))
        g, r = st.place[l]
        if found.groups[g].kind[r] != _SEGMENT:
            continue  # inflow sum crosses zero but the line misses the box
        x, _ = _assemble_extremes(net, found, opts)
        jump = x[1, 0] - x[0, 0]
        crossings.append(
            CriticalCrossing(
                eps_star=eps_star,
                c_star=c_star,
                sink_index=l,
                sink_nodes=st.decomposition.sinks[l].nodes,
                jump_vector=jump,
                loss_jump=float(jump.sum()),
            )
        )
    crossings.sort(key=lambda cr: cr.eps_star)
    return records, crossings


def sweep_to_csv(records: list[SweepRecord], n: int) -> str:
    """The sweep table as CSV, each number as ``_fmt.csv_cell`` writes it (12 significant digits, no -0)."""
    header = ["eps", "unique", "loss_min", "loss_max", "n_defaults"]
    header += [f"x_min_{i + 1}" for i in range(n)]
    header += [f"x_max_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    if records:
        values = np.column_stack([
            [(r.eps, r.loss_min, r.loss_max) for r in records],
            np.array([r.x_min for r in records]),
            np.array([r.x_max for r in records]),
        ])
        finite = np.isfinite(values)
        if not finite.all():
            fmt_float(values[~finite][0])  # raises the InputError of the first such cell
        values += 0.0  # -0.0 + 0.0 is 0.0, which prints as 0
        row = "%.12g,%s,%.12g,%.12g,%d," + ",".join(["%.12g"] * (values.shape[1] - 3))
        for r, v in zip(records, values.tolist()):
            lines.append(row % (v[0], "true" if r.unique else "false", v[1], v[2], len(r.defaults), *v[3:]))
    return "\n".join(lines) + "\n"
