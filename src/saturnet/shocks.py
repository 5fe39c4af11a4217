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
bisected in lockstep, and each set keeps the root it would get alone: a
midpoint the grid solved is read off it, a set's inflow sum is affine on a
bracket whose ends share the transient saturation pattern (the mean of the
ends' sums, in float arithmetic), and the transient part is hunted, as one
stack, only at the other midpoints. The roots' flows are solved as stacks
too. ``loss_jump`` sums the gap of the same assembled extremes.
``sweep_to_csv`` formats each distinct number of the table once, and x_max
only where it differs from x_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import fmt_cells, fmt_float
from ._tol import ROUND_REL, flow_tolerance, scale
from .decomposition import BlockStructure, block_structure
from .errors import InputError, NotCriticalError
from .model import Network, _as_int, _as_number, _as_vector, _frozen, as_flow, as_point, require_valid
from .solver import (
    _SEGMENT,
    DEFAULT_OPTIONS,
    SolveOptions,
    _analyze,
    _assemble_extremes,
    _inflows,
    _is_unique,
    _solve,
    _take_flows,
    _transient_states,
)

#: Absolute bisection tolerance on the critical shock magnitude.
EPS_BISECT_TOL = 1e-10

#: Most float64 entries that one stack of flows may gather in blocks and per-row arrays.
STACK_ENTRIES = 2**19
#: Entries a stack holds per (flow, trapping set) row beside its block: the
#: verdict and hunt arrays of one value per row (about 35 were live at once
#: on a network of one-node sets). A block hunted on its edge list counts as
#: many per node in place of its dense k².
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
        c0 = _frozen(_as_vector(self.c0, "c0"), self.c0)
        q = _frozen(_as_vector(self.q, "q", len(c0)), self.q)
        if not np.any(q != 0):
            raise InputError("shock direction q must be nonzero")
        if np.any(q < 0) and not self.allow_mixed_direction:
            raise InputError(
                "shock direction q has negative entries; pass allow_mixed_direction=True to accept"
            )
        eps_lo, eps_hi = _as_number(self.eps_lo, "eps_lo"), _as_number(self.eps_hi, "eps_hi")
        if not (math.isfinite(eps_lo) and math.isfinite(eps_hi)):
            raise InputError("eps_lo and eps_hi must be finite")
        if not eps_lo <= eps_hi:
            raise InputError("eps_lo must not exceed eps_hi")
        grid = _as_int(self.grid, "grid")
        if grid < 2:
            raise InputError("grid must be at least 2")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eps_lo", float(eps_lo))
        object.__setattr__(self, "eps_hi", float(eps_hi))
        object.__setattr__(self, "grid", grid)

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


def _loss(c0, c, w, x):
    """The systemic loss at a point, or at every point of a stack (summed over the last axis)."""
    return c0.sum() - c.sum(axis=-1) + w.sum() - x.sum(axis=-1)


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
    return float(_loss(c0, c, net.w, as_point(x, net.n)))


def loss_jump(net: Network, c_star, opts: SolveOptions | None = None) -> float:
    """Size of the loss discontinuity at a flow with non-unique equilibria.

    The aggregate gap ``sum(x_max - x_min)``, as in ``CriticalCrossing``, so
    the two agree bit for bit at a crossing's ``c_star``; up to rounding it is
    the segment sets' condition values summed. Raises NotCriticalError when
    the equilibrium at c_star is unique.
    """
    opts = opts or DEFAULT_OPTIONS
    found, _ = _solve(net, c_star, opts, assemble=False)
    if _is_unique(found):
        raise NotCriticalError("equilibrium at c_star is unique; no jump to measure")
    _, (x, _) = _solve(net, c_star, opts)
    return float((x[1, 0] - x[0, 0]).sum())


def max_jump_norm(net: Network, p: float) -> float:
    """Largest possible p-norm of an equilibrium jump, over all exogenous flows.

    Each stochastic trapping set contributes (min_i w_i/pi_i) * pi in the
    worst case (realized at c = 0); out-connected sinks and the transient
    part never jump. The terms are added in decomposition order.
    """
    require_valid(net)
    if not (_as_number(p, "norm exponent p") >= 1):
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
    """The float64 entries one flow holds in a stack: its blocks plus ROW_ENTRIES per trapping set.

    A dense block of k nodes counts k²; a block hunted on its edge list
    (``st.edges``) counts its edges plus ROW_ENTRIES per node, for the hunt
    arrays of one value per node.
    """
    entries = st.transient.size**2 + sum(len(g.sets) * (g.nodes.shape[1] ** 2 + ROW_ENTRIES) for g in st.groups)
    for block in st.edges.values():
        k = block.nodes.size
        entries += block.rows.size + ROW_ENTRIES * k - k**2
    return entries


def _chunks(count: int, entries: int):
    """Slices of ``range(count)``, at least one flow each, of flows whose stacks hold ``entries`` each.

    A slice holds at most STACK_ENTRIES entries, unless one flow alone holds more.
    """
    step = max(1, STACK_ENTRIES // max(entries, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _at_eps(eps):
    """Names flow f of a stack by its shock size ``eps[f]``, for errors."""
    return lambda f: f"eps = {fmt_float(eps[f])}"


def _saturated(x_T, w_T) -> np.ndarray:
    """The transient saturation pattern of each row of ``x_T``: ``x_T == 0`` beside ``x_T == w_T`` (F, 2·k_T)."""
    return np.concatenate([x_T == 0.0, x_T == w_T], axis=1)


def _set_sums(st: BlockStructure, inflow) -> np.ndarray:
    """Every trapping set's inflow sum at each flow of node inflows ``inflow`` (F, n), as ``_analyze`` sums it."""
    out = np.empty((len(inflow), len(st.place)))
    for g in st.groups:
        out[:, g.sets] = inflow.take(g.nodes, axis=1).sum(axis=-1)
    return out


def _inflow_sums(net, st: BlockStructure, ray: ShockRay, eps, sets, opts):
    """Effective inflow sums of the trapping sets ``sets[i]`` (a row of them) at each shock size ``eps[i]``.

    ``sets`` is (len(eps), j), and so is the sum. The transient part is
    hunted at every shock size, in stacks of flows; its saturation pattern
    there (``_saturated``, read off the hunt's clipped values) is returned
    with the sums.
    """
    out = np.empty(sets.shape)
    pattern = np.empty((len(eps), 2 * st.transient.size), dtype=bool)
    for part in _chunks(len(eps), _flow_entries(st)):
        c = ray.c0 - eps[part, None] * ray.q
        x_T = _transient_states(net, st, c, opts, _at_eps(eps[part]))
        pattern[part] = _saturated(x_T, net.w[st.transient])
        out[part] = np.take_along_axis(_set_sums(st, _inflows(net, st, c, x_T)), sets[part], axis=1)
    return out, pattern


def _critical_eps(net, ray: ShockRay, sets, opts, grid=None) -> list[float | None]:
    """``find_critical_eps`` of every trapping set in ``sets``, bisected in lockstep.

    ``grid``, from a sweep, holds the inflow sums of ``sets`` and the
    transient patterns at each grid point: a shock size with the bits of a
    grid point (-0.0 is not 0.0) is read off it, as a hunt would give it.
    The rest are hunted, the range ends as one stack of two flows and the
    grid scan as one of the grid. Each set keeps its bracket ``b`` (lo, hi)
    and its inflow sums ``g`` and transient saturation patterns ``p`` at
    both ends. The sets whose bracket spans a pattern change go on as one
    stack, a row per set at its own midpoint. Where both ends have one
    pattern, it holds on the whole bracket (the flows at which it holds
    form a convex set), so the sum is affine there, no step hunts again,
    and the set is finished in float arithmetic, with the same midpoints,
    mean sums and sign rule. Every set takes the midpoints and decisions it
    would take alone, so its root is bit for bit that one.
    """
    st = block_structure(net)
    sets = np.asarray(sets, dtype=np.intp)
    if not sets.size:
        return []
    atol = float(flow_tolerance(ROUND_REL, scale(net.w), np.abs(ray.c0) + np.abs(ray.q)))
    on_grid = np.linspace(ray.eps_lo, ray.eps_hi, ray.grid)

    def sums(eps, cols):
        """``_inflow_sums`` of ``sets[cols]`` (len(eps), j) at ``eps``, read off ``grid`` where it holds them."""
        if grid is None:
            return _inflow_sums(net, st, ray, eps, sets[cols], opts)
        i = np.minimum(np.searchsorted(on_grid, eps), ray.grid - 1)
        hunt = on_grid[i].view(np.int64) != eps.view(np.int64)
        g, p = grid[0][i[:, None], cols], grid[1][i]
        if hunt.any():
            g[hunt], p[hunt] = _inflow_sums(net, st, ray, eps[hunt], sets[cols[hunt]], opts)
        return g, p

    b = np.array([[ray.eps_lo], [ray.eps_hi]]).repeat(sets.size, axis=1)
    g, ends = sums(b[:, 0], np.broadcast_to(np.arange(sets.size), (2, sets.size)))
    p = ends[:, None].repeat(sets.size, axis=1)
    out = np.full(sets.size, np.nan)  # NaN: no root in range
    at_lo = np.abs(g[0]) <= atol
    at_hi = ~at_lo & (np.abs(g[1]) <= atol)
    out[at_lo], out[at_hi] = b[0, at_lo], b[1, at_hi]
    bisect = ~(at_lo | at_hi)
    same = bisect & (np.sign(g[0]) == np.sign(g[1]))
    bisect &= ~same
    if ray.allow_mixed_direction and np.count_nonzero(same):
        # monotonicity is lost: scan the grid for the first sign change
        scan = np.flatnonzero(same)
        values, patterns = sums(on_grid, np.broadcast_to(scan, (ray.grid, scan.size)))
        change = (np.sign(values[:-1]) != np.sign(values[1:])) | (np.abs(values[1:]) <= atol)
        hit = change.any(axis=0)
        j, scan = change.argmax(axis=0)[hit], scan[hit]
        ends = np.stack([j, j + 1])
        b[:, scan], g[:, scan], p[:, scan] = on_grid[ends], values[ends, np.flatnonzero(hit)], patterns[ends]
        bisect[scan] = True
    live = np.flatnonzero(bisect)
    while True:
        live = live[(b[1, live] - b[0, live] > EPS_BISECT_TOL) & (p[0, live] != p[1, live]).any(axis=1)]
        if not live.size:
            break
        mid = 0.5 * (b[0, live] + b[1, live])
        g_mid, p_mid = sums(mid, live[:, None])
        g_mid = g_mid[:, 0]
        up = (np.sign(g_mid) == np.sign(g[0, live])) & (np.abs(g_mid) > atol)
        side = np.where(up, 0, 1)  # the end that moves to the midpoint
        b[side, live], g[side, live], p[side, live] = mid, g_mid, p_mid
    for k in np.flatnonzero(bisect).tolist():  # the rest is one affine piece: step it in float arithmetic
        (lo, hi), (g_lo, g_hi) = b[:, k].tolist(), g[:, k].tolist()
        while hi - lo > EPS_BISECT_TOL:
            mid, g_mid = 0.5 * (lo + hi), 0.5 * (g_lo + g_hi)
            if abs(g_mid) > atol and (g_mid > 0) - (g_mid < 0) == (g_lo > 0) - (g_lo < 0):  # as np.sign
                lo, g_lo = mid, g_mid
            else:
                hi, g_hi = mid, g_mid
        out[k] = 0.5 * (lo + hi)
    return [None if np.isnan(e) else float(e) for e in out]


def find_critical_eps(
    net: Network, ray: ShockRay, sink_index: int, opts: SolveOptions | None = None
) -> float | None:
    """Shock size at which a trapping set's effective inflow sum crosses zero.

    The sum is nonincreasing in eps for nonnegative shock directions
    (transient values move monotonically with c), so bisection localizes the
    root to within EPS_BISECT_TOL. The sum is taken over the set's nodes of
    the node-indexed effective inflows; the transient part is hunted only
    where a bracket spans a change of its saturation pattern, since the sum
    is affine in eps elsewhere. Returns None when the sum keeps one sign
    over the whole range. This is the lockstep bisection of ``sweep`` on
    one set, so both give the same root bit for bit.
    """
    opts = opts or DEFAULT_OPTIONS
    st = block_structure(net)
    found = len(st.decomposition.sinks)
    sink_index = _as_int(sink_index, "sink_index")
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
    network whose one dense trapping set spans it goes one point at a time); each point
    gets, bit for bit, the equilibria it would get alone. An error names
    the block and the eps of the first point at fault in its stage.
    Critical crossings are located by one lockstep bisection over the
    stochastic trapping sets (a grid typically straddles the critical eps
    rather than hitting it), which reads the sets' inflow sums and the
    transient patterns off the grid wherever it bisects at a grid point,
    and recorded only where the equilibrium set is genuinely a segment;
    both one-sided limit equilibria there are the segment endpoints. The
    roots' flows are solved as stacks, chunked like the grid, and only the
    segment ones are assembled; each crossing is bit for bit what it would
    be alone.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    if ray.c0.shape != (net.n,):
        raise InputError("ray dimension does not match the network")
    st = block_structure(net)
    paid = net.w - opts.tol_class * net.w
    eps = np.linspace(ray.eps_lo, ray.eps_hi, ray.grid)
    records = []
    # the stochastic sets' inflow sums (a column each) and the transient patterns at each point, for the bisection
    stochastic = np.sort(np.concatenate([g.sets[g.stochastic] for g in st.groups]))
    columns = [np.searchsorted(stochastic, g.sets[g.stochastic]) for g in st.groups]
    totals, patterns = np.empty((ray.grid, stochastic.size)), np.empty((ray.grid, 2 * st.transient.size), bool)
    for part in _chunks(ray.grid, _flow_entries(st)):
        c = ray.c0 - eps[part, None] * ray.q
        found = _analyze(net, c, opts, _at_eps(eps[part]))
        patterns[part] = _saturated(found.transient, net.w[st.transient])
        for g, v, cols in zip(st.groups, found.groups, columns):
            totals[part, cols] = v.total[:, g.stochastic]
        x, _ = _assemble_extremes(net, found, opts)
        x.setflags(write=False)
        loss = _loss(ray.c0, c, net.w, x)  # at the minimal, maximal equilibria
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
    bisected = _critical_eps(net, ray, stochastic, opts, (totals, patterns))
    roots = [(l, e) for l, e in zip(stochastic.tolist(), bisected) if e is not None]
    sets = np.array([l for l, _ in roots], dtype=np.intp)
    eps_star = np.array([e for _, e in roots])
    for part in _chunks(len(roots), _flow_entries(st)):
        c_star = ray.c0 - eps_star[part, None] * ray.q
        found = _analyze(net, c_star, opts, _at_eps(eps_star[part]))
        # root f's set is set r of group g, whose verdict there is kind[f, r]; a
        # root where the inflow sum crosses zero but the line misses the box
        # is no crossing, and its flow is not assembled
        segment = np.flatnonzero([
            found.groups[g].kind[f, r] == _SEGMENT for f, (g, r) in enumerate(st.place[sets[part]].tolist())
        ])
        if not segment.size:
            continue
        x, _ = _assemble_extremes(net, _take_flows(found, segment), opts)
        jump = x[1] - x[0]
        for i, f in enumerate(segment.tolist()):
            l = int(sets[part][f])
            crossings.append(
                CriticalCrossing(
                    eps_star=float(eps_star[part][f]),
                    c_star=c_star[f],
                    sink_index=l,
                    sink_nodes=st.decomposition.sinks[l].nodes,
                    jump_vector=jump[i],
                    loss_jump=float(jump[i].sum()),
                )
            )
    crossings.sort(key=lambda cr: cr.eps_star)
    return records, crossings


def sweep_to_csv(records: list[SweepRecord], n: int) -> str:
    """The sweep table as CSV, each number as ``_fmt.csv_cell`` writes it (12 significant digits, no -0).

    One ``_fmt.fmt_cells`` call, which formats each distinct value once,
    takes the cells in row order: every row's eps, losses and x_min, and
    x_max only where it differs from x_min as an array; elsewhere the x_max
    half reuses the row's x_min text.
    """
    header = ["eps", "unique", "loss_min", "loss_max", "n_defaults"]
    header += [f"x_min_{i + 1}" for i in range(n)]
    header += [f"x_max_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    if records:
        x_min, x_max = np.array([r.x_min for r in records]), np.array([r.x_max for r in records])
        width = np.where((x_min == x_max).all(axis=1), 3 + n, 3 + 2 * n)  # the cells a row formats
        values = np.column_stack([[(r.eps, r.loss_min, r.loss_max) for r in records], x_min, x_max])
        cells = fmt_cells(values[np.arange(3 + 2 * n) < width[:, None]])
        for r, end, w in zip(records, np.cumsum(width).tolist(), width.tolist()):
            v = cells[end - w : end]
            low, flag = ",".join(v[3 : 3 + n]), "true" if r.unique else "false"
            high = ",".join(v[3 + n :]) or low  # no cells: x_max equals x_min
            lines.append(",".join([v[0], flag, v[1], v[2], str(len(r.defaults)), low, high]))
    return "\n".join(lines) + "\n"
