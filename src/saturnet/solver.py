"""Minimal and maximal equilibria of the saturated fixed point.

The map x -> clamp(P'x + c) is monotone on the box [0, w], so iterating from
the lattice bottom converges upward to the minimal equilibrium and iterating
from the top (w, which dominates every equilibrium) converges downward to
the maximal one. Plain iteration can stall near saturation boundaries, so
the solver works blockwise over the trapping-set decomposition:

* transient block and out-connected sinks: the equilibrium is unique, and
  ``_hunt_unique`` finds it by map steps plus one exact linear solve per
  repeated saturation pattern;
* stochastic sinks whose effective inflow sums to zero: the solution set is
  the segment {base + a*pi} clipped to the box, and both extremes are read
  off the segment bounds directly; a segment no longer than the zero-sum
  tolerance is the single point at its middle, and a line that misses the
  box is hunted like a nonzero sum;
* stochastic sinks with nonzero inflow sum: the equilibrium is unique and
  has a saturated node on the heavy side, so the hunt starts from that side.

One pass (``_analyze``) solves the transient part, forms every sink's
effective inflow and gives each sink its SinkAnalysis; ``classify``,
``equilibrium_set``, ``refine`` and the shock sweep read the same verdicts,
so a unique verdict always comes with x_min == x_max.

Every tolerance is relative to the box scale s = max w, with no floor (``_tol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._linear import pinned_particular, segment_bounds
from ._tol import TOUCH_REL, ZERO_SUM_REL, flow_tolerance, scale
from .decomposition import BlockStructure, Decomposition, SinkBlock, block_structure
from .errors import InputError, NonConvergenceError, PartitionInconsistencyError
from .model import EquilibriumVector, Network, as_flow, require_valid


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and budget for the fixed-point solvers.

    ``tol_fp`` is the sup-norm residual/convergence tolerance, ``tol_class``
    the dead-band used when classifying nodes against the saturation
    boundaries (ties go to the interior class, whose exact linear solve then
    settles the value). Both are relative to s = max w of the block or
    network checked, with no floor.
    """

    tol_fp: float = 1e-12
    max_iter: int = 10**6
    tol_class: float = 1e-9

    def __post_init__(self):
        if not self.tol_fp > 0:
            raise InputError("tol_fp must be positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if self.tol_class < self.tol_fp:
            raise InputError("tol_class must be >= tol_fp")


DEFAULT_OPTIONS = SolveOptions()


@dataclass(frozen=True)
class NodePartition:
    """Surplus / exposed / deficit split of the node set at an equilibrium."""

    surplus: tuple[int, ...]
    exposed: tuple[int, ...]
    deficit: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "surplus": list(self.surplus),
            "exposed": list(self.exposed),
            "deficit": list(self.deficit),
        }


def fixed_point_map(net: Network, c, x) -> np.ndarray:
    """One application of x -> clamp(P'x + c, [0, w])."""
    c = as_flow(c, net.n)
    x = np.asarray(x, dtype=float)
    return np.minimum(np.maximum(net.P.T @ x + c, 0.0), net.w)


def fixed_point_residual(net: Network, c, x) -> float:
    """Sup-norm distance between x and its image under the saturated map."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(fixed_point_map(net, c, x) - x))) if net.n else 0.0


# ----------------------------- block hunt -----------------------------


def _saturation_pattern(y, w, band):
    """+1 where the inflow y is above w, -1 below 0, 0 within ``band`` of [0, w]."""
    return (y > w + band).astype(np.int8) - (y < -band)


def _solve_pattern(Q, w, c, pattern):
    """The block's candidate equilibrium for one saturation pattern.

    Nodes marked +1 are pinned to w and nodes marked -1 to 0; the rest solve
    x = Q'x + c exactly among themselves. The result is clipped to [0, w];
    None when that linear system is singular.
    """
    x = np.where(pattern > 0, w, 0.0)
    idx = np.flatnonzero(pattern == 0)
    if idx.size:
        # I - Q[idx, idx]', gathered from the rows of Q
        A = (np.eye(idx.size) - Q[np.ix_(idx, idx)]).T
        rhs = c[idx] + (Q.T @ x)[idx]
        try:
            v = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(v)):
            return None
        x[idx] = v
    return np.clip(x, 0.0, w, out=x)


def _hunt_unique(Q, w, c, opts, from_top):
    """Find the unique equilibrium of a block by map steps and pattern solves.

    ``Q`` is the block itself, untransposed; it may be the network's P. Each
    step applies the map. When the saturation pattern of Q'x + c (+1 above
    w, -1 below 0, 0 within ``tol_class`` of the box) repeats from the
    previous step and has not been solved in this hunt, it is solved once;
    a solution that reproduces itself under the map is the answer, and the
    map carries on from it otherwise. No pattern is solved twice, and the
    map converges from any point of the box on a block with a unique
    equilibrium, so the hunt ends; ``max_iter`` bounds its steps. Both
    checks use ``0.5 * tol_fp`` relative to the block's scale: at large
    scale the map from an exact solve can cycle at one ulp. ``c`` is left
    out of the scale, since a node with |c| far above w is clamped exactly.
    """
    QT = Q.T
    s = scale(w)
    gate, band = 0.5 * opts.tol_fp * s, opts.tol_class * s
    x = w.copy() if from_top else np.zeros(w.size)
    solved, previous = set(), None
    for _ in range(opts.max_iter):
        y = QT @ x + c
        pattern = _saturation_pattern(y, w, band)
        key = pattern.tobytes()
        exact = key == previous and key not in solved
        if exact:
            solved.add(key)
            cand = _solve_pattern(Q, w, c, pattern)
            exact = cand is not None
            if exact:
                x, y = cand, QT @ cand + c
        xn = np.minimum(np.maximum(y, 0.0), w)
        if np.max(np.abs(xn - x)) <= gate:
            return x if exact else xn
        x, previous = xn, key
    raise NonConvergenceError(
        f"no convergence within {opts.max_iter} iterations on a {w.size}-node block",
        last_iterate=x,
        iterations=opts.max_iter,
    )


def _transient_state(net, c, opts, st: BlockStructure) -> np.ndarray:
    """Equilibrium values on the transient part (unique; empty array if none)."""
    T = st.transient
    if T.size == 0:
        return np.zeros(0)
    return _hunt_unique(net.P[np.ix_(T, T)], net.w[T], c[T], opts, from_top=False)


class SinkKind(str, Enum):
    OUT_CONNECTED = "out_connected"
    NONZERO_SUM = "stochastic_nonzero_sum"
    ZERO_SUM_UNIQUE = "stochastic_zero_sum_unique"
    ZERO_SUM_SEGMENT = "stochastic_zero_sum_segment"


@dataclass(frozen=True)
class SinkAnalysis:
    """Per-trapping-set uniqueness verdict and, where relevant, the line data.

    ``stationary`` is the invariant probability vector of the sink block
    (absent for out-connected sinks); ``base`` is one solution of the
    unsaturated system on the sink, pinned to zero on the sink's last node
    (absent unless the inflow sum is zero); ``condition_value`` is the
    segment length in line-parameter units with the stationary vector
    normalized to sum 1.
    """

    index: int
    nodes: tuple[int, ...]
    kind: SinkKind
    inflow: np.ndarray | None = None
    stationary: np.ndarray | None = None
    base: np.ndarray | None = None
    condition_value: float | None = None
    alpha_range: tuple[float, float] | None = None


def _sink_analysis(index, sink: SinkBlock, net, c_eff):
    """Verdict on one trapping set at effective inflow ``c_eff``.

    Returns the SinkAnalysis and the line-parameter interval on which the
    set's equilibria lie, ``(alpha_lo, alpha_hi)``; it is None when the set
    has no solution line inside the box, and then its one equilibrium has to
    be hunted. A segment no longer than the zero-sum tolerance counts as the
    single point at its middle, so a unique verdict always comes with one
    point.
    """
    nodes = sink.component.nodes
    pi = sink.stationary
    if pi is None:
        return SinkAnalysis(index, nodes, SinkKind.OUT_CONNECTED, inflow=c_eff), None
    w = net.w[sink.nodes]
    s = scale(w)
    total = float(c_eff.sum())
    tol = flow_tolerance(ZERO_SUM_REL, s, c_eff)
    if abs(total) > tol:
        return SinkAnalysis(index, nodes, SinkKind.NONZERO_SUM, inflow=c_eff, stationary=pi), None
    base = pinned_particular(sink.block(net.P), c_eff)
    lo, hi = segment_bounds(base, pi, w)
    condition = hi - lo  # equals min(base/pi) + min((w-base)/pi)
    if condition > tol:
        kind, alpha, line = SinkKind.ZERO_SUM_SEGMENT, (lo, hi), (lo, hi)
    else:
        kind, alpha = SinkKind.ZERO_SUM_UNIQUE, None
        # a line that touches the box, or misses it by rounding only
        slack = max(abs(total), TOUCH_REL * s)
        line = (0.5 * (lo + hi),) * 2 if condition >= -slack else None
    analysis = SinkAnalysis(
        index, nodes, kind,
        inflow=c_eff, stationary=pi, base=base, condition_value=condition, alpha_range=alpha,
    )
    return analysis, line


class _Analysis(NamedTuple):
    """One pass over the blocks at a flow: transient values, then every sink."""

    structure: BlockStructure
    c: np.ndarray
    transient: np.ndarray
    blocks: list[SinkBlock]
    sinks: list[SinkAnalysis]
    lines: list[tuple[float, float] | None]


def _analyze(net, c, opts) -> _Analysis:
    """Transient solve, effective inflows and every sink's verdict; no hunts."""
    st = block_structure(net)
    c = as_flow(c, net.n)
    x_T = _transient_state(net, c, opts, st)
    inflow = st.inflows(c, x_T)
    blocks = list(st.sinks())
    sinks, lines = [], []
    for l, sink in enumerate(blocks):
        analysis, line = _sink_analysis(l, sink, net, inflow[sink.span])
        sinks.append(analysis)
        lines.append(line)
    return _Analysis(st, c, x_T, blocks, sinks, lines)


def _residual_gate(net, opts, slack):
    """Largest residual an assembled or refined result may carry.

    ``tol_fp`` is taken relative to the network's scale. A nearly-zero
    inflow sum treated as zero leaves a residual floor of about |sum|,
    passed in as ``slack``; allow headroom over it for the solve and clip
    fuzz.
    """
    return max(opts.tol_fp * scale(net.w), 8.0 * slack)


def _assemble_extremes(net, found: _Analysis, opts):
    """Minimal and maximal equilibria from an analysis, residual-checked.

    Sinks with a line take its endpoints; every other sink has one
    equilibrium, hunted from the heavy side of its inflow.
    """
    x_lo = np.zeros(net.n)
    x_hi = np.zeros(net.n)
    T = found.structure.transient
    x_lo[T] = found.transient
    x_hi[T] = found.transient
    slack = 0.0
    for sink, a, line in zip(found.blocks, found.sinks, found.lines):
        S = sink.nodes
        w = net.w[S]
        if line is None:
            from_top = a.kind is not SinkKind.OUT_CONNECTED and a.inflow.sum() > 0
            x_lo[S] = x_hi[S] = _hunt_unique(sink.block(net.P), w, a.inflow, opts, from_top)
        else:
            x_lo[S] = np.clip(a.base + line[0] * a.stationary, 0.0, w)
            x_hi[S] = np.clip(a.base + line[1] * a.stationary, 0.0, w)
            slack = max(slack, abs(float(a.inflow.sum())))
    gate = _residual_gate(net, opts, slack)
    results = []
    for x in (x_lo, x_hi):
        res = fixed_point_residual(net, found.c, x)
        if res > gate:
            raise NonConvergenceError(
                f"assembled equilibrium has residual {res:.3g} above tolerance {gate:.3g}",
                last_iterate=x,
            )
        results.append(EquilibriumVector(x, res))
    return results[0], results[1]


def _extremes(net, c, opts):
    """Minimal and maximal equilibria, assembled blockwise."""
    return _assemble_extremes(net, _analyze(net, c, opts), opts)


# ----------------------------- public operations -----------------------------


def iterate(net: Network, c, x0, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Run the saturated iteration from x0 until successive iterates settle.

    Raises NonConvergenceError (carrying the last iterate) if the budget runs
    out first.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise InputError(f"x0 has shape {x0.shape}, expected ({net.n},)")
    tol = opts.tol_fp * scale(net.w)
    if np.any(x0 < -tol) or np.any(x0 > net.w + tol):
        raise InputError("x0 must lie in the box [0, w]")
    x, QT = x0, net.P.T
    for used in range(1, opts.max_iter + 1):
        xn = np.minimum(np.maximum(QT @ x + c, 0.0), net.w)
        step = float(np.max(np.abs(xn - x))) if net.n else 0.0
        x = xn
        if step <= tol:
            break
    res = fixed_point_residual(net, c, x)
    if step > tol and res > tol:
        raise NonConvergenceError(
            f"iteration did not converge within {used} steps (residual {res:.3g})",
            last_iterate=x,
            iterations=used,
        )
    return EquilibriumVector(x, res)


def minimal_equilibrium(net: Network, c, opts: SolveOptions | None = None) -> EquilibriumVector:
    """The entrywise-smallest equilibrium."""
    opts = opts or DEFAULT_OPTIONS
    lo, _ = _extremes(net, c, opts)
    return lo


def maximal_equilibrium(net: Network, c, opts: SolveOptions | None = None) -> EquilibriumVector:
    """The entrywise-largest equilibrium."""
    opts = opts or DEFAULT_OPTIONS
    _, hi = _extremes(net, c, opts)
    return hi


def extremal_equilibria(
    net: Network, c, opts: SolveOptions | None = None, dec: Decomposition | None = None
) -> tuple[EquilibriumVector, EquilibriumVector]:
    """Minimal and maximal equilibria in one pass.

    ``dec`` is optional and, when given, must be the network's own
    decomposition; the network's cached structure is used either way.
    """
    opts = opts or DEFAULT_OPTIONS
    if dec is not None and dec != block_structure(net).decomposition:
        raise InputError("dec is not the decomposition of this network")
    return _extremes(net, c, opts)


def _checked_equilibrium(net, c, x, tol):
    """``(c, x, tol * s)`` as arrays; x must be an equilibrium to within ``tol`` relative to s."""
    require_valid(net)
    c = as_flow(c, net.n)
    x = np.asarray(x.x if isinstance(x, EquilibriumVector) else x, dtype=float)
    tol *= scale(net.w)
    res = fixed_point_residual(net, c, x)
    if res > tol:
        raise InputError(f"x is not an equilibrium (residual {res:.3g} > {tol:.3g})")
    return c, x, tol


def node_partition(net: Network, c, x, opts: SolveOptions | None = None) -> NodePartition:
    """Classify nodes as surplus / exposed / deficit at an equilibrium x.

    Each node is judged on its inflow excluding its own routed return, plus
    c. The split is the same for every equilibrium of the same (net, c), so
    any equilibrium may be passed in. Ties within ``tol_class`` (relative to
    the network's scale) of a boundary are classified exposed, and x must be
    an equilibrium to within the same tolerance.
    """
    c, x, tol = _checked_equilibrium(net, c, x, (opts or DEFAULT_OPTIONS).tol_class)
    pattern = _saturation_pattern(net.P.T @ x - np.diag(net.P) * x + c, net.w, tol)
    masks = (pattern > 0, pattern == 0, pattern < 0)
    return NodePartition(*(tuple(int(i) for i in np.nonzero(m)[0]) for m in masks))


def _refine_block(Q, w, c, pattern):
    """``_solve_pattern`` for ``refine``, which has no fallback if it is singular."""
    x = _solve_pattern(Q, w, c, pattern)
    if x is None:
        raise PartitionInconsistencyError("exposed block is singular outside the whole-trapping-set case")
    return x


def refine(net: Network, c, x, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Polish an approximate equilibrium by exact solves on the exposed block.

    Nodes are judged on their whole inflow P'x + c, as in the hunt.
    Saturated nodes are pinned to w or 0 and the exposed nodes are re-solved
    exactly, one block at a time: the transient part first, then each
    trapping set at its effective inflow. If a stochastic trapping set is
    entirely exposed its linear system is singular (the solution set is a
    line); the input is then projected to the nearest line point inside the
    box. Raises PartitionInconsistencyError when the result does not
    reproduce itself under the map, which signals that the input was too far
    from an equilibrium for the classification tolerance.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise InputError(f"x has shape {x.shape}, expected ({net.n},)")

    pattern = _saturation_pattern(net.P.T @ x + c, net.w, opts.tol_class * scale(net.w))
    st = block_structure(net)
    T = st.transient
    known = np.where(pattern > 0, net.w, 0.0)
    known[T] = _refine_block(net.P[np.ix_(T, T)], net.w[T], c[T], pattern[T])
    inflow = st.inflows(c, known[T])
    slack = 0.0
    for l, sink in enumerate(st.sinks()):
        S = sink.nodes
        if pattern[S].all():
            continue  # every node saturated: already pinned
        c_eff = inflow[sink.span]
        if sink.stationary is None or pattern[S].any():
            known[S] = _refine_block(sink.block(net.P), net.w[S], c_eff, pattern[S])
            continue
        # a wholly exposed stochastic set is singular: project x onto its line
        a, line = _sink_analysis(l, sink, net, c_eff)
        total = float(c_eff.sum())
        if a.kind is SinkKind.NONZERO_SUM:
            raise PartitionInconsistencyError(
                "whole stochastic trapping set classified exposed but its inflow "
                f"sum {total:.3g} is nonzero; no unsaturated solution exists"
            )
        if line is None:
            raise PartitionInconsistencyError("solution line of an exposed trapping set misses the box")
        pi = a.stationary
        a_hat = float(pi @ (x[S] - a.base) / (pi @ pi))
        a_hat = min(max(a_hat, line[0]), line[1])
        known[S] = np.clip(a.base + a_hat * pi, 0.0, net.w[S])
        slack = max(slack, abs(total))

    res = fixed_point_residual(net, c, known)
    if res > _residual_gate(net, opts, slack):
        raise PartitionInconsistencyError(
            f"refined point has residual {res:.3g}; classification tolerance too loose for this input",
            candidate=known,
            residual=res,
        )
    return EquilibriumVector(known, res)
