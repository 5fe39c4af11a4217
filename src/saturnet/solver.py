"""Minimal and maximal equilibria of the saturated fixed point.

The map x -> clamp(P'x + c) is monotone on the box [0, w], so iterating from
the lattice bottom converges upward to the minimal equilibrium and iterating
from the top (w, which dominates every equilibrium) converges downward to
the maximal one. Plain iteration can stall near saturation boundaries, so
the solver works blockwise over the trapping-set decomposition:

* transient block and out-connected sinks: iterate a little, classify nodes
  as saturated-high / saturated-low / interior, re-solve the interior block
  exactly, and accept the candidate once it reproduces itself under the map
  (the equilibrium is unique on these blocks, so any exact fixed point is
  the answer);
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

Iteration from 0 starts below every equilibrium and stays there; iteration
from w stays above. Either way the first exact fixed point found on a
uniqueness block is the block's equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._linear import pinned_particular, segment_bounds, zero_sum_tolerance
from .decomposition import BlockStructure, Decomposition, SinkBlock, block_structure
from .errors import InputError, NonConvergenceError, PartitionInconsistencyError
from .model import EquilibriumVector, Network, as_flow, require_valid

_CHUNK_START = 32
_CHUNK_MAX = 1 << 16


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and budget for the fixed-point solvers.

    ``tol_fp`` is the sup-norm residual/convergence tolerance, ``tol_class``
    the dead-band used when classifying nodes against the saturation
    boundaries (ties go to the interior class, whose exact linear solve then
    settles the value).
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


# ----------------------------- iteration core -----------------------------


def _iter_loop(QT, w, c, x, max_steps, tol):
    """Run the saturated iteration; returns (state, steps_used, converged)."""
    x = np.array(x, dtype=float)
    for k in range(max_steps):
        xn = np.minimum(np.maximum(QT @ x + c, 0.0), w)
        diff = float(np.max(np.abs(xn - x))) if x.size else 0.0
        x = xn
        if diff <= tol:
            return x, k + 1, True
    return x, max_steps, False


def _exact_candidate(Q, w, c, x, tol_class, gate):
    """Guess the saturation pattern from x and re-solve the interior exactly.

    Classification here uses the full inflow (including any diagonal mass),
    which is the pattern the fixed point itself obeys. Returns the candidate
    only if it reproduces itself under the map to within ``gate``.
    """
    QT = Q.T
    y = QT @ x + c
    surplus = y > w + tol_class
    deficit = y < -tol_class
    interior = ~(surplus | deficit)
    cand = np.where(surplus, w, 0.0)
    if interior.any():
        idx = np.nonzero(interior)[0]
        # I - Q[idx, idx]', gathered from the rows of Q
        A = (np.eye(idx.size) - Q[np.ix_(idx, idx)]).T
        rhs = c[idx] + (QT @ cand)[idx]
        try:
            v = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(v)):
            return None
        cand[idx] = v
    np.clip(cand, 0.0, w, out=cand)
    res = np.max(np.abs(np.minimum(np.maximum(QT @ cand + c, 0.0), w) - cand))
    return cand if res <= gate else None


def _hunt_unique(Q, w, c, opts, from_top):
    """Find the unique equilibrium of a block by iteration + exact re-solves.

    ``Q`` is the block itself, untransposed; it may be the network's P.
    """
    k = w.size
    if k == 0:
        return np.zeros(0)
    gate = 0.5 * opts.tol_fp
    x = w.copy() if from_top else np.zeros(k)
    budget = opts.max_iter
    chunk = _CHUNK_START
    while True:
        cand = _exact_candidate(Q, w, c, x, opts.tol_class, gate)
        if cand is not None:
            return cand
        if budget <= 0:
            raise NonConvergenceError(
                f"no convergence within {opts.max_iter} iterations on a {k}-node block",
                last_iterate=x,
                iterations=opts.max_iter,
            )
        x, used, converged = _iter_loop(Q.T, w, c, x, min(chunk, budget), gate)
        budget -= used
        if converged:
            cand = _exact_candidate(Q, w, c, x, opts.tol_class, gate)
            return cand if cand is not None else x
        chunk = min(chunk * 2, _CHUNK_MAX)


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
    total = float(c_eff.sum())
    tol = zero_sum_tolerance(c_eff)
    if abs(total) > tol:
        return SinkAnalysis(index, nodes, SinkKind.NONZERO_SUM, inflow=c_eff, stationary=pi), None
    w = net.w[sink.nodes]
    base = pinned_particular(sink.block(net.P), c_eff)
    lo, hi = segment_bounds(base, pi, w)
    condition = hi - lo  # equals min(base/pi) + min((w-base)/pi)
    if condition > tol:
        kind, alpha, line = SinkKind.ZERO_SUM_SEGMENT, (lo, hi), (lo, hi)
    else:
        kind, alpha = SinkKind.ZERO_SUM_UNIQUE, None
        # a line that touches the box, or misses it by rounding only
        slack = max(abs(total), 1e-15 * (1.0 + float(np.max(w))))
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
    # a nearly-zero inflow sum treated as zero leaves a residual floor of
    # about |sum|; allow headroom over it for the solve and clip fuzz
    gate = max(opts.tol_fp, 8.0 * slack)
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
    if np.any(x0 < -opts.tol_fp) or np.any(x0 > net.w + opts.tol_fp):
        raise InputError("x0 must lie in the box [0, w]")
    x, used, converged = _iter_loop(net.P.T, net.w, c, x0, opts.max_iter, opts.tol_fp)
    res = fixed_point_residual(net, c, x)
    if not converged and res > opts.tol_fp:
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


def _node_masks(net, c, x, tol_class):
    """Surplus, exposed and deficit masks of x.

    Each node is judged on its inflow excluding its own routed return, plus
    c; ties within ``tol_class`` of a boundary are exposed.
    """
    z = net.P.T @ x - np.diag(net.P) * x + c
    surplus = z > net.w + tol_class
    deficit = z < -tol_class
    return surplus, ~(surplus | deficit), deficit


def node_partition(net: Network, c, x, opts: SolveOptions | None = None) -> NodePartition:
    """Classify nodes as surplus / exposed / deficit at an equilibrium x.

    The split is the same for every equilibrium of the same (net, c), so any
    equilibrium may be passed in. Ties within ``tol_class`` of a boundary are
    classified exposed.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    res = fixed_point_residual(net, c, x)
    if res > opts.tol_class:
        raise InputError(f"x is not an equilibrium (residual {res:.3g} > {opts.tol_class:.3g})")
    masks = _node_masks(net, c, x, opts.tol_class)
    return NodePartition(*(tuple(int(i) for i in np.nonzero(m)[0]) for m in masks))


def refine(net: Network, c, x, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Polish an approximate equilibrium by exact solves on the exposed block.

    Saturated nodes are pinned to w or 0 and the exposed block is re-solved
    exactly, transient part first, then each trapping set. If a stochastic
    trapping set is entirely exposed its linear system is singular (the
    solution set is a line); the input is then projected to the nearest line
    point inside the box. Raises PartitionInconsistencyError when the result
    does not reproduce itself under the map, which signals that the input was
    too far from an equilibrium for the classification tolerance.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise InputError(f"x has shape {x.shape}, expected ({net.n},)")

    w = net.w
    QT = net.P.T
    surplus, exposed, _ = _node_masks(net, c, x, opts.tol_class)

    st = block_structure(net)
    known = np.where(surplus, w, 0.0)
    slack = 0.0

    def solve_block(unknown_idx):
        A = np.eye(unknown_idx.size) - QT[np.ix_(unknown_idx, unknown_idx)]
        rhs = c[unknown_idx] + QT[unknown_idx] @ known
        try:
            v = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            raise PartitionInconsistencyError(
                "exposed block is singular outside the whole-trapping-set case"
            ) from None
        return v

    T = st.transient
    if T.size:
        U = T[exposed[T]]
        if U.size:
            known[U] = solve_block(U)

    for l, sink in enumerate(st.sinks()):
        S = sink.nodes
        U = S[exposed[S]]
        if U.size == S.size and sink.stationary is not None:
            c_eff = c[S] + QT[S] @ known  # within-sink knowns are all zero here
            a, line = _sink_analysis(l, sink, net, c_eff)
            total = float(c_eff.sum())
            if a.kind is SinkKind.NONZERO_SUM:
                raise PartitionInconsistencyError(
                    "whole stochastic trapping set classified exposed but its inflow "
                    f"sum {total:.3g} is nonzero; no unsaturated solution exists"
                )
            if line is None:
                raise PartitionInconsistencyError(
                    "solution line of an exposed trapping set misses the box"
                )
            pi = a.stationary
            a_hat = float(pi @ (x[S] - a.base) / (pi @ pi))
            a_hat = min(max(a_hat, line[0]), line[1])
            known[S] = np.clip(a.base + a_hat * pi, 0.0, w[S])
            slack = max(slack, abs(total))
        elif U.size:
            known[U] = solve_block(U)

    np.clip(known, 0.0, w, out=known)
    res = fixed_point_residual(net, c, known)
    if res > max(opts.tol_fp, 8.0 * slack):
        raise PartitionInconsistencyError(
            f"refined point has residual {res:.3g}; classification tolerance too loose for this input",
            candidate=known,
            residual=res,
        )
    return EquilibriumVector(known, res)
