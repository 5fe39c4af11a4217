"""Minimal and maximal equilibria of the saturated fixed point.

The map x -> clamp(P'x + c) is monotone on the box [0, w], so iterating from
the lattice bottom converges upward to the minimal equilibrium and iterating
from the top (w, which dominates every equilibrium) converges downward to
the maximal one. Plain iteration can stall near saturation boundaries, so
the solver works blockwise over the trapping-set decomposition:

* transient block and out-connected sinks: the equilibrium is unique, and
  ``_hunt.hunt_unique`` finds it by map steps plus one exact linear solve per
  repeated saturation pattern;
* stochastic sinks whose effective inflow sums to zero: the solution set is
  the segment {base + a*pi} clipped to the box, and both extremes are read
  off the segment bounds directly; a segment no longer than the zero-sum
  tolerance is the single point at its middle, and a line that misses the
  box is hunted like a nonzero sum;
* stochastic sinks with nonzero inflow sum: the equilibrium is unique and
  has a saturated node on the heavy side, so the hunt starts from that side.

Once the transient values are known the sinks are independent, so the sink
layer is one block-diagonal problem. The network's structure stacks the
trapping sets by size (``BlockStructure.groups``), and the solver works on
each size group as arrays: one pass (``_analyze``) solves the transient
part, forms the effective inflows (one vector indexed by node) and gives
each group its verdict arrays (``_verdicts``) with one stacked particular
solve; ``hunt_unique``
then hunts every unique set of a group at once, with one stacked pattern
solve per step and number of free nodes. Each set keeps its own start side,
gates, dead-band and solved patterns, and leaves the stack at the step where
it alone would have settled, so its answer is bit for bit the one it would
get alone; the transient part is a stack of one. ``classify``,
``equilibrium_set``, ``refine`` and the shock sweep read the same verdicts
(``SinkAnalysis`` objects are built from the arrays only for ``classify``
and ``equilibrium_set``), so a unique verdict always comes with
x_min == x_max. Where one set is needed (``refine``'s per-set solves and
projection, the block an error names) it is taken as a size group of one,
``BlockStructure.group_of``, and judged by the same ``_verdicts``.

Every tolerance is relative to the box scale s = max w, with no floor (``_tol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._hunt import hunt_unique, saturation_pattern, solve_patterns
from ._linear import pinned_particular, segment_bounds
from ._tol import TOUCH_REL, ZERO_SUM_REL, flow_tolerance, scale
from .decomposition import BlockStructure, SizeGroup, block_structure, diagonal_blocks
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
    return _map(net, as_flow(c, net.n), np.asarray(x, dtype=float))


def fixed_point_residual(net: Network, c, x) -> float:
    """Sup-norm distance between x and its image under the saturated map."""
    return _residual(net, as_flow(c, net.n), np.asarray(x, dtype=float))


def _map(net, c, x):
    """``fixed_point_map`` on a checked flow and a float array."""
    return np.minimum(np.maximum(net.P.T @ x + c, 0.0), net.w)


def _residual(net, c, x) -> float:
    """``fixed_point_residual`` on a checked flow and a float array."""
    return float(np.max(np.abs(_map(net, c, x) - x))) if net.n else 0.0


def _transient_state(net, c, opts, st: BlockStructure) -> np.ndarray:
    """Equilibrium values on the transient part (unique; empty array if none)."""
    T = st.transient
    if T.size == 0:
        return np.zeros(0)
    return hunt_unique(
        diagonal_blocks(net.P, T[None]), net.w[T][None], c[T][None], opts, np.zeros(1, dtype=bool),
        lambda i: _block_label(net, st, c, T[0]),
    )[0]


class SinkKind(str, Enum):
    OUT_CONNECTED = "out_connected"
    NONZERO_SUM = "stochastic_nonzero_sum"
    ZERO_SUM_UNIQUE = "stochastic_zero_sum_unique"
    ZERO_SUM_SEGMENT = "stochastic_zero_sum_segment"


#: The kind codes of the verdict arrays: ``_KINDS[code]``.
_KINDS = tuple(SinkKind)
_OUT, _NONZERO, _UNIQUE, _SEGMENT = range(len(_KINDS))


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


class _Verdicts(NamedTuple):
    """The verdicts on a stack of trapping sets of one size, one row per set.

    ``kind`` holds codes into ``_KINDS``. ``base``, ``condition`` and
    ``alpha`` (lo, hi) hold on zero-sum rows only. ``line`` (lo, hi) is the
    line-parameter interval on which a set's equilibria lie, on the rows
    marked ``has_line``; every other set has one equilibrium, which is
    hunted.
    """

    inflow: np.ndarray
    total: np.ndarray
    kind: np.ndarray
    base: np.ndarray
    condition: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray]
    line: tuple[np.ndarray, np.ndarray]
    has_line: np.ndarray


def _verdicts(P, group: SizeGroup, inflow) -> _Verdicts:
    """Verdicts on the sets of a size group at the node-indexed inflows ``inflow`` (n,).

    A stochastic set whose inflow sums to zero within tolerance has a
    solution line; it is a segment when longer than that tolerance, and
    otherwise counts as the single point at its middle, so a unique verdict
    always comes with one point. A line that misses the box (beyond
    rounding) is no line.
    """
    nodes, pi, w, stochastic = group.nodes, group.stationary, group.w, group.stochastic
    inflow = inflow[nodes]
    m = len(inflow)
    total = inflow.sum(axis=1)
    s = scale(w)
    tol = flow_tolerance(ZERO_SUM_REL, s, inflow)
    kind = stochastic.astype(np.int8)  # _NONZERO or _OUT until a zero sum shows
    base = np.zeros(inflow.shape)
    condition, lo, hi, line_lo, line_hi = np.full((5, m), np.nan)
    has_line = np.zeros(m, dtype=bool)
    zero = stochastic & (np.abs(total) <= tol)
    if np.count_nonzero(zero):
        base[zero] = pinned_particular(diagonal_blocks(P, nodes[zero]), inflow[zero])
        lo[zero], hi[zero] = segment_bounds(base[zero], pi[zero], w[zero])
        condition = hi - lo  # equals min(base/pi) + min((w-base)/pi)
        segment = zero & (condition > tol)
        unique = zero & ~segment
        kind[segment], kind[unique] = _SEGMENT, _UNIQUE
        line_lo[segment], line_hi[segment] = lo[segment], hi[segment]
        line_lo[unique] = line_hi[unique] = 0.5 * (lo[unique] + hi[unique])
        # a line that touches the box, or misses it by rounding only
        slack = np.maximum(np.abs(total[unique]), TOUCH_REL * s[unique])
        has_line[segment] = True
        has_line[unique] = condition[unique] >= -slack
    return _Verdicts(inflow, total, kind, base, condition, (lo, hi), (line_lo, line_hi), has_line)


class _Analysis(NamedTuple):
    """One pass over the blocks at a flow: transient values, then every size group."""

    structure: BlockStructure
    c: np.ndarray
    transient: np.ndarray
    inflow: np.ndarray  # node-indexed, BlockStructure.inflows
    groups: list[_Verdicts]  # one per structure.groups entry


def _analyze(net, c, opts) -> _Analysis:
    """Transient solve, effective inflows and every set's verdict; no hunts."""
    st = block_structure(net)
    c = as_flow(c, net.n)
    x_T = _transient_state(net, c, opts, st)
    inflow = st.inflows(c, x_T)
    return _Analysis(st, c, x_T, inflow, [_verdicts(net.P, g, inflow) for g in st.groups])


def _sink_analyses(found: _Analysis) -> list[SinkAnalysis]:
    """Every set's SinkAnalysis, in decomposition order, read off the verdict arrays."""
    sinks = found.structure.decomposition.sinks
    out = [None] * len(sinks)
    for g, v in zip(found.structure.groups, found.groups):
        condition, lo, hi = v.condition.tolist(), v.alpha[0].tolist(), v.alpha[1].tolist()
        for r, (l, code) in enumerate(zip(g.sets.tolist(), v.kind.tolist())):
            zero = code in (_UNIQUE, _SEGMENT)
            out[l] = SinkAnalysis(
                l, sinks[l].nodes, _KINDS[code],
                inflow=v.inflow[r],
                stationary=g.stationary[r] if code != _OUT else None,
                base=v.base[r] if zero else None,
                condition_value=condition[r] if zero else None,
                alpha_range=(lo[r], hi[r]) if code == _SEGMENT else None,
            )
    return out


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

    Sets with a line take its endpoints; every other set has one
    equilibrium, and each size group hunts those of its sets together, each
    from the heavy side of its inflow.
    """
    x_lo = np.zeros(net.n)
    x_hi = np.zeros(net.n)
    T = found.structure.transient
    x_lo[T] = found.transient
    x_hi[T] = found.transient
    slack = 0.0
    for g, v in zip(found.structure.groups, found.groups):
        line = v.has_line
        if np.count_nonzero(line):
            nodes, pi, w, base = g.nodes[line], g.stationary[line], g.w[line], v.base[line]
            x_lo[nodes] = np.clip(base + v.line[0][line, None] * pi, 0.0, w)
            x_hi[nodes] = np.clip(base + v.line[1][line, None] * pi, 0.0, w)
            slack = max(slack, float(np.abs(v.total[line]).max()))
        hunt = ~line
        if np.count_nonzero(hunt):
            nodes, from_top = g.nodes[hunt], g.stochastic[hunt] & (v.total[hunt] > 0)
            x_lo[nodes] = x_hi[nodes] = hunt_unique(
                diagonal_blocks(net.P, nodes), g.w[hunt], v.inflow[hunt], opts, from_top,
                lambda i: _block_label(net, found.structure, found.inflow, nodes[i, 0]),
            )
    gate = _residual_gate(net, opts, slack)
    results = []
    for x in (x_lo, x_hi):
        gaps = np.abs(_map(net, found.c, x) - x)
        res = float(np.max(gaps)) if net.n else 0.0
        if res > gate:
            raise NonConvergenceError(
                f"assembled equilibrium has residual {res:.3g} above tolerance {gate:.3g}",
                last_iterate=x,
                **_block_label(net, found.structure, found.inflow, np.argmax(gaps)),
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
    net: Network, c, opts: SolveOptions | None = None
) -> tuple[EquilibriumVector, EquilibriumVector]:
    """Minimal and maximal equilibria in one pass."""
    opts = opts or DEFAULT_OPTIONS
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
    any equilibrium may be passed in. Node i's dead-band is
    ``tol_class * w_i``: ties within it of the node's boundaries 0 and w_i
    are classified exposed. x must be an equilibrium to within ``tol_class``
    relative to the network's scale.
    """
    opts = opts or DEFAULT_OPTIONS
    c, x, _ = _checked_equilibrium(net, c, x, opts.tol_class)
    band = opts.tol_class * net.w
    pattern = saturation_pattern(net.P.T @ x - np.diag(net.P) * x + c, net.w + band, -band)
    masks = (pattern > 0, pattern == 0, pattern < 0)
    return NodePartition(*(tuple(int(i) for i in np.nonzero(m)[0]) for m in masks))


def _block_label(net, st: BlockStructure, inflow, i) -> dict:
    """Index, kind and nodes of the block that holds node i, at node inflows ``inflow``."""
    l = int(st.set_of[i])
    if l < 0:
        return {"block": None, "kind": "transient", "nodes": st.transient}
    group = st.group_of(l)
    return {"block": l, "kind": _KINDS[_verdicts(net.P, group, inflow).kind[0]], "nodes": group.nodes[0]}


def _refine_block(net, st: BlockStructure, nodes, inflow, pattern):
    """``solve_patterns`` on the block ``nodes`` (a stack of one) at node inflows ``inflow``.

    ``refine`` has no fallback if the block is singular.
    """
    x, ok = solve_patterns(diagonal_blocks(net.P, nodes), net.w[nodes], inflow[nodes], pattern[nodes])
    if not ok[0]:
        raise PartitionInconsistencyError(
            "exposed block is singular outside the whole-trapping-set case",
            **_block_label(net, st, inflow, nodes[0, 0]),
        )
    return x[0]


def refine(net: Network, c, x, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Polish an approximate equilibrium by exact solves on the exposed block.

    Nodes are judged on their whole inflow P'x + c, as in the hunt, each with
    the dead-band ``tol_class * w_i`` of ``node_partition``, except that a
    node already on a bound (x_i <= 0 or x_i >= w_i) whose inflow lies
    beyond that bound is pinned there even inside its dead-band. Saturated nodes
    are pinned to w or 0 and the exposed nodes are re-solved exactly, one
    block at a time: the transient part first, then each trapping set at its
    effective inflow, in decomposition order. If a stochastic trapping set
    is entirely exposed its linear system is singular (the solution set is a
    line); the input is then projected to the nearest line point inside the
    box, which the analysis of that set gives. Raises
    PartitionInconsistencyError, naming the block at fault (for the final
    check, the block of the node with the largest residual), when the result
    does not reproduce itself under the map, which signals that the input
    was too far from an equilibrium for the classification tolerance.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise InputError(f"x has shape {x.shape}, expected ({net.n},)")

    # a node already on a bound has no dead-band on that side: an inflow
    # beyond the bound pins it there
    band = opts.tol_class * net.w
    above, below = np.where(x >= net.w, net.w, net.w + band), np.where(x <= 0.0, 0.0, -band)
    pattern = saturation_pattern(net.P.T @ x + c, above, below)
    st = block_structure(net)
    T = st.transient
    known = np.where(pattern > 0, net.w, 0.0)
    known[T] = _refine_block(net, st, T[None], c, pattern)
    inflow = st.inflows(c, known[T])
    slack = 0.0
    for l in range(len(st.decomposition.sinks)):
        group = st.group_of(l)
        S = group.nodes[0]
        if pattern[S].all():
            continue  # every node saturated: already pinned
        if not group.stochastic[0] or pattern[S].any():
            known[S] = _refine_block(net, st, group.nodes, inflow, pattern)
            continue
        # a wholly exposed stochastic set is singular: project x onto its line
        v = _verdicts(net.P, group, inflow)
        total = float(v.total[0])
        if v.kind[0] == _NONZERO:
            raise PartitionInconsistencyError(
                "whole stochastic trapping set classified exposed but its inflow "
                f"sum {total:.3g} is nonzero; no unsaturated solution exists",
                **_block_label(net, st, inflow, S[0]),
            )
        if not v.has_line[0]:
            raise PartitionInconsistencyError(
                "solution line of an exposed trapping set misses the box",
                **_block_label(net, st, inflow, S[0]),
            )
        pi, base = group.stationary[0], v.base[0]
        a_hat = float(pi @ (x[S] - base) / (pi @ pi))
        a_hat = min(max(a_hat, v.line[0][0]), v.line[1][0])
        known[S] = np.clip(base + a_hat * pi, 0.0, net.w[S])
        slack = max(slack, abs(total))

    gaps = np.abs(fixed_point_map(net, c, known) - known)
    res = float(np.max(gaps))
    if res > _residual_gate(net, opts, slack):
        raise PartitionInconsistencyError(
            f"refined point has residual {res:.3g}; classification tolerance too loose for this input",
            candidate=known,
            residual=res,
            **_block_label(net, st, inflow, np.argmax(gaps)),
        )
    return EquilibriumVector(known, res)
