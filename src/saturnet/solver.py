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
each size group as arrays, at a stack of F flows at once (one flow for
``solve`` and its kin, a chunk of grid points for the shock sweep): one
pass (``_analyze``) hunts the transient part at every flow (one stack whose
rows share the transient block), forms the effective inflows (one vector
per flow, indexed by node) and gives each group its verdict arrays
(``_verdicts``), F·m rows for its m sets, with one stacked particular
solve; ``hunt_unique``
then hunts every unique set of a group at every flow at once, with one
stacked pattern solve per step and number of free nodes. Each row keeps its
own start side, gates, dead-band and solved patterns, and leaves the stack
at the step where it alone would have settled, so its answer is bit for bit
the one it would get alone; a single flow is a stack of one. ``classify``,
``equilibrium_set``, ``refine`` and the shock sweep read the same verdicts
(``SinkAnalysis`` objects are built from the arrays only for ``classify``
and ``equilibrium_set``), so a unique verdict always comes with
x_min == x_max. Every reader walks the size groups, ``refine`` too: one
stacked pattern solve per group, and one projection for its wholly exposed
stochastic sets. Only the block an error names is read as one row of its
group, by the same ``_verdicts``.

Every tolerance is relative to the box scale s = max w, with no floor (``_tol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from ._hunt import hunt_unique, saturation_pattern, solve_patterns
from ._linear import pinned_particular, segment_bounds, transposed_matvec
from ._tol import TOUCH_REL, ZERO_SUM_REL, flow_tolerance, scale
from .decomposition import BlockStructure, SizeGroup, block_structure, diagonal_blocks
from .errors import InputError, NonConvergenceError, PartitionInconsistencyError
from .model import EquilibriumVector, Network, _as_vector, as_flow, as_point, require_valid


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
    return _map(net, as_flow(c, net.n), as_point(x, net.n))


def fixed_point_residual(net: Network, c, x) -> float:
    """Sup-norm distance between x and its image under the saturated map."""
    return _residual(net, as_flow(c, net.n), as_point(x, net.n))


def _map(net, c, x):
    """``fixed_point_map`` on a checked flow and a float array."""
    return np.minimum(np.maximum(net.P.T @ x + c, 0.0), net.w)


def _residual(net, c, x) -> float:
    """``fixed_point_residual`` on a checked flow and a float array."""
    return float(np.max(np.abs(_map(net, c, x) - x))) if net.n else 0.0


def _transient_states(net, st: BlockStructure, c, opts, at=None) -> np.ndarray:
    """Equilibrium values on the transient part (unique) at each flow of ``c`` (F, n); (F, k_T).

    One hunt, whose rows share the transient block. ``at(f)`` names flow f
    in an error.
    """
    T, F = st.transient, len(c)
    if T.size == 0:
        return np.zeros((F, 0))
    return hunt_unique(
        diagonal_blocks(net.P, T[None]), np.broadcast_to(net.w[T], (F, T.size)), c[:, T], opts,
        np.zeros(F, dtype=bool), lambda f: _block_label(net, st, None, T[0], at and at(f)),
    )


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
    """Verdicts on the rows of a size group at their inflows ``inflow`` (m, k), row r on ``group.nodes[r]``.

    A stochastic set whose inflow sums to zero within tolerance has a
    solution line; it is a segment when longer than that tolerance, and
    otherwise counts as the single point at its middle, so a unique verdict
    always comes with one point. A line that misses the box (beyond
    rounding) is no line.
    """
    nodes, pi, w, stochastic = group.nodes, group.stationary, group.w, group.stochastic
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
    """One pass over the blocks at F flows: transient values, then every size group.

    ``stacks`` holds each size group repeated once per flow, so that row
    f·m + r of a stack, and of its verdicts in ``groups``, is set r of the
    group at flow f.
    """

    structure: BlockStructure
    c: np.ndarray  # (F, n)
    transient: np.ndarray  # (F, k_T)
    inflow: np.ndarray  # (F, n), node-indexed, BlockStructure.inflows
    stacks: list[SizeGroup]  # one per structure.groups entry
    groups: list[_Verdicts]
    at: Callable[[int], str] | None  # names flow f in an error


def _repeat(group: SizeGroup, F: int) -> SizeGroup:
    """The size group stacked F times, once per flow."""
    return group if F == 1 else SizeGroup(*(np.tile(a, (F,) + (1,) * (a.ndim - 1)) for a in group))


def _analyze(net, c, opts, at=None) -> _Analysis:
    """Transient solve, effective inflows and every set's verdict at each checked flow of ``c`` (F, n).

    No set is hunted. ``at(f)`` names flow f in an error.
    """
    st = block_structure(net)
    x_T = _transient_states(net, st, c, opts, at)
    inflow = st.inflows(c, x_T)
    stacks = [_repeat(g, len(c)) for g in st.groups]
    groups = [
        _verdicts(net.P, s, inflow[:, g.nodes].reshape(s.nodes.shape)) for g, s in zip(st.groups, stacks)
    ]
    return _Analysis(st, c, x_T, inflow, stacks, groups, at)


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
    passed in as ``slack`` (one per flow, or one); allow headroom over it
    for the solve and clip fuzz.
    """
    return np.maximum(opts.tol_fp * scale(net.w), 8.0 * slack)


def _assemble_extremes(net, found: _Analysis, opts):
    """Minimal and maximal equilibria at every flow of an analysis, residual-checked.

    Returns ``x`` (2, F, n), the minimal equilibria ``x[0]`` and the maximal
    ones ``x[1]``, and their residuals (2, F). Sets with a line take its
    endpoints; every other set has one equilibrium, and each size group
    hunts those of its sets at every flow together, each from the heavy
    side of its inflow. An error names the first flow at fault, the
    minimal side first.
    """
    st, c, at = found.structure, found.c, found.at
    F, n = c.shape
    x = np.zeros((2, F, n))
    x[:, :, st.transient] = found.transient
    slack = np.zeros(F)
    for g, v in zip(found.stacks, found.groups):
        flow = np.repeat(np.arange(F), len(g.sets) // F)  # the flow of each row
        line = v.has_line
        if np.count_nonzero(line):
            nodes, pi, w, base = g.nodes[line], g.stationary[line], g.w[line], v.base[line]
            f = flow[line, None]
            x[0, f, nodes] = np.clip(base + v.line[0][line, None] * pi, 0.0, w)
            x[1, f, nodes] = np.clip(base + v.line[1][line, None] * pi, 0.0, w)
            np.maximum(slack, np.where(line, np.abs(v.total), 0.0).reshape(F, -1).max(axis=1), out=slack)
        hunt = ~line
        if np.count_nonzero(hunt):
            nodes, f, from_top = g.nodes[hunt], flow[hunt], g.stochastic[hunt] & (v.total[hunt] > 0)
            x[:, f[:, None], nodes] = hunt_unique(
                diagonal_blocks(net.P, nodes), g.w[hunt], v.inflow[hunt], opts, from_top,
                lambda i: _block_label(net, st, found.inflow[f[i]], nodes[i, 0], at and at(f[i])),
            )
    gate = _residual_gate(net, opts, slack)
    y = transposed_matvec(net.P[None], x.reshape(2 * F, n)).reshape(x.shape) + c
    gaps = np.abs(np.minimum(np.maximum(y, 0.0), net.w) - x)
    res = gaps.max(axis=2)
    bad = res > gate
    if np.count_nonzero(bad):
        f = int(np.flatnonzero(bad.any(axis=0))[0])
        side = 0 if bad[0, f] else 1
        raise NonConvergenceError(
            f"assembled equilibrium has residual {res[side, f]:.3g} above tolerance {gate[f]:.3g}",
            last_iterate=x[side, f],
            **_block_label(net, st, found.inflow[f], np.argmax(gaps[side, f]), at and at(f)),
        )
    return x, res


def _extremes(net, c, opts):
    """Minimal and maximal equilibria, assembled blockwise: the stack of one flow."""
    x, res = _assemble_extremes(net, _analyze(net, as_flow(c, net.n)[None], opts), opts)
    return EquilibriumVector(x[0, 0], res[0, 0]), EquilibriumVector(x[1, 0], res[1, 0])


# ----------------------------- public operations -----------------------------


def iterate(net: Network, c, x0, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Run the saturated iteration from x0 until successive iterates settle.

    Raises NonConvergenceError (carrying the last iterate) if the budget runs
    out first.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    x0 = _as_vector(x0, "x0", net.n)
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
    res = _residual(net, c, x)
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
    x = as_point(x, net.n)
    tol *= scale(net.w)
    res = _residual(net, c, x)
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


def _block_label(net, st: BlockStructure, inflow, i, at=None) -> dict:
    """Index, kind and nodes of the block that holds node i at node inflows ``inflow`` (n,).

    ``at`` names the flow, when one of many was solved.
    """
    l = int(st.set_of[i])
    if l < 0:
        return {"block": None, "kind": "transient", "nodes": st.transient, "at": at}
    g, r = st.place[l]
    row = SizeGroup(*(a[r : r + 1] for a in st.groups[g]))
    kind = _KINDS[_verdicts(net.P, row, inflow[row.nodes]).kind[0]]
    return {"block": l, "kind": kind, "nodes": row.nodes[0], "at": at}


_SINGULAR = "exposed block is singular outside the whole-trapping-set case"


def refine(net: Network, c, x, opts: SolveOptions | None = None) -> EquilibriumVector:
    """Polish an approximate equilibrium by exact solves on the exposed block.

    Nodes are judged on their whole inflow P'x + c, as in the hunt, each with
    the dead-band ``tol_class * w_i`` of ``node_partition``, except that a
    node already on a bound (x_i <= 0 or x_i >= w_i) whose inflow lies
    beyond that bound is pinned there even inside its dead-band. Saturated nodes
    are pinned to w or 0 and the exposed nodes are re-solved exactly: the
    transient part first, then every trapping set at its effective inflow,
    one stacked solve per size group. If a stochastic trapping set
    is entirely exposed its linear system is singular (the solution set is a
    line); the input is then projected to the nearest line point inside the
    box, which the analysis of that set gives. Raises
    PartitionInconsistencyError, naming the block at fault (the trapping set
    of lowest index, if several are; for the final check, the block of the
    node with the largest residual), when the result does not reproduce
    itself under the map, which signals that the input was too far from an
    equilibrium for the classification tolerance.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    x = as_point(x, net.n)

    # a node already on a bound has no dead-band on that side: an inflow
    # beyond the bound pins it there
    band = opts.tol_class * net.w
    above, below = np.where(x >= net.w, net.w, net.w + band), np.where(x <= 0.0, 0.0, -band)
    pattern = saturation_pattern(net.P.T @ x + c, above, below)
    st = block_structure(net)
    T = st.transient
    known = np.where(pattern > 0, net.w, 0.0)
    x_T, ok = solve_patterns(diagonal_blocks(net.P, T[None]), net.w[T][None], c[T][None], pattern[T][None])
    if not ok[0]:
        raise PartitionInconsistencyError(_SINGULAR, **_block_label(net, st, c, T[0]))
    known[T] = x_T[0]
    inflow = st.inflows(c[None], x_T)[0]
    faults, slack = [], 0.0  # (set, message) of every set at fault
    for g in st.groups:
        free = pattern[g.nodes] == 0
        line = g.stochastic & free.all(axis=1)  # wholly exposed stochastic sets: singular
        solve = free.any(axis=1) & ~line
        if np.count_nonzero(solve):
            nodes = g.nodes[solve]
            known[nodes], ok = solve_patterns(
                diagonal_blocks(net.P, nodes), g.w[solve], inflow[nodes], pattern[nodes]
            )
            faults += [(l, _SINGULAR) for l in g.sets[solve][~ok].tolist()]
        if np.count_nonzero(line):
            # project x onto each set's solution line
            sets = SizeGroup(*(a[line] for a in g))
            v = _verdicts(net.P, sets, inflow[sets.nodes])
            nonzero = v.kind == _NONZERO
            faults += [
                (l, "whole stochastic trapping set classified exposed but its inflow "
                 f"sum {total:.3g} is nonzero; no unsaturated solution exists")
                for l, total in zip(sets.sets[nonzero].tolist(), v.total[nonzero].tolist())
            ]
            faults += [
                (l, "solution line of an exposed trapping set misses the box")
                for l in sets.sets[~nonzero & ~v.has_line].tolist()
            ]
            pi, base = sets.stationary, v.base
            d = x[sets.nodes] - base
            a_hat = (pi[:, None, :] @ d[:, :, None])[:, 0, 0] / (pi[:, None, :] @ pi[:, :, None])[:, 0, 0]
            a_hat = np.minimum(np.maximum(a_hat, v.line[0]), v.line[1])
            known[sets.nodes] = np.clip(base + a_hat[:, None] * pi, 0.0, sets.w)
            slack = max(slack, float(np.abs(v.total).max()))
    if faults:
        l, message = min(faults)
        raise PartitionInconsistencyError(
            message, **_block_label(net, st, inflow, st.decomposition.sinks[l].nodes[0])
        )

    gaps = np.abs(_map(net, c, known) - known)
    res = float(np.max(gaps))
    if res > _residual_gate(net, opts, slack):
        raise PartitionInconsistencyError(
            f"refined point has residual {res:.3g}; classification tolerance too loose for this input",
            candidate=known,
            residual=res,
            **_block_label(net, st, inflow, np.argmax(gaps)),
        )
    return EquilibriumVector(known, res)
