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
(``_verdicts``), of shape (F, m) for its m sets, with one stacked
particular solve; ``hunt_unique``
then hunts every unique set of a group at every flow at once, with one
stacked pattern solve per step and number of free nodes. Each row keeps its
own start side, gates, dead-band and solved patterns, and leaves the stack
at the step where it alone would have settled, so its answer is bit for bit
the one it would get alone; a single flow is a stack of one. ``classify``,
``equilibrium_set``, ``loss_jump``, ``refine`` and the shock sweep read the
same verdicts (uniqueness by ``_is_unique``; a set's ``SinkAnalysis`` is
built only when it is read), so a unique verdict always comes with x_min ==
x_max, and every reported extreme, set end and jump comes from
``_assemble_extremes``.
Every reader walks the size groups, ``refine`` too: the hunt's stacks per
group (``_hunt_stacks``), and one projection for its wholly exposed
stochastic sets. Only the block an error names is read as one row of its
group, by the same ``_verdicts``.

``_solve`` is the one place a single flow is solved: ``extremal_equilibria``,
``classify``, ``equilibrium_set`` and ``loss_jump`` all go through it, and it
keeps the last analysis and extremes on the Network (one slot, keyed by the
exact flow bytes and the options, every array in it read-only), so that
analysing one flow with several calls costs one solve. The shock sweep and
``refine`` solve their own stacks and do not touch the slot.

Every hunt, and every pattern solve of ``refine``, takes a block operator of
``_linear`` without asking how it is stored, and only ``_hunt_stacks`` and
``_transient_block`` choose it. A block with an edge list
(``BlockStructure.edges``: the transient part or a trapping set that is
large and sparse by ``_linear._is_sparse``) is its ``EdgeBlock``, solved as
a stack of its own rows; other blocks are ``DenseBlock`` stacks. Either way
the assembled extremes pass the same residual check, ``P'x + c`` against x,
on the whole network, with every entry of P. Its product ``P'x``
(``_routed_in``), like that of the effective inflows (``_inflows``),
``fixed_point_map``, ``node_partition`` and ``refine``, is the network's own
operator (``network_block``), chosen at construction by the same predicate
and read from P alone, not from the hunt's relabelled block lists, so the
check stays independent of the hunt.

Every tolerance is relative to the box scale s = max w, with no floor (``_tol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from ._hunt import hunt_unique, saturation_pattern
from ._linear import DenseBlock, diagonal_blocks, pinned_particular, segment_bounds
from ._tol import TOUCH_REL, ZERO_SUM_REL, flow_tolerance, hunt_gate, scale
from .decomposition import BlockStructure, SizeGroup, block_structure, network_block
from .errors import InputError, NonConvergenceError, PartitionInconsistencyError
from .model import EquilibriumVector, Network, _as_int, _as_number, _as_vector, _readonly, as_flow, as_point, require_valid


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and budget for the fixed-point solvers.

    ``tol_fp`` is the sup-norm residual/convergence tolerance, ``tol_class``
    the dead-band used when classifying nodes against the saturation
    boundaries (ties go to the interior class, whose exact linear solve then
    settles the value). Both are relative to s = max w of the block or
    network checked, with no floor, and ``0 < tol_fp <= tol_class < inf``.
    """

    tol_fp: float = 1e-12
    max_iter: int = 10**6
    tol_class: float = 1e-9

    def __post_init__(self):
        _as_number(self.tol_fp, "tol_fp"), _as_number(self.tol_class, "tol_class")
        if not self.tol_fp > 0:
            raise InputError("tol_fp must be positive")
        _as_int(self.max_iter, "max_iter")  # a float would fail only once a hunt runs
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if not self.tol_class >= self.tol_fp:  # NaN included
            raise InputError("tol_class must be >= tol_fp")
        if not math.isfinite(self.tol_class):  # an infinite gate passes any residual
            raise InputError("tol_class must be finite")


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


def _routed_in(net, x) -> np.ndarray:
    """P'x, what the values x route into every node, for a point x (n,) or every row of a stack (F, n).

    The network's operator (``network_block``) on the stack; a point is a
    stack of one.
    """
    return network_block(net).matvec(np.atleast_2d(x)).reshape(x.shape)


def _inflows(net, st: BlockStructure, c, x_T) -> np.ndarray:
    """Effective inflow of every node at each of F flows, indexed by node (F, n).

    ``c + P'x``, where x holds the transient values ``x_T`` (F, k_T) on the
    transient nodes and 0 on every set node: each set node's exogenous flow
    plus what the transient part routes into it. The product is taken on
    the network's own operator (``network_block``), as in ``_routed_in``,
    so no part of P is kept for it; a network with no transient node takes
    none and gets ``c`` itself. A set's share at flow f is
    ``_inflows(...)[f, nodes]`` for its node ids.
    """
    if st.transient.size == 0:
        return c
    x = np.zeros(c.shape)
    x[:, st.transient] = x_T
    return network_block(net).matvec(x) + c


def _map(net, c, x, routed=None):
    """``fixed_point_map`` on a checked flow and a float array, whose ``P'x`` is ``routed`` when given."""
    return np.minimum(np.maximum((_routed_in(net, x) if routed is None else routed) + c, 0.0), net.w)


def _residual(net, c, x) -> float:
    """``fixed_point_residual`` on a checked flow and a float array."""
    return float(np.max(np.abs(_map(net, c, x) - x)))


def _hunt_stacks(net, st: BlockStructure, group: SizeGroup, hunt):
    """The rows marked ``hunt`` (F, m) of a size group, split into the stacks that are solved together (hunt or ``refine``).

    Yields (f, r, operator), the flows and sets of a stack's rows in row-major
    order: the rows of a set with an EdgeBlock, which they share, in set order;
    then, gathered only when reached, one DenseBlock stack of the sets without one.
    """
    rest = hunt.copy()
    for l in sorted(st.edges.keys() & set(group.sets[hunt.any(axis=0)].tolist())) if st.edges else ():
        rows = hunt & (group.sets == l)
        rest &= ~rows
        yield *np.nonzero(rows), st.edges[l]
    if np.count_nonzero(rest):
        f, r = np.nonzero(rest)
        yield f, r, DenseBlock(diagonal_blocks(net.P, group.nodes[r]))


def _transient_block(net, st: BlockStructure):
    """The transient part's operator: its EdgeBlock when it has one, else its DenseBlock."""
    return st.edges.get(-1) or DenseBlock(diagonal_blocks(net.P, st.transient[None]))


def _transient_states(net, st: BlockStructure, c, opts, at=None) -> np.ndarray:
    """Equilibrium values on the transient part (unique) at each flow of ``c`` (F, n); (F, k_T).

    One hunt, whose rows share the transient block. ``at(f)`` names flow f
    in an error.
    """
    T, F = st.transient, len(c)
    if T.size == 0:
        return np.zeros((F, 0))
    return hunt_unique(
        _transient_block(net, st),
        np.broadcast_to(net.w[T], (F, T.size)), c[:, T], opts, np.zeros(F, dtype=bool),
        lambda f: _block_label(net, st, None, T[0], at and at(f)),
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
    """The verdicts on the trapping sets of one size at F flows, (F, m) each, or (m,) at one inflow per set.

    ``inflow`` and ``base`` add an axis of the k nodes. ``kind`` holds codes
    into ``_KINDS``. ``base`` and ``condition`` hold on zero-sum rows only.
    [``lo``, ``hi``] is the line-parameter interval on which a set's
    equilibria lie, on the rows marked ``has_line`` (on a segment row, the
    segment's own bounds); every other set has one equilibrium, which is hunted.
    """

    inflow: np.ndarray
    total: np.ndarray
    kind: np.ndarray
    base: np.ndarray
    condition: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    has_line: np.ndarray


def _verdicts(P, group: SizeGroup, inflow) -> _Verdicts:
    """Verdicts on the sets of a size group at their inflows ``inflow`` (m, k), or (F, m, k) at F flows.

    Set r lies on ``group.nodes[r]``. A stochastic set whose inflow sums to
    zero within tolerance has a solution line; it is a segment when longer
    than that tolerance, and otherwise counts as the single point at its
    middle, so a unique verdict always comes with one point. A line that
    misses the box (beyond rounding) is no line.
    """
    nodes, pi, w, stochastic = group.nodes, group.stationary, group.w, group.stochastic
    total = inflow.sum(axis=-1)
    s = np.broadcast_to(scale(w), total.shape)
    tol = flow_tolerance(ZERO_SUM_REL, s, inflow)
    kind = np.broadcast_to(stochastic, total.shape).astype(np.int8)  # _NONZERO or _OUT until a zero sum shows
    base = np.zeros(inflow.shape)
    condition, lo, hi, line_lo, line_hi = np.full((5,) + total.shape, np.nan)
    has_line = np.zeros(total.shape, dtype=bool)
    zero = stochastic & (np.abs(total) <= tol)
    if np.count_nonzero(zero):
        r = np.nonzero(zero)[-1]  # the set of each zero-sum row
        base[zero] = pinned_particular(diagonal_blocks(P, nodes[r]), inflow[zero])
        lo[zero], hi[zero] = segment_bounds(base[zero], pi[r], w[r])
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
    return _Verdicts(inflow, total, kind, base, condition, line_lo, line_hi, has_line)


class _Analysis(NamedTuple):
    """One pass over the blocks at F flows: transient values, then every size group.

    The verdicts in ``groups`` are (F, m) arrays over the untiled size
    groups of ``structure``: entry [f, r] is set r of the group at flow f.
    """

    structure: BlockStructure
    c: np.ndarray  # (F, n)
    transient: np.ndarray  # (F, k_T)
    inflow: np.ndarray  # (F, n), node-indexed, _inflows
    groups: list[_Verdicts]  # one per structure.groups entry
    at: Callable[[int], str] | None  # names flow f in an error


def _take_flows(found: _Analysis, keep: np.ndarray) -> _Analysis:
    """The analysis at the flows ``keep`` (indices) only, each row as it was."""
    groups = [_Verdicts(*(a[keep] for a in v)) for v in found.groups]
    at = found.at and (lambda f: found.at(keep[f]))
    return _Analysis(found.structure, found.c[keep], found.transient[keep], found.inflow[keep], groups, at)


def _analyze(net, c, opts, at=None) -> _Analysis:
    """Transient solve, effective inflows and every set's verdict at each checked flow of ``c`` (F, n).

    No set is hunted. ``at(f)`` names flow f in an error.
    """
    st = block_structure(net)
    x_T = _transient_states(net, st, c, opts, at)
    inflow = _inflows(net, st, c, x_T)
    # take gathers in C order (``inflow[:, nodes]`` puts the flows last), so each set sums as it does alone
    groups = [_verdicts(net.P, g, inflow.take(g.nodes, axis=1)) for g in st.groups]
    return _Analysis(st, c, x_T, inflow, groups, at)


def _analyses(groups: tuple[SizeGroup, ...], verdicts: tuple[_Verdicts, ...], g: int, r: np.ndarray):
    """The SinkAnalyses on rows r of size group g, read off its verdict arrays at flow 0."""
    group, v = groups[g], verdicts[g]
    rows = zip(
        group.sets[r].tolist(), group.nodes[r].tolist(), v.kind[0, r].tolist(),
        *map(_readonly, (v.inflow[0, r], group.stationary[r], v.base[0, r])),
        v.condition[0, r].tolist(), v.lo[0, r].tolist(), v.hi[0, r].tolist(),
    )
    for l, nodes, code, inflow, stationary, base, condition, lo, hi in rows:
        zero = code in (_UNIQUE, _SEGMENT)
        yield SinkAnalysis(  # by position: keywords cost a third more
            l, tuple(nodes), _KINDS[code], inflow, stationary if code != _OUT else None, base if zero else None,
            condition if zero else None, (lo, hi) if code == _SEGMENT else None,
        )


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
    side of its inflow; a set hunted on its edge list is a stack of its
    own. An error names the first flow at fault; at that flow a failed
    hunt names its lowest set, and the residual check the minimal side.
    """
    st, c, at = found.structure, found.c, found.at
    F, n = c.shape
    x = np.zeros((2, F, n))
    x[:, :, st.transient] = found.transient
    slack = np.zeros(F)
    failed = []  # (flow, set, error) of every stack whose hunt fails
    for g, v in zip(st.groups, found.groups):
        line = v.has_line
        if np.count_nonzero(line):
            f, r = np.nonzero(line)
            nodes, pi, w, base = g.nodes[r], g.stationary[r], g.w[r], v.base[line]
            x[0, f[:, None], nodes] = np.clip(base + v.lo[line][:, None] * pi, 0.0, w)
            x[1, f[:, None], nodes] = np.clip(base + v.hi[line][:, None] * pi, 0.0, w)
            np.maximum(slack, np.where(line, np.abs(v.total), 0.0).max(axis=1), out=slack)
        for f, r, Q in _hunt_stacks(net, st, g, ~line):
            nodes, from_top = g.nodes[r], g.stochastic[r] & (v.total[f, r] > 0)
            named = []  # the row the hunt's error names

            def label(i):
                named.append(i)
                return _block_label(net, st, found.inflow[f[i]], nodes[i, 0], at and at(f[i]))

            try:
                x[:, f[:, None], nodes] = hunt_unique(Q, g.w[r], v.inflow[f, r], opts, from_top, label)
            except NonConvergenceError as err:
                failed.append((int(f[named[0]]), err.block, err))
    if failed:  # the first flow at fault, and its lowest set, over every size group
        raise min(failed, key=lambda fault: fault[:2])[2]
    gate = _residual_gate(net, opts, slack)
    y = _routed_in(net, x.reshape(2 * F, n)).reshape(x.shape) + c
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


def _freeze(*arrays) -> None:
    """Make every array of ``arrays``, and of the tuples and named tuples among them, read-only."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
        elif isinstance(a, (tuple, list)):
            _freeze(*a)


def _solve(net, c, opts, assemble=True):
    """The analysis of one flow and, with ``assemble``, its extremes ``(x, res)``: the one place a single flow is solved.

    The last solve is kept on the Network as one slot, keyed by the exact
    bytes of the checked flow and by ``opts``, so that analysing one flow
    with several calls costs one solve. The slot is replaced as a whole, so
    concurrent calls with other flows only ever miss it, and every array it
    holds is read-only, so no view handed out can change a later result. A
    solve that raises keeps nothing. Without ``assemble`` the extremes are
    returned only if the slot holds them, else None.
    """
    c = as_flow(c, net.n)
    key = (c.tobytes(), opts)
    slot = net.__dict__.get("_last_solve")
    if slot is None or slot[0] != key:
        found = _analyze(net, c.copy()[None], opts)  # a copy: the caller may change c later
        _freeze(found)
        slot = (key, found, None)
    if assemble and slot[2] is None:
        extremes = _assemble_extremes(net, slot[1], opts)
        _freeze(extremes)
        slot = (key, slot[1], extremes)
    net.__dict__["_last_solve"] = slot
    return slot[1:]


def _is_unique(found: _Analysis) -> bool:
    """Whether the equilibrium of an analysis is unique: no row of any group has kind ``_SEGMENT``."""
    return not any(np.any(v.kind == _SEGMENT) for v in found.groups)


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
        step = float(np.max(np.abs(xn - x)))
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
    return extremal_equilibria(net, c, opts)[0]


def maximal_equilibrium(net: Network, c, opts: SolveOptions | None = None) -> EquilibriumVector:
    """The entrywise-largest equilibrium."""
    return extremal_equilibria(net, c, opts)[1]


def extremal_equilibria(
    net: Network, c, opts: SolveOptions | None = None
) -> tuple[EquilibriumVector, EquilibriumVector]:
    """Minimal and maximal equilibria in one pass, assembled blockwise: the stack of one flow."""
    opts = opts or DEFAULT_OPTIONS
    _, (x, res) = _solve(net, c, opts)
    return EquilibriumVector(x[0, 0], res[0, 0]), EquilibriumVector(x[1, 0], res[1, 0])


def _checked_equilibrium(net, c, x, tol):
    """``(c, x, P'x, image)``: c and x as arrays, what x routes into each node and x's image under the map.

    x must be an equilibrium to within ``tol`` relative to s; its residual
    is read off the same ``P'x`` that is returned.
    """
    require_valid(net)
    c = as_flow(c, net.n)
    x = as_point(x, net.n)
    tol *= scale(net.w)
    routed = _routed_in(net, x)
    image = _map(net, c, x, routed)
    res = float(np.max(np.abs(image - x)))
    if res > tol:
        raise InputError(f"x is not an equilibrium (residual {res:.3g} > {tol:.3g})")
    return c, x, routed, image


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
    c, x, routed, _ = _checked_equilibrium(net, c, x, opts.tol_class)
    band = opts.tol_class * net.w
    pattern = saturation_pattern(routed - np.diag(net.P) * x + c, net.w + band, -band)
    masks = (pattern > 0, pattern == 0, pattern < 0)
    return NodePartition(*(tuple(np.flatnonzero(m).tolist()) for m in masks))


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
    """Polish an approximate equilibrium by pattern solves on the exposed block.

    Nodes are judged on their whole inflow P'x + c, as in the hunt, each with
    the dead-band ``tol_class * w_i`` of ``node_partition``, except that a
    node already on a bound (x_i <= 0 or x_i >= w_i) whose inflow lies beyond
    that bound is pinned there even inside its dead-band. Saturated nodes are
    pinned to w or 0 and the exposed nodes re-solved on the hunt's operators
    (a listed block by Neumann steps from x, to the hunt's gate): the
    transient part first, then every trapping set at its effective inflow. If
    a stochastic trapping set is entirely exposed its linear system is
    singular (the solution set is a line); the input is then projected to the
    nearest line point inside the box, which the analysis of that set gives.
    Raises PartitionInconsistencyError, naming the block at fault (the
    trapping set of lowest index, if several are; for the final check, the
    block of the node with the largest residual), when the result does not
    reproduce itself under the map, which signals that the input was too far
    from an equilibrium for the classification tolerance.
    """
    opts = opts or DEFAULT_OPTIONS
    require_valid(net)
    c = as_flow(c, net.n)
    x = as_point(x, net.n)

    # a node already on a bound has no dead-band on that side: an inflow
    # beyond the bound pins it there
    band = opts.tol_class * net.w
    above, below = np.where(x >= net.w, net.w, net.w + band), np.where(x <= 0.0, 0.0, -band)
    pattern = saturation_pattern(_routed_in(net, x) + c, above, below)
    st = block_structure(net)
    T = st.transient
    known = np.where(pattern > 0, net.w, 0.0)
    x_T, ok = _transient_block(net, st).solve_patterns(
        net.w[T][None], c[T][None], pattern[T][None], hunt_gate(opts.tol_fp, scale(net.w[T][None])), x[T][None]
    )
    if not ok[0]:
        raise PartitionInconsistencyError(_SINGULAR, **_block_label(net, st, c, T[0]))
    known[T] = x_T[0]
    inflow = _inflows(net, st, c[None], x_T)[0]
    faults, slack = [], 0.0  # (set, message) of every set at fault
    for g in st.groups:
        free = pattern[g.nodes] == 0
        line = g.stochastic & free.all(axis=1)  # wholly exposed stochastic sets: singular
        for _, r, Q in _hunt_stacks(net, st, g, (free.any(axis=1) & ~line)[None]):
            nodes, w = g.nodes[r], g.w[r]
            gate = hunt_gate(opts.tol_fp, scale(w))
            known[nodes], ok = Q.solve_patterns(w, inflow[nodes], pattern[nodes], gate, x[nodes])
            faults += [(l, _SINGULAR) for l in g.sets[r][~ok].tolist()]
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
            a_hat = np.minimum(np.maximum(a_hat, v.lo), v.hi)
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
