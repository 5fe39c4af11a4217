"""Uniqueness classification and the explicit equilibrium set.

The transient values of every equilibrium coincide, so uniqueness is decided
sink by sink. An out-connected sink always has a unique projection. A
stochastic sink is unique unless its effective inflow (exogenous plus what
the transient part routes in) sums to zero AND the solution line of the
unsaturated system cuts through the box, in which case the projections form
the segment {base + a * pi} for a in [alpha_min, alpha_max]. The segment
length in line-parameter units,

    condition_value = min_i(base_i / pi_i) + min_i((w_i - base_i) / pi_i),

is invariant under sliding ``base`` along the line, and its sign decides
uniqueness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._linear import pinned_particular, stationary_block
from ._tol import ROUND_REL, ZERO_SUM_REL, flow_tolerance
from .decomposition import Decomposition, group_rows, strongly_connected_components
from .errors import InputError
from .model import EPS_FEAS, Network, Rows, _readonly, as_point
from .solver import (
    _SEGMENT,
    DEFAULT_OPTIONS,
    SinkAnalysis,
    SolveOptions,
    _analyses,
    _checked_equilibrium,
    _is_unique,
    _solve,
)


def stationary_distribution(block) -> np.ndarray:
    """Invariant probability vector of an irreducible row-stochastic matrix.

    Computed by a direct linear solve (power iteration would oscillate on
    periodic blocks). Raises InputError if the block is not row-stochastic
    within tolerance or not strongly connected.
    """
    Q = np.asarray(block, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise InputError(f"block must be square, got shape {Q.shape}")
    if np.any(Q < -EPS_FEAS):
        raise InputError("block has negative entries")
    if np.any(np.abs(Q.sum(axis=1) - 1.0) > EPS_FEAS):
        raise InputError("block is not row-stochastic")
    if len(strongly_connected_components(Q > 0)) != 1:
        raise InputError("block is not irreducible")
    return stationary_block(Q[None])[0]


def particular_solution(block, inflow) -> np.ndarray:
    """One solution of x = block' x + inflow for a zero-sum inflow.

    The returned vector has its last coordinate pinned to 0; any other
    solution differs from it by a multiple of the stationary vector, and all
    downstream quantities are invariant under that shift.
    """
    Q = np.asarray(block, dtype=float)
    inflow = np.asarray(inflow, dtype=float)
    if inflow.shape != (Q.shape[0],):
        raise InputError(f"inflow has shape {inflow.shape}, expected ({Q.shape[0]},)")
    stationary_distribution(Q)  # validates shape, stochasticity, irreducibility
    total = float(inflow.sum())
    tol = flow_tolerance(ZERO_SUM_REL, 0.0, inflow)  # no box here: relative to |inflow|_1
    if abs(total) > tol:
        raise InputError(f"inflow sums to {total:.6g}; a solution requires a zero sum")
    x = pinned_particular(Q[None], inflow[None])[0]
    gap = float(np.max(np.abs(x - (Q.T @ x + inflow))))
    if gap > 10.0 * tol:
        raise InputError(
            f"system x = Q'x + rhs is inconsistent (closure gap {gap:.3g}); rhs must sum to zero"
        )
    return x


def classify(
    net: Network, c, opts: SolveOptions | None = None
) -> tuple[Decomposition, Sequence[SinkAnalysis], bool]:
    """Per-sink uniqueness analyses, each built when it is read; the boolean is True iff no sink is a segment."""
    opts = opts or DEFAULT_OPTIONS
    found, _ = _solve(net, c, opts, assemble=False)
    st = found.structure
    analyses = partial(group_rows, st.place, partial(_analyses, st.groups, tuple(found.groups)))
    return st.decomposition, Rows(len(st.place), analyses), _is_unique(found)


# ----------------------------- equilibrium set -----------------------------


@dataclass(frozen=True)
class FixedComponent:
    nodes: tuple[int, ...]
    values: np.ndarray


@dataclass(frozen=True)
class SegmentComponent:
    nodes: tuple[int, ...]
    base: np.ndarray
    direction: np.ndarray  # positive, sums to 1
    alpha_min: float
    alpha_max: float
    w: np.ndarray  # capacities of the nodes

    def at(self, alpha: float) -> np.ndarray:
        """The member at ``alpha`` (past a bound by rounding only), clipped to [0, w] as the extremes are."""
        slack = ROUND_REL * max(abs(self.alpha_min), abs(self.alpha_max))
        if not self.alpha_min - slack <= alpha <= self.alpha_max + slack:
            raise InputError(
                f"alpha {alpha} outside [{self.alpha_min}, {self.alpha_max}]"
            )
        return np.clip(self.base + alpha * self.direction, 0.0, self.w)


def _sup_nearest_alpha(comp: SegmentComponent, y: np.ndarray) -> float:
    """The alpha whose member of ``comp`` is nearest to ``y`` (on its nodes) in the sup norm.

    Each member coordinate rises with alpha, so the largest overshoot
    max(member - y) rises and the largest shortfall max(y - member) falls;
    the distance, the larger of the two, is least where they cross, or at a
    bound. That crossing is bisected to the last bit.
    """
    def excess(a):
        gap = comp.at(a) - y
        return gap.max() - (-gap).max()

    lo, hi = comp.alpha_min, comp.alpha_max
    if excess(lo) >= 0.0:
        return lo
    if excess(hi) <= 0.0:
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    return min((lo, hi), key=lambda a: np.abs(comp.at(a) - y).max())


def _components(groups: tuple, verdicts: tuple, x_min: np.ndarray, g: int, r: np.ndarray):
    """The components on rows r of size group g at flow 0, with values read off the minimal equilibrium ``x_min``."""
    group, v = groups[g], verdicts[g]
    nodes = group.nodes[r]
    rows = zip(
        nodes.tolist(), v.kind[0, r].tolist(),
        *map(_readonly, (x_min[nodes], v.base[0, r], group.stationary[r], group.w[r])),
        v.lo[0, r].tolist(), v.hi[0, r].tolist(),
    )
    for nodes, code, values, base, direction, w, lo, hi in rows:
        if code == _SEGMENT:
            yield SegmentComponent(tuple(nodes), base, direction, lo, hi, w)
        else:
            yield FixedComponent(tuple(nodes), values)


@dataclass(frozen=True)
class EquilibriumSet:
    """Every equilibrium: transient values, one component per sink; its ends are the extremes bit for bit.

    ``x_min()`` and ``x_max()`` are copies of the solver's extremes, and a component is
    built off the solver's verdict arrays when it is read.
    """

    n: int
    transient_nodes: tuple[int, ...]
    transient_values: np.ndarray
    components: Rows  # FixedComponent | SegmentComponent, in sink order
    is_unique: bool
    _x: np.ndarray = field(repr=False, compare=False)  # (2, n): the solver's x_min and x_max, read-only

    def _assemble(self, alpha) -> np.ndarray:
        """The member placed at ``alpha(k, comp)`` on each segment component k, at x_min elsewhere."""
        x = self.x_min()
        for k, comp in enumerate(self.components):
            if isinstance(comp, SegmentComponent):
                x[list(comp.nodes)] = comp.at(alpha(k, comp))
        return x

    def x_min(self) -> np.ndarray:
        return self._x[0].copy()

    def x_max(self) -> np.ndarray:
        return self._x[1].copy()

    def sample(self, alphas: dict[int, float]) -> np.ndarray:
        """Assemble the member with the given alpha per segment component index."""
        for k, comp in enumerate(self.components):
            if isinstance(comp, SegmentComponent) and k not in alphas:
                raise InputError(f"alphas has no value for segment component {k}")
        return self._assemble(lambda k, comp: alphas[k])

    def distance_sup(self, x) -> float:
        """Sup-norm distance from a finite point x of length n to the nearest member of the set.

        The components are independent, so each segment component takes the
        alpha nearest to x in the sup norm (``_sup_nearest_alpha``).
        """
        x = as_point(x, self.n)
        nearest = self._assemble(lambda k, comp: _sup_nearest_alpha(comp, x[list(comp.nodes)]))
        return float(np.max(np.abs(x - nearest))) if self.n else 0.0

    def to_json_dict(self) -> dict:
        def entry(comp) -> dict:
            if isinstance(comp, FixedComponent):
                return {"nodes": list(comp.nodes), "type": "unique", "values": comp.values.tolist()}
            return {
                "nodes": list(comp.nodes), "type": "segment", "base": comp.base.tolist(),
                "direction": comp.direction.tolist(), "alpha_min": comp.alpha_min, "alpha_max": comp.alpha_max,
            }

        return {
            "is_unique": self.is_unique,
            "transient": {"nodes": list(self.transient_nodes), "values": self.transient_values.tolist()},
            "sinks": list(map(entry, self.components)),
        }


def equilibrium_set(net: Network, c, opts: SolveOptions | None = None) -> EquilibriumSet:
    """Explicit representation of all equilibria of (net, c): the solver's verdicts and extremes, kept as they are."""
    opts = opts or DEFAULT_OPTIONS
    found, (x, _) = _solve(net, c, opts)
    st = found.structure
    components = partial(_components, st.groups, tuple(found.groups), x[0, 0])
    return EquilibriumSet(
        n=net.n,
        transient_nodes=st.decomposition.transient,
        transient_values=found.transient[0],
        components=Rows(len(st.place), partial(group_rows, st.place, components)),
        is_unique=_is_unique(found),
        _x=x[:, 0],
    )


def nash_payments(net: Network, c, x, tol: float = DEFAULT_OPTIONS.tol_class) -> tuple[np.ndarray, float]:
    """Per-edge payments X[i][j] = x_i * P[i][j] induced by an equilibrium.

    Also returns the sup-norm residual of the per-entry best-response
    identity X[i][j] = P[i][j] * clamp_i(sum_k X[k][i] + c_i), which vanishes
    exactly when x is a fixed point. x must be an equilibrium to within
    ``tol`` relative to the network's scale.
    """
    c, x, _, best = _checked_equilibrium(net, c, x, tol)
    payments = x[:, None] * net.P
    residual = float(np.max(np.abs(x - best)[:, None] * net.P))
    return payments, residual
