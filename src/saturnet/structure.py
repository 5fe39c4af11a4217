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

from dataclasses import dataclass

import numpy as np

from ._linear import pinned_particular, stationary_block
from ._tol import ROUND_REL, ZERO_SUM_REL, flow_tolerance
from .decomposition import Decomposition, strongly_connected_components
from .errors import InputError
from .model import EPS_FEAS, Network, as_flow
from .solver import (
    DEFAULT_OPTIONS,
    SinkAnalysis,
    SinkKind,
    SolveOptions,
    _analyze,
    _assemble_extremes,
    _checked_equilibrium,
    _map,
    _sink_analyses,
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
) -> tuple[Decomposition, list[SinkAnalysis], bool]:
    """Per-sink uniqueness analysis; the boolean is True iff no sink is a segment."""
    opts = opts or DEFAULT_OPTIONS
    found = _analyze(net, as_flow(c, net.n)[None], opts)
    sinks = _sink_analyses(found)
    unique = all(a.kind is not SinkKind.ZERO_SUM_SEGMENT for a in sinks)
    return found.structure.decomposition, sinks, unique


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

    def at(self, alpha: float) -> np.ndarray:
        """The member at ``alpha``, which may pass the bounds by rounding only."""
        slack = ROUND_REL * max(abs(self.alpha_min), abs(self.alpha_max))
        if not self.alpha_min - slack <= alpha <= self.alpha_max + slack:
            raise InputError(
                f"alpha {alpha} outside [{self.alpha_min}, {self.alpha_max}]"
            )
        return self.base + alpha * self.direction


@dataclass(frozen=True)
class EquilibriumSet:
    """Every equilibrium, as transient values plus one component per sink."""

    n: int
    transient_nodes: tuple[int, ...]
    transient_values: np.ndarray
    components: tuple  # FixedComponent | SegmentComponent, in sink order
    is_unique: bool

    def _assemble(self, alpha) -> np.ndarray:
        """The member placed at ``alpha(k, comp)`` on each segment component k."""
        x = np.zeros(self.n)
        x[list(self.transient_nodes)] = self.transient_values
        for k, comp in enumerate(self.components):
            x[list(comp.nodes)] = (
                comp.values if isinstance(comp, FixedComponent) else comp.at(alpha(k, comp))
            )
        return x

    def x_min(self) -> np.ndarray:
        return self._assemble(lambda k, comp: comp.alpha_min)

    def x_max(self) -> np.ndarray:
        return self._assemble(lambda k, comp: comp.alpha_max)

    def sample(self, alphas: dict[int, float]) -> np.ndarray:
        """Assemble the member with the given alpha per segment component index."""
        return self._assemble(lambda k, comp: alphas[k])

    def distance_sup(self, x) -> float:
        """Sup-norm distance from x to the nearest member of the set."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(f"x has shape {x.shape}, expected ({self.n},)")

        def nearest(k, comp):
            d = comp.direction
            a = float(d @ (x[list(comp.nodes)] - comp.base) / (d @ d))
            return min(max(a, comp.alpha_min), comp.alpha_max)

        return float(np.max(np.abs(x - self._assemble(nearest)))) if self.n else 0.0

    def to_json_dict(self) -> dict:
        comps = []
        for comp in self.components:
            if isinstance(comp, FixedComponent):
                comps.append(
                    {"nodes": list(comp.nodes), "type": "unique",
                     "values": comp.values.tolist()}
                )
            else:
                comps.append(
                    {
                        "nodes": list(comp.nodes),
                        "type": "segment",
                        "base": comp.base.tolist(),
                        "direction": comp.direction.tolist(),
                        "alpha_min": comp.alpha_min,
                        "alpha_max": comp.alpha_max,
                    }
                )
        return {
            "is_unique": self.is_unique,
            "transient": {
                "nodes": list(self.transient_nodes),
                "values": self.transient_values.tolist(),
            },
            "sinks": comps,
        }


def equilibrium_set(net: Network, c, opts: SolveOptions | None = None) -> EquilibriumSet:
    """Explicit representation of all equilibria of (net, c)."""
    opts = opts or DEFAULT_OPTIONS
    found = _analyze(net, as_flow(c, net.n)[None], opts)
    x, _ = _assemble_extremes(net, found, opts)
    sinks = _sink_analyses(found)
    components = []
    for a in sinks:
        if a.kind is SinkKind.ZERO_SUM_SEGMENT:
            components.append(
                SegmentComponent(a.nodes, a.base, a.stationary, *a.alpha_range)
            )
        else:
            components.append(FixedComponent(a.nodes, x[0, 0, list(a.nodes)]))
    return EquilibriumSet(
        n=net.n,
        transient_nodes=found.structure.decomposition.transient,
        transient_values=found.transient[0],
        components=tuple(components),
        is_unique=all(a.kind is not SinkKind.ZERO_SUM_SEGMENT for a in sinks),
    )


def nash_payments(net: Network, c, x, tol: float = DEFAULT_OPTIONS.tol_class) -> tuple[np.ndarray, float]:
    """Per-edge payments X[i][j] = x_i * P[i][j] induced by an equilibrium.

    Also returns the sup-norm residual of the per-entry best-response
    identity X[i][j] = P[i][j] * clamp_i(sum_k X[k][i] + c_i), which vanishes
    exactly when x is a fixed point. x must be an equilibrium to within
    ``tol`` relative to the network's scale.
    """
    c, x, _ = _checked_equilibrium(net, c, x, tol)
    payments = x[:, None] * net.P
    best = _map(net, c, x)
    residual = float(np.max(np.abs(x - best)[:, None] * net.P)) if net.n else 0.0
    return payments, residual
