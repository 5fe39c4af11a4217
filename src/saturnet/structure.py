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
from enum import Enum

import numpy as np

from ._linear import pinned_particular, segment_bounds, stationary_block, zero_sum_tolerance
from .decomposition import Decomposition, block_structure, strongly_connected_components
from .errors import InputError
from .model import EPS_FEAS, EquilibriumVector, Network, as_flow, require_valid
from .solver import (
    DEFAULT_OPTIONS,
    SolveOptions,
    _extremes,
    _transient_state,
    fixed_point_map,
    fixed_point_residual,
)


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
    return stationary_block(Q)


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
    tol = zero_sum_tolerance(inflow)
    if abs(total) > tol:
        raise InputError(f"inflow sums to {total:.6g}; a solution requires a zero sum")
    return pinned_particular(Q, inflow, check_tol=10.0 * tol + 1e-12)


def _analyze(net, c, opts):
    st = block_structure(net)
    c = as_flow(c, net.n)
    x_T = _transient_state(net, c, opts, st)
    inflow = st.inflows(c, x_T)
    analyses = []
    for l, sink in enumerate(st.sinks()):
        nodes = sink.component.nodes
        c_eff = inflow[sink.span]
        pi = sink.stationary
        if pi is None:
            analyses.append(SinkAnalysis(l, nodes, SinkKind.OUT_CONNECTED, inflow=c_eff))
            continue
        total = float(c_eff.sum())
        if abs(total) > zero_sum_tolerance(c_eff):
            analyses.append(
                SinkAnalysis(l, nodes, SinkKind.NONZERO_SUM, inflow=c_eff, stationary=pi)
            )
            continue
        base = pinned_particular(sink.block(net.P), c_eff)
        lo, hi = segment_bounds(base, pi, net.w[sink.nodes])
        condition = hi - lo  # equals min(base/pi) + min((w-base)/pi)
        if condition > zero_sum_tolerance(c_eff):
            kind, alpha = SinkKind.ZERO_SUM_SEGMENT, (lo, hi)
        else:
            kind, alpha = SinkKind.ZERO_SUM_UNIQUE, None
        analyses.append(
            SinkAnalysis(
                l, nodes, kind,
                inflow=c_eff, stationary=pi, base=base,
                condition_value=condition, alpha_range=alpha,
            )
        )
    return st.decomposition, x_T, analyses


def classify(
    net: Network, c, opts: SolveOptions | None = None
) -> tuple[Decomposition, list[SinkAnalysis], bool]:
    """Per-sink uniqueness analysis; the boolean is True iff no sink is a segment."""
    opts = opts or DEFAULT_OPTIONS
    dec, _, analyses = _analyze(net, c, opts)
    unique = all(a.kind is not SinkKind.ZERO_SUM_SEGMENT for a in analyses)
    return dec, analyses, unique


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
        if not self.alpha_min - 1e-12 <= alpha <= self.alpha_max + 1e-12:
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

    def _assemble(self, pick) -> np.ndarray:
        x = np.zeros(self.n)
        t = np.asarray(self.transient_nodes, dtype=int)
        if t.size:
            x[t] = self.transient_values
        for comp in self.components:
            idx = np.asarray(comp.nodes, dtype=int)
            x[idx] = pick(comp)
        return x

    def x_min(self) -> np.ndarray:
        return self._assemble(
            lambda comp: comp.values
            if isinstance(comp, FixedComponent)
            else comp.at(comp.alpha_min)
        )

    def x_max(self) -> np.ndarray:
        return self._assemble(
            lambda comp: comp.values
            if isinstance(comp, FixedComponent)
            else comp.at(comp.alpha_max)
        )

    def sample(self, alphas: dict[int, float]) -> np.ndarray:
        """Assemble the member with the given alpha per segment component index."""
        x = np.zeros(self.n)
        t = np.asarray(self.transient_nodes, dtype=int)
        if t.size:
            x[t] = self.transient_values
        for k, comp in enumerate(self.components):
            idx = np.asarray(comp.nodes, dtype=int)
            if isinstance(comp, FixedComponent):
                x[idx] = comp.values
            else:
                x[idx] = comp.at(alphas[k])
        return x

    def distance_sup(self, x) -> float:
        """Sup-norm distance from x to the nearest member of the set."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(f"x has shape {x.shape}, expected ({self.n},)")
        nearest = np.zeros(self.n)
        t = np.asarray(self.transient_nodes, dtype=int)
        if t.size:
            nearest[t] = self.transient_values
        for comp in self.components:
            idx = np.asarray(comp.nodes, dtype=int)
            if isinstance(comp, FixedComponent):
                nearest[idx] = comp.values
            else:
                d = comp.direction
                a = float(d @ (x[idx] - comp.base) / (d @ d))
                a = min(max(a, comp.alpha_min), comp.alpha_max)
                nearest[idx] = comp.at(a)
        return float(np.max(np.abs(x - nearest))) if self.n else 0.0

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
    dec, x_T, analyses = _analyze(net, c, opts)
    lo, _ = _extremes(net, c, opts)
    components = []
    for a in analyses:
        idx = np.asarray(a.nodes, dtype=int)
        if a.kind is SinkKind.ZERO_SUM_SEGMENT:
            components.append(
                SegmentComponent(a.nodes, a.base, a.stationary, *a.alpha_range)
            )
        else:
            components.append(FixedComponent(a.nodes, lo.x[idx]))
    return EquilibriumSet(
        n=net.n,
        transient_nodes=dec.transient,
        transient_values=x_T,
        components=tuple(components),
        is_unique=all(a.kind is not SinkKind.ZERO_SUM_SEGMENT for a in analyses),
    )


def nash_payments(net: Network, c, x, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Per-edge payments X[i][j] = x_i * P[i][j] induced by an equilibrium.

    Also returns the sup-norm residual of the per-entry best-response
    identity X[i][j] = P[i][j] * clamp_i(sum_k X[k][i] + c_i), which vanishes
    exactly when x is a fixed point.
    """
    require_valid(net)
    c = as_flow(c, net.n)
    if isinstance(x, EquilibriumVector):
        x = x.x
    x = np.asarray(x, dtype=float)
    res = fixed_point_residual(net, c, x)
    if res > tol:
        raise InputError(f"x is not an equilibrium (residual {res:.3g} > {tol:.3g})")
    payments = x[:, None] * net.P
    best = fixed_point_map(net, c, x)
    residual = float(np.max(np.abs(x - best)[:, None] * net.P)) if net.n else 0.0
    return payments, residual
