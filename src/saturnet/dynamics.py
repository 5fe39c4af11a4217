"""Continuous-time cross-validator: the flow dynamics settle at equilibria.

Integrates dx/dt = clamp(P'x + c) - x with a classic explicit fourth-order
one-step scheme. The right-hand side is globally Lipschitz, trajectories
stay in a bounded box, and rest points are exactly the fixed points of the
saturated map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import csv_lines
from .errors import InputError
from .model import Network, as_flow, require_valid
from .solver import _residual


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # one row per sample
    terminal: np.ndarray
    residual: float  # fixed-point residual of the terminal state

    def to_csv(self) -> str:
        n = self.states.shape[1]
        header = ["t"] + [f"x_{i + 1}" for i in range(n)]
        rows = [[t] + list(row) for t, row in zip(self.times, self.states)]
        return csv_lines(header, rows)


def simulate(
    net: Network,
    c,
    x0,
    t_end: float = 200.0,
    dt: float = 0.01,
    sample_every: int = 1,
    stop_tol: float | None = None,
) -> Trajectory:
    """Integrate the flow dynamics from x0 and report the terminal residual.

    ``stop_tol`` ends the run early once the drift's sup norm falls below it;
    the stopping state is then the last sample, whatever ``sample_every``.
    By default the full horizon is integrated.
    """
    require_valid(net)
    c = as_flow(c, net.n)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (net.n,):
        raise InputError(f"x0 has shape {x.shape}, expected ({net.n},)")
    if not np.all(np.isfinite(x)):
        raise InputError("x0 must be finite")
    if not dt > 0:
        raise InputError("dt must be positive")
    if t_end < dt:
        raise InputError("t_end must be at least dt")
    if sample_every < 1:
        raise InputError("sample_every must be at least 1")

    QT = net.P.T
    w = net.w

    def drift(state):
        return np.minimum(np.maximum(QT @ state + c, 0.0), w) - state

    steps = int(round(t_end / dt))
    times = [0.0]
    states = [x.copy()]
    for k in range(1, steps + 1):
        k1 = drift(x)
        if stop_tol is not None and float(np.max(np.abs(k1))) <= stop_tol:
            if (k - 1) % sample_every:  # the stopping state was not sampled yet
                times.append((k - 1) * dt)
                states.append(x.copy())
            break
        k2 = drift(x + 0.5 * dt * k1)
        k3 = drift(x + 0.5 * dt * k2)
        k4 = drift(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % sample_every == 0 or k == steps:
            times.append(k * dt)
            states.append(x.copy())

    terminal = states[-1]
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        terminal=terminal,
        residual=_residual(net, c, terminal),
    )
