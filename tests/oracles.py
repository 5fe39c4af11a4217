"""Independent reference computations used to check the package.

Everything here deliberately takes a different route than the library:
stationary vectors come from an eigendecomposition, particular solutions
from least squares, extreme equilibria from plain unaccelerated iteration,
and the solution segment from per-coordinate interval intersection.
"""

from __future__ import annotations

import numpy as np


def clamp(y, w):
    return np.minimum(np.maximum(y, 0.0), w)


def brute_minimal(P, w, c, iters=200_000, tol=1e-14):
    x = np.zeros(len(w))
    PT = P.T
    for _ in range(iters):
        xn = clamp(PT @ x + c, w)
        if np.max(np.abs(xn - x)) <= tol:
            return xn
        x = xn
    return x


def brute_maximal(P, w, c, iters=200_000, tol=1e-14):
    x = np.array(w, dtype=float)
    PT = P.T
    for _ in range(iters):
        xn = clamp(PT @ x + c, w)
        if np.max(np.abs(xn - x)) <= tol:
            return xn
        x = xn
    return x


def eig_stationary(P):
    """Stationary vector via the eigenvector of P' at eigenvalue 1."""
    vals, vecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = v / v.sum()
    return v


def lstsq_particular(P, c):
    """Minimum-norm solution of (I - P')x = c."""
    A = np.eye(len(c)) - P.T
    x, *_ = np.linalg.lstsq(A, c, rcond=None)
    return x


def line_lattice_intersection(P, w, c):
    """Geometric equilibrium segment of an irreducible stochastic network.

    Intersects the solution line of the unsaturated system with the box
    [0, w] coordinate by coordinate. Returns (x_lo, x_hi, length) or None
    when the intersection is empty; length is measured in units of the
    sum-normalized direction.
    """
    pi = eig_stationary(P)
    nu = lstsq_particular(P, c)
    lo = float(np.max(-nu / pi))
    hi = float(np.min((w - nu) / pi))
    if hi < lo:
        return None
    return nu + lo * pi, nu + hi * pi, hi - lo


def power_radius(Q, iters=2000):
    """Spectral radius of a nonnegative matrix by power iteration.

    Runs on (Q + I)/2 to sidestep periodicity, then maps the estimate back.
    """
    n = Q.shape[0]
    M = 0.5 * (Q + np.eye(n))
    v = np.ones(n) / n
    lam = 0.0
    for _ in range(iters):
        u = M @ v
        norm = np.linalg.norm(u)
        if norm == 0:
            return 0.0
        lam = norm / np.linalg.norm(v)
        v = u / norm
    return 2.0 * lam - 1.0


def bisect_crossing(net, c0, q, eps_lo, eps_hi, nodes, atol, tol):
    """Shock size in [eps_lo, eps_hi] where the inflow sum of the trapping set ``nodes`` crosses zero.

    Plain bisection: at every midpoint the whole network is solved by the
    public ``extremal_equilibria``, and the set's sum is its own flow plus
    what every node outside it sends in. The rules are the library's: an
    end whose sum is within ``atol`` of zero is the root, an end pair of one
    sign has none (None), and a step moves the low end while the sum keeps
    its sign there and exceeds ``atol``, until the bracket is ``tol`` wide.
    """
    from saturnet import extremal_equilibria

    inside = np.zeros(len(c0), dtype=bool)
    inside[list(nodes)] = True
    sent = net.P[~inside][:, inside].sum(axis=1)

    def inflow_sum(eps):
        c = c0 - eps * q
        x = extremal_equilibria(net, c)[0].x
        return c[inside].sum() + x[~inside] @ sent

    lo, hi = eps_lo, eps_hi
    g_lo, g_hi = inflow_sum(lo), inflow_sum(hi)
    if abs(g_lo) <= atol:
        return lo
    if abs(g_hi) <= atol:
        return hi
    if np.sign(g_lo) == np.sign(g_hi):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = inflow_sum(mid)
        if np.sign(g_mid) == np.sign(g_lo) and abs(g_mid) > atol:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
