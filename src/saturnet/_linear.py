"""Direct linear solves on irreducible stochastic blocks.

Power iteration is deliberately avoided: blocks may be periodic (a plain
2-cycle oscillates) and the blocks handled here are small enough that dense
solves are both exact and cheap.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def stationary_block(Q: np.ndarray) -> np.ndarray:
    """Positive invariant probability vector of an irreducible stochastic block.

    Solves (I - Q') pi = 0 with one equation replaced by the normalization
    sum(pi) = 1; for irreducible stochastic Q that square system is
    nonsingular.
    """
    k = Q.shape[0]
    if k == 1:
        return np.ones(1)
    M = np.eye(k) - Q.T
    M[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"stationary solve failed: {exc}") from None
    if np.any(pi <= 0):
        raise InputError("stationary vector has non-positive entries; block is not irreducible stochastic")
    return pi / pi.sum()


def pinned_particular(Q: np.ndarray, rhs: np.ndarray, check_tol: float | None = None) -> np.ndarray:
    """One solution of x = Q'x + rhs on an irreducible stochastic block.

    The last coordinate is pinned to 0 and the remaining (k-1)-dimensional
    system is solved exactly; the dropped equation closes automatically when
    rhs sums to zero. Any particular solution is as good as any other here:
    downstream quantities are invariant under shifts along the stationary
    direction.
    """
    k = Q.shape[0]
    if k == 1:
        x = np.zeros(1)
    else:
        A = np.eye(k - 1) - Q.T[: k - 1, : k - 1]
        try:
            head = np.linalg.solve(A, rhs[: k - 1])
        except np.linalg.LinAlgError as exc:
            raise InputError(f"pinned solve failed: {exc}") from None
        x = np.append(head, 0.0)
    if check_tol is not None:
        gap = np.max(np.abs(x - (Q.T @ x + rhs)))
        if gap > check_tol:
            raise InputError(
                f"system x = Q'x + rhs is inconsistent (closure gap {gap:.3g}); rhs must sum to zero"
            )
    return x


def segment_bounds(base: np.ndarray, direction: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Parameter interval for which base + t*direction stays inside [0, w].

    ``direction`` must be strictly positive. Returns (lo, hi); empty
    intersection shows up as lo > hi.
    """
    lo = float(np.max(-base / direction))
    hi = float(np.min((w - base) / direction))
    return lo, hi
