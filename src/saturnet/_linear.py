"""Direct linear solves on stacks of blocks.

Every function here takes a stack: matrices of shape (m, k, k) and vectors
of shape (m, k), one block per row, and treats all of them at once, with
one stacked solve where there is one to do. A single block is a stack of
one. A stack of one matrix (1, k, k) is shared by every row of the
vectors: it is broadcast, never copied.

Power iteration is deliberately avoided: blocks may be periodic (a plain
2-cycle oscillates), and a dense solve is exact. A large block that every
row of a stack shares may instead be held as its edge list (``EdgeBlock``):
a product with its transpose then costs one pass over its edges instead of
k² entries, and its dense form is gathered only when a solve falls back to
it. A large sparse network is held so too, for the products that certify
its results.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InputError


def solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions v[i] of A[i] v[i] = b[i]; a row of NaN where A[i] is singular.

    A stack of more than one is solved at once. A stack of one, or a stack
    with a singular member, is solved one system at a time, so a single
    block's solve is a plain ``np.linalg.solve(A, b)`` call; each system gets
    the same answer either way. A single matrix (1, k, k) serves every row
    of b.
    """
    if len(b) > 1:
        try:
            return np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass  # some member is singular: find it by solving one by one
    return np.array([_solve_or_nan(a, r) for a, r in zip(np.broadcast_to(A, b.shape + b.shape[-1:]), b)])


def _solve_or_nan(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def transposed_matvec(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q[i]' x[i] for every row i of a stack; a single Q (1, k, l) serves every row.

    Each row is one vector-matrix product, bit for bit ``Q[i].T @ x[i]``,
    whatever the number of rows; a matrix-matrix product ``x @ Q[0]`` can
    round differently. The product is taken on a C-ordered Q, so an equal
    matrix in another memory layout gives the same bits (a C-ordered Q,
    which every caller passes, is not copied).
    """
    return (x[:, None, :] @ np.ascontiguousarray(Q))[:, 0, :]


class EdgeBlock:
    """One block Q of k nodes that every row of a stack shares, held as its edge list.

    ``edges`` (rows, cols, weights) lists the nonzero entries Q[i, j] in
    row-major order, in block labels 0..k-1. ``gather()``, when given,
    returns the dense block (1, k, k); ``dense`` calls it on first use only.
    """

    def __init__(self, edges, gather=None):
        self.rows, self.cols, self.vals = edges
        self._gather = gather

    @cached_property
    def dense(self) -> np.ndarray:
        return self._gather()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q'x[i] for every row i of x (F, k), one ``np.bincount`` over the edges per row.

        Each row's products are summed in edge order, so each row gets bit
        for bit the answer it gets alone, and the temporaries are O(edges)
        whatever F.
        """
        out = np.empty(x.shape)
        for row, y in zip(x, out):
            y[:] = np.bincount(self.cols, weights=row[self.rows] * self.vals, minlength=len(y))
        return out


def stationary_block(Q: np.ndarray) -> np.ndarray:
    """Positive invariant probability vectors of irreducible stochastic blocks.

    Solves (I - Q') pi = 0 with one equation replaced by the normalization
    sum(pi) = 1; for irreducible stochastic Q that square system is
    nonsingular.
    """
    m, k = Q.shape[:2]
    if k == 1:
        return np.ones((m, 1))
    M = np.eye(k) - Q.transpose(0, 2, 1)
    M[:, -1, :] = 1.0
    rhs = np.zeros((m, k))
    rhs[:, -1] = 1.0
    pi = solve_stack(M, rhs)
    if not np.all(np.isfinite(pi)):
        raise InputError("stationary solve failed: singular system")
    if np.any(pi <= 0):
        raise InputError("stationary vector has non-positive entries; block is not irreducible stochastic")
    return pi / pi.sum(axis=1, keepdims=True)


def pinned_particular(Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One solution x[i] of x = Q[i]'x + rhs[i] on each irreducible stochastic block.

    The last coordinate is pinned to 0 and the remaining (k-1)-dimensional
    system is solved exactly; the dropped equation closes automatically when
    rhs sums to zero. Any particular solution is as good as any other here:
    downstream quantities are invariant under shifts along the stationary
    direction.
    """
    m, k = rhs.shape
    x = np.zeros((m, k))
    if k > 1:
        A = np.eye(k - 1) - Q.transpose(0, 2, 1)[:, : k - 1, : k - 1]
        head = solve_stack(A, rhs[:, : k - 1])
        if not np.all(np.isfinite(head)):
            raise InputError("pinned solve failed: singular system")
        x[:, : k - 1] = head
    return x


def segment_bounds(base: np.ndarray, direction: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter intervals for which base[i] + t*direction[i] stays inside [0, w[i]].

    ``direction`` must be strictly positive. Returns (lo, hi), one entry per
    row; an empty intersection shows up as lo > hi.
    """
    lo = np.max(-base / direction, axis=1)
    hi = np.min((w - base) / direction, axis=1)
    return lo, hi
