"""Direct linear solves on stacks of blocks, and the block operator the hunt calls.

Every function here takes a stack: matrices of shape (m, k, k) and vectors
of shape (m, k), one block per row, and treats all of them at once, with
one stacked solve where there is one to do. A single block is a stack of
one. A stack of one matrix (1, k, k) is shared by every row of the
vectors: it is broadcast, never copied.

Power iteration is deliberately avoided: blocks may be periodic (a plain
2-cycle oscillates), and a dense solve is exact. The hunt's blocks are
operators with one interface (``matvec``, ``take``, ``solve_patterns``) in
two storage forms: ``DenseBlock``, and ``EdgeBlock``, a large shared block
held as its edge list, whose products cost one pass over its edges and
whose pattern solves are Neumann steps (Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., SIAM 2003, ch. 3) that extrapolate their slowest
mode away every few steps, as PageRank's power iteration is accelerated
(Kamvar, Haveliwala, Manning & Golub, WWW 2003). A large sparse network is an
EdgeBlock too, from its construction on, for the products that certify
its results. Whether a block is listed is one predicate of its size and
its number of nonzeros (``_is_sparse``).
"""

from __future__ import annotations

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


def diagonal_blocks(P: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The diagonal blocks of P on the node sets ``nodes`` (m, k), stacked (m, k, k).

    A set that spans every node gets ``P[None]``, a view of P.
    """
    return P[None] if nodes.shape[1] == P.shape[0] else P[nodes[:, :, None], nodes[:, None, :]]


class DenseBlock:
    """A stack of dense blocks Q (m, k, k), untransposed, one per row; or one block (1, k, k) that every row shares."""

    def __init__(self, Q: np.ndarray):
        self.Q = Q

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q[i]' x[i] for every row i of x (F, k); a shared Q serves every row.

        Each row is one vector-matrix product, bit for bit ``Q[i].T @ x[i]``,
        whatever the number of rows; a matrix-matrix product ``x @ Q[0]`` can
        round differently. The product is taken on a C-ordered Q, so an equal
        matrix in another memory layout gives the same bits (a C-ordered Q,
        which every caller passes, is not copied).
        """
        return (x[:, None, :] @ np.ascontiguousarray(self.Q))[:, 0, :]

    def take(self, rows) -> DenseBlock:
        """The blocks of the rows ``rows``: this one when it is shared."""
        return self if len(self.Q) == 1 else DenseBlock(self.Q[rows])

    def solve_patterns(self, w, c, pattern, gate=None, start=None):
        """Each row's candidate equilibrium for its saturation pattern, stacked.

        Nodes marked +1 are pinned to w and nodes marked -1 to 0; the rest
        solve x = Q'x + c exactly among themselves, with one stacked solve
        per number of free nodes; ``gate`` and ``start`` are unused. A row
        with no free node poses no system. The result is clipped to [0, w];
        ``ok`` is False on the rows whose linear system is singular, and their
        free nodes are NaN.
        """
        Q = self.Q
        x = np.where(pattern > 0, w, 0.0)
        free = pattern == 0
        counts = free.sum(axis=1)
        ok = np.ones(len(x), dtype=bool)
        sizes = np.flatnonzero(np.bincount(counts)[1:]) + 1  # the numbers of free nodes rows have, ascending
        if sizes.size:
            rhs = self.matvec(x) + c
        k = Q.shape[-1]
        for f in sizes.tolist():
            rows = np.flatnonzero(counts == f)[:, None]
            idx = (np.flatnonzero(free[rows[:, 0]]) % k).reshape(-1, f)
            # I - Q[idx, idx]' per row, gathered from the rows of Q (from its one
            # row when shared); two index arrays into the stacked rows gather as
            # fast as np.ix_, three do not
            first = rows * k if len(Q) > 1 else 0
            sub = Q.reshape(-1, k)[(first + idx)[:, :, None], idx[:, None, :]]
            A = np.subtract(np.eye(f), sub, out=sub).transpose(0, 2, 1)
            v = solve_stack(A, rhs[rows, idx])
            x[rows, idx] = v
            ok[rows[:, 0]] = np.isfinite(v).all(axis=1)
        return np.clip(x, 0.0, w, out=x), ok


#: A block of at least SPARSE_MIN nodes whose entries P != 0 number at most
#: SPARSE_FILL times the square of that is held as its edge list, and the
#: hunt works on it; other blocks are dense. Measured on
#: ``extremal_equilibria`` for one out-connected block of k nodes (one BLAS
#: thread, 2-vCPU host, row sums 0.8-0.98, 0.97-0.9999 and 1 - 1e-6): the
#: edge path took 0.65-0.80 of the dense path's time at k = 512 with 4-8
#: edges per node, 0.3-0.4 at k = 1024 with 4-16 and 0.1-0.2 at k = 2048
#: with 4-32; it lost from 16 edges per node at k = 512 (up to 1.33), 64
#: at k = 1024 and 256 at k = 2048, and a full block of 512 nodes took 16
#: times as long. A whole network within both bounds is listed too, from
#: its construction on (``model.Network``).
SPARSE_MIN = 512
SPARSE_FILL = 1 / 64


def _is_sparse(k, nnz):
    """Whether a block of k nodes and nnz entries P != 0 is held as its edge list: the two bounds above.

    Elementwise on arrays of k and nnz.
    """
    return (k >= SPARSE_MIN) & (nnz <= SPARSE_FILL * k**2)


#: Step budget of a Neumann pattern solve; a row that cannot stop within
#: it falls back to the dense solve.
NEUMANN_STEPS = 256
#: A Neumann pattern solve stops once its step is at most this fraction of
#: the hunt's gate.
NEUMANN_REL = 2.0**-8
#: Every NEUMANN_JUMP_EVERY steps a Neumann pattern solve estimates each
#: row's decay ratio from its last two steps and, where it lies in
#: (0, NEUMANN_JUMP_MAX), extrapolates that slowest mode away. Periods 4,
#: 6, 12 and 16 took 257, 237, 228 and 225 steps on a pass of sparse-core
#: that took 449 with none; a bound of 0.999 let the extremes drift to
#: 9.4e-13·max w from the dense ones on near-stochastic cores, 0.99 to 1.5e-13.
NEUMANN_JUMP_EVERY = 12
NEUMANN_JUMP_MAX = 0.99


class EdgeBlock:
    """One block Q of P on the sorted node ids ``nodes`` (k,), shared by every row, held as its edge list.

    ``rows``, ``cols`` and ``vals`` list the nonzero entries Q[i, j] in
    row-major order, in block labels 0..k-1. The block keeps no part of P
    and no dense copy: ``dense()`` scatters the edges into the dense block
    anew on each call, which only a fallback of ``solve_patterns`` makes.
    """

    def __init__(self, rows, cols, vals, nodes):
        self.rows, self.cols, self.vals, self.nodes = rows, cols, vals, nodes

    def dense(self) -> DenseBlock:
        Q = np.zeros((1, self.nodes.size, self.nodes.size))
        Q[0, self.rows, self.cols] = self.vals
        return DenseBlock(Q)

    def take(self, rows) -> EdgeBlock:
        """Every row shares the block."""
        return self

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

    def solve_patterns(self, w, c, pattern, gate, start):
        """``DenseBlock.solve_patterns``, by Neumann steps on the free nodes.

        Each row with free nodes f iterates y <- Q_ff'y + b from its own start
        y = start[f] (start (m, k), the hunt's iterate), where b is what its
        pinned nodes and c send to f, over the edges with both ends in f, and
        stops at the first step no larger than ``NEUMANN_REL * gate`` (gate
        (m,), the hunt's): the step is the linear residual of the iterate
        before it, and the iterate after it is the row's answer. A row that
        cannot stop within ``NEUMANN_STEPS`` steps takes the dense solve
        instead, so a singular system still gives ``ok`` False; that is the
        case when the spectral radius of Q_ff is 1 or close to it. At steps
        32, 64 and 128 a row whose step, shrinking at its rate since the
        half-way step, would still exceed the stop at the budget's end gives
        up at once. Every ``NEUMANN_JUMP_EVERY`` steps a row whose last two
        steps d' and d shrink by the ratio lam = d.d' / d'.d' in
        (0, ``NEUMANN_JUMP_MAX``) adds the rest of that geometric series,
        d lam / (1 - lam), to its iterate: Q_ff >= 0, so its slowest mode is
        real and positive, and this removes it. A row whose step has not
        shrunk since its last jump jumps no more, as on a chain, whose steps
        carry the error along rather than shrink it by one ratio. A row's
        steps, sums and decisions read only its own edges and values, so it
        ends where it would end alone.
        """
        x = np.where(pattern > 0, w, 0.0)
        ok = np.ones(len(x), dtype=bool)
        rows = np.flatnonzero((pattern == 0).any(axis=1))
        if rows.size:
            free, tol = pattern[rows] == 0, NEUMANN_REL * gate[rows]
            b = np.where(free, self.matvec(x[rows]) + c[rows], 0.0)
            # the free-to-free edges of every row, as offsets into the flattened stack
            both = np.take(free, self.rows, axis=1) & np.take(free, self.cols, axis=1)
            r, e = divmod(np.flatnonzero(both), self.rows.size)
            src, bins, vals = r * free.shape[1] + self.rows[e], r * free.shape[1] + self.cols[e], self.vals[e]
            y = np.where(free, start[rows], 0.0)
            live, solved = np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
            # a row jumps again only if its step has shrunk since its last jump:
            # +inf before a jump, -inf for good once one did not pay
            bar = np.full(len(rows), np.inf)
            for t in range(1, NEUMANN_STEPS + 1):
                yn = np.bincount(bins, weights=y.ravel()[src] * vals, minlength=y.size).reshape(y.shape) + b
                d = yn - y
                step = np.abs(d).max(axis=1)
                done = live & (step <= tol)
                checkpoint = t in (16, 32, 64, 128)
                if checkpoint or np.count_nonzero(done):  # the stack changes only where a row stops or gives up
                    x[rows[done]] = np.where(free[done], yn[done], x[rows[done]])
                    solved |= done
                    live &= ~done
                    if checkpoint:
                        if t > 16:  # a live row's step at t/2 was above its stop, so positive
                            rate = np.minimum(np.divide(step, half, out=np.ones_like(step), where=live), 1.0)
                            live &= step * rate ** ((NEUMANN_STEPS - t) / (t // 2)) <= tol
                        half = step
                    if not live.any():
                        break
                if t % NEUMANN_JUMP_EVERY == 0:
                    num, den = (d * prev).sum(axis=1), (prev * prev).sum(axis=1)
                    lam = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
                    paid = step < bar
                    jump = paid & (lam > 0) & (lam < NEUMANN_JUMP_MAX)
                    bar = np.where(jump, step, np.where(paid, np.inf, -np.inf))
                    j = np.flatnonzero(jump)
                    yn[j] += d[j] * (lam[j] / (1.0 - lam[j]))[:, None]
                y, prev = yn, d
            rows = rows[~solved]
            if rows.size:
                x[rows], ok[rows] = self.dense().solve_patterns(w[rows], c[rows], pattern[rows])
        return np.clip(x, 0.0, w, out=x), ok


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
