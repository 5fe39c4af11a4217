"""The hunt for the unique equilibria of a stack of blocks.

A stack holds blocks of one size k: matrices Q of shape (m, k, k), and
capacities w and inflows c of shape (m, k), one block per row. Each block
follows its own hunt, by the rules of ``hunt_unique``; the stack only shares
the arithmetic, so every block gets, bit for bit, the answer it would get
alone. Every step works on the whole live stack, with no picking of rows:
a block that has nothing to solve at a step is handed to the stacked solve
fully pinned, and a block whose system is singular keeps its iterate. A
single block is a stack of one. A single matrix Q (1, k, k) may serve every
row, as when one block is hunted at many flows; it is broadcast, never
copied.

A large shared block may come as an ``EdgeBlock`` instead. Its map steps are
then bincounts over its edges, and its pattern solves Neumann iterations on
the free nodes (``neumann_patterns``), which fall back to the dense solve
when they cannot stop within their step budget. Every step of a row reads
only that row's values, so the bit-for-bit rule holds on this path too; its
answers differ from the dense path's by rounding only, and the caller's
residual check on the whole network, which reads P and not these lists,
certifies them alike.
"""

from __future__ import annotations

import numpy as np

from ._linear import EdgeBlock, solve_stack, transposed_matvec
from ._tol import scale
from .errors import NonConvergenceError


def saturation_pattern(y, above, below):
    """+1 where the inflow y is above ``above``, -1 below ``below``, else 0.

    The edges are w plus the dead-band and minus the dead-band.
    """
    return (y > above).astype(np.int8) - (y < below)


# equals no saturation pattern, so nothing repeats at a hunt's first step;
# as a pattern to solve it pins every node, so a row marked so poses no system
_NO_PATTERN = np.int8(2)


def solve_patterns(Q, w, c, pattern):
    """Each block's candidate equilibrium for its saturation pattern, stacked.

    Nodes marked +1 are pinned to w and nodes marked -1 to 0; the rest solve
    x = Q'x + c exactly among themselves, with one stacked solve per number
    of free nodes; ``Q`` is one block per row, or one block (1, k, k) that
    every row shares. A row with no free node poses no system. The result is
    clipped to [0, w]; ``ok`` is False on the rows whose linear system is
    singular, and their free nodes are NaN.
    """
    x = np.where(pattern > 0, w, 0.0)
    free = pattern == 0
    counts = free.sum(axis=1)
    ok = np.ones(len(x), dtype=bool)
    sizes = sorted(set(counts.tolist()) - {0})
    if sizes:
        rhs = transposed_matvec(Q, x) + c
    k = Q.shape[-1]
    for f in sizes:
        rows = np.flatnonzero(counts == f)[:, None]
        idx = np.nonzero(free[rows[:, 0]])[1].reshape(-1, f)
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


#: Step budget of a Neumann pattern solve; a row that cannot stop within
#: it falls back to the dense solve.
NEUMANN_STEPS = 256
#: A Neumann pattern solve stops once its step is at most this fraction of
#: the hunt's gate.
NEUMANN_REL = 2.0**-8


def neumann_patterns(Q: EdgeBlock, w, c, pattern, gate):
    """``solve_patterns`` on a shared EdgeBlock, by Neumann steps on the free nodes.

    Each row with free nodes f iterates y <- Q_ff'y + b from y = b, where b
    is what its pinned nodes and c send to f, over the edges with both ends
    in f, and stops at the first step no larger than ``NEUMANN_REL * gate``
    (gate (m,), the hunt's): the step is the linear residual of the iterate
    before it, and the iterate after it is the row's answer. A row that
    cannot stop within ``NEUMANN_STEPS`` steps takes the dense
    ``solve_patterns`` instead, so a singular system still gives ``ok``
    False; that is the case when the spectral radius of Q_ff is 1 or close
    to it. At steps 32, 64 and 128 a row whose step, shrinking at its rate
    since the half-way step, would still exceed the stop at the budget's
    end gives up at once. A row's steps and decisions read only its own
    edges and values, so it ends where it would end alone.
    """
    x = np.where(pattern > 0, w, 0.0)
    ok = np.ones(len(x), dtype=bool)
    rows = np.flatnonzero((pattern == 0).any(axis=1))
    if rows.size:
        free, tol = pattern[rows] == 0, NEUMANN_REL * gate[rows]
        b = np.where(free, Q.matvec(x[rows]) + c[rows], 0.0)
        # the free-to-free edges of every row, as offsets into the flattened stack
        r, e = np.nonzero(free[:, Q.rows] & free[:, Q.cols])
        src, bins, vals = r * free.shape[1] + Q.rows[e], r * free.shape[1] + Q.cols[e], Q.vals[e]
        y, live, solved = b, np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
        for t in range(1, NEUMANN_STEPS + 1):
            yn = np.bincount(bins, weights=y.ravel()[src] * vals, minlength=y.size).reshape(y.shape) + b
            step = np.abs(yn - y).max(axis=1)
            done = live & (step <= tol)
            x[rows[done]] = np.where(free[done], yn[done], x[rows[done]])
            solved |= done
            live &= ~done
            if t in (16, 32, 64, 128):
                if t > 16:  # a live row's step at t/2 was above its stop, so positive
                    rate = np.minimum(np.divide(step, half, out=np.ones_like(step), where=live), 1.0)
                    live &= step * rate ** ((NEUMANN_STEPS - t) / (t // 2)) <= tol
                half = step
            if not live.any():
                break
            y = yn
        rows = rows[~solved]
        if rows.size:
            x[rows], ok[rows] = solve_patterns(Q.dense, w[rows], c[rows], pattern[rows])
    return np.clip(x, 0.0, w, out=x), ok


def hunt_unique(Q, w, c, opts, from_top, label):
    """Find the unique equilibrium of every block of a stack by map steps and pattern solves.

    ``Q`` (m, k, k) holds the blocks, untransposed, or is one block (1, k, k)
    that every row shares (``P[None]`` for a block that is the whole
    network, or one block at m flows), or an EdgeBlock that every row
    shares, whose pattern solves are ``neumann_patterns``; ``w`` and ``c``
    (m, k) are the rows' capacities and inflows, and ``from_top`` (m,)
    marks the rows that start from w instead of 0. Each row follows its own
    hunt; the stack only shares the arithmetic. Each step applies the map.
    When a block's saturation pattern of Q'x + c (+1 above w, -1 below 0, 0
    within ``tol_class`` of the box) repeats from its previous step and it
    has not solved that pattern yet, the pattern is solved once; a solution
    that reproduces itself under the map is the block's answer, and its map
    carries on from it otherwise. A block whose pattern system is singular
    keeps its iterate. Every step maps, pattern-checks and solves the whole
    live stack: the blocks that do not solve go to the pattern solve fully
    pinned, so they pose no system. A block leaves the stack at the step
    its answer settles. No block solves a pattern twice, and the map
    converges from any point of the box on a block with a unique
    equilibrium, so the hunt ends; ``max_iter`` bounds its steps, and the
    NonConvergenceError then names the first unsettled row i by the
    keywords ``label(i)``. Both checks use ``0.5 * tol_fp`` relative to the
    block's scale: at large scale the map from an exact solve can cycle at
    one ulp. ``c`` is left out of the scale, since a node with |c| far
    above w is clamped exactly.
    """
    s = scale(w)
    gate, band = 0.5 * opts.tol_fp * s, (opts.tol_class * s)[:, None]
    above, below = w + band, -band  # the dead-band's edges
    x = np.where(from_top[:, None], w, 0.0)
    out, rows = np.empty_like(x), np.arange(len(x))  # the answers, and the live rows' places in them
    previous, sparse = _NO_PATTERN, isinstance(Q, EdgeBlock)
    solved = []  # (rows, patterns) of every solve step
    for _ in range(opts.max_iter):
        y = (Q.matvec(x) if sparse else transposed_matvec(Q, x)) + c
        pattern = saturation_pattern(y, above, below)
        exact = (pattern == previous).all(axis=1)
        if np.count_nonzero(exact):
            for hit, seen in solved:
                exact &= ~hit | (seen != pattern).any(axis=1)
            if np.count_nonzero(exact):
                solved.append((exact, pattern))
                pinned = np.where(exact[:, None], pattern, _NO_PATTERN)
                cand, ok = (
                    neumann_patterns(Q, w, c, pinned, gate) if sparse else solve_patterns(Q, w, c, pinned)
                )
                exact = exact & ok  # not in place: ``solved`` keeps the rows that tried
                x = np.where(exact[:, None], cand, x)
                y = (Q.matvec(x) if sparse else transposed_matvec(Q, x)) + c
        xn = np.minimum(np.maximum(y, 0.0), w)
        done = np.abs(xn - x).max(axis=1) <= gate
        settled = np.count_nonzero(done)
        if settled:
            out[rows] = np.where(exact[:, None], x, xn)  # rows still live are written again later
            if settled == len(done):
                return out
            live = ~done
            if not sparse and len(Q) > 1:
                Q = Q[live]
            w, c, gate, above, below, rows, xn, pattern = (
                a[live] for a in (w, c, gate, above, below, rows, xn, pattern)
            )
            solved = [(hit[live], seen[live]) for hit, seen in solved if hit[live].any()]
        x, previous = xn, pattern
    raise NonConvergenceError(
        f"no convergence within {opts.max_iter} iterations",
        last_iterate=x[0],
        iterations=opts.max_iter,
        **label(rows[0]),
    )
