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

The stack is one block operator of ``_linear``, and the hunt calls only
its ``matvec``, ``solve_patterns`` and ``take``, whichever way the block is
stored. On a large shared ``EdgeBlock`` every step of a row still reads
only that row's values, so the bit-for-bit rule holds there too; its
answers differ from the dense path's by rounding only, and the caller's
residual check on the whole network, which reads P and not these lists,
certifies them alike.
"""

from __future__ import annotations

import numpy as np

from ._tol import hunt_gate, scale
from .errors import NonConvergenceError


def saturation_pattern(y, above, below):
    """+1 where the inflow y is above ``above``, -1 below ``below``, else 0.

    The edges are w plus the dead-band and minus the dead-band.
    """
    return (y > above).astype(np.int8) - (y < below)


# equals no saturation pattern, so nothing repeats at a hunt's first step;
# as a pattern to solve it pins every node, so a row marked so poses no system
_NO_PATTERN = np.int8(2)


def hunt_unique(Q, w, c, opts, from_top, label):
    """Find the unique equilibrium of every block of a stack by map steps and pattern solves.

    ``Q`` is a block operator (``_linear.DenseBlock`` or ``EdgeBlock``): a
    stack of m blocks, or one block that every row shares (the whole
    network, or one block at m flows); ``w`` and ``c`` (m, k) are the rows'
    capacities and inflows, and ``from_top`` (m,) marks the rows that start
    from w instead of 0. Each row follows its own hunt; the stack only
    shares the arithmetic. Each step applies the map.
    When a block's saturation pattern of Q'x + c (+1 above w, -1 below 0, 0
    within ``tol_class`` of the box) repeats from its previous step and it
    has not solved that pattern yet, the pattern is solved once (a listed
    block's Neumann steps start from its current iterate); a solution
    that reproduces itself under the map is the block's answer, and its map
    carries on from it otherwise. A block whose pattern system is singular
    keeps its iterate. Every step maps, pattern-checks and solves the whole
    live stack: the blocks that do not solve go to the pattern solve fully
    pinned, so they pose no system. A block leaves the stack at the step
    its answer settles. No block solves a pattern twice, and the map
    converges from any point of the box on a block with a unique
    equilibrium, so the hunt ends; ``max_iter`` bounds its steps, and the
    NonConvergenceError then names the first unsettled row i by the
    keywords ``label(i)``. Both checks use ``_tol.hunt_gate``, ``0.5 *
    tol_fp`` relative to the block's scale: at large scale the map from an
    exact solve can cycle at one ulp. ``c`` is left out of the scale, since
    a node with |c| far above w is clamped exactly.
    """
    s = scale(w)
    gate, band = hunt_gate(opts.tol_fp, s), (opts.tol_class * s)[:, None]
    above, below = w + band, -band  # the dead-band's edges
    x = np.where(from_top[:, None], w, 0.0)
    out, rows = np.empty_like(x), np.arange(len(x))  # the answers, and the live rows' places in them
    previous = _NO_PATTERN
    solved = []  # (rows, patterns) of every solve step
    for _ in range(opts.max_iter):
        y = Q.matvec(x) + c
        pattern = saturation_pattern(y, above, below)
        exact = (pattern == previous).all(axis=1)
        if np.count_nonzero(exact):
            for hit, seen in solved:
                exact &= ~hit | (seen != pattern).any(axis=1)
            if np.count_nonzero(exact):
                solved.append((exact, pattern))
                pinned = np.where(exact[:, None], pattern, _NO_PATTERN)
                cand, ok = Q.solve_patterns(w, c, pinned, gate, x)
                exact = exact & ok  # not in place: ``solved`` keeps the rows that tried
                x = np.where(exact[:, None], cand, x)
                y = Q.matvec(x) + c
        xn = np.minimum(np.maximum(y, 0.0), w)
        done = np.abs(xn - x).max(axis=1) <= gate
        settled = np.count_nonzero(done)
        if settled:
            out[rows] = np.where(exact[:, None], x, xn)  # rows still live are written again later
            if settled == len(done):
                return out
            live = ~done
            Q = Q.take(live)
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
