"""Every tolerance in saturnet: a relative constant times the box scale.

Equilibria lie in [0, w], so the scale of the block or network checked is
s = max w, with no floor: rescaling (w, c) rescales every answer and every
threshold alike, and an all-zero box is held to exact answers. A threshold
on a sum of flows c is the constant times s + |c|_1. Both helpers take a
stack of blocks as well, one block per row, and then give one value per row.
"""

import numpy as np

#: An inflow sum counts as zero below this, relative to s + |c|_1.
ZERO_SUM_REL = 1e-9
#: Rounding slack of a value computed from flows or segment bounds.
ROUND_REL = 1e-12
#: Rounding slack of a solution line that touches the box.
TOUCH_REL = 1e-15


def scale(w: np.ndarray):
    """s = max w, the unit of every tolerance on the box [0, w]."""
    return w.max(axis=-1, initial=0.0)


def flow_tolerance(rel: float, s, c: np.ndarray):
    """``rel * (s + |c|_1)`` for a sum of the flows ``c`` next to a box of scale s."""
    return rel * (s + np.abs(c).sum(axis=-1))


def hunt_gate(tol_fp: float, s):
    """``0.5 * tol_fp * s``: the hunt's settling gate on a block of scale s, which ``refine``'s pattern solves share."""
    return 0.5 * tol_fp * s
