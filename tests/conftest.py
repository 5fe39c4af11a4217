from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import saturnet.solver
from saturnet import Network, SinkKind, strongly_connected_components

# 3-node strongly connected stochastic demo network used throughout.
TRIANGLE_P = np.array([[0.0, 0.75, 0.25], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])
TRIANGLE_W = np.array([5.0, 3.0, 2.0])

# Critical flow on the demo network (zero sum, segment of equilibria).
C_STAR = np.array([4.37, -3.31, -1.06])

# Frozen from the per-coordinate line-box intersection: the solution line is
# (4.37 + 0.3 t, -0.0325 + 0.925 t, t) and the box clips t to [0.0325/0.925, 2].
X_MIN_STAR = np.array([4.38054054054054, 0.0, 0.03513513513513514])
X_MAX_STAR = np.array([4.97, 1.8175, 2.0])
CONDITION_STAR = 4.371824324324324  # (2 - 0.0325/0.925) * 2.225

# Stationary direction of the demo network: (0.3, 0.925, 1) / 2.225.
PI_TRIANGLE = np.array([0.3, 0.925, 1.0]) / 2.225

# Shock-ray demo: baseline flow and sensitivity direction, crossing at eps = 9.
C_BASE = np.array([5.0, 2.0, 2.0])
Q_DIR = np.array([0.07, 0.59, 0.34])


@pytest.fixture
def triangle() -> Network:
    return Network(TRIANGLE_P, TRIANGLE_W)


@pytest.fixture
def two_cycle() -> Network:
    return Network(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def random_network(rng, n_max=8) -> Network:
    """Random mixed stochastic/sub-stochastic network with zero diagonal."""
    n = int(rng.integers(1, n_max + 1))
    mask = rng.random((n, n)) < rng.uniform(0.3, 0.9)
    P = rng.random((n, n)) * mask
    np.fill_diagonal(P, 0.0)
    for i in range(n):
        s = P[i].sum()
        if s > 0:
            P[i] /= s
            if rng.random() < 0.5:
                P[i] *= rng.uniform(0.2, 0.95)
    w = rng.uniform(0.0, 5.0, n)
    return Network(P, w)


def random_irreducible_stochastic(rng, n_max=4) -> np.ndarray:
    """Random strongly connected row-stochastic matrix with zero diagonal."""
    n = int(rng.integers(2, n_max + 1))
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(P, 0.0)
    order = rng.permutation(n)
    for i in range(n):  # a covering cycle guarantees strong connectivity
        P[order[i], order[(i + 1) % n]] += rng.uniform(0.3, 1.0)
    P /= P.sum(axis=1)[:, None]
    assert len(strongly_connected_components(P > 0)) == 1
    return P


def zero_sum_flow(rng, n) -> np.ndarray:
    r = rng.uniform(-2.0, 2.0, n)
    return r - r.mean()


def strongly_connected_routing(rng, n, row_sums) -> np.ndarray:
    """Sparse random routing with a covering cycle and the given row sums."""
    P = rng.random((n, n)) * (rng.random((n, n)) < min(1.0, 4.0 / n))
    np.fill_diagonal(P, 0.0)
    order = rng.permutation(n)
    for i in range(n):
        P[order[i], order[(i + 1) % n]] += rng.uniform(0.3, 1.0)
    return P / P.sum(axis=1)[:, None] * row_sums[:, None]


def large_blocks(rng, core, big, small=4, stochastic=False) -> tuple[Network, np.ndarray]:
    """A transient core feeding one trapping set of ``big`` nodes and ``small`` 2-node sets, labels shuffled.

    The core and the big set are sparse and strongly connected. Core rows
    keep 0.5-0.9 of their mass inside the core and send part of the rest to
    one node outside it. The big set is out-connected (row sums 0.8-0.98) or
    stochastic, the small sets leak or not at random, and the flow is
    c = w·U(-0.8, 0.6), so some nodes saturate. Returns (net, c).
    """
    n = core + big + 2 * small
    P = np.zeros((n, n))
    P[:core, :core] = strongly_connected_routing(rng, core, rng.uniform(0.5, 0.9, core))
    sinks = np.arange(core, n)
    P[np.arange(core), rng.choice(sinks, core)] = (1.0 - P[:core].sum(axis=1)) * rng.uniform(0.0, 1.0, core)
    B = slice(core, core + big)
    P[B, B] = strongly_connected_routing(rng, big, np.ones(big) if stochastic else rng.uniform(0.8, 0.98, big))
    for start in range(core + big, n, 2):
        p = rng.uniform(0.1, 0.9)
        P[start : start + 2, start : start + 2] = np.array([[p, 1 - p], [1 - p, p]]) * rng.choice([1.0, 0.9])
    w = rng.uniform(1.0, 10.0, n)
    c = w * rng.uniform(-0.8, 0.6, n)
    order = rng.permutation(n)
    return Network(P[np.ix_(order, order)], w[order]), c[order]


def hunt_case(rng, kind, sign=1.0) -> tuple[Network, np.ndarray]:
    """One seeded (net, c) pair, n up to 50, whose one trapping set is hunted.

    ``out_connected``: row sums in [0.3, 0.95]. ``near_stochastic``: row sums
    around 0.999 and a small flow, where plain iteration creeps.
    ``nonzero_sum``: stochastic, with an inflow sum of the sign of ``sign``.
    """
    n = int(rng.integers(2, 51))
    w = rng.uniform(0.5, 5.0, n)
    if kind == "out_connected":
        P = strongly_connected_routing(rng, n, rng.uniform(0.3, 0.95, n))
        c = rng.uniform(-3.0, 3.0, n)
    elif kind == "near_stochastic":
        P = strongly_connected_routing(rng, n, rng.uniform(0.998, 0.9995, n))
        c = rng.uniform(-1.0, 1.0, n) * w * 10.0 ** rng.uniform(-4.0, -2.0)
    else:
        P = strongly_connected_routing(rng, n, np.ones(n))
        c = rng.uniform(-1.0, 1.0, n)
        c += sign * rng.uniform(0.05, 1.0) / n - c.mean()
    return Network(P, w), c


def hunt_cases(kind, seed, count):
    """``count`` seeded hunt_case pairs; nonzero inflow sums alternate in sign."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        yield hunt_case(rng, kind, (-1.0) ** case)


def core_feeding_sets(rng, sizes, count, core=4):
    """A transient core feeding ``count`` trapping sets of each size in ``sizes``.

    The sets of one size take the four kinds in turn, and all have aperiodic
    dense blocks. The core feeds the out-connected sets and the nonzero-sum sets
    of positive own sum; a zero-sum set gets no inflow from the core and an
    own flow that sums to zero exactly, small for a segment and far outside
    the box (or, for one node, on a zero-capacity node) for a unique verdict.
    Returns (net, c, kinds), kinds in decomposition order.
    """
    layout = [(k, list(SinkKind)[i % 4], i // 4) for k in sizes for i in range(count)]
    n = core + sum(k for k, _, _ in layout)
    P = np.zeros((n, n))
    w = rng.uniform(0.5, 5.0, n)
    c = np.zeros(n)
    P[:core, :core] = rng.uniform(0.0, 0.1, (core, core))
    c[:core] = rng.uniform(0.5, 3.0, core)
    start = core
    for k, kind, i in layout:
        S = slice(start, start + k)
        block = rng.uniform(0.1, 1.0, (k, k))
        P[S, S] = block / block.sum(axis=1, keepdims=True)
        fed = kind is SinkKind.OUT_CONNECTED or (kind is SinkKind.NONZERO_SUM and i % 2 == 0)
        if kind is SinkKind.OUT_CONNECTED:
            P[S, S] *= rng.uniform(0.5, 0.9, (k, 1))
            c[S] = rng.uniform(-1.0, 1.0, k)
        elif kind is SinkKind.NONZERO_SUM:
            c[S] = rng.uniform(-1.0, 1.0, k)
            c[S] += (1.0 if fed else -1.0) * rng.uniform(0.3, 1.0) / k - c[S].mean()
        elif k > 1:
            d = 1.0 / 64 if kind is SinkKind.ZERO_SUM_SEGMENT else 8.0
            c[start], c[start + 1] = -d, d
        elif kind is SinkKind.ZERO_SUM_UNIQUE:
            w[start] = 0.0  # the solution line x = t meets the box [0, 0] in one point
        if fed:
            P[rng.integers(core), S] = rng.uniform(0.01, 0.03, k)
        start += k
    return Network(P, w), c, [kind for _, kind, _ in layout]


def shifted_second_set(monkeypatch):
    """Two 2-node sets hunted as one stack, whose second answer is patched 0.3 too low.

    Set 0 is out-connected (answer 0.2, 0.2), set 1 a 2-cycle with a
    positive inflow sum (answer 1, 0.8). Returns (net, c).
    """
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = 0.5
    P[2, 3] = P[3, 2] = 1.0
    hunt = saturnet.solver.hunt_unique

    def shifted(Q, w, c, opts, from_top, label):
        x = hunt(Q, w, c, opts, from_top, label)
        x[1] -= 0.3
        return x

    monkeypatch.setattr(saturnet.solver, "hunt_unique", shifted)
    return Network(P, np.ones(4)), np.array([0.1, 0.1, 0.4, -0.2])
