"""Metamorphic properties of the extremes on seeded networks of up to 50 nodes.

Rescaling (w, c) by lam = 10^k, k in [-9, 9], rescales the extremes by lam
and keeps every sink kind and the node partition; relabelling the nodes
permutes the answer; and the extremes agree with plain iteration
(``oracles.py``). Each network is drawn from a numpy seed, so a failing
example is reproduced from its kind and seed alone.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saturnet import Network, classify, extremal_equilibria, node_partition

from conftest import hunt_case, random_network, strongly_connected_routing
from oracles import brute_maximal, brute_minimal

KINDS = ("out_connected", "near_stochastic", "positive_sum", "negative_sum", "core_with_sinks", "random")
CASES = {"kind": st.sampled_from(KINDS), "seed": st.integers(0, 2**32 - 1)}


def core_with_sinks(rng) -> tuple[Network, np.ndarray]:
    """A transient core routing into up to 7 small out-connected or stochastic sets."""
    sizes = rng.integers(1, 5, size=int(rng.integers(1, 8)))
    core = int(rng.integers(1, 51 - sizes.sum()))
    n = core + int(sizes.sum())
    P = np.zeros((n, n))
    P[:core] = rng.random((core, n)) * (rng.random((core, n)) < min(1.0, 6.0 / n))
    P[:core, core:] += 0.05  # every core node reaches some set
    P[:core] *= (rng.uniform(0.5, 1.0, core) / P[:core].sum(axis=1))[:, None]
    start = core
    for m in sizes:
        row_sums = np.ones(m) if rng.random() < 0.5 else rng.uniform(0.3, 0.95, m)
        P[start:start + m, start:start + m] = strongly_connected_routing(rng, m, row_sums)
        start += m
    return Network(P, rng.uniform(0.5, 5.0, n)), rng.uniform(-3.0, 3.0, n)


def make_case(kind, seed) -> tuple[Network, np.ndarray]:
    rng = np.random.default_rng(seed)
    if kind == "core_with_sinks":
        return core_with_sinks(rng)
    if kind == "random":
        net = random_network(rng, n_max=50)
        return net, rng.uniform(-3.0, 3.0, net.n)
    if kind.endswith("_sum"):
        return hunt_case(rng, "nonzero_sum", 1.0 if kind == "positive_sum" else -1.0)
    return hunt_case(rng, kind)


def answer(net, c):
    """Extremes, the kind of each sink keyed by its node set, and the partition."""
    lo, hi = extremal_equilibria(net, c)
    kinds = {frozenset(a.nodes): a.kind for a in classify(net, c)[1]}
    return lo.x, hi.x, kinds, node_partition(net, c, lo)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(k=st.integers(-9, 9).filter(bool), **CASES)
def test_scaling_scales_the_answer(kind, seed, k):
    net, c = make_case(kind, seed)
    lam = 10.0**k
    lo, hi, kinds, part = answer(net, c)
    lo_s, hi_s, kinds_s, part_s = answer(Network(net.P, lam * net.w), lam * c)
    tol = 1e-12 * lam * np.max(net.w)
    np.testing.assert_allclose(lo_s, lam * lo, rtol=0, atol=tol)
    np.testing.assert_allclose(hi_s, lam * hi, rtol=0, atol=tol)
    assert kinds_s == kinds
    assert part_s == part


@settings(max_examples=150, derandomize=True, deadline=None)
@given(**CASES)
def test_relabelling_permutes_the_answer(kind, seed):
    net, c = make_case(kind, seed)
    perm = np.random.default_rng([seed, 1]).permutation(net.n)
    lo, hi, kinds, part = answer(net, c)
    lo_p, hi_p, kinds_p, part_p = answer(Network(net.P[np.ix_(perm, perm)], net.w[perm]), c[perm])
    tol = 1e-12 * np.max(net.w)
    np.testing.assert_allclose(lo_p, lo[perm], rtol=0, atol=tol)
    np.testing.assert_allclose(hi_p, hi[perm], rtol=0, atol=tol)
    assert {frozenset(perm[list(nodes)].tolist()): v for nodes, v in kinds_p.items()} == kinds
    for name in ("surplus", "exposed", "deficit"):
        assert sorted(perm[list(getattr(part_p, name))].tolist()) == list(getattr(part, name))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(**CASES)
def test_extremes_match_plain_iteration(kind, seed):
    net, c = make_case(kind, seed)
    lo, hi = extremal_equilibria(net, c)
    np.testing.assert_allclose(lo.x, brute_minimal(net.P, net.w, c), rtol=0, atol=1e-8)
    np.testing.assert_allclose(hi.x, brute_maximal(net.P, net.w, c), rtol=0, atol=1e-8)
