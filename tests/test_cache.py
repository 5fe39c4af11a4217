"""A Network's flow-independent structure is computed once and shared.

Every public result on one reused Network must equal, bit for bit, the result
on a fresh Network(P, w) built for that call alone, whatever the call order
and whatever flows came before.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum

import numpy as np
import pytest

import saturnet as sn
from saturnet.decomposition import SPARSE_FILL, SPARSE_MIN, block_structure, diagonal_blocks, nonzero_list
from saturnet.model import EPS_FEAS

from conftest import (
    C_STAR,
    TRIANGLE_P,
    TRIANGLE_W,
    large_blocks,
    random_network,
    strongly_connected_routing,
    zero_sum_flow,
)


def _same(a, b) -> bool:
    """Exact structural equality; arrays must match in shape and every bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, Enum):
        return a is b
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        )
    return type(a) is type(b) and a == b


def _outcome(fn, net):
    """The result of fn(net), or the type and message of what it raised."""
    try:
        return ("ok", fn(net))
    except sn.SaturnetError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _calls(c, n):
    """Every public entry point that reads a Network, for one flow c."""
    ray = sn.ShockRay(c, np.full(n, 0.5), 0.0, 4.0, 9)

    def partition(net):
        return sn.node_partition(net, c, sn.minimal_equilibrium(net, c))

    def refined(net):
        return sn.refine(net, c, sn.maximal_equilibrium(net, c))

    def payments(net):
        return sn.nash_payments(net, c, sn.minimal_equilibrium(net, c))

    def critical(net):
        return [sn.find_critical_eps(net, ray, l) for l in range(len(sn.decompose(net).sinks))]

    return {
        "validate": sn.validate,
        "decompose": sn.decompose,
        "deficiency_set": sn.deficiency_set,
        "is_out_connected": lambda net: sn.is_out_connected(net, range(net.n)),
        "extremal_equilibria": lambda net: sn.extremal_equilibria(net, c),
        "minimal_equilibrium": lambda net: sn.minimal_equilibrium(net, c),
        "maximal_equilibrium": lambda net: sn.maximal_equilibrium(net, c),
        "iterate": lambda net: sn.iterate(net, c, np.zeros(n)),
        "node_partition": partition,
        "refine": refined,
        "classify": lambda net: sn.classify(net, c),
        "equilibrium_set": lambda net: sn.equilibrium_set(net, c),
        "nash_payments": payments,
        "loss_jump": lambda net: sn.loss_jump(net, c),
        "max_jump_norm": lambda net: [sn.max_jump_norm(net, p) for p in (1, 2, math.inf)],
        "find_critical_eps": critical,
        "sweep": lambda net: sn.sweep(net, ray),
        "simulate": lambda net: sn.simulate(net, c, np.zeros(n), t_end=0.5, dt=0.05),
    }


def _check_reused_against_fresh(P, w, flows, rng):
    reused = sn.Network(P, w)
    for c in flows:
        calls = list(_calls(c, reused.n).items())
        for k in rng.permutation(len(calls)):
            name, fn = calls[k]
            got = _outcome(fn, reused)
            want = _outcome(fn, sn.Network(P, w))
            assert _same(got, want), f"{name} differs on a reused Network"


def test_reused_network_matches_fresh_on_random_networks():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        net = random_network(rng, n_max=7)
        flows = [
            rng.uniform(-3.0, 3.0, net.n),
            zero_sum_flow(rng, net.n),
            rng.uniform(-1.0, 4.0, net.n),
        ]
        _check_reused_against_fresh(net.P, net.w, flows, rng)


def test_segment_flow_then_nonzero_flow_on_one_network():
    rng = np.random.default_rng(7)
    nonzero = np.array([1.0, 0.5, -0.2])
    _check_reused_against_fresh(TRIANGLE_P, TRIANGLE_W, [C_STAR, nonzero, C_STAR], rng)
    net = sn.Network(TRIANGLE_P, TRIANGLE_W)
    assert not sn.classify(net, C_STAR)[2]
    assert sn.classify(net, nonzero)[2]


def test_cached_arrays_cannot_be_written():
    net = sn.Network(TRIANGLE_P, TRIANGLE_W)
    _, analyses, _ = sn.classify(net, C_STAR)
    with pytest.raises(ValueError):
        analyses[0].stationary[0] = 1.0
    st = block_structure(net)
    for arr in (st.transient, st.sink_nodes, st.set_of, st.routed, st.place, *st.groups[0]):
        assert not arr.flags.writeable


def test_one_edge_scan_per_network(monkeypatch):
    # decompose, block_structure and the certification read the Network's
    # one scan of its nonzeros, in either call order: P != 0 is scanned once,
    # by np.flatnonzero (which hands np.nonzero its 1-D ravel) and not by a
    # 2-D np.nonzero, and P > 0 is not scanned at all; every array is
    # read-only, a block that spans the network keeps the scan's own rows and
    # cols, and the scan is kept, as the list of nonzeros with their values,
    # exactly when the network is large and sparse; a certification of a
    # fresh network that is not keeps no scan either
    rng = np.random.default_rng(31)
    spanning = sn.Network(strongly_connected_routing(rng, 600, rng.uniform(0.8, 0.98, 600)), np.ones(600))
    P = large_blocks(rng, 600, 3)[0].P.copy()
    P[0, np.flatnonzero(P[0] == 0)[1]] = -EPS_FEAS / 2  # an entry that is no edge but is nonzero
    transient = sn.Network(P, np.ones(len(P)))
    full = rng.random((SPARSE_MIN, SPARSE_MIN))
    dense = sn.Network(full / full.sum(axis=1)[:, None] * 0.9, np.ones(SPARSE_MIN))
    small = random_network(rng, n_max=7)
    for net, sparse in ((spanning, True), (transient, True), (dense, False), (small, False)):
        scans = []

        def spy(scan):
            def recording(a):
                for name, mask in (("P != 0", net.P != 0), ("P > 0", net.P > 0)):
                    if np.shape(a) == mask.shape and np.array_equal(a, mask):
                        scans.append((scan.__name__, name))
                        break
                return scan(a)

            return recording

        for name in ("nonzero", "flatnonzero"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        sn.decompose(net)
        rows, cols = net._nonzeros
        st = block_structure(net)
        listed = nonzero_list(net)
        residual = sn.fixed_point_residual(net, np.zeros(net.n), net.w)
        fresh = sn.Network(net.P, net.w)
        assert sn.fixed_point_residual(fresh, np.zeros(net.n), net.w) == residual
        assert ("_nonzeros" in fresh.__dict__) == sparse
        block_structure(fresh)
        monkeypatch.undo()
        assert scans == [("flatnonzero", "P != 0")] * 2
        assert "_nonzeros" not in net.__dict__ and "_nonzeros" not in fresh.__dict__
        assert (nonzero_list(fresh) is not None) == sparse
        assert (rows * net.n + cols).tolist() == np.flatnonzero(net.P).tolist()
        assert (listed is not None) == sparse == (net.n >= SPARSE_MIN and rows.size <= SPARSE_FILL * net.n**2)
        assert not any(a.flags.writeable for a in (rows, cols, *(a for e in st.edges.values() for a in e)))
        if sparse:
            assert listed.rows is rows and listed.cols is cols and not listed.vals.flags.writeable
            assert listed.vals.tolist() == net.P[rows, cols].tolist()
            (block,) = st.edges.values()
            assert block[2].tolist() == listed.vals.tolist() if net is spanning else len(block[2]) < len(rows)
            assert all(a is b for a, b in zip(block[:2], (rows, cols))) == (net is spanning)


def test_whole_network_block_is_not_copied(triangle):
    blocks = diagonal_blocks(triangle.P, block_structure(triangle).groups[0].nodes)
    assert blocks.shape == (1, 3, 3) and np.shares_memory(blocks, triangle.P)


def test_invalid_network_raises_every_time():
    net = sn.Network([[0.0, 1.5], [-0.2, 0.0]], [1.0, -1.0])
    report = sn.validate(net)
    assert {v.kind for v in report.violations} == {"row_sum", "negative_entry", "negative_capacity"}
    for _ in range(3):
        for fn in (
            sn.require_valid,
            sn.decompose,
            block_structure,
            lambda n: sn.extremal_equilibria(n, [0.0, 0.0]),
            lambda n: sn.classify(n, [0.0, 0.0]),
            lambda n: sn.max_jump_norm(n, 2),
        ):
            with pytest.raises(sn.InputError, match="invalid network"):
                fn(net)
        assert sn.validate(net) == report


def test_network_fields_and_repr_are_unchanged():
    assert tuple(f.name for f in dataclasses.fields(sn.Network)) == ("P", "w")
    net = sn.Network([[0.0]], [1.0])
    before = repr(net)
    sn.equilibrium_set(net, [0.5])
    assert repr(net) == before
