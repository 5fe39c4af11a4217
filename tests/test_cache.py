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
from saturnet.decomposition import block_structure, diagonal_blocks

from conftest import C_STAR, TRIANGLE_P, TRIANGLE_W, random_network, zero_sum_flow


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
