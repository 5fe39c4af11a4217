"""A Network's flow-independent structure is computed once and shared.

Every public result on one reused Network must equal, bit for bit, the result
on a fresh Network(P, w) built for that call alone, whatever the call order
and whatever flows came before.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from enum import Enum

import numpy as np
import pytest

import saturnet as sn
from saturnet import solver
from saturnet._linear import SPARSE_FILL, SPARSE_MIN, EdgeBlock, diagonal_blocks
from saturnet.decomposition import block_structure, network_block
from saturnet.model import EPS_FEAS, Rows

from conftest import (
    C_STAR,
    TRIANGLE_P,
    TRIANGLE_W,
    hunt_case,
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
    if isinstance(a, (tuple, list, Rows)):  # a Rows item by item, each built on reading
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
    for arr in (st.transient, st.set_of, st.place, *st.groups[0]):
        assert not arr.flags.writeable


def _methods_on_all_of(P, fn) -> set[str]:
    """The names of the array methods that ``fn()`` calls on the whole of ``P`` (on P or a view of all of it)."""
    seen = set()

    def profile(frame, event, arg):
        owner = getattr(arg, "__self__", None) if event == "c_call" else None
        if isinstance(owner, np.ndarray) and owner.size == P.size and np.may_share_memory(owner, P):
            seen.add(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_one_edge_scan_per_network(monkeypatch):
    # construction, decompose, block_structure and the certification read the
    # Network's one scan of its nonzeros, in either call order: P != 0 is
    # scanned once, by np.flatnonzero (which hands np.nonzero its 1-D ravel)
    # and not by a 2-D np.nonzero, and P > 0 is not scanned at all; every
    # array is read-only, a block that spans the network is the network's own
    # list, and the scan is kept, as the list of nonzeros with their values,
    # exactly when the network is large and sparse; a certification of a
    # fresh network keeps no scan apart from that list
    rng = np.random.default_rng(31)
    spanning = strongly_connected_routing(rng, 600, rng.uniform(0.8, 0.98, 600))
    transient = large_blocks(rng, 600, 3)[0].P.copy()
    transient[0, np.flatnonzero(transient[0] == 0)[1]] = -EPS_FEAS / 2  # an entry that is no edge but is nonzero
    full = rng.random((SPARSE_MIN, SPARSE_MIN))
    dense = full / full.sum(axis=1)[:, None] * 0.9
    small = random_network(rng, n_max=7).P
    for P, sparse in ((spanning, True), (transient, True), (dense, False), (small, False)):
        w = np.ones(len(P))
        masks = (("P != 0", P != 0), ("P > 0", P > 0))
        scans = []

        def spy(scan):
            def recording(a):
                for name, mask in masks:
                    if np.shape(a) == mask.shape and np.array_equal(a, mask):
                        scans.append((scan.__name__, name))
                        break
                return scan(a)

            return recording

        for name in ("nonzero", "flatnonzero"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        net = sn.Network(P, w)
        sn.decompose(net)
        rows, cols = net._nonzeros
        st = block_structure(net)
        listed = network_block(net)
        residual = sn.fixed_point_residual(net, np.zeros(net.n), net.w)
        fresh = sn.Network(net.P, net.w)
        assert sn.fixed_point_residual(fresh, np.zeros(net.n), net.w) == residual
        assert "_nonzeros" not in fresh.__dict__
        block_structure(fresh)
        monkeypatch.undo()
        assert scans == [("flatnonzero", "P != 0")] * 2
        assert "_nonzeros" not in net.__dict__ and "_nonzeros" not in fresh.__dict__
        assert isinstance(network_block(fresh), EdgeBlock) == sparse
        assert (rows * net.n + cols).tolist() == np.flatnonzero(net.P).tolist()
        assert isinstance(listed, EdgeBlock) == sparse == (net.n >= SPARSE_MIN and rows.size <= SPARSE_FILL * net.n**2)
        edges = (a for e in st.edges.values() for a in (e.rows, e.cols, e.vals))
        assert not any(a.flags.writeable for a in (rows, cols, *edges))
        if sparse:
            assert listed.rows is rows and listed.cols is cols and not listed.vals.flags.writeable
            assert listed.vals.tolist() == net.P[rows, cols].tolist()
            (block,) = st.edges.values()
            assert block.vals.tolist() == listed.vals.tolist() if P is spanning else len(block.vals) < len(rows)
            assert (block.rows is rows and block.cols is cols) == (P is spanning)
        else:
            assert listed.Q.shape == (1, net.n, net.n) and np.shares_memory(listed.Q, net.P)
        # a listed network's construction, a standalone validate and its
        # block_structure sum and minimise P only over its scan; a dense one
        # takes P.sum at construction and P.min to validate
        frozen = net.P  # read-only and C-ordered: every Network below holds it as it is
        methods = _methods_on_all_of(frozen, lambda: sn.validate(sn.Network(frozen, w)))
        methods |= _methods_on_all_of(frozen, lambda: block_structure(sn.Network(frozen, w)))
        assert not methods & {"sum", "min"} if sparse else {"sum", "min"} <= methods


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


# ------------------- the last single-flow solve, kept on the Network -------------------


def _spy(monkeypatch):
    """Count the analyses and hunts the solver runs from here on."""
    calls = Counter()
    for name in ("_analyze", "hunt_unique"):
        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return calls


def _analyses(c):
    """The public calls that read one flow's analysis, and which of them read its extremes."""
    return {
        "extremal_equilibria": lambda net: sn.extremal_equilibria(net, c),
        "minimal_equilibrium": lambda net: sn.minimal_equilibrium(net, c),
        "maximal_equilibrium": lambda net: sn.maximal_equilibrium(net, c),
        "classify": lambda net: sn.classify(net, c),
        "equilibrium_set": lambda net: sn.equilibrium_set(net, c),
        "loss_jump": lambda net: sn.loss_jump(net, c),
    }


def _memo_cases():
    """(P, w, c): a segment flow, a hunted transient core with big and small sets, and one hunted set."""
    core, c_core = large_blocks(np.random.default_rng(3), 30, 40)
    one, c_one = hunt_case(np.random.default_rng(4), "nonzero_sum")
    return [(TRIANGLE_P, TRIANGLE_W, C_STAR), (core.P, core.w, c_core), (one.P, one.w, c_one)]


def test_one_solve_serves_every_call_on_its_flow(monkeypatch):
    # after extremal_equilibria, the other readers of (net, c) neither analyse
    # nor hunt; after classify alone, an assembly hunts but does not analyse
    for P, w, c in _memo_cases():
        want = {name: _outcome(fn, sn.Network(P, w)) for name, fn in _analyses(c).items()}
        net = sn.Network(P, w)
        sn.extremal_equilibria(net, c)
        calls = _spy(monkeypatch)
        for name, fn in _analyses(c).items():
            assert _same(_outcome(fn, net), want[name]), name
        assert calls == Counter()
        monkeypatch.undo()

        net = sn.Network(P, w)
        calls = _spy(monkeypatch)
        assert _same(_outcome(_analyses(c)["classify"], net), want["classify"])
        assert calls["_analyze"] == 1
        for name in ("equilibrium_set", "loss_jump", "extremal_equilibria"):
            assert _same(_outcome(_analyses(c)[name], net), want[name]), name
        assert calls["_analyze"] == 1
        monkeypatch.undo()


def test_another_flow_or_options_miss_the_slot(monkeypatch):
    net = sn.Network(TRIANGLE_P, TRIANGLE_W)
    one_ulp = C_STAR.copy()
    one_ulp[1] = np.nextafter(one_ulp[1], 0.0)
    zero, negative_zero = np.array([0.0, 1.0, -1.0]), np.array([-0.0, 1.0, -1.0])
    solves = [
        (C_STAR, None),
        (np.array([1.0, 0.5, -0.2]), None),
        (C_STAR, None),
        (one_ulp, None),
        (one_ulp, sn.SolveOptions(tol_fp=1e-11)),
        (one_ulp, sn.SolveOptions(tol_class=1e-8)),
        (one_ulp, sn.SolveOptions(max_iter=999)),
        (zero, None),
        (negative_zero, None),
    ]
    for c, opts in solves:
        want = sn.extremal_equilibria(sn.Network(TRIANGLE_P, TRIANGLE_W), c, opts)
        calls = _spy(monkeypatch)
        assert _same(sn.extremal_equilibria(net, c, opts), want)
        assert calls["_analyze"] == 1
        monkeypatch.undo()
    # the same bytes and equal options hit, however they are passed
    calls = _spy(monkeypatch)
    sn.classify(net, negative_zero.tolist(), sn.SolveOptions())
    sn.equilibrium_set(net, sn.ExogenousFlow(negative_zero))
    assert calls == Counter()


def _arrays(obj):
    """Every array a result holds, through dataclasses, tuples, lists and the items of Rows."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list, Rows)):
        for item in obj:
            yield from _arrays(item)


def test_handed_out_arrays_are_read_only():
    for P, w, c in _memo_cases():
        net = sn.Network(P, w)
        calls = _analyses(c)
        got = [_outcome(fn, net) for fn in calls.values()]
        handed = [a for a in _arrays(got) if a.size]
        for a in handed:
            with pytest.raises(ValueError):
                a.flat[0] = 7.0
        _, found, extremes = net.__dict__["_last_solve"]
        kept = list(_arrays((found[1:-1], extremes)))
        assert not any(a.flags.writeable for a in kept)
        assert any(np.shares_memory(a, b) for a in handed for b in kept)  # views of the slot are handed out
        for name, fn in calls.items():
            assert _same(_outcome(fn, net), _outcome(fn, sn.Network(P, w))), name


def test_a_changed_flow_array_changes_no_kept_solve():
    # the slot keeps its own copy of the flow, not the caller's array
    for P, w, c in _memo_cases():
        net, mine = sn.Network(P, w), c.copy()
        sn.classify(net, mine)
        mine[:] = 0.5 * c
        for name, fn in _analyses(c).items():
            assert _same(_outcome(fn, net), _outcome(fn, sn.Network(P, w))), name


def test_a_failed_solve_keeps_nothing():
    # a transient hunt that fails, and an assembly that fails after its
    # analysis succeeded: each raises the same error again, and a good call
    # after it gets the fresh answer
    for P, w, c in _memo_cases()[1:]:
        net = sn.Network(P, w)
        short = sn.SolveOptions(max_iter=1)
        first = _outcome(lambda n: sn.equilibrium_set(n, c, short), net)
        assert first[0] == "raised" and first[1] == "NonConvergenceError"
        assert _same(_outcome(lambda n: sn.equilibrium_set(n, c, short), net), first)
        assert _same(_outcome(lambda n: sn.extremal_equilibria(n, c, short), net), first)
        assert _same(_outcome(lambda n: sn.classify(n, c, short), net), _outcome(lambda n: sn.classify(n, c, short), sn.Network(P, w)))
        for name, fn in _analyses(c).items():
            assert _same(_outcome(fn, net), _outcome(fn, sn.Network(P, w))), name


def test_threads_on_one_network_get_their_own_flows():
    net, c = large_blocks(np.random.default_rng(8), 40, 60)
    flows = [c, 0.5 * c, c[::-1].copy(), c]
    flows[3][0] = np.nextafter(c[0], np.inf)

    def analysis(net, c):
        return [_outcome(fn, net) for fn in _analyses(c).values()]

    want = [analysis(sn.Network(net.P, net.w), f) for f in flows]
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda k: analysis(net, flows[k % len(flows)]), range(32)))
    finally:
        sys.setswitchinterval(before)
    for k, result in enumerate(got):
        assert _same(result, want[k % len(flows)]), k


def test_an_equilibrium_check_takes_one_product(monkeypatch):
    # node_partition and nash_payments read their residual gate and their
    # pattern or best response off one P'x
    for P, w, c in _memo_cases():
        net = sn.Network(P, w)
        x = sn.minimal_equilibrium(net, c)
        want = [sn.node_partition(net, c, x), sn.nash_payments(net, c, x)]
        products = Counter()

        def counted(*args, _fn=solver._routed_in):
            products["P'x"] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, "_routed_in", counted)
        for k, fn in enumerate((sn.node_partition, sn.nash_payments)):
            assert _same(fn(net, c, x), want[k])
        assert products["P'x"] == 2
        monkeypatch.undo()
