"""Blocks of at least SPARSE_MIN nodes are hunted on their edge lists.

Map steps there are bincounts over the edges and pattern solves Neumann
iterations with the dense solve as fallback. The answers must agree with the
dense path within the hunt's tolerance, pass the same residual gate, and
keep every row of a stack bit for bit as it is alone. A large sparse network
is certified on its own list of nonzeros, read from P alone: its products
P'x must be the dense ones to within rounding, with every entry of P.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import saturnet._linear
import saturnet.solver
from saturnet import (
    LiabilityData, Network, NonConvergenceError, ShockRay, SolveOptions, classify, decompose, deficiency_set,
    extremal_equilibria, fixed_point_map, fixed_point_residual, from_liabilities, load_input, minimal_equilibrium,
    node_partition, refine, sweep, validate,
)
from saturnet._hunt import hunt_unique
from saturnet._linear import SPARSE_FILL, SPARSE_MIN, DenseBlock, EdgeBlock, diagonal_blocks
from saturnet.decomposition import block_structure, network_block
from saturnet.model import EPS_FEAS
from saturnet.shocks import _chunks, _flow_entries
from saturnet.solver import _SEGMENT, _analyze, _assemble_extremes, _inflows, _routed_in, _take_flows

from conftest import core_feeding_sets, large_blocks, random_network, strongly_connected_routing


def sparse_core(rng, n, row_sums):
    """One strongly connected sparse network with the given row sums and a flow that saturates some nodes."""
    w = rng.uniform(1.0, 10.0, n)
    return Network(strongly_connected_routing(rng, n, row_sums), w), w * rng.uniform(-0.8, 0.6, n)


def large_case(kind, seed):
    """A seeded (net, c) pair with a block of at least SPARSE_MIN nodes of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "sparse_core":
        n = int(rng.integers(600, 1001))
        return sparse_core(rng, n, rng.uniform(0.8, 0.98, n))
    if kind == "near_stochastic_core":
        n = int(rng.integers(600, 1001))
        return sparse_core(rng, n, rng.uniform(0.97, 0.9999, n))
    if kind == "tiny_flow_core":
        # half the rows stochastic, the rest leaking 1e-2, 1e-4 or 1e-6, and
        # flows of about 1e-6·w: most nodes are free, and Q_ff's spectral
        # radius is near 1
        n = int(rng.integers(600, 1001))
        P = strongly_connected_routing(rng, n, 1.0 - np.where(rng.random(n) < 0.5, rng.choice([1e-2, 1e-4, 1e-6], n), 0.0))
        w = rng.uniform(1.0, 10.0, n)
        return Network(P, w), w * rng.uniform(-1e-6, 1e-6, n)
    if kind == "transient":
        return large_blocks(rng, int(rng.integers(SPARSE_MIN, 800)), 3)
    return large_blocks(rng, 8, int(rng.integers(SPARSE_MIN, 800)), stochastic=kind == "stochastic_set")


KINDS = ["sparse_core", "near_stochastic_core", "tiny_flow_core", "transient", "out_connected_set", "stochastic_set"]


def chain(n, damped):
    """A chain i -> i+1 of n nodes and its flow; its n-1 transient nodes form one listed block.

    Damped: ``P[i, i+1] = 0.99``, ``w = 1``, ``c = 0.02``, whose pattern
    solve falls back to the dense one. Otherwise ``P[i, i+1] = 1``,
    ``c[0] = 10`` and every other ``c = 1e-6``: a saturation cascade.
    """
    P = np.zeros((n, n))
    P[np.arange(n - 1), np.arange(1, n)] = 0.99 if damped else 1.0
    c = np.full(n, 0.02) if damped else np.concatenate([[10.0], np.full(n - 1, 1e-6)])
    return Network(P, np.ones(n)), c


@pytest.mark.parametrize(
    "kind, seed",
    [(kind, seed) for kind in KINDS for seed in (1009, 1010, *range(2000, 2025))]
    + [pytest.param("damped_chain", None, id="damped_chain"), pytest.param("cascade_chain", None, id="cascade_chain")],
)
def test_extremes_match_the_dense_path(monkeypatch, kind, seed):
    # forced through the dense operator, every large case keeps its extremes
    # within tol_fp·max w, every set its kind and every node its class
    net, c = chain(600, kind == "damped_chain") if seed is None else large_case(kind, seed)
    opts = SolveOptions()
    results = []
    for sparse_min in (SPARSE_MIN, net.n + 1):
        monkeypatch.setattr(saturnet._linear, "SPARSE_MIN", sparse_min)
        fresh = Network(net.P, net.w)
        lo, hi = extremal_equilibria(fresh, c, opts)
        assert bool(block_structure(fresh).edges) == (sparse_min == SPARSE_MIN)  # listed, then dense
        kinds = [a.kind for a in classify(fresh, c, opts)[1]]
        # refine's pattern solves run on the same operators as the hunt's
        near = np.clip(lo.x * (1.0 + 1e-12 * np.cos(np.arange(net.n))), 0.0, net.w)
        results.append(((lo, hi, refine(fresh, c, near, opts)), kinds, node_partition(fresh, c, lo.x)))
    (sparse, *exact), (dense, *exact_dense) = results
    s = net.w.max()
    for a, b in zip(sparse, dense):
        assert np.abs(a.x - b.x).max() <= opts.tol_fp * s
        assert a.residual <= opts.tol_fp * s
    assert exact == exact_dense


def test_stack_of_flows_as_if_alone():
    # one large shared block at many flows: every row of the hunt, and every
    # flow of the stacked analysis, is bit for bit its single-flow answer
    rng = np.random.default_rng(1013)
    opts = SolveOptions()
    net, c = sparse_core(rng, 700, rng.uniform(0.8, 0.98, 700))
    block = block_structure(net).edges[0]
    flows = c * rng.uniform(0.2, 1.8, (5, net.n))
    w = np.broadcast_to(net.w, flows.shape)
    from_top = np.array([False, True, False, True, True])
    x = hunt_unique(block, w, flows, opts, from_top, None)
    for r in range(len(flows)):
        one = slice(r, r + 1)
        assert x[r].tobytes() == hunt_unique(block, w[one], flows[one], opts, from_top[one], None)[0].tobytes()
    for net, c in (large_blocks(rng, 600, 3), large_blocks(rng, 8, 600)):
        flows = c * rng.uniform(0.2, 1.8, (4, net.n))
        x, res = _assemble_extremes(net, _analyze(net, flows, opts), opts)
        for f in range(len(flows)):
            alone, alone_res = _assemble_extremes(net, _analyze(net, flows[f : f + 1], opts), opts)
            assert x[:, f].tobytes() == alone[:, 0].tobytes()
            assert res[:, f].tobytes() == alone_res[:, 0].tobytes()


def flow_axis_case(case):
    """A network and five flows: sets of four sizes with segments (0), a listed set (1), a listed transient part (2)."""
    rng = np.random.default_rng(1097 + case)
    if case == 0:
        net, c, _ = core_feeding_sets(rng, (1, 2, 3, 4), 4)
        flows = c * rng.uniform(0.5, 1.5, (5, 1))  # a zero own sum stays exactly zero
        flows[:, :4] *= rng.uniform(0.2, 1.8, (5, 4))  # the core's flows
        return net, flows
    net, c = large_blocks(rng, 8, 600, stochastic=True) if case == 1 else large_blocks(rng, 600, 3)
    return net, c * rng.uniform(0.2, 1.8, (5, net.n))


@pytest.mark.parametrize("case", range(3))
def test_verdicts_keep_the_flow_as_their_first_axis(case):
    # _analyze at F flows gives every verdict array a leading flow axis, and
    # row f of each is bit for bit the analysis of flow f alone; the analysis
    # taken at some flows is the analysis of those flows, and names each
    # flow by its place in the whole stack
    net, flows = flow_axis_case(case)
    opts, at = SolveOptions(), lambda f: f"flow {f}"
    found = _analyze(net, flows, opts, at)
    st = found.structure
    assert len(st.edges) == (case > 0) and (list(st.edges) == [-1]) == (case == 2)
    if case == 0:
        assert sum(np.count_nonzero((v.kind == _SEGMENT).any(axis=0)) > 0 for v in found.groups) >= 3
    for f in range(len(flows)):
        alone = _analyze(net, flows[f : f + 1], opts)
        assert found.transient[f].tobytes() == alone.transient[0].tobytes()
        assert found.inflow[f].tobytes() == alone.inflow[0].tobytes()
        for g, v, one in zip(st.groups, found.groups, alone.groups):
            for name, a, b in zip(v._fields, v, one):
                assert a.shape == (len(flows), len(g.sets)) + b.shape[2:] and b.shape[0] == 1, name
                assert a[f].tobytes() == b[0].tobytes(), (name, f)
    keep = np.array([3, 0, 4])
    taken, direct = _take_flows(found, keep), _analyze(net, flows[keep], opts)
    for field in ("c", "transient", "inflow"):
        assert getattr(taken, field).tobytes() == getattr(direct, field).tobytes(), field
    for v, one in zip(taken.groups, direct.groups):
        for name, a, b in zip(v._fields, v, one):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert [taken.at(f) for f in range(len(keep))] == ["flow 3", "flow 0", "flow 4"]


def test_listed_pattern_solve_starts_from_the_given_iterate(monkeypatch):
    # a pattern whose solution is known: a fifth of the nodes pinned, the rest
    # inside the box. Started at the dense solve's answer, the listed solve
    # stops at its first Neumann step. Stacked with rows started at zero and
    # near the answer, which stop later, the steps run until the last row
    # stops, and every row is bit for bit as alone. So is every row of a
    # stack in which one row extrapolates and the other stops before it could.
    rng = np.random.default_rng(1091)
    k = 700
    net, _ = sparse_core(rng, k, rng.uniform(0.8, 0.98, k))
    block = block_structure(net).edges[0]
    pattern = np.where(rng.random(k) < 0.2, rng.choice(np.array([-1, 1], dtype=np.int8), k), np.int8(0))
    target = np.where(pattern > 0, net.w, np.where(pattern < 0, 0.0, net.w * rng.uniform(0.1, 0.9, k)))
    c = np.broadcast_to(target - net.P.T @ target, (3, k))
    w, patterns = np.broadcast_to(net.w, (3, k)), np.broadcast_to(pattern, (3, k))
    gate = 0.5 * SolveOptions().tol_fp * w.max(axis=1)
    dense, _ = block.dense().solve_patterns(w, c, patterns)
    start = np.stack([dense[0], np.zeros(k), target * (1.0 + 1e-9)])
    calls, bincount = [], np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(saturnet._linear.np, "bincount", counting)

    def solve(rows, patterns=patterns, start=start):
        calls.clear()
        x, ok = block.solve_patterns(w[rows], c[rows], patterns[rows], gate[rows], start[rows])
        assert ok.all()
        return x, len(calls) - len(x)  # one bincount per row for what the pinned nodes send, then one per step

    x, steps = solve([0, 1, 2])
    alone = [solve([r]) for r in range(3)]
    assert alone[0][1] == 1
    assert len({n for _, n in alone}) == 3 and steps == max(n for _, n in alone)
    for r, (one, _) in enumerate(alone):
        assert x[r].tobytes() == one[0].tobytes()
        assert np.abs(x[r] - target).max() <= SolveOptions().tol_fp * net.w.max()

    # row 0 has most nodes free and starts at zero; row 1 has one free node,
    # which no edge joins to itself, so its second step is 0
    lone = np.full(k, -1, dtype=np.int8)
    lone[5] = 0
    two = (np.stack([pattern, lone]), np.zeros((2, k)))
    x, steps = solve([0, 1], *two)
    alone = [solve([r], *two) for r in range(2)]
    assert alone[1][1] == 2 < saturnet._linear.NEUMANN_JUMP_EVERY <= steps == alone[0][1]
    for r, (one, _) in enumerate(alone):
        assert x[r].tobytes() == one[0].tobytes()
    assert np.abs(x[0] - target).max() <= SolveOptions().tol_fp * net.w.max()
    # with no extrapolation row 0 takes more steps, and row 1 the same bits
    monkeypatch.setattr(saturnet._linear, "NEUMANN_JUMP_EVERY", saturnet._linear.NEUMANN_STEPS + 1)
    plain = [solve([r], *two) for r in range(2)]
    assert plain[0][1] > alone[0][1] and plain[1][0].tobytes() == alone[1][0].tobytes()


def test_spectral_radius_near_one_falls_back_to_the_dense_solve(monkeypatch):
    # row sums 1 - 1e-7 and one pinned node: the Neumann steps cannot stop
    # within their budget, and the row gets the dense solve's answer bit for
    # bit; the other row is all pinned and poses no system. The block keeps
    # no dense array after the fallback, and no part of P.
    rng = np.random.default_rng(1019)
    k = SPARSE_MIN + 88
    P = strongly_connected_routing(rng, k, np.full(k, 1.0 - 1e-7))
    net = Network(P, rng.uniform(1.0, 10.0, k))
    block = block_structure(net).edges[0]
    w, c = np.broadcast_to(net.w, (2, k)), rng.uniform(-1.0, 1.0, (2, k))
    pattern = np.zeros((2, k), dtype=np.int8)
    pattern[0, 3], pattern[1] = 1, -1
    gate = 0.5 * SolveOptions().tol_fp * w.max(axis=1)
    fallbacks, dense_solve = [], DenseBlock.solve_patterns

    def recording(self, w, c, pattern, gate=None):
        fallbacks.append(len(pattern))
        return dense_solve(self, w, c, pattern, gate)

    monkeypatch.setattr(DenseBlock, "solve_patterns", recording)
    x, ok = block.solve_patterns(w, c, pattern, gate, np.zeros((2, k)))
    assert fallbacks == [1] and ok.all()
    dense, _ = dense_solve(DenseBlock(P[None]), w, c, pattern)
    assert x.tobytes() == dense.tobytes()
    assert vars(block).keys() == {"rows", "cols", "vals", "nodes"}

    # a singular fallback system still marks its row
    monkeypatch.setattr(saturnet._linear, "solve_stack", lambda A, b: np.full(b.shape, np.nan))
    _, ok = block.solve_patterns(w, c, pattern, gate, np.zeros((2, k)))
    assert ok.tolist() == [False, True]


def test_steps_that_follow_no_single_mode_stop_jumping(monkeypatch):
    # refine near the damped chain's minimal equilibrium leaves a run of free
    # nodes whose Neumann steps carry the error down the run, not shrink it
    # by one ratio: the first jump there does not pay, the row jumps no more,
    # and the solve stops within its budget, with no dense fallback
    net, c = chain(600, True)
    lo, _ = extremal_equilibria(net, c)
    near = np.clip(lo.x * (1.0 + 1e-12 * np.cos(np.arange(net.n))), 0.0, net.w)
    fallbacks, dense = [], EdgeBlock.dense
    monkeypatch.setattr(EdgeBlock, "dense", lambda self: fallbacks.append(1) or dense(self))
    x = refine(net, c, near).x
    assert not fallbacks
    assert np.abs(x - lo.x).max() <= SolveOptions().tol_fp * net.w.max()


def test_small_blocks_stay_dense():
    # every block below SPARSE_MIN is hunted dense, so it keeps no edge list
    net, _ = large_blocks(np.random.default_rng(1021), SPARSE_MIN - 1, SPARSE_MIN - 1)
    st = block_structure(net)
    assert st.transient.size == SPARSE_MIN - 1 and not st.edges


def two_sets(rng, k, per_node):
    """Two out-connected trapping sets of k nodes, about ``per_node[s]`` edges per node in set s, and a flow."""
    P = np.zeros((2 * k, 2 * k))
    for s, d in enumerate(per_node):
        B = rng.random((k, k)) * (rng.random((k, k)) < d / k)
        np.fill_diagonal(B, 0.0)
        B[np.arange(k), np.roll(np.arange(k), -1)] += 0.5  # a covering cycle
        P[s * k : (s + 1) * k, s * k : (s + 1) * k] = B / B.sum(axis=1)[:, None] * rng.uniform(0.8, 0.98, (k, 1))
    w = rng.uniform(1.0, 10.0, 2 * k)
    return Network(P, w), w * rng.uniform(-0.8, 0.6, 2 * k)


def test_dense_large_blocks_stay_dense(monkeypatch):
    # a set of SPARSE_MIN nodes or more whose edges fill more than SPARSE_FILL
    # of its block is hunted dense; in one size group with a sparse set, the
    # sparse set is a stack of its own and the dense one joins the rest, and
    # every flow is still bit for bit as alone and within tol_fp of the dense path
    rng = np.random.default_rng(1031)
    k = SPARSE_MIN + 8
    net, c = two_sets(rng, k, (4, 4 * SPARSE_FILL * k))
    st = block_structure(net)
    assert list(st.edges) == [0] and len(st.edges[0].rows) <= SPARSE_FILL * k**2
    assert np.count_nonzero(net.P[k:, k:]) > SPARSE_FILL * k**2
    opts = SolveOptions()
    flows = c * rng.uniform(0.2, 1.8, (3, net.n))
    x, _ = _assemble_extremes(net, _analyze(net, flows, opts), opts)
    monkeypatch.setattr(saturnet._linear, "SPARSE_MIN", net.n + 1)
    dense, _ = _assemble_extremes(Network(net.P, net.w), _analyze(Network(net.P, net.w), flows, opts), opts)
    assert np.abs(x - dense).max() <= opts.tol_fp * net.w.max()
    monkeypatch.undo()
    for f in range(len(flows)):
        alone, _ = _assemble_extremes(net, _analyze(net, flows[f : f + 1], opts), opts)
        assert x[:, f].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("per_node", [(4, 4), (4, 40)])
def test_hunt_error_names_the_first_flow_at_fault(monkeypatch, per_node):
    # set 0 settles at flow 0 (its inflow is negative throughout) and fails
    # at flow 1, set 1 fails at both: whether the sets are hunted as stacks
    # of their own or as one dense stack, the error names flow 0 and set 1
    rng = np.random.default_rng(1033)
    k = SPARSE_MIN + 8
    net, c = two_sets(rng, k, per_node)
    flows = np.stack([np.concatenate([-net.w[:k], c[k:]]), c])
    opts = SolveOptions(max_iter=1)
    named = []
    for sparse_min in (SPARSE_MIN, net.n + 1):
        monkeypatch.setattr(saturnet._linear, "SPARSE_MIN", sparse_min)
        fresh = Network(net.P, net.w)
        assert len(block_structure(fresh).edges) == (sparse_min == SPARSE_MIN) * (1 + (per_node[1] == 4))
        with pytest.raises(NonConvergenceError) as err:
            _assemble_extremes(fresh, _analyze(fresh, flows, opts, at=lambda f: f"flow {f}"), opts)
        named.append((err.value.block, err.value.at))
    assert named == [(1, "flow 0")] * 2


def with_entry(net, value):
    """``net`` with ``value`` written into a zero entry off the diagonal of row 0, and that entry."""
    P = net.P.copy()
    j = int(np.flatnonzero(P[0] == 0)[1])
    P[0, j] = value
    return Network(P, net.w), j


@pytest.mark.parametrize("kind", KINDS)
def test_certification_product_is_the_dense_one(kind):
    # the list holds every nonzero of P, and P'x on it is the dense product
    # to within 4 ulps of sum_i |P_ij x_i| per entry, row by row of a stack
    net, _ = large_case(kind, 1039)
    listed = network_block(net)
    assert (listed.rows * net.n + listed.cols).tolist() == np.flatnonzero(net.P).tolist()
    assert listed.vals.tolist() == net.P[net.P != 0].tolist()
    x = net.w * np.random.default_rng(1039).uniform(0.0, 1.0, (3, net.n))
    got, dense = _routed_in(net, x), DenseBlock(net.P[None]).matvec(x)
    assert np.all(np.abs(got - dense) <= 4 * np.spacing(x @ np.abs(net.P)))
    assert _routed_in(net, x[1]).tobytes() == got[1].tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_certification_reads_tiny_negative_entries(kind):
    # a valid network with an entry of -EPS_FEAS/2 is certified with that
    # entry: its map carries it, and the reported residuals are the dense ones
    base, c = large_case(kind, 1049)
    net, j = with_entry(base, -EPS_FEAS / 2)
    assert net.P[0, j] in network_block(net).vals
    x = np.full(net.n, 0.5) * net.w
    shift = _routed_in(net, x)[j] - _routed_in(Network(base.P, base.w), x)[j]
    assert shift == pytest.approx(-EPS_FEAS / 2 * x[0], rel=1e-6)
    for eq in extremal_equilibria(net, c):
        dense = np.abs(np.clip(net.P.T @ eq.x + c, 0.0, net.w) - eq.x).max()
        assert eq.residual == pytest.approx(dense, abs=1e-15 * net.w.max())
        assert eq.residual == fixed_point_residual(net, c, eq.x)
        assert np.abs(fixed_point_map(net, c, eq.x) - np.clip(net.P.T @ eq.x + c, 0.0, net.w)).max() <= (
            1e-15 * net.w.max()
        )


@pytest.mark.parametrize("kind", KINDS)
def test_certification_gate_still_fires(monkeypatch, kind):
    # the large block's hunted values are shifted 0.3 too low at its first
    # node: the residual gate on the list of nonzeros must name that block
    net, c = large_case(kind, 1051)
    st = block_structure(net)
    assert isinstance(network_block(net), EdgeBlock)
    (l,) = st.edges
    hunt = saturnet.solver.hunt_unique

    def shifted(Q, w, c, opts, from_top, label):
        x = hunt(Q, w, c, opts, from_top, label)
        if isinstance(Q, EdgeBlock):
            x[:, 0] -= 0.3
        return x

    monkeypatch.setattr(saturnet.solver, "hunt_unique", shifted)
    with pytest.raises(NonConvergenceError, match="assembled equilibrium has residual") as err:
        extremal_equilibria(net, c)
    nodes = st.transient if l < 0 else st.decomposition.sinks[l].nodes
    assert err.value.block == (None if l < 0 else l) and list(err.value.nodes) == list(nodes)


@pytest.mark.parametrize("kind", KINDS)
def test_certification_does_not_depend_on_call_order(kind):
    # the residual on a fresh Network equals, bit for bit, its value after the
    # structure and the list were built by extremal_equilibria
    net, c = large_case(kind, 1061)
    lo, hi = extremal_equilibria(Network(net.P, net.w), c)
    fresh = Network(net.P, net.w)
    before = [fixed_point_residual(fresh, c, eq.x) for eq in (lo, hi)]
    image = fixed_point_map(Network(net.P, net.w), c, hi.x)
    again = extremal_equilibria(fresh, c)
    assert [fixed_point_residual(fresh, c, eq.x) for eq in (lo, hi)] == before == [eq.residual for eq in again]
    assert fixed_point_map(fresh, c, hi.x).tobytes() == image.tobytes()


def test_stacked_certification_stays_within_a_row_of_edges(monkeypatch):
    # on a sweep chunk of F flows, the certification product's temporaries
    # are O(F·n + nnz): its result plus one row's products at a time, never
    # one per edge and flow
    rng = np.random.default_rng(1063)
    net, c = large_blocks(rng, 600, 3)
    nnz = network_block(net).rows.size
    part = _chunks(24, _flow_entries(block_structure(net)))[0]
    assert part.stop - part.start >= 8  # a stack of many flows
    extra, product = [], saturnet.solver._routed_in

    def traced(net, x):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = product(net, x)
        extra.append((x.shape, tracemalloc.get_traced_memory()[1] - start))
        return out

    monkeypatch.setattr(saturnet.solver, "_routed_in", traced)
    tracemalloc.start()
    try:
        sweep(net, ShockRay(c, net.w, 0.0, 0.5, part.stop - part.start))
    finally:
        tracemalloc.stop()
    assert extra[0][0] == (2 * (part.stop - part.start), net.n)  # the grid's one chunk, then any crossings
    for (rows, n), peak in extra:
        assert peak <= 8 * rows * n + 3 * 8 * nnz + 8 * n + 2**14


INVARIANCE_SEEDS = [1009, 1010, *range(3000, 3010)]


@pytest.mark.parametrize("seed", INVARIANCE_SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_large_blocks_scale_with_the_units(kind, seed):
    # w and c scaled by 10**k: the extremes scale within 1e-12·λ·max w, and
    # every set keeps its kind, the verdict stays and every node keeps its class
    net, c = large_case(kind, seed)
    base, (_, sinks, unique) = extremal_equilibria(net, c), classify(net, c)
    kinds, part = [a.kind for a in sinks], node_partition(net, c, base[0].x)
    for k in (-9, -3, 3, 9):
        lam = 10.0**k
        scaled = Network(net.P, lam * net.w)
        lo, hi = extremal_equilibria(scaled, lam * c)
        for eq, ref in zip((lo, hi), base):
            assert np.abs(eq.x - lam * ref.x).max() <= 1e-12 * lam * net.w.max()
        _, sinks, verdict = classify(scaled, lam * c)
        assert [a.kind for a in sinks] == kinds and verdict == unique
        assert node_partition(scaled, lam * c, lo.x) == part


@pytest.mark.parametrize("seed", INVARIANCE_SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_large_blocks_follow_a_relabelling(kind, seed):
    # node i of the relabelled network is node perm[i]: the extremes move
    # with it within 1e-12·max w, and the transient part, every set's kind,
    # the verdict and the node partition move with it exactly
    net, c = large_case(kind, seed)
    assert isinstance(network_block(net), EdgeBlock)
    perm = np.random.default_rng(seed).permutation(net.n)
    moved, c_moved = Network(net.P[np.ix_(perm, perm)], net.w[perm]), c[perm]
    results = []
    for network, flow, label in ((net, c, np.arange(net.n)), (moved, c_moved, perm)):
        lo, hi = extremal_equilibria(network, flow)
        x = np.empty((2, net.n))
        x[:, label] = lo.x, hi.x
        dec, sinks, unique = classify(network, flow)
        part = node_partition(network, flow, lo.x)
        results.append((
            x,
            sorted(label[list(dec.transient)].tolist()),
            {frozenset(label[list(a.nodes)].tolist()): a.kind for a in sinks},
            unique,
            [sorted(label[list(nodes)].tolist()) for nodes in (part.surplus, part.exposed, part.deficit)],
        ))
    (x, *exact), (x_moved, *exact_moved) = results
    assert np.abs(x_moved - x).max() <= 1e-12 * net.w.max()
    assert exact_moved == exact


@pytest.mark.parametrize("n", [50, 600])
def test_dense_point_product_is_a_row_of_the_stack(n):
    # a dense network's operator is P itself, shared and not copied, and
    # fixed_point_map at a point is bit for bit its row of a stacked product
    rng = np.random.default_rng(1069 + n)
    P = rng.random((n, n))
    net = Network(P * 0.9 / P.sum(axis=1)[:, None], rng.uniform(1.0, 10.0, n))
    block = network_block(net)
    assert isinstance(block, DenseBlock) and block.Q.shape == (1, n, n) and np.shares_memory(block.Q, net.P)
    x, c = net.w * rng.uniform(0.0, 1.0, (3, n)), rng.uniform(-1.0, 1.0, n)
    stack = np.minimum(np.maximum(block.matvec(x) + c, 0.0), net.w)
    for r in range(len(x)):
        assert fixed_point_map(net, c, x[r]).tobytes() == stack[r].tobytes()


def test_operators_take_and_gather():
    # a shared block, dense or listed, is its own take, with no copy; a dense
    # stack takes its rows; an EdgeBlock's dense form is its block of P,
    # which its edge list holds entry for entry
    rng = np.random.default_rng(1087)
    net, _ = large_blocks(rng, 8, 600)
    st = block_structure(net)
    (block,) = st.edges.values()
    live = np.array([True, False, True])
    assert block.take(live) is block
    k = block.nodes.size
    listed = np.zeros((k, k))
    listed[block.rows, block.cols] = block.vals
    dense = block.dense()
    assert dense.Q.shape == (1, k, k) and np.array_equal(dense.Q[0], listed)
    assert dense.Q.tobytes() == diagonal_blocks(net.P, block.nodes[None]).tobytes()
    assert np.array_equal(dense.Q[0], net.P[np.ix_(block.nodes, block.nodes)])
    shared = DenseBlock(net.P[None])
    assert shared.take(live) is shared and np.shares_memory(shared.take(live).Q, net.P)
    nodes = st.groups[0].nodes  # the 2-node sets
    stack = DenseBlock(diagonal_blocks(net.P, nodes))
    rows = np.arange(len(nodes)) % 2 == 0
    assert stack.take(rows).Q.tobytes() == diagonal_blocks(net.P, nodes[rows]).tobytes()


@pytest.fixture(scope="module")
def large_matrices():
    """P and w of the 125 seeded large cases (5 kinds x seeds 2000-2024), for fresh Networks."""
    return [(net.P, net.w) for kind in KINDS for seed in range(2000, 2025) for net in [large_case(kind, seed)[0]]]


def _listed(net) -> bool:
    return isinstance(network_block(net), EdgeBlock)


def _padded(net) -> Network:
    """``net`` with isolated nodes of capacity 1 appended up to SPARSE_MIN nodes, so listed whatever its fill."""
    P = np.zeros((SPARSE_MIN, SPARSE_MIN))
    P[: net.n, : net.n] = net.P
    return Network(P, np.concatenate([net.w, np.ones(SPARSE_MIN - net.n)]))


def test_row_sums_off_the_scan_judge_like_p_sum(large_matrices):
    # a listed P has its rows summed over their nonzeros in column order, not
    # by P.sum(axis=1): the sums differ by rounding only, not at all on a row
    # of at most two nonzeros, and every judgement made on them (validate,
    # deficiency_set, out_connected) is P.sum's
    rng = np.random.default_rng(2026)
    small = [random_network(rng, n_max) for n_max in (8, 50) for _ in range(320)]
    nets = [Network(P, w) for P, w in large_matrices] + [_padded(net) for net in small[::8]]
    assert all(map(_listed, nets)) and len(nets) > 125
    inexact = 0
    for net in nets:
        P, got = net.P, net._row_sums
        want = P.sum(axis=1)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(P).sum(axis=1))
        few = np.count_nonzero(P, axis=1) <= 2
        assert got[few].tobytes() == want[few].tobytes()
        inexact += np.count_nonzero(got != want)
        report = validate(net)
        assert [v.where for v in report.violations if v.kind == "row_sum"] == [
            (int(i),) for i in np.flatnonzero(want > 1.0 + EPS_FEAS)
        ]
        assert deficiency_set(net) == tuple(np.flatnonzero(want < 1.0 - EPS_FEAS).tolist())
        sinks = decompose(net).sinks
        assert [s.out_connected for s in sinks] == [bool((want[list(s.nodes)] < 1.0 - EPS_FEAS).any()) for s in sinks]
    assert inexact > 0  # the two summation orders do differ somewhere


def _demo_networks():
    for path in sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.json")):
        loaded = load_input(path)
        yield from_liabilities(loaded)[0] if isinstance(loaded, LiabilityData) else loaded[0]


def test_inflows_are_c_plus_what_the_transient_part_routes(large_matrices):
    # the network's own product at the transient values, listed or dense: on
    # the set nodes c + P[T]'x_T up to the rounding of its sums, and bit for
    # bit where a set node takes mass from one transient node at most; a
    # network with no transient node gets c itself
    rng = np.random.default_rng(2027)
    nets = [Network(P, w) for P, w in large_matrices] + list(_demo_networks())
    nets += [random_network(rng, 50) for _ in range(60)]
    single, shared = set(), set()  # the storage kinds with set nodes fed by one, and by several, transient nodes
    eps = np.finfo(float).eps
    for net in nets:
        st = block_structure(net)
        T, S = st.transient, np.flatnonzero(st.set_of >= 0)
        c = rng.uniform(-1.0, 1.0, (2, net.n))
        x_T = rng.uniform(0.0, 1.0, (2, T.size)) * net.w[T]
        got = _inflows(net, st, c, x_T)
        if not T.size:
            assert got is c
            continue
        P_TS = net.P[np.ix_(T, S)]
        want = x_T @ P_TS + c[:, S]
        got = got[:, S]
        assert np.all(np.abs(got - want) <= T.size * eps * (np.abs(x_T) @ np.abs(P_TS)) + eps * np.abs(want))
        feeders = np.count_nonzero(P_TS, axis=0)
        one = feeders <= 1
        assert got[:, one].tobytes() == want[:, one].tobytes()
        if np.any(feeders == 1):
            single.add(_listed(net))
        if np.any(feeders > 1):
            shared.add(_listed(net))
    assert single == shared == {True, False}


def test_block_structure_keeps_no_transient_by_set_part_of_p():
    # a listed network of 1024 transient nodes in a leaking cycle, each feeding
    # its own one-node set: a dense copy of P on the transient rows and the
    # set columns would hold 8 MB; the structure holds O(n)
    k = 1024
    P = np.zeros((2 * k, 2 * k))
    P[np.arange(k), (np.arange(k) + 1) % k] = 0.5
    P[np.arange(k), k + np.arange(k)] = 0.4
    net = Network(P, np.ones(2 * k))
    assert _listed(net)
    tracemalloc.start()
    try:
        st = block_structure(net)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert st.transient.size == k and len(st.decomposition.sinks) == k
    assert held < 2**20


def test_refine_gathers_no_dense_block_of_a_listed_network():
    # a listed network of 1024 transient nodes, each with 3 transient out-edges
    # and one edge to its own one-node set (every other one stochastic):
    # refine at x_min solves on the hunt's edge lists, where a dense transient
    # block would hold 8 MB
    rng, k = np.random.default_rng(1024), 1024
    P = np.zeros((2 * k, 2 * k))
    for i in range(k):
        P[i, rng.choice(k, 3, replace=False)] = rng.uniform(0.05, 0.2, 3)
        P[i, k + i] = rng.uniform(0.1, 0.3)
    P[np.arange(k, 2 * k, 2), np.arange(k, 2 * k, 2)] = 1.0
    net, c = Network(P, rng.uniform(1.0, 2.0, 2 * k)), rng.uniform(-1.0, 1.0, 2 * k)
    lo = minimal_equilibrium(net, c)
    assert _listed(net) and list(block_structure(net).edges) == [-1]
    tracemalloc.start()
    try:
        refined = refine(net, c, lo.x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(refined.x - lo.x).max() <= SolveOptions().tol_fp * net.w.max()
    assert peak < 2**20
