from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import saturnet._linear
from saturnet import (
    EPS_FEAS,
    InputError,
    Network,
    decompose,
    decomposition,
    deficiency_set,
    is_out_connected,
    strongly_connected_components,
    validate,
)
from saturnet._linear import SPARSE_MIN, EdgeBlock
from saturnet.decomposition import network_block

from conftest import random_network
from oracles import power_radius


def two_rings_network() -> Network:
    """A 4-node ring draining into a second 4-node ring (nodes 4..7)."""
    P = np.zeros((8, 8))
    for i in range(4):
        P[i, (i + 1) % 4] = 0.8
    P[1, 4] = 0.2
    for i in range(4, 8):
        P[i, 4 + (i - 4 + 1) % 4] = 1.0
    return Network(P, np.ones(8))


class TestDecompose:
    def test_strongly_connected_demo(self, triangle):
        dec = decompose(triangle)
        assert dec.transient == ()
        assert len(dec.sinks) == 1
        assert dec.sinks[0].nodes == (0, 1, 2)
        assert dec.sinks[0].out_connected is False

    def test_ring_feeding_ring(self):
        dec = decompose(two_rings_network())
        assert dec.transient == (0, 1, 2, 3)
        assert len(dec.sinks) == 1
        assert dec.sinks[0].nodes == (4, 5, 6, 7)
        assert dec.sinks[0].out_connected is False

    def test_single_node_no_edges(self):
        dec = decompose(Network([[0.0]], [1.0]))
        assert dec.transient == ()
        assert dec.sinks[0].nodes == (0,)
        assert dec.sinks[0].out_connected is True

    def test_json_shape(self, triangle):
        obj = decompose(triangle).to_json_dict()
        assert obj == {
            "transient": [],
            "sinks": [{"nodes": [0, 1, 2], "out_connected": False}],
        }

    def test_partition_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            net = random_network(rng)
            dec = decompose(net)
            all_nodes = sorted(dec.transient + sum((s.nodes for s in dec.sinks), ()))
            assert all_nodes == list(range(net.n))
            for sink in dec.sinks:
                idx = np.array(sink.nodes)
                outside = np.setdiff1d(np.arange(net.n), idx)
                # no edge leaves a trapping set
                if outside.size:
                    assert not np.any(net.P[np.ix_(idx, outside)] > 0)
                # irreducible: one strong component
                sub = net.P[np.ix_(idx, idx)]
                assert len(strongly_connected_components(sub > 0)) == 1
                if not sink.out_connected:
                    # non-out-connected sinks are row-stochastic blocks
                    assert np.all(np.abs(sub.sum(axis=1) - 1.0) <= EPS_FEAS)

    def test_components_match_reachability_closure(self):
        # oracle: i and j share a component iff each reaches the other
        rng = np.random.default_rng(13)
        for _ in range(120):
            n = int(rng.integers(1, 12))
            adj = rng.random((n, n)) < rng.uniform(0.05, 0.5)
            reach = adj | np.eye(n, dtype=bool)
            for _ in range(n):
                reach = reach | (reach @ reach)
            mutual = reach & reach.T
            oracle = sorted(
                sorted(set(np.nonzero(mutual[i])[0].tolist()))
                for i in range(n)
            )
            oracle = sorted({tuple(c) for c in oracle})
            got = sorted(tuple(c) for c in strongly_connected_components(adj))
            assert got == oracle

    def test_components_in_reverse_topological_order(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            adj = rng.random((n, n)) < 0.3
            comps = strongly_connected_components(adj)
            position = {}
            for k, comp in enumerate(comps):
                for v in comp:
                    position[v] = k
            for i in range(n):
                for j in np.nonzero(adj[i])[0]:
                    if position[i] != position[j]:
                        # edges point to components listed earlier
                        assert position[j] < position[i]

    def test_components_need_a_square_adjacency(self):
        # rows and columns must name the same nodes: a 2x3 matrix is no graph,
        # with or without an edge into its third column
        into_column_2 = np.zeros((2, 3), dtype=bool)
        into_column_2[0, 2] = True
        for adj in (np.zeros((2, 3), dtype=bool), into_column_2, np.zeros(3, dtype=bool), np.ones((2, 2, 2), dtype=bool)):
            with pytest.raises(InputError, match=rf"^adjacency must be a square matrix, got shape \({adj.shape[0]},"):
                strongly_connected_components(adj)
        assert strongly_connected_components([[False, True], [True, False]]) == [[0, 1]]

    def test_label_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            net = random_network(rng, n_max=7)
            perm = rng.permutation(net.n)
            Pp = net.P[np.ix_(perm, perm)]
            netp = Network(Pp, net.w[perm])
            dec = decompose(net)
            decp = decompose(netp)
            # relabel the original decomposition through the permutation
            inv = np.empty(net.n, dtype=int)
            inv[perm] = np.arange(net.n)
            relabeled_sinks = sorted(
                tuple(sorted(inv[list(s.nodes)])) for s in dec.sinks
            )
            assert relabeled_sinks == sorted(s.nodes for s in decp.sinks)
            assert sorted(inv[list(dec.transient)]) == list(decp.transient)


class TestDeficiencySet:
    def test_stochastic_matrix_has_none(self, triangle):
        assert deficiency_set(triangle) == ()

    def test_zero_matrix_all(self):
        assert deficiency_set(Network(np.zeros((3, 3)), np.ones(3))) == (0, 1, 2)

    def test_liability_example_row(self):
        net = Network([[0.0, 0.8], [1.0, 0.0]], [5.0, 4.0])
        assert deficiency_set(net) == (0,)


class TestIsOutConnected:
    def test_proper_subset_of_irreducible_stochastic(self, triangle):
        assert is_out_connected(triangle, [0, 1]) is True

    def test_whole_stochastic_graph(self, triangle):
        assert is_out_connected(triangle, [0, 1, 2]) is False

    def test_single_deficient_node(self):
        net = Network(np.zeros((2, 2)), np.ones(2))
        assert is_out_connected(net, [0]) is True

    def test_empty_set_rejected(self, triangle):
        with pytest.raises(InputError):
            is_out_connected(triangle, [])
        with pytest.raises(InputError):
            is_out_connected(triangle, [5])

    def test_node_indices_must_be_integers(self, triangle):
        for nodes in ([0.5, 1.7], [0, 1.0], np.array([0.0, 1.0]), [True]):
            with pytest.raises(InputError, match="^node index must be an integer$"):
                is_out_connected(triangle, nodes)
        assert is_out_connected(triangle, np.array([0, 1])) is True

    def test_unreachable_deficiency(self):
        # node 1 cannot reach the deficient node 0 inside {0, 1}
        net = Network([[0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], np.ones(3))
        assert is_out_connected(net, [0, 1]) is False

    def test_out_connected_blocks_have_radius_below_one(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(300):
            net = random_network(rng, n_max=7)
            k = int(rng.integers(1, net.n + 1))
            nodes = sorted(rng.choice(net.n, size=k, replace=False).tolist())
            if is_out_connected(net, nodes):
                sub = net.P[np.ix_(nodes, nodes)]
                assert power_radius(sub) < 1.0 - 1e-9
                checked += 1
        assert checked > 50

    def test_blocks_not_out_connected_have_radius_one(self):
        # sparse, mostly stochastic rows, so many subsets hold a closed class
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 8))
            P = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.6))
            sums = P.sum(axis=1)
            P[sums > 0] /= sums[sums > 0, None]
            P[rng.random(n) < 0.2] *= 0.5
            net = Network(P, np.ones(n))
            nodes = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            if not is_out_connected(net, nodes):
                assert power_radius(net.P[np.ix_(nodes, nodes)]) >= 1.0 - 1e-9
                checked += 1
        assert checked > 50


def _reach(adj: np.ndarray) -> np.ndarray:
    """The reflexive transitive closure of a boolean adjacency matrix."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for _ in range(len(adj)):
        reach = reach | (reach @ reach)
    return reach


def _scanned_network(rng) -> Network:
    """A seeded network of up to 50 nodes with the entries the cheap scans must judge as before.

    Some zero entries move into (-EPS_FEAS, 0), where they are neither an
    edge nor a violation; some networks get entries below -EPS_FEAS, and
    some a row of entries near 1e308, whose sum overflows.
    """
    net = random_network(rng, n_max=50)
    P, n = net.P.copy(), net.n
    zeros = (P == 0) & (rng.random((n, n)) < 0.3)
    P[zeros] = -EPS_FEAS * rng.uniform(0.01, 0.99, np.count_nonzero(zeros))
    if rng.random() < 0.3:
        P[rng.integers(n, size=2), rng.integers(n, size=2)] = -EPS_FEAS * rng.uniform(1.5, 1e9, 2)
    if rng.random() < 0.3:
        P[rng.integers(n), :] = 1e308 * rng.uniform(0.5, 1.0, n)
    return Network(P, net.w)


def test_cheap_scans_match_the_direct_formulas():
    rng = np.random.default_rng(61)
    kinds = set()
    for _ in range(150):
        net = _scanned_network(rng)
        P, w = net.P, net.w
        with np.errstate(over="ignore"):
            sums = P.sum(axis=1)
        want = [("negative_entry", (int(i), int(j))) for i, j in np.argwhere(P < -EPS_FEAS)]
        want += [("row_sum", (int(i),)) for i in np.flatnonzero(sums > 1.0 + EPS_FEAS)]
        want += [("negative_capacity", (int(i),)) for i in np.flatnonzero(w < 0)]
        report = validate(net)
        assert [(v.kind, v.where) for v in report.violations] == want
        kinds |= {v.kind for v in report.violations}
        if want:
            for fn in (decompose, deficiency_set):
                with pytest.raises(InputError, match="invalid network"):
                    fn(Network(P, w))
            continue
        kinds.add("valid")
        assert deficiency_set(net) == tuple(np.flatnonzero(sums < 1.0 - EPS_FEAS).tolist())
        # a trapping set is a class of mutually reaching nodes that reaches nothing else
        reach = _reach(P > 0)
        closed = [i for i in range(net.n) if (reach[i] <= reach[:, i]).all()]
        sinks = sorted({tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in closed})
        dec = decompose(net)
        assert [s.nodes for s in dec.sinks] == sinks
        assert [s.out_connected for s in dec.sinks] == [bool((sums[list(s)] < 1.0 - EPS_FEAS).any()) for s in sinks]
        assert dec.transient == tuple(sorted(set(range(net.n)) - set(closed)))
    assert kinds == {"valid", "negative_entry", "row_sum"}


def test_decompose_of_a_dense_network_stays_within_four_times_p():
    # the strong-component pass walks the int edge arrays, not one Python
    # int per edge, so a full network's decomposition stays O(nnz) in int64
    rng = np.random.default_rng(5)
    n = 600
    P = rng.random((n, n))
    np.fill_diagonal(P, 0.0)
    P *= (rng.uniform(0.8, 0.98, n) / P.sum(axis=1))[:, None]
    net = Network(P, np.ones(n))
    tracemalloc.start()
    try:
        dec = decompose(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.sinks[0].nodes == tuple(range(n)) and dec.sinks[0].out_connected
    assert peak < 4 * net.P.nbytes


def _closure_by_squaring(adj: np.ndarray) -> np.ndarray:
    """``_reach`` by repeated squaring of 0/1 float matrices, for a few hundred nodes."""
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    while True:
        wider = (reach @ reach > 0).astype(float)
        if np.array_equal(wider, reach):
            return reach > 0
        reach = wider


def _routing(rng, adj: np.ndarray) -> np.ndarray:
    """Random weights on the edges of ``adj``; each row sums to 1 or to a value in [0.8, 0.99]."""
    P = adj * rng.uniform(0.1, 1.0, adj.shape)
    sums = P.sum(axis=1)
    target = np.where(rng.random(len(adj)) < 0.5, 1.0, rng.uniform(0.8, 0.99, len(adj)))
    P[sums > 0] *= (target / np.where(sums > 0, sums, 1.0))[sums > 0, None]
    return P


def _large_graphs():
    """Derandomized adjacency matrices of up to about 300 nodes: a cycle, pairs on a core, random."""
    rng = np.random.default_rng(71)
    n = 300
    order = rng.permutation(n)
    cycle = np.zeros((n, n), dtype=bool)
    cycle[order, np.roll(order, -1)] = True
    yield "hamiltonian_cycle", cycle
    core, pairs = 100, 100
    n = core + 2 * pairs
    adj = np.zeros((n, n), dtype=bool)
    adj[:core, :core] = rng.random((core, core)) < 0.03
    a = core + 2 * np.arange(pairs)
    adj[a, a] = adj[a, a + 1] = adj[a + 1, a] = adj[a + 1, a + 1] = True  # a two-node cycle with self-loops
    adj[rng.integers(core, size=3 * pairs), rng.integers(core, n, size=3 * pairs)] = True
    label = rng.permutation(n)
    yield "pairs_on_a_core", adj[np.ix_(label, label)]
    for density in (0.002, 0.005, 0.01, 0.03, 0.1, 0.3):
        n = int(rng.integers(150, 301))
        yield f"random_{density}", rng.random((n, n)) < density


def _assert_components(adj: np.ndarray, comps: list[list[int]], reach: np.ndarray) -> None:
    mutual = reach & reach.T
    assert sorted(map(tuple, comps)) == sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual})
    assert all(comp == sorted(comp) for comp in comps)
    position = np.empty(len(adj), dtype=int)
    for k, comp in enumerate(comps):
        position[comp] = k
    i, j = np.nonzero(adj)
    between = position[i] != position[j]
    assert np.all(position[j][between] < position[i][between])  # edges point to earlier components


@pytest.mark.parametrize("name, adj", [pytest.param(name, adj, id=name) for name, adj in _large_graphs()])
def test_strong_components_and_decomposition_match_the_closure_at_size(name, adj):
    reach = _closure_by_squaring(adj)
    _assert_components(adj, strongly_connected_components(adj), reach)
    rng = np.random.default_rng(len(adj))
    P = _routing(rng, adj)
    sums = P.sum(axis=1)
    dec = decompose(Network(P, np.ones(len(adj))))
    closed = [i for i in range(len(adj)) if (reach[i] <= reach[:, i]).all()]
    sinks = sorted({tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in closed})
    assert [s.nodes for s in dec.sinks] == sinks
    assert [s.out_connected for s in dec.sinks] == [bool((sums[list(s)] < 1.0 - EPS_FEAS).any()) for s in sinks]
    assert dec.transient == tuple(sorted(set(range(len(adj))) - set(closed)))
    if name == "pairs_on_a_core":
        assert sum(len(s.nodes) == 2 for s in dec.sinks) == 100


def test_strong_components_of_a_long_path_need_no_recursion():
    # the DFS from node 0 is 5000 nodes deep, far past Python's recursion limit
    n = 5000
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = True
    assert strongly_connected_components(adj) == [[v] for v in range(n - 1, -1, -1)]


def _core(rng, adj: np.ndarray, nodes: np.ndarray) -> None:
    """A Hamiltonian cycle over ``nodes`` plus two random out-edges a node: one strong component, none of it peeled."""
    adj[nodes, np.roll(nodes, -1)] = True
    adj[np.repeat(nodes, 2), rng.choice(nodes, 2 * nodes.size)] = True


def _walked(monkeypatch) -> list[int]:
    """The node count of every ``_tarjan`` call from here on."""
    walked, tarjan = [], decomposition._tarjan
    monkeypatch.setattr(decomposition, "_tarjan", lambda k, rows, cols: walked.append(k) or tarjan(k, rows, cols))
    return walked


def _peeled_cases():
    """Seeded routing matrices of SPARSE_MIN nodes or more, each with some kind of node the pre-pass peels or must not.

    Each comes with the number of nodes left for Tarjan's pass, counted by
    hand. Each holds at most 1/64 nonzeros, so it is listed unless
    SPARSE_MIN is raised past its size. Labels are shuffled, so no pair
    sits on adjacent labels.
    """
    rng = np.random.default_rng(89)
    core, n = 112, SPARSE_MIN
    C = np.arange(core)

    def case(name, adj, walked, negative=None):
        P = _routing(rng, adj)
        if negative is not None:
            P[negative & (P == 0)] = -EPS_FEAS * rng.uniform(0.01, 0.99)
        label = rng.permutation(len(P))
        return name, P[np.ix_(label, label)], walked

    # 2-cycles with an exit edge, from either node, into the next pair, the last one into a node with only a self-loop
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    _core(rng, adj, C)
    a = core + 2 * np.arange((n - core) // 2)
    adj[a, a + 1] = adj[a + 1, a] = True
    adj[rng.choice(C, a.size), a] = True
    adj[a + rng.integers(2, size=a.size), a + 2] = True  # a + 2 is the next pair's first node, or node n
    adj[n, n] = True
    yield case("open_pairs_with_an_exit", adj, n)
    # closed 2-cycles fed by the core, with a self-loop on neither node, either one or both
    adj = np.zeros((n, n), dtype=bool)
    _core(rng, adj, C)
    adj[a, a + 1] = adj[a + 1, a] = True
    adj[rng.choice(C, a.size), a + rng.integers(2, size=a.size)] = True
    loops = rng.integers(4, size=a.size)
    adj[a[loops & 1 == 1], a[loops & 1 == 1]] = adj[a[loops >= 2] + 1, a[loops >= 2] + 1] = True
    yield case("pairs_with_self_loops", adj, core)
    # nodes with a self-loop: alone, fed by the core, feeding it, or on a cycle through it (not peeled)
    adj = np.zeros((n, n), dtype=bool)
    _core(rng, adj, C)
    v = np.arange(core, n)
    adj[v, v] = True
    fed, feeding = v[v % 4 == 1], v[v % 4 >= 2]
    adj[rng.choice(C, fed.size), fed] = True
    adj[feeding, rng.choice(C, feeding.size)] = True
    adj[rng.choice(C, feeding.size // 2), feeding[::2]] = True
    yield case("self_loop_only_nodes", adj, core + (n - core) // 4)
    # chains of 20 singletons: out of nowhere into the core, out of the core to a dead end, or both
    adj = np.zeros((n, n), dtype=bool)
    _core(rng, adj, C)
    for j, start in enumerate(range(core, n, 20)):
        chain = np.arange(start, min(start + 20, n))
        adj[chain[:-1], chain[1:]] = True
        if j % 3 == 0:
            adj[chain[-1], rng.choice(C)] = True
        elif j % 3 == 1:
            adj[rng.choice(C), chain[0]] = True
    yield case("singleton_chains", adj, n - 7 - 7 - 2 * 6)  # 7, 7 and 6 chains of the three kinds
    # four strong cycles with chords, each feeding the next: every node has an in- and an out-edge
    adj = np.zeros((n, n), dtype=bool)
    for cycle in np.split(np.arange(n), 4):
        _core(rng, adj, cycle)
    tail = rng.integers(n - 128, size=64)
    adj[tail, (tail // 128 + 1) * 128 + rng.integers(128, size=64)] = True
    yield case("nothing_peeled", adj, n)
    # sources feeding closed pairs (some with self-loops) and dead ends: no node is left for Tarjan
    adj = np.zeros((n, n), dtype=bool)
    src, pair, dead = np.arange(150), 150 + 2 * np.arange(150), np.arange(450, n)
    adj[pair, pair + 1] = adj[pair + 1, pair] = True
    adj[pair[::3], pair[::3]] = True
    adj[dead[::2], dead[::2]] = True
    adj[np.repeat(src, 2), rng.choice(np.concatenate([pair, pair + 1, dead]), 2 * src.size)] = True
    yield case("everything_peeled", adj, 0)
    # the pairs and self-loop nodes above, whose would-be exits, in-edges and out-edges are entries in (-EPS_FEAS, 0)
    adj = np.zeros((n, n), dtype=bool)
    _core(rng, adj, C)
    adj[a, a + 1] = adj[a + 1, a] = True
    adj[rng.choice(C, a.size), a] = True
    negative = np.zeros((n, n), dtype=bool)
    negative[a + rng.integers(2, size=a.size), rng.choice(C, a.size)] = True  # an exit from each closed pair
    negative[rng.choice(C, 8), rng.choice(C, 8)] = True
    yield case("negative_entries_within_eps_feas", adj, core, negative)


@pytest.mark.parametrize("storage", ["listed", "dense"])
@pytest.mark.parametrize("P, tarjan_nodes", [pytest.param(P, k, id=name) for name, P, k in _peeled_cases()])
def test_peeled_components_match_the_closure(monkeypatch, P, tarjan_nodes, storage):
    n, adj = len(P), P > 0
    if storage == "dense":
        monkeypatch.setattr(saturnet._linear, "SPARSE_MIN", n + 1)
    net = Network(P, np.ones(n))
    assert isinstance(network_block(net), EdgeBlock) == (storage == "listed")
    reach = _closure_by_squaring(adj)
    mutual = reach & reach.T
    walked = _walked(monkeypatch)
    dec = decompose(net)
    sums = P.sum(axis=1)
    closed = [i for i in range(n) if (reach[i] <= reach[:, i]).all()]
    sinks = sorted({tuple(np.flatnonzero(mutual[i]).tolist()) for i in closed})
    assert [s.nodes for s in dec.sinks] == sinks
    assert [s.out_connected for s in dec.sinks] == [bool((sums[list(s)] < 1.0 - EPS_FEAS).any()) for s in sinks]
    assert dec.transient == tuple(sorted(set(range(n)) - set(closed)))
    # Tarjan walks once, on what is neither a node without an in- or out-edge
    # besides a self-loop nor a two-node trapping set
    others = adj & ~np.eye(n, dtype=bool)
    alone = ~others.any(axis=0) | ~others.any(axis=1)
    assert walked == [tarjan_nodes] == [n - np.count_nonzero(alone) - 2 * sum(len(s) == 2 for s in sinks)]
    order, sizes = decomposition._components(n, *np.nonzero(adj))
    comps = np.split(order, np.cumsum(sizes)[:-1])
    assert sorted(tuple(c.tolist()) for c in comps) == sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual})
    assert all((np.diff(c) > 0).all() for c in comps)


def test_tarjan_walks_only_the_core_of_many_closed_pairs(monkeypatch):
    rng = np.random.default_rng(83)
    core, pairs = 200, 1000
    n = core + 2 * pairs
    adj = np.zeros((n, n), dtype=bool)
    _core(rng, adj, np.arange(core))
    a = core + 2 * np.arange(pairs)
    adj[a, a + 1] = adj[a + 1, a] = True
    adj[a[::2], a[::2]] = True
    adj[rng.integers(core, size=pairs), a + rng.integers(2, size=pairs)] = True
    label = rng.permutation(n)
    P = _routing(rng, adj)[np.ix_(label, label)]
    walked = _walked(monkeypatch)
    dec = decompose(Network(P, np.ones(n)))
    assert len(walked) == 1 and walked[0] <= core
    assert len(dec.sinks) == pairs and all(len(s.nodes) == 2 for s in dec.sinks)
    assert len(dec.transient) == core


def test_decompose_with_peeled_nodes_stays_within_four_times_p(monkeypatch):
    # 10 sources and 15 closed pairs are peeled, and Tarjan walks the dense
    # core relabelled: only its heads are relabelled, and each kept node's
    # count of edges is read off the original list, so the peak stays near a
    # full network's (3.01 times P here; 3.73 with relabelled tails as well)
    rng = np.random.default_rng(5)
    n, core = 600, 560
    P = np.zeros((n, n))
    P[:core, :core] = rng.random((core, core))
    P[:core, core + 10 :] = rng.random((core, n - core - 10))
    P[core : core + 10, :core] = rng.random((10, core))
    np.fill_diagonal(P, 0.0)
    a = core + 10 + 2 * np.arange(15)
    P[a, a + 1] = P[a + 1, a] = 1.0
    P[: core + 10] *= (rng.uniform(0.8, 0.98, core + 10) / P[: core + 10].sum(axis=1))[:, None]
    net = Network(P, np.ones(n))
    walked = _walked(monkeypatch)
    tracemalloc.start()
    try:
        dec = decompose(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == [core]
    assert [s.nodes for s in dec.sinks] == [(i, i + 1) for i in a.tolist()]
    assert peak < 3.25 * net.P.nbytes


MIN_KINDS = ("no_zero", "negative_zero", "negative_within", "negative_beyond")


def _entries_of_kind(rng, kind: str) -> np.ndarray:
    """A seeded P: no zero entry, ``-0.0`` entries, or negative entries within or beyond EPS_FEAS.

    The first kind has up to 60 nodes. The others have SPARSE_MIN nodes or
    up to 59 more, and about half of them hold few enough nonzeros to be
    listed, which reads their minimum off the list.
    """
    if kind == "no_zero":
        n = int(rng.integers(1, 61))
        P = rng.uniform(0.01, 1.0, (n, n))
    else:
        n = SPARSE_MIN + int(rng.integers(0, 60))
        P = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.002, 0.03))
    P *= (rng.uniform(0.8, 1.0, n) / np.maximum(P.sum(axis=1), 1e-300))[:, None]
    zeros = np.flatnonzero(P == 0)
    if kind == "negative_zero":
        P.flat[zeros] = -0.0
    elif kind == "negative_within":
        P.flat[zeros[rng.random(zeros.size) < 0.002]] = -EPS_FEAS * rng.uniform(0.01, 0.99)
    elif kind == "negative_beyond":
        P.flat[rng.integers(n * n, size=2)] = -EPS_FEAS * rng.uniform(1.5, 1e6)
    return P


@pytest.mark.parametrize("kind", MIN_KINDS)
def test_minimum_read_off_the_scan_judges_like_p_min(kind):
    rng = np.random.default_rng([73, MIN_KINDS.index(kind)])
    off_the_scan = 0
    for _ in range(60):
        P = _entries_of_kind(rng, kind)
        w = np.ones(len(P))
        scanned = Network(P, w)
        off_the_scan += isinstance(network_block(scanned), EdgeBlock)
        least = scanned._min_entry
        assert least == float(P.min())
        assert (least < -EPS_FEAS, least < 0) == (P.min() < -EPS_FEAS, P.min() < 0)
        first = Network(P, w)
        report = validate(first)
        late = Network(P, w)
        try:
            decompose(late)
        except InputError as exc:
            assert not report.ok and str(exc) == f"invalid network: {'; '.join(v.message for v in report.violations)}"
            # validated before it is scanned: it keeps the list of its construction, and takes no scan
            assert "_nonzeros" not in late.__dict__
            assert isinstance(network_block(late), EdgeBlock) == isinstance(network_block(scanned), EdgeBlock)
        else:
            assert report.ok and decompose(first) == decompose(late)
        assert validate(late) == report
        assert report.ok == (kind != "negative_beyond")
    assert (off_the_scan == 0) if kind == "no_zero" else off_the_scan >= 15
