"""Graph structure of the routing matrix: trapping sets and the transient part.

The directed graph of P has an edge i -> j wherever P[i][j] > 0 (exact
comparison: routing fractions are data, a written zero means no edge). The
sink components of its strong-component condensation are the irreducible
trapping sets; every other node is transient. A trapping set is
"out-connected" when some of its rows lose mass (sum below 1), in which case
the induced block has spectral radius below one.

None of this depends on the exogenous flow, so :func:`block_structure`
computes it once per (immutable) Network and every analysis reads that copy.
There, the trapping sets are stacked by size (:class:`SizeGroup`), the only
per-set layout, and every reader walks the size groups: ``set_of`` maps
each node to its set, and ``inflows`` gives the effective inflows as one
vector indexed by node, so any reader gathers a group's share by its node
ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linear import stationary_block, transposed_matvec
from .errors import InputError
from .model import EPS_FEAS, Network, require_valid


def _successors(n: int, rows: np.ndarray, cols: np.ndarray) -> list[list[int]]:
    """Per-node successor lists from the row-major edge list of np.nonzero."""
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    cols = cols.tolist()
    return [cols[start:end] for start, end in zip([0] + ends[:-1], ends)]


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm on a boolean adjacency matrix, iteratively.

    Returns components in reverse topological order (every edge leaving a
    component points to a component that appears *earlier* in the list).
    """
    return _tarjan(_successors(adj.shape[0], *np.nonzero(adj)))


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS stack of (node, iterator position)
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pos, len(succ[v])):
                u = succ[v][k]
                if index[u] == -1:
                    work.append((v, k + 1))
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comp.sort()
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


@dataclass(frozen=True)
class SinkComponent:
    nodes: tuple[int, ...]
    out_connected: bool


@dataclass(frozen=True)
class Decomposition:
    """Partition of the node set into transient nodes and trapping sets."""

    transient: tuple[int, ...]
    sinks: tuple[SinkComponent, ...]

    def to_json_dict(self) -> dict:
        return {
            "transient": list(self.transient),
            "sinks": [
                {"nodes": list(s.nodes), "out_connected": s.out_connected}
                for s in self.sinks
            ],
        }


def decompose(net: Network) -> Decomposition:
    """Split the node set into the transient part and irreducible trapping sets.

    Trapping sets are the strong components with no edge leaving them; they
    are reported sorted by smallest member. A trapping set is out-connected
    exactly when one of its rows sums below 1 (its row support is internal,
    so deficiency plus internal strong connectivity is out-connectedness of
    the induced block).
    """
    require_valid(net)
    P = net.P
    rows, cols = np.nonzero(P > 0)
    comps = _tarjan(_successors(net.n, rows, cols))

    label = np.empty(net.n, dtype=np.intp)
    for k, comp in enumerate(comps):
        label[comp] = k
    leaky = np.zeros(len(comps), dtype=bool)  # some edge leaves the component
    leaky[label[rows][label[rows] != label[cols]]] = True
    deficient = np.zeros(len(comps), dtype=bool)
    deficient[label[P.sum(axis=1) < 1.0 - EPS_FEAS]] = True

    sinks = []
    transient: list[int] = []
    for k, comp in enumerate(comps):
        if leaky[k]:
            transient.extend(comp)
        else:
            sinks.append(SinkComponent(tuple(comp), bool(deficient[k])))
    sinks.sort(key=lambda s: s.nodes[0])
    transient.sort()
    return Decomposition(tuple(transient), tuple(sinks))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def diagonal_blocks(P: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The diagonal blocks of P on the node sets ``nodes`` (m, k), stacked (m, k, k).

    A set that spans every node gets ``P[None]``, a view of P.
    """
    return P[None] if nodes.shape[1] == P.shape[0] else P[nodes[:, :, None], nodes[:, None, :]]


class SizeGroup(NamedTuple):
    """Every trapping set of one size k, stacked in decomposition order.

    ``sets`` (m,) are their indices and ``nodes`` (m, k) their node ids.
    ``w`` (m, k) are their capacities, ``stochastic`` (m,) marks the
    stochastic sets and ``stationary`` (m, k) holds their invariant
    probability vectors (zero rows for out-connected sets). Their diagonal
    blocks of P are gathered per call by :func:`diagonal_blocks`.
    """

    sets: np.ndarray
    nodes: np.ndarray
    w: np.ndarray
    stochastic: np.ndarray
    stationary: np.ndarray


@dataclass(frozen=True)
class BlockStructure:
    """Everything the analyses need of a network that does not depend on c.

    Per-set data lives in ``groups``, stacked by set size, and every reader
    walks the groups, so that every set of one size is analysed by array
    operations at once; set l is row
    ``place[l][1]`` of group ``place[l][0]``, and ``set_of`` (n,) gives each
    node's set (-1 on transient nodes). ``sink_nodes`` lists the sets' nodes
    set after set. ``routed`` is P restricted to transient rows and those
    sink-node columns, so the effective inflows of all trapping sets are one
    matvec; it is the only part of P kept here (at most n²/4 entries), and
    diagonal blocks of P are sliced per call.
    """

    decomposition: Decomposition
    transient: np.ndarray
    sink_nodes: np.ndarray
    set_of: np.ndarray
    routed: np.ndarray
    groups: tuple[SizeGroup, ...]
    place: np.ndarray

    def inflows(self, c: np.ndarray, x_T: np.ndarray) -> np.ndarray:
        """Effective inflow of every node at each of F flows, indexed by node (F, n).

        Exogenous flows ``c`` (F, n) plus, on the sink nodes, what the
        transient part at values ``x_T`` (F, k_T) routes in; a set's share at
        flow f is ``inflows(c, x_T)[f, nodes]`` for its node ids.
        """
        inflow = c.copy()
        inflow[:, self.sink_nodes] += transposed_matvec(self.routed[None], x_T)
        return inflow


def _size_group(P: np.ndarray, w: np.ndarray, sets, nodes, stochastic) -> SizeGroup:
    """The stacked data of the sets ``sets``, whose nodes ``nodes`` (m, k) all have one size."""
    stationary = np.zeros(nodes.shape)
    if stochastic.any():
        stationary[stochastic] = stationary_block(diagonal_blocks(P, nodes[stochastic]))
    return SizeGroup(*map(_readonly, (sets, nodes, w[nodes], stochastic, stationary)))


def _build_structure(net: Network) -> BlockStructure:
    dec = decompose(net)
    T = np.asarray(dec.transient, dtype=np.intp)
    sink_nodes = np.concatenate([np.asarray(s.nodes, dtype=np.intp) for s in dec.sinks])
    sizes = np.array([len(s.nodes) for s in dec.sinks])
    starts = np.cumsum(sizes) - sizes
    set_of = np.full(net.n, -1, dtype=np.intp)
    set_of[sink_nodes] = np.repeat(np.arange(len(sizes)), sizes)
    stochastic = np.array([not s.out_connected for s in dec.sinks])
    groups = []
    place = np.empty((len(sizes), 2), dtype=np.intp)
    for k in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        sets = np.flatnonzero(sizes == k)
        place[sets, 0], place[sets, 1] = len(groups), np.arange(len(sets))
        nodes = sink_nodes[starts[sets][:, None] + np.arange(k)]
        groups.append(_size_group(net.P, net.w, sets, nodes, stochastic[sets]))
    return BlockStructure(
        dec,
        *map(_readonly, (T, sink_nodes, set_of, net.P[np.ix_(T, sink_nodes)])),
        tuple(groups),
        _readonly(place),
    )


def block_structure(net: Network) -> BlockStructure:
    """The flow-independent structure of ``net``, built on first use.

    It is kept on the Network object (whose arrays are frozen), so every
    later call on the same object reuses it. Raises InputError for an
    invalid network, on every call.
    """
    cached = net.__dict__.get("_block_structure")
    if cached is None:
        cached = _build_structure(net)
        object.__setattr__(net, "_block_structure", cached)
    return cached


def deficiency_set(net: Network) -> tuple[int, ...]:
    """Indices of rows of P that sum to less than 1."""
    require_valid(net)
    row_sums = net.P.sum(axis=1)
    return tuple(int(i) for i in np.nonzero(row_sums < 1.0 - EPS_FEAS)[0])


def is_out_connected(net: Network, nodes) -> bool:
    """Whether the sub-matrix of P induced by ``nodes`` is out-connected.

    A block is out-connected when it has at least one row summing below 1
    and every node of the block can reach such a row inside the block. This
    is exactly the condition under which the block's spectral radius is
    strictly below one. Every node reaches a trapping set of the induced
    sub-network, so that holds iff each of its trapping sets has such a row.
    """
    require_valid(net)
    idx = sorted({int(i) for i in nodes})
    if not idx:
        raise InputError("node set must be nonempty")
    if idx[0] < 0 or idx[-1] >= net.n:
        raise InputError(f"node indices must lie in [0, {net.n - 1}]")
    sub = decompose(Network(net.P[np.ix_(idx, idx)], net.w[idx]))
    return all(sink.out_connected for sink in sub.sinks)
