"""Graph structure of the routing matrix: trapping sets and the transient part.

The directed graph of P has an edge i -> j wherever P[i][j] > 0 (exact
comparison: routing fractions are data, a written zero means no edge). The
nonzero entries of P are scanned once per Network (``Network._nonzeros``):
a network listed at construction holds them in its operator, and a dense
one scans them on first use. Everything here reads that scan until the
block structure is built. The sink components of the graph's
strong-component condensation are the irreducible trapping sets; every
other node is transient. A trapping set is "out-connected" when some of its
rows lose mass (sum below 1), in which case the induced block has spectral
radius below one. Whole-array passes peel the one- and two-node strong
components (the trim steps of Hong, Rodia & Olukotun, SC'13), and
Tarjan's algorithm (Tarjan, SIAM J. Comput. 1 (1972)) finds the others;
past it, the labels, the order of the trapping sets and the transient part
are whole-array passes, with no numpy call per set, and
:class:`Decomposition` keeps the sets as columns.

None of this depends on the exogenous flow, so :func:`block_structure`
computes it once per (immutable) Network and every analysis reads that copy.
There, the trapping sets are stacked by size (:class:`SizeGroup`), and
every reader walks the size groups: ``set_of`` maps each node to its set,
and the solver's effective inflows are one vector indexed by node, so any
reader gathers a group's share by its node ids.
The structure keeps no part of P: those inflows are the network's own
product (``network_block``) at the transient values. The transient part
and every trapping set that is large and sparse by the hunt's bounds
(``_linear._is_sparse``) also keep their edge lists as
``_linear.EdgeBlock`` operators (``BlockStructure.edges``), which the hunt
maps and solves without their dense blocks. Every result is certified on
the whole network's operator (``network_block``), which the Network chose
at construction by the same bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from ._linear import DenseBlock, EdgeBlock, _is_sparse, diagonal_blocks, stationary_block
from .errors import InputError
from .model import EPS_FEAS, Network, Rows, _as_int, _readonly, require_valid


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm on a boolean adjacency matrix, iteratively.

    Returns components in reverse topological order (every edge leaving a
    component points to a component that appears *earlier* in the list).
    Raises InputError unless ``adj`` is a square 2-D array.
    """
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InputError(f"adjacency must be a square matrix, got shape {adj.shape}")
    rows, cols = np.nonzero(adj)
    return _tarjan(adj.shape[0], np.bincount(rows, minlength=adj.shape[0]), cols)


def _tarjan(n: int, counts: np.ndarray, cols: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm on n nodes whose successors are listed in ``cols`` in node order, counts[v] of them for node v.

    Node v's successors are ``cols[starts[v]:starts[v + 1]]``, read through
    a memoryview, so no edge becomes a Python object of its own. The DFS
    path is a list of nodes, each node's position of its next successor in
    ``cols`` lives in one list (``resume``), and the scan of a node's
    successors keeps its low-link in a local. A node whose component is
    done gets the index n, above every low-link, so no flag marks the nodes
    on the stack. Each component's nodes are sorted, and the components come
    in reverse topological order.
    """
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    starts = starts.tolist()
    resume = starts[:-1]
    succ = memoryview(cols)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            low_v = low[v]
            k, end = resume[v], starts[v + 1]
            while k < end:
                u = succ[k]
                k += 1
                i = index[u]
                if i == -1:
                    break
                if i < low_v:
                    low_v = i
            else:
                u = -1
            low[v] = low_v
            if u != -1:  # descend to u, back to v's successor k afterwards
                resume[v] = k
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                path.append(u)
                continue
            path.pop()
            if low_v == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    index[u] = n
                    comp.append(u)
                    if u == v:
                        break
                comp.sort()
                components.append(comp)
            if path and low_v < low[path[-1]]:
                low[path[-1]] = low_v
    return components


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strong components of the row-major edge list (rows, cols) of n nodes, as (order, sizes).

    ``order`` lists the nodes component by component, each component
    ascending, and ``sizes`` gives the components' sizes, in no particular
    order of components. Whole-array passes first peel the trivial ones
    (the trim steps of Hong, Rodia & Olukotun, SC'13): a node with no
    in-edge or no out-edge besides a self-loop is a component of its own,
    and two nodes whose only out-neighbour besides themselves is each other
    form one (no edge leaves the pair). Tarjan's pass then walks the
    subgraph of the other nodes, relabelled to them, or the edge list
    itself when nothing was peeled. A peeled node lies on no cycle with a
    node outside its component, so the rest has the same components.
    """
    count = np.bincount(rows, minlength=n)
    loops = rows[rows == cols]
    out, into = count.copy(), np.bincount(cols, minlength=n)
    out[loops] -= 1
    into[loops] -= 1
    single = np.flatnonzero((out == 0) | (into == 0))
    # the one out-neighbour besides itself of each node that has one: its
    # first edge, or the second when the first is its self-loop
    starts = np.cumsum(count) - count
    v = np.flatnonzero(out == 1)
    first = cols[starts[v]]
    nxt = np.full(n, -1, dtype=np.intp)
    nxt[v] = cols[starts[v] + (first == v)]
    u = nxt[v]
    a = v[(v < u) & (nxt[u] == v)]
    pairs = np.stack([a, nxt[a]], axis=1).ravel()

    rest = np.ones(n, dtype=bool)
    rest[single] = rest[pairs] = False
    keep = np.flatnonzero(rest)
    if keep.size < n:
        # a kept node's edges among the kept are its edges less those to a
        # peeled node; the heads get int32 labels (a dense P of 2**31 nodes
        # cannot exist)
        head, inside = rest[cols], rest[rows]
        count = (count - np.bincount(rows[inside > head], minlength=n))[keep]
        inside &= head
        label = np.full(n, -1, dtype=np.int32)
        label[keep] = np.arange(keep.size, dtype=np.int32)
        cols = label[cols][inside]
    comps = _tarjan(keep.size, count, cols)
    found = np.fromiter(chain.from_iterable(comps), dtype=np.intp, count=keep.size)
    order = np.concatenate([single, pairs, keep[found]])
    sizes = np.repeat([1, 2], [single.size, a.size])
    return order, np.concatenate([sizes, np.fromiter(map(len, comps), dtype=np.intp, count=len(comps))])


@dataclass(frozen=True)
class SinkComponent:
    nodes: tuple[int, ...]
    out_connected: bool


@dataclass(frozen=True)
class Decomposition:
    """Partition of the node set into transient nodes and trapping sets, each SinkComponent built when it is read."""

    transient: tuple[int, ...]
    _nodes: np.ndarray = field(repr=False, compare=False)  # set l is _nodes[_starts[l] : _starts[l + 1]]
    _starts: np.ndarray = field(repr=False, compare=False)
    _out_connected: np.ndarray = field(repr=False, compare=False)
    sinks: Rows = field(init=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "sinks", Rows(self._out_connected.size, self._take))

    def _take(self, ls: np.ndarray) -> list[SinkComponent]:
        """The SinkComponents of the sets ``ls``."""
        sets = zip(self._starts[ls].tolist(), self._starts[ls + 1].tolist(), self._out_connected[ls].tolist())
        return [SinkComponent(tuple(self._nodes[a:b].tolist()), leak) for a, b, leak in sets]

    def to_json_dict(self) -> dict:
        sinks = [{"nodes": list(s.nodes), "out_connected": s.out_connected} for s in self.sinks]
        return {"transient": list(self.transient), "sinks": sinks}


def decompose(net: Network) -> Decomposition:
    """Split the node set into the transient part and irreducible trapping sets.

    Trapping sets are the strong components with no edge leaving them; they
    are reported sorted by smallest member. A trapping set is out-connected
    exactly when one of its rows sums below 1 (its row support is internal,
    so deficiency plus internal strong connectivity is out-connectedness of
    the induced block).

    The network is validated before its nonzeros are read
    (``Network._nonzeros``), so an invalid network is scanned only if
    construction scanned it. The strong components come from
    ``_components``, whose array passes peel the one- and two-node ones, so
    Tarjan's pass walks only the rest. Past it, the labels, the leaks, the
    order of the sets and the transient part are array passes, and the sets
    are kept as columns: no per-set Python runs until a set is read.
    """
    require_valid(net)
    rows, cols = net._nonzeros
    if net._min_entry < 0:  # a valid P's negative entries, within EPS_FEAS, are no edges
        positive = net.P[rows, cols] > 0
        rows, cols = rows[positive], cols[positive]
    order, sizes = _components(net.n, rows, cols)

    # int32 labels (a dense P of 2**31 nodes cannot exist) halve the two
    # per-edge temporaries below
    label = np.empty(net.n, dtype=np.int32)
    label[order] = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    leaky = np.zeros(sizes.size, dtype=bool)  # some edge leaves the component
    tail = label[rows]
    leaky[tail[tail != label[cols]]] = True
    deficient = np.zeros(sizes.size, dtype=bool)
    deficient[label[net._row_sums < 1.0 - EPS_FEAS]] = True

    smallest = order[np.cumsum(sizes) - sizes]  # of each component, which is sorted
    sets = np.flatnonzero(~leaky)
    sets = sets[np.argsort(smallest[sets])]
    member = np.flatnonzero(~leaky[label])
    nodes = member[np.argsort(smallest[label[member]], kind="stable")]  # set by set, each ascending
    starts = np.concatenate([[0], np.cumsum(sizes[sets])])
    columns = map(_readonly, (nodes, starts, deficient[sets]))
    return Decomposition(tuple(np.flatnonzero(leaky[label]).tolist()), *columns)


def network_block(net: Network) -> DenseBlock | EdgeBlock:
    """P as one block operator, as the Network chose it at construction.

    A network that is large and sparse by the hunt's bounds
    (``_linear._is_sparse``) is its list of nonzeros, row-major, with their
    values: diagonal and negative entries and the entries between blocks
    included, so a product on it is P'x itself and shares no arithmetic
    with the hunt's relabelled block lists. Any other is its dense P.
    """
    return net._network_block


class SizeGroup(NamedTuple):
    """Every trapping set of one size k, stacked in decomposition order.

    ``sets`` (m,) are their indices and ``nodes`` (m, k) their node ids.
    ``w`` (m, k) are their capacities, ``stochastic`` (m,) marks the
    stochastic sets and ``stationary`` (m, k) holds their invariant
    probability vectors (zero rows for out-connected sets). Their diagonal
    blocks of P are gathered per call by ``_linear.diagonal_blocks``.
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
    node's set (-1 on transient nodes). No part of P is kept here: diagonal
    blocks of P are sliced per call, and the effective inflows of the sets
    are the network's own product (``network_block``). ``edges`` holds
    the ``EdgeBlock`` of every block that is large and sparse by the hunt's
    bounds (``_linear._is_sparse``), keyed like ``set_of`` (-1 for the
    transient part): the entries P != 0 with both ends in the block,
    relabelled to it (``_block_edges``).
    """

    decomposition: Decomposition
    transient: np.ndarray
    set_of: np.ndarray
    groups: tuple[SizeGroup, ...]
    place: np.ndarray
    edges: dict[int, EdgeBlock]


def group_rows(place: np.ndarray, rows, ls: np.ndarray) -> list:
    """The items of the sets ``ls``, in that order, where ``rows(g, r)`` yields those on rows r of size group g."""
    out, (g_of, r_of) = [None] * len(ls), place[ls].T
    for g in np.flatnonzero(np.bincount(g_of)).tolist():
        k = np.flatnonzero(g_of == g)
        for i, item in zip(k.tolist(), rows(g, r_of[k])):
            out[i] = item
    return out


def _size_group(P: np.ndarray, w: np.ndarray, sets, nodes, stochastic) -> SizeGroup:
    """The stacked data of the sets ``sets``, whose nodes ``nodes`` (m, k) all have one size."""
    stationary = np.zeros(nodes.shape)
    if stochastic.any():
        stationary[stochastic] = stationary_block(diagonal_blocks(P, nodes[stochastic]))
    return SizeGroup(*map(_readonly, (sets, nodes, w[nodes], stochastic, stationary)))


def _block_edges(net: Network, nodes: np.ndarray) -> EdgeBlock | None:
    """The block of P on the sorted node set ``nodes`` as an EdgeBlock: its entries P != 0, relabelled, row-major.

    Its arrays are read-only; a set that spans every node is the network's
    own operator. Negative entries (within ``EPS_FEAS``) are kept with the
    edges, so the hunt solves the block that the dense path solves. None
    when the block is not large and sparse (``_is_sparse``). The values
    come from a listed network's operator, and from P on a dense one.
    """
    block = network_block(net)
    if nodes.size == net.n:
        return block if isinstance(block, EdgeBlock) else None
    rows, cols = net._nonzeros
    label = np.full(net.n, -1, dtype=np.intp)
    label[nodes] = np.arange(nodes.size)
    inside = (label[rows] >= 0) & (label[cols] >= 0)
    rows, cols = rows[inside], cols[inside]
    if not _is_sparse(nodes.size, rows.size):
        return None
    vals = block.vals[inside] if isinstance(block, EdgeBlock) else net.P[rows, cols]
    return EdgeBlock(*map(_readonly, (label[rows], label[cols], vals, nodes)))


def _build_structure(net: Network) -> BlockStructure:
    dec = decompose(net)
    T = np.fromiter(dec.transient, dtype=np.intp, count=len(dec.transient))
    sink_nodes, starts, stochastic = dec._nodes, dec._starts[:-1], ~dec._out_connected
    sizes = np.diff(dec._starts)
    set_of = np.full(net.n, -1, dtype=np.intp)
    set_of[sink_nodes] = np.repeat(np.arange(len(sizes)), sizes)
    groups = []
    place = np.empty((len(sizes), 2), dtype=np.intp)
    for k in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        sets = np.flatnonzero(sizes == k)
        place[sets, 0], place[sets, 1] = len(groups), np.arange(len(sets))
        nodes = sink_nodes[starts[sets][:, None] + np.arange(k)]
        groups.append(_size_group(net.P, net.w, sets, nodes, stochastic[sets]))
    # the blocks large enough to be listed, if sparse enough
    large = [(-1, T)] if _is_sparse(T.size, 0) else []
    large += [(l, sink_nodes[starts[l] : starts[l] + sizes[l]]) for l in np.flatnonzero(_is_sparse(sizes, 0)).tolist()]
    return BlockStructure(
        dec,
        *map(_readonly, (T, set_of)),
        tuple(groups),
        _readonly(place),
        {l: e for l, nodes in large if (e := _block_edges(net, nodes)) is not None},
    )


def block_structure(net: Network) -> BlockStructure:
    """The flow-independent structure of ``net``, built on first use.

    It is kept on the Network object (whose arrays are frozen), so every
    later call on the same object reuses it; the Network's scan of its
    nonzeros is dropped once it is built, unless the network is listed and
    keeps it in its ``network_block``. Raises InputError for an invalid
    network, on every call.
    """
    cached = net.__dict__.get("_block_structure")
    if cached is None:
        cached = _build_structure(net)
        object.__setattr__(net, "_block_structure", cached)
        net.__dict__.pop("_nonzeros", None)
    return cached


def deficiency_set(net: Network) -> tuple[int, ...]:
    """Indices of rows of P that sum to less than 1."""
    require_valid(net)
    return tuple(int(i) for i in np.nonzero(net._row_sums < 1.0 - EPS_FEAS)[0])


def is_out_connected(net: Network, nodes) -> bool:
    """Whether the sub-matrix of P induced by ``nodes`` is out-connected.

    A block is out-connected when it has at least one row summing below 1
    and every node of the block can reach such a row inside the block. This
    is exactly the condition under which the block's spectral radius is
    strictly below one. Every node reaches a trapping set of the induced
    sub-network, so that holds iff each of its trapping sets has such a row.
    """
    require_valid(net)
    idx = sorted({_as_int(i, "node index") for i in nodes})
    if not idx:
        raise InputError("node set must be nonempty")
    if idx[0] < 0 or idx[-1] >= net.n:
        raise InputError(f"node indices must lie in [0, {net.n - 1}]")
    sub = decompose(Network(net.P[np.ix_(idx, idx)], net.w[idx]))
    return bool(sub._out_connected.all())
