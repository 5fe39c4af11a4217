from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from saturnet import (
    EquilibriumVector,
    ExogenousFlow,
    FileFormatError,
    InputError,
    LiabilityData,
    Network,
    extremal_equilibria,
    from_liabilities,
    load_input,
    network_to_dict,
    saturate,
    validate,
)
from saturnet import _linear, model
from saturnet._fmt import dumps
from saturnet._linear import SPARSE_MIN, DenseBlock, EdgeBlock
from saturnet.decomposition import block_structure, network_block

from conftest import TRIANGLE_P, TRIANGLE_W


class TestSaturate:
    def test_clamps_per_entry(self):
        out = saturate([-1.0, 0.5, 7.0], [5.0, 3.0, 2.0])
        assert np.array_equal(out, [0.0, 0.5, 2.0])

    def test_idempotent_on_box_points(self):
        y = np.array([0.6, 1.85, 2.0])
        assert np.array_equal(saturate(y, [5.0, 3.0, 2.0]), y)

    def test_upper_boundary_fixed(self):
        w = np.array([3.0, 0.0, 1.5])
        assert np.array_equal(saturate(w, w), w)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            saturate([1.0, 2.0], [1.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(InputError):
            saturate([1.0], [-1.0])

    def test_monotone_and_idempotent_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            w = rng.uniform(0, 4, n)
            y = rng.uniform(-5, 8, n)
            bump = rng.uniform(0, 3, n)
            a = saturate(y, w)
            assert np.all(a <= saturate(y + bump, w) + 1e-15)
            assert np.allclose(saturate(a, w), a)


class TestNetwork:
    def test_shape_checks(self):
        with pytest.raises(InputError):
            Network([[0.0, 1.0]], [1.0, 1.0])
        with pytest.raises(InputError):
            Network([[0.0]], [1.0, 2.0])
        with pytest.raises(InputError):
            Network([[np.nan]], [1.0])
        # every reduction over the nodes (residuals, iterate's steps) relies on n >= 1
        with pytest.raises(InputError, match="at least one node"):
            Network(np.zeros((0, 0)), np.zeros(0))

    def test_immutability(self, triangle):
        with pytest.raises(ValueError):
            triangle.P[0, 0] = 9.0
        with pytest.raises(ValueError):
            triangle.w[0] = 9.0

    def test_frozen_arrays_are_shared_and_writable_ones_copied(self, triangle):
        again = Network(triangle.P, triangle.w)
        assert again.P is triangle.P and again.w is triangle.w
        assert not again.P.flags.writeable and not again.w.flags.writeable
        P, w = np.array(TRIANGLE_P), np.array(TRIANGLE_W)
        net = Network(P, w)
        assert not np.shares_memory(net.P, P) and not np.shares_memory(net.w, w)
        P[0, 1] = w[0] = 9.0
        assert net.P[0, 1] == 0.75 and net.w[0] == 5.0
        # a read-only view of writable memory is copied too
        view = P.view()
        view.setflags(write=False)
        assert not np.shares_memory(Network(view, w).P, P)

    def test_read_only_fortran_matrix_is_frozen_in_c_order(self):
        # every product with P then reads one layout, whatever was passed in
        P = np.asfortranarray(TRIANGLE_P)
        P.setflags(write=False)
        frozen = Network(P, TRIANGLE_W).P
        assert frozen.flags.c_contiguous and not frozen.flags.writeable
        assert frozen.tobytes() == np.ascontiguousarray(TRIANGLE_P).tobytes()

    def test_a_list_is_frozen_in_place(self):
        # the array built from a list is nobody else's: one P is allocated, not two
        n = 300
        P = np.full((n, n), 0.5 / n).tolist()
        tracemalloc.start()
        try:
            net = Network(P, [1.0] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * net.P.nbytes
        assert net.P.flags.owndata and not net.P.flags.writeable

    def test_finiteness_is_judged_from_the_row_sums(self):
        big = Network([[1e308, 1e308], [0.0, 0.5]], [1.0, 1.0])
        assert big._row_sums.tolist() == [np.inf, 0.5]
        assert not big._row_sums.flags.writeable
        assert [v.where for v in validate(big).violations] == [(0,)]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="^P contains non-finite entries$"):
                Network([[0.0, bad], [0.0, 0.5]], [1.0, 1.0])
        with pytest.raises(InputError, match="^P contains non-finite entries$"):
            Network([[np.inf, -np.inf], [0.0, 0.5]], [1.0, 1.0])

    def test_finiteness_is_judged_from_the_scan_of_a_sparse_p(self):
        # one or two entries a row of at least SPARSE_MIN are listed: the
        # scanned values are checked and summed, not P's rows
        n = 600
        P = np.zeros((n, n))
        P[np.arange(n), (np.arange(n) + 1) % n] = 0.5
        P[np.arange(0, n, 2), (np.arange(0, n, 2) + 3) % n] = 0.25
        assert isinstance(Network(P, np.ones(n))._network_block, EdgeBlock)
        for bad in (np.nan, np.inf, -np.inf):
            Q = P.copy()
            Q[5, 9] = bad
            with pytest.raises(InputError, match="^P contains non-finite entries$"):
                Network(Q, np.ones(n))
        P[0, 1] = P[0, 2] = 1e308
        big = Network(P, np.ones(n))
        assert isinstance(big._network_block, EdgeBlock)
        assert big._row_sums[0] == np.inf and np.isfinite(big._row_sums[1:]).all()
        assert [(v.kind, v.where) for v in validate(big).violations] == [("row_sum", (0,))]
        for m in (SPARSE_MIN, n):
            zero = Network(np.zeros((m, m)), np.ones(m))
            assert isinstance(zero._network_block, EdgeBlock)
            assert zero._row_sums.dtype == np.float64 and zero._row_sums.tolist() == [0.0] * m
            assert not zero._row_sums.flags.writeable

    def test_a_dense_network_holds_no_mask(self):
        # a network of SPARSE_MIN nodes or more counts its mask P != 0 to
        # decide how it holds P; a dense one keeps nothing of the mask (n²
        # bytes), neither after construction nor after block_structure
        rng = np.random.default_rng(41)
        n = 2 * SPARSE_MIN
        P = rng.random((n, n)) * (rng.random((n, n)) < 1 / 16)
        P[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a covering cycle: one out-connected set
        P *= 0.9 / P.sum(axis=1)[:, None]
        P.setflags(write=False)  # held as it is, not copied
        tracemalloc.start()
        try:
            net = Network(P, np.ones(n))
            built = tracemalloc.get_traced_memory()[0]
            st = block_structure(net)
            structured = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert net.P is P and len(st.decomposition.sinks) == 1 and not st.edges
        assert built < P.nbytes / 16 and structured < P.nbytes / 16  # the mask alone is P.nbytes / 8
        assert isinstance(network_block(net), DenseBlock)

    def test_a_network_between_the_old_bounds_is_dense_throughout(self, tmp_path):
        # 12 nonzeros a row of 600 nodes fill 1/50 of P, above SPARSE_FILL: the
        # network is dense at construction (its rows summed by P.sum), in
        # network_block and in block_structure, and the byte reader declines
        # its file written with literal 0s
        rng = np.random.default_rng(43)
        n = 600
        P = np.zeros((n, n))
        for row in P:
            row[rng.choice(n, 12, replace=False)] = rng.uniform(0.01, 0.07, 12)
        text = _compact([[repr(v) if v else "0" for v in row] for row in P.tolist()], [1.0] * n)
        assert model._sparse_network_object(text.encode()) is None
        path = tmp_path / "net.json"
        path.write_text(text)
        net, _ = load_input(path)
        assert np.array_equal(net.P, P) and np.count_nonzero(P) == n * n / 50
        assert isinstance(net._network_block, DenseBlock)
        assert net._row_sums.tobytes() == P.sum(axis=1).tobytes()
        assert not block_structure(net).edges and isinstance(network_block(net), DenseBlock)

    def test_validate_accepts_demo(self, triangle):
        assert validate(triangle).ok

    def test_validate_flags_row_sum(self):
        net = Network([[0.5, 1.0], [0.0, 0.0]], [1.0, 1.0])
        report = validate(net)
        assert not report.ok
        assert [v.kind for v in report.violations] == ["row_sum"]
        assert report.violations[0].where == (0,)

    def test_validate_flags_negative_capacity(self):
        report = validate(Network([[0.0]], [-1.0]))
        assert [v.kind for v in report.violations] == ["negative_capacity"]

    def test_small_negative_capacity_is_flagged(self):
        # capacities have units: a tiny scale must not hide a negative one
        net = Network([[0.0, 1.0], [1.0, 0.0]], [2e-10, -5e-10])
        assert [v.kind for v in validate(net).violations] == ["negative_capacity"]
        with pytest.raises(InputError, match="invalid network"):
            extremal_equilibria(net, [1e-10, 1e-10])

    def test_validate_flags_negative_entry(self):
        report = validate(Network([[0.0, -0.25], [0.0, 0.0]], [1.0, 1.0]))
        assert any(v.kind == "negative_entry" for v in report.violations)


class TestFlowAndEquilibriumTypes:
    def test_flow_requires_finite(self):
        with pytest.raises(InputError):
            ExogenousFlow([1.0, np.inf])

    def test_equilibrium_vector_records_residual(self):
        eq = EquilibriumVector([1.0, 2.0], 1e-13)
        assert eq.residual == 1e-13
        with pytest.raises(ValueError):
            eq.x[0] = 5.0


class TestFromLiabilities:
    def test_no_internal_obligations(self):
        data = LiabilityData(np.zeros((3, 3)), [1.0, 2, 3], [1.0, 2, 3], [4.0, 0, 1])
        net, flow = from_liabilities(data)
        assert np.array_equal(net.P, np.zeros((3, 3)))
        assert np.array_equal(net.w, [4.0, 0.0, 1.0])
        assert np.array_equal(flow.c, np.zeros(3))

    def test_two_node_conversion(self):
        data = LiabilityData([[0.0, 4.0], [4.0, 0.0]], [3.0, 1.0], [1.0, 1.0], [1.0, 0.0])
        net, flow = from_liabilities(data)
        assert np.allclose(net.w, [5.0, 4.0])
        assert np.allclose(net.P, [[0.0, 0.8], [1.0, 0.0]])
        assert np.allclose(flow.c, [2.0, 0.0])

    def test_zero_obligation_row_has_no_division_error(self):
        data = LiabilityData([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        net, _ = from_liabilities(data)
        assert np.array_equal(net.P[0], [0.0, 0.0])
        assert net.w[0] == 0.0

    def test_output_always_validates_and_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            W = rng.uniform(0, 3, (n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(W, 0.0)
            data = LiabilityData(W, rng.uniform(0, 4, n), rng.uniform(0, 4, n), rng.uniform(0, 2, n))
            net, _ = from_liabilities(data)
            assert validate(net).ok
            # w_i * P_ij reproduces W_ij wherever w_i > 0
            back = net.w[:, None] * net.P
            assert np.allclose(back[net.w > 0], W[net.w > 0], atol=1e-12)

    def test_liability_invariants_enforced(self):
        with pytest.raises(InputError):
            LiabilityData([[0.0, -1.0], [0.0, 0.0]], [0.0, 0], [0.0, 0], [0.0, 0])
        with pytest.raises(InputError):
            LiabilityData([[0.5, 0.0], [0.0, 0.0]], [0.0, 0], [0.0, 0], [0.0, 0])
        with pytest.raises(InputError):
            LiabilityData(np.zeros((2, 2)), [-1.0, 0], [0.0, 0], [0.0, 0])

    def test_small_liability_entries_are_judged_exactly(self):
        tiny = 1e-12
        for bad in (
            ([[0.0, -tiny], [0.0, 0.0]], [0.0, 0], [0.0, 0], [0.0, 0]),
            ([[tiny, 0.0], [0.0, 0.0]], [0.0, 0], [0.0, 0], [0.0, 0]),
            (np.zeros((2, 2)), [0.0, 0], [0.0, -tiny], [0.0, 0]),
            (np.zeros((2, 2)), [0.0, 0], [0.0, 0], [-tiny, 0]),
        ):
            with pytest.raises(InputError):
                LiabilityData(*bad)
        data = LiabilityData([[0.0, tiny], [2 * tiny, 0.0]], [tiny, 0.0], [0.0, tiny], [tiny, 0.0])
        assert validate(from_liabilities(data)[0]).ok


class TestFiles:
    def test_network_round_trip(self, tmp_path, triangle):
        path = tmp_path / "net.json"
        path.write_text(dumps(network_to_dict(triangle, [1.0, -1.0, 0.0])))
        net, flow = load_input(path)
        assert np.allclose(net.P, TRIANGLE_P)
        assert np.allclose(net.w, TRIANGLE_W)
        assert np.allclose(flow.c, [1.0, -1.0, 0.0])

    def test_network_without_flow(self, tmp_path, triangle):
        path = tmp_path / "net.json"
        path.write_text(dumps(network_to_dict(triangle)))
        _, flow = load_input(path)
        assert flow is None

    def test_liability_file_detected(self, tmp_path):
        path = tmp_path / "liab.json"
        path.write_text(
            dumps({"W": [[0.0, 4.0], [4.0, 0.0]], "a": [3.0, 1.0], "b": [1.0, 1.0], "u": [1.0, 0.0]})
        )
        data = load_input(path)
        assert isinstance(data, LiabilityData)
        assert np.allclose(data.u, [1.0, 0.0])

    def test_malformed_inputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_input(bad)
        missing = tmp_path / "missing.json"
        missing.write_text('{"P": [[0.0]]}')
        with pytest.raises(FileFormatError):
            load_input(missing)
        inconsistent = tmp_path / "inconsistent.json"
        inconsistent.write_text('{"n": 2, "P": [[0.0]], "w": [1.0]}')
        with pytest.raises(FileFormatError):
            load_input(inconsistent)
        bad_n = tmp_path / "bad_n.json"
        bad_n.write_text('{"n": "three", "P": [[0.0]], "w": [1.0]}')
        with pytest.raises(FileFormatError):
            load_input(bad_n)
        with pytest.raises(FileFormatError):
            load_input(tmp_path / "does_not_exist.json")

    def test_declared_n_must_be_an_integer(self, tmp_path):
        # a number with an integral value reads as that integer; a bool, a
        # string or any other number is no node count, not even truncated
        path = tmp_path / "n.json"
        for n in ("3", "3.0", "3e0"):
            path.write_text('{"n": %s, "P": %s, "w": [1, 1, 1]}' % (n, TRIANGLE_P.tolist()))
            assert load_input(path)[0].n == 3
        for n in ("3.9", "2.5", '"3"', "true", "null", "NaN", "Infinity", "[3]"):
            path.write_text('{"n": %s, "P": %s, "w": [1, 1, 1]}' % (n, TRIANGLE_P.tolist()))
            with pytest.raises(FileFormatError, match="^key 'n' must be an integer, got "):
                load_input(path)


# --------------------- the byte-level reader of sparse files ---------------------


def _outcome(path):
    """What load_input makes of a file: the bits of P, w and c, or the error."""
    try:
        net, flow = load_input(path)
    except Exception as exc:  # the error is part of the outcome compared
        return type(exc), str(exc)
    bits = [net.P.view(np.int64).tolist(), net.w.view(np.int64).tolist()]
    return bits + [None if flow is None else flow.c.view(np.int64).tolist()]


def _same_on_both_paths(path, monkeypatch) -> bool:
    """Assert load_input agrees with its json.loads path on a file; whether the byte path took it."""
    taken = model._sparse_network_object(Path(path).read_bytes()) is not None
    fast = _outcome(path)
    with monkeypatch.context() as m:
        m.setattr(model, "_sparse_network_object", lambda data: None)
        slow = _outcome(path)
    assert fast == slow
    return taken


def _sparse_tokens(rng, n, per_row=2):
    """An n x n grid of JSON tokens, all the literal 0 but a few per row."""
    grid = [["0"] * n for _ in range(n)]
    for row in grid:
        for j in rng.choice(n, size=per_row, replace=False):
            row[j] = repr(float(rng.uniform(0.01, 0.4)))
    return grid


def _compact(grid, w, c=None, sep=",\n") -> str:
    """A network file as the benchmark's generator writes it: one row per line."""
    rows = sep.join("[" + ",".join(row) + "]" for row in grid)
    tail = "" if c is None else ', "c": ' + json.dumps(c)
    return f'{{"n": {len(grid)}, "P": [{rows}], "w": {json.dumps(w)}{tail}}}\n'


def _json_writers(grid, w, c):
    """The same network through json.dumps, indented, saturnet's writer, tabs and CRLF."""
    P = [[json.loads(t) for t in row] for row in grid]
    obj = {"n": len(grid), "P": P, "w": w, "c": c}
    indented = json.dumps(obj, indent=2)
    yield json.dumps(obj)
    yield indented
    yield dumps(network_to_dict(Network(P, w), c))
    yield indented.replace("  ", "\t").replace("\n", "\r\n")


@pytest.fixture
def small_is_sparse(monkeypatch):
    """Let networks of a few nodes, as full as need be, take the byte-level path."""
    monkeypatch.setattr(_linear, "SPARSE_MIN", 3)
    monkeypatch.setattr(_linear, "SPARSE_FILL", 1.0)


class TestSparseFiles:
    @pytest.mark.parametrize("chunk", [None, 16])
    def test_writers_and_tokens_agree_with_json_loads(self, tmp_path, monkeypatch, small_is_sparse, chunk):
        if chunk is not None:  # many chunks of a few rows each
            monkeypatch.setattr(model, "_CHUNK", chunk)
        rng = np.random.default_rng(5)
        n = 7
        w = rng.uniform(1.0, 3.0, n).tolist()
        c = rng.uniform(-1.0, 1.0, n).tolist()
        tokens = ["0", "0.0", "-0", "-0.0", "1e-3", "1E+2", "1" + "7" * 29, "1e400",
                  "-5", "0e5", "123456789012345678901", "2.5E-310"]
        files = []
        for k, tok in enumerate(tokens):
            grid = _sparse_tokens(rng, n)
            grid[k % n][(3 * k) % n] = tok
            files.append(_compact(grid, w, c))
            files.append(_compact(grid, w, sep=", "))
            files.extend(_json_writers(grid, w, c) if tok != "1e400" else ())
        taken = []
        for k, text in enumerate(files):
            path = tmp_path / f"net{k}.json"
            path.write_text(text, newline="")
            taken.append(_same_on_both_paths(path, monkeypatch))
        assert len(files) - sum(taken) == 2  # the two 1e400 files decline

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("[0,", "[", 1),  # a ragged row: the first
        lambda t: t.replace("]]", ",0]]", 1),  # and the last
        lambda t: t.replace("[0,0,0,", "[0,,0,,", 1),  # a row of the right length
        lambda t: t.replace("],\n[", "],0,\n[", 1),  # a number between rows
        lambda t: t.replace('"P": [[', '"P": [0,[', 1),
        lambda t: t.replace('"P": [[', '"P": [', 1),  # the first row without its '['
        lambda t: t.replace("]]", "]", 1),  # the last without its ']'
        lambda t: t.replace("],\n[", "]\n[", 1),  # no comma between rows
        lambda t: t.replace("],\n[", "],\n[],\n[", 1),  # an empty row
        lambda t: t.replace("],\n[", "],\n[[", 1).replace("]]", "]]]", 1),  # a row nested deeper
        lambda t: t.replace("]]", "],0]", 1),
        lambda t: t.replace('"P": [[', '"P": [[]], "Q": [[', 1),
        lambda t: t.replace("[0,", "[1 2,", 1),
        lambda t: t.replace("[0,", "[1.,", 1),
        lambda t: t.replace("[0,", "[.5,", 1),
        lambda t: t.replace("[0,", "[+1,", 1),
        lambda t: t.replace("[0,", "[01,", 1),
        lambda t: t.replace("[0,", "[NaN,", 1),
        lambda t: t.replace("[0,", "[Infinity,", 1),
        lambda t: t.replace("[0,", '["0.5",', 1),
        lambda t: t.replace("0]", "0,]", 1),  # a trailing comma in a row
        lambda t: t.replace("]]", "],]", 1),  # and after the last row
        lambda t: t[: len(t) // 2],  # truncated
        lambda t: t.replace('{"n"', '{"meta": {"P": [[0, 0.5], [0, 0]]}, "n"', 1),
        lambda t: t.replace('{"n"', '{"P": [[0, 0.5], [0, 0]], "n"', 1),
        lambda t: t.replace("}\n", ', "P": [[0, 0.5], [0, 0]]}\n', 1),  # a duplicate key after
        lambda t: t.replace('{"n"', '{"x\\"P": [[0, 0.5], [0, 0]], "n"', 1),  # in a key's string
        lambda t: t.replace('"w": [', '"w": [NaN, ', 1),
        lambda t: t.replace('"n": 7', '"n": 6', 1),
        lambda t: t.replace("[0,", "[" + "1" * 400 + ",", 1),
        lambda t: t.replace("[0,", "[" + "1" * 5000 + ",", 1),
        lambda t: "\ufeff" + t,
        lambda t: t.replace("[0,", "[\u00e9,", 1),
        lambda t: t.replace("[0,", "[0\f,", 1),
    ])
    def test_what_json_loads_rejects_or_reads_apart(self, tmp_path, monkeypatch, small_is_sparse, mutate):
        base = _compact(_sparse_tokens(np.random.default_rng(9), 7), [1.0] * 7, [0.5] * 7)
        text = mutate(base)
        assert text != base
        path = tmp_path / "net.json"
        path.write_bytes(text.encode("utf-8"))
        _same_on_both_paths(path, monkeypatch)

    def test_demo_files_agree_with_json_loads(self, monkeypatch, small_is_sparse):
        demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.json"))
        assert demos
        for path in demos:
            _same_on_both_paths(path, monkeypatch)

    def test_the_sparse_predicate_chooses_the_path(self, tmp_path):
        rng = np.random.default_rng(3)
        n = SPARSE_MIN
        grid = _sparse_tokens(rng, n)
        w = [1.0] * n
        assert model._sparse_network_object(_compact(grid, w).encode()) is not None
        nothing = model._sparse_network_object(_compact([["0"] * n] * n, w).encode())
        assert nothing["P"].shape == (n, n) and not nothing["P"].any()
        # zeros written 0.0 are tokens like any other, and too many of them
        zeros = [[t if t != "0" else "0.0" for t in row] for row in grid]
        assert model._sparse_network_object(_compact(zeros, w).encode()) is None
        assert model._sparse_network_object(_compact(grid[1:], w).encode()) is None
        smaller = [row[1:] for row in grid[1:]]
        assert model._sparse_network_object(_compact(smaller, w[1:]).encode()) is None

    def test_a_large_sparse_file_peaks_below_json_loads(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        n = 600
        path = tmp_path / "net.json"
        path.write_text(_compact(_sparse_tokens(rng, n, per_row=6), rng.uniform(1, 2, n).tolist()))
        assert _same_on_both_paths(path, monkeypatch)
        peaks = []
        for byte_path in (True, False):
            with monkeypatch.context() as m:
                if not byte_path:
                    m.setattr(model, "_sparse_network_object", lambda data: None)
                tracemalloc.start()
                try:
                    load_input(path)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_integers_beyond_float_range_are_a_file_format_error(self, tmp_path):
        huge = "1" + "0" * 400
        for text in (
            f'{{"n": 2, "P": [[0, {huge}], [0, 0]], "w": [1, 1]}}',
            f'{{"n": 2, "P": [[0, 0], [0, 0]], "w": [1, {huge}]}}',
            f'{{"n": 2, "P": [[0, 0], [0, 0]], "w": [1, 1], "c": [-{huge}, 0]}}',
        ):
            path = tmp_path / "huge.json"
            path.write_text(text)
            with pytest.raises(FileFormatError, match="is not a numeric"):
                load_input(path)
        path.write_text(f'{{"n": 1, "P": [[{"1" * 5000}]], "w": [1]}}')
        with pytest.raises(FileFormatError, match="is not valid JSON"):
            load_input(path)

    def test_a_file_that_is_not_utf8_is_a_file_format_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n": 1, "P": [[0]], "w": [1], "note": "\u00e9"}'.encode("latin-1"))
        with pytest.raises(FileFormatError, match="is not valid UTF-8"):
            load_input(path)
