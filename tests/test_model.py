from __future__ import annotations

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
from saturnet._fmt import dumps

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
