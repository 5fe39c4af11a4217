from __future__ import annotations

import json

import numpy as np
import pytest

from saturnet import ExogenousFlow, InputError, minimal_equilibrium, Network, simulate
from saturnet._fmt import csv_lines, dumps, fmt_cells, fmt_float


class TestFloatFormat:
    def test_twelve_significant_digits(self):
        assert fmt_float(4.380540540540540) == "4.38054054054"
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(2.0) == "2"

    def test_negative_zero_normalized(self):
        assert fmt_float(-0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            fmt_float(float("nan"))
        with pytest.raises(InputError):
            fmt_float(float("inf"))


class TestDumps:
    def test_round_trips_through_json(self):
        obj = {
            "a": [1, 2.5, True, None, "text"],
            "b": {"nested": np.array([0.25, -0.5])},
            "empty": [],
        }
        parsed = json.loads(dumps(obj))
        assert parsed["a"] == [1, 2.5, True, None, "text"]
        assert parsed["b"]["nested"] == [0.25, -0.5]

    def test_deterministic(self):
        obj = {"x": [1 / 3, 2 / 7], "y": {"z": np.float64(1e-12)}}
        assert dumps(obj) == dumps(obj)

    def test_trailing_newline(self):
        assert dumps({}).endswith("\n")

    def test_float_lists_render_as_each_value_alone(self):
        pool = [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1e16, 2.0 / 3.0, np.float64(-7.5)]
        obj = {"f": pool, "a": np.array(pool), "mixed": [1.5, 2, True, None], "nested": [[0.5], [[-0.0, 1.0]]]}
        lines = dumps(obj).split("\n")
        assert lines[2:9] == ["    " + fmt_float(v) + ("," if i < 6 else "") for i, v in enumerate(pool)]
        assert lines[11:18] == lines[2:9]  # the array as the list
        assert json.loads(dumps(obj))["mixed"] == [1.5, 2, True, None]
        for bad, first in (([1.0, np.nan, np.inf], np.nan), (np.array([-np.inf, np.nan]), -np.inf)):
            with pytest.raises(InputError) as expected:
                fmt_float(first)
            with pytest.raises(InputError) as got:
                dumps({"x": bad})
            assert str(got.value) == str(expected.value)

    def test_first_fault_in_document_order_is_named(self):
        with pytest.raises(InputError, match="non-finite value nan"):
            dumps({"a": [1.0, np.nan], "b": object()})
        with pytest.raises(InputError, match="cannot serialize object of type object"):
            dumps({"a": [1.0, 2.0], "b": object(), "c": np.inf})
        with pytest.raises(InputError, match="non-finite value inf"):
            dumps([[0.5, {"x": np.inf}], {1: 2.0}])

    def test_string_escaping(self):
        parsed = json.loads(dumps({"s": 'a"b\n\t'}))
        assert parsed["s"] == 'a"b\n\t'


class TestCsv:
    def test_cells_and_endings(self):
        text = csv_lines(["a", "b"], [[1, True], [0.5, False]])
        assert text == "a,b\n1,true\n0.5,false\n"

    def test_shared_cells_equal_each_cell_alone(self):
        rng = np.random.default_rng(17)
        pool = np.array([-0.0, 0.0, 5e-324, -1e-300, 0.1 + 0.2, 0.3, 1e16, 2.0 / 3.0, -7.5])
        for shape in [(6, 5), (1, 1), (1, 7), (7, 1), (0, 4)]:
            values = rng.choice(pool, size=shape)
            values[:, -1:] = values[:, :1]  # equal values in different columns
            assert fmt_cells(values) == [[fmt_float(v) for v in row] for row in values]
        assert fmt_cells(np.array([[-0.0, 0.0]])) == [["0", "0"]]

    @pytest.mark.parametrize("first", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_cell_is_named(self, first):
        values = np.array([[1.0, 2.0, first], [np.nan, -np.inf, np.inf]])
        with pytest.raises(InputError) as expected:
            fmt_float(first)
        with pytest.raises(InputError) as got:
            fmt_cells(values)
        assert str(got.value) == str(expected.value)

    def test_trajectory_csv_equals_the_generic_cells(self):
        net = Network([[0.0, 0.75, 0.25], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]], [5.0, 3.0, 2.0])
        traj = simulate(net, [5.0, -1.0, 2.0], np.zeros(3), t_end=0.5, dt=0.01, sample_every=3)
        rows = [[t, *x] for t, x in zip(traj.times, traj.states)]
        assert traj.to_csv() == csv_lines(["t", "x_1", "x_2", "x_3"], rows)
        assert traj.to_csv().split("\n")[1] == "0,0,0,0"


def test_solver_accepts_flow_objects():
    net = Network([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    out = minimal_equilibrium(net, ExogenousFlow([2.0, 2.0]))
    assert np.allclose(out.x, [1.0, 1.0])
