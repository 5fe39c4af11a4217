from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from saturnet.cli import main

from conftest import X_MAX_STAR, X_MIN_STAR

REPO = Path(__file__).resolve().parents[1]
DEMOS = REPO / "demos"
SCHEMAS = json.loads((REPO / "docs" / "output_schemas.json").read_text())


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def check_schema(command: str, payload) -> None:
    jsonschema.validate(payload, {
        "definitions": SCHEMAS["definitions"],
        **SCHEMAS["properties"][command],
    })


class TestSolveCommand:
    def test_critical_flow_endpoints(self, capsys):
        code, out = run(capsys, "solve", "--input", str(DEMOS / "triangle_critical.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("solve", payload)
        assert np.allclose(payload["x_min"], X_MIN_STAR, atol=1e-9)
        assert np.allclose(payload["x_max"], X_MAX_STAR, atol=1e-9)
        assert payload["unique"] is False
        assert payload["partition"]["exposed"] == [0, 1, 2]

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "solve", "--input", str(DEMOS / "triangle_critical.json"))
        _, second = run(capsys, "solve", "--input", str(DEMOS / "triangle_critical.json"))
        assert first == second

    def test_golden_number_formatting(self, capsys):
        # pins the 12-significant-digit serialization contract
        _, out = run(capsys, "solve", "--input", str(DEMOS / "triangle_critical.json"))
        assert '"x_min": [\n    4.38054054054,\n    0,\n    0.0351351351351\n  ]' in out
        assert '"x_max": [\n    4.97,\n    1.8175,\n    2\n  ]' in out
        assert out.endswith("\n")

    def test_accepts_liability_file(self, capsys):
        code, out = run(capsys, "solve", "--input", str(DEMOS / "liabilities_pair.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2


class TestUniqueVerdict:
    def test_short_segment_agrees_with_classify(self, capsys, tmp_path):
        # 4-cycle whose segment, eps = 0.9e-9 long per node, is longer than
        # the zero-sum tolerance but shorter than tol_class: not unique
        eps = 0.9e-9
        net = tmp_path / "cycle.json"
        net.write_text(json.dumps({
            "n": 4, "P": np.roll(np.eye(4), 1, axis=1).tolist(), "w": [1.0] * 4,
            "c": [-(1 - eps), 1 - eps, 0.0, 0.0],
        }))
        code, out = run(capsys, "classify", "--input", str(net))
        assert code == 0 and json.loads(out)["is_unique"] is False
        code, out = run(capsys, "solve", "--input", str(net))
        assert code == 0 and json.loads(out)["unique"] is False
        code, out = run(capsys, "loss", "--input", str(net), "--c0", "0,1,0,0")
        assert code == 0 and json.loads(out)["unique"] is False


class TestValidateCommand:
    def test_valid_network(self, capsys):
        code, out = run(capsys, "validate", "--input", str(DEMOS / "triangle.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("validate", payload)
        assert payload["valid"] is True

    def test_bad_row_sum_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "P": [[0.5, 1.0], [0.0, 0.0]], "w": [1.0, 1.0]}')
        code, out = run(capsys, "validate", "--input", str(bad))
        assert code == 1
        payload = json.loads(out)
        check_schema("validate", payload)
        assert payload["violations"][0]["kind"] == "row_sum"


class TestConvertCommand:
    def test_liability_conversion(self, capsys):
        code, out = run(capsys, "convert", "--input", str(DEMOS / "liabilities_pair.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("convert", payload)
        assert payload["w"] == [5, 4]
        assert payload["P"] == [[0, 0.8], [1, 0]]
        assert payload["c"] == [2, 0]

    def test_rejects_network_file(self, capsys):
        code, _ = run(capsys, "convert", "--input", str(DEMOS / "triangle.json"))
        assert code == 3


class TestAnalysisCommands:
    def test_decompose(self, capsys):
        code, out = run(capsys, "decompose", "--input", str(DEMOS / "triangle.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("decompose", payload)
        assert payload == {"transient": [], "sinks": [{"nodes": [0, 1, 2], "out_connected": False}]}

    def test_classify(self, capsys):
        code, out = run(capsys, "classify", "--input", str(DEMOS / "triangle_critical.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("classify", payload)
        assert payload["is_unique"] is False
        assert payload["sinks"][0]["kind"] == "stochastic_zero_sum_segment"
        assert payload["sinks"][0]["condition_value"] == pytest.approx(4.371824324324, abs=1e-9)

    def test_set(self, capsys):
        code, out = run(capsys, "set", "--input", str(DEMOS / "triangle_critical.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("set", payload)
        seg = payload["sinks"][0]
        assert seg["type"] == "segment"
        assert seg["alpha_max"] == pytest.approx(4.45, abs=1e-9)

    def test_loss(self, capsys):
        code, out = run(
            capsys, "loss", "--input", str(DEMOS / "triangle_critical.json"),
            "--c0", "5,2,2",
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("loss", payload)
        assert payload["loss_min"] == pytest.approx(10.2125, abs=1e-9)
        assert payload["loss_max"] == pytest.approx(14.584324324324, abs=1e-8)

    def test_loss_rejects_non_shock(self, capsys):
        code, _ = run(
            capsys, "loss", "--input", str(DEMOS / "triangle_baseline.json"),
            "--c0", "0,0,0",
        )
        assert code == 1

    def test_jump(self, capsys):
        code, out = run(capsys, "jump", "--input", str(DEMOS / "triangle.json"))
        assert code == 0
        payload = json.loads(out)
        check_schema("jump", payload)
        assert payload["p1"] == pytest.approx(4.45, abs=1e-9)
        assert payload["pinf"] == pytest.approx(2.0, abs=1e-9)

    def test_jump_single_norm(self, capsys):
        code, out = run(capsys, "jump", "--input", str(DEMOS / "triangle.json"), "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["p2"]


class TestSweepCommand:
    def test_artifacts_and_determinism(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--input", str(DEMOS / "triangle_baseline.json"),
            "--q", "0.07,0.59,0.34", "--eps-lo", "0", "--eps-hi", "14", "--grid", "29",
            "--output", str(out_csv),
        ]
        assert main(argv) == 0
        csv_text = out_csv.read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("eps,unique,loss_min,loss_max,n_defaults")
        assert len(lines) == 30
        crossings = json.loads(out_csv.with_suffix(".crossings.json").read_text())
        check_schema("crossings", crossings)
        assert crossings[0]["eps_star"] == pytest.approx(9.0, abs=1e-9)

        # the grid straddles the crossing: eps = 9 is a row and is non-unique
        row9 = next(line for line in lines[1:] if line.startswith("9,"))
        assert row9.split(",")[1] == "false"

        assert main(argv) == 0
        assert out_csv.read_text() == csv_text

    def test_c0_defaults_to_file_flow(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--input", str(DEMOS / "triangle_baseline.json"),
            "--q", "0.07,0.59,0.34", "--eps-hi", "14", "--grid", "15",
            "--output", str(out_csv),
        ])
        assert code == 0
        first = out_csv.read_text().strip().split("\n")[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 0.0  # zero loss at the baseline itself

    def test_requires_output(self, capsys):
        code, _ = run(
            capsys, "sweep", "--input", str(DEMOS / "triangle_baseline.json"),
            "--q", "1,1,1", "--eps-hi", "5",
        )
        assert code == 3


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys):
        code, out = run(
            capsys, "simulate", "--input", str(DEMOS / "triangle_critical.json"),
            "--t-end", "1.0", "--dt", "0.1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == sorted(times)


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_input_flag(self, capsys):
        assert main(["solve"]) == 3

    def test_missing_file(self, capsys):
        assert main(["solve", "--input", "/nonexistent/x.json"]) == 3

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", "--input", str(bad)]) == 3

    def test_invalid_network_data(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "P": [[1.5]], "w": [1.0]}')
        assert main(["solve", "--input", str(bad)]) == 1

    def test_invalid_liability_data(self, capsys, tmp_path):
        bad = tmp_path / "bad_liab.json"
        bad.write_text('{"W": [[0.0, -4.0], [4.0, 0.0]], "a": [1.0, 1.0], '
                       '"b": [0.0, 0.0], "u": [1.0, 0.0]}')
        assert main(["solve", "--input", str(bad)]) == 1

    def test_non_convergence_exit_code(self, capsys, tmp_path):
        # near-stochastic pair whose saturation pattern is misjudged until the
        # iterate has crept up; one iteration is nowhere near enough
        slow = tmp_path / "slow.json"
        slow.write_text(
            '{"n": 2, "P": [[0.0, 0.999], [0.999, 0.0]], "w": [1.0, 1.0], "c": [0.5, -0.2]}'
        )
        code, _ = run(capsys, "solve", "--input", str(slow), "--max-iter", "1")
        assert code == 2
        code, out = run(capsys, "solve", "--input", str(slow))
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["x_min"], [1.0, 0.799], atol=1e-9)

    def test_error_diagnostic_is_one_line(self, capsys):
        main(["solve", "--input", "/nonexistent/x.json"])
        err = capsys.readouterr().err
        assert err.startswith("saturnet: error: ")
        assert err.count("\n") == 1

    def test_output_file_flag(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out = run(
            capsys, "decompose", "--input", str(DEMOS / "triangle.json"),
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["sinks"]

    def test_unwritable_output_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "decompose", "--input", str(DEMOS / "triangle.json"),
            "--output", "/nonexistent-dir/out.json",
        )
        assert code == 3
