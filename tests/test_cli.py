from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import saturnet
import saturnet.cli
from saturnet import extremal_equilibria, node_partition, refine
from saturnet.cli import build_parser, main

from conftest import X_MAX_STAR, X_MIN_STAR, hunt_cases, shifted_second_set

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


class TestScaledSolve:
    def test_large_scale_partition(self, capsys, tmp_path):
        # rounding in a 1e9-scaled equilibrium is far above an absolute
        # tol_class; the partition must come out as for the unscaled network
        s = 1e9
        for net, c in hunt_cases("near_stochastic", 5, 3):
            part = node_partition(net, c, extremal_equilibria(net, c)[0]).to_json_dict()
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps({"n": net.n, "P": net.P.tolist(), "w": (s * net.w).tolist(),
                                        "c": (s * c).tolist()}))
            code, out = run(capsys, "solve", "--input", str(path))
            assert code == 0 and json.loads(out)["partition"] == part


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

    def test_jump_computes_only_the_norms_it_prints(self, capsys, monkeypatch):
        path = REPO / "tests" / "golden" / "many_sets.json"
        golden = json.loads((REPO / "tests" / "golden" / "many_sets.jump.json").read_text(encoding="utf-8"))
        calls = []

        def counting(net, p):
            calls.append(p)
            return saturnet.shocks.max_jump_norm(net, p)

        monkeypatch.setattr(saturnet.cli, "max_jump_norm", counting)
        code, out = run(capsys, "jump", "--input", str(path))
        assert (code, calls, json.loads(out)) == (0, [1.0, 2.0, float("inf")], golden)
        for p in ("1", "2", "inf"):
            calls.clear()
            code, out = run(capsys, "jump", "--input", str(path), "--p", p)
            assert (code, len(calls), json.loads(out)) == (0, 1, {"p" + p: golden["p" + p]})


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

    @pytest.mark.parametrize("bound", ["--eps-hi=inf", "--eps-hi=nan", "--eps-lo=-inf"])
    def test_non_finite_range_is_a_validation_error(self, capsys, tmp_path, bound):
        argv = [
            "sweep", "--input", str(DEMOS / "triangle_baseline.json"), "--q", "1,1,1",
            "--eps-hi", "5", bound, "--output", str(tmp_path / "sweep.csv"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        assert capsys.readouterr().err == "saturnet: error: validation: eps_lo and eps_hi must be finite\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_requires_output(self, capsys):
        code, _ = run(
            capsys, "sweep", "--input", str(DEMOS / "triangle_baseline.json"),
            "--q", "1,1,1", "--eps-hi", "5",
        )
        assert code == 3


class TestOneParser:
    def test_reused_parser_leaks_no_state(self, capsys, tmp_path, monkeypatch):
        ray = [
            "sweep", "--input", str(DEMOS / "triangle_baseline.json"),
            "--q", "0.07,0.59,0.34", "--eps-hi", "14", "--grid", "29",
        ]
        calls = [[*ray, "--c0", "5,2,1"], ray, [*ray, "--tol-fp", "1e-10"], ray]

        def artifacts(argv, name):
            out = tmp_path / f"{name}.csv"
            assert main([*argv, "--output", str(out)]) == 0
            return out.read_bytes(), out.with_suffix(".crossings.json").read_bytes()

        fresh = []
        for k, argv in enumerate(calls):
            saturnet.cli._parser.cache_clear()
            fresh.append(artifacts(argv, f"fresh{k}"))
        assert fresh[0] != fresh[1]

        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        saturnet.cli._parser.cache_clear()
        monkeypatch.setattr(saturnet.cli, "build_parser", counting_build)
        reused = []
        for k, argv in enumerate(calls):
            reused.append(artifacts(argv, f"reused{k}"))
            assert vars(saturnet.cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
            assert main(["sweep", "--input", "x.json", "--q", "1"]) == 3  # no --eps-hi
        assert reused == fresh
        assert len(built) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out == f"saturnet {saturnet.__version__}\n"


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

    def test_tolerance_flags_only_on_solving_commands(self, capsys):
        path = str(DEMOS / "triangle.json")
        for command in ("validate", "decompose", "jump", "simulate"):
            assert main([command, "--input", path, "--tol-fp", "1e-9"]) == 3
        for command in ("solve", "classify", "set"):
            assert main([command, "--input", path, "--tol-fp", "1e-9", "--max-iter", "50"]) == 0

    def test_non_finite_tolerances_are_usage_errors(self, capsys):
        # a NaN dead-band would call every node exposed, an infinite pair pass any residual
        path = str(DEMOS / "triangle_baseline.json")
        for flags in (["--tol-class", "nan"], ["--tol-fp", "nan"], ["--tol-fp", "inf", "--tol-class", "inf"]):
            assert main(["solve", "--input", path, *flags]) == 3
            err = capsys.readouterr().err
            assert err.startswith("saturnet: error: usage: tol_") and err.count("\n") == 1

    def test_non_finite_simulation_horizon_is_a_validation_error(self, capsys):
        path = str(DEMOS / "triangle.json")
        for flags in (["--t-end", "nan"], ["--t-end", "inf"], ["--dt", "nan"], ["--dt", "inf", "--t-end", "inf"]):
            assert main(["simulate", "--input", path, *flags]) == 1
            assert capsys.readouterr().err == "saturnet: error: validation: t_end and dt must be finite\n"

    def test_missing_file(self, capsys):
        assert main(["solve", "--input", "/nonexistent/x.json"]) == 3

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", "--input", str(bad)]) == 3

    def test_unreadable_numbers_and_bytes_exit_three(self, capsys, tmp_path):
        # an integer beyond float range, one too long to convert, and a file that is not UTF-8
        huge = tmp_path / "huge.json"
        for entry in ("1" + "0" * 400, "1" * 5000):
            huge.write_text('{"n": 2, "P": [[0, %s], [0, 0]], "w": [1, 1]}' % entry)
            assert main(["validate", "--input", str(huge)]) == 3
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"n": 1, "P": [[0]], "w": [1], "note": "é"}'.encode("latin-1"))
        assert main(["validate", "--input", str(latin1)]) == 3
        assert capsys.readouterr().err.count("saturnet: error: file-format: ") == 3

    def test_non_integer_node_count_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad_n.json"
        for n in ("3.9", '"3"', "true"):
            bad.write_text('{"n": %s, "P": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "w": [1, 1, 1]}' % n)
            assert main(["validate", "--input", str(bad)]) == 3
        assert capsys.readouterr().err.count("saturnet: error: file-format: key 'n' must be an integer, got ") == 3
        bad.write_text('{"n": 3.0, "P": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "w": [1, 1, 1]}')
        assert main(["validate", "--input", str(bad), "--output", str(tmp_path / "ok.json")]) == 0

    def test_invalid_network_data(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "P": [[1.5]], "w": [1.0]}')
        assert main(["solve", "--input", str(bad)]) == 1

    def test_invalid_liability_data(self, capsys, tmp_path):
        # a negative entry or a nonzero diagonal in W is a validation failure
        bad = tmp_path / "bad_liab.json"
        for W in ("[[0.0, -4.0], [4.0, 0.0]]", "[[0.5, 4.0], [4.0, 0.0]]"):
            bad.write_text('{"W": %s, "a": [1.0, 1.0], "b": [0.0, 0.0], "u": [1.0, 0.0]}' % W)
            assert main(["solve", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.count("saturnet: error: validation: W ") == 2

    def test_unreadable_liability_entries_exit_three(self, capsys, tmp_path):
        # as in a network file: a non-number, an integer beyond float range,
        # a non-finite value or a wrong shape is a file-format error
        bad = tmp_path / "bad_liab.json"
        for W, u in (
            ('[[0, "x"], [1, 0]]', "[1, 0]"),
            ("[[0, 1%s], [1, 0]]" % ("0" * 400), "[1, 0]"),
            ("[[0, 1], [1, 0]]", "[1, 1%s]" % ("0" * 400)),
            ("[[0, 1], [1, 0]]", "[1, NaN]"),
            ("[[0, 1, 2], [1, 0, 3]]", "[1, 0]"),
            ("[[0, 1], [1, 0]]", "[1, 0, 0]"),
        ):
            bad.write_text('{"W": %s, "a": [1, 1], "b": [0, 0], "u": %s}' % (W, u))
            assert main(["validate", "--input", str(bad)]) == 3
        assert capsys.readouterr().err.count("saturnet: error: file-format: ") == 6

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

    def test_non_convergence_names_the_block(self, capsys, tmp_path):
        # set 0 saturates at once; set 1 (nodes 2, 3) creeps
        P = np.zeros((4, 4))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 2] = 0.999
        path = tmp_path / "two_sets.json"
        path.write_text(json.dumps({"n": 4, "P": P.tolist(), "w": [1.0] * 4, "c": [2.0, 2.0, 0.5, -0.2]}))
        assert main(["solve", "--input", str(path), "--max-iter", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "saturnet: error: no-convergence: trapping set 1 (out_connected; nodes 2, 3): "
            "no convergence within 1 iterations\n"
        )

    def test_assembled_residual_names_the_block(self, capsys, monkeypatch, tmp_path):
        net, c = shifted_second_set(monkeypatch)
        path = tmp_path / "two_sets.json"
        path.write_text(json.dumps({"n": 4, "P": net.P.tolist(), "w": net.w.tolist(), "c": c.tolist()}))
        assert main(["solve", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "saturnet: error: no-convergence: trapping set 1 (stochastic_nonzero_sum; nodes 2, 3): "
            "assembled equilibrium has residual "
        )
        assert err.count("\n") == 1

    def test_partition_inconsistency_names_the_block(self, capsys, monkeypatch):
        # no subcommand refines, so let solve hand refine an input far from
        # any equilibrium of the demo's one trapping set
        def far_refine(net, c, opts):
            x = refine(net, c, np.zeros(net.n), opts)
            return x, x

        monkeypatch.setattr(saturnet.cli, "extremal_equilibria", far_refine)
        path = DEMOS / "triangle_critical.json"
        assert main(["solve", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "saturnet: error: no-convergence: trapping set 0 (stochastic_zero_sum_segment; nodes 0, 1, 2): "
        )
        assert err.count("\n") == 1

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


class TestErrorMessages:
    """Exit code and exact stderr line of usage and file-format errors."""

    def test_non_numeric_baseline_is_a_usage_error(self, capsys):
        assert main(["loss", "--input", str(DEMOS / "triangle.json"), "--c0", "1,x,2"]) == 3
        assert capsys.readouterr().err == (
            "saturnet: error: usage: --c0 must be a comma-separated list of numbers\n"
        )

    def test_malformed_objects_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for text, message in (
            ("[1, 2]", f"{bad}: top-level JSON value must be an object"),
            ('{"P": [[0, 1], [1, 0]], "w": [1, 1]}', "network object is missing key 'n'"),
            ('{"W": [[0, 1], [1, 0]], "a": [1, 1], "u": [1, 0]}', "liability object is missing key 'b'"),
        ):
            bad.write_text(text)
            assert main(["validate", "--input", str(bad)]) == 3
            assert capsys.readouterr().err == f"saturnet: error: file-format: {message}\n"


def test_commands_import_no_scipy_or_numpy_ma(tmp_path):
    # peak memory is gated by the benchmark: scipy.sparse.csgraph roughly
    # doubles the resident set, and numpy.ma adds over a megabyte
    script = f"""
import sys
import numpy
before = set(sys.modules)
from saturnet.cli import main
demo, out = {str(DEMOS / "triangle.json")!r}, {str(tmp_path)!r}
for argv in (["solve"], ["classify"], ["set"], ["sweep", "--q", "0.07,0.59,0.34", "--eps-hi", "14"]):
    assert main([argv[0], "--input", demo, "--output", f"{{out}}/{{argv[0]}}", *argv[1:]]) == 0
print("\\n".join(sorted(set(sys.modules) - before)))
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    added = done.stdout.split()
    assert "saturnet.solver" in added
    assert [m for m in added if m.split(".")[0] == "scipy" or m.startswith("numpy.ma")] == []
