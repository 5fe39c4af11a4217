"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They generate inputs, run short benchmark runs in child processes (about
three minutes in all) and check that the gate rejects wrong results.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import ops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors
    changed = [n for n in names if not n.startswith("ref_") and n.endswith(".json") and n != "demo.json"]
    assert changed and all(
        (tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes() for n in changed
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    declared = {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {(name, m["unit"]) for name, m in res["metrics"].items()} == declared
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "flop", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


def test_untraced_run_reports_every_end_to_end_metric_and_its_metadata():
    proc = bench("--workload", "shock-sweep", "--seed", "4", "--seconds", "1", "--trace", "0")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 25
    declared = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(name, m["unit"]) for name, m in res["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in res["metrics"].values())
    meta = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("meta "))[5:])
    assert meta["blas_threads"] == gen.CONFIG["blas_threads"] <= meta["nproc"]
    assert meta["src.lines"] > 0 and meta["python"] and meta["numpy"] and meta["dense_n_cap"]["reason"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _small_ops(workload, tmp_path):
    params = {**gen.CONFIG["workloads"][workload]["generator"], **gen.CONFIG["workloads"][workload]["reference"]}
    instances = gen.GENERATORS[workload](1, params, tmp_path)
    return ops.build(workload, instances, tmp_path)


@pytest.mark.parametrize("workload", ["sparse-core", "many-sinks"])
def test_gate_rejects_wrong_analysis(workload, tmp_path):
    op = _small_ops(workload, tmp_path)[0]
    result = op.digest(op.run())
    assert op.check(result) == []
    wrong_x = dict(result, x_max=result["x_max"] + 1e-6 * op.scale)
    assert {layer for layer, _ in op.check(wrong_x)} >= {"solver", "structure"}
    wrong_kinds = dict(result, sink_kinds={nodes: "stochastic_nonzero_sum" for nodes in result["sink_kinds"]})
    assert op.check(wrong_kinds)
    assert op.check(dict(result, transient=result["transient"] + 1))


def test_gate_rejects_wrong_sweep(tmp_path):
    demo, ray = _small_ops("shock-sweep", tmp_path)
    for op in (demo, ray):
        result = op.digest(op.run())
        assert op.check(result) == []
        moved = [dict(cr, eps_star=cr["eps_star"] + 1e-4) for cr in result["crossings"]]
        assert op.check(dict(result, crossings=moved))
        table = result["table"].copy()
        table[3, 5] += 1e-6 * op.scale
        assert op.check(dict(result, table=table))
        assert op.check(dict(result, crossings=result["crossings"][1:]))
