"""CLI artifacts pinned byte for byte.

``tests/golden/`` holds the stdout of ``solve``, ``classify``, ``set``,
``decompose`` and ``jump`` on every demo file, the README's 1401-point
shock sweep (CSV plus crossings JSON), and the 101-point sweep of a fixed
39-node ray (``seeded_ray.json``: a transient core feeding trapping sets of
sizes 1 to 4 in all four kinds, with shuffled node labels and four
crossings; its shock direction is the file's ``q``), and the ``classify``,
``set``, ``decompose`` and ``jump`` stdout of ``many_sets.json``, whose 16
trapping sets (four of each size 1 to 4, in all four kinds, segments
included, at the file's own flow ``c``) pin the JSON of many sets. That
file was written once from
``conftest.core_feeding_sets(np.random.default_rng(26), (1, 2, 3, 4), 4)``,
with P row by row. A change to any of these files needs
a stated reason. To rewrite them from the current code, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from saturnet.cli import main

REPO = Path(__file__).resolve().parents[1]
DEMOS = REPO / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = ("solve", "classify", "set", "decompose", "jump")
DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.json"))
SWEEP_ARGS = (
    "--input", str(DEMOS / "triangle_baseline.json"), "--c0", "5,2,2",
    "--q", "0.07,0.59,0.34", "--eps-lo", "0", "--eps-hi", "14", "--grid", "1401",
)
SWEEP_CSV = "readme_sweep.csv"
SWEEP_CROSSINGS = "readme_sweep.crossings.json"
RAY_INPUT = GOLDEN / "seeded_ray.json"
RAY_CSV = "seeded_ray.csv"
RAY_CROSSINGS = "seeded_ray.crossings.json"
MANY_SETS = GOLDEN / "many_sets.json"
MANY_SETS_COMMANDS = ("classify", "set", "decompose", "jump")


def _ray_args() -> tuple[str, ...]:
    q = json.loads(RAY_INPUT.read_text(encoding="utf-8"))["q"]
    return (
        "--input", str(RAY_INPUT), "--q=" + ",".join(repr(float(v)) for v in q),
        "--eps-lo", "0", "--eps-hi", "10", "--grid", "101",
    )


def _write_command(command: str, source: Path, target: Path) -> None:
    assert main([command, "--input", str(source), "--output", str(target)]) == 0


def _write_sweep(args, target: Path) -> None:
    assert main(["sweep", *args, "--output", str(target)]) == 0


@pytest.mark.parametrize("demo", DEMO_NAMES)
@pytest.mark.parametrize("command", COMMANDS)
def test_command_output(command, demo, tmp_path):
    out = tmp_path / "out.json"
    _write_command(command, DEMOS / f"{demo}.json", out)
    assert out.read_bytes() == (GOLDEN / f"{demo}.{command}.json").read_bytes()


@pytest.mark.parametrize("command", MANY_SETS_COMMANDS)
def test_many_sets_output(command, tmp_path):
    out = tmp_path / "out.json"
    _write_command(command, MANY_SETS, out)
    assert out.read_bytes() == (GOLDEN / f"many_sets.{command}.json").read_bytes()


def _check_sweep(args, csv_name, crossings_name, tmp_path) -> None:
    out = tmp_path / csv_name
    _write_sweep(args, out)
    assert out.read_bytes() == (GOLDEN / csv_name).read_bytes()
    crossings = tmp_path / crossings_name
    assert crossings.read_bytes() == (GOLDEN / crossings_name).read_bytes()


def test_readme_sweep(tmp_path):
    _check_sweep(SWEEP_ARGS, SWEEP_CSV, SWEEP_CROSSINGS, tmp_path)


def test_seeded_ray_sweep(tmp_path):
    _check_sweep(_ray_args(), RAY_CSV, RAY_CROSSINGS, tmp_path)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        for demo in DEMO_NAMES:
            _write_command(command, DEMOS / f"{demo}.json", GOLDEN / f"{demo}.{command}.json")
    for command in MANY_SETS_COMMANDS:
        _write_command(command, MANY_SETS, GOLDEN / f"many_sets.{command}.json")
    _write_sweep(SWEEP_ARGS, GOLDEN / SWEEP_CSV)
    _write_sweep(_ray_args(), GOLDEN / RAY_CSV)
    sys.exit(0)
