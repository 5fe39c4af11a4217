"""CLI artifacts pinned byte for byte.

``tests/golden/`` holds the stdout of ``solve``, ``classify``, ``set`` and
``decompose`` on every demo file, and the README's 1401-point shock sweep
(CSV plus crossings JSON). A change to any of these files needs a stated
reason. To rewrite them from the current code, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from saturnet.cli import main

REPO = Path(__file__).resolve().parents[1]
DEMOS = REPO / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = ("solve", "classify", "set", "decompose")
DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.json"))
SWEEP_ARGS = (
    "--input", str(DEMOS / "triangle_baseline.json"), "--c0", "5,2,2",
    "--q", "0.07,0.59,0.34", "--eps-lo", "0", "--eps-hi", "14", "--grid", "1401",
)
SWEEP_CSV = "readme_sweep.csv"
SWEEP_CROSSINGS = "readme_sweep.crossings.json"


def _write_command(command: str, demo: str, target: Path) -> None:
    code = main([command, "--input", str(DEMOS / f"{demo}.json"), "--output", str(target)])
    assert code == 0


def _write_sweep(target: Path) -> None:
    assert main(["sweep", *SWEEP_ARGS, "--output", str(target)]) == 0


@pytest.mark.parametrize("demo", DEMO_NAMES)
@pytest.mark.parametrize("command", COMMANDS)
def test_command_output(command, demo, tmp_path):
    out = tmp_path / "out.json"
    _write_command(command, demo, out)
    assert out.read_bytes() == (GOLDEN / f"{demo}.{command}.json").read_bytes()


def test_readme_sweep(tmp_path):
    out = tmp_path / SWEEP_CSV
    _write_sweep(out)
    assert out.read_bytes() == (GOLDEN / SWEEP_CSV).read_bytes()
    crossings = tmp_path / SWEEP_CROSSINGS
    assert crossings.read_bytes() == (GOLDEN / SWEEP_CROSSINGS).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        for demo in DEMO_NAMES:
            _write_command(command, demo, GOLDEN / f"{demo}.{command}.json")
    _write_sweep(GOLDEN / SWEEP_CSV)
    sys.exit(0)
