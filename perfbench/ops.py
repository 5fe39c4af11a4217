"""Benchmark operations built from a generated manifest.

An operation's ``run`` is the timed part: calls into saturnet's public API
only. ``digest`` turns its return value into plain arrays and ``check``
applies the correctness gate; both run outside the timer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import saturnet
import saturnet.cli

import gate


@dataclass
class Op:
    name: str
    kind: str  # "analysis" | "sweep"
    run: Callable[[], Any]
    digest: Callable[[Any], dict]
    check: Callable[[dict], list]
    scale: float


def analyse(net, c):
    """One analysis operation: the four calls of sparse-core and many-sinks."""
    lo, hi = saturnet.extremal_equilibria(net, c)
    part = saturnet.node_partition(net, c, lo)
    dec, analyses, unique = saturnet.classify(net, c)
    eq_set = saturnet.equilibrium_set(net, c)
    return lo, hi, part, dec, analyses, unique, eq_set


def analyse_fresh(P, w, c):
    """An analysis on a newly constructed Network, so nothing cached on one is reused."""
    return analyse(saturnet.Network(P, w), c)


def sweep_cli(argv):
    """One shock-sweep operation: the CLI's sweep subcommand, in process."""
    return saturnet.cli.main(argv)


def digest_analysis(out) -> dict:
    lo, hi, part, dec, analyses, unique, eq_set = out
    return {
        "x_min": lo.x, "x_max": hi.x,
        "surplus": part.surplus, "exposed": part.exposed, "deficit": part.deficit,
        "unique": bool(unique),
        "set_unique": bool(eq_set.is_unique),
        "set_x_min": eq_set.x_min(), "set_x_max": eq_set.x_max(),
        "transient": len(dec.transient),
        "sink_kinds": {a.nodes: a.kind.value for a in analyses},
    }


def _vector_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def sweep_argv(spec: dict, workdir: Path, out: Path) -> list[str]:
    return [
        "sweep", "--input", str(workdir / spec["file"]),
        f"--c0={_vector_arg(spec['c0'])}", f"--q={_vector_arg(spec['q'])}",
        f"--eps-lo={spec['eps_lo']!r}", f"--eps-hi={spec['eps_hi']!r}", f"--grid={spec['grid']}",
        "--output", str(out),
    ]


def _load_check_copy(workdir: Path, spec: dict):
    """The gate's own copy of P, written by the generator next to the network file."""
    return np.load(workdir / spec["check_P"]), np.asarray(spec["w"], dtype=float)


def build(workload: str, instances: list[dict], workdir: Path, reference: list[dict] | None = None) -> list[Op]:
    """Load the instances through saturnet and pair each operation with its checks.

    With ``reference`` (one entry per operation, from reference.json) the
    results are also compared with the recorded values.
    """
    ops: list[Op] = []
    for spec in instances:
        P, w = _load_check_copy(workdir, spec)
        if workload == "shock-sweep":
            out = workdir / (Path(spec["file"]).stem + ".out.csv")
            argv = sweep_argv(spec, workdir, out)
            run = partial(sweep_cli, argv)
            digest = partial(_digest_sweep, out)
            check = partial(_check_sweep, P, w, spec)
            flows = [(spec["file"], run, digest, check, gate.scale(w, spec["c0"]), "sweep")]
        else:
            net, flow = saturnet.load_input(workdir / spec["file"])
            loaded = [(net.P, P), (net.w, w)] + ([(flow.c, spec["c"])] if "c" in spec else [])
            if not all(np.array_equal(got, want) for got, want in loaded):
                raise RuntimeError(f"load_input does not reproduce {spec['file']}")
            if workload == "sparse-core":
                cs = [np.asarray(c, dtype=float) for c in spec["flows"]]
                runs = [partial(analyse, net, c) for c in cs]
            else:
                cs = [np.asarray(spec["c"], dtype=float)]
                runs = [partial(analyse_fresh, net.P, net.w, flow.c)]
            flows = [
                (f"{spec['file']}#{f}", run, digest_analysis, partial(gate.check_analysis, P, w, c, expect=spec),
                 gate.scale(w, c), "analysis")
                for f, (c, run) in enumerate(zip(cs, runs))
            ]
        for name, run, digest, check, s, kind in flows:
            if reference is not None:
                check = partial(_with_reference, check, kind, reference[len(ops)], s)
            ops.append(Op(name, kind, run, digest, check, s))
    return ops


def _digest_sweep(out: Path, rc) -> dict:
    result = gate.read_sweep(out, out.with_suffix(".crossings.json")) if rc == 0 else {}
    result["rc"] = rc
    return result


def _check_sweep(P, w, spec, result) -> list:
    if result["rc"] != 0:
        return [("cli", f"saturnet sweep exited with code {result['rc']}")]
    return gate.check_sweep(P, w, spec, result)


def _with_reference(check, kind, ref, s, result) -> list:
    problems = check(result)
    return problems or gate.check_reference(kind, result, ref, s)


def load_manifest(workdir: Path) -> dict:
    return json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
