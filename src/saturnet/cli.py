"""Command-line front-end.

One input file, one subcommand, machine-readable output (JSON or CSV) with
fixed 12-significant-digit number formatting so repeated runs are
byte-identical. Exit codes: 0 success, 1 validation failure, 2 solver
non-convergence, 3 usage error.

Each subcommand is declared once, in ``build_parser``, with its handler;
the parsed arguments carry it as ``run``, and ``main`` returns ``args.run(args)``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._fmt import dumps
from .decomposition import decompose
from .dynamics import simulate
from .errors import (
    FileFormatError,
    InputError,
    NonConvergenceError,
    NotCriticalError,
    PartitionInconsistencyError,
)
from .model import (
    LiabilityData,
    from_liabilities,
    load_input,
    network_to_dict,
    validate,
)
from .shocks import ShockRay, max_jump_norm, sweep, sweep_to_csv, systemic_loss
from .solver import SolveOptions, extremal_equilibria, node_partition
from .structure import classify, equilibrium_set


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 3
        raise UsageError(message)


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise UsageError(f"{name} must be a comma-separated list of numbers") from None


def _load_network(path):
    """Read a network or liability file; returns (net, default flow)."""
    loaded = load_input(path)
    if isinstance(loaded, LiabilityData):
        net, flow = from_liabilities(loaded)
        return net, flow.c
    net, flow = loaded
    return net, flow.c if flow is not None else np.zeros(net.n)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _options(args) -> SolveOptions:
    kwargs = {}
    if args.tol_fp is not None:
        kwargs["tol_fp"] = args.tol_fp
    if args.tol_class is not None:
        kwargs["tol_class"] = args.tol_class
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    try:
        return SolveOptions(**kwargs)
    except InputError as exc:  # bad flag values are usage errors
        raise UsageError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="saturnet",
        description="Equilibria and shock analysis for saturated linear flow networks.",
    )
    parser.add_argument("--version", action="version", version=f"saturnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, solves=False):
        """A subcommand that ``main`` hands to ``run``; ``solves`` adds the solver's tolerance flags."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--input", required=True, help="network or liability JSON file")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if solves:
            p.add_argument("--tol-fp", dest="tol_fp", type=float, default=None)
            p.add_argument("--tol-class", dest="tol_class", type=float, default=None)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        return p

    add("validate", "check network invariants; exit 1 on violations", _cmd_validate)
    add("convert", "convert a liability file to a network file", _cmd_convert)
    add("decompose", "transient part and trapping sets", _cmd_decompose)
    add("solve", "minimal/maximal equilibria and the node partition", _cmd_solve, solves=True)
    add("classify", "per-sink uniqueness analysis", _cmd_classify, solves=True)
    add("set", "explicit representation of the whole equilibrium set", _cmd_set, solves=True)

    p = add("loss", "systemic loss of the file's flow relative to a baseline", _cmd_loss, solves=True)
    p.add_argument("--c0", required=True, help="baseline flow, comma-separated")

    p = add("jump", "largest possible equilibrium jump, p = 1, 2, inf", _cmd_jump)
    p.add_argument("--p", choices=["1", "2", "inf"], default=None,
                   help="report a single norm instead of all three")

    p = add("sweep", "shock-ray sweep; writes CSV plus a crossings JSON", _cmd_sweep, solves=True)
    p.add_argument("--c0", default=None, help="baseline flow (default: the file's c)")
    p.add_argument("--q", required=True, help="shock direction, comma-separated")
    p.add_argument("--eps-lo", dest="eps_lo", type=float, default=0.0)
    p.add_argument("--eps-hi", dest="eps_hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=101)

    p = add("simulate", "integrate the flow dynamics, emit a trajectory CSV", _cmd_simulate)
    p.add_argument("--x0", choices=["zero", "cap"], default="zero",
                   help="start from the box bottom or top")
    p.add_argument("--t-end", dest="t_end", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--sample-every", dest="sample_every", type=int, default=1)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser; ``parse_args`` reads it without changing it.

    Building it takes about 60 ``add_argument`` calls, a cost each ``main``
    would otherwise pay again.
    """
    return build_parser()


def _cmd_validate(args) -> int:
    net, _ = _load_network(args.input)
    report = validate(net)
    _emit(dumps(report.to_json_dict()), args.output)
    return 0 if report.ok else 1


def _cmd_convert(args) -> int:
    loaded = load_input(args.input)
    if not isinstance(loaded, LiabilityData):
        raise UsageError("convert expects a liability file (keys W, a, b, u)")
    net, flow = from_liabilities(loaded)
    _emit(dumps(network_to_dict(net, flow)), args.output)
    return 0


def _cmd_decompose(args) -> int:
    net, _ = _load_network(args.input)
    _emit(dumps(decompose(net).to_json_dict()), args.output)
    return 0


def _cmd_solve(args) -> int:
    net, c = _load_network(args.input)
    opts = _options(args)
    lo, hi = extremal_equilibria(net, c, opts)
    part = node_partition(net, c, lo, opts)
    payload = {
        "n": net.n,
        "x_min": lo.x.tolist(),
        "x_max": hi.x.tolist(),
        "residual_min": lo.residual,
        "residual_max": hi.residual,
        "unique": bool(np.array_equal(lo.x, hi.x)),
        "partition": part.to_json_dict(),
    }
    _emit(dumps(payload), args.output)
    return 0


def _cmd_classify(args) -> int:
    net, c = _load_network(args.input)
    opts = _options(args)
    dec, analyses, unique = classify(net, c, opts)
    sinks = []
    for a in analyses:
        entry = {
            "index": a.index,
            "nodes": list(a.nodes),
            "kind": a.kind.value,
            "inflow_sum": float(a.inflow.sum()) if a.inflow is not None else None,
            "stationary": a.stationary.tolist() if a.stationary is not None else None,
            "base": a.base.tolist() if a.base is not None else None,
            "condition_value": a.condition_value,
            "alpha_range": list(a.alpha_range) if a.alpha_range is not None else None,
        }
        sinks.append(entry)
    payload = {"is_unique": unique, "transient": list(dec.transient), "sinks": sinks}
    _emit(dumps(payload), args.output)
    return 0


def _cmd_set(args) -> int:
    net, c = _load_network(args.input)
    eq_set = equilibrium_set(net, c, _options(args))
    _emit(dumps(eq_set.to_json_dict()), args.output)
    return 0


def _cmd_loss(args) -> int:
    net, c = _load_network(args.input)
    opts = _options(args)
    c0 = _parse_vector(args.c0, "--c0")
    lo, hi = extremal_equilibria(net, c, opts)
    payload = {
        "loss_min": systemic_loss(net, c0, c, hi),
        "loss_max": systemic_loss(net, c0, c, lo),
        "unique": bool(np.array_equal(lo.x, hi.x)),
    }
    _emit(dumps(payload), args.output)
    return 0


def _cmd_jump(args) -> int:
    net, _ = _load_network(args.input)
    norms = ("1", "2", "inf") if args.p is None else (args.p,)
    _emit(dumps({"p" + p: max_jump_norm(net, float(p)) for p in norms}), args.output)
    return 0


def _cmd_sweep(args) -> int:
    if args.output is None:
        raise UsageError("sweep writes two artifacts; --output is required")
    net, c = _load_network(args.input)
    opts = _options(args)
    c0 = _parse_vector(args.c0, "--c0") if args.c0 is not None else c
    q = _parse_vector(args.q, "--q")
    ray = ShockRay(c0, q, args.eps_lo, args.eps_hi, args.grid)
    records, crossings = sweep(net, ray, opts)
    csv_text = sweep_to_csv(records, net.n)
    crossings_text = dumps([cr.to_json_dict() for cr in crossings])
    out = Path(args.output)
    out.write_text(csv_text, encoding="utf-8")
    out.with_suffix(".crossings.json").write_text(crossings_text, encoding="utf-8")
    return 0


def _cmd_simulate(args) -> int:
    net, c = _load_network(args.input)
    x0 = np.zeros(net.n) if args.x0 == "zero" else net.w.copy()
    traj = simulate(net, c, x0, t_end=args.t_end, dt=args.dt,
                    sample_every=args.sample_every)
    _emit(traj.to_csv(), args.output)
    return 0


def _fail(kind: str, message: str, code: int) -> int:
    first_line = str(message).splitlines()[0] if str(message) else kind
    print(f"saturnet: error: {kind}: {first_line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        return _fail("usage", str(exc), 3)
    except FileFormatError as exc:
        return _fail("file-format", str(exc), 3)
    except (NonConvergenceError, PartitionInconsistencyError) as exc:
        return _fail("no-convergence", str(exc), 2)
    except (InputError, NotCriticalError) as exc:
        return _fail("validation", str(exc), 1)
    except OSError as exc:
        return _fail("io", str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
