"""Correctness gate: every operation's result is checked before it counts.

Each check returns a list of ``(layer, message)`` problems; an operation
fails when it raises or when any problem is reported. All bounds are
relative to the instance's scale s = max(1, |w|_inf, |c|_inf), never
absolute, and are loose enough that a change in the 12th significant digit
still passes:

* both extremes satisfy |clamp(P'x + c, [0, w]) - x|_inf <= RESIDUAL_REL * s;
* x_min <= x_max (within the same bound);
* classify says "unique" exactly when |x_max - x_min|_inf <= TOL_CLASS_REL * s;
* node_partition and equilibrium_set agree with the extremes;
* what the generator knows in closed form holds: the transient part, each
  sink's kind, and each shock ray's critical eps and loss jump;
* reference instances match reference.json within REFERENCE_REL * s.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RESIDUAL_REL = 1e-9
TOL_CLASS_REL = 1e-9
REFERENCE_REL = 1e-9
# critical eps is found by bisection on the inflow sum, to about 1e-9 here
EPS_STAR_REL = 1e-7
LOSS_JUMP_REL = 1e-7

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def scale(w, c) -> float:
    return max(1.0, float(np.max(np.abs(w))), float(np.max(np.abs(c))))


def residual(P, w, c, x) -> float:
    return float(np.max(np.abs(np.minimum(np.maximum(P.T @ x + c, 0.0), w) - x)))


def check_analysis(P, w, c, result, expect) -> list[tuple[str, str]]:
    """Checks for one extremal_equilibria + node_partition + classify + equilibrium_set."""
    s = scale(w, c)
    bound = RESIDUAL_REL * s
    lo, hi = result["x_min"], result["x_max"]
    problems = []
    for name, x in (("x_min", lo), ("x_max", hi)):
        r = residual(P, w, c, x)
        if not r <= bound:
            problems.append(("solver", f"{name} residual {r:.3g} above {bound:.3g}"))
    if not np.all(lo <= hi + bound):
        problems.append(("solver", "x_min exceeds x_max"))

    surplus, exposed, deficit = (np.asarray(result[k], dtype=int) for k in ("surplus", "exposed", "deficit"))
    if not np.array_equal(np.sort(np.concatenate([surplus, exposed, deficit])), np.arange(w.size)):
        problems.append(("solver", "node partition does not cover each node once"))
    elif np.any(np.abs(lo[surplus] - w[surplus]) > bound) or np.any(np.abs(lo[deficit]) > bound):
        problems.append(("solver", "surplus nodes below capacity or deficit nodes paying"))

    coincide = float(np.max(np.abs(hi - lo))) <= TOL_CLASS_REL * s
    if result["unique"] != coincide:
        problems.append(("structure", f"classify unique={result['unique']} but extremes coincide={coincide}"))
    if result["set_unique"] != result["unique"]:
        problems.append(("structure", "equilibrium_set and classify disagree on uniqueness"))
    for name, x, ref in (("x_min", result["set_x_min"], lo), ("x_max", result["set_x_max"], hi)):
        if np.max(np.abs(x - ref)) > bound:
            problems.append(("structure", f"equilibrium_set {name} differs from extremal_equilibria"))

    if result["transient"] != expect["transient"]:
        problems.append(("decomposition", f"{result['transient']} transient nodes, expected {expect['transient']}"))
    kinds = {tuple(nodes): kind for nodes, kind in expect["sink_kinds"]}
    if result["sink_kinds"] != kinds:
        wrong = sum(result["sink_kinds"].get(nodes) != kind for nodes, kind in kinds.items())
        problems.append(("structure", f"{wrong} of {len(kinds)} sinks have the wrong nodes or kind"))
    return problems


def read_sweep(csv_path: Path, crossings_path: Path) -> dict:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = np.array(
        [[1.0 if v == "true" else 0.0 if v == "false" else float(v) for v in row] for row in body]
    )
    crossings = json.loads(crossings_path.read_text(encoding="utf-8"))
    return {"header": header, "table": table, "crossings": crossings}


def check_sweep(P, w, spec, sweep) -> list[tuple[str, str]]:
    """Checks for one `saturnet sweep` run against the network and its ray."""
    n = w.size
    c0, q = np.asarray(spec["c0"], dtype=float), np.asarray(spec["q"], dtype=float)
    s = scale(w, c0) + float(np.max(np.abs(q))) * abs(spec["eps_hi"])
    problems = []
    table = sweep["table"]
    expected_header = ["eps", "unique", "loss_min", "loss_max", "n_defaults"]
    expected_header += [f"x_min_{i + 1}" for i in range(n)] + [f"x_max_{i + 1}" for i in range(n)]
    if sweep["header"] != expected_header or table.shape != (spec["grid"], 5 + 2 * n):
        return [("cli", "sweep CSV has the wrong header or shape")]
    eps = table[:, 0]
    grid = np.linspace(spec["eps_lo"], spec["eps_hi"], spec["grid"])
    if np.max(np.abs(eps - grid)) > 1e-11 * (1.0 + abs(spec["eps_hi"])):
        problems.append(("shocks", "sweep grid differs from linspace(eps_lo, eps_hi, grid)"))
    C = c0[None, :] - eps[:, None] * q[None, :]
    X_lo, X_hi = table[:, 5:5 + n], table[:, 5 + n:]
    bound = RESIDUAL_REL * s
    for name, X in (("x_min", X_lo), ("x_max", X_hi)):
        r = np.max(np.abs(np.minimum(np.maximum(X @ P + C, 0.0), w) - X))
        if not r <= bound:
            problems.append(("shocks", f"sweep {name} residual {r:.3g} above {bound:.3g}"))
    if np.any(X_lo > X_hi + bound):
        problems.append(("shocks", "sweep x_min exceeds x_max"))
    coincide = np.max(np.abs(X_hi - X_lo), axis=1) <= TOL_CLASS_REL * s
    if not np.array_equal(table[:, 1] == 1.0, coincide):
        problems.append(("shocks", "sweep unique column disagrees with the extremes"))

    got, want = sweep["crossings"], spec["crossings"]
    if len(got) != len(want):
        return problems + [("shocks", f"{len(got)} crossings, expected {len(want)}")]
    eps_tol = EPS_STAR_REL * (1.0 + abs(spec["eps_hi"]))
    for g, e in zip(got, want):
        if abs(g["eps_star"] - e["eps_star"]) > eps_tol:
            problems.append(("shocks", f"crossing at eps {g['eps_star']}, expected {e['eps_star']}"))
        if abs(g["loss_jump"] - e["loss_jump"]) > LOSS_JUMP_REL * s:
            problems.append(("shocks", f"loss jump {g['loss_jump']}, expected {e['loss_jump']}"))
        if "sink_nodes" in e and g["sink_nodes"] != e["sink_nodes"]:
            problems.append(("shocks", f"crossing on sink {g['sink_nodes']}, expected {e['sink_nodes']}"))
    return problems


# ------------------------------- reference -------------------------------


def summarize(kind: str, result) -> dict:
    """The part of a result that reference.json stores."""
    if kind == "sweep":
        table = result["table"]
        return {
            "rows": table[::10].tolist(),
            "column_sums": table.sum(axis=0).tolist(),
            "crossings": result["crossings"],
        }
    return {
        "x_min": result["x_min"].tolist(),
        "x_max": result["x_max"].tolist(),
        "partition": [len(result[k]) for k in ("surplus", "exposed", "deficit")],
        "unique": result["unique"],
    }


def _close(got, ref, tol) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= tol))


def check_reference(kind: str, result, ref: dict, s: float) -> list[tuple[str, str]]:
    got = summarize(kind, result)
    tol = REFERENCE_REL * s
    layer = "shocks" if kind == "sweep" else "solver"
    problems = []
    if kind == "sweep":
        rows = len(result["table"])
        if not _close(got["rows"], ref["rows"], tol) or not _close(got["column_sums"], ref["column_sums"], tol * rows):
            problems.append((layer, "sweep table differs from the reference"))
        pairs = list(zip(got["crossings"], ref["crossings"]))
        if len(got["crossings"]) != len(ref["crossings"]) or any(
            not _close([g["eps_star"], g["loss_jump"]], [r["eps_star"], r["loss_jump"]], tol)
            or not _close(g["jump_vector"], r["jump_vector"], tol)
            for g, r in pairs
        ):
            problems.append((layer, "sweep crossings differ from the reference"))
        return problems
    if not (_close(got["x_min"], ref["x_min"], tol) and _close(got["x_max"], ref["x_max"], tol)):
        problems.append((layer, "extremes differ from the reference"))
    if got["partition"] != ref["partition"] or got["unique"] != ref["unique"]:
        problems.append(("structure", "partition sizes or verdict differ from the reference"))
    return problems


def load_reference(workload: str) -> list[dict]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["workloads"][workload]
