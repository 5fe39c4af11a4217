"""Seeded input generators for the benchmark workloads.

Run as a script, it writes one workload's network files and a manifest into
a directory:

    python3 perfbench/gen.py --workload sparse-core --seed 1 --out DIR

The benchmark runs it in a child process, so the measured process only sees
the files (and, for flows and shock directions, arrays read from the
manifest). The same seed gives byte-identical files. Every instance also
carries what is known about its answer in closed form (sink kinds, critical
shock sizes, loss jumps), which the correctness gate checks against.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

# Reference instances use this seed whatever --seed is, so that their
# results can be compared with values recorded once (reference.json).
REFERENCE_SEED = 0


def _dense_json(P: np.ndarray, w: np.ndarray, c: np.ndarray | None) -> str:
    """Network file text; zeros are written as 0 so mostly-empty rows stay small."""
    n = w.size
    rows = []
    for i in range(n):
        tokens = ["0"] * n
        for j in np.nonzero(P[i])[0]:
            tokens[j] = repr(float(P[i, j]))
        rows.append("[" + ",".join(tokens) + "]")
    parts = [f'{{"n": {n}', '"P": [' + ",\n".join(rows) + "]", '"w": ' + json.dumps(w.tolist())]
    if c is not None:
        parts.append('"c": ' + json.dumps(c.tolist()))
    return ", ".join(parts) + "}\n"


def _cap(n: int) -> None:
    cap = CONFIG["dense_n_cap"]
    if n > cap["n"]:
        raise ValueError(f"n = {n} exceeds the dense-size cap {cap['n']}: {cap['reason']}")


# ------------------------------ sparse-core ------------------------------


def sparse_core(rng, n, out_degree, row_sum, w_range):
    """One strongly connected network whose rows all lose some mass."""
    _cap(n)
    order = rng.permutation(n)
    nxt = np.empty(n, dtype=int)
    nxt[order] = np.roll(order, -1)
    P = np.zeros((n, n))
    for i in range(n):
        pool = rng.choice(n, size=out_degree + 1, replace=False)
        extra = [j for j in pool if j != i and j != nxt[i]][: out_degree - 1]
        targets = np.array([nxt[i], *extra])
        weights = rng.uniform(0.2, 1.0, targets.size)
        P[i, targets] = weights * (rng.uniform(*row_sum) / weights.sum())
    w = rng.uniform(*w_range, n)
    return P, w


def sparse_core_flow(rng, w, c_over_w):
    return w * rng.uniform(*c_over_w, w.size)


# --------------------------- core-periphery ---------------------------

OUT_CONNECTED = "out_connected"
NONZERO_SUM = "stochastic_nonzero_sum"
SEGMENT = "stochastic_zero_sum_segment"
ZERO_SUM_UNIQUE = "stochastic_zero_sum_unique"


def _zero_sum_target(rng, p, q, w0, w1, segment):
    """Sink inflow (v, -v) or (-v, v) whose solution line cuts the box iff ``segment``.

    For Q = [[p, 1-p], [1-q, q]] the unsaturated solutions of x = Q'x + c
    with c = (v, -v), v > 0, satisfy (1-p) x0 - (1-q) x1 = v; the line meets
    the box [0, w0] x [0, w1] iff v / (1-p) < w0. Returns the target and the
    loss jump across the segment, 1'(x_top - x_bottom).
    """
    r = rng.uniform(0.2, 0.8) if segment else rng.uniform(1.25, 2.0)
    if rng.random() < 0.5:
        v = r * (1 - p) * w0
        x1_top = min(w1, ((1 - p) * w0 - v) / (1 - q))
        return np.array([v, -v]), x1_top * (1 + (1 - q) / (1 - p))
    v = r * (1 - q) * w1
    x0_top = min(w0, ((1 - q) * w1 - v) / (1 - p))
    return np.array([-v, v]), x0_top * (1 + (1 - p) / (1 - q))


def core_periphery(rng, core, kinds, anchor_share, w_range, ray=None):
    """A transient core feeding 2-node trapping sets of the given kinds.

    Anchor nodes of the core get c > w, so they are saturated at exactly w
    in every equilibrium; only anchors feed the zero-sum and negative-sum
    sinks, whose effective inflow is therefore known exactly. ``kinds`` may
    also hold "crossing_segment" / "crossing_unique": zero-sum sinks that
    reach zero inflow sum only at a chosen eps* on the shock ray
    c(eps) = c0 - eps q (``ray`` = (eps_hi, grid)).

    Returns P, w, c, q (None without a ray) and, per sink in generation
    order, (node labels, kind, eps*, loss jump).
    """
    k = len(kinds)
    n = core + 2 * k
    _cap(n)
    P = np.zeros((n, n))
    w = rng.uniform(*w_range, n)
    c = np.zeros(n)
    q = np.zeros(n)
    n_anchor = max(1, int(round(anchor_share * core)))
    anchors = np.arange(n_anchor)
    others = np.arange(n_anchor, core)
    c[anchors] = w[anchors] * rng.uniform(1.5, 3.0, n_anchor)
    c[others] = w[others] * rng.uniform(-0.5, 0.5, others.size)
    if ray is not None:
        q[others] = rng.uniform(0.0, 0.3, others.size)

    # which sinks each core node feeds: anchors feed sinks whose inflow must
    # be known, the other core nodes feed the rest
    by_anchor = [l for l, kind in enumerate(kinds) if kind not in (OUT_CONNECTED, "positive")]
    by_other = [l for l, kind in enumerate(kinds) if kind in (OUT_CONNECTED, "positive")]
    feeders = {}
    for group, pool in ((by_anchor, anchors), (by_other, others)):
        if not group:
            continue
        if pool.size == 0:
            pool = anchors
        order = rng.permutation(len(group))
        for rank, pos in enumerate(order):
            feeder = pool[rank] if rank < pool.size else rng.choice(pool)
            feeders.setdefault(int(feeder), []).append(group[pos])
    # every core node feeds a sink, so no part of the core is a trapping set
    for i in range(core):
        if i not in feeders:
            feeders[i] = [int(rng.choice(k if i < n_anchor else by_other))]
    for i in range(core):
        targets = [int(t) for t in rng.choice(core, size=2, replace=False) if t != i]
        targets += [core + 2 * l + int(rng.integers(2)) for l in feeders[i]]
        weights = rng.uniform(0.2, 1.0, len(targets))
        P[i, targets] = weights * (rng.uniform(0.9, 1.0) / weights.sum())

    sinks = []
    for l, kind in enumerate(kinds):
        S = np.array([core + 2 * l, core + 2 * l + 1])
        w0, w1 = w[S]
        inflow = P[anchors][:, S].T @ w[anchors]
        eps_star = jump = None
        if kind == OUT_CONNECTED:
            P[S[0], S[1]] = rng.uniform(0.5, 0.95)
            P[S[1], S[0]] = rng.uniform(0.5, 1.0)
            c[S] = w[S] * rng.uniform(-0.5, 0.5, 2)
            if ray is not None:
                q[S] = rng.uniform(0.0, 0.3, 2)
            sinks.append((S, OUT_CONNECTED, None, None))
            continue
        p, r = rng.uniform(0.0, 0.5, 2)
        P[np.ix_(S, S)] = [[p, 1 - p], [1 - r, r]]
        if kind == "positive":
            c[S] = w[S] * rng.uniform(0.1, 0.6, 2)
            label = NONZERO_SUM
        elif kind == "negative":
            c[S] = -w[S] * rng.uniform(0.1, 0.6, 2) - inflow
            label = NONZERO_SUM
        elif kind in (SEGMENT, ZERO_SUM_UNIQUE):
            target, jump = _zero_sum_target(rng, p, r, w0, w1, kind == SEGMENT)
            c[S] = target - inflow
            label = kind
        else:  # crossing_segment / crossing_unique: zero sum at eps* only
            eps_hi, grid = ray
            h = eps_hi / (grid - 1)
            eps_star = (int(rng.integers(10, grid - 11)) + rng.uniform(0.25, 0.75)) * h
            segment = kind == "crossing_segment"
            target, jump = _zero_sum_target(rng, p, r, w0, w1, segment)
            q[S] = rng.uniform(0.05, 0.3, 2)
            c[S] = target + eps_star * q[S] - inflow
            label = SEGMENT if segment else ZERO_SUM_UNIQUE
            if not segment:
                jump = None
        sinks.append((S, label, eps_star, jump))

    perm = rng.permutation(n)  # shuffle node labels: old label i becomes perm[i]
    inv = np.argsort(perm)
    P, w, c, q = P[np.ix_(inv, inv)], w[inv], c[inv], q[inv]
    sinks = [(tuple(sorted(int(perm[i]) for i in S)), kind, e, j) for S, kind, e, j in sinks]
    return P, w, c, (q if ray is not None else None), sinks


def _kinds(rng, count, shares):
    names = list(shares)
    picks = rng.choice(len(names), size=count, p=np.array(list(shares.values())))
    kinds = [names[i] for i in picks]
    # nonzero-sum sinks come in both signs; negative ones need anchor feeding
    return [
        ("positive" if rng.random() < 0.5 else "negative") if kind == NONZERO_SUM else kind
        for kind in kinds
    ]


# ------------------------------- workloads -------------------------------


def _write(out: Path, name: str, P, w, c) -> dict:
    """Write the network file and the gate's own copy of P; return their manifest fields."""
    (out / name).write_text(_dense_json(P, w, c), encoding="utf-8")
    check_P = name.replace(".json", ".P.npy")
    np.save(out / check_P, P)
    fields = {"file": name, "check_P": check_P, "w": w.tolist()}
    if c is not None:
        fields["c"] = c.tolist()
    return fields


def gen_sparse_core(seed, params, out, prefix=""):
    nets = []
    for k in range(params["networks"]):
        P, w = sparse_core(np.random.default_rng([seed, 1, k]), params["n"], params["out_degree"],
                           params["row_sum"], params["w"])
        flows = [
            sparse_core_flow(np.random.default_rng([seed, 1, k, f]), w, params["c_over_w"]).tolist()
            for f in range(params["flows_per_network"])
        ]
        nets.append({
            **_write(out, f"{prefix}net{k}.json", P, w, None),
            "flows": flows,
            "transient": 0,
            "sink_kinds": [[list(range(params["n"])), OUT_CONNECTED]],
        })
    return nets


def gen_many_sinks(seed, params, out, prefix=""):
    nets = []
    for k in range(params["networks"]):
        rng = np.random.default_rng([seed, 2, k])
        kinds = _kinds(rng, params["sinks"], params["kind_shares"])
        P, w, c, _, sinks = core_periphery(rng, params["core"], kinds, params["anchor_share"], params["w"])
        nets.append({
            **_write(out, f"{prefix}net{k}.json", P, w, c),
            "transient": params["core"],
            "sink_kinds": [[list(S), kind] for S, kind, _, _ in sinks],
        })
    return nets


def gen_rays(seed, params, out, prefix=""):
    demo = params["demo"]
    demo_files = _write(out, f"{prefix}demo.json", np.array(demo["P"], dtype=float),
                        np.array(demo["w"], dtype=float), None)
    sweeps = [{
        **demo_files, "c0": demo["c0"], "q": demo["q"], "eps_lo": demo["eps_lo"],
        "eps_hi": demo["eps_hi"], "grid": demo["grid"],
        "crossings": [{"eps_star": demo["eps_star"], "loss_jump": demo["loss_jump"]}],
    }]
    for k in range(params["rays"]):
        rng = np.random.default_rng([seed, 3, k])
        n_seg, n_uni = params["crossing_segment_sinks"], params["crossing_unique_sinks"]
        kinds = ["crossing_segment"] * n_seg + ["crossing_unique"] * n_uni
        kinds += [OUT_CONNECTED if rng.random() < 0.5 else "positive" for _ in range(params["sinks"] - n_seg - n_uni)]
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        P, w, c, q, sinks = core_periphery(
            rng, params["core"], kinds, params["anchor_share"], params["w"], ray=(params["eps_hi"], params["grid"])
        )
        crossings = sorted(
            ({"eps_star": e, "sink_nodes": list(S), "loss_jump": j}
             for S, kind, e, j in sinks if kind == SEGMENT),
            key=lambda cr: cr["eps_star"],
        )
        sweeps.append({
            **_write(out, f"{prefix}ray{k}.json", P, w, None), "c0": c.tolist(), "q": q.tolist(),
            "eps_lo": 0.0, "eps_hi": params["eps_hi"], "grid": params["grid"],
            "crossings": crossings,
        })
    return sweeps


GENERATORS = {"sparse-core": gen_sparse_core, "many-sinks": gen_many_sinks, "shock-sweep": gen_rays}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's files and its reference instances; return the manifest."""
    spec = CONFIG["workloads"][workload]
    params = spec["generator"]
    gen = GENERATORS[workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "workload": workload,
        "seed": seed,
        "instances": gen(seed, params, out),
        "reference": gen(REFERENCE_SEED, {**params, **spec["reference"]}, out, prefix="ref_"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
