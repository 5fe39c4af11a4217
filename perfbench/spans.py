"""In-memory spans and counters around calls into saturnet's public API.

Nothing in saturnet changes: while a Tracer is installed, each traced
function is replaced, in every saturnet module that refers to it, by a
wrapper that records a span (name, start, end, operation id, whether it
returned), and numpy.linalg.solve by a wrapper that counts solves and their
flops (2/3 k^3 for a k x k system). Solves, and blocks found by decompose,
are charged to the innermost open solver / structure / shocks span. Span
times are inclusive: a classify span contains the decompose it triggers.
Counters are integers, so per-operation ratios repeat exactly whatever the
number of operations traced.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

TRACED = {
    "model": ("load_input", "validate"),
    "decomposition": ("decompose",),
    "solver": ("extremal_equilibria", "node_partition"),
    "structure": ("classify", "equilibrium_set"),
    "shocks": ("sweep", "find_critical_eps", "sweep_to_csv"),
    "cli": ("main",),
}
OWNERS = ("solver", "structure", "shocks")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, bool]] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._open: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self) -> str:
        return next((layer for layer in reversed(self._open) if layer in OWNERS), "other")

    def _on_result(self, name: str, result) -> None:
        if name == "decomposition.decompose":
            self.counts[f"{self._owner()}.blocks"] += len(result.sinks) + bool(result.transient)
            self.counts["decomposition.blocks"] += len(result.sinks) + bool(result.transient)
        elif name == "structure.classify":
            self.counts["structure.segment_sinks"] += sum(
                a.kind.value == "stochastic_zero_sum_segment" for a in result[1]
            )
        elif name == "shocks.sweep":
            self.counts["shocks.grid_points"] += len(result[0])
            self.counts["shocks.crossings"] += len(result[1])

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"

        def traced(*args, **kwargs):
            self._open.append(layer)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.spans.append((name, t0, t1, self.op_id, ok))
            self._on_result(name, result)
            return result

        return traced

    def _count_solve(self, fn):
        def counted(a, b):
            k = np.shape(a)[-1]
            owner = self._owner()
            self.counts[f"{owner}.linalg_solves"] += 1
            self.counts[f"{owner}.linalg_k3"] += int(k) ** 3
            return fn(a, b)

        return counted

    def _patch(self, module, name: str, new) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "saturnet" or key.startswith("saturnet.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"saturnet.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._patch(module, fname, wrapper)
        self._patch(np.linalg, "solve", self._count_solve(np.linalg.solve))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def write(self, path) -> None:
        """Write the spans and counters out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, op, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent_op": op, "ok": ok}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation busy times and counts, derived from spans and counters."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, t0, t1, _, _ in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
        c = self.counts
        return {
            "model.validate_s": busy["model.validate"] / ops,
            "model.validate_calls": calls["model.validate"] / ops,
            "decomposition.decompose_s": busy["decomposition.decompose"] / ops,
            "decomposition.calls": calls["decomposition.decompose"] / ops,
            "decomposition.blocks": c["decomposition.blocks"] / max(calls["decomposition.decompose"], 1),
            "solver.extremal_equilibria_s": busy["solver.extremal_equilibria"] / ops,
            "solver.node_partition_s": busy["solver.node_partition"] / ops,
            "solver.linalg_solves": c["solver.linalg_solves"] / ops,
            "solver.linalg_flops": 2 * c["solver.linalg_k3"] / (3 * ops),
            "solver.solves_per_block": c["solver.linalg_solves"] / max(c["solver.blocks"], 1),
            "structure.classify_s": busy["structure.classify"] / ops,
            "structure.equilibrium_set_s": busy["structure.equilibrium_set"] / ops,
            "structure.linalg_solves": c["structure.linalg_solves"] / ops,
            "structure.segment_sinks": c["structure.segment_sinks"] / ops,
            "shocks.sweep_s": busy["shocks.sweep"] / ops,
            "shocks.find_critical_eps_s": busy["shocks.find_critical_eps"] / max(calls["shocks.find_critical_eps"], 1),
            "shocks.sweep_to_csv_s": busy["shocks.sweep_to_csv"] / ops,
            "shocks.grid_points": c["shocks.grid_points"] / ops,
            "shocks.crossings": c["shocks.crossings"] / ops,
            "shocks.linalg_solves": c["shocks.linalg_solves"] / ops,
            "cli.main_s": busy["cli.main"] / ops,
        }

    def raised(self) -> Counter:
        """Calls that raised, per layer."""
        return Counter(name.split(".")[0] for name, _, _, _, ok in self.spans if not ok)
