#!/usr/bin/env python3
"""saturnet benchmark: fixed-seed workloads, end-to-end and per-layer metrics.

Run from the root of a saturnet source checkout:

    python3 perfbench/run.py --workload sparse-core --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from --seed (perfbench/gen.py, in a
child process), measures set-up in fresh interpreters, checks reference
instances against reference.json, then runs the operations in a closed loop
(one process, one caller) over the workload's mix until --seconds have
passed and the workload's minimum sample count is reached.
Every operation's result goes through the correctness gate (gate.py).

--trace 0 reports the end-to-end metrics, in seconds scaled by how fast the
machine runs at the time (see Speed). --trace 1 alternates untraced and
traced passes and reports the per-layer metrics derived from the spans and
counters of spans.py. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Workloads, metrics and bounds
are defined in BENCHMARK.json and perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "solver.linalg_flops": "flop",
         "solver.solves_per_block": "ratio", "error_rate": "ratio", "trace.overhead": "s"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def median(values: list[float]) -> float:
    """Median, or 0 when every operation failed (the result then says correct: false)."""
    return statistics.median(values) if values else 0.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description="saturnet benchmark")
    ap.add_argument("--workload", required=True, choices=[*CONFIG["workloads"], "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:  # not Linux
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("saturnet/**/*.py")))


class Speed:
    """How much slower than usual this machine runs right now, from fixed kernels.

    On the shared machine the benchmark was defined on, the same code runs
    up to ~1.8x slower for seconds to minutes at a time while other tenants
    load the core, so medians of raw wall time spread by 25-50 % between
    runs. Every timing the end-to-end metrics use is therefore taken between
    two probes of two kernels that never call saturnet: "interpreter" (small
    dense solves and dict work, like per-call overhead) and "dense" (one
    600 x 600 solve, like the big interior solves). Each kernel's slowness is
    its time over its uncontended reference time; a timing is divided by the
    workload's weighted mean slowness around it, which gives seconds on the
    machine when uncontended. Raw wall times are printed alongside.
    """

    def __init__(self, reference_s: dict[str, float]):
        import numpy as np

        rng = np.random.default_rng(0)
        self.reference_s = reference_s
        self._solve = np.linalg.solve  # the original, even while a Tracer is installed
        self._eye = np.eye(40)
        self._small = rng.random((40, 40))
        self._big = rng.random((600, 600)) + 600 * np.eye(600)
        self.slowness: list[dict[str, float]] = []
        self.last = self.probe()

    def _interpreter(self) -> None:
        total = 0.0
        for i in range(300):
            total += float(self._solve(self._small + i * self._eye, self._eye[0]).max())
            total += sum({j: j * total for j in range(30)}.values())

    def _dense(self) -> None:
        self._solve(self._big, self._big[0])

    def probe(self) -> dict[str, float]:
        found = {}
        for name, kernel in (("interpreter", self._interpreter), ("dense", self._dense)):
            t0 = perf_counter()
            kernel()
            found[name] = (perf_counter() - t0) / self.reference_s[name]
        self.slowness.append(found)
        return found

    def timed(self, fn, weights: dict[str, float]):
        """Call fn; return its result, its wall time and its wall time over the slowness around it."""
        before = self.last
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            self.last = self.probe()
        slowness = sum(w * 0.5 * (before[k] + self.last[k]) for k, w in weights.items())
        return result, wall, wall / slowness


def measure_setup(files: list[Path], speed: Speed) -> tuple[list[float], list[float], list[dict]]:
    """Wall and scaled time of a fresh interpreter that imports saturnet and loads the files.

    Repeated at least min_repeats times and for at least min_seconds. Start-up,
    imports and JSON parsing are interpreter work, so they are scaled by the
    interpreter kernel alone.
    """
    walls, scaled, inside = [], [], []
    argv = [sys.executable, str(HERE / "probe.py"), *map(str, files)]
    start = perf_counter()
    while len(walls) < CONFIG["setup"]["min_repeats"] or perf_counter() - start < CONFIG["setup"]["min_seconds"]:
        proc, wall, norm = speed.timed(
            lambda: subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True),
            {"interpreter": 1.0},
        )
        walls.append(wall)
        scaled.append(norm)
        inside.append(json.loads(proc.stdout.splitlines()[-1]))
    return walls, scaled, inside


def execute(op, failures: Counter, speed: Speed, weights: dict) -> tuple[float, float] | None:
    """Run one operation, then check it; its (wall, scaled) latency, or None if it failed."""
    try:
        raw, wall, scaled = speed.timed(op.run, weights)
    except Exception:  # the loop must go on; the failure is counted and shown
        print(f"{op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
        failures["raised"] += 1
        return None
    try:
        problems = op.check(op.digest(raw))
    except Exception:
        problems = [("gate", traceback.format_exc())]
    for layer, message in problems:
        print(f"{op.name}: {layer}: {message}", file=sys.stderr)
        failures[layer] += 1
    return None if problems else (wall, scaled)


class Loop:
    """Closed loop over the operation mix, in order, one operation at a time."""

    def __init__(self, ops, failures: Counter, speed: Speed, weights: dict):
        self.ops = ops
        self.failures = failures
        self.speed = speed
        self.weights = weights
        self.attempted = 0
        self.failed = 0

    def run_one(self, op, latencies: list) -> None:
        latency = execute(op, self.failures, self.speed, self.weights)
        self.attempted += 1
        if latency is None:
            self.failed += 1
        else:
            latencies.append(latency)

    def run_pass(self, latencies: list, tracer=None) -> None:
        for op in self.ops:
            if tracer is not None:
                tracer.op_id = self.attempted
            self.run_one(op, latencies)

    def run_for(self, latencies: list, seconds: float, min_ops: int) -> None:
        """Until ``seconds`` have passed and at least ``min_ops`` operations ran."""
        start = perf_counter()
        while perf_counter() - start < seconds or self.attempted < min_ops:
            self.run_one(self.ops[self.attempted % len(self.ops)], latencies)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "saturnet" / "__init__.py").is_file():
        print(f"perfbench: no saturnet sources at {SRC}; run from the root of a saturnet checkout",
              file=sys.stderr)
        return 2
    # numpy reads these when it is first imported, here and in child processes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(CONFIG["blas_threads"])
    sys.path.insert(0, str(SRC))
    import saturnet

    if Path(saturnet.__file__).resolve().parent != (SRC / "saturnet").resolve():
        print(f"perfbench: imported saturnet from {saturnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path) -> dict:
    import numpy as np

    import gate
    import ops as ops_mod

    spec = CONFIG["workloads"][args.workload]
    speed = Speed(CONFIG["speed_reference_s"])
    weights = spec["speed_weights"]
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(workdir)],
        check=True, timeout=600,
    )
    manifest = ops_mod.load_manifest(workdir)
    files = [workdir / inst["file"] for inst in manifest["instances"]]
    setup_walls, setup_scaled, setup_inside = measure_setup(files, speed)

    ops = ops_mod.build(args.workload, manifest["instances"], workdir)
    reference = ops_mod.build(args.workload, manifest["reference"], workdir,
                              reference=gate.load_reference(args.workload))
    failures: Counter = Counter()
    checked = Loop(reference, failures, speed, weights)
    checked.run_pass([])  # correctness against recorded values; also warms up

    loop = Loop(ops, failures, speed, weights)
    untraced: list[tuple[float, float]] = []  # (wall, scaled) of each passed operation
    traced: list[tuple[float, float]] = []
    tracer = None
    if args.trace:
        from spans import TRACED, Tracer

        tracer = Tracer()
    min_ops = CONFIG["min_ops"]
    traced_passes = 0
    if tracer is None:
        loop.run_for(untraced, args.seconds, min_ops)
    else:
        # whole passes, so that per-operation counts repeat exactly
        start = perf_counter()
        while traced_passes == 0 or perf_counter() - start < args.seconds:
            loop.run_pass(untraced)
            tracer.install()
            try:
                loop.run_pass(traced, tracer)
            finally:
                tracer.uninstall()
            traced_passes += 1
    attempted = loop.attempted + checked.attempted
    failed = loop.failed + checked.failed
    p = CONFIG["tail_percentile"]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": CONFIG["loop"], "operation": spec["operation"], "mix": spec["mix"],
        "ops_in_mix": len(ops), "timed_samples": len(untraced), "traced_samples": len(traced),
        "tail": f"op_tail_s is the p{p} latency; a run takes at least {min_ops} samples, "
                f"so at least {min_ops * (100 - p) / 100:g} lie beyond it",
        "error_rate": failed / attempted,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "src.lines": src_lines(),
        "dense_n_cap": CONFIG["dense_n_cap"],
        "wait_time": "not reported: one caller and no queue, so no layer waits",
        "speed": {
            "scaling": "end-to-end times are wall times over the machine's slowness around them (see Speed)",
            "reference_s": speed.reference_s,
            "weights": weights,
            "slowness_p50": {k: statistics.median(s[k] for s in speed.slowness) for k in speed.reference_s},
            "setup_wall_s": statistics.median(setup_walls),
            "op_p50_wall_s": median([w for w, _ in untraced]),
        },
    }
    print("meta " + json.dumps(meta))
    scaled = [t for _, t in untraced]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "op_p50_s": median(scaled),
            "op_tail_s": float(np.percentile(scaled, p)) if scaled else 0.0,
            "ops_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = {
            "cli.import_s": statistics.median(d["import_s"] for d in setup_inside),
            "model.load_input_s": statistics.median(d["load_input_s"] for d in setup_inside),
            **tracer.layer_metrics(traced_passes * len(ops)),
        }
        raised = tracer.raised()
        for layer in TRACED:
            metrics[f"{layer}.failures"] = raised[layer] + failures[layer]
        metrics["error_rate"] = failed / attempted
        metrics["trace.overhead"] = median([t for _, t in traced]) - median(scaled)
        metrics["src.lines"] = meta["src.lines"]
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; exits 1 if any check failed."""
    status = 0
    for name in CONFIG["workloads"]:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
        if proc.returncode != 0 or not last or json.loads(last[0]).get("failed") != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
