"""Record reference.json: results of each workload's reference instances.

    python3 perfbench/record_reference.py

Reference instances come from the generators at reduced size with a fixed
seed (gen.REFERENCE_SEED), so every benchmark run re-creates and re-checks
them. Re-record only when a result is meant to change, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in gen.CONFIG["workloads"]:
            workdir = Path(tmp) / workload
            manifest = gen.generate(workload, gen.REFERENCE_SEED, workdir)
            entries = []
            for op in ops.build(workload, manifest["reference"], workdir):
                result = op.digest(op.run())
                problems = op.check(result)
                if problems:
                    raise SystemExit(f"{workload} {op.name}: {problems}")
                entries.append(gate.summarize(op.kind, result))
            recorded[workload] = entries
    out = {"tolerance": f"|value - reference| <= {gate.REFERENCE_REL} * max(1, |w|_inf, |c|_inf)",
           "workloads": recorded}
    gate.REFERENCE_FILE.write_text(json.dumps(out) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
