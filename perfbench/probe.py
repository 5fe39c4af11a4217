"""Set-up probe, run in a fresh interpreter for each set-up measurement.

    python3 perfbench/probe.py FILE...

Imports saturnet from the checkout's src/ and loads each network file with
load_input, which also constructs its Network. Prints
{"import_s": ..., "load_input_s": ...} on stdout.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import saturnet  # noqa: E402

t1 = perf_counter()
for path in sys.argv[1:]:
    saturnet.load_input(path)
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_input_s": t2 - t1}))
