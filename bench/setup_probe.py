"""Set-up cost of `ecs-lab run` in a fresh interpreter.

Usage: python3 bench/setup_probe.py SCENARIO.json [...]

Imports `ecs_lab.cli`, then loads each scenario and builds its model, and
prints one JSON line with the seconds spent on the import, on loading and
building, and on both, and the time of the reference computation right
after, as the median of three (see reference.py). Run it under `python3 -X importtime` to also get
the import tree on standard error.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import ecs_lab.cli as cli  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    cli.build_model(cli.Scenario.load(path).model_spec)
built = time.perf_counter()

import statistics  # noqa: E402

from reference import run_reference  # noqa: E402

run_reference()   # the first call pays SciPy's own lazy set-up
print(json.dumps({"import_s": imported - start, "build_model_s": built - imported,
                  "setup_s": built - start,
                  "reference_s": statistics.median(run_reference() for _ in range(3))}))
