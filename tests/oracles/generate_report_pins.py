"""Regenerate the pinned reports (report_pins.txt).

The pinned set is the seed-1 set: every scenario under scenarios/ and one
pass of each benchmark workload at seed 1 (bench/workloads.py), 25
scenarios. Each runs through `ecs_lab.cli.main` in this process. The file
keeps, per scenario, its exit code and the SHA-256 of its stdout and of its
report bytes (so a change of `detail` shows too), and one line per report
row: scenario, task index, anchor, value as float.hex, pass. Its first line
holds the Python, NumPy and SciPy versions it was recorded under: a report
is a function of (scenario, seed, library versions), so
tests/test_report_pins.py compares only under those versions.

A change that moves rows on purpose regenerates the file and lists the
moved rows (the test names them) in CHANGES.md.

Run from the repository root:

    PYTHONPATH=src python3 tests/oracles/generate_report_pins.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ecs_lab import cli

ROOT = Path(__file__).resolve().parent.parent.parent
PINS = Path(__file__).with_name("report_pins.txt")
SEED = 1


def versions() -> str:
    return (f"versions python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__}")


def pinned_scenarios() -> list[tuple[str, dict]]:
    """(name, payload) of the shipped scenarios and of each workload at SEED."""
    spec = importlib.util.spec_from_file_location(
        "ecs_lab_bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = [(path.stem, json.loads(path.read_text()))
           for path in sorted((ROOT / "scenarios").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        out += [(f"{workload}/{name}", payload)
                for name, payload in workloads.scenarios(workload, SEED)]
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pin_lines(workdir: Path) -> list[str]:
    """The file's lines for the reports as this checkout writes them, with
    scratch files in workdir."""
    lines = [versions()]
    for name, payload in pinned_scenarios():
        tasks = [entry["task"] for entry in payload["tasks"]]
        # Rows carry their task's name, and a task's rows are consecutive,
        # so the walk below finds each row's task while no two neighbouring
        # tasks share a name.
        if any(a == b for a, b in zip(tasks, tasks[1:])):
            raise ValueError(f"{name}: neighbouring tasks share a name")
        scenario, report = workdir / "scenario.json", workdir / "report.json"
        scenario.write_text(json.dumps(payload))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", "--scenario", str(scenario), "--report", str(report)])
        data = report.read_bytes()
        lines.append(f"scenario {name} exit {code} "
                     f"stdout {_digest(stdout.getvalue().encode())} report {_digest(data)}")
        index = 0
        for row in json.loads(data)["checks"]:
            while tasks[index] != row["task"]:
                index += 1
            lines.append(f"row {name} {index} {row['anchor']} "
                         f"{float(row['value']).hex()} {'pass' if row['pass'] else 'fail'}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        PINS.write_text("\n".join(pin_lines(Path(workdir))) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    main()
