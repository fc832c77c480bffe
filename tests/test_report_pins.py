"""The seed-1 reports are pinned: every shipped scenario and one seed-1 pass
of each benchmark workload must give the exit codes, stdout, report bytes
and row values recorded in tests/oracles/report_pins.txt.

The file is written by tests/oracles/generate_report_pins.py. A report is a
function of (scenario, seed, library versions), so under other Python,
NumPy or SciPy versions than the recorded ones the comparison is skipped,
with both version lines in the reason.
"""

import importlib.util
from itertools import zip_longest
from pathlib import Path

import pytest

GENERATOR = Path(__file__).resolve().parent / "oracles" / "generate_report_pins.py"
_spec = importlib.util.spec_from_file_location("ecs_lab_report_pins", GENERATOR)
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


def _describe(line: str) -> str:
    """A pin line for a reader: a row's value as a float, not its hex."""
    parts = line.split()
    if parts[0] == "row":
        _, name, index, anchor, value, verdict = parts
        return f"{name} task {index} {anchor} = {float.fromhex(value)!r} ({verdict})"
    return line


def moved(recorded: list[str], current: list[str]) -> list[str]:
    """'old -> new' for every line that differs, scenario by scenario: moved
    rows with their old and new values, rows that appear or vanish, and
    scenarios whose exit code, stdout or report bytes changed."""
    def by_scenario(lines):
        out = {}
        for line in lines[1:]:
            out.setdefault(line.split()[1], []).append(line)
        return out

    old, new = by_scenario(recorded), by_scenario(current)
    return [f"{_describe(a) if a else '(none)'} -> {_describe(b) if b else '(none)'}"
            for name in dict.fromkeys([*old, *new])
            for a, b in zip_longest(old.get(name, []), new.get(name, []))
            if a != b]


def test_moved_rows_are_named():
    recorded = ["versions x", "scenario s exit 0 stdout a report b",
                "row s 0 geodesic.energy 0x1.0000000000000p-40 pass",
                "row s 1 geodesic.t-affine 0x0.0p+0 pass"]
    current = ["versions x", "scenario s exit 1 stdout c report d",
               "row s 0 geodesic.energy 0x1.0000000000000p-20 fail",
               "row s 1 geodesic.t-affine 0x0.0p+0 pass",
               "row s 1 geodesic.boundary-exit nan fail"]
    assert moved(recorded, current) == [
        "scenario s exit 0 stdout a report b -> scenario s exit 1 stdout c report d",
        f"s task 0 geodesic.energy = {2.0 ** -40!r} (pass) -> "
        f"s task 0 geodesic.energy = {2.0 ** -20!r} (fail)",
        "(none) -> s task 1 geodesic.boundary-exit = nan (fail)",
    ]


def test_seed_one_reports_match_their_pins(tmp_path):
    recorded = pins.PINS.read_text().splitlines()
    if recorded[0] != pins.versions():
        pytest.skip(f"pins recorded under '{recorded[0]}', running '{pins.versions()}'")
    changes = moved(recorded, pins.pin_lines(tmp_path))
    assert not changes, "reports moved from their pins:\n" + "\n".join(changes)
