"""The README's Python examples run as written against the package's
exports, and its scenario example runs through the command line."""

import re
from pathlib import Path

import pytest

from ecs_lab.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
SCENARIOS = re.findall(r"^```json\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_has_both_examples():
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_example_runs(index, capsys):
    code = compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec")
    exec(code, {})
    assert capsys.readouterr().out


def test_scenario_example_passes(tmp_path):
    assert len(SCENARIOS) == 1
    scenario = tmp_path / "scenario.json"
    scenario.write_text(SCENARIOS[0])
    code = main(["run", "--scenario", str(scenario),
                 "--report", str(tmp_path / "report.json")])
    assert code == 0
