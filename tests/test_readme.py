"""The README's Python examples run as written against the package's
exports."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).parent.parent / "README.md").read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_has_both_examples():
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_example_runs(index, capsys):
    code = compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec")
    exec(code, {})
    assert capsys.readouterr().out
