"""Every ```python block of README.md, run in-process, so an API change that
breaks the documented usage fails the suite."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (README line of the block's first code line, the code)
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    # padded so that a traceback's line numbers are README's own
    compiled = compile("\n" * (line - 1) + code, str(README), "exec")
    try:
        exec(compiled, {"__name__": "__main__"})
    except Exception as e:
        pytest.fail(f"README.md line {line}: the python block raised {type(e).__name__}: {e}")
