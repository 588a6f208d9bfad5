"""The five demos, run in-process with their stdout compared with the text
pinned under tests/data/demos/, so an API change that breaks a demo or
moves its output fails the suite.

The pins record the Python and NumPy versions they were made under. After a
deliberate output change, rewrite them with `PYTHONPATH=src python
tests/test_demos.py` and say in the change log which demos moved and why.
"""

import contextlib
import io
import platform
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
VERSIONS = f"python {platform.python_version()}\nnumpy {np.__version__}\n"


def demo_stdout(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return out.getvalue()


def test_every_demo_has_a_pin():
    assert sorted(p.stem for p in PINS.glob("*.txt")) == DEMOS


def test_the_pins_were_made_under_this_python_and_numpy():
    pinned = (PINS / "versions").read_text()
    assert pinned == VERSIONS, f"pinned under {pinned!r}, running under {VERSIONS!r}"


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_its_pin(name):
    got = demo_stdout(name).splitlines()
    want = (PINS / f"{name}.txt").read_text().splitlines()
    where = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got == want, (
        f"demos/{name}.py line {where + 1}: got {got[where:where + 1]}, pinned {want[where:where + 1]}"
        f" (pinned under {(PINS / 'versions').read_text()!r}, running under {VERSIONS!r})"
    )


if __name__ == "__main__":  # rewrite the pins from this tree
    PINS.mkdir(parents=True, exist_ok=True)
    for name in DEMOS:
        (PINS / f"{name}.txt").write_text(demo_stdout(name))
    (PINS / "versions").write_text(VERSIONS)
