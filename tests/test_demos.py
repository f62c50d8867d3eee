"""Every documented demo runs to completion and prints its frozen stdout."""

import json
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
STDOUT = json.loads((Path(__file__).parent / "data" / "demo_stdout.json").read_text())


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert sorted(STDOUT) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert out == STDOUT[path.stem]
