import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def test_summary_of_fixed_runs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 6.0]
    assert bench_pairs.summarize(parent, change) == {
        "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "runs": parent},
        "change": {"median": 2.5, "q1": 2.0, "q3": 3.0, "iqr": 1.0, "runs": change},
        "change_lower_pairs": "3/5",
        "median_change_pct": -16.67,
    }


def test_ties_count_for_neither_side_and_values_round_to_five_places():
    summary = bench_pairs.summarize([0.0123456, 0.02, 0.03], [0.0123456, 0.019999, 0.04])
    assert summary["change_lower_pairs"] == "1/3"
    assert summary["parent"]["runs"] == [0.01235, 0.02, 0.03]
    assert summary["change"]["median"] == 0.02
    assert summary["median_change_pct"] == -0.01


@pytest.mark.parametrize("parent,change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_unpaired_or_single_runs_are_refused(parent, change):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change)


def test_src_lines_counts_every_module(tmp_path):
    pkg = tmp_path / "src" / "cpstrata"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    assert bench_pairs.src_lines(tmp_path) == {"a": 2, "b": 1, "total": 3}
