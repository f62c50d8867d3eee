import json
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


def no_run(*args):
    raise AssertionError("a benchmark run was started")


def argv(parent, change, out, *extra):
    return ["--parent", str(parent), "--change", str(change), "--out", str(out), *extra]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_are_refused_before_any_run(pairs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(argv(tmp_path / "p", tmp_path / "c", out, "--pairs", pairs))
    assert e.value.code == 2
    assert "--pairs must be 2 or more" in capsys.readouterr().err
    assert not out.exists()


def test_paths_of_unequal_length_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "BENCH.json"
    # the lengths are compared after resolving: "c/../pp" resolves to "pp"
    for parent, change in [("p", "cc"), ("p", "c/../pp")]:
        (tmp_path / "c").mkdir(exist_ok=True)
        with pytest.raises(SystemExit) as e:
            bench_pairs.main(argv(tmp_path / parent, tmp_path / change, out))
        assert e.value.code == 2
        assert "resolved paths of unequal length" in capsys.readouterr().err
    assert not out.exists()


def test_equal_paths_and_two_pairs_run_alternating(tmp_path, monkeypatch):
    # run_once stands in for perfbench/run.py, so no benchmark starts
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
    spec = {"run_seconds": 3, "workloads": [{"name": "w"}], "end_to_end": [{"name": "t"}]}
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seconds))
        value = float(len(runs))
        return {"metrics": {"t": {"value": value}}, "failed": 0, "attempted": 1, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(argv(tmp_path / "p", tmp_path / "c", out, "--pairs", "2")) == 0
    assert runs == [("p", "w", 3), ("c", "w", 3), ("c", "w", 3), ("p", "w", 3)]
    bench = json.loads(out.read_text())
    assert bench["end_to_end"]["w"]["t"]["parent"]["runs"] == [1.0, 4.0]
    assert bench["end_to_end"]["w"]["t"]["change"]["runs"] == [2.0, 3.0]
    assert bench["failures"]["w"]["change"] == {"failed": 0, "attempted": 2, "all_correct": True}
