"""Alternating benchmark pairs of two checkouts, written as a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--pairs 10] [--seed 1] [--workload NAME ...]

For each workload (all of BENCHMARK.json's, in its order, unless named),
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
each checkout in turn, the parent first in even pairs and the change first
in odd ones, with T the change's ``run_seconds``.  The two checkouts'
resolved paths must be of equal length, since peak RSS moves with the
path, and --pairs must be 2 or more; either is refused before any run
starts.  Writes the
``end_to_end``, ``failures``, ``src_lines`` and ``method`` blocks of the
BENCH file; any other key an existing --out file holds is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def side_summary(runs: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, inclusive) and the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": round(median, 5),
        "q1": round(q1, 5),
        "q3": round(q3, 5),
        "iqr": round(q3 - q1, 5),
        "runs": [round(x, 5) for x in runs],
    }


def summarize(parent: list[float], change: list[float]) -> dict:
    """One metric of one workload over pairs run in order: each side's
    summary, the pairs in which the change read lower (a tie counts for
    neither side) and the change of the median in percent."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one run per side each")
    lower = sum(c < p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": side_summary(parent),
        "change": side_summary(change),
        "change_lower_pairs": f"{lower}/{len(parent)}",
        "median_change_pct": round(100 * (c_med - p_med) / p_med, 2),
    }


def src_lines(checkout: Path) -> dict:
    """Lines per module of src/cpstrata, and their total."""
    lines = {p.stem: len(p.read_text().splitlines()) for p in sorted((checkout / "src" / "cpstrata").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be 2 or more, got {args.pairs}: quartiles need two runs per side")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(
            f"resolved paths of unequal length, {checkouts['parent']} and {checkouts['change']}: "
            "peak RSS moves with the path"
        )
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]

    end_to_end, failures = {}, {}
    for workload in workloads:
        reports = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                report = run_once(checkouts[side], workload, args.seed, seconds)
                reports[side].append(report)
                print(f"{workload} pair {i + 1} {side}: "
                      + " ".join(f"{m}={report['metrics'][m]['value']:.5g}" for m in metrics), file=sys.stderr)
        end_to_end[workload] = {
            m: summarize(*([r["metrics"][m]["value"] for r in reports[side]] for side in SIDES)) for m in metrics
        }
        failures[workload] = {
            side: {
                "failed": sum(r["failed"] for r in reports[side]),
                "attempted": sum(r["attempted"] for r in reports[side]),
                "all_correct": all(r["correct"] for r in reports[side]),
            }
            for side in SIDES
        }

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["method"] = (
        f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0, "
        f"{args.pairs} alternating pairs per workload (the parent first in even pairs), each side from "
        f"its own checkout, written by tools/bench_pairs.py. Order: {', '.join(workloads)}. Quartiles by "
        "statistics.quantiles(method='inclusive')."
    )
    bench["end_to_end"], bench["failures"] = end_to_end, failures
    bench["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
    args.out.write_text(json.dumps(bench, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
