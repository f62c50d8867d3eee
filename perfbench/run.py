"""cpstrata benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each pass runs in a fresh interpreter (perfbench/worker.py), so lru_caches
and per-algebra frame caches start cold as they do for a command-line
user; passes run one after another, a closed loop with one client, and
repeat until S seconds have gone (at least one pass).  Times are rescaled
to a fixed interpreter speed sampled during the pass (perfbench/pace.py).

--trace 0 reports the end_to_end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per_layer metrics,
including the tracing overhead and the operation latency percentiles of
the untraced passes.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  Workload
rationale, predictions and the seed baseline are in perfbench/plan.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "lattice", "exactlp", "chambers", "gradedalg", "dga",
    "kriz", "ballmodels", "confgeom", "verify", "cli",
)
MIN_SETUPS = 5  # set-up samples per run; set-up-only workers fill the gap
LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """Run one pass in a fresh worker process and return its report.

    The report carries setup_s, measured by the worker from the process
    start time passed to it.
    """
    started = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--started", repr(started)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready or (not setup_only and len(lines) < 2):
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    report = {} if setup_only else json.loads(lines[-1])
    report["setup_s"] = float(ready[0].split()[1])
    for error in report.get("errors", ()):
        print(f"{workload} check failed: {error}", file=sys.stderr)
    return report


def quantile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def src_lines() -> dict:
    return {
        f"{mod}.src_lines": len((ROOT / "src" / "cpstrata" / f"{mod}.py").read_text().splitlines())
        for mod in MODULES
    }


def measure(workload: str, seed: int, seconds: int) -> tuple[list, dict]:
    start = time.monotonic()
    deadline = start + LIMIT_S
    passes = [run_pass(workload, seed, deadline)]
    while time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(workload, seed, deadline, setup_only=True)["setup_s"])
    return passes, {
        "setup_s": statistics.median(setups),
        "paced_wall_s": statistics.median(p["paced_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }


def measure_traced(workload: str, seed: int, seconds: int) -> tuple[list, dict]:
    start = time.monotonic()
    deadline = start + LIMIT_S
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(run_pass(workload, seed, deadline))
        traced.append(run_pass(workload, seed, deadline, trace=True))
    layers = [p["layers"] for p in traced]
    metrics = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
    metrics.update(src_lines())
    op_ms = [s * 1000 for p in plain for s in p["op_s"]]
    metrics["bench.op_p50_ms"] = quantile(op_ms, 50)
    metrics["bench.op_p90_ms"] = quantile(op_ms, 90)
    metrics["bench.op_samples"] = len(op_ms)
    raw_wall_s = statistics.median(p["wall_s"] for p in plain)
    metrics["bench.raw_wall_s"] = raw_wall_s
    metrics["bench.ref_sample_us"] = statistics.median(p["ref_sample_s"] for p in plain) * 1e6
    metrics["bench.trace_overhead_s"] = statistics.median(p["paced_s"] for p in traced) - statistics.median(
        p["paced_s"] for p in plain
    )
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    metrics["bench.failed_ratio"] = sum(p["failed"] for p in passes) / attempted
    return passes, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cpstrata" / "__init__.py").is_file():
        print("error: no cpstrata package under src/ in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            passes, values = measure_traced(args.workload, args.seed, args.seconds)
        else:
            passes, values = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
