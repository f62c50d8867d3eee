"""One pass of one workload in a fresh interpreter.

Started by run.py, which passes the wall-clock time at which it started
the process.  The worker starts a ``pace.Pacer`` first, imports cpstrata
from the checkout's src tree and builds the workload's inputs, then prints
``ready <setup_s>``: the set-up time from process start, rescaled to the
reference interpreter speed (the part before the pacer started by its
first sample).  It then times each operation, checks every output (not
timed, with tracing paused), and prints one JSON line: per-operation
seconds, the pass's raw and rescaled seconds, peak RSS, failures and, with
--trace, the per-layer values.  The sampling runs in traced passes too, so
their spans include its time (about 1%).
"""

from __future__ import annotations

import time

ENTERED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from pace import Pacer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True, help="time.time() at process start")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pacer = Pacer()
    pacer.start()
    t0 = time.perf_counter()
    import cpstrata.lattice  # first: its numpy import dominates set-up

    import_s = time.perf_counter() - t0
    import cpstrata.cli  # noqa: F401  (what a command-line user loads)

    if not Path(cpstrata.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cpstrata imported from {cpstrata.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import workloads

    ref = workloads.load_reference()
    ops = workloads.make_ops(args.workload, args.seed, ref)
    pacer.pause()
    setup_s = pacer.rescale(ENTERED - args.started) + pacer.paced_s
    print(f"ready {setup_s!r}", flush=True)
    if args.setup_only:
        pacer.stop()
        return 0

    pacer.raw_s = pacer.paced_s = 0.0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    op_s: list[float] = []
    errors: list[str] = []
    for op in ops:
        pacer.resume()
        overhead = pacer.overhead_s
        start = time.perf_counter()
        try:
            result = workloads.call(op, cpstrata)
            raised = None
        except Exception:
            raised = traceback.format_exc(limit=3)
        op_s.append(time.perf_counter() - start - (pacer.overhead_s - overhead))
        pacer.pause()
        if raised is not None:
            errors.append(raised)
            continue
        if tracer is not None:
            tracer.paused = True
        try:
            problem = workloads.check(op, result, cpstrata, ref)
        except Exception:
            problem = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.paused = False
        if problem is not None:
            errors.append(problem)
    pacer.stop()

    out = {
        "op_s": op_s,
        "wall_s": sum(op_s),
        "paced_s": pacer.paced_s,
        "ref_sample_s": statistics.median(pacer.samples),
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {**tracer.metrics(), "lattice.import_s": import_s}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
