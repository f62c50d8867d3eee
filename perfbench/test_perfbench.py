"""Tests of the benchmark itself: input generation, span installation and rescaling.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

REF = workloads.load_reference()


def test_same_seed_gives_the_same_queries():
    for name in ("classify-small", "models-small"):
        assert workloads.make_ops(name, 7, REF) == workloads.make_ops(name, 7, REF)


def test_another_seed_gives_other_queries():
    for name in ("classify-small", "models-small"):
        assert workloads.make_ops(name, 7, REF) != workloads.make_ops(name, 8, REF)


def test_classify_queries_are_accepted_inputs_in_both_verdicts():
    from cpstrata.lattice import Capacities

    ops = workloads.make_ops("classify-small", 3, REF)
    assert len(ops) == 2 * workloads.CLASSIFY_PER_KIND * len(workloads.CLASSIFY_TOP)
    for kind, values, violator, bits in ops:
        assert kind == "classify"
        Capacities(values)  # raises on inputs the program rejects
        assert all(isinstance(c, Fraction) and c > 0 for c in values)
        assert (violator is None) == (bits is not None)
    assert sum(op[2] is None for op in ops) == len(ops) // 2


def test_model_queries_are_accepted_inputs():
    from cpstrata.ballmodels import CircleWeights, free_weight_count

    ops = workloads.make_ops("models-small", 3, REF)
    weighted = [row for row in REF["free_weights"] if row[2]]
    assert len(ops) == workloads.MODELS_PER_CHAMBER * len(weighted)
    for kind, n, chamber, weights in ops:
        assert kind == "model"
        assert len(weights) == free_weight_count(n, chamber) > 0
        assert (0, 0) not in weights
        CircleWeights(weights)


def test_a_wrong_output_is_reported():
    assert workloads.check(("enumerate", 3, "strict"), (), None, REF)
    assert workloads.check(("kriz", 2, 4, 14), ([0] * 15, 0), None, REF)
    assert workloads.check(("model", 4, "C_1", [(1, 1)]), [1] * 10, None, REF)
    assert workloads.check(("verify",), (0, {"pass": True}), None, REF)
    assert workloads.check(("verify",), (1, dict(REF["verify_all_payload"])), None, REF)


def test_reference_checker_agrees_with_the_program_on_sample_queries():
    import cpstrata
    import cpstrata.cli  # noqa: F401

    for op in workloads.make_ops("classify-small", 5, REF)[:200]:
        result = workloads.call(op, cpstrata)
        assert workloads.check(op, result, cpstrata, REF) is None


def test_no_cpstrata_module_holds_an_unwrapped_target():
    originals = tracer.targets()
    t = tracer.Tracer()
    t.install()
    try:
        for module in tracer.cpstrata_modules():
            for key, value in vars(module).items():
                assert not any(value is fn for fn in originals), f"{module.__name__}.{key}"
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        assert not any(member is fn for fn in originals), f"{value.__name__}.{attr}"
    finally:
        t.uninstall()
    import cpstrata.chambers

    assert cpstrata.chambers.feasible_point is sys.modules["cpstrata.exactlp"].feasible_point
    assert cpstrata.chambers.feasible_point is originals[2]


def _traced_counts() -> dict:
    import cpstrata.chambers

    t = tracer.Tracer()
    t.install()
    try:
        cpstrata.chambers.enumerate_chambers(3)
    finally:
        t.uninstall()
    return {k: v for k, v in t.metrics().items() if not k.endswith((".s", "_s"))}


def test_enumerate_chambers_counts_repeat_exactly():
    first = _traced_counts()
    assert first["chambers.enumerate_chambers.calls"] == 1
    assert first["chambers.records"] == REF["chamber_counts"]["3"]
    assert first["exactlp.feasible_point.calls"] > 0
    assert first["gradedalg.graded_basis.calls"] == 0
    assert _traced_counts() == first


def test_pacer_counts_only_unpaused_time_and_rescales_it():
    import time

    import pace

    pacer = pace.Pacer()
    pacer.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pace.reference_loop()
    pacer.pause()
    time.sleep(0.1)  # not counted
    pacer.resume()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pace.reference_loop()
    pacer.stop()
    assert len(pacer.samples) >= 5
    assert 0.25 < pacer.raw_s + pacer.overhead_s < 0.35
    speed = pace.REFERENCE_S / statistics.median(pacer.samples)
    assert 0.7 < pacer.paced_s / (pacer.raw_s * speed) < 1.4
