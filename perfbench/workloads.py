"""Seeded inputs, the calls each workload makes, and the checks on their outputs.

An operation is a tuple whose first item names its kind.  ``make_ops``
builds the operation list of a workload from the seed alone (the program
only ever receives the generated inputs); ``call`` runs one operation
against the loaded cpstrata modules and ``check`` compares its output with
the reference data in ``reference.json``, returning an error message or
None.  Every call goes through a module attribute looked up at call time,
so spans installed by ``tracer`` see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"

WORKLOADS = ("chambers-n5", "cohomology-large", "classify-small", "models-small", "verify-all")

# classify-small: this many admissible and this many inadmissible vectors per n
CLASSIFY_PER_KIND = 100
# entries are drawn from (0, CLASSIFY_TOP[n]], where both verdicts are common
CLASSIFY_TOP = {1: Fraction(2), 2: Fraction(1), 3: Fraction(3, 4), 4: Fraction(7, 10), 5: Fraction(2, 3)}
# models-small: random weight sets per chamber that takes circle weights
MODELS_PER_CHAMBER = 20
WEIGHT_RANGE = 4  # circle weight entries are drawn from [-4, 4], never (0, 0)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ------------------------------------------------------------------ inputs


def make_ops(workload: str, seed: int, ref: dict) -> list[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chambers-n5":
        ops = [("enumerate", n, b) for n in (3, 4, 5) for b in ("strict", "inclusive")]
    elif workload == "cohomology-large":
        ops = [("kriz", 2, 4, 14), ("kriz", 2, 5, 8), ("kriz", 3, 4, 14), ("presentation", 4, "C_4", 14)]
    elif workload == "classify-small":
        ops = _classify_ops(rng, ref)
    elif workload == "models-small":
        ops = _model_ops(rng, ref)
    elif workload == "verify-all":
        ops = [("verify",)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def expected_classification(values: tuple, ref: dict):
    """(violator, bits) from the stored class lists; exactly one is None.

    The violator is the first exceptional class, in the stored
    lexicographic order, of nonpositive area under the unsorted
    capacities, else "volume"; bits are the wall area signs of the
    nonincreasingly sorted capacities.  Areas are compared in integers
    over the common denominator.
    """
    n = len(values)
    den = lcm(*(c.denominator for c in values))
    ints = [c.numerator * (den // c.denominator) for c in values]
    for a, r in ref["exceptional"][str(n)]:
        if a * den - sum(c * ri for c, ri in zip(ints, r)) <= 0:
            return ["class", a, list(r)], None
    if den * den - sum(c * c for c in ints) <= 0:
        return "volume", None
    ints.sort(reverse=True)
    bits = [a * den - sum(c * ri for c, ri in zip(ints, r)) > 0 for a, r in ref["walls"][str(n)]]
    return None, bits


def _classify_ops(rng: random.Random, ref: dict) -> list[tuple]:
    ops = []
    for n, top in CLASSIFY_TOP.items():
        wanted = {True: CLASSIFY_PER_KIND, False: CLASSIFY_PER_KIND}
        while wanted[True] or wanted[False]:
            values = tuple(
                top * Fraction(rng.randint(1, d), d) for d in (rng.randint(1, 24) for _ in range(n))
            )
            violator, bits = expected_classification(values, ref)
            admissible = violator is None
            if wanted[admissible]:
                wanted[admissible] -= 1
                ops.append(("classify", values, violator, bits))
    return ops


def _model_ops(rng: random.Random, ref: dict) -> list[tuple]:
    ops = []
    for n, chamber, free in ref["free_weights"]:
        for _ in range(MODELS_PER_CHAMBER if free else 0):
            weights = []
            while len(weights) < free:
                pair = (rng.randint(-WEIGHT_RANGE, WEIGHT_RANGE), rng.randint(-WEIGHT_RANGE, WEIGHT_RANGE))
                if pair != (0, 0):
                    weights.append(pair)
            ops.append(("model", n, chamber, weights))
    return ops


# ------------------------------------------------------------------- calls


def call(op: tuple, cp) -> object:
    """Run one operation; cp is the loaded cpstrata package."""
    kind = op[0]
    if kind == "enumerate":
        return cp.chambers.enumerate_chambers(op[1], op[2])
    if kind == "kriz":
        _, m, k, cap = op
        report = cp.dga.cohomology_ranks(cp.kriz.kriz_model(cp.kriz.KrizParams(m, k), degree_cap=cap))
        return report.rank_list(), report.euler_characteristic()
    if kind == "presentation":
        _, n, chamber, cap = op
        model = cp.ballmodels.iemb_model(n, chamber, degree_cap=cap)
        pres, gen_map = cp.ballmodels.iemb_presentation(n, chamber)
        return cp.dga.verify_presentation(model, pres, gen_map)
    if kind == "classify":
        caps = cp.lattice.Capacities(op[1])
        verdict = cp.chambers.is_admissible(caps)
        return verdict, (cp.chambers.chamber_signature(caps) if verdict else None)
    if kind == "model":
        _, n, chamber, weights = op
        return cp.dga.cohomology_ranks(cp.ballmodels.iemb_model(n, chamber, weights)).rank_list(9)
    if kind == "verify":
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"verify-{os.getpid()}.json"
        # the pass/fail lines go to stdout ahead of any payload, so the
        # payload is read back from --out
        with contextlib.redirect_stdout(io.StringIO()):
            code = cp.cli.main(["verify", "all", "--out", str(out)])
        try:
            payload = json.loads(out.read_text())
        finally:
            out.unlink(missing_ok=True)
        return code, payload
    raise ValueError(f"unknown operation {kind!r}")


# ------------------------------------------------------------------ checks


def check(op: tuple, result, cp, ref: dict):
    """None if the output matches the reference, else a message."""
    kind = op[0]
    if kind == "enumerate":
        _, n, boundary = op
        want = ref["chamber_counts"][str(n)]
        if len(result) != want:
            return f"n={n} {boundary}: {len(result)} chambers, expected {want}"
        if len({rec.signature.bits for rec in result}) != want:
            return f"n={n} {boundary}: repeated sign pattern"
        for rec in result:
            if not cp.chambers.is_admissible(rec.witness):
                return f"n={n} {boundary}: witness {rec.witness.values} is inadmissible"
            if cp.chambers.chamber_signature(rec.witness).bits != rec.signature.bits:
                return f"n={n} {boundary}: witness {rec.witness.values} lies in another chamber"
        return None
    if kind == "kriz":
        _, m, k, cap = op
        ranks, euler = result
        want = ref["kriz_rows"][f"{m},{k},{cap}"]["ranks"]
        if ranks != want:
            return f"kriz({m},{k}) cap {cap}: ranks {ranks}, expected {want}"
        alternating = sum((-1) ** q * r for q, r in enumerate(want))
        if euler != alternating:
            return f"kriz({m},{k}) cap {cap}: euler characteristic {euler}, expected {alternating}"
        return None
    if kind == "presentation":
        _, n, chamber, cap = op
        if not result.ok:
            return f"presentation ({n}, {chamber}) cap {cap}: {result.first_failure}"
        row = ref["iemb_rows"][f"{n},{chamber}"]
        dims = [dm for _, _, dm in result.dims][: len(row)]
        if dims != row:
            return f"presentation ({n}, {chamber}): model ranks {dims}, expected {row}"
        return None
    if kind == "classify":
        _, values, violator, bits = op
        verdict, sig = result
        got = None
        if not verdict:
            v = verdict.violator
            got = v if isinstance(v, str) else ["class", v.degree_a, list(v.multiplicities)]
        if got != violator:
            return f"classify {[str(c) for c in values]}: violator {got}, expected {violator}"
        if sig is not None and list(sig.bits) != bits:
            return f"classify {[str(c) for c in values]}: bits {sig.bit_string()}, expected {bits}"
        return None
    if kind == "model":
        _, n, chamber, weights = op
        want = ref["iemb_rows"][f"{n},{chamber}"]
        if result != want:
            return f"model ({n}, {chamber}, {weights}): ranks {result}, expected {want}"
        return None
    if kind == "verify":
        code, payload = result
        payload = {k: v for k, v in payload.items() if k != "timings"}
        if code != 0:
            return f"verify all exited with {code}"
        if payload != ref["verify_all_payload"]:
            return "verify all payload differs from the reference"
        return None
    raise ValueError(f"unknown operation {kind!r}")
