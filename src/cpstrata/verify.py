"""Named verification suites over the package's frozen reference values.

Each suite runs a fixed, ordered list of checks.  A check stores the
expected and computed values as plain strings so reports serialize
reproducibly; wall-clock timings are kept off to the side and never
take part in report comparison.  A value that several checks of one
suite read is computed once, by a functools.cache thunk made inside the
suite function, so nothing is shared across suites or runs; a raised
exception is not cached, so every check that reads a failing value
reports the same error.  The suite names are part of the
command-line surface: chambers, thm13, eq71, eq75, ab-iso, kriz, conf.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache
from itertools import permutations

from . import ballmodels
from .chambers import chamber_label, enumerate_chambers
from .confgeom import ProjectivePoint, _det3, apply_pgl, collinear, cross_ratio, stratum
from .dga import cohomology_ranks, verify_presentation
from .kriz import KrizParams, kriz_model, relabeled_model
from .lattice import Capacities, enumerate_exceptional, negative_wall_classes

# Frozen reference rows.
FLAG_ROW = [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0]
CONF3_ROW = [1, 0, 3, 0, 3, 0, 1, 1, 0, 1, 0]
CONF4_ROW = [1, 0, 4, 0, 4, 2, 0, 6, 0, 4, 2, 1, 2, 0, 0]
STAB4_DIMS = [1, 0, 4, 0, 5, 2, 5, 2, 5, 2, 5, 2, 5, 2, 5]

IEMB_ROWS = {
    (1, "C_unique"): [1, 0, 1, 0, 1, 0, 0, 0, 0, 0],
    (2, "C_unique"): [1, 0, 2, 0, 2, 0, 1, 0, 0, 0],
    (3, "big"): [1, 0, 2, 0, 2, 0, 1, 0, 0, 0],
    (3, "small"): [1, 0, 3, 0, 3, 0, 1, 1, 0, 1],
    (4, "C_0"): [1, 0, 0, 1, 0, 1, 0, 0, 1, 0],
    (4, "C_1"): [1, 0, 1, 0, 0, 1, 0, 1, 0, 0],
    (4, "C_2"): [1, 0, 2, 0, 1, 1, 0, 2, 0, 1],
    (4, "C_3"): [1, 0, 3, 0, 2, 1, 0, 3, 0, 2],
    (4, "C_4"): [1, 0, 4, 0, 3, 1, 0, 4, 0, 3],
}

# One admissible capacity vector per four-ball chamber.
CLASSIFICATION_WITNESSES = [
    ("1/3,1/3,1/3,1/3", "C_0"),
    ("1/2,1/4,1/4,1/4", "C_1"),
    ("2/5,2/5,3/10,1/5", "C_2"),
    ("2/5,2/5,2/5,1/10", "C_3"),
    ("3/10,3/10,3/10,3/10", "C_4"),
    ("6/25,6/25,6/25,6/25", "C_5"),
]

SMALL_BALL_WEIGHTS = [(1, 0), (1, 1), (2, -1), (3, 5)]
_WEIGHT_POOLS = [
    [(1, 1), (1, 1), (1, 1), (1, 1)],
    [(1, 0), (0, 1), (1, 0), (0, 1)],
    [(2, 1), (1, -3), (3, 5), (5, 2)],
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: str
    computed: str
    seconds: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "expected": self.expected,
            "computed": self.computed,
        }


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text(v) for v in value) + "]"
    return str(value)


class Recorder:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    def check(self, name: str, expected, thunk) -> None:
        start = time.perf_counter()
        try:
            computed = thunk()
        except Exception as exc:
            computed = f"error: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.checks.append(
            Check(name, computed == expected, _text(expected), _text(computed), elapsed)
        )


# ---------------------------------------------------------------------------
# Suites

def suite_chambers(rec: Recorder) -> None:
    for boundary in ("strict", "inclusive"):
        for n, want in ((3, 2), (4, 6), (5, 33)):
            rec.check(
                f"chamber count n={n} ({boundary})",
                want,
                lambda n=n, b=boundary: len(enumerate_chambers(n, b)),
            )
    for text, label in CLASSIFICATION_WITNESSES:
        rec.check(
            f"classification of ({text})",
            label,
            lambda t=text: chamber_label(Capacities.parse(t)),
        )
    rec.check(
        "negative wall classes n=3",
        ["L - E1 - E2 - E3"],
        lambda: [w.to_text() for w in negative_wall_classes(3)],
    )
    for n, want in ((4, 5), (5, 16)):
        rec.check(
            f"negative wall count n={n}",
            want,
            lambda n=n: len(negative_wall_classes(n)),
        )
    rec.check(
        "exceptional class counts n=1..8",
        [1, 3, 6, 10, 16, 27, 56, 240],
        lambda: [len(enumerate_exceptional(n)) for n in range(1, 9)],
    )


def suite_thm13(rec: Recorder) -> None:
    for (n, label), row in sorted(IEMB_ROWS.items()):
        model = cache(lambda: ballmodels.iemb_model(n, label))
        rec.check(
            f"rank table ({n}, {label})",
            row,
            lambda: cohomology_ranks(model()).rank_list(9),
        )
        rec.check(
            f"presentation check ({n}, {label})",
            True,
            lambda: bool(verify_presentation(model(), *ballmodels.iemb_presentation(n, label))),
        )
    rec.check(
        "rank table (4, C_5) through cap 14",
        CONF4_ROW,
        lambda: cohomology_ranks(ballmodels.iemb_model(4, "C_5")).rank_list(),
    )
    for r in (1, 2, 3, 4):
        sets = [pool[:r] for pool in _WEIGHT_POOLS]
        rec.check(
            f"weight independence C_{r} across three weight sets",
            True,
            lambda r=r, s=sets: ballmodels.weight_independence_check(
                4, f"C_{r}", s
            ),
        )


def _dimensions(algebra, top: int) -> list[int]:
    """Graded dimensions in degrees 0..top-1, all read from one algebra, which
    builds each frame once and keeps it."""
    return [algebra.quotient_dimension(q) for q in range(top)]


def suite_eq71(rec: Recorder) -> None:
    rec.check(
        "four-ball stabilizer dims through degree 14",
        STAB4_DIMS,
        lambda: _dimensions(ballmodels.four_ball_stabilizer_presentation(), 15),
    )
    rec.check(
        "stabilizer presentation served for (4, C_5)",
        STAB4_DIMS[:8],
        lambda: _dimensions(ballmodels.bstab_presentation(4, "C_5"), 8),
    )


def suite_eq75(rec: Recorder) -> None:
    ranks = cache(lambda: cohomology_ranks(kriz_model(KrizParams(2, 4))))
    rec.check(
        "four-point configuration ranks at cap 14",
        CONF4_ROW,
        lambda: ranks().rank_list(),
    )
    rec.check(
        "four-point euler characteristic",
        0,
        lambda: ranks().euler_characteristic(),
    )


def suite_ab_iso(rec: Recorder) -> None:
    iso = cache(ballmodels.ab_isomorphism_check)
    rec.check(
        "relation images in ideal, degree-2 span, dims equal",
        True,
        lambda: bool(iso()),
    )
    rec.check(
        "graded dimensions of both rings",
        [1, 0, 3, 0, 3, 0, 1, 1, 0, 1, 0, 0, 0],
        lambda: list(iso().source_dims),
    )
    rec.check(
        "image of the first quadratic relation",
        "T1^2 + T1*T2 + 3*T1*T3 + T2^2 + 3*T2*T3 + 3*T3^2",
        lambda: dict(iso().images)["alpha1^2 + alpha1*alpha2 + alpha2^2"],
    )
    rec.check(
        "image of the first odd relation",
        "T1*eta - T2*eta",
        lambda: dict(iso().images)["alpha1*zeta - alpha2*zeta"],
    )


def suite_kriz(rec: Recorder) -> None:
    conf3 = cache(lambda: cohomology_ranks(kriz_model(KrizParams(2, 3))))
    rec.check("three-point configuration ranks", CONF3_ROW, lambda: conf3().rank_list())
    for w in SMALL_BALL_WEIGHTS:
        rec.check(
            f"three small balls match the configuration ranks, weight {w}",
            CONF3_ROW,
            lambda w=w: cohomology_ranks(
                ballmodels.iemb_model(3, "small", [w])
            ).rank_list(10),
        )
    rec.check(
        "two-point configuration ranks (surface case m=2)",
        FLAG_ROW,
        lambda: cohomology_ranks(kriz_model(KrizParams(2, 2))).rank_list(),
    )
    for m in (1, 2, 3):
        want = [1 if q % 2 == 0 and q <= 2 * m else 0 for q in range(11)]
        rec.check(
            f"one-point model reproduces projective {m}-space",
            want,
            lambda m=m: cohomology_ranks(
                kriz_model(KrizParams(m, 1), degree_cap=10)
            ).rank_list(),
        )
    def relabel3() -> bool:
        base = conf3().ranks
        for perm in permutations((1, 2, 3)):
            moved = cohomology_ranks(relabeled_model(KrizParams(2, 3), perm))
            if moved.ranks != base:
                return False
        return True

    rec.check("relabeling invariance, three points, all 6 orders", True, relabel3)

    def relabel4() -> bool:
        base = cohomology_ranks(
            kriz_model(KrizParams(2, 4), degree_cap=8)
        ).ranks
        for perm in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
            moved = cohomology_ranks(
                relabeled_model(KrizParams(2, 4), perm, degree_cap=8)
            )
            if moved.ranks != base:
                return False
        return True

    rec.check("relabeling invariance, four points, cap 8", True, relabel4)


def suite_conf(rec: Recorder) -> None:
    pp = ProjectivePoint.parse
    rec.check(
        "collinearity on a coordinate line",
        True,
        lambda: collinear(pp("1:0:0"), pp("0:1:0"), pp("1:1:0")),
    )
    rec.check(
        "standard frame is not collinear",
        False,
        lambda: collinear(pp("1:0:0"), pp("0:1:0"), pp("0:0:1")),
    )
    rec.check(
        "generic four points",
        "F_0",
        lambda: stratum([pp("1:0:0"), pp("0:1:0"), pp("0:0:1"), pp("1:1:1")]),
    )
    rec.check(
        "one collinear triple",
        "F_123",
        lambda: stratum([pp("1:0:0"), pp("0:1:0"), pp("1:1:0"), pp("0:0:1")]),
    )
    rec.check(
        "fully collinear quadruple",
        "F_1234",
        lambda: stratum([pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")]),
    )
    rec.check(
        "cross ratio of evenly spaced points",
        "4/3",
        lambda: str(cross_ratio([pp(f"1:{z}:0") for z in (0, 1, 2, 3)])),
    )

    def pgl_sweep() -> int:
        rng = random.Random(20260815)
        configs = [
            [pp("1:0:0"), pp("0:1:0"), pp("0:0:1"), pp("1:1:1")],
            [pp("1:0:0"), pp("0:1:0"), pp("1:1:0"), pp("0:0:1")],
            [pp("1:0:0"), pp("0:1:0"), pp("1:1:1"), pp("1:1:0")],
            [pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")],
            [pp("1:0:0"), pp("0:1:0"), pp("0:0:1")],
            [pp("1:0:0"), pp("0:1:0"), pp("1:1:0")],
        ]
        labels = [stratum(pts) for pts in configs]
        agreed = 0
        tried = 0
        while tried < 100:
            M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            if _det3(M) == 0:
                continue
            pts = configs[tried % len(configs)]
            moved = [apply_pgl(M, p) for p in pts]
            if stratum(moved) == labels[tried % len(configs)]:
                agreed += 1
            tried += 1
        return agreed

    rec.check("stratum agreement over 100 random projectivities", 100, pgl_sweep)

    def ratio_sweep() -> int:
        rng = random.Random(11)
        good = 0
        done = 0
        while done < 50:
            M = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            if _det3(M) == 0:
                continue
            # four distinct affine parameters on a random line
            params = rng.sample(range(-20, 21), 4)
            a = ProjectivePoint([1, rng.randint(-5, 5), rng.randint(-5, 5)])
            b = ProjectivePoint([0, 1, rng.randint(-5, 5)])
            pts = [
                ProjectivePoint([x + t * y for x, y in zip(a.triple, b.triple)])
                for t in params
            ]
            before = cross_ratio(pts)
            degenerate = before in (0, 1)
            after = cross_ratio([apply_pgl(M, p) for p in pts])
            if after == before and not degenerate:
                good += 1
            done += 1
        return good

    rec.check("cross-ratio agreement over 50 random projectivities", 50, ratio_sweep)


SUITES = {
    "ab-iso": suite_ab_iso,
    "chambers": suite_chambers,
    "conf": suite_conf,
    "eq71": suite_eq71,
    "eq75": suite_eq75,
    "kriz": suite_kriz,
    "thm13": suite_thm13,
}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.checks)


def run_suite(name: str) -> SuiteReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from "
            + ", ".join(sorted(SUITES) + ["all"])
        ) from None
    rec = Recorder()
    fn(rec)
    return SuiteReport(name, tuple(rec.checks))


def run_suites(name: str) -> list[SuiteReport]:
    if name == "all":
        return [run_suite(s) for s in sorted(SUITES)]
    return [run_suite(name)]


def report_json(reports: list[SuiteReport]) -> dict:
    """Deterministic payload plus a separate timings block."""
    return {
        "pass": all(r.passed for r in reports),
        "suites": {
            r.suite: {
                "pass": r.passed,
                "checks": [c.to_json_dict() for c in r.checks],
            }
            for r in reports
        },
        "timings": {
            r.suite: {
                "total_s": round(r.seconds, 3),
                "checks": {c.name: round(c.seconds, 3) for c in r.checks},
            }
            for r in reports
        },
    }
