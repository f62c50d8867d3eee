"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one headline result at its stated tolerance (exact
arithmetic everywhere, so tolerance means equality) and prints a single
pass/fail line with the wall-clock time against the allowed bound.  Run
with -s to see the lines as they happen.
"""

import random
import time
from fractions import Fraction

from cpstrata.ballmodels import (
    ab_isomorphism_check,
    four_ball_stabilizer_presentation,
    iemb_model,
    iemb_presentation,
)
from cpstrata.chambers import chamber_label, enumerate_chambers
from cpstrata.confgeom import ProjectivePoint, apply_pgl, cross_ratio, stratum
from cpstrata.dga import (
    check_d_squared,
    check_ideal_stability,
    cohomology_ranks,
    differential,
    verify_presentation,
)
from cpstrata.gradedalg import GPolynomial
from cpstrata.kriz import KrizParams, kriz_model, relabeled_model
from cpstrata.lattice import Capacities, enumerate_exceptional, negative_wall_classes
from cpstrata.verify import Recorder
from polytext import from_exponents
from test_monomial_kernel import reference_monomials

# Frozen expectations.  Counts and rank rows were derived once from the
# exact enumerations and small-model cohomology and are restated here so
# the acceptance layer does not share constants with the library.

CHAMBER_COUNTS = {3: 2, 4: 6, 5: 33}

CLASSIFICATION_WITNESSES = (
    ("1/3,1/3,1/3,1/3", "C_0"),
    ("1/2,1/4,1/4,1/4", "C_1"),
    ("2/5,2/5,3/10,1/5", "C_2"),
    ("2/5,2/5,2/5,1/10", "C_3"),
    ("3/10,3/10,3/10,3/10", "C_4"),
    ("6/25,6/25,6/25,6/25", "C_5"),
)

WALLS_N3 = ("L - E1 - E2 - E3",)
WALLS_N4 = (
    "L - E2 - E3 - E4",
    "L - E1 - E3 - E4",
    "L - E1 - E2 - E4",
    "L - E1 - E2 - E3",
    "L - E1 - E2 - E3 - E4",
)
EXCEPTIONAL_COUNTS = (1, 3, 6, 10, 16, 27, 56, 240)

FLAG_ROW = [1, 0, 2, 0, 2, 0, 1]
CONF3_ROW = [1, 0, 3, 0, 3, 0, 1, 1, 0, 1]
CONF4_ROW = [1, 0, 4, 0, 4, 2, 0, 6, 0, 4, 2, 1, 2, 0, 0]
STAB4_DIMS = [1, 0, 4, 0, 5, 2, 5, 2, 5, 2, 5, 2, 5, 2, 5]

SMALL_BALL_WEIGHTS = ((1, 0), (1, 1), (2, -1), (3, 5))
WEIGHT_POOLS = (
    ((1, 1), (1, 1), (1, 1), (1, 1)),
    ((1, 0), (0, 1), (1, 0), (0, 1)),
    ((2, 1), (1, -3), (3, 5), (5, 2)),
)


def run_criterion(label: str, bound_s: float, body) -> None:
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed < bound_s
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {elapsed:.2f}s (bound {bound_s:g}s)")
    if failure is not None:
        raise failure
    assert elapsed < bound_s, f"{label} exceeded its time bound: {elapsed:.2f}s"


def test_criterion_01_chamber_counts():
    def body():
        for n, expected in sorted(CHAMBER_COUNTS.items()):
            assert len(enumerate_chambers(n, "strict")) == expected, n
            assert len(enumerate_chambers(n, "inclusive")) == expected, n

    run_criterion("chamber counts, strict and inclusive, n=3..5", 60.0, body)


def test_criterion_02_capacity_classification():
    def body():
        for text, label in CLASSIFICATION_WITNESSES:
            assert chamber_label(Capacities.parse(text)) == label, text

    run_criterion("capacity vectors classify to their chambers", 1.0, body)


def test_criterion_03_wall_and_exceptional_inventories():
    def body():
        assert tuple(w.to_text() for w in negative_wall_classes(3)) == WALLS_N3
        assert tuple(w.to_text() for w in negative_wall_classes(4)) == WALLS_N4
        assert len(negative_wall_classes(5)) == 16
        for n, count in enumerate(EXCEPTIONAL_COUNTS, start=1):
            assert len(enumerate_exceptional(n)) == count, n

    run_criterion("wall and exceptional class inventories", 30.0, body)


def test_criterion_04_flag_model():
    def body():
        D = iemb_model(3, "big")
        ranks = cohomology_ranks(D).rank_list()
        assert ranks[:7] == FLAG_ROW
        assert all(r == 0 for r in ranks[7:])
        P, gmap = iemb_presentation(3, "big")
        report = verify_presentation(D, P, gmap)
        assert report, report.failures

    run_criterion("flag-manifold model ranks and presentation", 1.0, body)


def test_criterion_05_three_point_configuration():
    def body():
        base = cohomology_ranks(kriz_model(KrizParams(2, 3))).rank_list(10)
        assert base[:10] == CONF3_ROW
        for w in SMALL_BALL_WEIGHTS:
            rep = cohomology_ranks(iemb_model(3, "small", [w]))
            assert rep.rank_list(10) == base, w

    run_criterion("three-point configuration vs small-ball space", 10.0, body)


def test_criterion_06_classification_table():
    def body():
        for r in range(5):
            D = iemb_model(4, f"C_{r}", degree_cap=14)
            P, gmap = iemb_presentation(4, f"C_{r}")
            report = verify_presentation(D, P, gmap)
            assert report, (r, report.failures)
        row = cohomology_ranks(kriz_model(KrizParams(2, 4))).rank_list()
        assert row == CONF4_ROW

    run_criterion("classification table, all six chamber rows", 600.0, body)


def test_criterion_07_four_ball_stabilizer_dimensions():
    def body():
        P = four_ball_stabilizer_presentation()
        dims = [P.quotient_dimension(q) for q in range(15)]
        assert dims == STAB4_DIMS
        assert dims[:4] == [1, 0, 4, 0]
        assert all(dims[q] == 5 for q in range(4, 15, 2))
        assert all(dims[q] == 2 for q in range(5, 14, 2))

    run_criterion("four-ball stabilizer ring dimensions", 30.0, body)


def test_criterion_08_configuration_ring_isomorphism():
    def body():
        report, texts = ab_isomorphism_check()
        assert report, report.failures
        assert len(texts) == 7
        assert len(report.dims) == 13
        assert all(dp == dt for _, dp, dt in report.dims)

    run_criterion("three-point ring maps onto the small-ball answer", 5.0, body)


def _random_homogeneous(rng, table, max_degree):
    """A nonzero random homogeneous polynomial of some degree <= max_degree."""
    while True:
        q = rng.randint(1, max_degree)
        monos = reference_monomials(table, q)
        if not monos:
            continue
        picks = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        out = GPolynomial.zero(table)
        for m in picks:
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            out = out + from_exponents(table, [(m, coeff)])
        if not out.is_zero:
            return out


def _random_point(rng):
    while True:
        coords = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if any(coords):
            return ProjectivePoint(coords)


def _random_invertible(rng):
    while True:
        M = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        det = (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
        if det != 0:
            return M


def test_criterion_09_structural_properties():
    def body():
        rng = random.Random(402653189)

        models = [
            iemb_model(1, "unique"),
            iemb_model(2, "unique"),
            iemb_model(3, "big"),
            iemb_model(3, "small"),
            iemb_model(3, "small", [(2, -1)]),
        ]
        models += [iemb_model(4, f"C_{r}") for r in range(6)]
        models += [kriz_model(KrizParams(2, 2)), kriz_model(KrizParams(2, 3))]
        for D in models:
            check_d_squared(D)
            check_ideal_stability(D)

        # Leibniz rule on 100 random homogeneous pairs across the models.
        leibniz_pool = [models[3], models[4], models[-1]]
        for _ in range(100):
            D = rng.choice(leibniz_pool)
            p = _random_homogeneous(rng, D.table, 6)
            q = _random_homogeneous(rng, D.table, 6)
            left = differential(D, p * q)
            right = differential(D, p) * q + (
                -(p * differential(D, q))
                if p.degree() % 2
                else p * differential(D, q)
            )
            assert left == right

        # Graded commutativity and associativity on random sparse inputs.
        table = models[3].table
        for _ in range(50):
            p = _random_homogeneous(rng, table, 7)
            q = _random_homogeneous(rng, table, 7)
            flip = q * p
            assert p * q == (-flip if p.degree() % 2 and q.degree() % 2 else flip)
            r = _random_homogeneous(rng, table, 5)
            assert (p * q) * r == p * (q * r)

        # Relabeling the configuration points must not move the ranks.
        base3 = cohomology_ranks(kriz_model(KrizParams(2, 3))).rank_list()
        for perm in ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
            D = relabeled_model(KrizParams(2, 3), perm)
            assert cohomology_ranks(D).rank_list() == base3, perm
        base4 = cohomology_ranks(kriz_model(KrizParams(2, 4), degree_cap=8)).rank_list()
        for perm in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
            D = relabeled_model(KrizParams(2, 4), perm, degree_cap=8)
            assert cohomology_ranks(D).rank_list() == base4, perm

        # Projective changes of coordinates preserve strata and cross-ratios.
        done = 0
        while done < 100:
            pts = [_random_point(rng) for _ in range(4)]
            if len(set(pts)) < 4:
                continue
            M = _random_invertible(rng)
            moved = [apply_pgl(M, p) for p in pts]
            label = stratum(pts)
            assert stratum(moved) == label
            if label == "F_1234":
                assert cross_ratio(moved) == cross_ratio(pts)
            done += 1

    run_criterion("structural invariants across the toolkit", 120.0, body)


def test_criterion_10_weight_independence():
    def body():
        for r in (1, 2, 3, 4):
            sets = [pool[:r] for pool in WEIGHT_POOLS]
            assert Recorder().same_ranks(iemb_model(4, f"C_{r}", w) for w in sets), r

    run_criterion("rank tables independent of circle weights", 60.0, body)
