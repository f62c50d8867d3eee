import gc
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata import chambers, exactlp
from cpstrata.chambers import (
    AdmissibilityError,
    UnsupportedLabelError,
    chamber_label,
    chamber_signature,
    enumerate_chambers,
    is_admissible,
)
from cpstrata.exactlp import feasible_point
from cpstrata.lattice import Capacities, enumerate_exceptional, negative_wall_classes
from test_lattice import area

F = Fraction


def caps(text):
    return Capacities.parse(text)


@pytest.fixture(scope="module")
def chambers5():
    return enumerate_chambers(5)


def rows_of(constraints):
    """(coeffs, rhs, strict) rows sum a_i x_i < rhs (<= when not strict)
    for constraints (coeffs, rhs, relation), relation one of <, <=, >, >=.

    Entries may be Fractions; each row is scaled to ints by their common
    denominator, the same half-space in the only form exactlp takes.
    """
    rows = []
    for coeffs, rhs, rel in constraints:
        coeffs, rhs = tuple(F(a) for a in coeffs), F(rhs)
        if rel in (">", ">="):
            coeffs, rhs = tuple(-a for a in coeffs), -rhs
        s = lcm(*(x.denominator for x in (*coeffs, rhs)))
        rows.append((tuple(int(a * s) for a in coeffs), int(rhs * s), rel in ("<", ">")))
    return rows


def solve(nvars, constraints):
    """A chamber leaf's witness path: solve exactly, simplify, rows as given.

    None when the system is infeasible; a point found is checked against
    every row.
    """
    rows = rows_of(constraints)
    deep = feasible_point(rows, nvars)
    if deep is None:
        return None
    pt = chambers._simplify_point(deep, rows)
    for coeffs, rhs, strict in rows:
        lhs = sum(a * x for a, x in zip(coeffs, pt))
        assert lhs < rhs or (not strict and lhs == rhs), f"{pt} violates {coeffs}, {rhs}"
    return pt


class TestFeasibility:
    def test_strict_contradiction(self):
        assert solve(1, [((1,), 0, "<"), ((1,), 0, ">")]) is None

    def test_closed_point(self):
        assert solve(1, [((1,), 0, "<="), ((1,), 0, ">=")]) == (F(0),)

    def test_open_triangle(self):
        x, y = solve(2, [((1, 1), 1, "<"), ((1, 0), F(2, 5), ">"), ((0, 1), F(2, 5), ">")])
        assert x + y < 1 and x > F(2, 5) and y > F(2, 5)

    def test_strict_beats_closed_on_merge(self):
        # same hyperplane appearing both ways must stay strict
        assert solve(1, [((1,), 1, "<="), ((2,), 2, "<"), ((1,), 1, ">=")]) is None

    def test_negative_region(self):
        # every variable is nonnegative, so x <= -3, y < -4 is empty on the
        # orthant; its mirror image x >= 3, y > 4 is not
        assert solve(2, [((1, 0), -3, "<="), ((0, 1), -4, "<")]) is None
        pt = solve(2, [((1, 0), 3, ">="), ((0, 1), 4, ">")])
        assert pt[0] >= 3 and pt[1] > 4

    def test_empty_system(self):
        assert solve(3, []) == (F(0), F(0), F(0))

    def test_equality_chain_with_offset(self):
        # x = y, y = z, z >= 7/3, x < 3
        pt = solve(
            3,
            [
                ((1, -1, 0), 0, "<="),
                ((1, -1, 0), 0, ">="),
                ((0, 1, -1), 0, "<="),
                ((0, 1, -1), 0, ">="),
                ((0, 0, 1), F(7, 3), ">="),
                ((1, 0, 0), 3, "<"),
            ],
        )
        assert pt is not None
        assert pt[0] == pt[1] == pt[2]
        assert F(7, 3) <= pt[0] < 3

    def test_random_systems_match_brute_grid(self):
        # compare the exact decision against a dense rational grid scan of
        # the nonnegative quadrant, where every point the LP finds lies
        rng = random.Random(11)
        grid = [F(i, 4) for i in range(17)]
        for _ in range(40):
            rows = []
            for _ in range(rng.randint(1, 4)):
                coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
                rel = rng.choice(["<", "<=", ">", ">="])
                rows.append((coeffs, F(rng.randint(-3, 3)), rel))
            pt = solve(2, rows)
            if pt is not None:
                assert min(pt) >= 0
            else:
                # no grid point may satisfy the system either
                def ok(x, y):
                    for (a, b), rhs, rel in rows:
                        lhs = a * x + b * y
                        if rel == "<" and not lhs < rhs:
                            return False
                        if rel == "<=" and not lhs <= rhs:
                            return False
                        if rel == ">" and not lhs > rhs:
                            return False
                        if rel == ">=" and not lhs >= rhs:
                            return False
                    return True

                assert not any(ok(x, y) for x in grid for y in grid)


class TestAdmissibility:
    def test_volume_violation(self):
        verdict = is_admissible(caps("1"))
        assert not verdict
        assert verdict.violator == "volume"

    def test_exceptional_violation_names_class(self):
        verdict = is_admissible(caps("1/2,1/2,1/2,1/2,1/2"))
        assert not verdict
        assert verdict.violator.to_text() == "L - E4 - E5"

    def test_tie_counts_as_violation(self):
        assert not is_admissible(caps("1/2,1/2"))
        assert is_admissible(caps("1/2,49/100"))

    def test_small_equal_capacities(self):
        for n in range(1, 9):
            assert is_admissible(Capacities((F(1, 100),) * n))

    def test_signature_raises_on_inadmissible(self):
        with pytest.raises(AdmissibilityError) as e:
            chamber_signature(caps("2/3,2/3"))
        assert e.value.violator.to_text() == "L - E1 - E2"


def fraction_verdict(values):
    """(violator, bits) straight from the Fraction definitions a - sum c_i r_i
    and 1 - sum c_i^2; exactly one is None."""
    n = len(values)
    for u in enumerate_exceptional(n):
        if u.degree_a - sum(c * r for c, r in zip(values, u.multiplicities)) <= 0:
            return u, None
    if 1 - sum(c * c for c in values) <= 0:
        return "volume", None
    cs = sorted(values, reverse=True)
    walls = negative_wall_classes(n)
    return None, tuple(w.degree_a - sum(c * r for c, r in zip(cs, w.multiplicities)) > 0 for w in walls)


@st.composite
def capacity_vectors(draw):
    """(values, tied): unsorted capacities, often with denominators past 10^12,
    and sometimes moved onto the zero locus of an exceptional or wall class."""
    n = draw(st.integers(1, 8))
    top = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1)]))
    big = draw(st.booleans())
    den = st.integers(10**12, 10**13) if big else st.integers(1, 24)
    values = []
    for _ in range(n):
        q = draw(den)
        values.append(top * F(draw(st.integers(1, q)), q))
    tied = None
    classes = enumerate_exceptional(n) + negative_wall_classes(n)
    if draw(st.booleans()):
        u = draw(st.sampled_from(classes))
        j = draw(st.sampled_from([i for i, r in enumerate(u.multiplicities) if r > 0] or [None]))
        if j is not None:
            rest = sum(c * r for i, (c, r) in enumerate(zip(values, u.multiplicities)) if i != j)
            cj = (u.degree_a - rest) / u.multiplicities[j]
            if cj > 0:
                values[j], tied = cj, u
    return draw(st.permutations(values)), tied


class TestIntegerKernel:
    """is_admissible and chamber_signature decide signs in integers over the
    common denominator; they must agree with the Fraction definitions."""

    @settings(max_examples=400, deadline=None)
    @given(capacity_vectors())
    def test_matches_fraction_definitions(self, case):
        values, tied = case
        c = Capacities(values)
        violator, bits = fraction_verdict(values)
        verdict = is_admissible(c)
        assert verdict.violator == violator
        if violator is not None:
            with pytest.raises(AdmissibilityError) as e:
                chamber_signature(c)
            assert e.value.violator == violator
            return
        sig = chamber_signature(c)
        assert sig.bits == bits
        assert sig.walls == negative_wall_classes(len(values))
        cs = sorted(values, reverse=True)
        zero = [w for w in sig.walls if w.degree_a == sum(x * r for x, r in zip(cs, w.multiplicities))]
        # a zero area is never positive
        assert all(bit is False for w, bit in zip(sig.walls, sig.bits) if w in zero)
        if tied in sig.walls:  # walls are closed under permuting the E_i
            assert zero

    @settings(max_examples=200, deadline=None)
    @given(capacity_vectors())
    def test_area_and_volume_are_exact(self, case):
        values, _ = case
        c = Capacities(values)
        for u in enumerate_exceptional(len(values))[:12] + negative_wall_classes(len(values))[:12]:
            assert area(c, u) == u.degree_a - sum(x * r for x, r in zip(values, u.multiplicities))
        assert c.volume_margin() == 1 - sum(x * x for x in values)

    @pytest.mark.parametrize(
        "text,violator",
        [("1/2,1/2", "L - E1 - E2"), ("2/5,2/5,2/5,2/5,2/5", "2L - E1 - E2 - E3 - E4 - E5"),
         ("1/2,1/3,1/3,1/3,1/3,1/3,1/3,1/10", "3L - 2E1 - E2 - E3 - E4 - E5 - E6 - E7"),
         ("1", "volume"), ("3/5,4/5", "L - E1 - E2")],
    )
    def test_zero_area_names_the_violator(self, text, violator):
        assert str(is_admissible(caps(text)).violator) == violator

    def test_zero_area_wall_bit_is_false(self):
        # on the sorted vector the three walls L - E1 - Ei - Ej have area
        # 1 - 1/2 - 1/4 - 1/4 = 0, and L - E1 - ... - E4 has area -1/4
        sig = chamber_signature(caps("1/4,1/2,1/4,1/4"))
        assert [w.to_text() for w, bit in zip(sig.walls, sig.bits) if bit] == ["L - E2 - E3 - E4"]


def scan_oracle(values):
    """(violator, bits) by a lexicographic scan over every exceptional class,
    in integers over the values' own common denominator: the first class
    with area <= 0, else "volume" when 1 - sum c_i^2 <= 0, else None and
    the wall bits of the sorted values."""
    n = len(values)
    m = lcm(*(v.denominator for v in values))
    ks = [v.numerator * (m // v.denominator) for v in values]
    for u in sorted(enumerate_exceptional(n)):
        if u.degree_a * m <= sum(r * k for r, k in zip(u.multiplicities, ks)):
            return u, None
    if m * m <= sum(k * k for k in ks):
        return "volume", None
    ks.sort(reverse=True)
    walls = negative_wall_classes(n)
    return None, tuple(w.degree_a * m > sum(r * k for r, k in zip(w.multiplicities, ks)) for w in walls)


def sphere_point(rng, n):
    """A rational point with positive entries and sum c_i^2 = 1 exactly:
    the inverse stereographic image (2t, |t|^2 - 1) / (|t|^2 + 1) of a
    rational t > 0 with |t|^2 > 1 (c = 1 for n = 1)."""
    if n == 1:
        return [F(1)]
    while True:
        t = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
        s = sum(x * x for x in t)
        if s > 1:
            return [2 * x / (s + 1) for x in t] + [(s - 1) / (s + 1)]


def oracle_vectors(rng, n, count):
    """count seeded capacity vectors over n, unsorted: random draws at four
    scales, vectors with tied entries, vectors moved onto the zero locus of
    an exceptional or wall class, and points of volume margin exactly 0."""
    classes = [u for u in enumerate_exceptional(n) + negative_wall_classes(n) if u.degree_a]
    out = []
    while len(out) < count:
        kind = len(out) % 4
        top = rng.choice((F(1, 3), F(1, 2), F(2, 3), F(1)))
        values = [top * F(rng.randint(1, d), d) for d in (rng.randint(1, 24) for _ in range(n))]
        if kind == 1:
            values = ([values[0]] * rng.randint(1, n) + values[1:])[:n]
        elif kind == 2 and classes:
            u = rng.choice(classes)
            j = rng.choice([i for i, r in enumerate(u.multiplicities) if r > 0])
            rest = sum(c * r for i, (c, r) in enumerate(zip(values, u.multiplicities)) if i != j)
            cj = (u.degree_a - rest) / u.multiplicities[j]
            if cj <= 0:
                continue
            values[j] = cj
        elif kind == 3:
            values = sphere_point(rng, n)
        rng.shuffle(values)
        out.append(values)
    return out


class TestCertificateOracle:
    """is_admissible and chamber_signature certify admissibility by the
    sorted-cone rows; verdict, violator and bits must equal the scan over
    every class."""

    CERTIFICATE = {1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 6}
    LP_ROWS = {1: 2, 2: 3, 3: 4, 4: 5, 5: 7, 6: 8, 7: 10, 8: 14}

    def test_row_counts_pinned(self):
        for n in range(1, 9):
            certificate = chambers._class_rows(n)[1]
            assert len(certificate) == self.CERTIFICATE[n]
            for boundary in ("strict", "inclusive"):
                rows = chambers._admissibility_ineqs(n, boundary)
                assert len(rows) == self.LP_ROWS[n]
                # after the n cone rows, one row per certificate row
                assert [(coeffs, rhs) for coeffs, rhs, _ in rows[n : n + len(certificate)]] == [
                    (r, a) for a, r in certificate
                ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_full_scan(self, n):
        rng = random.Random(3400 + n)
        seen = Counter()
        for values in oracle_vectors(rng, n, 200):
            c = Capacities(values)
            violator, bits = scan_oracle(values)
            verdict = is_admissible(c)
            assert (bool(verdict), verdict.violator) == (violator is None, violator), values
            if violator is None:
                assert verdict is is_admissible(Capacities((F(1, 100),)))  # one shared result
                assert chamber_signature(c).bits == bits, values
                seen["admissible"] += 1
            else:
                with pytest.raises(AdmissibilityError) as e:
                    chamber_signature(c)
                assert e.value.violator == violator, values
                seen["volume" if violator == "volume" else "class"] += 1
            m, ks = c.scaled
            if any(u.degree_a * m == sum(map(int.__mul__, u.multiplicities, ks))
                   for u in enumerate_exceptional(n) + negative_wall_classes(n) if u.degree_a):
                seen["zero area"] += 1
            if c.volume_margin() == 0:
                seen["zero volume"] += 1
        assert seen["admissible"] and seen["zero volume"], seen
        assert seen["volume"] if n == 1 else seen["class"] and seen["zero area"], seen


class TestClassification:
    def test_table_example(self):
        assert chamber_label(caps("2/5,2/5,3/10,1/5")) == "C_2"
        assert chamber_signature(caps("2/5,2/5,3/10,1/5")).bit_string() == "TTFFF"

    def test_three_ball_split(self):
        assert chamber_label(caps("1/3,1/3,1/3")) == "big"
        assert chamber_label(caps("1/4,1/4,1/4")) == "small"
        assert chamber_label(caps("1/3,1/3,1/3,1/3")) == "C_0"

    def test_unique_for_one_and_two(self):
        assert chamber_label(caps("1/2")) == "C_unique"
        assert chamber_label(caps("1/2,1/3")) == "C_unique"

    def test_no_labels_past_four(self):
        c = Capacities((F(1, 10),) * 5)
        with pytest.raises(UnsupportedLabelError):
            chamber_label(c)
        assert len(chamber_signature(c).bits) == 16

    def test_inadmissible_past_four_is_an_admissibility_error(self):
        with pytest.raises(AdmissibilityError):
            chamber_label(caps("2/5,2/5,2/5,2/5,2/5"))

    def test_unsorted_input_is_sorted_first(self):
        assert chamber_label(caps("1/5,3/10,2/5,2/5")) == "C_2"

    def test_label_permutation_invariance(self):
        records = enumerate_chambers(4)
        for rec in records:
            vals = rec.witness.values
            for perm in itertools.permutations(vals):
                assert chamber_label(Capacities(perm)) == rec.label

    def test_equal_capacity_families(self):
        # equal capacities c: small iff 3c < 1, C_5 iff 4c needs every area positive
        assert chamber_label(Capacities((F(24, 100),) * 4)) == "C_5"
        assert chamber_label(Capacities((F(2, 5),) * 4)) == "C_0"


# (bits, witness) of every record enumerate_chambers(n, boundary) returns, in
# order; `chamber enumerate --json` prints these, so they must not drift
FROZEN_WITNESSES = {
    (1, "strict"): [
        ("", ["1/2"]),
    ],
    (2, "strict"): [
        ("", ["1/3", "1/3"]),
    ],
    (3, "strict"): [
        ("T", ["1/4", "1/4", "1/4"]),
        ("F", ["1/3", "1/3", "1/3"]),
    ],
    (4, "strict"): [
        ("TTTTT", ["1/5", "1/5", "1/5", "1/5"]),
        ("TTTTF", ["1/4", "1/4", "1/4", "1/4"]),
        ("TTTFF", ["1/3", "1/3", "1/3", "1/6"]),
        ("TTFFF", ["2/5", "2/5", "1/5", "1/5"]),
        ("TFFFF", ["1/2", "1/4", "1/4", "1/4"]),
        ("FFFFF", ["1/3", "1/3", "1/3", "1/3"]),
    ],
    (5, "strict"): [
        ("TTTTTTTTTTTTTTTT", ["1/6", "1/6", "1/6", "1/6", "1/6"]),
        ("TTTTTTTTTTTTTTTF", ["1/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTTTTTTTTTTTFF", ["1/4", "1/4", "1/4", "1/4", "1/8"]),
        ("TTTTTTTTTTTTTFFF", ["2/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTTTTTTTTFFFF", ["1/3", "1/3", "1/3", "1/9", "1/9"]),
        ("TTTTTTTTTTTFTFFF", ["1/3", "1/3", "1/6", "1/6", "1/6"]),
        ("TTTTTTTTTTTFFFFF", ["3/8", "3/8", "1/4", "1/8", "1/8"]),
        ("TTTTTTTTTTFFFFFF", ["2/5", "2/5", "1/5", "1/5", "1/10"]),
        ("TTTTTTTTTFFFFFFF", ["3/7", "3/7", "1/7", "1/7", "1/7"]),
        ("TTTTTTTTFTTFTFFF", ["2/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTTTTTFTTFFFFF", ["3/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTTTTFTFFFFFF", ["4/9", "1/3", "2/9", "2/9", "1/9"]),
        ("TTTTTTTTFFFFFFFF", ["1/2", "1/3", "1/6", "1/6", "1/6"]),
        ("TTTTTTTFFTFFFFFF", ["1/2", "1/4", "1/4", "1/4", "1/8"]),
        ("TTTTTTTFFFFFFFFF", ["5/9", "1/3", "2/9", "2/9", "1/9"]),
        ("TTTTTTFFFFFFFFFF", ["4/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTFFFFFFFFFFF", ["3/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTFTTTFTTFTFFF", ["1/4", "1/4", "1/4", "1/4", "1/4"]),
        ("TTTTFTTTFTTFFFFF", ["1/3", "1/3", "1/3", "1/6", "1/6"]),
        ("TTTTFTTTFTFFFFFF", ["3/8", "3/8", "1/4", "1/4", "1/8"]),
        ("TTTTFTTTFFFFFFFF", ["2/5", "2/5", "1/5", "1/5", "1/5"]),
        ("TTTTFTTFFTFFFFFF", ["3/7", "2/7", "2/7", "2/7", "1/7"]),
        ("TTTTFTTFFFFFFFFF", ["1/2", "3/8", "1/4", "1/4", "1/8"]),
        ("TTTTFTFFFFFFFFFF", ["1/2", "1/3", "1/3", "1/6", "1/6"]),
        ("TTTTFFFFFFFFFFFF", ["1/2", "1/4", "1/4", "1/4", "1/4"]),
        ("TTTFFTTFFTFFFFFF", ["1/3", "1/3", "1/3", "1/3", "1/6"]),
        ("TTTFFTTFFFFFFFFF", ["3/7", "3/7", "2/7", "2/7", "1/7"]),
        ("TTTFFTFFFFFFFFFF", ["1/2", "3/8", "3/8", "1/4", "1/8"]),
        ("TTTFFFFFFFFFFFFF", ["1/2", "1/3", "1/3", "1/3", "1/6"]),
        ("TTFFFTFFFFFFFFFF", ["2/5", "2/5", "2/5", "1/5", "1/5"]),
        ("TTFFFFFFFFFFFFFF", ["1/2", "3/8", "3/8", "1/4", "1/4"]),
        ("TFFFFFFFFFFFFFFF", ["3/7", "3/7", "2/7", "2/7", "2/7"]),
        ("FFFFFFFFFFFFFFFF", ["1/3", "1/3", "1/3", "1/3", "1/3"]),
    ],
    (1, "inclusive"): [
        ("", ["1/2"]),
    ],
    (2, "inclusive"): [
        ("", ["1/3", "1/3"]),
    ],
    (3, "inclusive"): [
        ("T", ["1/4", "1/4", "1/4"]),
        ("F", ["1/3", "1/3", "1/3"]),
    ],
    (4, "inclusive"): [
        ("TTTTT", ["1/5", "1/5", "1/5", "1/5"]),
        ("TTTTF", ["1/4", "1/4", "1/4", "1/4"]),
        ("TTTFF", ["1/3", "1/3", "1/3", "1/6"]),
        ("TTFFF", ["2/5", "2/5", "1/5", "1/5"]),
        ("TFFFF", ["1/2", "1/4", "1/4", "1/4"]),
        ("FFFFF", ["1/3", "1/3", "1/3", "1/3"]),
    ],
    (5, "inclusive"): [
        ("TTTTTTTTTTTTTTTT", ["1/6", "1/6", "1/6", "1/6", "1/6"]),
        ("TTTTTTTTTTTTTTTF", ["1/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTTTTTTTTTTTFF", ["1/4", "1/4", "1/4", "1/4", "1/8"]),
        ("TTTTTTTTTTTTTFFF", ["2/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTTTTTTTTFFFF", ["1/3", "1/3", "1/3", "1/9", "1/9"]),
        ("TTTTTTTTTTTFTFFF", ["1/3", "1/3", "1/6", "1/6", "1/6"]),
        ("TTTTTTTTTTTFFFFF", ["3/8", "3/8", "1/4", "1/8", "1/8"]),
        ("TTTTTTTTTTFFFFFF", ["2/5", "2/5", "1/5", "1/5", "1/10"]),
        ("TTTTTTTTTFFFFFFF", ["3/7", "3/7", "1/7", "1/7", "1/7"]),
        ("TTTTTTTTFTTFTFFF", ["2/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTTTTTFTTFFFFF", ["3/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTTTTFTFFFFFF", ["4/9", "1/3", "2/9", "2/9", "1/9"]),
        ("TTTTTTTTFFFFFFFF", ["1/2", "1/3", "1/6", "1/6", "1/6"]),
        ("TTTTTTTFFTFFFFFF", ["1/2", "1/4", "1/4", "1/4", "1/8"]),
        ("TTTTTTTFFFFFFFFF", ["5/9", "1/3", "2/9", "2/9", "1/9"]),
        ("TTTTTTFFFFFFFFFF", ["4/7", "2/7", "2/7", "1/7", "1/7"]),
        ("TTTTTFFFFFFFFFFF", ["3/5", "1/5", "1/5", "1/5", "1/5"]),
        ("TTTTFTTTFTTFTFFF", ["1/4", "1/4", "1/4", "1/4", "1/4"]),
        ("TTTTFTTTFTTFFFFF", ["1/3", "1/3", "1/3", "1/6", "1/6"]),
        ("TTTTFTTTFTFFFFFF", ["3/8", "3/8", "1/4", "1/4", "1/8"]),
        ("TTTTFTTTFFFFFFFF", ["2/5", "2/5", "1/5", "1/5", "1/5"]),
        ("TTTTFTTFFTFFFFFF", ["3/7", "2/7", "2/7", "2/7", "1/7"]),
        ("TTTTFTTFFFFFFFFF", ["1/2", "3/8", "1/4", "1/4", "1/8"]),
        ("TTTTFTFFFFFFFFFF", ["1/2", "1/3", "1/3", "1/6", "1/6"]),
        ("TTTTFFFFFFFFFFFF", ["1/2", "1/4", "1/4", "1/4", "1/4"]),
        ("TTTFFTTFFTFFFFFF", ["1/3", "1/3", "1/3", "1/3", "1/6"]),
        ("TTTFFTTFFFFFFFFF", ["3/7", "3/7", "2/7", "2/7", "1/7"]),
        ("TTTFFTFFFFFFFFFF", ["1/2", "3/8", "3/8", "1/4", "1/8"]),
        ("TTTFFFFFFFFFFFFF", ["1/2", "1/3", "1/3", "1/3", "1/6"]),
        ("TTFFFTFFFFFFFFFF", ["2/5", "2/5", "2/5", "1/5", "1/5"]),
        ("TTFFFFFFFFFFFFFF", ["1/2", "3/8", "3/8", "1/4", "1/4"]),
        ("TFFFFFFFFFFFFFFF", ["3/7", "3/7", "2/7", "2/7", "2/7"]),
        ("FFFFFFFFFFFFFFFF", ["1/3", "1/3", "1/3", "1/3", "1/3"]),
    ],
}


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_chambers(1)) == 1
        assert len(enumerate_chambers(2)) == 1
        assert len(enumerate_chambers(3)) == 2
        assert len(enumerate_chambers(4)) == 6

    def test_count_five(self, chambers5):
        assert len(chambers5) == 33

    def test_inclusive_counts_pinned(self):
        # regression pins: the relaxed boundary creates no extra sign patterns
        assert len(enumerate_chambers(3, "inclusive")) == 2
        assert len(enumerate_chambers(4, "inclusive")) == 6

    def test_inclusive_count_five_pinned(self):
        assert len(enumerate_chambers(5, "inclusive")) == 33

    @pytest.mark.parametrize("n,boundary", sorted(FROZEN_WITNESSES))
    def test_witnesses_frozen(self, n, boundary):
        got = [
            (rec.signature.bit_string(), rec.witness.to_json_list())
            for rec in enumerate_chambers(n, boundary)
        ]
        assert got == FROZEN_WITNESSES[n, boundary]

    def test_leaves_no_cyclic_garbage(self):
        enumerate_chambers(4)  # warm the per-n caches of the lattice layer
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            enumerate_chambers(4)
            gc.collect()
            unreachable = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert unreachable == []

    @pytest.mark.parametrize("n", [0, 6, 7])
    def test_unsupported_n_fails_before_any_lp_call(self, n, monkeypatch):
        def no_lp(*args):
            raise AssertionError("LP called")

        monkeypatch.setattr(chambers, "feasible_point", no_lp)
        monkeypatch.setattr(exactlp._Simplex, "__init__", no_lp)  # every fold starts here
        monkeypatch.setattr(exactlp._Simplex, "with_row", no_lp)
        # n < 1 is out of range outright; n >= 6 lacks an exact volume bound
        if n == 0:
            match = r"^chamber enumeration supports n in 1\.\.5, got 0$"
        else:
            match = r"1\.\.5.*volume bound"
        with pytest.raises(ValueError, match=match):
            enumerate_chambers(n)

    @pytest.mark.parametrize(
        "args,error,match",
        [
            # a bool is not an int, and neither is a float or a digit string
            ((True,), TypeError, r"^n True is not an int$"),
            ((5.0,), TypeError, r"^n 5\.0 is not an int$"),
            (("3",), TypeError, r"^n '3' is not an int$"),
            # the boundary mode is one of two names, spelled exactly
            ((3, "foo"), ValueError, r"^unknown boundary 'foo', expected one of \('strict', 'inclusive'\)$"),
            ((3, "Strict"), ValueError, r"^unknown boundary 'Strict'"),
            ((3, None), ValueError, r"^unknown boundary None"),
        ],
    )
    def test_bad_arguments_fail_before_any_lp_call(self, args, error, match, monkeypatch):
        def no_lp(*args):
            raise AssertionError("LP called")

        monkeypatch.setattr(exactlp._Simplex, "__init__", no_lp)
        monkeypatch.setattr(exactlp._Simplex, "with_row", no_lp)
        with pytest.raises(error, match=match):
            enumerate_chambers(*args)

    def test_leaf_inconsistency_raises_arithmetic_error(self, monkeypatch):
        # n=1 has no walls: the root is the one leaf, and its witness comes
        # from feasible_point on the root's tableau, which is made to find no
        # point
        calls = []

        def no_point(ineqs, nvars, start):
            calls.append((list(ineqs), nvars))
            assert isinstance(start, exactlp._Simplex)
            return None

        monkeypatch.setattr(chambers, "feasible_point", no_point)
        with pytest.raises(ArithmeticError, match="sign pattern  at n=1"):
            enumerate_chambers(1)
        assert calls == [([], 1)]

    def test_four_ball_labels_cover_table(self):
        records = enumerate_chambers(4)
        assert [r.label for r in records] == [f"C_{k}" for k in (5, 4, 3, 2, 1, 0)]
        for rec in records:
            assert rec.signature.true_count() == int(rec.label.split("_")[1])

    def test_four_ball_true_bits_form_prefix(self):
        for rec in enumerate_chambers(4):
            bits = rec.signature.bits
            assert list(bits) == sorted(bits, reverse=True)

    def test_round_trip(self, chambers5):
        for n, records in ((3, enumerate_chambers(3)), (4, enumerate_chambers(4)), (5, chambers5)):
            assert len({r.signature.bits for r in records}) == len(records)
            for rec in records:
                assert chamber_signature(rec.witness).bits == rec.signature.bits

    def test_witnesses_admissible_and_sorted(self, chambers5):
        for rec in chambers5:
            vals = rec.witness.values
            assert is_admissible(rec.witness)
            assert list(vals) == sorted(vals, reverse=True)

    def test_witness_denominators_stay_small(self, chambers5):
        worst = max(x.denominator for rec in chambers5 for x in rec.witness.values)
        assert worst <= 16

    def test_scaling_never_loses_true_bits(self, chambers5):
        for rec in list(enumerate_chambers(4)) + list(chambers5):
            before = rec.signature.true_count()
            for t in (F(1, 2), F(3, 4), F(9, 10)):
                scaled = Capacities(tuple(t * v for v in rec.witness.values))
                assert chamber_signature(scaled).true_count() >= before

    def test_segment_monotone_chamber_index(self):
        records = {r.label: r for r in enumerate_chambers(4)}
        a, b = records["C_5"].witness.values, records["C_0"].witness.values
        counts = []
        for i in range(21):
            s = F(i, 20)
            mid = Capacities(tuple((1 - s) * x + s * y for x, y in zip(a, b)))
            counts.append(chamber_signature(mid).true_count())
        assert counts[0] == 5 and counts[-1] == 0
        assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))

    def test_record_json_shape(self, chambers5):
        rec = chambers5[0]
        blob = rec.to_json_dict()
        assert len(blob["signature"]) == 16
        assert blob["bits"] == rec.signature.bit_string()
        assert all(set(entry) == {"class", "positive"} for entry in blob["signature"])
        assert blob["label"] is None

    def test_wall_areas_match_bits(self, chambers5):
        for rec in chambers5[:5]:
            for wall, bit in zip(rec.signature.walls, rec.signature.bits):
                assert (area(rec.witness, wall) > 0) == bit


class TestWitnessQuality:
    def test_expected_flag_witness(self):
        # the all-positive chamber of n=4 should get a readable witness
        rec = enumerate_chambers(4)[0]
        assert all(x.denominator <= 20 for x in rec.witness.values)

    def test_exceptional_positivity_of_all_witnesses(self):
        for rec in enumerate_chambers(4):
            for u in enumerate_exceptional(4):
                assert area(rec.witness, u) > 0


class TestRowsAsGiven:
    # the root and the leaves hand the LP the admissibility and wall rows as
    # built: no row is constant and no two are positive multiples of each
    # other, so there is nothing to merge; admissibility rows (only the
    # classes with nonincreasing multiplicities) plus both signs of every
    # wall row, n = 1..8
    ROW_COUNTS = {1: 2, 2: 3, 3: 6, 4: 15, 5: 39, 6: 94, 7: 224, 8: 542}

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_rows_are_pairwise_distinct_and_never_constant(self, boundary):
        for n, count in self.ROW_COUNTS.items():
            rows = chambers._admissibility_ineqs(n, boundary)
            rows += [
                chambers._wall_ineq(w, positive)
                for w in negative_wall_classes(n)
                for positive in (False, True)
            ]
            assert len(rows) == count, n
            assert all(any(coeffs) for coeffs, _, _ in rows), n
            keys = {
                tuple(v // gcd(*coeffs, rhs) for v in (*coeffs, rhs))
                for coeffs, rhs, _ in rows
            }
            assert len(keys) == count, n


def every_class_rows(n, boundary):
    """The admissibility rows over the sorted cone with a row for every
    exceptional class of positive degree, sorted or not."""
    cone = [
        (tuple(1 if j == i + 1 else -1 if j == i else 0 for j in range(n)), 0, False)
        for i in range(n - 1)
    ]
    cone.append((tuple(-int(j == n - 1) for j in range(n)), 0, True))
    classes = [
        (u.multiplicities, u.degree_a, not (boundary == "inclusive" and u.degree_a == 1))
        for u in enumerate_exceptional(n)
        if u.degree_a > 0
    ]
    return cone + classes + ([((1,), 1, True)] if n == 1 else [])


def meets(rows, ks, d):
    """Whether c = ks/d satisfies every row, in integers."""
    for coeffs, rhs, strict in rows:
        lhs = sum(a * k for a, k in zip(coeffs, ks))
        if lhs > rhs * d or (strict and lhs == rhs * d):
            return False
    return True


class TestSortedConeRows:
    # _admissibility_ineqs keeps a class row only if its multiplicities are
    # nonincreasing.  The exceptional classes are closed under permuting the
    # E_i, so a dropped class has its sorted rearrangement among the kept
    # rows, with the same a and strictness; on the sorted cone r.c is at
    # most that rearrangement's area term, so the dropped row is implied
    KEPT = {1: 2, 2: 3, 3: 4, 4: 5, 5: 7, 6: 8, 7: 10, 8: 14}

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_dropped_class_has_its_rearrangement_kept(self, n, boundary):
        kept, full = chambers._admissibility_ineqs(n, boundary), every_class_rows(n, boundary)
        assert len(kept) == self.KEPT[n]
        assert set(kept) <= set(full)
        dropped = [row for row in full if row not in kept]
        assert all(list(coeffs) != sorted(coeffs, reverse=True) for coeffs, _, _ in dropped)
        for coeffs, rhs, strict in dropped:
            assert (tuple(sorted(coeffs, reverse=True)), rhs, strict) in kept

    def test_sorted_points_meet_the_kept_rows_iff_every_class(self):
        rng = random.Random(22)
        seen = Counter()
        for n in range(1, 9):
            rows = {
                b: (chambers._admissibility_ineqs(n, b), every_class_rows(n, b))
                for b in ("strict", "inclusive")
            }
            for _ in range(150):
                d = rng.randint(1, 12)
                top = max(1, d // rng.choice((1, 2, 3)))
                ks = sorted((rng.randint(1, top) for _ in range(n)), reverse=True)
                for b, (kept, full) in rows.items():
                    verdict = meets(full, ks, d)
                    assert meets(kept, ks, d) == verdict, (n, b, ks, d)
                    seen[b, verdict] += 1
        assert all(seen[b, v] for b in ("strict", "inclusive") for v in (False, True))
        # some points lie on a relaxed row, where the two modes part
        assert seen["inclusive", True] > seen["strict", True]

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_root_eps_optimum_unchanged(self, boundary):
        # the region and its eps-program are the same, so is eps*
        for n in range(1, 9):
            kept = exactlp.interior_tableau(chambers._admissibility_ineqs(n, boundary), n)
            full = exactlp.interior_tableau(every_class_rows(n, boundary), n)
            assert F(kept.rows[n][-1], kept.d) == F(full.rows[n][-1], full.d) > 0


class TestLpPrecondition:
    # exactlp solves over x >= 0 and takes int rows only.  Chamber systems
    # meet both: the sorted cone's rows -c_n < 0 and c_{i+1} - c_i <= 0
    # force every capacity positive, and every row folded is all ints
    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cone_rows_present_and_folded_rows_all_ints(self, n, boundary, monkeypatch):
        rows = chambers._admissibility_ineqs(n, boundary)
        assert (tuple(-int(j == n - 1) for j in range(n)), 0, True) in rows
        for i in range(n - 1):
            co = tuple(1 if j == i + 1 else -1 if j == i else 0 for j in range(n))
            assert (co, 0, False) in rows
        folded, real = [], exactlp.scaled_row

        def recording(ineq, nvars):
            folded.append(ineq)
            return real(ineq, nvars)

        monkeypatch.setattr(exactlp, "scaled_row", recording)
        monkeypatch.setattr(chambers, "scaled_row", recording)
        enumerate_chambers(n, boundary)
        assert set(rows) <= set(folded)
        assert all(type(x) is int for coeffs, rhs, _ in folded for x in (*coeffs, rhs))


def holds(ineq, point):
    coeffs, rhs, strict = ineq
    lhs = sum(a * x for a, x in zip(coeffs, point))
    return lhs < rhs if strict else lhs <= rhs


def cold_verdict(rows, n):
    """The decision the warm step replaces: fold the rows afresh."""
    return feasible_point(rows, n) is not None


class TestWarmDescent:
    # (children decided, children pruned, dual pivots) of the full tree,
    # n=3..5 in both modes; 1028, 438 and 423 in total.  The pivot counts
    # pin the dual Bland rule and the stop on the dual bound: other leaving
    # or entering choices reach the same verdicts through other bases, and
    # pruned children run on to their optima take more pivots.
    TREE_SIZES = {
        (3, "strict"): (2, 0, 1),
        (3, "inclusive"): (2, 0, 1),
        (4, "strict"): (30, 10, 15),
        (4, "inclusive"): (30, 10, 15),
        (5, "strict"): (482, 209, 176),
        (5, "inclusive"): (482, 209, 215),
    }

    @pytest.mark.parametrize("n,boundary", sorted(TREE_SIZES))
    def test_every_node_matches_cold_solve(self, n, boundary, monkeypatch):
        pivots = []
        real_pivot = exactlp._Simplex._pivot

        def counting_pivot(lp, leave, row, col):
            pivots.append(col)
            real_pivot(lp, leave, row, col)

        monkeypatch.setattr(exactlp._Simplex, "_pivot", counting_pivot)
        walls = negative_wall_classes(n)
        base = chambers._admissibility_ineqs(n, boundary)
        root = exactlp.interior_tableau(base, n)
        assert root is not None and cold_verdict(base, n)
        # each row holds the nonbasic columns of (x, eps) and the rhs only,
        # however many rows the tableau has, and only the rows of the basic
        # structural variables are stored
        width = n + 2
        assert all(len(row) == width for row in [*root.rows.values(), root.obj])
        assert set(root.rows) <= set(range(width - 1))
        leaves, decided, pruned, dual = set(), 0, 0, 0
        stack = [((), list(base), root)]
        while stack:
            bits, rows, tableau = stack.pop()
            if len(bits) == len(walls):
                leaves.add(bits)
                continue
            for positive in (False, True):
                extra = chambers._wall_ineq(walls[len(bits)], positive)
                child_rows = rows + [extra]
                before = len(pivots)
                child = exactlp.interior_tableau([extra], n, tableau)
                dual += len(pivots) - before
                decided += 1
                assert (child is not None) == cold_verdict(child_rows, n), (bits, positive)
                if child is None:
                    pruned += 1
                    continue
                # the basic point of the warm tableau is itself a witness
                assert child.d > 0
                assert all(len(row) == width for row in [*child.rows.values(), child.obj])
                assert set(child.rows) <= set(range(width - 1))
                point = feasible_point([], n, child)
                assert all(holds(row, point) for row in child_rows)
                stack.append((bits + (positive,), child_rows, child))
        assert (decided, pruned, dual) == self.TREE_SIZES[n, boundary]
        assert leaves == {rec.signature.bits for rec in enumerate_chambers(n, boundary)}

    def test_descent_makes_no_cold_solve_below_the_root(self, monkeypatch):
        # n=4 has 5 walls: one fold from the trivial optimum for the root;
        # every other node, leaves included, is warm-started from its
        # parent's tableau, and each leaf reads its witness off its own
        starts, leaf_solves = [], []
        real_init = exactlp._Simplex.__init__

        def counting_init(lp, nvars):
            starts.append(nvars)
            real_init(lp, nvars)

        def counting_point(ineqs, nvars, start):
            leaf_solves.append(nvars)
            return feasible_point(ineqs, nvars, start)

        monkeypatch.setattr(exactlp._Simplex, "__init__", counting_init)
        monkeypatch.setattr(chambers, "feasible_point", counting_point)
        for boundary in ("strict", "inclusive"):
            starts.clear()
            leaf_solves.clear()
            records = enumerate_chambers(4, boundary)
            assert len(leaf_solves) == len(records) == 6
            assert starts == [4]

    def test_cold_solves_and_their_pivots_pinned(self, monkeypatch):
        # n=3..5 in both modes: 6 root folds from the trivial optimum take 37
        # pivots, one start pivot each and the dual pivots of their rows.  Of
        # the 82 leaves only the 41 of inclusive mode fold a row onto their
        # own tableau, the strict row of L - E1 - E2: 41 appended rows, 10
        # dual pivots.  The counts pin the dual Bland rule, which picks by
        # label, not by column position
        solves, pivots, leaf_rows, leaf_pivots, inside = [], [], [], [], []
        real_fold, real_pivot = exactlp.interior_tableau, exactlp._Simplex._pivot

        def counting_fold(ineqs, nvars):
            solves.append(nvars)
            inside.append("root")
            try:
                return real_fold(ineqs, nvars)
            finally:
                inside.pop()

        def counting_point(ineqs, nvars, start):
            leaf_rows.extend(ineqs)
            inside.append("leaf")
            try:
                return feasible_point(ineqs, nvars, start)
            finally:
                inside.pop()

        def counting_pivot(lp, leave, row, col):
            if inside:
                (pivots if inside == ["root"] else leaf_pivots).append(col)
            real_pivot(lp, leave, row, col)

        monkeypatch.setattr(chambers, "interior_tableau", counting_fold)  # roots
        monkeypatch.setattr(chambers, "feasible_point", counting_point)  # leaves
        monkeypatch.setattr(exactlp._Simplex, "_pivot", counting_pivot)
        for n in (3, 4, 5):
            for boundary in ("strict", "inclusive"):
                enumerate_chambers(n, boundary)
        assert (len(solves), len(pivots)) == (6, 37)
        assert (len(leaf_rows), len(leaf_pivots)) == (41, 10)

    def test_lp_steps_pinned_and_wall_rows_built_once(self, monkeypatch):
        # n=3..5 in both modes: 663 appended rows (32 root rows, the 590 of
        # the 1,028 children that wall dominance leaves to the LP, 41 leaf
        # rows) and 201 pivots.  Each call builds and
        # scales the two sign rows of every wall once: 88 wall rows over the
        # six calls, so 32 + 88 + 41 = 161 rows are scaled
        counts = Counter()

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(exactlp._Simplex, "_pivot", counting("pivot", exactlp._Simplex._pivot))
        monkeypatch.setattr(
            exactlp._Simplex, "with_row", counting("with_row", exactlp._Simplex.with_row)
        )
        monkeypatch.setattr(exactlp, "scaled_row", counting("scaled", exactlp.scaled_row))
        monkeypatch.setattr(chambers, "scaled_row", exactlp.scaled_row)
        monkeypatch.setattr(chambers, "_wall_ineq", counting("walls", chambers._wall_ineq))
        for n in (3, 4, 5):
            for boundary in ("strict", "inclusive"):
                walls = counts["walls"]
                enumerate_chambers(n, boundary)
                assert counts["walls"] - walls == 2 * len(negative_wall_classes(n))
        assert (counts["with_row"], counts["pivot"]) == (663, 201)
        assert (counts["walls"], counts["scaled"]) == (88, 161)

    @pytest.mark.parametrize("n,boundary", sorted(TREE_SIZES))
    def test_dominance_skips_exactly_the_pruned_children(self, n, boundary, monkeypatch):
        # the LP oracle decides every child of every feasible node; the
        # children that the wall order rules out are exactly those it
        # prunes, 438 in total, so the descent's own steps prune none
        walls = negative_wall_classes(n)
        order = chambers._wall_order(n)
        rows = [
            [exactlp.scaled_row(chambers._wall_ineq(w, sign), n) for sign in (False, True)]
            for w in walls
        ]
        pruned, skipped = set(), set()
        stack = [((), exactlp.interior_tableau(chambers._admissibility_ineqs(n, boundary), n))]
        while stack:
            bits, tableau = stack.pop()
            if len(bits) == len(walls):
                continue
            below, above = order[len(bits)]
            for positive in (False, True):
                child_bits = bits + (positive,)
                # True needs every wall below it True, False every wall above it False
                if any(bits[j] != positive for j in (below if positive else above)):
                    skipped.add(child_bits)
                child = tableau.with_row(*rows[len(bits)][positive])
                if child is None:
                    pruned.add(child_bits)
                else:
                    stack.append((child_bits, child))
        assert skipped == pruned
        assert len(pruned) == self.TREE_SIZES[n, boundary][1]
        results = []
        real_with_row = exactlp._Simplex.with_row

        def recording(lp, a, b):
            results.append(real_with_row(lp, a, b))
            return results[-1]

        monkeypatch.setattr(exactlp._Simplex, "with_row", recording)
        enumerate_chambers(n, boundary)
        assert results and None not in results


class TestWallOrder:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_order_matches_areas_at_the_extreme_rays(self, n):
        # c_1 >= ... >= c_n >= 0 is the cone over the rays (1, 0, ...),
        # (1, 1, 0, ...), ..., (1, ..., 1), so the affine area_j - area_k is
        # >= 0 on all of it exactly when it is at c = 0 (a_j >= a_k) and
        # does not fall along any ray
        walls = negative_wall_classes(n)
        rays = [(1,) * p + (0,) * (n - p) for p in range(1, n + 1)]

        def dominates(j, k):  # area_j >= area_k on the whole cone
            rj, rk = walls[j].multiplicities, walls[k].multiplicities
            return walls[j].degree_a >= walls[k].degree_a and all(
                sum(map(int.__mul__, rj, ray)) <= sum(map(int.__mul__, rk, ray)) for ray in rays
            )

        order = chambers._wall_order(n)
        assert len(order) == len(walls)
        for k, (below, above) in enumerate(order):
            assert below == tuple(j for j in range(k) if dominates(j, k))
            assert above == tuple(j for j in range(k) if dominates(k, j))

    def test_classification_does_not_build_the_order(self):
        chambers._wall_order.cache_clear()
        point = caps("2/5,2/5,3/10,1/5,1/10")
        assert is_admissible(point)
        chamber_signature(point)
        assert chambers._wall_order.cache_info().currsize == 0


def simplify_reference(point, ineqs):
    """_simplify_point as it was: round to Fractions, check them row by row."""
    for q in range(1, 65):
        cand = tuple(F(round(x * q), q) for x in point)
        if all(holds(row, cand) for row in ineqs):
            return cand
    return point


def random_rows(rng, nvars, count, as_fractions):
    def q():
        value = F(rng.randint(-6, 6), rng.randint(1, 4) if as_fractions else 1)
        return value if as_fractions else int(value)

    return [
        (tuple(q() for _ in range(nvars)), q(), rng.random() < 0.5) for _ in range(count)
    ]


def rows_around(rng, point, count, as_fractions):
    """Rows that point satisfies with a random margin, sometimes none."""
    rows = []
    for coeffs, _, strict in random_rows(rng, len(point), count, as_fractions):
        rhs = sum(a * x for a, x in zip(coeffs, point)) + F(rng.randint(0, 6), 4)
        if not as_fractions:
            rhs = rhs.numerator // rhs.denominator
        rows.append((coeffs, rhs, strict))
    return rows


class TestSimplifyPoint:
    @pytest.mark.parametrize("as_fractions", [False, True])
    def test_matches_fraction_reference_on_random_points(self, as_fractions):
        rng = random.Random(5)
        winners = set()
        for _ in range(400):
            nvars = rng.randint(1, 4)
            point = tuple(F(rng.randint(-300, 300), rng.randint(1, 97)) for _ in range(nvars))
            rows = rows_around(rng, point, rng.randint(1, 5), as_fractions)
            got = chambers._simplify_point(point, rows)
            assert got == simplify_reference(point, rows)
            assert all(type(x) is F for x in got)
            winners.add("exact" if got is point else max(x.denominator for x in got))
        # the seeds reach q = 1, larger q and the fallback to the exact point
        assert {1, 2, 3, "exact"} <= winners and len(winners) > 8

    def test_witness_path_with_fraction_rows(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(200):
            nvars = rng.randint(1, 3)
            rows = random_rows(rng, nvars, rng.randint(1, 5), True)
            constraints = [(co, rhs, "<" if strict else "<=") for co, rhs, strict in rows]
            rows = rows_of(constraints)
            deep = feasible_point(rows, nvars)
            if deep is None:
                assert solve(nvars, constraints) is None
                continue
            checked += 1
            assert solve(nvars, constraints) == simplify_reference(deep, rows)
        assert checked > 50

    def test_integer_rounding_is_round_of_the_fraction(self):
        # random points, a coordinate in three lands exactly half way at its q:
        # x = (2j + 1) / (2q), with j of either sign and either parity
        rng = random.Random(17)
        ties = Counter()
        for _ in range(1500):
            q = rng.randint(1, 64)
            point = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 1 / 3:
                    j = rng.randint(-40, 40)
                    point.append(F(2 * j + 1, 2 * q))
                    ties[j % 2, j < 0] += 1
                else:
                    point.append(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))
            nums = [(x.numerator, x.denominator) for x in point]
            assert chambers._rounded(nums, q) == [round(x * q) for x in point]
        assert len(ties) == 4 and min(ties.values()) > 100

    def test_half_way_rounds_to_even(self):
        # 5/2 rounds to 2 at q=1, which the closed row x <= 2 admits;
        # rounding half up would give 3, and no q up to 64 would pass
        assert chambers._simplify_point((F(5, 2),), [((1,), 2, False)]) == (F(2),)
        assert chambers._simplify_point((F(7, 2),), [((1,), 4, False)]) == (F(4),)
        assert chambers._simplify_point((F(-5, 2),), [((-1,), 2, False)]) == (F(-2),)
