import gc
import itertools
import numbers
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import cpstrata
from cpstrata import lattice
from cpstrata.lattice import (
    Capacities,
    DimensionMismatchError,
    H2Element,
    enumerate_exceptional,
    intersection,
    is_exceptional_numerical,
    negative_wall_classes,
)


def h2(a, *r):
    return H2Element(a, tuple(r))


def minus_k(n):
    """-K = 3L - E_1 - ... - E_n, the oracle for the pairing 3a - sum r_i."""
    return h2(3, *[1] * n)


def area(c, u):
    """The area a - sum r_i c_i of u under c: a*m - sum r_i k_i over
    Capacities.scaled = (m, k), divided by the common denominator m."""
    m, ks = c.scaled
    return Fraction(u.degree_a * m - sum(k * r for k, r in zip(ks, u.multiplicities)), m)


def box_exceptional(n):
    """Oracle: every exceptional class with a in [0,6], r_i in [-1,3],
    lexicographic, by depth-first search over that box.

    It solves sum r_i = 3a - 1 and sum r_i^2 = a^2 + 1, pruned by what the
    remaining entries can still add: over r in [-1,3] one has
    |r| <= r^2 <= 3r + 4.
    """

    def reachable(rsum, rsq, left):
        return -left <= rsum <= 3 * left and abs(rsum) <= rsq <= 3 * rsum + 4 * left

    found = []
    # an entry is (a, prefix, rsum, rsq), rsum and rsq being what the
    # entries after prefix must add up to
    stack = [(a, (), 3 * a - 1, a * a + 1) for a in range(7) if reachable(3 * a - 1, a * a + 1, n)]
    while stack:
        a, prefix, rsum, rsq = stack.pop()
        left = n - len(prefix) - 1
        if left < 0:
            found.append(H2Element(a, prefix))
            continue
        for r in range(-1, 4):
            if reachable(rsum - r, rsq - r * r, left):
                stack.append((a, prefix + (r,), rsum - r, rsq - r * r))
    assert all(is_exceptional_numerical(u) for u in found)
    return tuple(sorted(found))


# (a, heavy coefficient, heavy count, light coefficient) of the six
# degree <= 6 wall shapes
SHAPES = ((1, 0, 0, 1), (2, 0, 0, 1), (3, 2, 1, 1), (4, 2, 3, 1), (5, 1, 2, 2), (6, 3, 1, 2))


def shape_instances(n):
    """Oracle: every instance of the six shapes over index subsets, as an
    H2Element, duplicates and positive squares included."""
    for a, heavy_coeff, heavy_count, light_coeff in SHAPES:
        for heavy in itertools.combinations(range(n), heavy_count):
            rest = [i for i in range(n) if i not in heavy]
            for size in range(len(rest) + 1):
                for light in itertools.combinations(rest, size):
                    r = [0] * n
                    for i in heavy:
                        r[i] = heavy_coeff
                    for i in light:
                        r[i] = light_coeff
                    yield H2Element(a, tuple(r))


def weyl_orbit(start):
    """The W(E_n) orbit of the class start, n = len(start.multiplicities) >= 3,
    through lattice._orbit, as H2Elements."""
    return {H2Element(row[0], row[1:]) for row in lattice._orbit((start.degree_a, *start.multiplicities))}


class TestIntersection:
    def test_line_through_two_points(self):
        u = h2(1, 1, 1)
        assert intersection(u, u) == -1

    def test_exceptional_basis(self):
        e1 = h2(0, -1, 0)
        e2 = h2(0, 0, -1)
        assert intersection(e1, e1) == -1
        assert intersection(e1, e2) == 0

    def test_line_three_points(self):
        u = h2(1, 1, 1, 1)
        assert intersection(u, u) == -2

    def test_bilinearity(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            u, v, w = (
                H2Element(rng.randint(-4, 4), tuple(rng.randint(-3, 3) for _ in range(n)))
                for _ in range(3)
            )
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            su_tv = H2Element(
                s * u.degree_a + t * v.degree_a,
                tuple(s * a + t * b for a, b in zip(u.multiplicities, v.multiplicities)),
            )
            assert intersection(su_tv, w) == s * intersection(u, w) + t * intersection(v, w)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            intersection(h2(1, 1), h2(1, 1, 1))


class TestAnticanonical:
    # is_exceptional_numerical reads -K.u as 3a - sum r_i on the ints; the
    # oracle pairs u with the class -K itself
    def test_n1(self):
        assert minus_k(1) == h2(3, 1)
        box = [h2(a, r) for a in range(-4, 5) for r in range(-4, 5)]
        got = [u for u in box if is_exceptional_numerical(u)]
        assert got == [u for u in box if intersection(u, u) == -1 and intersection(minus_k(1), u) == 1]
        assert got == [h2(0, -1)]

    def test_pairs_one_with_exceptional(self):
        assert intersection(minus_k(2), h2(0, -1, 0)) == 1
        assert intersection(minus_k(3), h2(1, 1, 1, 0)) == 1
        for n in range(1, 9):
            for u in enumerate_exceptional(n):
                assert 3 * u.degree_a - sum(u.multiplicities) == intersection(minus_k(n), u) == 1

    def test_criterion_is_the_pairing_with_minus_k(self):
        # square -1 alone does not decide: -E1 and 2L - 2E1 - E2 have square
        # -1 but pair to -1 and 3 with -K
        assert not is_exceptional_numerical(h2(0, 1, 0))
        assert not is_exceptional_numerical(h2(2, 2, 1))
        rng = random.Random(7)
        for n in range(1, 9):
            for _ in range(200):
                u = h2(rng.randint(-3, 6), *[rng.randint(-2, 3) for _ in range(n)])
                want = intersection(u, u) == -1 and intersection(minus_k(n), u) == 1
                assert is_exceptional_numerical(u) == want

    def test_out_of_range(self):
        # -K, like every class, lives over n in 1..8 only
        with pytest.raises(ValueError, match="n must be in 1..8, got 9"):
            minus_k(9)
        with pytest.raises(ValueError, match="n must be in 1..8, got 0"):
            minus_k(0)

    def test_one_build_per_exceptional_class(self, monkeypatch):
        # no -K is built per check: the 359 classes of n = 1..8 take 359
        # H2Element builds (718 when each check built its own -K)
        builds, real = [], H2Element.__post_init__

        def counting(u):
            builds.append(u)
            real(u)

        monkeypatch.setattr(H2Element, "__post_init__", counting)
        found = [u for n in range(1, 9) for u in enumerate_exceptional.__wrapped__(n)]
        assert len(builds) == len(found) == 359


class TestExceptional:
    def test_criterion(self):
        assert is_exceptional_numerical(h2(0, -1))
        assert is_exceptional_numerical(h2(1, 1, 1))
        assert not is_exceptional_numerical(h2(1, 1, 1, 1))

    def test_n2_set(self):
        got = enumerate_exceptional(2)
        assert got == (
            h2(0, -1, 0),
            h2(0, 0, -1),
            h2(1, 1, 1),
        )

    # counts frozen from the bounded exhaustive search; 240 is the classical
    # count of (-1)-curves on the degree-1 del Pezzo surface
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56), (8, 240)]
    )
    def test_counts(self, n, count):
        assert len(enumerate_exceptional(n)) == count

    def test_monotone_under_padding(self):
        for n in range(1, 8):
            bigger = set(enumerate_exceptional(n + 1))
            for u in enumerate_exceptional(n):
                assert H2Element(u.degree_a, u.multiplicities + (0,)) in bigger

    def test_every_class_matches_a_shape_or_is_basis(self):
        for n in (5, 8):
            shapes = set(shape_instances(n))
            for u in enumerate_exceptional(n):
                assert u.degree_a == 0 or u in shapes

    def test_failed_recheck_raises_arithmetic_error(self, monkeypatch):
        # the search's candidates are re-checked exactly; a failing re-check
        # must fail loudly, even under -O.  __wrapped__ skips the lru_cache,
        # so no cached tuple hides the search or is polluted by it.
        monkeypatch.setattr(lattice, "is_exceptional_numerical", lambda u: False)
        with pytest.raises(ArithmeticError, match=r"class E1 .*not exceptional"):
            enumerate_exceptional.__wrapped__(2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_box_scan(self, n):
        # the whole box a in [0,6], r_i in [-1,3], filtered by the criterion
        box = (
            h2(a, *r)
            for a in range(7)
            for r in itertools.product(range(-1, 4), repeat=n)
        )
        assert enumerate_exceptional.__wrapped__(n) == tuple(
            sorted(u for u in box if is_exceptional_numerical(u))
        )

    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56), (8, 240)]
    )
    def test_orbit_matches_box_search(self, n, count):
        # the W(E_n) orbit of E_1 against the box search it replaced, class
        # for class and in order
        got = enumerate_exceptional.__wrapped__(n)
        assert len(got) == count
        assert got == box_exceptional(n)

    def test_search_leaves_no_cyclic_garbage(self):
        # __wrapped__ skips the lru_cache, so every call really searches
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for n in range(1, 9):
                enumerate_exceptional.__wrapped__(n)
            gc.collect()
            unreachable = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert unreachable == []

    def test_small_balls_always_have_positive_area(self):
        eps = Fraction(1, 100)
        for n in range(1, 9):
            c = Capacities([eps] * n)
            assert all(area(c, u) > 0 for u in enumerate_exceptional(n))

    def test_command_line_loads_no_numpy(self):
        # the package has no runtime dependency; a fresh interpreter shows
        # what importing the command-line module actually pulls in
        src = str(Path(cpstrata.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, cpstrata.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestWallClasses:
    def test_n3(self):
        assert negative_wall_classes(3) == (h2(1, 1, 1, 1),)

    def test_n4(self):
        got = negative_wall_classes(4)
        assert len(got) == 5
        assert got == (
            h2(1, 0, 1, 1, 1),
            h2(1, 1, 0, 1, 1),
            h2(1, 1, 1, 0, 1),
            h2(1, 1, 1, 1, 0),
            h2(1, 1, 1, 1, 1),
        )

    def test_n5_count(self):
        assert len(negative_wall_classes(5)) == 16

    def test_disjoint_from_exceptional(self):
        for n in range(1, 9):
            assert not set(negative_wall_classes(n)) & set(enumerate_exceptional(n))

    def test_all_squares_at_most_minus_two(self):
        for u in negative_wall_classes(5):
            assert intersection(u, u) <= -2

    @pytest.mark.parametrize(
        "n,count", [(1, 0), (2, 0), (3, 1), (4, 5), (5, 16), (6, 43), (7, 107), (8, 264)]
    )
    def test_filtered_before_built_matches_build_then_filter(self, n, count):
        # the oracle builds every shape instance and then filters it by its
        # square; the program skips subset sizes before building anything
        want = tuple(
            sorted(
                {
                    u
                    for u in shape_instances(n)
                    if intersection(u, u) <= -2 and all(r >= 0 for r in u.multiplicities)
                }
            )
        )
        assert len(want) == count
        assert negative_wall_classes.__wrapped__(n) == want

    @pytest.mark.parametrize("n,count", [(4, 4), (5, 10), (6, 21), (7, 42), (8, 92)])
    def test_square_minus_two_walls_are_the_nonnegative_positive_roots(self, n, count):
        # the roots of E_n are the W(E_n) orbit of E_1 - E_2 for n >= 4; the
        # walls of square -2 are exactly those with every r_i >= 0
        roots = weyl_orbit(h2(0, -1, 1, *[0] * (n - 2)))
        assert all(intersection(u, u) == -2 and intersection(minus_k(n), u) == 0 for u in roots)
        want = sorted(u for u in roots if all(r >= 0 for r in u.multiplicities))
        assert len(want) == count
        assert [u for u in negative_wall_classes(n) if intersection(u, u) == -2] == want

    def test_n3_wall_is_outside_the_orbit_of_e1_minus_e2(self):
        # at n = 3 the roots are A_2 x A_1: the six E_i - E_j, and the
        # wall L - E1 - E2 - E3 with its negative, a second orbit
        roots = weyl_orbit(h2(0, -1, 1, 0))
        assert roots == {h2(0, *r) for r in itertools.permutations((-1, 1, 0))}
        (wall,) = negative_wall_classes(3)
        assert wall == h2(1, 1, 1, 1) and intersection(wall, wall) == -2
        assert wall not in roots
        assert weyl_orbit(wall) == {wall, h2(-1, -1, -1, -1)}


class TestArea:
    def test_symmetric_point(self):
        c = Capacities([Fraction(1, 3)] * 3)
        assert area(c, h2(1, 1, 1, 1)) == 0

    def test_direct(self):
        assert area(Capacities(["1/2", "1/4"]), h2(1, 1, 1)) == Fraction(1, 4)

    def test_rational(self):
        c = Capacities.parse("2/5,2/5,1/5,1/10")
        assert area(c, h2(1, 1, 1, 1, 1)) == Fraction(-1, 10)

    def test_exceptional_basis_area_is_capacity(self):
        c = Capacities.parse("2/5,1/5")
        assert area(c, h2(0, 0, -1)) == Fraction(1, 5)

    def test_linear_in_capacities(self):
        u = h2(2, 1, 1, 0)
        c1 = Capacities.parse("1/2,1/4,1/8")
        c2 = Capacities.parse("1/4,1/8,1/16")
        mid = Capacities((a + b) / 2 for a, b in zip(c1, c2))
        assert area(mid, u) == (area(c1, u) + area(c2, u)) / 2


class TestSerialization:
    def test_text_forms(self):
        assert h2(1, 1, 1).to_text() == "L - E1 - E2"
        assert h2(3, 2, 0, 1).to_text() == "3L - 2E1 - E3"
        assert h2(0, -1, 0, 0).to_text() == "E1"
        assert h2(0, 0, 0).to_text() == "0"

    @pytest.mark.parametrize("text,bad", [("1/0", "'1/0'"), ("1/2,3/0", "'3/0'")])
    def test_capacities_reject_zero_denominator(self, text, bad):
        with pytest.raises(ValueError, match=f"capacity {bad} has a zero denominator"):
            Capacities.parse(text)

    @pytest.mark.parametrize(
        "values,bad", [(["1/0"], "'1/0'"), ([Fraction(1, 2), "3/0"], "'3/0'")]
    )
    def test_capacities_constructor_rejects_zero_denominator(self, values, bad):
        # the ValueError parse raises, not a bare ZeroDivisionError
        with pytest.raises(ValueError, match=f"^capacity {bad} has a zero denominator$"):
            Capacities(values)

    @pytest.mark.parametrize("bad", ["1e-30000000", "2E3", "1.5e2", "1/2e3"])
    def test_capacities_reject_exponent_notation(self, bad):
        # refused before Fraction expands the exponent, which alone takes
        # seconds for 1e-30000000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^capacity '{re.escape(bad)}' is in exponent notation$"):
            Capacities(["1/4", bad])
        with pytest.raises(ValueError, match="exponent notation"):
            Capacities.parse(f"1/4, {bad}")
        assert time.perf_counter() - start < 1

    def test_capacities_reject_nonpositive(self):
        with pytest.raises(ValueError):
            Capacities(["1/2", "0"])
        with pytest.raises(ValueError):
            Capacities(["-1/2"])

    @pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, None, (1, 2)], ids=repr)
    def test_capacities_reject_non_rational_entries(self, bad):
        with pytest.raises(TypeError, match=rf"capacity {re.escape(repr(bad))} is not"):
            Capacities(["1/4", bad])

    def test_capacities_repr_equality_and_hash(self):
        c = Capacities(["1/2"])
        assert repr(c) == "Capacities(values=(Fraction(1, 2),))"
        assert c == Capacities([Fraction(1, 2)]) and c != Capacities(["1/3"])
        assert hash(c) == hash((c.values,))
        assert c.scaled == (2, (1,))

    def test_capacities_convert_other_rationals(self):
        # only ints, Fractions and rational strings convert: a bool or a
        # numbers.Rational of another type is refused
        class Ratio:  # a numbers.Rational that is not a Fraction
            def __init__(self, p, q):
                self.numerator, self.denominator = p, q

        numbers.Rational.register(Ratio)
        c = Capacities([Fraction(1, 3), "1/2", 1])
        assert c.values == (Fraction(1, 3), Fraction(1, 2), Fraction(1))
        assert all(type(v) is Fraction for v in c.values)
        assert c.scaled == (6, (2, 3, 6))
        for bad in (True, Ratio(1, 3)):
            with pytest.raises(TypeError, match=r"is not an int, Fraction or rational string$"):
                Capacities(["1/2", bad])

    @pytest.mark.parametrize(
        "values,error,message",
        [
            ([0.5], TypeError, "capacity 0.5 is not an int, Fraction or rational string"),
            ([Decimal("0.5")], TypeError, "capacity Decimal('0.5') is not an int, Fraction or rational string"),
            # one pass over the entries: the first bad one is named
            (["1/0", 0.5], ValueError, "capacity '1/0' has a zero denominator"),
            ([0], ValueError, "capacities must be strictly positive, got (Fraction(0, 1),)"),
            (["0"], ValueError, "capacities must be strictly positive, got (Fraction(0, 1),)"),
            ([False], TypeError, "capacity False is not an int, Fraction or rational string"),
            (["1/2", Fraction(-1, 3)], ValueError,
             "capacities must be strictly positive, got (Fraction(1, 2), Fraction(-1, 3))"),
            (["2/3", "1E-2"], ValueError, "capacity '1E-2' is in exponent notation"),
            ([], ValueError, "need at least one capacity"),
            ([0] * 9, ValueError, "n must be in 1..8, got 9"),
            # a string Fraction refuses is named, not passed on in Fraction's words
            (["1/2", "oops"], ValueError, "capacity 'oops' is not a rational"),
            (["1/2/3"], ValueError, "capacity '1/2/3' is not a rational"),
        ],
        ids=["float", "decimal", "type-before-parse", "zero", "zero-string", "false", "negative",
             "exponent", "empty", "too-many", "not-rational", "two-slashes"],
    )
    def test_capacities_errors(self, values, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Capacities(values)

    def test_capacities_keep_exact_entries(self):
        c = Capacities([1, Fraction(1, 3), "0.1", "2/7"])
        assert c.values == (1, Fraction(1, 3), Fraction(1, 10), Fraction(2, 7))
        assert c.scaled == (210, (210, 70, 21, 60))

    @pytest.mark.parametrize(
        "a,r,bad",
        [(1, (1.7, 0.2), "1.7"), (1, (1, Fraction(1, 2)), "Fraction(1, 2)"), (1.5, (1,), "1.5"),
         (Fraction(3, 2), (1,), "Fraction(3, 2)"), (1, ("1",), "'1'"), (1, (1.0,), "1.0")],
        ids=["float", "half", "float-degree", "fraction-degree", "string", "integral-float"],
    )
    def test_classes_reject_non_integer_entries(self, a, r, bad):
        with pytest.raises(ValueError, match=rf"class coefficient {re.escape(bad)} is not an integer"):
            H2Element(a, r)

    def test_classes_keep_exact_int_entries_as_given(self):
        r = (2, 1, 0)
        u = H2Element(2, r)
        assert u.multiplicities is r
        assert H2Element(2, [2, 1, 0]) == u  # a list becomes a tuple
        assert type(H2Element(2, [2, 1, 0]).multiplicities) is tuple

    def test_classes_keep_integral_entries(self):
        u = H2Element(Fraction(2), (Fraction(4, 2), True, 0))
        assert u == h2(2, 2, 1, 0)
        assert u.to_text() == "2L - 2E1 - E2"
        assert all(type(r) is int for r in u.multiplicities)

    @pytest.mark.parametrize("degree", [Fraction(2), Fraction(-3), True, 2])
    def test_integral_degree_becomes_an_int(self, degree):
        # the degree is converted as the multiplicities are, so the repr and
        # every intersection number are plain ints
        u = H2Element(degree, (1,))
        assert type(u.degree_a) is int
        assert repr(u) == f"H2Element(degree_a={int(degree)}, multiplicities=(1,))"
        square = intersection(u, u)
        assert type(square) is int and square == int(degree) ** 2 - 1
        assert type(intersection(u, h2(3, 1))) is int
