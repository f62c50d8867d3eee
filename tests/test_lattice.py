import gc
import itertools
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cpstrata
from cpstrata import lattice
from cpstrata.lattice import (
    Capacities,
    DimensionMismatchError,
    H2Element,
    anticanonical,
    enumerate_exceptional,
    intersection,
    is_exceptional_numerical,
    negative_wall_classes,
    scaled_areas,
)


def h2(a, *r):
    return H2Element(a, tuple(r))


def area(c, u):
    """The area a - sum r_i c_i of u under c: scaled_areas over
    Capacities.scaled, divided by the common denominator m."""
    m, ks = c.scaled
    (s,) = scaled_areas(m, ks, [u])
    return Fraction(s, m)


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
    def test_n1(self):
        assert anticanonical(1) == h2(3, 1)

    def test_pairs_one_with_exceptional(self):
        assert intersection(anticanonical(2), h2(0, -1, 0)) == 1
        assert intersection(anticanonical(3), h2(1, 1, 1, 0)) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            anticanonical(9)
        with pytest.raises(ValueError):
            anticanonical(0)


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
            shapes = set(lattice._negative_shape_instances(n))
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
            assert u.self_intersection() <= -2


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

    def test_classes_keep_integral_entries(self):
        u = H2Element(Fraction(2), (Fraction(4, 2), True, 0))
        assert u == h2(2, 2, 1, 0)
        assert u.to_text() == "2L - 2E1 - E2"
        assert all(type(r) is int for r in u.multiplicities)
