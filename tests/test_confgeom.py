"""Exact strata and cross ratios of plane point configurations."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpstrata import confgeom
from cpstrata.confgeom import (
    ProjectivePoint,
    apply_pgl,
    collinear,
    collinear_triples,
    cross_ratio,
    stratum,
)

pp = ProjectivePoint.parse
E1, E2, E3 = pp("1:0:0"), pp("0:1:0"), pp("0:0:1")
GENERIC = pp("1:1:1")

coord = st.integers(min_value=-9, max_value=9)
raw_point = st.tuples(coord, coord, coord).filter(lambda t: any(t))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
matrix_entries = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=9, max_size=9
)


def as_matrix(entries):
    return [entries[0:3], entries[3:6], entries[6:9]]


def det3(M):
    (a, b, c), (d, e, f), (g, h, i) = M
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestProjectivePoint:
    def test_canonical_scaling(self):
        assert pp("2:4:6").coords == (1, 2, 3)
        assert pp("0:2:4").coords == (0, 1, 2)
        assert pp("0:0:-5").coords == (0, 0, 1)

    def test_fractional_coordinates(self):
        p = pp("2/3:1:0")
        assert p.coords == (1, Fraction(3, 2), 0)
        assert p.to_text() == "1:3/2:0"

    def test_parse_round_trip(self):
        for text in ("1:0:0", "0:1:2", "1:3/2:0", "1:-2:7"):
            assert pp(pp(text).to_text()) == pp(text)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0, 0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((1, 2))
        with pytest.raises(ValueError):
            pp("1:2")

    @pytest.mark.parametrize("text,bad", [("1/0:1:1", "1/0"), ("1:2: 3/0 ", "3/0")])
    def test_zero_denominator_names_the_coordinate(self, text, bad):
        with pytest.raises(ValueError, match=f"coordinate '{bad}' of point .* zero denominator"):
            pp(text)

    def test_scale_equivalence(self):
        assert pp("3:6:9") == pp("1:2:3")
        assert hash(pp("3:6:9")) == hash(pp("1:2:3"))
        assert pp("1:2:3") != pp("1:2:4")

    @given(raw_point, st.fractions(min_value=-5, max_value=5))
    @settings(max_examples=100)
    def test_rescaling_gives_the_same_point(self, t, lam):
        assume(lam != 0)
        assert ProjectivePoint([lam * c for c in t]) == ProjectivePoint(t)


class TestCollinear:
    def test_on_a_coordinate_line(self):
        assert collinear(E1, E2, pp("1:1:0")) is True

    def test_standard_frame_is_generic(self):
        assert collinear(E1, E2, E3) is False

    def test_vanishing_second_differences(self):
        assert collinear(pp("1:1:1"), pp("1:2:3"), pp("1:3:5")) is True

    @given(raw_point, raw_point, coord, coord)
    @settings(max_examples=100)
    def test_pencil_combinations_are_collinear(self, t, u, s, w):
        a, b = ProjectivePoint(t), ProjectivePoint(u)
        assume(a != b)
        mixed = [s * x + w * y for x, y in zip(a.coords, b.coords)]
        assume(any(mixed))
        assert collinear(a, b, ProjectivePoint(mixed))


class TestStratum:
    def test_generic_four_points(self):
        assert stratum([E1, E2, E3, GENERIC]) == "F_0"

    def test_single_collinear_triple(self):
        assert stratum([E1, E2, pp("1:1:0"), E3]) == "F_123"

    def test_all_four_collinear(self):
        assert stratum([pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")]) == "F_1234"

    @pytest.mark.parametrize(
        "points, label",
        [
            ([E1, E2, GENERIC, pp("1:1:0")], "F_124"),
            ([E1, GENERIC, E2, pp("1:1:0")], "F_134"),
            ([GENERIC, E1, E2, pp("1:1:0")], "F_234"),
        ],
    )
    def test_other_triple_positions(self, points, label):
        assert stratum(points) == label

    def test_three_point_strata(self):
        assert stratum([E1, E2, E3]) == "F_0"
        assert stratum([E1, E2, pp("1:1:0")]) == "F_123"

    def test_collinear_triples_listing(self):
        assert collinear_triples([E1, E2, GENERIC, pp("1:1:0")]) == [(1, 2, 4)]
        quad = [pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")]
        assert len(collinear_triples(quad)) == 4

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            stratum([E1, E1, E2, E3])
        with pytest.raises(ValueError):
            stratum([E1, pp("2:0:0"), E2])  # same point, different scale

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            stratum([E1, E2])

    def test_impossible_triples_raise_arithmetic_error(self, monkeypatch):
        # distinct points never give two collinear triples; if the triple
        # listing ever did, the label must fail loudly, even under -O
        monkeypatch.setattr(confgeom, "collinear_triples", lambda pts: [(1, 2, 3), (1, 2, 4)])
        with pytest.raises(ArithmeticError, match=r"\(1, 2, 3\), \(1, 2, 4\)"):
            stratum([E1, E2, E3, GENERIC])

    def test_order_independence_up_to_relabeling(self):
        rng = random.Random(7)
        base = [E1, E2, pp("1:1:0"), E3]
        for _ in range(30):
            order = list(range(4))
            rng.shuffle(order)
            pts = [base[i] for i in order]
            label = stratum(pts)
            # the collinear triple is base points 1,2,3; find their slots
            slots = sorted(order.index(i) + 1 for i in (0, 1, 2))
            assert label == "F_" + "".join(str(s) for s in slots)


class TestCrossRatio:
    def test_affine_integers(self):
        pts = [pp(f"1:{z}:0") for z in (0, 1, 2, 3)]
        assert cross_ratio(pts) == Fraction(4, 3)

    def test_translation_invariance(self):
        pts = [pp(f"1:{z}:0") for z in (1, 2, 3, 4)]
        assert cross_ratio(pts) == Fraction(4, 3)

    def test_embedded_in_the_plane(self):
        pts = [pp("1:0:0"), pp("1:1:0"), pp("1:2:0"), pp("1:3:0")]
        assert cross_ratio(pts) == Fraction(4, 3)

    def test_point_at_infinity_of_the_line(self):
        # parameters 0, infinity, 1, 2 along the pencil
        pts = [pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")]
        assert cross_ratio(pts) == Fraction(1, 2)

    def test_non_collinear_rejected(self):
        with pytest.raises(ValueError):
            cross_ratio([E1, E2, E3, GENERIC])

    def test_coincident_rejected(self):
        pts = [pp("1:0:0"), pp("1:1:0"), pp("1:1:0"), pp("1:3:0")]
        with pytest.raises(ValueError):
            cross_ratio(pts)

    @given(seeds)
    @settings(max_examples=150)
    def test_never_degenerate_on_distinct_points(self, seed):
        rng = random.Random(seed)
        a = ProjectivePoint(random_triple(rng))
        while (b := ProjectivePoint(random_triple(rng))) == a:
            pass
        # distinct pencil parameters [s:w] give distinct points
        params = {}
        while len(params) < 4:
            s, w = rng.randint(-9, 9), rng.randint(-9, 9)
            if s or w:
                params.setdefault("inf" if w == 0 else Fraction(s, w), (s, w))
        pts = [
            ProjectivePoint([s * x + w * y for x, y in zip(a.coords, b.coords)])
            for s, w in params.values()
        ]
        # a zero denominator would raise ArithmeticError
        ratio = cross_ratio(pts)
        assert type(ratio) is Fraction
        assert ratio not in (0, 1)


class TestApplyPgl:
    def test_identity_fixes_points(self):
        I = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for p in (E1, E2, E3, GENERIC, pp("1:2/3:-5")):
            assert apply_pgl(I, p) == p

    def test_diagonal_action(self):
        assert apply_pgl([[1, 0, 0], [0, 1, 0], [0, 0, 2]], GENERIC) == pp("1:1:2")

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            apply_pgl([[1, 2, 3], [4, 5, 6], [7, 8, 9]], E1)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError):
            apply_pgl([[1, 0], [0, 1]], E1)

    def test_stratum_invariance_seeded_sweep(self):
        rng = random.Random(20260815)
        configs = [
            [E1, E2, E3, GENERIC],
            [E1, E2, pp("1:1:0"), E3],
            [E1, E2, GENERIC, pp("1:1:0")],
            [pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")],
            [E1, E2, E3],
            [E1, E2, pp("1:1:0")],
        ]
        checked = 0
        while checked < 100:
            M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            if det3(M) == 0:
                continue
            pts = configs[checked % len(configs)]
            moved = [apply_pgl(M, p) for p in pts]
            assert stratum(moved) == stratum(pts)
            checked += 1

    @given(matrix_entries, st.integers(min_value=0, max_value=5))
    @settings(max_examples=100)
    def test_cross_ratio_invariance(self, entries, shift):
        M = as_matrix(entries)
        assume(det3(M) != 0)
        pts = [pp(f"1:{z + shift}:0") for z in (0, 1, 2, 3)]
        moved = [apply_pgl(M, p) for p in pts]
        assert cross_ratio(moved) == cross_ratio(pts) == Fraction(4, 3)

    @given(matrix_entries)
    @settings(max_examples=60)
    def test_collinearity_invariance(self, entries):
        M = as_matrix(entries)
        assume(det3(M) != 0)
        for pts in ([E1, E2, pp("1:1:0")], [E1, E2, E3]):
            moved = [apply_pgl(M, p) for p in pts]
            assert collinear(*moved) == collinear(*pts)


class TestIntegerTriple:
    def test_fractions_clear_to_integers(self):
        assert pp("2/3:1:0").triple == (2, 3, 0)
        assert pp("0:-1/2:1/3").triple == (0, 3, -2)
        assert ProjectivePoint(["1/2", "1", 0]) == pp("1/2:1:0")

    def test_rational_matrix_is_scaled_by_one_common_factor(self):
        # diag(1/2, 1/3, 1) sends 1:1:1 to 1/2:1/3:1 = 3:2:6; clearing each
        # row by its own denominator would fix the point instead
        M = [[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0], [0, 0, 1]]
        assert apply_pgl(M, GENERIC) == pp("3:2:6")
        assert apply_pgl([["1/2", 0, 0], [0, "1/3", 0], [0, 0, 1]], GENERIC) == pp("3:2:6")


class TestNonRationalInput:
    @pytest.mark.parametrize(
        "coords, entry",
        [((0.1, 1, 0), "0.1"), ((1, None, 0), "None"), ((1, 0, Decimal("0.5")), r"Decimal\('0.5'\)")],
    )
    def test_point_entry_type_is_named(self, coords, entry):
        text = ":".join(map(str, coords))
        with pytest.raises(
            TypeError, match=rf"^coordinate {entry} of point '{re.escape(text)}' is not an int, a Fraction or a str$"
        ):
            ProjectivePoint(coords)

    def test_zero_denominator_string_raises_what_parse_raises(self):
        with pytest.raises(ValueError) as built:
            ProjectivePoint(("1/0", 1, 1))
        with pytest.raises(ValueError) as parsed:
            pp("1/0:1:1")
        assert str(built.value) == str(parsed.value)
        assert str(built.value) == "coordinate '1/0' of point '1/0:1:1' has a zero denominator"

    def test_float_matrix_rejected(self):
        M = [[1, 0, 0], [0, 0.5, 0], [0, 0, 1]]
        with pytest.raises(TypeError, match=r"^entry 0\.5 of matrix .* is not an int, a Fraction or a str$"):
            apply_pgl(M, E1)

    def test_zero_denominator_matrix_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^entry '2/0' of matrix .* has a zero denominator$"):
            apply_pgl([[1, 0, 0], [0, "2/0", 0], [0, 0, 1]], E1)


class TestIntegerKernelBuildsNoFraction:
    def test_integer_action_and_strata(self, monkeypatch):
        made = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        configs = [
            [E1, E2, E3, GENERIC],
            [E1, E2, GENERIC, pp("1:1:0")],
            [pp("0:1:0"), pp("0:0:1"), pp("0:1:1"), pp("0:1:2")],
        ]
        monkeypatch.setattr(confgeom, "Fraction", CountingFraction)
        M = [[2, 1, 0], [0, 1, -3], [1, 0, 1]]
        for pts in configs:
            assert stratum([apply_pgl(M, p) for p in pts]) == stratum(pts)
        assert made == []
        # the counter sees the one Fraction a cross ratio returns
        assert cross_ratio(configs[2]) == Fraction(1, 2)
        assert len(made) == 1


# ---------------------------------------------------------------------------
# Lockstep with the Fraction kernel the integer triples replaced.  This is a
# test oracle: the module as it was when each point held its coordinates as
# Fractions divided through by the first nonzero one, less the branches the
# calls below cannot reach.


class FractionPoint:
    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = tuple(Fraction(c) for c in coords)
        if len(vals) != 3:
            raise ValueError("a projective point needs three coordinates")
        pivot = next((c for c in vals if c != 0), None)
        if pivot is None:
            raise ValueError("homogeneous coordinates cannot all vanish")
        self.coords = tuple(c / pivot for c in vals)

    @classmethod
    def parse(cls, text):
        parts = str(text).strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"expected z0:z1:z2, got {text!r}")
        coords = []
        for part in parts:
            part = part.strip()
            try:
                coords.append(Fraction(part))
            except ZeroDivisionError:
                raise ValueError(
                    f"coordinate {part!r} of point {text!r} has a zero denominator"
                ) from None
        return cls(coords)

    def to_text(self):
        return ":".join(str(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, FractionPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjectivePoint({self.to_text()!r})"


def fraction_collinear(p, q, r):
    return det3((p.coords, q.coords, r.coords)) == 0


def fraction_check_points(points, sizes):
    pts = tuple(points)
    if len(pts) not in sizes:
        raise ValueError(f"expected {sizes} points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    return pts


def fraction_collinear_triples(points):
    pts = fraction_check_points(points, (3, 4))
    return [
        tuple(i + 1 for i in tri)
        for tri in combinations(range(len(pts)), 3)
        if fraction_collinear(*(pts[i] for i in tri))
    ]


def fraction_stratum(points):
    pts = fraction_check_points(points, (3, 4))
    triples = fraction_collinear_triples(pts)
    if len(pts) == 3:
        return "F_123" if triples else "F_0"
    if not triples:
        return "F_0"
    if len(triples) == 4:
        return "F_1234"
    assert len(triples) == 1
    i, j, k = triples[0]
    return f"F_{i}{j}{k}"


def fraction_cross_ratio(points):
    pts = fraction_check_points(points, (4,))
    for tri in combinations(range(4), 3):
        if not fraction_collinear(*(pts[i] for i in tri)):
            raise ValueError("cross ratio needs four collinear points")
    a, b = pts[0].coords, pts[1].coords
    best = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minor = a[i] * b[j] - a[j] * b[i]
        if minor != 0 and (best is None or abs(minor) > abs(best[2])):
            best = (i, j, minor)
    i, j, _ = best
    z = []
    for p in pts:
        c = p.coords
        z.append((c[i] * b[j] - c[j] * b[i], a[i] * c[j] - a[j] * c[i]))

    def d(u, v):
        return u[0] * v[1] - v[0] * u[1]

    return Fraction(d(z[2], z[0]) * d(z[3], z[1]), d(z[2], z[1]) * d(z[3], z[0]))


def fraction_apply_pgl(M, p):
    rows = [tuple(Fraction(x) for x in row) for row in M]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("the action needs a 3x3 matrix")
    if det3(rows) == 0:
        raise ValueError("singular matrix does not act on the plane")
    return FractionPoint([sum(row[k] * p.coords[k] for k in range(3)) for row in rows])


def outcome(fn, *args):
    """fn(*args) with points as text, or the type and message it raised."""
    try:
        value = fn(*args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return value.to_text() if isinstance(value, (ProjectivePoint, FractionPoint)) else value


# Hypothesis draws a seed per example (cheap to draw, and printed on
# failure) and each example checks CASES inputs built from random.Random(seed).
CASES = 8
NONZERO = [-4, -3, -2, -1, 1, 2, 3, 4]


def random_rational(rng):
    """n/d with d in 1..7: an int if d = 1, else a str for even d, a Fraction for odd d."""
    n, d = rng.randint(-6, 6), rng.randint(1, 7)
    if d == 1:
        return n
    return str(Fraction(n, d)) if d % 2 == 0 else Fraction(n, d)


def random_triple(rng):
    while True:
        t = [rng.randint(-9, 9) for _ in range(3)]
        if any(t):
            return t


def random_configuration(rng):
    """3 or 4 integer triples; each after the second is free (kind 0), on the
    line through points 1 and 2, the last two, or points 1 and 3 (kinds 1-3),
    or a multiple of point 1 (kind 4), so every stratum and coincident
    points come up."""
    raws = [random_triple(rng) for _ in range(rng.choice((3, 4)))]
    for m in range(2, len(raws)):
        kind = rng.randrange(5)
        s, w = rng.choice(NONZERO), rng.choice(NONZERO)
        if kind == 4:
            raws[m] = [s * x for x in raws[0]]
        elif kind and (kind != 3 or m == 3):
            i, j = {1: (0, 1), 2: (m - 2, m - 1), 3: (0, 2)}[kind]
            mixed = [s * x + w * y for x, y in zip(raws[i], raws[j])]
            raws[m] = mixed if any(mixed) else raws[m]
    return raws


def both(raw):
    """The integer point and the oracle point of one coordinate list."""
    return ProjectivePoint(raw), FractionPoint(raw)


class TestLockstepWithFractionKernel:
    @given(seeds)
    @settings(max_examples=30)
    def test_points_and_equality_classes(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES):
            raw = [random_rational(rng) for _ in range(3)]
            new, old = outcome(ProjectivePoint, raw), outcome(FractionPoint, raw)
            assert new == old
            if not isinstance(new, str):
                continue
            p, q = both(raw)
            assert p.coords == q.coords
            assert all(type(c) is Fraction for c in p.coords)
            assert repr(p) == repr(q)
            # the triple is primitive, its first nonzero entry positive
            z = p.triple
            assert all(type(c) is int for c in z) and gcd(*z) == 1
            assert next(c for c in z if c) > 0
            # a rescaled copy is the same point; another point is equal on
            # both sides or on neither
            lam = Fraction(rng.choice(NONZERO), rng.randint(1, 5))
            p2, q2 = both([lam * Fraction(c) for c in raw])
            assert p2 == p and q2 == q and hash(p2) == hash(p)
            p3, q3 = both(rng.choice([raw, random_triple(rng), [c * 2 for c in z]]))
            assert (p3 == p) == (q3 == q)

    @given(seeds)
    @settings(max_examples=30)
    def test_triples_and_strata(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES):
            raws = random_configuration(rng)
            new = [ProjectivePoint(t) for t in raws]
            old = [FractionPoint(t) for t in raws]
            assert outcome(collinear_triples, new) == outcome(fraction_collinear_triples, old)
            assert outcome(stratum, new) == outcome(fraction_stratum, old)

    @given(seeds)
    @settings(max_examples=30)
    def test_cross_ratio(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES):
            a, b = random_triple(rng), random_triple(rng)
            pts = [a, b] + [
                [s * x + w * y for x, y in zip(a, b)]
                for s, w in ((rng.choice(NONZERO), rng.choice(NONZERO)) for _ in range(2))
            ]
            if rng.randrange(4) == 0:
                pts[3] = [c + d for c, d in zip(pts[3], (1, 2, 5))]
            pts = [p for p in pts if any(p)]
            new = [ProjectivePoint(p) for p in pts]
            old = [FractionPoint(p) for p in pts]
            assert outcome(cross_ratio, new) == outcome(fraction_cross_ratio, old)

    @given(seeds)
    @settings(max_examples=30)
    def test_apply_pgl(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES):
            M = as_matrix([random_rational(rng) for _ in range(9)])
            p, q = both(random_triple(rng))
            assert outcome(apply_pgl, M, p) == outcome(fraction_apply_pgl, M, q)

    @pytest.mark.parametrize(
        "M",
        [
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[1, 0], [0, 1]],
            [[1, 0, 0], [0, 1, 0]],
            [[1, 0, 0], [0, 1], [0, 0, 1]],
            [["1/2", 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
    )
    def test_malformed_and_singular_matrices(self, M):
        assert outcome(apply_pgl, M, GENERIC) == outcome(fraction_apply_pgl, M, FractionPoint((1, 1, 1)))

    @pytest.mark.parametrize(
        "raw", [(1, 2), (1, 2, 3, 4), (0, 0, 0), ("0", Fraction(0), 0), ("x", 1, 1), ("1/2", " 3 ", 0)]
    )
    def test_malformed_points(self, raw):
        assert outcome(ProjectivePoint, raw) == outcome(FractionPoint, raw)

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:4", "0:0:0", "1/0:1:1", "1:2: 3/0 ", "a:1:1", ""])
    def test_malformed_text(self, text):
        assert outcome(pp, text) == outcome(FractionPoint.parse, text)
