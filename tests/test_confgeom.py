"""Exact strata and cross ratios of plane point configurations."""

import random
from fractions import Fraction

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

    @given(
        raw_point,
        raw_point,
        st.lists(
            st.tuples(coord, coord).filter(lambda t: any(t)),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=150)
    def test_never_degenerate_on_distinct_points(self, t, u, params):
        a, b = ProjectivePoint(t), ProjectivePoint(u)
        assume(a != b)
        # distinct pencil parameters [s:w] give distinct points
        keys = {"inf" if w == 0 else Fraction(s, w) for s, w in params}
        assume(len(keys) == 4)
        pts = [
            ProjectivePoint([s * x + w * y for x, y in zip(a.coords, b.coords)])
            for s, w in params
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
