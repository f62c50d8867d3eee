"""Tests for the configuration-space models E(m, k).

Rank tables for small (m, k) are pinned; the four-point planar model is
checked against its known degreewise ranks through degree 14.  Structural
properties: d squared vanishes, the relation ideal is d-stable, and point
relabeling never changes a rank.
"""

import random

import pytest

from cpstrata.dga import (
    check_d_squared,
    check_ideal_stability,
    cohomology_ranks,
    differential,
)
from cpstrata.gradedalg import GPolynomial
from cpstrata.kriz import (
    KrizParams,
    diagonal_pullback,
    g_name,
    kriz_model,
    kriz_table,
    point_pairs,
    relabeled_model,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KrizParams(0, 2)
        with pytest.raises(ValueError):
            KrizParams(2, 0)
        with pytest.raises(ValueError):
            KrizParams(1, 10)

    def test_table_shape(self):
        table = kriz_table(KrizParams(2, 3))
        assert table.names == ("x1", "x2", "x3", "G12", "G13", "G23")
        assert table.degrees == (2, 2, 2, 3, 3, 3)
        assert table.nilpotence == (3, 3, 3, None, None, None)

    def test_odd_connecting_degree(self):
        # degree 2m-1: odd for every m, so G generators square to zero
        for m in (1, 2, 3):
            table = kriz_table(KrizParams(m, 2))
            assert table.degrees[-1] == 2 * m - 1
            assert table.max_exponent(table.index("G12")) == 1

    def test_pair_enumeration(self):
        assert point_pairs(4) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]


class TestDiagonalPullback:
    def test_plane(self):
        table = kriz_table(KrizParams(2, 2))
        assert diagonal_pullback(2, 1, 2, table) == GPolynomial.parse(
            table, "x1^2 + x1*x2 + x2^2"
        )

    def test_line(self):
        table = kriz_table(KrizParams(1, 2))
        assert diagonal_pullback(1, 1, 2, table) == GPolynomial.parse(
            table, "x1 + x2"
        )

    def test_threefold(self):
        table = kriz_table(KrizParams(3, 2))
        assert diagonal_pullback(3, 1, 2, table) == GPolynomial.parse(
            table, "x1^3 + x1^2*x2 + x1*x2^2 + x2^3"
        )

    def test_symmetric_in_the_two_points(self):
        table = kriz_table(KrizParams(2, 3))
        assert diagonal_pullback(2, 1, 3, table) == diagonal_pullback(2, 3, 1, table)

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            diagonal_pullback(2, 1, 1, kriz_table(KrizParams(2, 2)))
        with pytest.raises(ValueError):
            g_name(2, 2)


class TestParsing:
    def test_reversed_indices_normalize(self):
        assert g_name(2, 1) == "G12"
        assert g_name(3, 1) == "G13"

    def test_reversed_product_keeps_koszul_sign(self):
        table = kriz_table(KrizParams(2, 3))
        assert GPolynomial.parse(table, "G13*G12") == -GPolynomial.parse(
            table, "G12*G13"
        )


class TestSmallModels:
    def test_two_points_in_the_plane(self):
        rep = cohomology_ranks(kriz_model(KrizParams(2, 2)))
        assert rep.rank_list(6) == [1, 0, 2, 0, 2, 0, 1]
        assert rep.ranks[9] == rep.ranks[10] == 0

    def test_three_points_on_the_line(self):
        rep = cohomology_ranks(kriz_model(KrizParams(1, 3)))
        assert rep.rank_list() == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert sum(rep.ranks.values()) == 2

    def test_three_points_in_the_plane(self):
        rep = cohomology_ranks(kriz_model(KrizParams(2, 3)))
        assert rep.rank_list(9) == [1, 0, 3, 0, 3, 0, 1, 1, 0, 1]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_point_is_projective_space(self, m):
        rep = cohomology_ranks(kriz_model(KrizParams(m, 1)))
        expected = [1 if q % 2 == 0 and q <= 2 * m else 0 for q in range(11)]
        assert rep.rank_list() == expected

    def test_default_caps(self):
        assert kriz_model(KrizParams(2, 3)).degree_cap == 10
        assert kriz_model(KrizParams(2, 4)).degree_cap == 14
        assert kriz_model(KrizParams(2, 4), degree_cap=8).degree_cap == 8


class TestFourPointModel:
    def test_rank_table_through_fourteen(self):
        rep = cohomology_ranks(kriz_model(KrizParams(2, 4)))
        table = {0: 1, 2: 4, 4: 4, 5: 2, 7: 6, 9: 4, 10: 2, 11: 1, 12: 2}
        assert rep.rank_list() == [table.get(q, 0) for q in range(15)]
        assert rep.ranks[13] == rep.ranks[14] == 0

    def test_euler_characteristics_follow_falling_factorials(self):
        # chi of k distinct points in CP^m, of Euler characteristic m+1, is
        # (m+1) m ... (m+2-k): 3, 6, 6, 0 for m=2 and k=1..4 (cap 14), and
        # 2, 0, 0 and 12, 24, 24 for m=1 and m=3 and k=2..4 at the cap 2mk
        # of the top degree, so no class is cut off
        cases = [(2, k, chi, 14) for k, chi in [(1, 3), (2, 6), (3, 6), (4, 0)]]
        for m, chis in [(1, [2, 0, 0]), (3, [12, 24, 24])]:
            cases += [(m, k, chi, 2 * m * k) for k, chi in zip((2, 3, 4), chis)]
        for m, k, chi, cap in cases:
            rep = cohomology_ranks(kriz_model(KrizParams(m, k), degree_cap=cap))
            assert rep.euler_characteristic() == chi, f"m={m} k={k}"


class TestStructure:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_d_squared_and_stability(self, m, k):
        D = kriz_model(KrizParams(m, k), degree_cap=10)
        check_d_squared(D)
        check_ideal_stability(D)

    def test_connecting_relation_maps_to_zero(self):
        D = kriz_model(KrizParams(2, 2))
        r = GPolynomial.parse(D.table, "x1*G12 - x2*G12")
        assert differential(D, r).is_zero  # x1^3 - x2^3 dies by nilpotence

    def test_arnold_relation_in_ideal_after_d(self):
        D = kriz_model(KrizParams(2, 3))
        arnold = GPolynomial.parse(D.table, "G12*G23 + G23*G13 + G13*G12")
        assert D.algebra.ideal_member(arnold)
        d_arnold = differential(D, arnold)
        assert d_arnold.is_zero or D.algebra.ideal_member(d_arnold)


class TestRelabeling:
    def test_all_three_point_permutations(self):
        base = cohomology_ranks(kriz_model(KrizParams(2, 3))).rank_list()
        import itertools

        for perm in itertools.permutations([1, 2, 3]):
            rep = cohomology_ranks(relabeled_model(KrizParams(2, 3), perm))
            assert rep.rank_list() == base, f"perm {perm}"

    def test_four_point_permutations(self):
        base = cohomology_ranks(kriz_model(KrizParams(2, 4), degree_cap=10))
        rng = random.Random(11)
        perms = [[2, 1, 3, 4], [4, 3, 2, 1]]
        perms.append(rng.sample(range(1, 5), 4))
        for perm in perms:
            rep = cohomology_ranks(
                relabeled_model(KrizParams(2, 4), perm, degree_cap=10)
            )
            assert rep.rank_list() == base.rank_list(), f"perm {perm}"

    def test_identity_relabeling_reproduces_relations(self):
        p = KrizParams(2, 3)
        assert (
            relabeled_model(p, [1, 2, 3]).algebra.relations
            == kriz_model(p).algebra.relations
        )

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            relabeled_model(KrizParams(2, 3), [1, 1, 2])


# ------------------------------------------------------ closed-form oracles


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_pow(p, e):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def even_powers(top):
    """1 + t^2 + ... + t^(2 top)."""
    return [1 if i % 2 == 0 else 0 for i in range(2 * top + 1)]


def hilbert_series(m, k):
    """dim A^q of the Kriz algebra E(m, k), A before the differential:
    sum over r of e_r(1, ..., k-1) t^(r(2m-1)) (1 + t^2 + ... + t^(2m))^(k-r),
    the no-broken-circuit count of the Arnold relations."""
    elementary = [1]
    for j in range(1, k):
        elementary = poly_mul(elementary, [1, j])  # e_r is the t^r coefficient
    out = [0] * (2 * m * k + 1)
    for r, e in enumerate(elementary):
        for q, c in enumerate(poly_pow(even_powers(m), k - r)):
            out[r * (2 * m - 1) + q] += e * c
    return out


def padded(coefficients, top):
    return coefficients + [0] * (top + 1 - len(coefficients))


class TestClosedForms:
    """Independent closed forms for E(m, k), checked through degree 2mk + 1.

    A is zero above its top degree 2mk, so the ranks through 2mk are all of
    the cohomology, and degree 2mk + 1 checks that vanishing."""

    @pytest.mark.parametrize(
        "m, k", [(m, k) for m in (1, 2, 3) for k in (1, 2, 3, 4)] + [(2, 5)]
    )
    def test_hilbert_series_of_the_algebra(self, m, k):
        A = kriz_model(KrizParams(m, k)).algebra
        top = 2 * m * k + 1
        assert [A.quotient_dimension(q) for q in range(top + 1)] == padded(
            hilbert_series(m, k), top
        )

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_points_on_the_line(self, k):
        # F(CP^1, k) = PGL_2(C) x M_{0,k}: (1 + t^3) prod_{j=2}^{k-2} (1 + j t)
        law = [1, 0, 0, 1]
        for j in range(2, k - 1):
            law = poly_mul(law, [1, j])
        top = 2 * k + 1
        rep = cohomology_ranks(kriz_model(KrizParams(1, k), degree_cap=top))
        assert rep.rank_list() == padded(law, top)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_two_points(self, m):
        # F(CP^m, 2) fibres over CP^m with fibre CP^m minus a point
        law = poly_mul(even_powers(m), even_powers(m - 1))
        top = 4 * m + 1
        rep = cohomology_ranks(kriz_model(KrizParams(m, 2), degree_cap=top))
        assert rep.rank_list() == padded(law, top)
