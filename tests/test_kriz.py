"""Tests for the configuration-space models E(m, k).

Rank tables for small (m, k) are pinned; the four-point planar model is
checked against its known degreewise ranks through degree 14.  Structural
properties: d squared vanishes, the relation ideal is d-stable, and point
relabeling never changes a rank.  The one builder of the plain and the
relabeled models is checked term for term against the word and
substitution constructions it replaced.
"""

import random
from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

from cpstrata import dga, groebner, kriz
from cpstrata.dga import (
    DgaSpec,
    check_d_squared,
    check_ideal_stability,
    cohomology_ranks,
    complete_through_cap,
    dga_to_json,
    differential,
    substitute,
)
from cpstrata.gradedalg import GPolynomial, PresentedAlgebra
from cpstrata.kriz import (
    KrizParams,
    default_cap,
    diagonal_pullback,
    g_name,
    kriz_model,
    kriz_table,
    point_pairs,
    relabeled_model,
)
from polytext import P


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KrizParams(0, 2)
        with pytest.raises(ValueError):
            KrizParams(2, 0)
        with pytest.raises(ValueError):
            KrizParams(1, 10)

    def test_huge_m_refused_before_any_model(self, monkeypatch):
        # the model is linear in m whatever the cap, so m is bounded at once
        monkeypatch.setattr(kriz, "kriz_table", lambda p: pytest.fail("a table was built"))
        for m in (4097, 10**6):
            with pytest.raises(ValueError, match=rf"^complex dimension m must be <= 4096, got {m}$"):
                KrizParams(m, 3)
        assert KrizParams(4096, 9).m == 4096

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
    def test_non_int_fields_rejected(self, bad):
        with pytest.raises(TypeError, match=rf"^m {bad!r} is not an int$"):
            KrizParams(bad, 3)
        with pytest.raises(TypeError, match=rf"^k {bad!r} is not an int$"):
            KrizParams(2, bad)

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
            assert GPolynomial.from_word(table, ["G12", "G12"]).is_zero

    def test_pair_enumeration(self):
        assert point_pairs(4) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]


class TestDiagonalPullback:
    def test_plane(self):
        table = kriz_table(KrizParams(2, 2))
        assert diagonal_pullback(2, 1, 2, table) == P(
            table, "x1^2 + x1*x2 + x2^2"
        )

    def test_line(self):
        table = kriz_table(KrizParams(1, 2))
        assert diagonal_pullback(1, 1, 2, table) == P(
            table, "x1 + x2"
        )

    def test_threefold(self):
        table = kriz_table(KrizParams(3, 2))
        assert diagonal_pullback(3, 1, 2, table) == P(
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

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_dimension_must_match_the_bound(self, m):
        # x1, x2 have bound 3 = m + 1 for m = 2 only; a larger m would pack
        # an exponent past the cap
        table = kriz_table(KrizParams(2, 2))
        with pytest.raises(ValueError, match=r"nilpotence bound m \+ 1"):
            diagonal_pullback(m, 1, 2, table)


class TestParsing:
    def test_reversed_indices_normalize(self):
        assert g_name(2, 1) == "G12"
        assert g_name(3, 1) == "G13"

    def test_reversed_product_keeps_koszul_sign(self):
        table = kriz_table(KrizParams(2, 3))
        assert P(table, "G13*G12") == -P(
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
        r = P(D.table, "x1*G12 - x2*G12")
        assert differential(D, r).is_zero  # x1^3 - x2^3 dies by nilpotence

    def test_arnold_relation_in_ideal_after_d(self):
        D = kriz_model(KrizParams(2, 3))
        arnold = P(D.table, "G12*G23 + G23*G13 + G13*G12")
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
        for perm in ([True], [1.0]):
            with pytest.raises(TypeError, match=rf"^point label {perm[0]!r} is not an int$"):
                relabeled_model(KrizParams(2, 1), perm)

    def test_every_other_relabeling_moves_the_relations(self):
        # otherwise the relabeling checks would compare a model with itself
        for k in (2, 3, 4):
            p = KrizParams(2, k)
            base = [r.terms for r in kriz_model(p).algebra.relations]
            for perm in permutations(range(1, k + 1)):
                moved = [r.terms for r in relabeled_model(p, perm).algebra.relations]
                assert (moved == base) == (perm == tuple(range(1, k + 1))), perm


# ------------------------------------------------- the old constructions


def word_model(p):
    """Relations and values of E(m, k) from GPolynomial.from_word words and
    their sums: the construction kriz_model used before it packed the pair
    relations and diagonal classes, kept as their oracle."""
    table = kriz_table(p)

    def w(*word):
        return GPolynomial.from_word(table, word)

    relations = [
        w(*[f"x{a}"] * i, g_name(a, b)) - w(*[f"x{b}"] * i, g_name(a, b))
        for a, b in point_pairs(p.k)
        for i in range(1, p.m + 1)
    ]
    for a, b, c in combinations(range(1, p.k + 1), 3):
        ab, bc, ca = g_name(a, b), g_name(b, c), g_name(c, a)
        relations.append(w(ab, bc) + w(bc, ca) + w(ca, ab))
    values = {}
    for a, b in point_pairs(p.k):
        value = GPolynomial.zero(table)
        for i in range(p.m + 1):
            value = value + w(*[f"x{a}"] * i, *[f"x{b}"] * (p.m - i))
        values[g_name(a, b)] = value
    return relations, values


def substituted_model(p, base, perm):
    """The word model's relations and values pushed through the relabeling
    by dga.substitute: the construction relabeled_model used before it
    wrote the relabeled words."""
    relations, values = base
    table = kriz_table(p)
    image = {f"x{a}": GPolynomial.generator(table, f"x{perm[a - 1]}") for a in range(1, p.k + 1)}
    for a, b in point_pairs(p.k):
        image[g_name(a, b)] = GPolynomial.generator(table, g_name(perm[a - 1], perm[b - 1]))
    return [substitute(r, image, table) for r in relations], {
        g_name(perm[a - 1], perm[b - 1]): substitute(values[g_name(a, b)], image, table)
        for a, b in point_pairs(p.k)
    }


def spelled(relations, values):
    """Relations and values term by term: keys, their order, coefficients
    and the coefficients' types."""
    def terms(poly):
        return [(key, type(c), c) for key, c in poly.terms.items()]

    return [terms(r) for r in relations], [(name, terms(v)) for name, v in values.items()]


def relabelings(m, k, rng):
    """Every relabeling for k <= 3, and for k = 4 when m <= 2; six seeded
    ones for k = 4 at m = 3, 4 and three for k = 5, to keep the oracle
    under half a second."""
    if k <= 3 or (k == 4 and m <= 2):
        return list(permutations(range(1, k + 1)))
    return [tuple(rng.sample(range(1, k + 1), k)) for _ in range(6 if k == 4 else 3)]


class TestOneBuilder:
    def test_models_match_the_word_and_substitution_oracles(self):
        # m <= 4, k <= 5: the model at its default cap and at 2mk, and its
        # relabelings at the default cap
        rng = random.Random(25)
        count = 0
        for m in range(1, 5):
            for k in range(1, 6):
                p = KrizParams(m, k)
                base = word_model(p)
                for cap in (None, 2 * m * k):
                    D = kriz_model(p, cap)
                    assert spelled(D.algebra.relations, D.values) == spelled(*base)
                    want = DgaSpec(PresentedAlgebra(D.table, base[0]), base[1], D.degree_cap)
                    assert dga_to_json(D) == dga_to_json(want)
                for perm in relabelings(m, k, rng):
                    D = relabeled_model(p, perm)
                    want = substituted_model(p, base, perm)
                    assert D.table == kriz_table(p) and D.degree_cap == default_cap(p)
                    assert spelled(D.algebra.relations, D.values) == spelled(*want), perm
                    count += 1
        assert count == 4 * (1 + 2 + 6 + 3) + 2 * 24 + 2 * 6

    def test_diagonal_pullback_matches_the_words(self):
        for m in (1, 2, 5):
            table = kriz_table(KrizParams(m, 3))
            for a, b in ((1, 2), (3, 1)):
                want = GPolynomial.zero(table)
                for i in range(m + 1):
                    want = want + GPolynomial.from_word(table, [f"x{a}"] * i + [f"x{b}"] * (m - i))
                got = diagonal_pullback(m, a, b, table)
                assert list(got.terms.items()) == list(want.terms.items())

    def test_only_the_arnold_relations_take_words(self, monkeypatch):
        counts = Counter()
        from_word = GPolynomial.from_word.__func__

        def counted(cls, table, word):
            counts["from_word"] += 1
            return from_word(cls, table, word)

        def refused(*args, **kwargs):
            raise AssertionError("relabeled_model rebuilt the base model")

        monkeypatch.setattr(GPolynomial, "from_word", classmethod(counted))
        for m, ks in ((1, range(1, 7)), (2, range(1, 7)), (7, range(1, 7)), (3000, (2,))):
            for k in ks:
                counts.clear()
                kriz_model(KrizParams(m, k))
                assert counts["from_word"] == 3 * comb(k, 3), (m, k)
        monkeypatch.setattr(kriz, "kriz_model", refused)
        monkeypatch.setattr(dga, "substitute", refused)
        monkeypatch.setattr(kriz, "substitute", refused, raising=False)
        counts.clear()
        relabeled_model(KrizParams(2, 4), (3, 1, 4, 2))
        assert counts["from_word"] == 3 * comb(4, 3)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_window_certifies_exactly_the_caps_from_the_top_degree(self, m):
        # A lives in degrees 0..2mk, so the window above the cap is zero
        # once the cap reaches 2mk and not before
        for k in (1, 2, 3, 4):
            top = 2 * m * k
            assert complete_through_cap(kriz_model(KrizParams(m, k), degree_cap=top))
            assert not complete_through_cap(kriz_model(KrizParams(m, k), degree_cap=top - 1))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_points_on_the_line(self, k):
        # F(CP^1, k) = PGL_2(C) x M_{0,k}: (1 + t^3) prod_{j=2}^{k-2} (1 + j t)
        law = [1, 0, 0, 1]
        for j in range(2, k - 1):
            law = poly_mul(law, [1, j])
        top = 2 * k + 1
        rep = cohomology_ranks(kriz_model(KrizParams(1, k), degree_cap=top))
        assert rep.rank_list() == padded(law, top)

    @pytest.mark.parametrize("m, k", [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 3)])
    def test_point_count_of_the_frames(self, m, k):
        # F(P^m, k) has prod_{i<k} ([m+1]_Q - i) points over F_Q, Q = p^r;
        # a standard monomial of degree q with g odd factors (the G_ab)
        # has weight q + g, and contributes (-1)^q Q^(mk - (q + g)/2)
        A = kriz_model(KrizParams(m, k)).algebra
        odd, top = A.table._odd_bits, m * k
        count = [0] * (top + 1)
        for q in range(2 * m * k + 2 * m + 1):
            for mono in A.graded_basis(q).monomials:
                count[top - (q + (mono & odd).bit_count()) // 2] += (-1) ** q
        law = [1]
        for i in range(k):
            law = poly_mul(law, [1 - i] + [1] * m)
        assert count == law

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_two_points(self, m):
        # F(CP^m, 2) fibres over CP^m with fibre CP^m minus a point
        law = poly_mul(even_powers(m), even_powers(m - 1))
        top = 4 * m + 1
        rep = cohomology_ranks(kriz_model(KrizParams(m, 2), degree_cap=top))
        assert rep.rank_list() == padded(law, top)


class TestLargeCaps:
    """Frames through a large cap take linear work: the fill loop starts at
    the first frame not built, and the monomial counts come from one kept
    series, recomputed to twice its length when a frame passes it."""

    def test_frame_lookups_and_series_lengths_grow_linearly(self, monkeypatch):
        lengths, lookups = [], Counter()
        counts = groebner._ambient_counts

        def counted(table, length):
            lengths.append(length)
            return counts(table, length)

        class CountedFrames(dict):
            def get(self, q, default=None):
                lookups["get"] += 1
                return super().get(q, default)

            def __contains__(self, q):
                lookups["contains"] += 1
                return super().__contains__(q)

        monkeypatch.setattr(groebner, "_ambient_counts", counted)
        A = kriz_model(KrizParams(2, 3), degree_cap=1000).algebra
        A._frames = CountedFrames()
        assert A.quotient_dimension(1000) == 0
        assert sorted(A._frames) == list(range(1001))
        # one lookup per frame (the fill loop once tested every lower
        # degree per frame: 500,500 tests), and 11 series of total length
        # 2,047 (once one series per frame, of total length 501,501)
        assert lookups == {"get": 1001}
        assert lengths == [2**i for i in range(11)]
