"""Chamberwise models of ball embedding spaces against their frozen answers."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata import ballmodels, dga, groebner
from cpstrata.ballmodels import (
    CircleWeights,
    ab_isomorphism_check,
    ab_presentation,
    bstab_presentation,
    canonical_chamber,
    four_ball_stabilizer_presentation,
    free_weight_count,
    iemb_model,
    iemb_presentation,
)
from cpstrata.dga import (
    DgaSpec,
    VerificationReport,
    _QuotientDifferential,
    cohomology_ranks,
    cohomology_representatives,
    dga_to_json,
    differential,
    verify_presentation,
)
from cpstrata.gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra, SparseReducer
from cpstrata.kriz import KrizParams, kriz_model, relabeled_model
from cpstrata.verify import Recorder
from polytext import P
from test_monomial_kernel import reference_monomials


# Rank tables for the embedding spaces, degrees 0..9, everything above
# the listed window vanishing through the cap.
RANK_ROWS = {
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

CONF3_DIMS = [1, 0, 3, 0, 3, 0, 1, 1, 0, 1]


class TestCircleWeights:
    @pytest.mark.parametrize(
        "pair, m, n",
        [((1, 1), 3, 2), ((1, 0), 1, 0), ((0, 1), 1, 0), ((2, -1), 3, -2),
         ((3, 5), 49, 120), ((-1, -1), 3, -2)],
    )
    def test_derived_quantities(self, pair, m, n):
        w = CircleWeights([pair])
        assert w.m == (m,)
        assert w.n == (n,)

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            CircleWeights([(1, 1), (0, 0)])

    def test_m_positive_for_any_nonzero_pair(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if (a, b) != (0, 0):
                    assert CircleWeights([(a, b)]).m[0] > 0

    @pytest.mark.parametrize(
        "pair", [(1.7, 0), (True, 2), (2, False), (Fraction(2), 1), (2.0, 1), ("1", 2), (1, None)]
    )
    def test_non_int_entry_rejected(self, pair):
        with pytest.raises(TypeError, match=re.escape(repr(pair))):
            CircleWeights([(1, 1), pair])

    @pytest.mark.parametrize("pair", [(), (1,), (1, 2, 3)])
    def test_pair_without_two_entries_rejected(self, pair):
        with pytest.raises(ValueError, match="not a pair"):
            CircleWeights([pair])

    def test_float_weight_reaches_no_model(self):
        # int() used to truncate it: d(beta) = T1^2 + 7*T2^2
        with pytest.raises(TypeError, match=re.escape("(1.7, 0)")):
            iemb_model(4, "C_2", [(1.7, 0), (2, 1)])

    def test_derived_quantities_are_computed_once(self):
        w = CircleWeights([(2, -1), [3, 5]])
        assert w.pairs == ((2, -1), (3, 5))
        assert vars(w)["m"] == (3, 49) and vars(w)["n"] == (-2, 120)


class TestChamberBookkeeping:
    def test_supported_pairs(self):
        supported = sorted(ballmodels._CHAMBERS)
        assert len(supported) == 10
        assert (4, "C_5") in supported

    @pytest.mark.parametrize(
        "n, raw, want",
        [(4, "C2", "C_2"), (4, "C_0", "C_0"), (1, "unique", "C_unique"),
         (2, "C_unique", "C_unique"), (3, "big", "big"), (3, "small", "small")],
    )
    def test_label_normalization(self, n, raw, want):
        assert canonical_chamber(n, raw) == want

    @pytest.mark.parametrize(
        "n, chamber",
        [(5, "C_1"), (3, "C_0"), (4, "big"), (1, "small"), (4, "C_6")],
    )
    def test_unsupported_pairs_rejected(self, n, chamber):
        with pytest.raises(ValueError):
            canonical_chamber(n, chamber)

    def test_free_weight_counts(self):
        counts = {ch: free_weight_count(n, ch) for n, ch in ballmodels._CHAMBERS}
        assert counts["small"] == 1
        assert counts["big"] == 0
        assert [counts[f"C_{r}"] for r in range(6)] == [0, 1, 2, 3, 4, 0]

    @pytest.mark.parametrize(
        "call, n, chamber",
        [(iemb_model, True, "C_unique"), (iemb_model, 4.0, "C_2"), (iemb_model, 3.0, "small"),
         (bstab_presentation, True, "unique"), (free_weight_count, 4.0, "C_3"),
         (iemb_presentation, 2.0, "C_unique"), (canonical_chamber, False, "C_0")],
    )
    def test_bool_or_float_ball_count_rejected(self, call, n, chamber):
        # True and 4.0 hash like the int keys 1 and 4
        with pytest.raises(TypeError, match=f"ball count {n!r} is not an int"):
            call(n, chamber)


class TestModelShapes:
    def test_three_big_differential(self):
        D = iemb_model(3, "big")
        t = D.table
        assert D.values["beta"] == P(t, "T1^2 + T2^2 + T1*T2")
        assert D.values["gamma"] == P(t, "T1*T2^2 + T1^2*T2")
        assert D.algebra.relations == ()

    def test_two_balls_match_three_big(self):
        D2, D3 = iemb_model(2, "C_unique"), iemb_model(3, "big")
        assert D2.table.names == D3.table.names
        assert D2.values == {k: v for k, v in D3.values.items()}

    def test_three_small_third_circle(self):
        D = iemb_model(3, "small", [(2, 3)])  # m = 19, n = 30
        t = D.table
        assert t.names == ("T1", "T2", "T3", "beta", "gamma")
        assert D.values["beta"] == P(t, "T1^2 + T2^2 + T1*T2 + 19*T3^2")
        assert D.values["gamma"] == P(
            t, "T1*T2^2 + T1^2*T2 + 30*T3^3"
        )
        rels = set(D.algebra.relations)
        assert rels == {P(t, "T1*T3"), P(t, "T2*T3")}

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_four_ball_wedge_chambers_default_weights(self, r):
        D = iemb_model(4, f"C_{r}")
        t = D.table
        dbeta = sum((3 * P(t, f"T{i}^2") for i in range(1, r + 1)),
                    GPolynomial.zero(t))
        dgamma = sum((2 * P(t, f"T{i}^3") for i in range(1, r + 1)),
                     GPolynomial.zero(t))
        assert D.values["beta"] == dbeta
        assert D.values["gamma"] == dgamma
        assert len(D.algebra.relations) == r * (r - 1) // 2

    def test_chamber_zero_has_closed_fiber_classes(self):
        D = iemb_model(4, "C_0")
        assert D.table.names == ("beta", "gamma")
        assert D.values == {}

    def test_weight_without_gamma_term(self):
        D = iemb_model(4, "C_1", [(1, 0)])
        assert "gamma" not in D.values
        assert D.values["beta"] == P(D.table, "T1^2")

    def test_one_ball_uses_rank_two_base(self):
        D = iemb_model(1, "C_unique")
        assert D.table.names == ("e1", "e2", "beta", "gamma")
        assert D.table.degrees == (2, 4, 3, 5)
        assert D.values["beta"] == P(D.table, "e1^2 - e2")
        assert D.values["gamma"] == P(D.table, "e1*e2")

    def test_small_chamber_redirects_to_configuration_model(self):
        D = iemb_model(4, "C_5")
        K = kriz_model(KrizParams(2, 4))
        assert D.table.names == K.table.names
        assert D.degree_cap == K.degree_cap == 14
        assert D.values == K.values

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iemb_model(4, "C_2", [(1, 1)])
        with pytest.raises(ValueError):
            iemb_model(3, "big", [(1, 1)])
        with pytest.raises(ValueError):
            iemb_model(4, "C_5", [(1, 1)])

    def test_leibniz_on_a_weighted_model(self):
        D = iemb_model(4, "C_2", [(2, 1), (1, 3)])
        t = D.table
        p = P(t, "T1*beta")
        q = P(t, "T2 + gamma")
        left = differential(D, p * q)
        right = differential(D, p) * q - p * differential(D, q)
        assert left == right  # p has odd degree 5


class TestFrozenRankTables:
    @pytest.mark.parametrize("n, chamber", sorted(RANK_ROWS))
    def test_rank_table(self, n, chamber):
        report = cohomology_ranks(iemb_model(n, chamber))
        assert report.rank_list(9) == RANK_ROWS[(n, chamber)]
        assert all(r == 0 for r in report.rank_list()[10:])
        cap = report.degree_cap
        assert report.ranks[cap - 1] == report.ranks[cap] == 0

    def test_four_small_circles_through_cap_forty(self):
        # frames past 15 carry T exponents above 7, beyond a 4-bit field;
        # pinned to the ranks the ambient-frame implementation printed
        report = cohomology_ranks(iemb_model(4, "C_4", degree_cap=40))
        assert report.rank_list() == RANK_ROWS[(4, "C_4")] + [0] * 31

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_euler_characteristic_vanishes_on_wedge_chambers(self, r):
        assert cohomology_ranks(iemb_model(4, f"C_{r}")).euler_characteristic() == 0

    def test_degree_two_rank_counts_circles(self):
        for r in range(5):
            report = cohomology_ranks(iemb_model(4, f"C_{r}"))
            assert report.ranks[2] == r
        assert cohomology_ranks(iemb_model(4, "C_5")).ranks[2] == 4

    def test_small_three_ball_space_matches_configuration_model(self):
        ours = cohomology_ranks(iemb_model(3, "small")).rank_list(10)
        conf = cohomology_ranks(kriz_model(KrizParams(2, 3))).rank_list(10)
        assert ours == conf == CONF3_DIMS + [0]


class TestPresentations:
    @pytest.mark.parametrize("n, chamber", sorted(RANK_ROWS))
    def test_presentation_verifies_with_default_weights(self, n, chamber):
        D = iemb_model(n, chamber)
        pres, gen_map = iemb_presentation(n, chamber)
        report = verify_presentation(D, pres, gen_map)
        assert report, report.first_failure

    @pytest.mark.parametrize(
        "n, chamber, w",
        [(3, "small", [(2, -1)]), (3, "small", [(3, 5)]),
         (4, "C_1", [(5, 2)]), (4, "C_2", [(1, 0), (2, 1)]),
         (4, "C_3", [(1, 0), (1, 1), (2, 1)])],
    )
    def test_presentation_verifies_with_other_weights(self, n, chamber, w):
        D = iemb_model(n, chamber, w)
        pres, gen_map = iemb_presentation(n, chamber, w)
        report = verify_presentation(D, pres, gen_map)
        assert report, report.first_failure

    def test_no_presentation_for_small_four_balls(self):
        with pytest.raises(ValueError):
            iemb_presentation(4, "C_5")

    @pytest.mark.parametrize("n, chamber", sorted(RANK_ROWS))
    def test_presentation_builds_no_model(self, n, chamber, monkeypatch):
        # only the model's generator table is needed, not its differential
        expected = iemb_model(n, chamber)
        pres, gen_map = iemb_presentation(n, chamber)

        def no_model(*args, **kwargs):
            raise AssertionError("DgaSpec built")

        monkeypatch.setattr(DgaSpec, "__init__", no_model)
        again, again_map = iemb_presentation(n, chamber)
        assert again.relations == pres.relations and again_map == gen_map
        assert {g.table for g in again_map.values()} == {expected.table}
        with pytest.raises(ValueError, match="circle weight pair"):
            iemb_presentation(n, chamber, [(1, 1)] * 5)

    def test_weighted_relation_keeps_integer_coefficients(self):
        pres, _ = iemb_presentation(4, "C_2", [(1, 1), (2, -1)])
        t = pres.table
        assert pres.relations[0] == P(t, "3*T1^2 + 3*T2^2")
        assert P(t, "T1*T2") in pres.relations

    def test_small_three_ball_presentation_dimensions(self):
        pres, _ = iemb_presentation(3, "small")
        dims = [pres.quotient_dimension(q) for q in range(13)]
        assert dims == CONF3_DIMS + [0, 0, 0]

    def test_eta_image_is_closed_before_quotient(self):
        D = iemb_model(4, "C_2", [(1, 1), (1, 0)])
        _, gen_map = iemb_presentation(4, "C_2", [(1, 1), (1, 0)])
        image = differential(D, gen_map["eta"])
        # closed in the quotient: the residue is an ideal member
        assert D.algebra.ideal_member(image)


class TestBstabPresentation:
    def test_four_small_balls_dimension_table(self):
        ring = four_ball_stabilizer_presentation()
        dims = [ring.quotient_dimension(q) for q in range(15)]
        assert dims == [1, 0, 4, 0, 5, 2, 5, 2, 5, 2, 5, 2, 5, 2, 5]
        assert bstab_presentation(4, "C_5") is not ring  # fresh instance
        assert [
            bstab_presentation(4, "C_5").quotient_dimension(q) for q in range(8)
        ] == dims[:8]

    def test_trivial_stabilizer(self):
        ring = bstab_presentation(4, "C_0")
        assert ring.table.names == ()
        assert [ring.quotient_dimension(q) for q in range(7)] == [1, 0, 0, 0, 0, 0, 0]

    def test_torus_cases_are_free(self):
        for pair in ((2, "C_unique"), (3, "big")):
            ring = bstab_presentation(*pair)
            assert ring.relations == ()
            dims = [ring.quotient_dimension(q) for q in range(0, 9, 2)]
            assert dims == [1, 2, 3, 4, 5]

    def test_one_ball_base(self):
        ring = bstab_presentation(1, "C_unique")
        assert ring.table.degrees == (2, 4)
        dims = [ring.quotient_dimension(q) for q in range(0, 13, 2)]
        assert dims == [1, 1, 2, 2, 3, 3, 4]

    def test_wedge_of_circles(self):
        ring = bstab_presentation(4, "C_3")
        t = ring.table
        assert ring.ideal_member(P(t, "T1*T3"))
        assert not ring.ideal_member(P(t, "T2^2"))
        assert [ring.quotient_dimension(q) for q in (0, 2, 4, 6)] == [1, 3, 3, 3]

    def test_small_three_ball_base(self):
        ring = bstab_presentation(3, "small")
        assert [ring.quotient_dimension(q) for q in (0, 2, 4, 6)] == [1, 3, 4, 5]

    def test_base_relations_match_model_relations(self):
        ring = bstab_presentation(4, "C_2")
        model = iemb_model(4, "C_2")
        assert {r.to_text() for r in ring.relations} == {
            r.to_text() for r in model.algebra.relations
        }


def same_ranks(n, chamber, sets):
    """Recorder.same_ranks over the models of one chamber, one per weight set."""
    return Recorder().same_ranks(iemb_model(n, chamber, w) for w in sets)


class TestWeightIndependence:
    def test_small_three_balls_sweep(self):
        sets = [[(1, 0)], [(1, 1)], [(2, -1)], [(3, 5)]]
        assert same_ranks(3, "small", sets) is True

    def test_one_circle_chamber_sweep(self):
        sets = [[(1, 0)], [(1, 1)], [(5, 2)]]
        assert same_ranks(4, "C_1", sets) is True
        for w in sets:
            ranks = cohomology_ranks(iemb_model(4, "C_1", w)).rank_list(7)
            assert ranks == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_two_circle_chamber_sweep(self):
        sets = [[(1, 1), (1, 1)], [(1, 0), (0, 1)], [(2, 1), (1, -3)]]
        assert same_ranks(4, "C_2", sets) is True

    def test_fewer_than_two_models_agree_vacuously(self):
        assert same_ranks(4, "C_1", [[(1, 1)]]) is True
        assert same_ranks(4, "C_1", []) is True

    @given(
        a=st.integers(min_value=-4, max_value=4),
        b=st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_single_weight_gives_the_frozen_row(self, a, b):
        if (a, b) == (0, 0):
            return
        ranks = cohomology_ranks(iemb_model(4, "C_1", [(a, b)])).rank_list(9)
        assert ranks == RANK_ROWS[(4, "C_1")]


class TestSharedCircleAlgebra:
    """Every model of a chamber shares one algebra, whatever its weights."""

    WEIGHTS = [[(a, b), (b - 2, a + 1)] for a, b in ((1, 0), (1, 1), (2, -1), (3, 5), (-4, 2))]
    WEIGHTS += [[(a, 1), (1, -a)] for a in range(-7, 8)]

    def test_models_share_one_algebra_and_build_each_frame_once(self, monkeypatch):
        ballmodels._circle_algebra.cache_clear()  # start from unbuilt frames
        built = []
        build = PresentedAlgebra._build_frame

        def counted(self, q):
            built.append((id(self), q))
            return build(self, q)

        monkeypatch.setattr(PresentedAlgebra, "_build_frame", counted)
        assert len(self.WEIGHTS) == 20
        models = [iemb_model(4, "C_2", w) for w in self.WEIGHTS]
        assert len({id(D.algebra) for D in models}) == 1
        assert len({tuple(D.values["beta"].terms.items()) for D in models}) > 1
        for D in models:
            assert cohomology_ranks(D).rank_list(9) == RANK_ROWS[(4, "C_2")]
        algebra = models[0].algebra
        assert sorted(built) == [(id(algebra), q) for q in range(models[0].degree_cap + 2)]

    def test_chambers_of_one_shape_share_and_others_do_not(self):
        assert iemb_model(2, "C_unique").algebra is iemb_model(3, "big").algebra
        shapes = [iemb_model(3, "small"), iemb_model(4, "C_0")]
        shapes += [iemb_model(4, f"C_{r}") for r in range(1, 5)]
        assert len({id(D.algebra) for D in shapes}) == len(shapes)
        assert kriz_model(KrizParams(2, 3)).algebra is not kriz_model(KrizParams(2, 3)).algebra

    @pytest.mark.parametrize(
        "n, chamber, w",
        [(3, "small", [(2, 5)]), (4, "C_2", [(3, -1), (1, 4)]),
         (4, "C_4", [(1, 2), (3, -1), (2, 2), (-1, 4)])],
    )
    def test_shared_algebra_matches_a_fresh_one(self, n, chamber, w):
        cohomology_ranks(iemb_model(n, chamber))  # frames built by another model
        shared = iemb_model(n, chamber, w)
        fresh = PresentedAlgebra(shared.table, shared.algebra.relations)
        assert fresh is not shared.algebra
        alone = DgaSpec(fresh, shared.values, shared.degree_cap)
        assert cohomology_representatives(shared) == cohomology_representatives(alone)


# (n, chamber) -> (base torus circles, free circle weights) of every circle model
CIRCLE_SHAPES = {
    (2, "C_unique"): (2, 0),
    (3, "big"): (2, 0),
    (3, "small"): (2, 1),
    (4, "C_0"): (0, 0),
    **{(4, f"C_{r}"): (0, r) for r in range(1, 5)},
}


def arithmetic_values(D, n, chamber, w):
    """d(beta), d(gamma) of a circle model by GPolynomial arithmetic, zero
    values dropped: the construction iemb_model used before it wrote the
    packed terms down, kept as the oracle for their values and key order."""
    base, free = CIRCLE_SHAPES[(n, chamber)]
    table = D.table
    T = [GPolynomial.generator(table, name) for name in table.names[: base + free]]
    dbeta = GPolynomial.zero(table)
    dgamma = GPolynomial.zero(table)
    if base:
        t1, t2 = T[0], T[1]
        dbeta = t1 * t1 + t2 * t2 + t1 * t2
        dgamma = t1 * t1 * t2 + t1 * t2 * t2
    for j, (a, b) in enumerate(w or [(1, 1)] * free):
        t = T[base + j]
        dbeta = dbeta + (a * a + a * b + b * b) * (t * t)
        if a * a * b + a * b * b:
            dgamma = dgamma + (a * a * b + a * b * b) * (t * t * t)
    return {k: v for k, v in (("beta", dbeta), ("gamma", dgamma)) if not v.is_zero}


def seeded_weight_sets():
    """Per circle chamber: the default, pairs with n = 0 and with n < 0,
    and seeded pairs from [-4, 4]^2."""
    rng = random.Random(24)
    fixed = [(1, -1), (2, 0), (0, 3), (-1, -1), (3, -1), (-4, 2), (1, 0), (4, 4)]
    cases = []
    for (n, chamber), (_, free) in CIRCLE_SHAPES.items():
        cases.append((n, chamber, None))
        if not free:
            continue
        for i in range(len(fixed)):
            cases.append((n, chamber, [fixed[(i + j) % len(fixed)] for j in range(free)]))
        for _ in range(8):
            w = []
            while len(w) < free:
                pair = (rng.randint(-4, 4), rng.randint(-4, 4))
                if pair != (0, 0):
                    w.append(pair)
            cases.append((n, chamber, w))
    return cases


# circle models whose differential columns are counted, frames built ahead
COUNTED_MODELS = [
    (2, "C_unique", None),
    (3, "big", None),
    (3, "small", [(2, -1)]),
    (4, "C_0", None),
    (4, "C_1", [(1, -1)]),
    (4, "C_2", [(2, 0), (1, 2)]),
    (4, "C_3", [(0, 3), (-1, -2), (3, 1)]),
    (4, "C_4", [(1, 1), (2, -3), (-4, 1), (1, 0)]),
]


class TestPackedCircleValues:
    """Circle models write their values as packed terms, and their columns
    reduce only the images that leave the standard monomials."""

    def test_values_match_the_arithmetic_oracle(self):
        cases = seeded_weight_sets()
        assert {len(w) for _, _, w in cases if w} == {1, 2, 3, 4}
        for n, chamber, w in cases:
            D = iemb_model(n, chamber, w)
            want = arithmetic_values(D, n, chamber, w)
            assert list(D.values) == list(want)
            for name, value in want.items():
                assert list(D.values[name].terms.items()) == list(value.terms.items())
                assert {type(c) for c in D.values[name].terms.values()} == {Fraction}
            assert dga_to_json(D) == dga_to_json(DgaSpec(D.algebra, want, D.degree_cap))

    def test_counts(self, monkeypatch):
        counts = Counter()

        def counted(name, method):
            def run(*args):
                counts[name] += 1
                return method(*args)
            return run

        for n, chamber, w in COUNTED_MODELS:  # algebras and frames built ahead
            D = iemb_model(n, chamber, w)
            for q in range(D.degree_cap + 2):
                D.algebra.graded_basis(q)
        monkeypatch.setattr(GPolynomial, "__mul__", counted("mul", GPolynomial.__mul__))
        monkeypatch.setattr(SparseReducer, "residue", counted("residue", SparseReducer.residue))
        monkeypatch.setattr(SparseReducer, "_clear", staticmethod(counted("_clear", SparseReducer._clear)))
        entries = 0
        for n, chamber, w in COUNTED_MODELS:
            quot = _QuotientDifferential(iemb_model(n, chamber, w))
            assert counts["mul"] == 0
            entries += sum(1 for q in range(quot.D.degree_cap + 1) for col in quot.columns(q) for v in col if v)
        # the values once took 64 products here, and the columns 200
        # residues and 251 clears for the same 422 entries, then 115
        # residues; every frame of a wedge algebra is monomial, so each
        # column now restricts its image to the standard monomials
        assert counts == {}
        assert entries == 422

    def test_membership_and_leibniz_counts(self, monkeypatch):
        counts = Counter()
        contains, leibniz = groebner._Ideal.__contains__, dga._monomial_differential

        def counted_contains(ideal, mu):
            counts["contains"] += 1
            return contains(ideal, mu)

        def counted_leibniz(D, mono):
            counts["leibniz"] += 1
            return leibniz(D, mono)

        for n, chamber, w in COUNTED_MODELS:  # algebras and frames built ahead
            D = iemb_model(n, chamber, w)
            for q in range(D.degree_cap + 2):
                D.algebra.graded_basis(q)
        monkeypatch.setattr(groebner._Ideal, "__contains__", counted_contains)
        monkeypatch.setattr(dga, "_monomial_differential", counted_leibniz)
        columns = 0
        for n, chamber, w in COUNTED_MODELS:
            quot = _QuotientDifferential(iemb_model(n, chamber, w))
            columns += sum(len(quot.columns(q)) for q in range(quot.D.degree_cap + 1))
        # a residue once rescanned its row after every clear, and every
        # column took the Leibniz rule: 1,029 membership tests and 362 calls;
        # the 162 columns of closed monomials now take none; the 428
        # membership tests of the residues went with them to restriction
        assert columns == 362
        assert counts == {"leibniz": 200}


def branch_bstab(n, label):
    """The stabilizer ring of a circle chamber spelled out branch by branch:
    the construction bstab_presentation used before it took the wedge
    algebra, kept as its oracle."""
    if (n, label) in ((2, "C_unique"), (3, "big")):
        return PresentedAlgebra(GeneratorTable(("T1", "T2"), (2, 2)), ())
    if (n, label) == (3, "small"):
        table = GeneratorTable(("T1", "T2", "T3"), (2, 2, 2))
        t1, t2, t3 = (GPolynomial.generator(table, f"T{i}") for i in (1, 2, 3))
        return PresentedAlgebra(table, (t1 * t3, t2 * t3))
    if (n, label) == (4, "C_0"):
        return PresentedAlgebra(GeneratorTable((), ()), ())
    r = int(label[-1])
    names = [f"T{i}" for i in range(1, r + 1)]
    table = GeneratorTable(names, (2,) * r)
    T = [GPolynomial.generator(table, name) for name in names]
    return PresentedAlgebra(table, [T[i] * T[j] for i, j in combinations(range(r), 2)])


def branch_presentation(n, label, w=None):
    """The presentation of a circle chamber spelled out branch by branch:
    the construction iemb_presentation used before it read the chamber
    table and one rule, kept as its oracle."""
    mt = iemb_model(n, label, w).table
    weights = CircleWeights(w or [(1, 1)] * free_weight_count(n, label))
    if (n, label) in ((2, "C_unique"), (3, "big")):
        ptable = GeneratorTable(("T1", "T2"), (2, 2))
        t1 = GPolynomial.generator(ptable, "T1")
        t2 = GPolynomial.generator(ptable, "T2")
        pres = PresentedAlgebra(ptable, (t1 * t1 + t2 * t2 + t1 * t2, t1 * t1 * t1))
        return pres, {"T1": GPolynomial.generator(mt, "T1"), "T2": GPolynomial.generator(mt, "T2")}
    beta = GPolynomial.generator(mt, "beta")
    gamma = GPolynomial.generator(mt, "gamma")
    if (n, label) == (3, "small"):
        m3, n3 = weights.m[0], weights.n[0]
        ptable = GeneratorTable(("T1", "T2", "T3", "eta"), (2, 2, 2, 7))
        t1, t2, t3, eta = (GPolynomial.generator(ptable, g) for g in ptable.names)
        pres = PresentedAlgebra(
            ptable,
            (t1 * t1 + t2 * t2 + t1 * t2 + m3 * (t3 * t3), t1 * t3, t2 * t3,
             t1 * t1 * t1, eta * t1, eta * t2),
        )
        mt3 = GPolynomial.generator(mt, "T3")
        return pres, {
            "T1": GPolynomial.generator(mt, "T1"),
            "T2": GPolynomial.generator(mt, "T2"),
            "T3": mt3,
            "eta": m3 * (mt3 * gamma) - n3 * (mt3 * mt3 * beta),
        }
    if (n, label) == (4, "C_0"):
        return PresentedAlgebra(GeneratorTable(("beta", "eta"), (3, 5)), ()), {"beta": beta, "eta": gamma}
    r = int(label[-1])
    ms, ns = weights.m, weights.n
    names = tuple(f"T{i}" for i in range(1, r + 1))
    ptable = GeneratorTable(names + ("eta",), (2,) * r + (5,))
    T = [GPolynomial.generator(ptable, name) for name in names]
    quad = GPolynomial.zero(ptable)
    for m, t in zip(ms, T):
        quad = quad + m * (t * t)
    pres = PresentedAlgebra(ptable, [quad] + [T[i] * T[j] for i, j in combinations(range(r), 2)])
    total = 1
    for m in ms:
        total *= m
    eta_img = total * gamma
    for i in range(r):
        t = GPolynomial.generator(mt, f"T{i + 1}")
        eta_img = eta_img - ns[i] * (total // ms[i]) * (t * beta)
    gen_map = {name: GPolynomial.generator(mt, name) for name in names}
    gen_map["eta"] = eta_img
    return pres, gen_map


def terms(p):
    return [(key, c, type(c)) for key, c in p.terms.items()]


class TestPresentationRule:
    CASES = [(n, chamber, None) for n, chamber in CIRCLE_SHAPES] + [
        (3, "small", [(2, -1)]), (3, "small", [(3, 5)]),
        (4, "C_1", [(5, 2)]), (4, "C_2", [(1, 0), (2, 1)]),
        (4, "C_3", [(1, 0), (1, 1), (2, 1)]),
    ]

    @pytest.mark.parametrize("n, chamber, w", CASES)
    def test_presentations_match_the_branch_oracle(self, n, chamber, w):
        (got, got_map), (want, want_map) = iemb_presentation(n, chamber, w), branch_presentation(n, chamber, w)
        assert got.table == want.table
        assert [terms(r) for r in got.relations] == [terms(r) for r in want.relations]
        assert list(got_map) == list(want_map)
        assert [terms(g) for g in got_map.values()] == [terms(g) for g in want_map.values()]
        assert all(g.table == want_map[name].table for name, g in got_map.items())


class TestWedgeAlgebra:
    def test_stabilizer_rings_match_the_branch_oracle(self):
        for n, chamber in CIRCLE_SHAPES:
            got, want = bstab_presentation(n, chamber), branch_bstab(n, chamber)
            assert got.table == want.table
            assert [list(r.terms.items()) for r in got.relations] == [
                list(r.terms.items()) for r in want.relations
            ]
            assert all(type(c) is Fraction for r in got.relations for c in r.terms.values())
            assert bstab_presentation(n, chamber) is not got  # fresh per call

    def test_stabilizer_ring_is_the_model_algebra_without_the_fiber(self):
        for (n, chamber), (base, free) in CIRCLE_SHAPES.items():
            ring = bstab_presentation(n, chamber)
            model = iemb_model(n, chamber).algebra
            assert model.table.names == ring.table.names + ("beta", "gamma")
            assert [r.to_text() for r in ring.relations] == [r.to_text() for r in model.relations]
            assert len(ring.relations) == base * free + free * (free - 1) // 2


class TestAbIsomorphism:
    def test_source_ring_dimensions(self):
        ring = ab_presentation()
        assert len(ring.relations) == 7
        dims = [ring.quotient_dimension(q) for q in range(10)]
        assert dims == CONF3_DIMS

    def test_check_passes(self):
        report, _ = ab_isomorphism_check()
        assert isinstance(report, VerificationReport)
        assert bool(report) is True
        assert report.failures == ()
        # (degree, source dim, target dim) through the cap 12
        assert [q for q, _, _ in report.dims] == list(range(13))
        assert [dp for _, dp, _ in report.dims[:10]] == CONF3_DIMS
        assert all(dp == dt for _, dp, dt in report.dims)

    def test_quadratic_relation_image(self):
        _, texts = ab_isomorphism_check()
        target, _ = iemb_presentation(3, "small", [(1, 1)])
        images = dict(texts)
        key = "alpha1^2 + alpha1*alpha2 + alpha2^2"
        assert key in images
        got = P(target.table, images[key])
        want = P(
            target.table,
            "T1^2 + T2^2 + T1*T2 + 3*T3^2 + 3*T1*T3 + 3*T2*T3",
        )
        assert got == want
        assert target.ideal_member(got)

    def test_zeta_relation_image(self):
        _, texts = ab_isomorphism_check()
        target, _ = iemb_presentation(3, "small", [(1, 1)])
        images = dict(texts)
        key = "alpha1*zeta - alpha2*zeta"
        got = P(target.table, images[key])
        want = P(target.table, "T1*eta - T2*eta")
        assert got == want
        assert target.ideal_member(got)

    def test_all_seven_images_are_ideal_members(self):
        _, texts = ab_isomorphism_check()
        target, _ = iemb_presentation(3, "small", [(1, 1)])
        assert [rel for rel, _ in texts] == [r.to_text() for r in ab_presentation().relations]
        for _, image_text in texts:
            assert target.ideal_member(P(target.table, image_text))

    def test_wrong_image_fails_naming_the_relation(self):
        # alpha1 -> T1: alpha1^2 + alpha1*alpha2 + alpha2^2 goes to -2*T3^2
        # modulo the target ideal, and T3^2 is no member
        target, _ = iemb_presentation(3, "small", [(1, 1)])
        tt = target.table
        t1, t2, t3, eta = (GPolynomial.generator(tt, g) for g in tt.names)
        images = {"alpha1": t1, "alpha2": t2 + t3, "alpha3": -t1 - t2 + t3, "zeta": eta}
        report = verify_presentation(DgaSpec(target, {}, 12), ab_presentation(), images)
        assert not report
        assert report.failures == (
            "relation alpha1^2 + alpha1*alpha2 + alpha2^2 does not map into im(d) + ideal",
        )

    def test_zero_map_passes_verify_presentation(self):
        # verify_presentation has no injectivity test: the zero map sends
        # every relation to 0 and the dimensions agree, so it passes; the
        # degree-2 span rule is what rules such a map out
        target, _ = iemb_presentation(3, "small", [(1, 1)])
        source = ab_presentation()
        zero = {name: GPolynomial.zero(target.table) for name in source.table.names}
        assert verify_presentation(DgaSpec(target, {}, 12), source, zero)


def beyond_relations(algebra, top):
    """Leading monomials of the algebra's Groebner basis through degree top
    that no relation's leading monomial divides."""
    algebra.graded_basis(top)
    leads = [algebra.table._unpack(max(r.terms)) for r in algebra.relations]
    return [
        lm
        for lm in map(algebra.table._unpack, (lm for lm, _ in algebra._basis.elements))
        if not any(all(map(ge, lm, lead)) for lead in leads)
    ]


class TestGroebnerCompletion:
    """Which algebras the frames' Groebner completion extends."""

    @pytest.mark.parametrize(
        "n, chamber",
        [(2, "C_unique"), (3, "big"), (3, "small"), (4, "C_2"), (4, "C_3"), (4, "C_4")],
    )
    def test_presentations_gain_basis_elements(self, n, chamber):
        pres, _ = iemb_presentation(n, chamber)
        assert beyond_relations(pres, 8)

    def test_stabilizer_presentation_gains_basis_elements(self):
        assert beyond_relations(four_ball_stabilizer_presentation(), 8)
        assert beyond_relations(bstab_presentation(4, "C_5"), 8)

    def test_model_algebras_are_bases_already(self):
        algebras = [iemb_model(n, chamber).algebra for n, chamber in RANK_ROWS]
        algebras += [kriz_model(KrizParams(m, k)).algebra for m, k in ((2, 3), (2, 4), (3, 3))]
        algebras.append(relabeled_model(KrizParams(2, 4), (3, 1, 4, 2)).algebra)
        for algebra in algebras:
            assert beyond_relations(algebra, 10) == []

    def test_four_small_circles_ideal_outgrows_relation_multiples(self):
        pres, _ = iemb_presentation(4, "C_4")
        leads = [pres.table._unpack(max(r.terms)) for r in pres.relations]
        multiples = sum(
            any(all(map(ge, m, lead)) for lead in leads)
            for q in range(16)
            for m in reference_monomials(pres.table, q)
        )
        ideal = sum(pres.graded_basis(q).ideal_dimension for q in range(16))
        assert (ideal, multiples) == (440, 416)
