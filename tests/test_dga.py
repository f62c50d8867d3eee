"""Tests for differentials, cohomology ranks, and presentation verification.

Model fixtures: the full-flag model on two torus generators, one-circle and
zero-differential models, a two-circle wedge model, and a minimal two-point
configuration model.  Rank tables are pinned degreewise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata.gradedalg import (
    GeneratorTable,
    GPolynomial,
    InhomogeneousError,
    PresentedAlgebra,
    TableMismatchError,
)
from cpstrata.dga import (
    DgaSpec,
    DifferentialError,
    check_d_squared,
    check_ideal_stability,
    cohomology_ranks,
    differential,
    differential_matrix,
    substitute,
    verify_presentation,
)
from cpstrata.ballmodels import iemb_model
from cpstrata.kriz import KrizParams, kriz_model

FLAG_T = GeneratorTable(names=("T1", "T2", "beta", "gamma"), degrees=(2, 2, 3, 5))


def P(table, text):
    return GPolynomial.parse(table, text)


def flag_model(cap=10):
    return DgaSpec(
        PresentedAlgebra(FLAG_T, ()),
        {
            "beta": P(FLAG_T, "T1^2 + T2^2 + T1*T2"),
            "gamma": P(FLAG_T, "T1^2*T2 + T1*T2^2"),
        },
        degree_cap=cap,
    )


def two_point_model():
    # two planar points: nilpotent even generators, one odd connecting class
    table = GeneratorTable(
        names=("x1", "x2", "G12"), degrees=(2, 2, 3), nilpotence=(3, 3, None)
    )
    rels = (
        P(table, "x1*G12 - x2*G12"),
        P(table, "x1^2*G12 - x2^2*G12"),
    )
    return DgaSpec(
        PresentedAlgebra(table, rels),
        {"G12": P(table, "x1^2 + x1*x2 + x2^2")},
        degree_cap=10,
    )


# name -> (model builder, degree cap, rank list, nonempty representatives)
FROZEN_REPORTS = {
    "kriz(2,3)": (
        lambda: kriz_model(KrizParams(2, 3)),
        10,
        [1, 0, 3, 0, 3, 0, 1, 1, 0, 1, 0],
        {
            0: ["1"],
            2: ["x3", "x2", "x1"],
            4: ["x3^2", "x2*x3", "x1*x3"],
            6: ["x2*x3^2"],
            7: [
                "x1*x3*G23 - x2*x3*G12 + x2*x3*G13 - 2*x3^2*G12 "
                "+ 2*x3^2*G13 + 2*x3^2*G23"
            ],
            9: ["x1*x3^2*G23 - x2*x3^2*G12 + x2*x3^2*G13"],
        },
    ),
    "iemb(4,C_4)": (
        lambda: iemb_model(4, "C_4"),
        12,
        [1, 0, 4, 0, 3, 1, 0, 4, 0, 3, 0, 0, 0],
        {
            0: ["1"],
            2: ["T4", "T3", "T2", "T1"],
            4: ["T4^2", "T3^2", "T2^2"],
            5: ["T1*beta + T2*beta + T3*beta + T4*beta - 3/2*gamma"],
            7: [
                "T4^2*beta - 3/2*T4*gamma",
                "T3^2*beta - 3/2*T3*gamma",
                "T2^2*beta - 3/2*T2*gamma",
                "T1^2*beta - 3/2*T1*gamma",
            ],
            9: [
                "T4^3*beta - 3/2*T4^2*gamma",
                "T3^3*beta - 3/2*T3^2*gamma",
                "T2^3*beta - 3/2*T2^2*gamma",
            ],
        },
    ),
    "iemb(3,small,(2,3))": (
        lambda: iemb_model(3, "small", [(2, 3)]),
        12,
        [1, 0, 3, 0, 3, 0, 1, 1, 0, 1, 0, 0, 0],
        {
            0: ["1"],
            2: ["T3", "T2", "T1"],
            4: ["T3^2", "T2^2", "T1*T2"],
            6: ["T1*T2^2"],
            7: ["T3^2*beta - 19/30*T3*gamma"],
            9: ["T3^3*beta - 19/30*T3^2*gamma"],
        },
    ),
}


class TestConstruction:
    def test_inhomogeneous_value_rejected(self):
        with pytest.raises(InhomogeneousError):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {"beta": P(FLAG_T, "T1^2 + T2")})

    def test_wrong_degree_rejected(self):
        with pytest.raises(DifferentialError):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {"beta": P(FLAG_T, "T1")})

    def test_foreign_table_rejected(self):
        other = GeneratorTable(names=("S",), degrees=(4,))
        with pytest.raises(TableMismatchError):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {"beta": P(other, "S")})

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {"delta": P(FLAG_T, "T1^2")})

    def test_missing_generators_are_closed(self):
        D = flag_model()
        assert D.generator_value("T1").is_zero
        assert not D.generator_value("beta").is_zero


class TestDifferential:
    def test_product_of_odd_generators(self):
        D = flag_model()
        expected = P(
            FLAG_T,
            "T1^2*gamma + T2^2*gamma + T1*T2*gamma"
            " - T1^2*T2*beta - T1*T2^2*beta",
        )
        assert differential(D, P(FLAG_T, "beta*gamma")) == expected

    def test_even_times_odd(self):
        D = flag_model()
        assert differential(D, P(FLAG_T, "T1*beta")) == P(
            FLAG_T, "T1^3 + T1^2*T2 + T1*T2^2"
        )

    def test_closed_even_products_die(self):
        D = flag_model()
        assert differential(D, P(FLAG_T, "T1^3*T2^2")).is_zero

    def test_linearity(self):
        D = flag_model()
        p = P(FLAG_T, "T1*beta")
        q = P(FLAG_T, "beta*gamma")
        lhs = differential(D, 3 * p - Fraction(1, 2) * q)
        rhs = 3 * differential(D, p) - Fraction(1, 2) * differential(D, q)
        assert lhs == rhs

    @given(
        st.lists(st.sampled_from(FLAG_T.names), min_size=0, max_size=3),
        st.lists(st.sampled_from(FLAG_T.names), min_size=0, max_size=3),
    )
    @settings(max_examples=150)
    def test_leibniz_rule(self, w1, w2):
        D = flag_model()
        p = GPolynomial.from_word(FLAG_T, w1)
        q = GPolynomial.from_word(FLAG_T, w2)
        if p.is_zero or q.is_zero:
            return
        sign = -1 if p.degree() % 2 else 1
        lhs = differential(D, p * q)
        rhs = differential(D, p) * q + sign * (p * differential(D, q))
        assert lhs == rhs

    def test_leibniz_in_quotient_model(self):
        D = two_point_model()
        table = D.table
        p = P(table, "x1*G12")
        q = P(table, "x2")
        lhs = differential(D, p * q)
        rhs = differential(D, p) * q - p * differential(D, q)
        assert D.algebra.ideal_member(lhs - rhs)


class TestChecks:
    def test_flag_model_passes(self):
        D = flag_model()
        assert check_d_squared(D)
        assert check_ideal_stability(D)

    def test_two_point_model_passes(self):
        D = two_point_model()
        assert check_d_squared(D)
        assert check_ideal_stability(D)
        # the connecting relation maps to x1^3 - x2^3 = 0 under nilpotence
        r = P(D.table, "x1*G12 - x2*G12")
        assert differential(D, r).is_zero

    def test_d_squared_failure_names_generator(self):
        table = GeneratorTable(names=("T", "u", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"u": P(table, "beta"), "beta": P(table, "T^2")},
        )
        result = check_d_squared(D)
        assert not result
        assert result.offender == "u"

    def test_stability_failure_names_relation(self):
        D = DgaSpec(
            PresentedAlgebra(FLAG_T, (P(FLAG_T, "T1*beta"),)),
            {"beta": P(FLAG_T, "T1^2 + T2^2 + T1*T2")},
        )
        result = check_ideal_stability(D)
        assert not result
        assert "T1*beta" in result.offender

    def test_cohomology_refuses_broken_model(self):
        table = GeneratorTable(names=("T", "u", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"u": P(table, "beta"), "beta": P(table, "T^2")},
        )
        with pytest.raises(DifferentialError):
            cohomology_ranks(D)


class TestCohomologyRanks:
    def test_flag_rank_table(self):
        rep = cohomology_ranks(flag_model())
        assert rep.rank_list() == [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0]
        assert rep.euler_characteristic() == 6
        assert rep.check_top_vanishing()

    def test_one_circle_model(self):
        table = GeneratorTable(names=("T", "beta", "gamma"), degrees=(2, 3, 5))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"beta": P(table, "3*T^2"), "gamma": P(table, "2*T^3")},
            degree_cap=12,
        )
        rep = cohomology_ranks(D)
        assert rep.rank_list() == [1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0]

    def test_zero_differential_on_free_odd_pair(self):
        table = GeneratorTable(names=("beta", "gamma"), degrees=(3, 5))
        D = DgaSpec(PresentedAlgebra(table, ()), {}, degree_cap=10)
        rep = cohomology_ranks(D)
        assert rep.rank_list() == [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0]
        assert rep.euler_characteristic() == 0

    def test_zero_differential_equals_quotient_dimensions(self):
        table = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))
        A = PresentedAlgebra(
            table, (P(table, "T1^2 + T2^2 + T1*T2"), P(table, "T1^2*T2 + T1*T2^2"))
        )
        D = DgaSpec(A, {}, degree_cap=8)
        rep = cohomology_ranks(D)
        assert rep.rank_list() == [A.quotient_dimension(q) for q in range(9)]

    def test_representatives_are_normalized_cocycles(self):
        D = flag_model()
        rep = cohomology_ranks(D)
        for q, reps in rep.representatives.items():
            assert len(reps) == rep.ranks[q]
            for p in reps:
                image = differential(D, p)
                assert image.is_zero or D.algebra.ideal_member(image)
                assert p.terms[max(p.terms)] == 1

    def test_two_point_model_ranks(self):
        rep = cohomology_ranks(two_point_model())
        assert rep.rank_list(8) == [1, 0, 2, 0, 2, 0, 1, 0, 0]

    def test_relabeling_invariance(self):
        # swap the two torus generators everywhere; ranks cannot change
        swapped = GeneratorTable(
            names=("T2", "T1", "beta", "gamma"), degrees=(2, 2, 3, 5)
        )
        D = DgaSpec(
            PresentedAlgebra(swapped, ()),
            {
                "beta": P(swapped, "T2^2 + T1^2 + T2*T1"),
                "gamma": P(swapped, "T2^2*T1 + T2*T1^2"),
            },
            degree_cap=10,
        )
        assert cohomology_ranks(D).rank_list() == cohomology_ranks(
            flag_model()
        ).rank_list()

    def test_cap_recorded_and_truncation_flagged(self):
        table = GeneratorTable(names=("T",), degrees=(2,))
        D = DgaSpec(PresentedAlgebra(table, ()), {}, degree_cap=6)
        rep = cohomology_ranks(D)
        assert rep.degree_cap == 6
        # the polynomial ring keeps classes at the cap: truncation is flagged
        flagged = rep.check_top_vanishing()
        assert not flagged
        assert flagged.offender == "6"

    def test_report_json_shape(self):
        rep = cohomology_ranks(flag_model())
        data = rep.to_json_dict()
        assert data["degree_cap"] == 10
        assert data["d_squared_ok"] is True
        assert data["ranks"]["4"] == 2
        assert isinstance(data["representatives"]["2"], list)

    @pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
    def test_report_frozen(self, name):
        # the whole payload, representative text included, is what
        # `cpstrata model cohomology --json` prints
        build, cap, ranks, reps = FROZEN_REPORTS[name]
        assert cohomology_ranks(build()).to_json_dict() == {
            "degree_cap": cap,
            "d_squared_ok": True,
            "ideal_stable_ok": True,
            "ranks": {str(q): r for q, r in enumerate(ranks)},
            "representatives": {str(q): reps.get(q, []) for q in range(cap + 1)},
        }


class TestDifferentialMatrix:
    def test_flag_degree_three(self):
        rows, domain, codomain = differential_matrix(flag_model(), 3)
        assert domain == ["beta"]
        assert len(rows) == len(codomain) == 3
        column = [r[0] for r in rows]
        assert sorted(column) == [1, 1, 1]

    def test_shapes_are_consistent(self):
        D = flag_model()
        for q in range(6):
            rows, domain, codomain = differential_matrix(D, q)
            assert len(rows) == len(codomain)
            assert all(len(r) == len(domain) for r in rows)


class TestSubstitute:
    def test_identity_substitution(self):
        p = P(FLAG_T, "T1^2*T2 - 3*beta*gamma")
        idmap = {n: GPolynomial.generator(FLAG_T, n) for n in FLAG_T.names}
        assert substitute(p, idmap, FLAG_T) == p

    def test_expansion_lands_in_target(self):
        src = GeneratorTable(names=("a",), degrees=(2,))
        img = P(FLAG_T, "T1 + T2")
        out = substitute(P(src, "a^2"), {"a": img}, FLAG_T)
        assert out == P(FLAG_T, "T1^2 + 2*T1*T2 + T2^2")

    def test_missing_image_raises(self):
        src = GeneratorTable(names=("a", "b"), degrees=(2, 2))
        with pytest.raises(ValueError):
            substitute(P(src, "a*b"), {"a": P(FLAG_T, "T1")}, FLAG_T)


class TestVerifyPresentation:
    def test_flag_ring_passes(self):
        table = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))
        pres = PresentedAlgebra(
            table, (P(table, "T1^2 + T2^2 + T1*T2"), P(table, "T1^3"))
        )
        gmap = {"T1": P(FLAG_T, "T1"), "T2": P(FLAG_T, "T2")}
        assert verify_presentation(flag_model(), pres, gmap)

    def test_two_circle_wedge_with_odd_generator(self):
        model_t = GeneratorTable(
            names=("T1", "T2", "beta", "gamma"), degrees=(2, 2, 3, 5)
        )
        D = DgaSpec(
            PresentedAlgebra(model_t, (P(model_t, "T1*T2"),)),
            {
                "beta": P(model_t, "3*T1^2 + 3*T2^2"),
                "gamma": P(model_t, "2*T1^3 + 2*T2^3"),
            },
            degree_cap=10,
        )
        pres_t = GeneratorTable(names=("T1", "T2", "eta"), degrees=(2, 2, 5))
        pres = PresentedAlgebra(
            pres_t, (P(pres_t, "3*T1^2 + 3*T2^2"), P(pres_t, "T1*T2"))
        )
        gmap = {
            "T1": P(model_t, "T1"),
            "T2": P(model_t, "T2"),
            "eta": P(model_t, "9*gamma - 6*T1*beta - 6*T2*beta"),
        }
        assert verify_presentation(D, pres, gmap)

    def test_wrong_presentation_fails(self):
        table = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))
        pres = PresentedAlgebra(table, (P(table, "T1^2"), P(table, "T2^3")))
        gmap = {"T1": P(FLAG_T, "T1"), "T2": P(FLAG_T, "T2")}
        report = verify_presentation(flag_model(), pres, gmap)
        assert not report
        assert "T1^2" in report.first_failure

    def test_degree_mismatch_reported(self):
        table = GeneratorTable(names=("S",), degrees=(4,))
        pres = PresentedAlgebra(table, ())
        report = verify_presentation(flag_model(), pres, {"S": P(FLAG_T, "T1")})
        assert not report
        assert "degree" in report.first_failure

    def test_non_cocycle_image_reported(self):
        table = GeneratorTable(names=("S",), degrees=(3,))
        pres = PresentedAlgebra(table, ())
        report = verify_presentation(flag_model(), pres, {"S": P(FLAG_T, "beta")})
        assert not report
        assert "cocycle" in report.first_failure

    def test_dimension_mismatch_reported(self):
        # free polynomial generator never matches the finite flag cohomology
        table = GeneratorTable(names=("T1",), degrees=(2,))
        pres = PresentedAlgebra(table, ())
        report = verify_presentation(flag_model(), pres, {"T1": P(FLAG_T, "T1")})
        assert not report
        assert "dim" in report.first_failure
