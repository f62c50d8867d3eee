"""Tests for differentials, cohomology ranks, and presentation verification.

Model fixtures: the full-flag model on two torus generators, one-circle and
zero-differential models, a two-circle wedge model, and a minimal two-point
configuration model.  Rank tables are pinned degreewise.
"""

import dataclasses
import gc
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata.gradedalg import (
    GeneratorTable,
    GPolynomial,
    InhomogeneousError,
    PresentedAlgebra,
    SparseReducer,
    TableMismatchError,
    integer_row,
)
from cpstrata import cli, dga, verify
from cpstrata.dga import (
    CohomologyReport,
    DgaSpec,
    DifferentialError,
    _QuotientDifferential,
    _d_residue,
    _eliminate,
    check_d_squared,
    check_ideal_stability,
    cohomology_ranks,
    cohomology_representatives,
    complete_through_cap,
    differential,
    substitute,
    verify_presentation,
)
from cpstrata.ballmodels import iemb_model, iemb_presentation
from cpstrata.kriz import KrizParams, kriz_model
from polytext import P, from_exponents
from test_monomial_kernel import SEEDS, random_dga, reference_monomials

FLAG_T = GeneratorTable(names=("T1", "T2", "beta", "gamma"), degrees=(2, 2, 3, 5))


def flag_model(cap=10):
    return DgaSpec(
        PresentedAlgebra(FLAG_T, ()),
        {
            "beta": P(FLAG_T, "T1^2 + T2^2 + T1*T2"),
            "gamma": P(FLAG_T, "T1^2*T2 + T1*T2^2"),
        },
        degree_cap=cap,
    )


def two_circle_wedge_model():
    table = GeneratorTable(names=("T1", "T2", "beta", "gamma"), degrees=(2, 2, 3, 5))
    return DgaSpec(
        PresentedAlgebra(table, (P(table, "T1*T2"),)),
        {
            "beta": P(table, "3*T1^2 + 3*T2^2"),
            "gamma": P(table, "2*T1^3 + 2*T2^3"),
        },
        degree_cap=10,
    )


def monomial_then_binomial_model():
    # T1*T2 in degree 4 and T1^3 - T2^3 in degree 6, the T_i closed: the
    # frames below degree 6 are monomial, those from 6 on are not
    table = GeneratorTable(names=("T1", "T2", "beta", "gamma"), degrees=(2, 2, 3, 5))
    return DgaSpec(
        PresentedAlgebra(table, (P(table, "T1*T2"), P(table, "T1^3 - T2^3"))),
        {"beta": P(table, "T1^2 + 2*T2^2"), "gamma": P(table, "T2^3")},
        degree_cap=10,
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
        assert "T1" not in D.values
        assert not D.values["beta"].is_zero

    # the messages as printed before the degrees were taken in one pass
    @pytest.mark.parametrize(
        "values, error, message",
        [
            ({"beta": "T1^2 + T2"}, InhomogeneousError, "d(beta) = T1^2 + T2 is not homogeneous"),
            ({"gamma": "T1*beta"}, DifferentialError, "d(gamma) has degree 5, expected 6"),
            ({"beta": "T1^2*T2 + T1*T2^2"}, DifferentialError, "d(beta) has degree 6, expected 4"),
        ],
    )
    def test_value_error_messages(self, values, error, message):
        with pytest.raises(error) as info:
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {k: P(FLAG_T, v) for k, v in values.items()})
        assert str(info.value) == message

    def test_foreign_table_message(self):
        other = GeneratorTable(names=("S",), degrees=(4,))
        with pytest.raises(TableMismatchError) as info:
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {"beta": P(other, "S")})
        assert str(info.value) == "d(beta) lives over a different generator table"

    @pytest.mark.parametrize("cap", [7.9, 7.0, True, "7", Fraction(7)])
    def test_non_int_cap_rejected(self, cap):
        with pytest.raises(TypeError, match="degree_cap"):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {}, cap)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="degree_cap -3 is negative"):
            DgaSpec(PresentedAlgebra(FLAG_T, ()), {}, -3)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_small_caps_stay_legal(self, cap):
        D = flag_model(cap)
        assert D.degree_cap == cap
        assert cohomology_ranks(D).rank_list() == [1, 0][: cap + 1]


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
        check_d_squared(D)
        check_ideal_stability(D)

    def test_two_point_model_passes(self):
        D = two_point_model()
        check_d_squared(D)
        check_ideal_stability(D)
        # the connecting relation maps to x1^3 - x2^3 = 0 under nilpotence
        r = P(D.table, "x1*G12 - x2*G12")
        assert differential(D, r).is_zero

    def test_d_squared_failure_names_generator(self):
        table = GeneratorTable(names=("T", "u", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"u": P(table, "beta"), "beta": P(table, "T^2")},
        )
        message = "d^2 fails on generator u: d(d(u)) = T^2 is not in the ideal"
        with pytest.raises(DifferentialError, match=f"^{re.escape(message)}$"):
            check_d_squared(D)

    def test_d_squared_message_differentiates_the_value(self):
        # g2 has bound 1, so the generator is 0 in the algebra, but d(g2) is not
        _, D = random_dga(2)
        assert D.table.nilpotence[D.table.index("g2")] == 1
        message = (
            "d^2 fails on generator g2: d(d(g2)) = -2/9*g0*g1*g4 - 1/9*g0*g3*g4 "
            "- 1/3*g1^2*g4 + 1/3*g1*g3*g4 is not in the ideal"
        )
        with pytest.raises(DifferentialError, match=f"^{re.escape(message)}$"):
            cohomology_ranks(D)

    @pytest.mark.parametrize(
        "names, degrees, bounds, relations, values, cap, failing",
        [
            # z^2 = 0, but d(z^2) = 2 z w is not: d is not well defined
            (("z", "w"), (2, 3), (2, None), (), {"z": "w"}, 8, "z^2"),
            # z w = 0 makes it so
            (("z", "w"), (2, 3), (2, None), ("z*w",), {"z": "w"}, 8, None),
            # z^2 = 0 lives in degree 4, above this cap
            (("z", "w"), (2, 3), (2, None), (), {"z": "w"}, 3, None),
            # x = 0, but d(x) = y is not
            (("x", "y"), (2, 3), (1, None), (), {"x": "y"}, 2, "x^1"),
            # an odd u squares to zero whatever d(u) is
            (("u", "T"), (1, 2), (2, None), (), {"u": "T"}, 8, None),
        ],
    )
    def test_stability_checks_nilpotence_bounds(self, names, degrees, bounds, relations, values, cap, failing):
        table = GeneratorTable(names, degrees, bounds)
        D = DgaSpec(
            PresentedAlgebra(table, tuple(P(table, r) for r in relations)),
            {name: P(table, v) for name, v in values.items()},
            degree_cap=cap,
        )
        if failing is None:
            check_ideal_stability(D)
            return
        message = f"ideal not d-stable at the nilpotence bound {failing} = 0"
        with pytest.raises(DifferentialError, match=f"^{re.escape(message)}$"):
            cohomology_ranks(D)

    def test_stability_failure_names_relation(self):
        D = DgaSpec(
            PresentedAlgebra(FLAG_T, (P(FLAG_T, "T1*beta"),)),
            {"beta": P(FLAG_T, "T1^2 + T2^2 + T1*T2")},
        )
        with pytest.raises(DifferentialError, match=r"^ideal not d-stable at relation T1\*beta$"):
            check_ideal_stability(D)

    def test_cohomology_refuses_broken_model(self):
        table = GeneratorTable(names=("T", "u", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"u": P(table, "beta"), "beta": P(table, "T^2")},
        )
        with pytest.raises(DifferentialError, match=r"^d\^2 fails on generator u: "):
            cohomology_ranks(D)

    def test_d_squared_skips_generators_above_the_cap(self):
        table = GeneratorTable(names=("T", "u", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, ()),
            {"u": P(table, "beta"), "beta": P(table, "T^2")},
            degree_cap=1,
        )
        check_d_squared(D)

    def test_stability_skips_relations_above_the_cap(self):
        D = DgaSpec(
            PresentedAlgebra(FLAG_T, (P(FLAG_T, "T1*beta"),)),
            {"beta": P(FLAG_T, "T1^2 + T2^2 + T1*T2")},
            degree_cap=4,
        )
        check_ideal_stability(D)
        with pytest.raises(DifferentialError, match="T1\\*beta"):
            check_ideal_stability(DgaSpec(D.algebra, D.values, degree_cap=5))


def reference_residue(D, p):
    """d(p) modulo the ideal by the polynomial path: the normal form of
    differential(D, p) in its frame, as exact fractions by monomial."""
    dp = differential(D, p)
    if dp.is_zero:
        return {}
    frame = D.algebra.graded_basis(dp.degree())
    m, row = integer_row(dp.terms)
    den, r = frame.reducer.residue(row)
    return {D.table._unpack(k): Fraction(c, den * m) for k, c in r.items()}


def one_path_residue(D, p):
    """The same normal form by _d_residue, from the integer terms k * p."""
    k, terms = integer_row(p.terms)
    den, r = _d_residue(D, terms.items())
    return {D.table._unpack(i): Fraction(c, den * k * D.scale) for i, c in r.items()}


# the models of the structural acceptance criterion, kriz for m <= 3 and
# k <= 4, and the fixtures above
ONE_PATH_MODELS = {
    "iemb(1,unique)": lambda: iemb_model(1, "unique"),
    "iemb(2,unique)": lambda: iemb_model(2, "unique"),
    "iemb(3,big)": lambda: iemb_model(3, "big"),
    "iemb(3,small)": lambda: iemb_model(3, "small"),
    "iemb(3,small,(2,-1))": lambda: iemb_model(3, "small", [(2, -1)]),
    **{f"iemb(4,C_{r})": (lambda r=r: iemb_model(4, f"C_{r}")) for r in range(6)},
    **{
        f"kriz({m},{k})": (lambda m=m, k=k: kriz_model(KrizParams(m, k)))
        for m in (1, 2, 3)
        for k in (1, 2, 3, 4)
    },
    "flag": flag_model,
    "monomial then binomial": monomial_then_binomial_model,
    "two-circle wedge": two_circle_wedge_model,
    "two-point": two_point_model,
}


class TestOnePath:
    """_d_residue against differential() followed by the frame's own row."""

    @pytest.mark.parametrize("name", sorted(ONE_PATH_MODELS))
    def test_checks_agree_with_polynomial_reference(self, name):
        D = ONE_PATH_MODELS[name]()
        table = D.table
        # what the d^2 and stability checks reduce: d(g) per generator and
        # the relations, up to the cap; both paths must find every d(f) in I
        checked = [
            differential(D, GPolynomial.generator(table, g))
            for g, deg in zip(table.names, table.degrees)
            if deg <= D.degree_cap
        ]
        checked += [r for r in D.algebra.relations if r.degree() <= D.degree_cap]
        for p in checked:
            assert one_path_residue(D, p) == reference_residue(D, p) == {}, p.to_text()
        check_d_squared(D)
        check_ideal_stability(D)
        # random polynomials, whose images mostly leave the ideal
        rng = random.Random(name)
        for q in range(1, min(D.degree_cap, 8)):
            monos = reference_monomials(table, q)
            picks = rng.sample(monos, min(3, len(monos)))
            p = from_exponents(
                table, [(m, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))) for m in picks]
            )
            assert one_path_residue(D, p) == reference_residue(D, p), p.to_text()

    @pytest.mark.parametrize(
        "build,flags",
        [
            (monomial_then_binomial_model, [True] * 6 + [False] * 6),
            (lambda: kriz_model(KrizParams(2, 3)), [True] * 5 + [False] * 7),
            (lambda: iemb_model(4, "C_4"), [True] * 14),
        ],
        ids=["monomial then binomial", "kriz(2,3)", "iemb(4,C_4)"],
    )
    def test_monomial_frames_restrict_and_the_others_reduce(self, build, flags, monkeypatch):
        # a frame is flagged while every basis element up to its degree is
        # one term; with every frame built ahead, the solve reduces only in
        # the frames that are not
        D = build()
        assert [D.algebra.graded_basis(q).reducer.rows.monomial for q in range(D.degree_cap + 2)] == flags
        reduced = []
        residue = SparseReducer.residue

        def counted(reducer, row):
            reduced.append(reducer.rows.monomial)
            return residue(reducer, row)

        monkeypatch.setattr(SparseReducer, "residue", counted)
        cohomology_ranks(D)
        assert True not in reduced
        assert bool(reduced) == (False in flags)

    def test_random_images_reach_nonzero_residues(self):
        D = flag_model()
        p = P(FLAG_T, "T1*beta - 1/2*T2*beta")
        assert one_path_residue(D, p) == reference_residue(D, p) != {}

    def test_zero_images_build_no_frame(self):
        # d(d(g)) and d(r) are zero polynomials here, and the flag model has
        # no relations: the checks look up no frame at all
        for D in (flag_model(), two_point_model()):
            check_d_squared(D)
            if not D.algebra.relations:
                check_ideal_stability(D)
            assert not D.algebra._frames


class TestCompleteThroughCap:
    def test_polynomial_generators_are_never_complete(self):
        # H of the flag model stops in degree 6, but the window test reads
        # the quotient algebra, here a polynomial ring in T1, T2
        D = flag_model()
        assert cohomology_ranks(D).ranks[9] == 0
        assert not complete_through_cap(D)

    def test_exterior_algebra_ends_at_its_top_degree(self):
        table = GeneratorTable(names=("beta", "gamma"), degrees=(3, 5))
        for cap, complete in ((7, False), (8, True), (12, True)):
            assert complete_through_cap(DgaSpec(PresentedAlgebra(table, ()), {}, cap)) is complete

    def test_no_generators(self):
        table = GeneratorTable((), ())
        assert complete_through_cap(DgaSpec(PresentedAlgebra(table, ()), {}, degree_cap=2))


class TestCohomologyRanks:
    def test_flag_rank_table(self):
        rep = cohomology_ranks(flag_model())
        assert rep.rank_list() == [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0]
        assert rep.euler_characteristic() == 6
        # the flag manifold's classes stop at degree 6, well below the cap
        assert rep.ranks[9] == rep.ranks[10] == 0

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
        rep, representatives = cohomology_representatives(D)
        for q, reps in representatives.items():
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
        # the polynomial ring keeps classes at the cap: the truncation shows
        # as a nonzero rank in the top degree
        assert rep.ranks[6] == 1

    @pytest.mark.parametrize("upto", [-1, 11, 14])
    def test_rank_list_refuses_degrees_outside_the_cap(self, upto):
        # degrees above the cap were never computed: no zeros stand in for them
        rep = cohomology_ranks(flag_model())
        with pytest.raises(ValueError, match=f"^degree {upto} is outside the ranks computed, 0..10$"):
            rep.rank_list(upto)
        assert rep.rank_list(0) == [1]
        assert rep.rank_list(10) == rep.rank_list()

    def test_report_json_shape(self):
        rep, representatives = cohomology_representatives(flag_model())
        data = rep.to_json_dict(representatives)
        assert data["degree_cap"] == 10
        assert data["d_squared_ok"] is True
        assert data["ranks"]["4"] == 2
        assert isinstance(data["representatives"]["2"], list)
        assert list(data) == ["degree_cap", "d_squared_ok", "ideal_stable_ok", "ranks", "representatives"]

    @pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
    def test_report_frozen(self, name):
        # the whole payload, representative text included, is what
        # `cpstrata model cohomology --json` prints
        build, cap, ranks, reps = FROZEN_REPORTS[name]
        report, representatives = cohomology_representatives(build())
        assert report.to_json_dict(representatives) == {
            "degree_cap": cap,
            "d_squared_ok": True,
            "ideal_stable_ok": True,
            "ranks": {str(q): r for q, r in enumerate(ranks)},
            "representatives": {str(q): reps.get(q, []) for q in range(cap + 1)},
        }
        # the ranks-only report is the same report
        assert cohomology_ranks(build()) == report


class TestDifferentialMatrix:
    """The columns of d_q: sparse (packed target monomial, coefficient) pairs."""

    def test_flag_degree_three(self):
        D = flag_model()
        (beta,) = D.algebra.graded_basis(3).monomials
        assert FLAG_T._unpack(beta) == (0, 0, 1, 0)
        (column,) = _QuotientDifferential(D).columns(3)
        assert dict(column) == P(FLAG_T, "T1^2 + T2^2 + T1*T2").terms

    def test_shapes_are_consistent(self):
        D = flag_model()
        quot = _QuotientDifferential(D)
        for q in range(6):
            cols = quot.columns(q)
            assert len(cols) == D.algebra.quotient_dimension(q)
            standard = set(D.algebra.graded_basis(q + 1).monomials)
            assert all(k in standard and c for col in cols for k, c in col)


def tagged_boundary(quot, q, order=1):
    """Oracle for the image of d_q: the tagged pass over the columns of d_q,
    whose rows that keep a target pivot, tags stripped, span im(d_q), each
    inserted again.  order=-1 inserts the columns last to first, which
    stores other rows."""
    top, tagged, image = quot._top, SparseReducer(), SparseReducer()
    monos = quot.D.algebra.graded_basis(q).monomials
    for mono, col, scale in list(zip(monos, quot.columns(q), quot._scales[q]))[::order]:
        tagged.insert({top + i: v for i, v in col} | {mono: scale})
    for pivot, row in tagged.rows.items():
        if pivot >= top:
            image.insert({i - top: v for i, v in row.items() if i >= top})
    return image


ORACLE_MODELS = {f"random_dga({seed})": lambda seed=seed: random_dga(seed)[1] for seed in SEEDS}
ORACLE_MODELS |= {name: build for name, (build, *_) in FROZEN_REPORTS.items()}


@pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_untagged_boundaries_match_the_tagged_oracle(name, order):
    # a row space has one pivot set and one coset member off it per vector,
    # whichever echelon rows hold it; d^2 need not vanish on a random model.
    # Each elimination drops its columns, so each takes a fresh complex.
    D = ORACLE_MODELS[name]()
    quot = _QuotientDifferential(D)
    for q in range(1, D.degree_cap + 1):
        oracle = tagged_boundary(quot, q - 1, order)
        untagged, _ = _eliminate(_QuotientDifferential(D), q - 1, tagged=False)
        adopted, _ = _eliminate(_QuotientDifferential(D), q - 1, tagged=True)
        _, kernel = _eliminate(_QuotientDifferential(D), q, tagged=True)
        assert set(untagged.rows) == set(adopted.rows) == set(oracle.rows)
        assert untagged.rank == adopted.rank == oracle.rank
        for v in kernel:
            residues = [
                {m: Fraction(c, den) for m, c in r.items()}
                for den, r in (red.residue(v) for red in (untagged, adopted, oracle))
            ]
            assert residues[0] == residues[1] == residues[2]


@pytest.fixture
def passes(monkeypatch):
    """Record, while a test runs: the eliminations per (degree, tagged),
    the largest key of every row inserted into any reducer, and every
    _QuotientDifferential built."""
    eliminations, keys, quots = Counter(), [], []
    eliminate, insert, init = dga._eliminate, SparseReducer.insert, _QuotientDifferential.__init__

    def counted_eliminate(quot, q, tagged):
        eliminations[q, tagged] += 1
        return eliminate(quot, q, tagged)

    def recorded_insert(self, row):
        keys.append(max(row, default=0))
        return insert(self, row)

    def recorded_init(self, D):
        init(self, D)
        quots.append(self)

    monkeypatch.setattr(dga, "_eliminate", counted_eliminate)
    monkeypatch.setattr(SparseReducer, "insert", recorded_insert)
    monkeypatch.setattr(_QuotientDifferential, "__init__", recorded_init)
    return eliminations, keys, quots


def tagged_keys(keys, quots):
    """The recorded keys at or above _top, which only a tagged row holds;
    every complex recorded must share one table, so one _top."""
    assert quots and len({q._top for q in quots}) == 1
    return [k for k in keys if k >= quots[0]._top]


def presentation_check():
    # the presentation's frames, over another table, are built ahead
    D = iemb_model(4, "C_4")
    pres, gen_map = iemb_presentation(4, "C_4")
    for q in range(D.degree_cap + 1):
        pres.graded_basis(q)
    return lambda: verify_presentation(D, pres, gen_map).ok


# name -> set-up returning the ranks-only call, which returns a true value
RANKS_ONLY = {
    "cohomology_ranks": lambda: lambda: cohomology_ranks(kriz_model(KrizParams(2, 3))).ranks,
    "verify_presentation": presentation_check,
    "Recorder.same_ranks": lambda: lambda: verify.Recorder().same_ranks(
        iemb_model(4, "C_2", w) for w in [[(1, 2), (3, -1)], [(2, 1), (1, 4)], [(1, 1), (1, 1)]]
    ),
    "cli kriz": lambda: lambda: cli.main(["kriz", "--m", "2", "--k", "4", "--json"]) == 0,
}


class TestRanksOnly:
    """Ranks come from untagged eliminations alone; the representatives
    take one tagged elimination per degree and no untagged one."""

    @pytest.mark.parametrize("name", sorted(RANKS_ONLY))
    def test_ranks_run_no_tagged_pass(self, name, passes, capsys):
        eliminations, keys, quots = passes
        run = RANKS_ONLY[name]()
        keys.clear()  # rows the set-up inserted
        assert run()
        assert eliminations and not any(tagged for _, tagged in eliminations)
        assert keys and not tagged_keys(keys, quots)

    def test_representatives_run_the_tagged_pass_once_per_degree(self, passes):
        eliminations, keys, quots = passes
        rep, _ = cohomology_representatives(kriz_model(KrizParams(2, 3)))
        assert eliminations == Counter({(q, True): 1 for q in range(rep.degree_cap + 1)})
        assert len(quots) == 1 and tagged_keys(keys, quots)

    @pytest.mark.parametrize("name", ["cohomology_ranks", "verify_presentation"])
    def test_no_degree_keeps_its_columns(self, name, passes):
        # the report holds the ranks and the cap, and every complex built
        # let go of each degree's columns once that degree was eliminated
        _, _, quots = passes
        assert RANKS_ONLY[name]()()
        assert quots and all(not q._columns and not q._scales for q in quots)
        assert [f.name for f in dataclasses.fields(CohomologyReport)] == ["ranks", "degree_cap"]


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
        D = two_circle_wedge_model()
        model_t = D.table
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

    # in the wedge the ideal is nonzero in degree 4, so there a monomial's
    # frame index differs from its position in the complement
    @pytest.mark.parametrize(
        "model", [flag_model, two_circle_wedge_model], ids=["flag", "wedge"]
    )
    def test_wrong_presentation_fails(self, model):
        D = model()
        table = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))
        pres = PresentedAlgebra(table, (P(table, "T1^2"), P(table, "T2^3")))
        gmap = {"T1": P(D.table, "T1"), "T2": P(D.table, "T2")}
        report = verify_presentation(D, pres, gmap)
        assert not report
        assert report.first_failure == "relation T1^2 does not map into im(d) + ideal"

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
        assert report.failures == ("image of generator S is not a cocycle",)

    def test_image_whose_differential_lies_in_the_ideal_is_a_cocycle(self):
        # d(beta) = T1*T2 is a nonzero polynomial but zero in the quotient,
        # so beta is a cocycle there and the presentation matches
        table = GeneratorTable(names=("T1", "T2", "beta"), degrees=(2, 2, 3))
        D = DgaSpec(
            PresentedAlgebra(table, (P(table, "T1*T2"),)),
            {"beta": P(table, "T1*T2")},
            degree_cap=8,
        )
        assert not differential(D, P(table, "beta")).is_zero
        pres_t = GeneratorTable(names=("S1", "S2", "S"), degrees=(2, 2, 3))
        pres = PresentedAlgebra(pres_t, (P(pres_t, "S1*S2"),))
        gmap = {"S1": P(table, "T1"), "S2": P(table, "T2"), "S": P(table, "beta")}
        report = verify_presentation(D, pres, gmap)
        assert report, report.failures

    def test_dimension_mismatch_reported(self):
        # free polynomial generator never matches the finite flag cohomology
        table = GeneratorTable(names=("T1",), degrees=(2,))
        pres = PresentedAlgebra(table, ())
        report = verify_presentation(flag_model(), pres, {"T1": P(FLAG_T, "T1")})
        assert not report
        assert "dim" in report.first_failure


def cyclic_garbage(run) -> int:
    """Objects that only the cycle collector frees after run()."""
    gc.collect()
    gc.disable()  # no automatic pass may free them first
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    # frames refer to their algebra's basis, never back to the algebra
    def test_kriz_ranks(self):
        assert cyclic_garbage(lambda: cohomology_ranks(kriz_model(KrizParams(2, 3)))) == 0

    def test_presentation_check(self):
        def run():
            pres, gen_map = iemb_presentation(4, "C_4")
            assert verify_presentation(iemb_model(4, "C_4"), pres, gen_map)

        assert cyclic_garbage(run) == 0
