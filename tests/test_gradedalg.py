"""Tests for the graded-commutative algebra layer.

Frozen values: dimensions and generator choices for the full-flag ring on
three lines, the stabilizer ring of four disjoint small balls (pinned
degreewise against its known rank table), and assorted small quotients.
Property tests cover Koszul signs, grading, and presentation-order
independence; words are sorted by GPolynomial.from_word and checked
against the inversion-counting oracle of test_monomial_kernel.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata.ballmodels import iemb_model
from cpstrata.dga import _monomial_differential
from cpstrata.gradedalg import (
    GeneratorTable,
    GPolynomial,
    InhomogeneousError,
    PresentedAlgebra,
    SparseReducer,
    TableMismatchError,
    algebra_to_json,
    integer_row,
)
from cpstrata.kriz import KrizParams, kriz_model
from polytext import P, from_exponents
from test_monomial_kernel import normal_form, terms_of

# ---------------------------------------------------------------- fixtures

# two even nilpotent generators plus three odd ones, configuration style
CONF = GeneratorTable(
    names=("x1", "x2", "G12", "G13", "G23"),
    degrees=(2, 2, 3, 3, 3),
    nilpotence=(3, 3, None, None, None),
)

TORUS = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))

ODD = GeneratorTable(names=("beta", "gamma"), degrees=(3, 5))


def flag_ring():
    rels = (P(TORUS, "T1^2 + T2^2 + T1*T2"), P(TORUS, "T1^2*T2 + T1*T2^2"))
    return PresentedAlgebra(TORUS, rels)


def reduce(frame, p):
    """Canonical representative of p in the quotient, on standard monomials."""
    m, row = integer_row(p.terms)
    den, residue = frame.reducer.residue(row)
    return GPolynomial._wrap(p.table, {k: Fraction(v, den * m) for k, v in residue.items()})


# ------------------------------------------------------------ normal form


def sort_word(word):
    """from_word's single term as (sign, exponent tuple), or None when the
    word dies; checked against the oracle on the way."""
    terms = terms_of(GPolynomial.from_word(CONF, word))
    got = None if not terms else next((int(c), m) for m, c in terms.items())
    assert got == normal_form(CONF, word)
    return got


class TestNormalForm:
    def test_two_odd_generators_anticommute(self):
        assert sort_word(["G13", "G12"]) == (-1, (0, 0, 1, 1, 0))

    def test_even_generator_commutes_past_odd(self):
        assert sort_word(["G12", "x1"]) == (1, (1, 0, 1, 0, 0))

    def test_odd_square_dies(self):
        assert sort_word(["G12", "G12"]) is None

    def test_nilpotence_bound_kills_cube(self):
        assert sort_word(["x1", "x1"]) is not None
        assert sort_word(["x1", "x1", "x1"]) is None

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            GPolynomial.from_word(CONF, ["x1", "nope"])
        # every symbol is checked, also behind a word that already died
        with pytest.raises(ValueError):
            GPolynomial.from_word(CONF, ["G12", "G12", "nope"])

    def test_three_odd_cycle_sign(self):
        # G23 G13 G12 -> G12 G13 G23 needs 3 transpositions
        assert sort_word(["G23", "G13", "G12"]) == (-1, (0, 0, 1, 1, 1))

    @given(st.lists(st.sampled_from(CONF.names), min_size=0, max_size=6))
    @settings(max_examples=200)
    def test_normalizing_twice_equals_once(self, word):
        first = sort_word(word)
        if first is None:
            return
        _, mono = first
        sorted_word = [
            name for name, e in zip(CONF.names, mono) for _ in range(e)
        ]
        assert sort_word(sorted_word) == (1, mono)


# --------------------------------------------------------------- products


class TestMultiply:
    def test_difference_of_squares(self):
        p = P(CONF, "x1 + x2") * P(CONF, "x1 - x2")
        assert p == P(CONF, "x1^2 - x2^2")

    def test_odd_odd_anticommute(self):
        b = GPolynomial.generator(ODD, "beta")
        g = GPolynomial.generator(ODD, "gamma")
        assert b * g == -g * b

    def test_square_of_sum(self):
        p = P(TORUS, "T1 + T2")
        assert p * p == P(TORUS, "T1^2 + 2*T1*T2 + T2^2")

    def test_nilpotence_truncates_products(self):
        x = GPolynomial.generator(CONF, "x1")
        assert (x * x * x).is_zero

    def test_scalar_multiplication(self):
        p = P(TORUS, "T1 + T2")
        assert 3 * p == P(TORUS, "3*T1 + 3*T2")
        assert p * Fraction(1, 2) == P(TORUS, "1/2*T1 + 1/2*T2")

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            P(TORUS, "T1") * P(CONF, "x1")

    @given(
        st.lists(st.sampled_from(CONF.names), min_size=0, max_size=4),
        st.lists(st.sampled_from(CONF.names), min_size=0, max_size=4),
    )
    @settings(max_examples=200)
    def test_graded_commutativity(self, w1, w2):
        p = GPolynomial.from_word(CONF, w1)
        q = GPolynomial.from_word(CONF, w2)
        if p.is_zero or q.is_zero:
            return
        swap = q * p
        if (p.degree() * q.degree()) % 2:
            swap = -swap
        assert p * q == swap

    @given(
        st.lists(st.sampled_from(CONF.names), min_size=1, max_size=3),
        st.lists(st.sampled_from(CONF.names), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    def test_from_word_is_multiplicative(self, w1, w2):
        combined = GPolynomial.from_word(CONF, w1 + w2)
        assert combined == GPolynomial.from_word(CONF, w1) * GPolynomial.from_word(CONF, w2)

    def test_associativity_on_random_sparse_triples(self):
        rng = random.Random(7)
        names = list(CONF.names)

        def rand_poly():
            out = GPolynomial.zero(CONF)
            for _ in range(rng.randint(1, 3)):
                word = [rng.choice(names) for _ in range(rng.randint(0, 3))]
                coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                out = out + coeff * GPolynomial.from_word(CONF, word)
            return out

        for _ in range(40):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p * q) * r == p * (q * r)


# ------------------------------------------------------------ parse/text


class TestParseAndText:
    def test_round_trip(self):
        text = "3/2*x1^2*G12 - x2^2*G12"
        p = P(CONF, text)
        assert p.to_text() == text
        assert P(CONF, p.to_text()) == p

    def test_parse_reorders_with_sign(self):
        assert P(CONF, "G13*G12") == -GPolynomial.from_word(CONF, ["G12", "G13"])

    def test_parse_merges_like_terms(self):
        assert P(TORUS, "T1*T2 + T2*T1") == P(TORUS, "2*T1*T2")

    def test_zero_text(self):
        assert GPolynomial.zero(TORUS).to_text() == "0"
        assert P(TORUS, "T1 - T1").is_zero

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            P(TORUS, "T1 + T9")

    def test_terms_are_keyed_by_packed_monomial(self):
        p = P(CONF, "3/2*x1^2*G12 - x2^2*G12")
        assert p.terms == {
            CONF._pack((2, 0, 1, 0, 0)): Fraction(3, 2),
            CONF._pack((0, 2, 1, 0, 0)): Fraction(-1),
        }
        assert p == from_exponents(CONF, {(2, 0, 1, 0, 0): "3/2", (0, 2, 1, 0, 0): -1})


class TestEqualityAndHash:
    # the benchmark's distinct-model count hashes D.values and the relations
    def test_equal_polynomials_built_apart_hash_equal(self):
        w = [(1, 1), (2, 1)]
        first, second = iemb_model(4, "C_2", w), iemb_model(4, "C_2", w)
        a, b = first.values["beta"], second.values["beta"]
        assert a is not b and a.terms is not b.terms
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        other = iemb_model(4, "C_2", [(1, 1), (1, 0)]).values["beta"]
        assert other != a

    def test_hash_ignores_table_identity_and_term_order(self):
        twin = GeneratorTable(names=("T1", "T2"), degrees=(2, 2))
        p = P(TORUS, "T1^2 - 1/2*T1*T2")
        q = from_exponents(twin, [((1, 1), Fraction(-1, 2)), ((2, 0), 1)])
        assert twin is not TORUS and list(p.terms) != list(q.terms)
        assert p == q and hash(p) == hash(q)
        assert P(ODD, "beta") != P(TORUS, "T1")

    def test_no_public_constructor(self):
        with pytest.raises(TypeError, match=r"use zero, constant, generator or from_word$"):
            GPolynomial(TORUS, [((1, 0), 1)])

    def test_no_argument_call_fails_at_once(self):
        # not at the first use of an unset slot
        with pytest.raises(TypeError, match=r"use zero, constant, generator or from_word$"):
            GPolynomial()


class TestExactCoefficients:
    def test_float_coefficient_raises(self):
        with pytest.raises(TypeError, match=r"^coefficient 0\.1 is not an int, Fraction or rational string$"):
            GPolynomial.constant(TORUS, 0.1)

    def test_float_scalar_raises(self):
        p = P(TORUS, "T1 + T2")
        with pytest.raises(TypeError, match=r"^scalar 0\.5 is not"):
            p * 0.5
        with pytest.raises(TypeError, match=r"^scalar 0\.5 is not"):
            0.5 * p

    def test_ints_fractions_and_rational_strings_pass(self):
        p = P(TORUS, "T1")
        assert GPolynomial.constant(TORUS, "2/3") * p == p * Fraction(2, 3) == p * "2/3"
        assert GPolynomial.constant(TORUS, 2) == 2 * GPolynomial.constant(TORUS, "1")

    def test_zero_denominator_in_text_raises_value_error(self):
        with pytest.raises(ValueError, match=r"^coefficient '1/0' in '1/0\*x1' has a zero denominator$"):
            P(CONF, "1/0*x1")

    def test_exponent_notation_is_refused(self):
        with pytest.raises(ValueError, match=r"^coefficient '1e-30000000' is in exponent notation$"):
            GPolynomial.constant(TORUS, "1e-30000000")
        with pytest.raises(ValueError, match="exponent notation"):
            P(TORUS, "T1") * "2E3"


class TestIntegerDegreesAndExponents:
    # a degree that is not an int is refused, naming it, instead of being
    # truncated by int(); no package entry point takes exponent tuples
    @pytest.mark.parametrize("bad,text", [(2.5, "2.5"), (2.0, "2.0"), (Fraction(2), "Fraction(2, 1)"), ("2", "'2'")])
    def test_non_int_degree_raises(self, bad, text):
        with pytest.raises(TypeError, match=rf"^generator degree {re.escape(text)} is not an int$"):
            GeneratorTable(("x", "y"), (2, bad))

    def test_int_degrees_pass(self):
        # a bool is refused (tests/test_exact_numbers.py)
        table = GeneratorTable(("x", "y"), [2, 1])
        assert table.degrees == (2, 1) and all(type(d) is int for d in table.degrees)

    def test_int_exponents_pass(self):
        # the oracle builder of tests/polytext.py agrees with the text reader
        assert from_exponents(TORUS, {(1, 2): 3}) == 3 * P(TORUS, "T1*T2^2")
        assert from_exponents(TORUS, [([1, 0], 1)]) == P(TORUS, "T1")


# ------------------------------------------------------------ graded data


class TestGradedBasis:
    def test_free_algebra_has_no_ideal(self):
        free = PresentedAlgebra(TORUS, ())
        frame = free.graded_basis(4)
        assert len(frame.monomials) == 3
        assert frame.ideal_dimension == 0
        assert frame.quotient_dimension == 3

    def test_flag_ring_dimensions(self):
        A = flag_ring()
        assert [A.quotient_dimension(q) for q in range(0, 9)] == [
            1, 0, 2, 0, 2, 0, 1, 0, 0,
        ]

    def test_negative_degree_is_empty_and_leaves_the_frames_contiguous(self):
        A = flag_ring()
        assert A.quotient_dimension(-1) == 0
        assert A.graded_basis(-2).ideal_dimension == 0
        assert [A.quotient_dimension(q) for q in (6, 4)] == [1, 2]
        assert sorted(A._frames) == list(range(7))

    def test_flag_ring_degree_four_complement(self):
        frame = flag_ring().graded_basis(4)
        texts = [TORUS.monomial_text(k) for k in frame.monomials]
        assert texts == ["T2^2", "T1*T2"]

    def test_flag_ring_degree_six_complement(self):
        frame = flag_ring().graded_basis(6)
        texts = [TORUS.monomial_text(k) for k in frame.monomials]
        assert texts == ["T1*T2^2"]

    def test_reduce_lands_on_complement(self):
        frame = flag_ring().graded_basis(4)
        assert reduce(frame, P(TORUS, "T1^2")) == P(TORUS, "-T2^2 - T1*T2")
        # the residue is an integer row keyed by packed monomial, on the
        # standard monomials, over a positive denominator
        m, row = integer_row(P(TORUS, "T1^2").terms)
        den, residue = frame.reducer.residue(row)
        assert {k: Fraction(v, den * m) for k, v in residue.items()} == {
            k: Fraction(-1) for k in frame.monomials
        }

    def test_monomials_ascend_lexicographically(self):
        frame = PresentedAlgebra(TORUS, ()).graded_basis(6)
        assert [TORUS._unpack(k) for k in frame.monomials] == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert list(frame.monomials) == sorted(frame.monomials)


class TestQuotientDimension:
    def test_three_squares_one_relation_web(self):
        table = GeneratorTable(
            names=("a1", "a2", "a3", "eta"), degrees=(2, 2, 2, 5)
        )
        rels = (
            P(table, "a1^2 + a2^2 + a3^2"),
            P(table, "a1*a2"),
            P(table, "a1*a3"),
            P(table, "a2*a3"),
        )
        A = PresentedAlgebra(table, rels)
        assert A.quotient_dimension(4) == 2

    def test_degree_zero_is_one(self):
        for A in (flag_ring(), PresentedAlgebra(CONF, ())):
            assert A.quotient_dimension(0) == 1

    def test_relation_order_does_not_matter(self):
        table = GeneratorTable(
            names=("a1", "a2", "a3", "zeta"), degrees=(2, 2, 2, 5)
        )
        rels = [
            P(table, "a1^2 + a2^2 + a1*a2"),
            P(table, "a1^2 + a3^2 + a1*a3"),
            P(table, "a2^2 + a3^2 + a2*a3"),
            P(table, "a1^3"),
            P(table, "zeta*a1 - zeta*a2"),
            P(table, "zeta*a1 - zeta*a3"),
        ]
        reference = [
            PresentedAlgebra(table, rels).quotient_dimension(q) for q in range(10)
        ]
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(rels)
            A = PresentedAlgebra(table, tuple(rels))
            assert [A.quotient_dimension(q) for q in range(10)] == reference

    def test_planar_three_point_ring_table(self):
        # quotient on three degree-2 classes and one degree-7 class whose
        # products with differences vanish: dims 1,0,3,0,3,0,1,1,0,1
        table = GeneratorTable(
            names=("a1", "a2", "a3", "zeta"), degrees=(2, 2, 2, 7)
        )
        rels = (
            P(table, "a1^2 + a2^2 + a1*a2"),
            P(table, "a1^2 + a3^2 + a1*a3"),
            P(table, "a2^2 + a3^2 + a2*a3"),
            P(table, "a1^3"),
            P(table, "zeta*a1 - zeta*a2"),
            P(table, "zeta*a1 - zeta*a3"),
            P(table, "zeta*a2 - zeta*a3"),
        )
        A = PresentedAlgebra(table, rels)
        dims = [A.quotient_dimension(q) for q in range(10)]
        assert dims == [1, 0, 3, 0, 3, 0, 1, 1, 0, 1]
        assert A.quotient_dimension(7) == 1

    def test_free_exterior_on_one_odd_generator(self):
        table = GeneratorTable(names=("w",), degrees=(3,))
        A = PresentedAlgebra(table, ())
        dims = [A.quotient_dimension(q) for q in range(9)]
        assert dims == [1, 0, 0, 1, 0, 0, 0, 0, 0]


class TestIdealMember:
    def test_flag_cube_is_in_ideal(self):
        assert flag_ring().ideal_member(P(TORUS, "T1^3"))

    def test_flag_mixed_cube_is_not(self):
        assert not flag_ring().ideal_member(P(TORUS, "T1*T2^2"))

    def test_zero_is_member(self):
        assert flag_ring().ideal_member(GPolynomial.zero(TORUS))

    def test_inhomogeneous_input(self):
        with pytest.raises(InhomogeneousError):
            flag_ring().ideal_member(P(TORUS, "T1 + T1^2"))

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            flag_ring().ideal_member(P(CONF, "x1"))

    def test_reduce_splits_degrees(self):
        A = flag_ring()
        parts = {4: P(TORUS, "T1^2"), 6: P(TORUS, "T1^3")}
        reduced = GPolynomial.zero(TORUS)
        for q, part in parts.items():
            reduced = reduced + reduce(A.graded_basis(q), part)
        assert reduced == P(TORUS, "-T2^2 - T1*T2")


# ----------------------------------------- stabilizer ring, four small balls

STAB4 = GeneratorTable(
    names=("a1", "a2", "a3", "a4", "e1", "e2"),
    degrees=(2, 2, 2, 2, 5, 5),
)


def _pair_quadratic(i, j):
    """a_i^2 + a_i a_j + a_j^2, the class every degree-3 generator of the
    configuration model hits under the differential."""
    return P(STAB4, f"a{i}^2 + a{i}*a{j} + a{j}^2")


def four_ball_stabilizer_ring():
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    quad = [_pair_quadratic(*p) - _pair_quadratic(1, 2) for p in pairs[1:]]
    eta = [
        GPolynomial.generator(STAB4, f"e{i}")
        * (P(STAB4, f"a{j}") - P(STAB4, f"a{k}"))
        for i in (1, 2)
        for (j, k) in pairs
    ]
    return PresentedAlgebra(STAB4, tuple(quad + eta + [P(STAB4, "e1*e2")]))


class TestFourBallStabilizerRing:
    def test_rank_table_degrees_0_to_14(self):
        A = four_ball_stabilizer_ring()
        dims = [A.quotient_dimension(q) for q in range(15)]
        expected = [1, 0, 4, 0] + [5 if q % 2 == 0 else 2 for q in range(4, 15)]
        assert dims == expected

    def test_pinned_low_degrees(self):
        A = four_ball_stabilizer_ring()
        assert A.quotient_dimension(2) == 4
        assert A.quotient_dimension(4) == 5
        assert A.quotient_dimension(5) == 2
        assert A.quotient_dimension(6) == 5
        assert A.quotient_dimension(7) == 2

    def test_product_of_odd_generators_is_killed(self):
        A = four_ball_stabilizer_ring()
        assert A.ideal_member(P(STAB4, "e1*e2"))
        assert not A.ideal_member(P(STAB4, "e1*a1^2*a2"))

    def test_uncoupled_last_pair_leaves_an_extra_class(self):
        # The five quadratic relations that only ever couple generator pairs
        # touching a1 or a2 are rank 4 and never reduce a3*a4: the quotient
        # then has one extra class in every even degree >= 4.
        quad = [
            _pair_quadratic(1, 3) - _pair_quadratic(2, 3),
            _pair_quadratic(1, 4) - _pair_quadratic(2, 4),
            _pair_quadratic(1, 2) - _pair_quadratic(1, 3),
            _pair_quadratic(1, 2) - _pair_quadratic(1, 4),
            _pair_quadratic(1, 3) - _pair_quadratic(1, 4),
        ]
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        eta = [
            GPolynomial.generator(STAB4, f"e{i}")
            * (P(STAB4, f"a{j}") - P(STAB4, f"a{k}"))
            for i in (1, 2)
            for (j, k) in pairs
        ]
        deficient = PresentedAlgebra(
            STAB4, tuple(quad + eta + [P(STAB4, "e1*e2")])
        )
        assert deficient.quotient_dimension(4) == 6
        assert not deficient.ideal_member(P(STAB4, "a3*a4"))
        # the completed ring reduces it
        assert four_ball_stabilizer_ring().quotient_dimension(4) == 5

    def test_odd_lines_collapse_to_two(self):
        A = four_ball_stabilizer_ring()
        frame = A.graded_basis(7)
        assert frame.quotient_dimension == 2
        # every e_i*a_j is identified with e_i*a_1
        assert A.ideal_member(P(STAB4, "e1*a2 - e1*a1"))
        assert A.ideal_member(P(STAB4, "e2*a4 - e2*a1"))


# ------------------------------------------------------------------- json


class TestJsonRoundTrip:
    # the package writes presentations (model build) but reads none back;
    # rebuilding one here checks the written JSON determines the algebra
    @staticmethod
    def rebuild(data):
        gens = data["generators"]
        table = GeneratorTable(
            [g["name"] for g in gens],
            [g["degree"] for g in gens],
            [g.get("nilpotence") for g in gens],
        )
        return PresentedAlgebra(table, [P(table, r) for r in data["relations"]])

    def test_algebra_round_trip(self):
        A = flag_ring()
        B = self.rebuild(json.loads(json.dumps(algebra_to_json(A))))
        assert B.table == A.table
        assert B.relations == A.relations
        assert [B.quotient_dimension(q) for q in range(8)] == [
            A.quotient_dimension(q) for q in range(8)
        ]

    def test_nilpotence_survives(self):
        A = PresentedAlgebra(CONF, (P(CONF, "x1^2 - x2^2"),))
        data = algebra_to_json(A)
        assert data["generators"][0] == {"name": "x1", "degree": 2, "nilpotence": 3}
        assert data["generators"][2] == {"name": "G12", "degree": 3}
        B = self.rebuild(data)
        assert B.table.nilpotence == CONF.nilpotence
        assert B.relations == A.relations

    def test_presented_algebra_rejects_inhomogeneous_relation(self):
        with pytest.raises(InhomogeneousError):
            PresentedAlgebra(TORUS, (P(TORUS, "T1 + T1^2"),))

    def test_presented_algebra_rejects_foreign_relation(self):
        with pytest.raises(TableMismatchError):
            PresentedAlgebra(TORUS, (P(CONF, "x1"),))


# ------------------------------------------------------- one-pass residues


def rescanning_residue(reducer, row):
    """SparseReducer.residue as it was before its worklist, kept as the
    oracle: the pivot hits are found again by a scan of the whole row
    after every clear."""
    den, r = 1, dict(row)
    rows = reducer.rows
    while True:
        hits = [c for c in r if c in rows]
        if not hits:
            return den, r
        c = max(hits)
        pivot_row = rows[c]
        if len(pivot_row) == 1:
            del r[c]
        else:
            den *= reducer._clear(r, pivot_row, c)


def column_residues():
    """(target reducer, image) for every residue the differential columns
    of the cohomology-large workload take: kriz(2,4) and kriz(3,4) at cap
    14, kriz(2,5) at cap 8 and the (4, C_4) model at cap 14."""
    models = [kriz_model(KrizParams(m, k), degree_cap=cap) for m, k, cap in ((2, 4, 14), (2, 5, 8), (3, 4, 14))]
    models.append(iemb_model(4, "C_4", degree_cap=14))
    for D in models:
        for q in range(D.degree_cap + 1):
            target = D.algebra.graded_basis(q + 1)
            for mono in D.algebra.graded_basis(q).monomials:
                image = _monomial_differential(D, mono)
                if image and not target.reducer.rows.standard.issuperset(image):
                    yield target.reducer, image


def random_rows(rng, count, width):
    rows = []
    for _ in range(count):
        cols = rng.sample(range(width), rng.choice((1, 2, 3, 5, 8)))
        rows.append({c: rng.choice((-6, -3, -2, -1, 1, 2, 4, 5)) for c in cols})
    return rows


class TestOnePassResidue:
    """The worklist residue clears the same columns, in the same order,
    against the same rows as the rescanning one, so den, r and every
    _clear call agree."""

    @staticmethod
    def assert_same_clears(monkeypatch, cases):
        calls = []
        clear = SparseReducer._clear

        def recorded(r, pivot_row, c):
            calls.append((c, pivot_row))
            return clear(r, pivot_row, c)

        monkeypatch.setattr(SparseReducer, "_clear", staticmethod(recorded))
        clears = scaled = 0
        for reducer, row in cases:
            before = dict(row)
            got = reducer.residue(row)
            ours = calls[:]
            calls.clear()
            want = rescanning_residue(reducer, row)
            assert row == before
            assert got == want
            assert [c for c, _ in ours] == [c for c, _ in calls]
            assert all(a is b for (_, a), (_, b) in zip(ours, calls))
            clears += len(ours)
            scaled += got[0] > 1
            calls.clear()
        return clears, scaled

    def test_column_residues_of_the_large_models(self, monkeypatch):
        cases = list(column_residues())
        assert len(cases) == 163
        # no clear of these residues scales the row: den stays 1
        assert self.assert_same_clears(monkeypatch, cases) == (337, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows_over_inserted_rows(self, monkeypatch, seed):
        rng = random.Random(seed)
        reducer = SparseReducer()
        for row in random_rows(rng, 25, 30):
            reducer.insert(row)
        assert any(len(row) == 1 for row in reducer.rows.values())
        cases = [(reducer, row) for row in random_rows(rng, 60, 30)]
        clears, scaled = self.assert_same_clears(monkeypatch, cases)
        assert clears > 300 and scaled > 30
