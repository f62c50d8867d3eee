"""The packed monomial kernel against the word-based path it replaced.

The references below are the older, slower formulations, kept here as
test-local code: monomials enumerated over the whole exponent box,
products sorted by normal_form (inversion counting) from concatenated
generator words, frames
spanned by those products in a reducer that cross-multiplies whole rows,
residues taken over Fractions, and the Leibniz differential applied one
generator letter of a word at a time.  Every table is drawn from a seed
and mixes odd, even and nilpotent generators in a shuffled order.  The
frames' Groebner completion is checked against the same brute-force
frames, spanned by every relation x monomial product.  The program keys
monomials by packed ints, in GPolynomial.terms as everywhere else; every
comparison here unpacks them to exponent tuples first.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstrata.ballmodels import (
    _circle_algebra,
    bstab_presentation,
    four_ball_stabilizer_presentation,
    iemb_model,
)
from cpstrata.dga import (
    DgaSpec,
    _eliminate,
    _monomial_differential,
    _QuotientDifferential,
    cohomology_ranks,
    cohomology_representatives,
    differential,
)
from cpstrata.gradedalg import (
    _FREE_MAX as FREE_MAX,
    GeneratorTable,
    GPolynomial,
    PresentedAlgebra,
    SparseReducer,
    integer_row,
)
from cpstrata.groebner import GroebnerBasis, _ambient_counts
from cpstrata.kriz import KrizParams, kriz_model
from polytext import P, from_exponents

SEEDS = range(12)
TOP = 7  # frames and differential columns are compared in degrees 0..TOP


# ------------------------------------------------------------- references


def reference_cap(table, i):
    cap = None if table.nilpotence[i] is None else table.nilpotence[i] - 1
    if table.degrees[i] % 2:
        cap = 1 if cap is None else min(cap, 1)
    return cap


def reference_monomials(table, q):
    tops = []
    for i, d in enumerate(table.degrees):
        cap = reference_cap(table, i)
        tops.append(q // d if cap is None else min(q // d, cap))
    return tuple(
        m
        for m in itertools.product(*(range(t + 1) for t in tops))
        if sum(e * d for e, d in zip(m, table.degrees)) == q
    )


def normal_form(table, word):
    """Sort a generator word into table order with the Koszul sign.

    Returns (sign, exponent tuple), or None when the word dies (an odd
    generator repeats, or a nilpotence bound is exceeded).  Each
    transposition of two odd-degree generators flips the sign; even
    generators move freely.
    """
    counts = [0] * table.n
    inversions = 0
    odd_seen = []
    for symbol in word:
        i = table.index(symbol)
        if table.degrees[i] % 2:
            inversions += sum(1 for j in odd_seen if j > i)
            odd_seen.append(i)
        counts[i] += 1
    for i, e in enumerate(counts):
        cap = reference_cap(table, i)
        if cap is not None and e > cap:
            return None
    return (-1 if inversions % 2 else 1, tuple(counts))


def packed_product(table, m1, m2):
    """(sign, monomial) of m1 * m2 by the packed kernel, or None when a cap
    kills it: one addition, one mask test and one bit count."""
    product = table._product(table._pack(m1), table._pack(m2))
    if product is None:
        return None
    return (-1 if product[1] else 1, table._unpack(product[0]))


def word(table, mono):
    return [name for name, e in zip(table.names, mono) for _ in range(e)]


def terms_of(p):
    """The terms of p keyed by exponent tuple."""
    return {p.table._unpack(k): c for k, c in p.terms.items()}


def reference_product(table, p, q):
    out = {}
    for m1, c1 in terms_of(p).items():
        for m2, c2 in terms_of(q).items():
            nf = normal_form(table, word(table, m1) + word(table, m2))
            if nf is not None:
                sign, m = nf
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_monomial_differential(D, mono):
    table = D.table
    letters = word(table, mono)
    out = {}
    sign = 1
    for j, name in enumerate(letters):
        dg = D.values.get(name)
        if dg is not None:
            for t, c in terms_of(dg).items():
                nf = normal_form(table, letters[:j] + word(table, t) + letters[j + 1 :])
                if nf is not None:
                    s, m = nf
                    out[m] = out.get(m, 0) + sign * s * c
        if table.degrees[table.index(name)] % 2:
            sign = -sign
    return {m: c for m, c in out.items() if c}


class ReferenceReducer:
    """Row reduction that cross-multiplies whole rows and clears over Fractions."""

    def __init__(self):
        self.rows = {}

    def insert(self, row):
        clean = {c: Fraction(v) for c, v in row.items() if v}
        if not clean:
            return None
        mult = lcm(*(v.denominator for v in clean.values()))
        r = {c: int(v * mult) for c, v in clean.items()}
        while r:
            p = max(r)
            existing = self.rows.get(p)
            if existing is None:
                g = 0
                for v in r.values():
                    g = gcd(g, v)
                r = {c: v // g for c, v in r.items()}
                if r[p] < 0:
                    r = {c: -v for c, v in r.items()}
                self.rows[p] = r
                return p
            a, b = existing[p], r[p]
            merged = {}
            for c in set(r) | set(existing):
                v = r.get(c, 0) * a - existing.get(c, 0) * b
                if v:
                    merged[c] = v
            r = merged
        return None

    def residue(self, row):
        r = {c: Fraction(v) for c, v in row.items() if v}
        while True:
            hits = [c for c in r if c in self.rows]
            if not hits:
                return r
            c = max(hits)
            pivot_row = self.rows[c]
            f = r[c] / pivot_row[c]
            for cc, vv in pivot_row.items():
                s = r.get(cc, Fraction(0)) - f * vv
                if s:
                    r[cc] = s
                elif cc in r:
                    del r[cc]


def reference_frame(table, relations, q):
    """(monomials, reducer) of degree q, spanned by relation x monomial words."""
    monos = reference_monomials(table, q)
    index = {m: i for i, m in enumerate(monos)}
    red = ReferenceReducer()
    for rel in relations:
        d = rel.degree()
        if d > q:
            continue
        for shift in reference_monomials(table, q - d):
            product = reference_product(table, rel, from_exponents(table, [(shift, 1)]))
            if product:
                red.insert({index[m]: c for m, c in product.items()})
    return monos, red


# ----------------------------------------------------------- random input


def random_table(rng):
    """Shuffled generators: an odd one, a nilpotent even one, and 1-4 more."""
    gens = [(rng.choice((1, 3)), None), (rng.choice((2, 4)), rng.choice((2, 3)))]
    for _ in range(rng.randint(1, 4)):
        gens.append((rng.randint(1, 4), rng.choice((None, None, 1, 2, 3, 4))))
    rng.shuffle(gens)
    return GeneratorTable(
        [f"g{i}" for i in range(len(gens))],
        [d for d, _ in gens],
        [b for _, b in gens],
    )


def random_coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def random_homogeneous(rng, table, q, terms):
    monos = reference_monomials(table, q)
    if not monos:
        return GPolynomial.zero(table)
    picked = rng.sample(monos, min(terms, len(monos)))
    return from_exponents(table, [(m, random_coefficient(rng)) for m in picked])


def random_algebra(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    relations = [
        random_homogeneous(rng, table, rng.randint(2, 5), rng.randint(1, 3))
        for _ in range(rng.randint(1, 2))
    ]
    return rng, PresentedAlgebra(table, relations)


def random_dga(seed):
    rng, A = random_algebra(seed)
    table = A.table
    values = {
        name: random_homogeneous(rng, table, d + 1, rng.randint(1, 3))
        for name, d in zip(table.names, table.degrees)
        if rng.random() < 0.75
    }
    return rng, DgaSpec(A, values, degree_cap=TOP)


# ------------------------------------------------------------------ tests


def unpacked(table, keys):
    return tuple(map(table._unpack, keys))


def reference_standard(monos, ref):
    """The monomials of a reference frame that lead no row of its ideal."""
    return tuple(m for i, m in enumerate(monos) if i not in ref.rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_caps_and_monomials_match_reference(seed):
    _, A = random_algebra(seed)
    table = A.table
    free = PresentedAlgebra(table, ())
    ambient = _ambient_counts(table, TOP + 2)
    for i in range(table.n):
        assert table._caps[i] == reference_cap(table, i)
        assert table._odd[i] == (table.degrees[i] % 2 == 1)
    for q in range(TOP + 2):
        monos = reference_monomials(table, q)
        keys = [table._pack(m) for m in monos]
        # lex order on tuples is int order on keys, and packing round-trips
        assert keys == sorted(keys) and unpacked(table, keys) == monos
        # with no ideal every monomial is standard
        assert unpacked(table, free.graded_basis(q).monomials) == monos
        assert ambient[q] == len(monos)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_matches_normal_form_of_words(seed):
    _, A = random_algebra(seed)
    table = A.table
    monos = [m for q in range(5) for m in reference_monomials(table, q)]
    for m1, m2 in itertools.product(monos, repeat=2):
        expected = normal_form(table, word(table, m1) + word(table, m2))
        assert packed_product(table, m1, m2) == expected, (m1, m2)


@pytest.mark.parametrize("seed", SEEDS)
def test_polynomial_arithmetic_matches_reference(seed):
    rng, A = random_algebra(seed)
    table = A.table
    for _ in range(20):
        p = random_homogeneous(rng, table, rng.randint(0, 4), rng.randint(1, 3))
        q = random_homogeneous(rng, table, rng.randint(0, 4), rng.randint(1, 3))
        product = p * q
        assert terms_of(product) == reference_product(table, p, q)
        assert all(type(c) is Fraction and c for c in product.terms.values())
        assert (p + q) - q == p
        assert (p * 0).is_zero and (0 * p).is_zero
        assert -(-p) == p


@pytest.mark.parametrize("seed", SEEDS)
def test_frames_match_reference(seed):
    rng, A = random_algebra(seed)
    table = A.table
    for q in range(TOP + 1):
        frame = A.graded_basis(q)
        monos, ref = reference_frame(table, A.relations, q)
        index = {m: i for i, m in enumerate(monos)}
        # the standard monomials, and the ideal's leading monomials: the
        # rest of the ambient ones
        assert unpacked(table, frame.monomials) == reference_standard(monos, ref)
        assert frame.ideal_dimension == len(ref.rows)
        # each ideal monomial's echelon row, built on first lookup, leads
        # with it and lies in the ideal
        for i in ref.rows:
            row = frame.reducer.rows[table._pack(monos[i])]
            assert max(row) == table._pack(monos[i])
            assert not ref.residue({index[table._unpack(k)]: v for k, v in row.items()})
        for _ in range(3):
            p = random_homogeneous(rng, table, q, rng.randint(1, 4))
            if p.is_zero:
                continue
            m, row = integer_row(p.terms)
            den, residue = frame.reducer.residue(row)
            expected = ref.residue({index[mono]: c for mono, c in terms_of(p).items()})
            assert {
                table._unpack(k): Fraction(v, den * m) for k, v in residue.items()
            } == {monos[i]: c for i, c in expected.items()}
            assert set(residue) <= set(frame.monomials)
            assert all(type(v) is int and v for v in residue.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_matches_word_leibniz(seed):
    rng, D = random_dga(seed)
    table = D.table
    for q in range(TOP + 1):
        for mono in reference_monomials(table, q):
            got = differential(D, from_exponents(table, [(mono, 1)]))
            assert terms_of(got) == reference_monomial_differential(D, mono), mono
    p = random_homogeneous(rng, table, 4, 3)
    expected = {}
    for mono, c in terms_of(p).items():
        for m, v in reference_monomial_differential(D, mono).items():
            expected[m] = expected.get(m, 0) + c * v
    assert terms_of(differential(D, p)) == {m: c for m, c in expected.items() if c}


def test_common_scale_clears_every_denominator():
    # d(beta) = 1/2 T^2 and d(gamma) = 1/3 T^3 share the scale M = 6
    table = GeneratorTable(("T", "beta", "gamma"), (2, 3, 5))
    A = PresentedAlgebra(table, ())
    D = DgaSpec(
        A,
        {
            "beta": P(table, "1/2*T^2"),
            "gamma": P(table, "1/3*T^3"),
        },
    )
    assert D.scale == 6
    for q in range(12):
        for mono in reference_monomials(table, q):
            expected = reference_monomial_differential(D, mono)
            assert terms_of(differential(D, from_exponents(table, [(mono, 1)]))) == expected
            scaled = _monomial_differential(D, table._pack(mono))
            assert all(type(c) is int for c in scaled.values())
            assert {table._unpack(m): Fraction(c, 6) for m, c in scaled.items()} == expected


def test_closed_generators_have_scale_one():
    table = GeneratorTable(("x", "y"), (1, 2))
    assert DgaSpec(PresentedAlgebra(table, ()), {}).scale == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_columns_match_reference(seed):
    _, D = random_dga(seed)
    table = D.table
    quot = _QuotientDifferential(D)
    for q in range(TOP):
        frame = D.algebra.graded_basis(q)
        monos, ref = reference_frame(table, D.algebra.relations, q + 1)
        index = {m: i for i, m in enumerate(monos)}
        expected = []
        for mono in unpacked(table, frame.monomials):
            image = reference_monomial_differential(D, mono)
            residue = ref.residue({index[m]: c for m, c in image.items()})
            expected.append({monos[i]: c for i, c in residue.items()})
        cols = quot.columns(q)
        scales = quot._scales[q]
        assert len(scales) == len(cols)
        assert all(type(s) is int and s > 0 for s in scales)
        assert [
            {table._unpack(k): Fraction(v, s) for k, v in col} for col, s in zip(cols, scales)
        ] == expected
        assert all(type(v) is int and v for col in cols for _, v in col)


def test_reducer_rows_are_ints_and_inputs_untouched(monkeypatch):
    # every reducer of the elimination: the frames, the tagged and the
    # untagged one of each degree, and the scratch one choosing
    # representatives, which holds the rows the tagged image adopted
    reducers = {}

    def recorded(method):
        def wrapper(self, row):
            before = dict(row)
            out = method(self, row)
            assert row == before
            reducers[id(self)] = self
            return out

        return wrapper

    monkeypatch.setattr(SparseReducer, "insert", recorded(SparseReducer.insert))
    monkeypatch.setattr(SparseReducer, "residue", recorded(SparseReducer.residue))
    complete = tagged = 0
    for seed in SEEDS:
        _, D = random_dga(seed)
        quot = _QuotientDifferential(D)
        seen = set(reducers)
        for q in range(TOP):
            _eliminate(quot, q, tagged=True)
        # the tagged reducer keys the image entries at or above quot._top
        tagged += any(c >= quot._top for k in reducers.keys() - seen for c in reducers[k].rows)
        try:
            assert cohomology_ranks(D).ranks
            assert cohomology_representatives(D)[1]
        except ValueError:
            continue  # d^2 or ideal stability fails: no representatives
        complete += 1
    assert complete >= 3
    assert tagged >= 3
    for red in reducers.values():
        for row in red.rows.values():
            assert row and all(type(v) is int and v for v in row.values())


def test_random_inputs_exercise_the_kernel():
    # the seeds must reach what the kernel decides: Koszul signs, products
    # that die on a cap, and quotient columns with non-integer entries: an
    # entry its column scale (then above 1) does not divide
    signs, dead, entries = set(), 0, []
    for seed in SEEDS:
        _, D = random_dga(seed)
        table = D.table
        monos = [m for q in range(5) for m in reference_monomials(table, q)]
        for m1, m2 in itertools.product(monos, repeat=2):
            merged = packed_product(table, m1, m2)
            if merged is None:
                dead += 1
            else:
                signs.add(merged[0])
        quot = _QuotientDifferential(D)
        entries += [
            (v, s)
            for q in range(TOP)
            for col, s in zip(quot.columns(q), quot._scales[q])
            for _, v in col
        ]
    assert signs == {1, -1}
    assert dead > 0
    assert len(entries) >= 50
    assert any(s > 1 and v % s for v, s in entries)


# ---------------------------------------------------- Groebner completion

COMPLETION_SEEDS = range(16)
COMPLETION_TOP = 9


def completion_algebra(seed):
    """A random table with 2-4 relations of degree 2-5, of 2-4 terms each."""
    rng = random.Random(f"completion:{seed}")
    table = random_table(rng)
    relations = [
        random_homogeneous(rng, table, rng.randint(2, 5), rng.randint(2, 4))
        for _ in range(rng.randint(2, 4))
    ]
    return rng, PresentedAlgebra(table, relations)


def record_adjoined_kinds(monkeypatch):
    """Patch the completion to list, per element it adjoins, the kind of
    candidate that element came from: a relation, a pair, or the killing
    product of an odd or a nilpotent even generator."""
    kinds, current = [], [None]
    candidates, adjoin = GroebnerBasis._candidates, GroebnerBasis._adjoin

    def labelled(self, q):
        labels = ["relation"] * len(self._relations.get(q, ()))
        for _, k in self._pending.get(q, ()):
            if k >= 0:
                labels += ["pair", "pair"]
            else:
                labels.append("odd" if self.table._odd[~k] else "nilpotent")
        for label, item in zip(labels, candidates(self, q), strict=True):
            current[0] = label
            yield item

    def recorded(self, q, lm, terms):
        kinds.append(current[0])
        return adjoin(self, q, lm, terms)

    monkeypatch.setattr(GroebnerBasis, "_candidates", labelled)
    monkeypatch.setattr(GroebnerBasis, "_adjoin", recorded)
    return kinds


@pytest.mark.parametrize("seed", COMPLETION_SEEDS)
def test_completion_matches_reference(seed):
    rng, A = completion_algebra(seed)
    table = A.table
    for q in range(COMPLETION_TOP + 1):
        frame = A.graded_basis(q)
        monos, ref = reference_frame(table, A.relations, q)
        index = {m: i for i, m in enumerate(monos)}
        assert unpacked(table, frame.monomials) == reference_standard(monos, ref)
        assert frame.ideal_dimension == len(ref.rows)
        for _ in range(3):
            p = random_homogeneous(rng, table, q, rng.randint(1, 4))
            if p.is_zero:
                continue
            m, row = integer_row(p.terms)
            den, residue = frame.reducer.residue(row)
            expected = ref.residue({index[mono]: c for mono, c in terms_of(p).items()})
            assert {
                index[table._unpack(k)]: Fraction(v, den * m) for k, v in residue.items()
            } == expected
            assert A.ideal_member(p) == (not expected)
            normal = from_exponents(table, {monos[i]: c for i, c in expected.items()})
            assert A.ideal_member(p - normal)


def test_completion_adjoins_every_kind_of_syzygy(monkeypatch):
    # the seeds must reach each candidate kind the completion reduces
    kinds = record_adjoined_kinds(monkeypatch)
    for seed in COMPLETION_SEEDS:
        _, A = completion_algebra(seed)
        A.graded_basis(COMPLETION_TOP)
    assert {"relation", "pair", "odd", "nilpotent"} <= set(kinds)


def found_in(algebra, frame):
    elements = algebra._basis.elements
    return {m: k for m, k in frame.reducer.rows.lead.items() if elements[k][0] == m}


@pytest.mark.parametrize("seed", COMPLETION_SEEDS)
def test_first_access_at_the_top_matches_in_order(seed):
    _, in_order = completion_algebra(seed)
    top_first = PresentedAlgebra(in_order.table, in_order.relations)
    top_first.graded_basis(COMPLETION_TOP)
    assert sorted(top_first._frames) == list(range(COMPLETION_TOP + 1))
    for q in range(COMPLETION_TOP + 1):
        a, b = top_first.graded_basis(q), in_order.graded_basis(q)
        assert a.monomials == b.monomials
        assert a.ideal_dimension == b.ideal_dimension
        # the basis elements found in degree q, by leading monomial (lead
        # also caches the supplier of each ideal monomial a residue met)
        assert found_in(top_first, a) == found_in(in_order, b)
    assert top_first._basis.elements == in_order._basis.elements


# ------------------------------------------------ packed fields and frames


@st.composite
def table_and_pair(draw):
    """A random table with odd, capped and uncapped generators, and two
    valid monomials; uncapped exponents reach past 15, where a 4-bit
    field would overflow."""
    gens = draw(
        st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from((None, None, 1, 2, 3, 5, 17))),
            min_size=1,
            max_size=6,
        )
    )
    table = GeneratorTable(
        [f"g{i}" for i in range(len(gens))], [d for d, _ in gens], [b for _, b in gens]
    )
    tops = [40 if cap is None else cap for cap in table._caps]
    pair = [tuple(draw(st.integers(0, t)) for t in tops) for _ in range(2)]
    return table, pair[0], pair[1]


@given(table_and_pair())
@settings(max_examples=100, deadline=None)
def test_packed_product_matches_normal_form_of_words(case):
    table, m1, m2 = case
    expected = normal_form(table, word(table, m1) + word(table, m2))
    assert packed_product(table, m1, m2) == expected
    # GPolynomial products take the same sign
    product = from_exponents(table, [(m1, 1)]) * from_exponents(table, [(m2, 1)])
    assert terms_of(product) == ({} if expected is None else {expected[1]: expected[0]})


def test_words_match_normal_form():
    # from_word and parse sort random words, repeated and dying ones
    # included, to the oracle's sign and monomial, over shuffled tables
    # with odd, even and nilpotent generators
    outcomes = set()
    for seed in SEEDS:
        rng = random.Random(f"words:{seed}")
        table = random_table(rng)
        for _ in range(40):
            w = [rng.choice(table.names) for _ in range(rng.randint(0, 6))]
            expected = normal_form(table, w)
            outcomes.add(None if expected is None else expected[0])
            want = {} if expected is None else {expected[1]: expected[0]}
            assert terms_of(GPolynomial.from_word(table, w)) == want, w
            # parse reads runs of a letter as powers, so x*y*y is x*y^2
            text = "*".join(
                name if n == 1 else f"{name}^{n}"
                for name, n in ((name, len(list(run))) for name, run in itertools.groupby(w))
            )
            assert terms_of(P(table, text or "1")) == want, text
    assert outcomes == {1, -1, None}


def test_uncapped_exponent_past_its_field_raises():
    one = GeneratorTable(("T",), (2,))
    assert terms_of(from_exponents(one, [((FREE_MAX,), 1)])) == {(FREE_MAX,): 1}
    half = from_exponents(one, [((20000,), 1)])
    with pytest.raises(ValueError, match=f"^exponent 40000 of T exceeds {FREE_MAX}, the most that packs$"):
        half * half
    table = GeneratorTable(("T", "beta", "S"), (2, 3, 2))
    half = from_exponents(table, [((0, 1, 20000), 1)])
    with pytest.raises(ValueError, match="^exponent 40000 of S exceeds"):
        half * from_exponents(table, [((0, 0, 20000), 1)])
    with pytest.raises(ValueError, match=f"^exponent {FREE_MAX + 1} of T exceeds"):
        GPolynomial.from_word(table, ["T"] * (FREE_MAX + 1))
    # at the largest exponent that packs the product still holds
    top = from_exponents(table, [((FREE_MAX - 1, 0, 0), 1)]) * GPolynomial.generator(table, "T")
    assert terms_of(top) == {(FREE_MAX, 0, 0): 1}


def test_uncapped_fields_hold_their_whole_range():
    table = GeneratorTable(("T", "beta", "S"), (2, 3, 2))
    for m in [(FREE_MAX, 1, FREE_MAX), (FREE_MAX, 0, 1), (1, 1, FREE_MAX)]:
        assert table._unpack(table._pack(m)) == m
        # a sum of two in-range exponents carries into no other field
        assert table._unpack(table._pack(m) + table._pack(m)) == tuple(2 * e for e in m)
    table._check_degree(2 * FREE_MAX + 1)
    with pytest.raises(ValueError, match="degree 65536 .* T "):
        table._check_degree(2 * FREE_MAX + 2)


def test_out_of_range_degree_raises_before_any_frame():
    algebra = PresentedAlgebra(GeneratorTable(("T", "beta"), (2, 3)), ())
    with pytest.raises(ValueError, match="degree 70000 .* T "):
        algebra.graded_basis(70000)
    assert not algebra._frames
    # a model whose frames would leave the range fails at construction
    with pytest.raises(ValueError, match="degree 70001 .* T1 "):
        iemb_model(4, "C_4", degree_cap=70000)


def test_packing_checked_once_per_new_top_degree(monkeypatch):
    # a check vouches for every degree through the top that packs, so the
    # frames below it are built unchecked, and only a frame past it is
    # checked again
    checked = []
    real = GeneratorTable._check_degree

    def counting(table, q):
        checked.append(q)
        return real(table, q)

    monkeypatch.setattr(GeneratorTable, "_check_degree", counting)
    # every exponent of kriz(2,3) is capped: DgaSpec checks its top degree
    # 1001 and the first frame the cohomology builds is checked, no other
    cohomology_ranks(kriz_model(KrizParams(2, 3), 1000))
    assert len(checked) == 2
    checked.clear()
    algebra = PresentedAlgebra(GeneratorTable(("T", "beta"), (2, 3)), ())
    for q in range(1001):
        algebra.graded_basis(q)
    assert checked == [1]  # T packs through degree 2 * 32768 - 1
    with pytest.raises(ValueError, match="degree 65536 .* T "):
        algebra.graded_basis(2 * FREE_MAX + 2)
    assert checked == [1, 2 * FREE_MAX + 2]


def monomials_by_degree(table, top):
    """reference_monomials for every degree through top, from one pass over
    the exponent box."""
    boxes = []
    for i, d in enumerate(table.degrees):
        cap = reference_cap(table, i)
        boxes.append(range((top // d if cap is None else min(top // d, cap)) + 1))
    out = {q: [] for q in range(top + 1)}
    for m in itertools.product(*boxes):
        q = sum(e * d for e, d in zip(m, table.degrees))
        if q <= top:
            out[q].append(m)
    return out


def wide_algebra():
    """Two uncapped even generators and an odd one, with relations whose
    completion adds basis elements; frames through 40 carry exponents 20."""
    table = GeneratorTable(("T", "S", "beta"), (2, 2, 3))
    return PresentedAlgebra(
        table,
        [P(table, "T^3*S - S^4"), P(table, "T^2*beta + S^2*beta")],
    )


FRAME_ALGEBRAS = {
    **{
        f"kriz({m},{k})": (lambda m=m, k=k: (kriz_model(KrizParams(m, k)).algebra, 2 * m * k + 1))
        for m in (1, 2, 3)
        for k in (1, 2, 3, 4)
    },
    **{
        f"circles({base},{free})": (lambda base=base, free=free: (_circle_algebra(base, free), 13))
        for base, free in ((2, 0), (2, 1), (0, 1), (0, 2), (0, 3), (0, 4))
    },
    "four-ball stabilizer": lambda: (four_ball_stabilizer_presentation(), 13),
    "three-small-ball stabilizer": lambda: (bstab_presentation(3, "small"), 13),
    "wide": lambda: (wide_algebra(), 40),
}


@pytest.mark.parametrize("name", sorted(FRAME_ALGEBRAS))
def test_standard_monomials_match_brute_force(name):
    # brute force: the ambient monomials minus the multiples of the basis'
    # leading monomials
    A, top = FRAME_ALGEBRAS[name]()
    table = A.table
    A.graded_basis(top)
    leads = [table._unpack(lm) for lm, _ in A._basis.elements]
    for q, monos in monomials_by_degree(table, top).items():
        frame = A.graded_basis(q)
        standard = tuple(m for m in monos if not any(all(map(ge, m, lead)) for lead in leads))
        assert unpacked(table, frame.monomials) == standard, q
        assert frame.ideal_dimension == len(monos) - len(standard)
