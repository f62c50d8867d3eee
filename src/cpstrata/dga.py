"""Differentials on presented graded-commutative algebras.

A DgaSpec pairs a PresentedAlgebra with degree +1 values for its generators;
the differential extends by the graded Leibniz rule and descends to the
quotient once d(I) is contained in I.  Cohomology is computed degree by
degree as exact linear algebra on the quotient frames:

    rank H^q  =  dim A^q - rank(d_q) - rank(d_{q-1})

streamed through the cap: each d_q is eliminated once and dropped, and
only the previous degree's image is kept.  cohomology_representatives
tags its one elimination per degree, which gives the kernel vectors too.
verify_presentation decides coboundary membership inside the boundaries
the ranks were read from, so it cannot disagree with the ranks.

d(f) modulo the ideal has one route, _d_residue: the integer terms of d
summed over those of f and reduced in the frame one degree up, unless every
monomial of the image is standard there already (a set test), when the
image is its own residue.  The columns of d take it, one monomial each,
and so do the checks that d^2 = 0 and d(I) is in I, which run before every
cohomology computation and raise DifferentialError naming the failing
generator or relation, and the cocycle test of a presentation.  A closed
monomial, one whose generators all have no value, has d = 0: its column
is empty without a call.

All arithmetic is exact.  The differential is integer from the generator
values to the elimination: each DgaSpec scales its values once by one
common M, the lcm of their denominators, and the columns of d carry that
scale beside their integer entries.  Fractions appear only in the
polynomials returned (differential() and the representatives).  No
floating point anywhere.  A monomial is a packed int (GeneratorTable._pack)
here as in GPolynomial.terms; only substitute unpacks one, to read its
exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

from .gradedalg import (
    GPolynomial,
    GeneratorTable,
    GradedBasis,
    InhomogeneousError,
    PresentedAlgebra,
    SparseReducer,
    TableMismatchError,
    algebra_to_json,
    integer_row,
)
from .lattice import exact_ints


class DifferentialError(ValueError):
    """A generator value breaks the degree +1 rule, or a check failed."""


class DgaSpec:
    """A differential on a presented algebra, given on generators.

    Generators missing from the mapping are closed.  Every value must be
    homogeneous of degree exactly one more than its generator; mixed-degree
    values are rejected here, at construction time, from one pass over each
    value's terms.  degree_cap is an int >= 0 (TypeError when it fails
    lattice.exact_ints, a bool or a float included; ValueError when
    negative).  scale is the lcm M of the denominators of all values: M
    times each value has integer terms.
    """

    def __init__(
        self,
        algebra: PresentedAlgebra,
        differential: Mapping[str, GPolynomial],
        degree_cap: int = 10,
    ):
        exact_ints((degree_cap,), "degree_cap")
        if degree_cap < 0:
            raise ValueError(f"degree_cap {degree_cap} is negative")
        table = algebra.table
        values: dict[str, GPolynomial] = {}
        top = degree_cap + 1
        for name, value in differential.items():
            i = table.index(name)
            if value.table != table:
                raise TableMismatchError(
                    f"d({name}) lives over a different generator table"
                )
            if value.is_zero:
                continue
            degrees = set(map(table.monomial_degree, value.terms))
            if len(degrees) > 1:
                raise InhomogeneousError(
                    f"d({name}) = {value.to_text()} is not homogeneous"
                )
            (degree,) = degrees
            if degree != table.degrees[i] + 1:
                raise DifferentialError(
                    f"d({name}) has degree {degree}, "
                    f"expected {table.degrees[i] + 1}"
                )
            values[name] = value
            top = max(top, degree)
        self.algebra = algebra
        self.table = table
        self.values = values
        self.degree_cap = degree_cap
        M = self.scale = lcm(*(c.denominator for v in values.values() for c in v.terms.values()))
        # every frame and image the cohomology builds packs, or this raises
        table._check_degree(top)
        # For the Leibniz rule on packed monomials, per bit of the field of
        # a generator with a value: the field's shift and mask, the odd bits
        # of the generators before it when it is odd (else 0), and the terms
        # of M times its value with their Koszul masks; _valued holds those
        # fields' bits.
        self._by_bit: list = [None] * sum(f.bit_length() for f in table._masks)
        self._valued = 0
        for i, name in enumerate(table.names):
            if name in values:
                terms = []
                for k, c in values[name].terms.items():
                    terms.append((k, c.numerator * (M // c.denominator), table._koszul(k)))
                shift, mask = table._shifts[i], table._masks[i]
                above = table._odd_bits >> shift + 1 << shift + 1 if table._odd[i] else 0
                width = mask.bit_length()
                self._by_bit[shift : shift + width] = [(shift, mask, above, tuple(terms))] * width
                self._valued |= mask << shift


def _monomial_differential(D: DgaSpec, mono: int) -> dict[int, int]:
    """Integer terms of M d(mono), M = D.scale, for a packed monomial, by
    the graded Leibniz rule on its exponent fields.

    Write mono = P g^e S with P, S the generators before and after g.  The
    Leibniz term of g is (-1)^|P| P (e g^(e-1) dg) S; moving dg to the
    front past P g^(e-1) turns it into e (-1)^(|P| |g|) dg (mono / g).  So
    the sign flips only for an odd g behind an odd number of odd generators,
    and each term of dg meets mono / g in one packed product.  Nothing is
    cached: the columns ask for each standard monomial once.
    """
    bias, guard = D.table._bias, D.table._guard
    image: dict[int, int] = {}
    present = mono & D._valued
    while present:
        shift, mask, above, terms = D._by_bit[present.bit_length() - 1]
        e = (present >> shift) & mask
        present &= (1 << shift) - 1
        rest = mono - (1 << shift)
        factor = -e if (mono & above).bit_count() & 1 else e
        for t, c, koszul in terms:
            m = t + rest
            if (m + bias) & guard:
                continue
            v = -factor * c if (rest & koszul).bit_count() & 1 else factor * c
            s = image.get(m, 0) + v
            if s:
                image[m] = s
            else:
                del image[m]
    return image


def _d_sum(D: DgaSpec, terms: Iterable[tuple[int, object]]) -> dict:
    """M d(f), M = D.scale, for f the sum of c * mono over the (packed mono,
    c) pairs of terms; the coefficients keep the type of the c's."""
    image: dict = {}
    for mono, c in terms:
        for m, v in _monomial_differential(D, mono).items():
            s = image.get(m, 0) + c * v
            if s:
                image[m] = s
            else:
                del image[m]
    return image


def _d_residue(
    D: DgaSpec,
    f: Union[int, Iterable[tuple[int, int]]],
    target: Optional[GradedBasis] = None,
) -> tuple[int, dict[int, int]]:
    """(den, r): M d(f) modulo the ideal is r / den, keyed by packed monomial.

    f is a packed monomial, as each column of d passes it, or its (packed
    mono, int) terms, and is homogeneous of some degree q; target is the
    frame of degree q + 1.  This is the one route from d(f) to the quotient.
    The columns of d pass their target; the checks and the cocycle test
    leave it to be looked up from the image, so a zero d(f) builds no
    frame.  A monomial's image comes fresh from _monomial_differential, not
    copied through _d_sum, and an image whose monomials are all standard in
    the target (a set test) is its own residue, returned unreduced.
    """
    image = _monomial_differential(D, f) if type(f) is int else _d_sum(D, f)
    if not image:
        return 1, {}
    if target is None:
        target = D.algebra.graded_basis(D.table.monomial_degree(next(iter(image))))
    # a frame's reducer rows (groebner._Ideal) hold its standard monomials
    if target.reducer.rows.standard.issuperset(image):
        return 1, image
    return target.reducer.residue(image)


def differential(D: DgaSpec, p: GPolynomial) -> GPolynomial:
    """Leibniz extension of the generator values; linear over the rationals."""
    if p.table != D.table:
        raise TableMismatchError("polynomial over a different generator table")
    table, M = D.table, D.scale
    table._check_degree(max(map(table.monomial_degree, p.terms), default=0) + 1)
    image = _d_sum(D, p.terms.items())
    return GPolynomial._wrap(table, {m: c / M for m, c in image.items()})


def check_d_squared(D: DgaSpec) -> None:
    """d(d(g)) must vanish in the quotient for every generator g of degree
    at most the cap; raises DifferentialError at the first that fails.  A
    value none of whose monomials holds a generator with a value has d = 0
    and is skipped."""
    for name, d in zip(D.table.names, D.table.degrees):
        if name not in D.values or d > D.degree_cap:
            continue
        terms = D.values[name].terms
        if not any(m & D._valued for m in terms):
            continue
        if _d_residue(D, integer_row(terms)[1].items())[1]:
            # d of the value, not of the generator: a generator of bound 1 is 0
            dd = differential(D, D.values[name])
            raise DifferentialError(
                f"d^2 fails on generator {name}: d(d({name})) = {dd.to_text()} "
                f"is not in the ideal"
            )


def check_ideal_stability(D: DgaSpec) -> None:
    """d must map the relation ideal into itself (degreewise, up to the cap);
    raises DifferentialError at the first relation that fails.

    For a product r*m one has d(r*m) = d(r)*m +- r*d(m) and the second term
    is an ideal member outright, so stability reduces to d(r) in I for every
    listed relation r, and for every nilpotence bound N on a generator x
    with a value: the relation x^N = 0, with d(x^N) = N x^(N-1) d(x) for an
    even x.  An odd x squares to zero whatever d(x) is, so only a bound of
    1 on it, the relation x = 0, asks that d(x) be in I.  A relation none
    of whose monomials holds a generator with a value has d(r) = 0 and is
    skipped before its degree is read.
    """
    for r in D.algebra.relations:
        if not any(m & D._valued for m in r.terms):
            continue
        if r.degree() <= D.degree_cap and _d_residue(D, integer_row(r.terms)[1].items())[1]:
            raise DifferentialError(f"ideal not d-stable at relation {r.to_text()}")
    table = D.table
    for name, deg, N, odd in zip(table.names, table.degrees, table.nilpotence, table._odd):
        if name not in D.values or N is None or N * deg > D.degree_cap or (odd and N > 1):
            continue
        image, x = D.values[name], GPolynomial.generator(table, name)
        for _ in range(N - 1):
            image = x * image
        if not D.algebra.ideal_member(image):
            raise DifferentialError(f"ideal not d-stable at the nilpotence bound {name}^{N} = 0")


# ----------------------------------------------------------------- cohomology


@dataclass(frozen=True)
class CohomologyReport:
    """Degreewise ranks of a DGA, through the cap."""

    ranks: dict[int, int]
    degree_cap: int

    def rank_list(self, upto: Optional[int] = None) -> list[int]:
        top = self.degree_cap if upto is None else exact_ints((upto,), "degree")[0]
        if not 0 <= top <= self.degree_cap:
            raise ValueError(f"degree {top} is outside the ranks computed, 0..{self.degree_cap}")
        return [self.ranks[q] for q in range(top + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * r for q, r in self.ranks.items())

    def to_json_dict(self, representatives: Mapping[int, list[GPolynomial]]) -> dict:
        return {
            "degree_cap": self.degree_cap,
            # the checks raise on failure, so a report is only built when both hold
            "d_squared_ok": True,
            "ideal_stable_ok": True,
            "ranks": {str(q): r for q, r in sorted(self.ranks.items())},
            "representatives": {
                str(q): [p.to_text() for p in reps]
                for q, reps in sorted(representatives.items())
            },
        }


class _QuotientDifferential:
    """The matrices of d on the quotient frames, one degree at a time.

    A quotient vector of degree q is a sparse row keyed by packed monomial
    and supported on the standard monomials of graded_basis(q).  The column
    of d_q at a standard monomial is an integer residue with a positive
    scale beside it: the image is column / scale.  _eliminate reads the
    columns of each degree once and then drops them.
    """

    def __init__(self, D: DgaSpec):
        self.D = D
        self._columns: dict[int, list[tuple]] = {}
        self._scales: dict[int, list[int]] = {}
        # target keys of a tagged row are shifted by _top, above every packed monomial
        self._top = 1 << sum(f.bit_length() for f in D.table._masks)

    def columns(self, q: int) -> list[tuple]:
        """Per standard monomial of degree q, in order: the nonzero
        (packed target monomial, int) pairs of its image under d, times the
        column's scale in _scales[q]."""
        cols = self._columns.get(q)
        if cols is None:
            A = self.D.algebra
            frame = A.graded_basis(q)
            target = A.graded_basis(q + 1)
            scale, valued = self.D.scale, self.D._valued
            cols, scales = [], []
            for mono in frame.monomials:
                if not mono & valued:  # every generator of mono is closed
                    cols.append(())
                    scales.append(scale)
                    continue
                # the residue of M d(mono) is residue / den
                den, residue = _d_residue(self.D, mono, target)
                cols.append(tuple(residue.items()))
                scales.append(den * scale)
            self._scales[q] = scales
            self._columns[q] = cols
        return cols


def _eliminate(quot: _QuotientDifferential, q: int, tagged: bool) -> tuple[SparseReducer, list[dict]]:
    """(image, kernel) of d_q from one elimination of its columns, which are
    then dropped; image is the row space of im(d_q).  Untagged, the columns
    go in as they are and kernel is [].  Tagged, the column at domain
    monomial j goes in keyed by target monomial plus _top, with a tag keyed
    j holding its scale.  Tags sort below every target key, so a dependent
    column reduces to tags alone with its own tag as pivot: the unique
    relation writing it through the earlier independent columns, a
    primitive kernel vector with entry j > 0.  The rows with a target
    pivot, tags stripped, have distinct pivots and span im(d_q): the image
    adopts them without reducing them again.
    """
    cols, scales = quot.columns(q), quot._scales.pop(q)
    del quot._columns[q]
    image = SparseReducer()
    if not tagged:
        for col in cols:
            if col:  # the image times a positive scale: the same line
                image.insert(dict(col))
        return image, []
    top, red = quot._top, SparseReducer()
    for mono, col, scale in zip(quot.D.algebra.graded_basis(q).monomials, cols, scales):
        # the column tagged with its scale: a positive multiple of
        # (image, tag 1) leaves every stored primitive row as is
        row = {top + i: v for i, v in col}
        row[mono] = scale
        red.insert(row)
    image.rows = {
        p - top: SparseReducer._primitive({i - top: v for i, v in row.items() if i >= top})
        for p, row in red.rows.items() if p >= top
    }
    return image, [row for p, row in red.rows.items() if p < top]


def _stream(D: DgaSpec, tagged: bool = False) -> Iterator[tuple[int, int, SparseReducer, list[dict]]]:
    """Per degree q through the cap, after the checks: q, rank H^q, the row
    space of im(d_{q-1}) and, tagged, the kernel of d_q (else []).  Only
    the previous degree's image outlives a degree."""
    check_d_squared(D)
    check_ideal_stability(D)
    quot = _QuotientDifferential(D)
    below = SparseReducer()
    for q in range(D.degree_cap + 1):
        image, kernel = _eliminate(quot, q, tagged)
        dim_ker = D.algebra.quotient_dimension(q) - image.rank
        rank = dim_ker - below.rank
        if rank < 0:
            raise DifferentialError(f"degree {q}: im(d) has rank above dim ker(d) = {dim_ker}")
        yield q, rank, below, kernel
        below = image


def cohomology_ranks(D: DgaSpec) -> CohomologyReport:
    """Degreewise cohomology of the quotient DGA through the cap."""
    return CohomologyReport({q: rank for q, rank, _, _ in _stream(D)}, D.degree_cap)


def cohomology_representatives(D: DgaSpec) -> tuple[CohomologyReport, dict[int, list[GPolynomial]]]:
    """The ranks, and per degree rank-many cocycles whose classes form a
    basis of H^q, each scaled so its leading monomial has coefficient 1:
    a kernel vector's unique coset member off the pivots of the boundaries
    and the earlier choices, whichever echelon rows hold the boundaries."""
    ranks, reps = {}, {}
    for q, rank, below, kernel in _stream(D, tagged=True):
        chosen: list[GPolynomial] = []
        scratch = SparseReducer(rows=dict(below.rows))  # rows are never modified
        for v in kernel:
            _, r = scratch.residue(v)
            if r:
                scratch.insert(r)
                lead = r[max(r)]
                chosen.append(GPolynomial._wrap(D.table, {m: Fraction(c, lead) for m, c in r.items()}))
        if len(chosen) != rank:
            raise DifferentialError(f"degree {q}: {len(chosen)} independent cocycles for rank {rank}")
        ranks[q], reps[q] = rank, chosen
    return CohomologyReport(ranks, D.degree_cap), reps


def complete_through_cap(D: DgaSpec) -> bool:
    """True iff the ranks through the cap are the whole cohomology.

    The quotient algebra A is generated in degrees 1..g, g the largest
    generator degree, so A = 0 in the window cap+1..cap+g forces A = 0 in
    every higher degree, and then no cochain lies above the cap.  Decided
    on request: it builds the window's frames, which the ranks never need.
    """
    cap, g = D.degree_cap, max(D.table.degrees, default=0)
    return all(D.algebra.quotient_dimension(q) == 0 for q in range(cap + 1, cap + g + 1))


def dga_to_json(D: DgaSpec) -> dict:
    """JSON-ready description: presented algebra, differential, cap."""
    return {
        "algebra": algebra_to_json(D.algebra),
        "differential": {
            name: D.values[name].to_text() for name in sorted(D.values)
        },
        "degree_cap": D.degree_cap,
    }


# --------------------------------------------------------------- verification


def substitute(
    p: GPolynomial, mapping: Mapping[str, GPolynomial], target: GeneratorTable
) -> GPolynomial:
    """Evaluate p by sending each generator to its image polynomial.

    Images are multiplied in table order, so odd-degree bookkeeping is
    inherited from the target algebra's Koszul rule.
    """
    images = {}
    for name in p.table.names:
        img = mapping.get(name)
        if img is not None and img.table != target:
            raise TableMismatchError(f"image of {name} is over the wrong table")
        images[name] = img
    out = GPolynomial.zero(target)
    for mono, coeff in p.terms.items():
        term = GPolynomial.constant(target, coeff)
        for name, e in zip(p.table.names, p.table._unpack(mono)):
            if e == 0:
                continue
            img = images[name]
            if img is None:
                raise ValueError(f"no image provided for generator {name!r}")
            for _ in range(e):
                term = term * img
        out = out + term
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of matching a candidate presentation against a DGA."""

    ok: bool
    failures: tuple[str, ...] = ()
    dims: tuple[tuple[int, int, int], ...] = field(default=(), repr=False)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_failure(self) -> Optional[str]:
        return self.failures[0] if self.failures else None


def verify_presentation(
    D: DgaSpec,
    P: PresentedAlgebra,
    gen_map: Mapping[str, GPolynomial],
) -> VerificationReport:
    """Certify that P presents the cohomology ring of D up to the cap.

    Passes iff every generator of P maps to a cocycle of its own degree,
    every relation of P maps into im(d) + ideal, and the graded dimensions
    of P agree with the computed ranks degree by degree.
    """
    failures: list[str] = []
    table = P.table
    for i, name in enumerate(table.names):
        img = gen_map.get(name)
        if img is None:
            failures.append(f"no image for generator {name}")
            continue
        if img.table != D.table:
            raise TableMismatchError(f"image of {name} is over the wrong table")
        if img.is_zero:
            continue
        if not img.is_homogeneous or img.degree() != table.degrees[i]:
            failures.append(
                f"generator {name}: image degree {img.degree()} != "
                f"{table.degrees[i]}"
            )
            continue
        if _d_residue(D, integer_row(img.terms)[1].items())[1]:
            failures.append(f"image of generator {name} is not a cocycle")
    if failures:
        return VerificationReport(False, tuple(failures))

    # a nonzero image of a relation has the relation's degree
    degrees = {rel.degree() for rel in P.relations}
    ranks, boundaries = {}, {}
    for q, rank, below, _ in _stream(D):
        ranks[q] = rank
        if q in degrees:
            boundaries[q] = below
    for rel in P.relations:
        image = substitute(rel, gen_map, D.table)
        if image.is_zero:
            continue
        q = image.degree()
        if q > D.degree_cap:
            continue
        frame = D.algebra.graded_basis(q)
        _, residue = frame.reducer.residue(integer_row(image.terms)[1])
        if not boundaries[q].member(residue):
            failures.append(
                f"relation {rel.to_text()} does not map into im(d) + ideal"
            )
            break

    dims = []
    for q in range(D.degree_cap + 1):
        dp = P.quotient_dimension(q)
        dm = ranks[q]
        dims.append((q, dp, dm))
        if dp != dm:
            failures.append(f"degree {q}: presentation dim {dp} != model rank {dm}")
            break
    return VerificationReport(not failures, tuple(failures), tuple(dims))
