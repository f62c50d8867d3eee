"""Groebner bases of homogeneous ideals in a graded-commutative ring.

Each PresentedAlgebra keeps one basis of its ideal and completes it one
degree at a time as its graded frames are built: homogeneous Buchberger,
cut off at the highest frame built so far.  Monomials are packed ints
(GeneratorTable._pack) and the monomial order is ascending int, which is
lex on exponent tuples, so the leading monomial LM of a polynomial is its
largest key (the pivot SparseReducer clears first), and LM(g * s) =
LM(g) * s whenever that product is nonzero.

The ring is free graded-commutative, truncated by its exponent caps (odd
generators square to zero).  Besides Buchberger's pairs, that truncation
gives each leading monomial one more syzygy per capped generator it
contains: with exponent e of a generator x of cap c, the product by
x^(c+1-e) kills it (Stokes, J. Automated Reasoning 6, 1990).  The
coprime-leading-monomial criterion fails here, with odd and nilpotent
generators alike, so every pair is reduced.

A frame lists only the standard monomials of its degree q.  Each is
m = s * x for x its last generator and s standard in degree q - deg x; it
is kept when every m / x_j is standard one generator down, and it leads no
basis element found in degree q.  Any other monomial that a residue meets is an
ideal monomial mu.  It takes its supplier g, a basis element whose leading
monomial divides it, from the first generator x_j whose quotient mu / x_j
is an ideal monomial, and its echelon row g * (mu / LM g) is built on first
use.  Which g supplies mu changes only intermediate integers: the standard
monomials and every residue depend only on the ideal and the order.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, Mapping

from .gradedalg import (
    GeneratorTable,
    GPolynomial,
    GradedBasis,
    Monomial,
    SparseReducer,
    integer_row,
)

# per term: packed monomial, integer coefficient, Koszul mask
Terms = tuple[tuple[int, int, int], ...]


def _terms(table: GeneratorTable, items: Iterable[tuple[int, int]]) -> Terms:
    return tuple((k, c, table._koszul(k)) for k, c in items)


def _times(table: GeneratorTable, terms: Terms, shift: int) -> dict:
    """The integer row of terms * shift, keyed by packed monomial."""
    # distinct terms give distinct products, so nothing cancels
    bias, guard = table._bias, table._guard
    row = {}
    for t, c, mask in terms:
        m = t + shift
        if not (m + bias) & guard:
            row[m] = -c if (shift & mask).bit_count() & 1 else c
    return row


def _support(units: tuple[int, ...], owner: list[int], key: int) -> list[int]:
    """The generators of a packed monomial, ascending; owner maps a bit to
    the generator whose field holds it."""
    out = []
    while key:
        j = owner[key.bit_length() - 1]
        out.append(j)
        key &= units[j] - 1
    return out


def _ambient_counts(table: GeneratorTable, length: int) -> list[int]:
    """The numbers of monomials of degrees 0 .. length - 1, from the
    generating function prod 1/(1 - t^d), times (1 - t^((c+1) d)) per cap c."""
    counts = [1] + [0] * (length - 1)
    for d, cap in zip(table.degrees, table._caps):
        for r in range(d, length):
            counts[r] += counts[r - d]
        if cap is not None:
            step = (cap + 1) * d
            for r in range(length - 1, step - 1, -1):
                counts[r] -= counts[r - step]
    return counts


class _Ideal(dict):
    """A frame's echelon rows by ideal monomial, each built on its first lookup.

    standard is the frame's set of standard monomials, lead maps an ideal
    monomial to the basis element that supplies it, and below holds per
    generator x the _Ideal of the frame deg x lower (None below degree 0).
    As the rows of the frame's SparseReducer it holds a pivot at every
    monomial that is not standard, so the reducer's own residue clears
    against it.
    """

    __slots__ = ("basis", "standard", "lead", "below")

    def __init__(self, basis: "GroebnerBasis", standard: set, below: tuple):
        super().__init__()
        self.basis, self.standard, self.lead, self.below = basis, standard, {}, below

    def supplier(self, mu: int) -> int:
        """The basis element that supplies the ideal monomial mu: mu / x_j's,
        for x_j the first generator whose quotient is an ideal monomial,
        down to a monomial whose supplier is known; cached along the way."""
        basis, ideal, path = self.basis, self, []
        units = basis.table._units
        while True:
            k = ideal.lead.get(mu)
            if k is not None:
                break
            path.append((ideal.lead, mu))
            for j in _support(units, basis._owner, mu):
                lower = mu - units[j]
                if lower not in ideal.below[j].standard:
                    ideal, mu = ideal.below[j], lower
                    break
        for lead, m in path:
            lead[m] = k
        return k

    def __contains__(self, mu) -> bool:
        return mu not in self.standard

    def __missing__(self, mu: int) -> dict:
        lm, terms = self.basis.elements[self.supplier(mu)]
        row = self[mu] = SparseReducer._primitive(_times(self.basis.table, terms, mu - lm))
        return row


class GroebnerBasis:
    """The Groebner basis of one algebra's ideal, completed degree by degree.

    elements holds (leading monomial, Terms) per basis element, primitive
    with a positive leading coefficient.  Syzygies not yet reduced wait in
    _pending by degree as index pairs (j, k): elements j and k when k >= 0,
    else element j times the power of generator ~k that kills its leading
    monomial.  Nothing here refers to a frame, so the frames, which refer
    to the basis, make no cycle.
    """

    def __init__(self, table: GeneratorTable, relations: Iterable[GPolynomial]):
        self.table = table
        self.elements: list[tuple[int, Terms]] = []
        self._exponents: list[Monomial] = []  # the elements' leading monomials, unpacked
        # degree -> integer terms of the input relations of that degree
        self._relations: dict[int, list] = {}
        for r in relations:
            self._relations.setdefault(r.degree(), []).append(integer_row(r.terms)[1])
        self._pending: dict[int, list[tuple[int, int]]] = {}
        self._owner = [j for j in reversed(range(table.n)) for _ in range(table._masks[j].bit_length())]
        self._by_degree: dict[int, list[int]] = {}
        self._ambient: list[int] = []  # monomial counts by degree, from 0
        for i, d in enumerate(table.degrees):
            self._by_degree.setdefault(d, []).append(i)

    def frame(self, q: int, frames: Mapping[int, GradedBasis]) -> GradedBasis:
        """The degree-q frame; frames must hold every frame below q."""
        table, units = self.table, self.table._units
        bias, guard = table._bias, table._guard
        below = tuple(frames[q - d].reducer.rows if d <= q else None for d in table.degrees)
        stds = [None if b is None else b.standard for b in below]
        standard = {0} if q == 0 else set()
        # each candidate m = s * x_i once, x_i its last generator; it is
        # kept when every m / x_j is standard, and dropped below if it leads
        # a basis element found in degree q
        for d, gens in self._by_degree.items():
            if d > q:
                continue
            for s in frames[q - d].monomials:
                support = _support(units, self._owner, s)
                last = support[-1] if support else -1
                for i in gens:
                    if i < last:
                        continue
                    m = s + units[i]
                    if (m + bias) & guard:
                        continue
                    for j in support:
                        if j != i and m - units[j] not in stds[j]:
                            break
                    else:
                        standard.add(m)
        rows = _Ideal(self, standard, below)
        reducer = SparseReducer(rows)
        for terms, shift in self._candidates(q):
            _, r = reducer.residue(_times(table, terms, shift))
            if r:
                r = SparseReducer._primitive(r)
                p = max(r)
                rows[p] = r
                standard.discard(p)
                rows.lead[p] = self._adjoin(q, p, tuple(r.items()))
        monomials = tuple(sorted(standard))
        return GradedBasis(q, monomials, self._ambient_count(q) - len(monomials), reducer)

    def _ambient_count(self, q: int) -> int:
        """The number of monomials of degree q, read off a kept series that
        is recomputed to twice its length when q passes it."""
        if q < 0:
            return 0
        if q >= len(self._ambient):
            self._ambient = _ambient_counts(self.table, max(q + 1, 2 * len(self._ambient)))
        return self._ambient[q]

    def _candidates(self, q: int) -> Iterator[tuple[Terms, int]]:
        """(terms, shift) for every product the completion reduces in degree q:
        the input relations, both sides of each pair whose lcm has degree q,
        and the killing products of degree q."""
        table = self.table
        for row in self._relations.pop(q, ()):
            yield _terms(table, row.items()), 0
        for j, k in self._pending.pop(q, ()):
            lm, terms = self.elements[j]
            if k < 0:
                i = ~k
                power = table._caps[i] + 1 - self._exponents[j][i]
                yield terms, power << table._shifts[i]
            else:
                lk, tk = self.elements[k]
                top = table._pack(tuple(map(max, self._exponents[j], self._exponents[k])))
                yield terms, top - lm
                yield tk, top - lk

    def _adjoin(self, q: int, lm: int, terms: tuple[tuple[int, int], ...]) -> int:
        """Append an element of degree q, leading monomial lm, and queue its
        syzygies; returns its index."""
        table = self.table
        k = len(self.elements)
        exponents = table._unpack(lm)
        # every lcm lies above q: no earlier leading monomial divides lm
        for j, other in enumerate(self._exponents):
            top = sum(map(mul, map(max, exponents, other), table.degrees))
            self._pending.setdefault(top, []).append((j, k))
        for i, (e, cap, d) in enumerate(zip(exponents, table._caps, table.degrees)):
            if e and cap is not None:
                self._pending.setdefault(q + (cap + 1 - e) * d, []).append((k, ~i))
        self._exponents.append(exponents)
        self.elements.append((lm, _terms(table, terms)))
        return k
