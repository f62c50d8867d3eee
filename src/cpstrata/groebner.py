"""Groebner bases of homogeneous ideals in a graded-commutative ring.

Each PresentedAlgebra keeps one basis of its ideal and completes it one
degree at a time as its graded frames are built: homogeneous Buchberger,
cut off at the highest frame built so far.  The monomial order is the
frames' own, ascending lex on exponent tuples within a degree, so the
leading monomial LM of a polynomial is its largest frame index (the pivot
SparseReducer clears first), and LM(g * s) = LM(g) * s whenever that
product is nonzero.

The ring is free graded-commutative, truncated by its exponent caps (odd
generators square to zero).  Besides Buchberger's pairs, that truncation
gives each leading monomial one more syzygy per capped generator it
contains: with exponent e of a generator x of cap c, the product by
x^(c+1-e) kills it (Stokes, J. Automated Reasoning 6, 1990).  The
coprime-leading-monomial criterion fails here, with odd and nilpotent
generators alike, so every pair is reduced.

The leading monomials of the ideal in degree q are those of degree
q - deg x times x, for each generator x, plus those of the basis elements
found in degree q; the complement is the rest, the standard monomials.
Each ideal monomial mu keeps the index of one element g whose leading
monomial divides it, and the echelon row g * (mu / LM g) is built only
when a residue first needs it.  Which g supplies mu changes only
intermediate integers: SparseReducer normalises by positive scale, and
the complement and every residue depend only on the ideal and the order.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Iterator, Mapping

from .gradedalg import (
    GeneratorTable,
    GPolynomial,
    GradedBasis,
    Monomial,
    SparseReducer,
    _merge_monomials,
    integer_row,
    monomials_of_degree,
)

Terms = tuple[tuple[Monomial, int], ...]


def _times(table: GeneratorTable, terms: Terms, shift: Monomial, index: Mapping) -> dict:
    """The integer row of terms * shift, keyed by frame monomial index."""
    # distinct terms give distinct products, so nothing cancels
    row = {}
    for mono, c in terms:
        merged = _merge_monomials(table, mono, shift)
        if merged is not None:
            row[index[merged[1]]] = merged[0] * c
    return row


class _PivotRows(dict):
    """A frame's echelon rows by pivot, each built on its first lookup."""

    __slots__ = ("basis", "lead", "monomials", "index")

    def __init__(self, basis: "GroebnerBasis", lead: dict, monomials, index):
        super().__init__()
        self.basis, self.lead, self.monomials, self.index = basis, lead, monomials, index

    def __missing__(self, c: int) -> dict:
        lm, terms = self.basis.elements[self.lead[c]]
        shift = tuple(map(sub, self.monomials[c], lm))
        row = self[c] = SparseReducer._primitive(
            _times(self.basis.table, terms, shift, self.index)
        )
        return row


class GroebnerBasis:
    """The Groebner basis of one algebra's ideal, completed degree by degree.

    elements holds (leading monomial, integer terms) per basis element,
    primitive with a positive leading coefficient.  Syzygies not yet
    reduced wait in _pending by degree as index pairs (j, k): elements j
    and k when k >= 0, else element j times the power of generator ~k that
    kills its leading monomial.  Nothing here refers to a frame, so the
    frames, which refer to the basis, make no cycle.
    """

    def __init__(self, table: GeneratorTable, relations: Iterable[GPolynomial]):
        self.table = table
        self.elements: list[tuple[Monomial, Terms]] = []
        # degree -> integer terms of the input relations of that degree
        self._relations: dict[int, list[Terms]] = {}
        for r in relations:
            terms = tuple(integer_row(r.terms)[1].items())
            self._relations.setdefault(r.degree(), []).append(terms)
        self._pending: dict[int, list[tuple[int, int]]] = {}

    def frame(self, q: int, frames: Mapping[int, GradedBasis]) -> GradedBasis:
        """The degree-q frame; frames must hold every frame below q."""
        table = self.table
        monos = monomials_of_degree(table, q)
        index = {m: i for i, m in enumerate(monos)}
        lead: dict[int, int] = {}  # leading monomial's index -> element
        for i, (d, cap) in enumerate(zip(table.degrees, table._caps)):
            below = frames.get(q - d)
            if below is None:
                continue
            for c, k in below.reducer.pivots.items():
                m = below.monomials[c]
                if cap is None or m[i] < cap:
                    lead.setdefault(index[m[:i] + (m[i] + 1,) + m[i + 1 :]], k)
        rows = _PivotRows(self, lead, monos, index)
        reducer = SparseReducer(lead, rows)
        for terms, shift in self._candidates(q):
            _, r = reducer.residue(_times(table, terms, shift, index))
            if r:
                r = SparseReducer._primitive(r)
                p = max(r)
                rows[p] = r
                lead[p] = self._adjoin(q, monos[p], tuple((monos[i], v) for i, v in r.items()))
        complement = tuple(m for i, m in enumerate(monos) if i not in lead)
        return GradedBasis(q, monos, complement, len(lead), table, reducer, index)

    def _candidates(self, q: int) -> Iterator[tuple[Terms, Monomial]]:
        """(terms, shift) for every product the completion reduces in degree q:
        the input relations, both sides of each pair whose lcm has degree q,
        and the killing products of degree q."""
        table = self.table
        for terms in self._relations.pop(q, ()):
            yield terms, (0,) * table.n
        for j, k in self._pending.pop(q, ()):
            lm, terms = self.elements[j]
            if k < 0:
                i = ~k
                power = table._caps[i] + 1 - lm[i]
                yield terms, tuple(power if t == i else 0 for t in range(table.n))
            else:
                lk, tk = self.elements[k]
                top = tuple(map(max, lm, lk))
                yield terms, tuple(map(sub, top, lm))
                yield tk, tuple(map(sub, top, lk))

    def _adjoin(self, q: int, lm: Monomial, terms: Terms) -> int:
        """Append an element of degree q, leading monomial lm, and queue its
        syzygies; returns its index."""
        table = self.table
        k = len(self.elements)
        # every lcm lies above q: no earlier leading monomial divides lm
        for j, (lj, _) in enumerate(self.elements):
            top = table.monomial_degree(tuple(map(max, lm, lj)))
            self._pending.setdefault(top, []).append((j, k))
        for i, (e, cap, d) in enumerate(zip(lm, table._caps, table.degrees)):
            if e and cap is not None:
                self._pending.setdefault(q + (cap + 1 - e) * d, []).append((k, ~i))
        self.elements.append((lm, terms))
        return k
