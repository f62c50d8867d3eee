"""Finitely presented graded-commutative algebras over the rationals.

Generators carry positive degrees; odd-degree generators anticommute and
square to zero, even ones are central, and optional nilpotence bounds model
truncated polynomial rings.  Polynomials are sparse rational combinations
of monomials, and every per-degree question (basis of the quotient, ideal
membership, canonical representatives) is answered by exact integer row
reduction in the frame of that degree.  A frame lists the standard
monomials of its degree for the Groebner basis each algebra keeps (module
groebner).

A monomial is one int, its packed exponent vector (GeneratorTable._pack),
everywhere: in GPolynomial.terms, frames, the Groebner basis and the
differential.  Generator 0 takes the top bit field, so ascending ints are
ascending lex order; each field has a guard bit, so a product
(GeneratorTable._product) is one addition and one mask test against the
caps, and its Koszul sign is a bit count over the odd generators' bits
(_koszul).  No polynomial is built from exponent tuples: zero, constant,
generator and from_word start one, arithmetic grows it, and only text and
substitution unpack.

Rows are ints in and out of SparseReducer.  A polynomial or other rational
row becomes one in a single step, integer_row, which scales it by the lcm
of its denominators; Fractions appear again only where a polynomial is
returned.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .lattice import exact_ints, exact_rationals

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_ZERO = Fraction(0)
# the field of an uncapped generator: 15 exponent bits and a guard bit
_FREE_MAX = (1 << 15) - 1


class TableMismatchError(ValueError):
    """Operands built over different generator tables."""


class InhomogeneousError(ValueError):
    """A homogeneous polynomial was required."""


@dataclass(frozen=True)
class GeneratorTable:
    """Ordered generators with degrees and optional nilpotence bounds.

    The order is the normal form: a monomial's exponents are packed
    generator by generator, the first in the top field.  A nilpotence
    bound k means the k-th power vanishes; odd generators implicitly carry
    bound 2, and an unbounded exponent packs up to _FREE_MAX.
    """

    names: tuple[str, ...]
    degrees: tuple[int, ...]
    nilpotence: tuple[Optional[int], ...]
    # Derived once in __init__ for the monomial kernel, and not fields, so
    # equality and hash ignore them: each generator's exponent cap (None if
    # unbounded) and odd flag, and the packing: each field's shift, mask and
    # unit, the bias that lifts a capped field past its cap onto its guard
    # bit, the guard bits of the capped and of the uncapped fields, the odd
    # fields' exponent bits, and the generator whose field holds each bit;
    # and the top degree through which every monomial packs (inf when every
    # exponent is capped).

    def __init__(
        self,
        names: Sequence[str],
        degrees: Sequence[int],
        nilpotence: Optional[Sequence[Optional[int]]] = None,
    ):
        names = tuple(names)
        degrees = exact_ints(degrees, "generator degree")
        nil = tuple(nilpotence) if nilpotence is not None else (None,) * len(names)
        exact_ints([b for b in nil if b is not None], "nilpotence bound")
        if len(names) != len(degrees) or len(names) != len(nil):
            raise ValueError("names, degrees, and nilpotence must align")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"unusable generator name {name!r}")
        if any(d <= 0 for d in degrees):
            raise ValueError("generator degrees must be positive")
        if any(b is not None and b < 1 for b in nil):
            raise ValueError("nilpotence bounds must be >= 1")
        odd = tuple(d % 2 == 1 for d in degrees)
        caps = []
        for odd_gen, bound in zip(odd, nil):
            cap = None if bound is None else bound - 1
            if odd_gen:
                cap = 1 if cap is None else min(cap, 1)
            caps.append(cap)
        # fields from the last generator up; a capped field holds 2 * cap
        # plus its bias without a carry out
        shifts, masks, bias, guard, free, width = [], [], 0, 0, 0, 0
        for cap in reversed(caps):
            w = (_FREE_MAX if cap is None else cap).bit_length() + 1
            shifts.append(width)
            masks.append((1 << w) - 1)
            if cap is None:
                free += 1 << (width + w - 1)
            else:
                bias += ((1 << (w - 1)) - 1 - cap) << width
                guard += 1 << (width + w - 1)
            width += w
        shifts.reverse()
        masks.reverse()
        self.__dict__.update(
            names=names,
            degrees=degrees,
            nilpotence=nil,
            _caps=tuple(caps),
            _odd=odd,
            _shifts=tuple(shifts),
            _masks=tuple(masks),
            _units=tuple(1 << s for s in shifts),
            _bias=bias,
            _guard=guard,
            _free_guard=free,
            _odd_bits=sum(1 << s for s, o in zip(shifts, odd) if o),
            _owner=tuple(j for j in reversed(range(len(names))) for _ in range(masks[j].bit_length())),
            _packs_through=min(
                (d * (_FREE_MAX + 1) - 1 for d, cap in zip(degrees, caps) if cap is None), default=inf
            ),
        )

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}") from None

    def monomial_degree(self, key: int) -> int:
        """The degree of a packed monomial, from its set fields only."""
        owner, shifts, degrees = self._owner, self._shifts, self.degrees
        degree = 0
        while key:
            j = owner[key.bit_length() - 1]
            shift = shifts[j]
            degree += (key >> shift) * degrees[j]
            key &= (1 << shift) - 1
        return degree

    def monomial_text(self, key: int) -> str:
        factors = []
        for name, e in zip(self.names, self._unpack(key)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"

    # ---- packed monomials

    def _check_degree(self, q: int) -> None:
        """Raise ValueError unless every monomial of degree q packs."""
        if q > self._packs_through:
            for name, d, cap in zip(self.names, self.degrees, self._caps):
                if cap is None and q // d > _FREE_MAX:
                    raise ValueError(
                        f"degree {q} is out of range: exponents of {name} "
                        f"pack only up to {_FREE_MAX}"
                    )

    def _pack(self, mono: Monomial) -> int:
        return sum(e << s for e, s in zip(mono, self._shifts))

    def _unpack(self, key: int) -> Monomial:
        return tuple((key >> s) & f for s, f in zip(self._shifts, self._masks))

    def _product(self, a: int, b: int) -> Optional[tuple[int, int]]:
        """(a * b, 1 if its sign is -1 else 0), or None when a cap kills it;
        ValueError when an uncapped exponent leaves its field."""
        m = a + b
        if (m + self._bias) & self._guard:
            return None
        if m & self._free_guard:
            for name, e, cap in zip(self.names, self._unpack(m), self._caps):
                if cap is None and e > _FREE_MAX:
                    raise ValueError(f"exponent {e} of {name} exceeds {_FREE_MAX}, the most that packs")
        return m, (b & self._koszul(a)).bit_count() & 1

    def _koszul(self, key: int) -> int:
        """The odd bits above an odd number of key's odd bits: key * b has
        sign (-1) ** (b & mask).bit_count(), as a later generator sits lower.
        """
        odd = key & self._odd_bits
        mask, step = 0, -2
        while odd:
            low = odd & -odd
            mask += step * low  # the runs (p1, p2], (p3, p4], ... of set bits
            step = -step
            odd ^= low
        return mask & self._odd_bits


class GPolynomial:
    """Sparse polynomial: exact rational coefficients keyed by packed monomial."""

    __slots__ = ("table", "terms")

    # ---- constructors

    def __init__(self, *args, **kwargs):
        raise TypeError("GPolynomial has no public constructor: use zero, constant, generator or from_word")

    @classmethod
    def _wrap(cls, table: GeneratorTable, terms: dict[int, Fraction]) -> "GPolynomial":
        """Adopt terms that are already valid, unchecked.

        Only for products of valid monomials or terms of existing
        polynomials, with nonzero Fraction coefficients.
        """
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    @classmethod
    def zero(cls, table: GeneratorTable) -> "GPolynomial":
        return cls._wrap(table, {})

    @classmethod
    def constant(cls, table: GeneratorTable, value) -> "GPolynomial":
        (c,) = exact_rationals((value,), "coefficient")
        return cls._wrap(table, {0: c} if c else {})  # 0 packs the empty monomial

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "GPolynomial":
        return cls.from_word(table, [name])

    @classmethod
    def from_word(cls, table: GeneratorTable, word: Sequence[str]) -> "GPolynomial":
        """The product of the named generators in word order, sorted into
        table order with its Koszul sign; zero when a cap kills it.  Every
        name is checked, also after the word has died."""
        key, sign = 0, 1
        for unit in [table._units[table.index(symbol)] for symbol in word]:
            product = table._product(key, unit)
            if product is None:
                return cls.zero(table)
            key, odd = product
            sign = -sign if odd else sign
        return cls._wrap(table, {key: Fraction(sign)})

    # ---- structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_homogeneous(self) -> bool:
        return len({self.table.monomial_degree(m) for m in self.terms}) <= 1

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous polynomial; None for zero."""
        degs = {self.table.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousError(f"mixed degrees {sorted(degs)} in {self.to_text()}")
        return degs.pop()

    def _check(self, other: "GPolynomial") -> None:
        if self.table != other.table:
            raise TableMismatchError("polynomials over different generator tables")

    # ---- arithmetic

    def __add__(self, other: "GPolynomial") -> "GPolynomial":
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, _ZERO) + c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return GPolynomial._wrap(self.table, out)

    def __sub__(self, other: "GPolynomial") -> "GPolynomial":
        return self + (-other)

    def __neg__(self) -> "GPolynomial":
        return GPolynomial._wrap(self.table, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GPolynomial):
            (f,) = exact_rationals((other,), "scalar")
            terms = {m: c * f for m, c in self.terms.items()} if f else {}
            return GPolynomial._wrap(self.table, terms)
        self._check(other)
        product = self.table._product
        out: dict[int, Fraction] = {}
        for a, c1 in self.terms.items():
            for b, c2 in other.terms.items():
                ab = product(a, b)
                if ab is None:
                    continue
                m, odd = ab
                v = c1 * c2
                s = out.get(m, _ZERO) + (-v if odd else v)
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return GPolynomial._wrap(self.table, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GPolynomial)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.table, tuple(sorted(self.terms.items()))))

    # ---- display

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            body = self.table.monomial_text(mono)
            if body == "1":
                mag = str(abs(c))
            elif abs(c) == 1:
                mag = body
            else:
                mag = f"{abs(c)}*{body}"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f" + {mag}" if c > 0 else f" - {mag}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<GPolynomial {self.to_text()}>"


def integer_row(row: Mapping) -> tuple[int, dict]:
    """(m, m * row) for m the lcm of the denominators of a row of nonzero
    int or Fraction entries: the one step from rationals to integer rows."""
    mult = lcm(*(v.denominator for v in row.values()))
    return mult, {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


class SparseReducer:
    """Exact row reduction over integer rows keyed by orderable column labels.

    Rows are dicts of nonzero ints, in and out; integer_row turns a rational
    row into one.  A row's pivot is its largest column.  Stored rows are
    primitive (gcd 1, positive pivot entry); elimination against a pivot
    cross-multiplies only when the pivot entry does not divide the entry it
    clears, fraction-free in the manner of Bareiss (Math. Comp. 22, 1968).
    The caller's rows are never modified.  A graded frame passes rows that
    hold every monomial but its standard ones, built on first lookup.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Optional[dict] = None):
        self.rows: dict = {} if rows is None else rows  # pivot column -> primitive integer row

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _primitive(row: dict) -> dict:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        if row[max(row)] < 0:
            row = {c: -v for c, v in row.items()}
        return row

    @staticmethod
    def _clear(r: dict, pivot_row: dict, c) -> int:
        """Cancel entry c of the integer row r against pivot_row, in place.

        Returns the factor r was scaled by first: 1 when the pivot entry
        (positive) divides r[c], else the pivot entry itself.
        """
        a, b = pivot_row[c], r[c]
        f, rem = divmod(b, a)
        if rem:
            for k in r:
                r[k] *= a
            f = b
        for k, v in pivot_row.items():
            s = r.get(k, 0) - f * v
            if s:
                r[k] = s
            else:
                del r[k]
        return a if rem else 1

    def insert(self, row: Mapping[object, int]):
        """Reduce the row and adjoin it; returns its pivot, or None if dependent."""
        r = dict(row)
        while r:
            p = max(r)
            existing = self.rows.get(p)
            if existing is None:
                self.rows[p] = self._primitive(r)
                return p
            # a positive rescaling of r leaves the stored primitive row as is
            self._clear(r, existing, p)
        return None

    def residue(self, row: Mapping[object, int]) -> tuple[int, dict]:
        """(den, r): the row modulo the row space is r / den, with den > 0.

        Pivot columns are cleared from the largest down; r / den is the
        unique coset member supported on pivot-free columns.  den grows only
        when a pivot entry does not divide the entry it clears.  A pivot row
        of one entry (a monomial of a frame's ideal) is {c: 1}, so clearing
        against it deletes entry c and touches nothing else.

        Each column is tested for a pivot once, when it enters r: the hits
        wait in an ascending worklist, popped from the top.  A clear at c
        brings in only columns below c, the largest entry of its pivot row,
        so only those new to r are pushed, and a popped column that has
        cancelled meanwhile is skipped.
        """
        den, r = 1, dict(row)
        rows = self.rows
        hits = sorted(c for c in r if c in rows)
        while hits:
            c = hits.pop()
            if c not in r:
                continue
            pivot_row = rows[c]
            if len(pivot_row) == 1:
                del r[c]
                continue
            new = [k for k in pivot_row if k not in r and k in rows]
            den *= self._clear(r, pivot_row, c)
            for k in new:
                insort(hits, k)
        return den, r

    def member(self, row: Mapping[object, int]) -> bool:
        return not self.residue(row)[1]


@dataclass(frozen=True)
class GradedBasis:
    """Degree-q linear data of a presented algebra.

    monomials: the packed standard monomials of degree q, ascending, which
    lead no element of the ideal: a basis of the quotient in degree q.
    ideal_dimension is dim I_q, counted, not enumerated.  A vector of the
    quotient is a sparse integer row keyed by packed monomials, up to a
    positive scale; reducer.residue gives its normal form, supported on
    the standard monomials, and builds the echelon row of each ideal
    monomial it meets on first use (module groebner).
    """

    degree: int
    monomials: tuple[int, ...]
    ideal_dimension: int
    reducer: SparseReducer = field(compare=False, repr=False)

    @property
    def quotient_dimension(self) -> int:
        return len(self.monomials)


class PresentedAlgebra:
    """Graded-commutative algebra given by generators and homogeneous relations."""

    def __init__(self, table: GeneratorTable, relations: Iterable[GPolynomial] = ()):
        rels = []
        for r in relations:
            if r.table != table:
                raise TableMismatchError("relation over a different generator table")
            if r.is_zero:
                continue
            if not r.is_homogeneous:
                raise InhomogeneousError(f"relation {r.to_text()} is not homogeneous")
            rels.append(r)
        self.table = table
        self.relations = tuple(rels)
        from .groebner import GroebnerBasis  # here: groebner builds on this module

        self._basis = GroebnerBasis(table, rels)
        self._frames: dict[int, GradedBasis] = {}

    def graded_basis(self, q: int) -> GradedBasis:
        frame = self._frames.get(q)
        if frame is None:
            # not thread-safe: every new frame extends the one basis that
            # all frames share
            frame = self._build_frame(q)
            if q >= 0:  # an empty frame below degree 0 is not kept
                self._frames[q] = frame
        return frame

    def _build_frame(self, q: int) -> GradedBasis:
        self.table._check_degree(q)
        # in increasing degree: a frame takes standard monomials from below,
        # and the frames kept are those of degrees 0 .. len - 1
        for p in range(len(self._frames), q):
            self.graded_basis(p)
        return self._basis.frame(q, self._frames)

    def quotient_dimension(self, q: int) -> int:
        return self.graded_basis(q).quotient_dimension

    def ideal_member(self, p: GPolynomial) -> bool:
        if p.table != self.table:
            raise TableMismatchError("polynomial over a different generator table")
        if p.is_zero:
            return True
        frame = self.graded_basis(p.degree())  # raises InhomogeneousError on mixed input
        return frame.reducer.member(integer_row(p.terms)[1])


# ---------------------------------------------------------------------------
# JSON presentation


def algebra_to_json(algebra: PresentedAlgebra) -> dict:
    gens = []
    for name, deg, nil in zip(
        algebra.table.names, algebra.table.degrees, algebra.table.nilpotence
    ):
        entry: dict = {"name": name, "degree": deg}
        if nil is not None:
            entry["nilpotence"] = nil
        gens.append(entry)
    return {
        "generators": gens,
        "relations": [r.to_text() for r in algebra.relations],
    }
