"""Finitely presented graded-commutative algebras over the rationals.

Generators carry positive degrees; odd-degree generators anticommute and
square to zero, even ones are central, and optional nilpotence bounds model
truncated polynomial rings.  Monomials are exponent tuples in table order,
polynomials are sparse rational combinations, and every per-degree question
(basis of the quotient, ideal membership, canonical representatives) is
answered by exact integer row reduction over the finite monomial basis of
that degree.  No Groebner machinery: all computations live below a small
degree cap, where spanning sets {relation x monomial} are already complete.

Monomials are validated once, where they enter from outside (the public
GPolynomial constructor, parse, from_word).  Inside, the monomial kernel
_merge_monomials multiplies two valid monomials against the exponent caps
and odd flags the GeneratorTable computed at construction, so its result is
valid by construction: products, sums and negations wrap their terms
without re-checking them, and a graded frame inserts each {relation x
monomial} product as an integer row of monomial indices without building
a polynomial at all.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Union

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_ZERO = Fraction(0)


class TableMismatchError(ValueError):
    """Operands built over different generator tables."""


class InhomogeneousError(ValueError):
    """A homogeneous polynomial was required."""


@dataclass(frozen=True)
class GeneratorTable:
    """Ordered generators with degrees and optional nilpotence bounds.

    The order is the normal form: monomials list exponents generator by
    generator.  A nilpotence bound k means the k-th power vanishes; odd
    generators implicitly carry bound 2.
    """

    names: tuple[str, ...]
    degrees: tuple[int, ...]
    nilpotence: tuple[Optional[int], ...]
    # Derived once from the three fields above, for the monomial kernel:
    # each generator's exponent cap (None if unbounded) and odd flag, and
    # the odd generator indices in descending order.
    _caps: tuple[Optional[int], ...] = field(init=False, repr=False, compare=False)
    _odd: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _odd_descending: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        names: Sequence[str],
        degrees: Sequence[int],
        nilpotence: Optional[Sequence[Optional[int]]] = None,
    ):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        nil = tuple(nilpotence) if nilpotence is not None else (None,) * len(names)
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
        for is_odd, bound in zip(odd, nil):
            cap = None if bound is None else bound - 1
            if is_odd:
                cap = 1 if cap is None else min(cap, 1)
            caps.append(cap)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "nilpotence", nil)
        object.__setattr__(self, "_caps", tuple(caps))
        object.__setattr__(self, "_odd", odd)
        object.__setattr__(
            self, "_odd_descending", tuple(i for i in reversed(range(len(odd))) if odd[i])
        )

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}") from None

    def is_odd(self, i: int) -> bool:
        return self._odd[i]

    def max_exponent(self, i: int) -> Optional[int]:
        """Largest allowed exponent for generator i, or None if unbounded."""
        return self._caps[i]

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def validate_monomial(self, mono: Monomial) -> None:
        if len(mono) != self.n:
            raise ValueError(f"monomial length {len(mono)} != {self.n} generators")
        for i, (e, cap) in enumerate(zip(mono, self._caps)):
            if e < 0:
                raise ValueError("negative exponent")
            if cap is not None and e > cap:
                raise ValueError(
                    f"exponent {e} of {self.names[i]} exceeds its nilpotence bound"
                )

    def monomial_text(self, mono: Monomial) -> str:
        factors = []
        for name, e in zip(self.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"


@lru_cache(maxsize=None)
def monomials_of_degree(table: GeneratorTable, q: int) -> tuple[Monomial, ...]:
    """All normal-form monomials of total degree q, ascending lexicographic."""
    if q < 0:
        return ()
    # tails[r]: the monomials of degree r <= q in the generators taken so
    # far, from the last one back; each list stays ascending because the
    # exponent of the generator just taken is the outer loop
    tails: dict[int, list[Monomial]] = {0: [()]}
    for d, cap in zip(reversed(table.degrees), reversed(table._caps)):
        top = q // d if cap is None else min(q // d, cap)
        grown: dict[int, list[Monomial]] = {}
        for e in range(top + 1):
            for r, rests in tails.items():
                if r + e * d <= q:
                    grown.setdefault(r + e * d, []).extend([(e,) + rest for rest in rests])
        tails = grown
    return tuple(tails.get(q, ()))


def normal_form(
    table: GeneratorTable, word: Sequence[str], sign: int = 1
) -> Optional[tuple[int, Monomial]]:
    """Sort a generator word into table order with the Koszul sign.

    Returns (sign, monomial), or None when the word dies (an odd generator
    repeats, or a nilpotence bound is exceeded).  Each transposition of two
    odd-degree generators flips the sign; even generators move freely.
    """
    counts = [0] * table.n
    inversions = 0
    odd_seen: list[int] = []
    for symbol in word:
        i = table.index(symbol)
        if table.is_odd(i):
            inversions += sum(1 for j in odd_seen if j > i)
            odd_seen.append(i)
        counts[i] += 1
    for i, e in enumerate(counts):
        cap = table.max_exponent(i)
        if cap is not None and e > cap:
            return None
    return (sign * (-1 if inversions % 2 else 1), tuple(counts))


def _merge_monomials(
    table: GeneratorTable, m1: Monomial, m2: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Product of two normal monomials: combined exponents and Koszul sign.

    Returns None when an exponent passes its cap, so a returned monomial is
    valid whenever m1 and m2 are.  The sign is the parity of the pairs of
    odd generators that the merge swaps: one of m2 and one of m1 with a
    larger index.  A single pass down the odd indices counts them.
    """
    merged = tuple(map(add, m1, m2))
    for e, cap in zip(merged, table._caps):
        if cap is not None and e > cap:
            return None
    parity = above = 0  # above: parity of m1's odd generators seen so far
    for i in table._odd_descending:
        if m2[i]:
            parity ^= above
        if m1[i]:
            above ^= 1
    return (-1 if parity else 1, merged)


class GPolynomial:
    """Sparse polynomial: normal-form monomials with exact rational coefficients."""

    __slots__ = ("table", "terms")

    def __init__(
        self,
        table: GeneratorTable,
        terms: Union[Mapping[Monomial, object], Iterable[tuple[Monomial, object]]] = (),
    ):
        data: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(int(e) for e in mono)
            table.validate_monomial(mono)
            c = data.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                data[mono] = c
            elif mono in data:
                del data[mono]
        self.table = table
        self.terms = data

    # ---- constructors

    @classmethod
    def _wrap(cls, table: GeneratorTable, terms: dict[Monomial, Fraction]) -> "GPolynomial":
        """Adopt terms that are already valid, skipping the public checks.

        Only for terms built from valid monomials by _merge_monomials or
        taken from existing polynomials, with nonzero Fraction coefficients.
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
        return cls(table, [((0,) * table.n, value)])

    @classmethod
    def monomial(cls, table: GeneratorTable, mono: Monomial, coeff=1) -> "GPolynomial":
        return cls(table, [(tuple(mono), coeff)])

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "GPolynomial":
        i = table.index(name)
        return cls(table, [(tuple(1 if j == i else 0 for j in range(table.n)), 1)])

    @classmethod
    def from_word(cls, table: GeneratorTable, word: Sequence[str], coeff=1) -> "GPolynomial":
        nf = normal_form(table, word)
        if nf is None:
            return cls(table)
        sign, mono = nf
        return cls(table, [(mono, Fraction(coeff) * sign)])

    @classmethod
    def parse(cls, table: GeneratorTable, text: str) -> "GPolynomial":
        """Inverse of to_text; also accepts unsorted words like G13*G12."""
        s = text.replace(" ", "")
        if not s or s == "0":
            return cls(table)
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ValueError(f"cannot parse polynomial text {text!r}")
        terms: list[tuple[Monomial, Fraction]] = []
        for chunk in chunks:
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign, chunk = -1, chunk[1:]
            if not chunk:
                raise ValueError(f"empty term in {text!r}")
            coeff = Fraction(sign)
            word: list[str] = []
            for factor in chunk.split("*"):
                if re.fullmatch(r"\d+(/\d+)?", factor):
                    coeff *= Fraction(factor)
                    continue
                m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
                if m is None:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                word.extend([m.group(1)] * int(m.group(2) or 1))
            nf = normal_form(table, word)
            if nf is not None:
                terms.append((nf[1], coeff * nf[0]))
        return cls(table, terms)

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

    def homogeneous_part(self, q: int) -> "GPolynomial":
        return GPolynomial._wrap(
            self.table,
            {m: c for m, c in self.terms.items() if self.table.monomial_degree(m) == q},
        )

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
        if isinstance(other, GPolynomial):
            self._check(other)
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    merged = _merge_monomials(self.table, m1, m2)
                    if merged is None:
                        continue
                    sign, mono = merged
                    s = out.get(mono, _ZERO) + sign * c1 * c2
                    if s:
                        out[mono] = s
                    elif mono in out:
                        del out[mono]
            return GPolynomial._wrap(self.table, out)
        f = Fraction(other)
        if not f:
            return GPolynomial.zero(self.table)
        return GPolynomial._wrap(self.table, {m: c * f for m, c in self.terms.items()})

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


class SparseReducer:
    """Exact row reduction over integer rows keyed by orderable column labels.

    A row's pivot is its largest column.  Stored rows are primitive integer
    vectors (gcd 1, positive pivot entry); insertion eliminates against
    existing pivots with cross-multiplied integer updates, so no rationals
    appear until a residue is requested.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> primitive integer row

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

    @staticmethod
    def _integerize(row: Mapping) -> tuple[int, dict]:
        """(m, m * row) for m the lcm of the denominators of the nonzero
        int or Fraction entries; the scaled row keeps only those entries."""
        clean = [(c, v) for c, v in row.items() if v]
        mult = lcm(*(v.denominator for _, v in clean))
        return mult, {c: v.numerator * (mult // v.denominator) for c, v in clean}

    def insert(self, row: Mapping):
        """Reduce the row and adjoin it; returns its pivot, or None if dependent."""
        _, r = self._integerize(row)
        while r:
            p = max(r)
            existing = self.rows.get(p)
            if existing is None:
                self.rows[p] = self._primitive(r)
                return p
            # a positive rescaling of r leaves the stored primitive row as is
            self._clear(r, existing, p)
        return None

    def residue(self, row: Mapping) -> dict:
        """Canonical representative of the row modulo the row space.

        Pivot columns are cleared from the largest down; the result is the
        unique coset member supported on pivot-free columns.  The work is
        done on integers over one common denominator, which grows only when
        a pivot entry does not divide the entry it clears.
        """
        den, r = self._integerize(row)
        while True:
            hits = [c for c in r if c in self.rows]
            if not hits:
                return {c: Fraction(v, den) for c, v in r.items()}
            c = max(hits)
            den *= self._clear(r, self.rows[c], c)

    def member(self, row: Mapping) -> bool:
        return not self.residue(row)


@dataclass(frozen=True)
class GradedBasis:
    """Degree-q linear data of a presented algebra.

    monomials: every ambient normal-form monomial of degree q (ascending lex);
    complement: the pivot-free monomials, a basis of the quotient in degree q;
    the reducer holds the row space of {relation x monomial} products, over
    the positions that index gives each monomial in monomials.
    """

    degree: int
    monomials: tuple[Monomial, ...]
    complement: tuple[Monomial, ...]
    ideal_dimension: int
    table: GeneratorTable = field(compare=False)
    reducer: SparseReducer = field(compare=False, repr=False)
    index: Mapping[Monomial, int] = field(compare=False, repr=False)

    @property
    def quotient_dimension(self) -> int:
        return len(self.complement)

    def to_row(self, p: GPolynomial) -> dict[int, Fraction]:
        index = self.index
        row = {}
        for mono, c in p.terms.items():
            if mono not in index:
                raise InhomogeneousError(
                    f"{p.to_text()} is not homogeneous of degree {self.degree}"
                )
            row[index[mono]] = c
        return row

    def from_row(self, row: Mapping[int, Fraction]) -> GPolynomial:
        return GPolynomial(self.table, [(self.monomials[i], c) for i, c in row.items()])

    def ideal_basis(self) -> tuple[GPolynomial, ...]:
        rows = sorted(self.reducer.rows.items(), reverse=True)
        return tuple(self.from_row(r) for _, r in rows)

    def reduce(self, p: GPolynomial) -> GPolynomial:
        """Canonical representative of p in the quotient, on complement monomials."""
        return self.from_row(self.reducer.residue(self.to_row(p)))

    def coordinates(self, p: GPolynomial) -> tuple[Fraction, ...]:
        """Coefficients of reduce(p) over the complement basis."""
        return self.row_coordinates(self.to_row(p))

    def row_coordinates(self, row: Mapping[int, Fraction]) -> tuple[Fraction, ...]:
        """coordinates() of a row over the positions of monomials."""
        reduced = self.reducer.residue(row)
        index = self.index
        return tuple(reduced.get(index[m], _ZERO) for m in self.complement)

    def contains(self, p: GPolynomial) -> bool:
        return self.reduce(p).is_zero


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
        # (degree, integer terms) per relation: a frame row is a relation
        # times a monomial, and a nonzero scale leaves the reducer's
        # primitive rows unchanged
        self._relation_rows = tuple(
            (r.degree(), tuple(SparseReducer._integerize(r.terms)[1].items())) for r in rels
        )
        self._frames: dict[int, GradedBasis] = {}

    def graded_basis(self, q: int) -> GradedBasis:
        frame = self._frames.get(q)
        if frame is None:
            # setdefault keeps exactly one frame if two threads race here
            frame = self._frames.setdefault(q, self._build_frame(q))
        return frame

    def _build_frame(self, q: int) -> GradedBasis:
        table = self.table
        monos = monomials_of_degree(table, q)
        index = {m: i for i, m in enumerate(monos)}
        reducer = SparseReducer()
        for d, terms in self._relation_rows:
            if d > q:
                continue
            for shift in monomials_of_degree(table, q - d):
                # distinct terms give distinct products, so nothing cancels
                row = {}
                for mono, c in terms:
                    merged = _merge_monomials(table, mono, shift)
                    if merged is not None:
                        row[index[merged[1]]] = merged[0] * c
                if row:
                    reducer.insert(row)
        complement = tuple(m for i, m in enumerate(monos) if i not in reducer.rows)
        return GradedBasis(q, monos, complement, reducer.rank, table, reducer, index)

    def quotient_dimension(self, q: int) -> int:
        return self.graded_basis(q).quotient_dimension

    def ideal_member(self, p: GPolynomial) -> bool:
        if p.table != self.table:
            raise TableMismatchError("polynomial over a different generator table")
        if p.is_zero:
            return True
        q = p.degree()  # raises InhomogeneousError on mixed input
        return self.graded_basis(q).contains(p)

    def reduce(self, p: GPolynomial) -> GPolynomial:
        """Canonical quotient representative (degreewise) of any polynomial."""
        if p.is_zero:
            return p
        out = GPolynomial.zero(self.table)
        degs = {self.table.monomial_degree(m) for m in p.terms}
        for q in sorted(degs):
            out = out + self.graded_basis(q).reduce(p.homogeneous_part(q))
        return out


# ---------------------------------------------------------------------------
# JSON presentation files


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


def algebra_from_json(data: Mapping) -> PresentedAlgebra:
    gens = data["generators"]
    table = GeneratorTable(
        [g["name"] for g in gens],
        [g["degree"] for g in gens],
        [g.get("nilpotence") for g in gens],
    )
    relations = [GPolynomial.parse(table, text) for text in data.get("relations", [])]
    return PresentedAlgebra(table, relations)


def dump_algebra(algebra: PresentedAlgebra, path) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_json(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> PresentedAlgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))
