"""Second homology of the n-fold blow-up of CP2 and its distinguished class sets.

Classes are written a*L - sum r_i*E_i in the standard basis (L, E_1, ..., E_n),
where the intersection form is diag(+1, -1, ..., -1).  Two finite families drive
everything downstream:

* exceptional classes (E.E = -1, K.E = 1), whose strict area positivity plus the
  volume bound characterises admissible capacity vectors.  For n <= 8 they are
  one orbit, that of E_1, under the Weyl group W(E_n) (Manin, *Cubic Forms*,
  1974, ch. IV), generated by the transpositions of the E_i and the Cremona
  reflection in L - E_1 - E_2 - E_3;
* negative classes of square <= -2 drawn from the six degree-bounded shapes
  (aL with a <= 6, multiplicities in {1,2,3}), whose area signs cut the space of
  admissible capacities into stability chambers.

Both tables are computed once per n on plain int tuples (a, r_1, ..., r_n), and
an H2Element is built only for a class that is kept.  They are kept in a fixed
lexicographic order to make every downstream report reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

MAX_BLOWUPS = 8


class DimensionMismatchError(ValueError):
    """Raised when two lattice elements live over different n."""


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_BLOWUPS:
        raise ValueError(f"n must be in 1..{MAX_BLOWUPS}, got {n}")


@dataclass(frozen=True, order=True)
class H2Element:
    """a*L - sum r_i*E_i; ordering is lexicographic in (a, r) for determinism."""

    degree_a: int
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        r = self.multiplicities
        _check_n(len(r))
        exact_ints((self.degree_a, *r), "class coefficient")
        object.__setattr__(self, "multiplicities", tuple(r))  # a tuple stays the same object

    @property
    def n(self) -> int:
        return len(self.multiplicities)

    def to_text(self) -> str:
        parts = []
        if self.degree_a != 0:
            parts.append("L" if self.degree_a == 1 else f"{self.degree_a}L")
        for i, r in enumerate(self.multiplicities, start=1):
            if r == 0:
                continue
            term = f"E{i}" if abs(r) == 1 else f"{abs(r)}E{i}"
            parts.append(("- " if r > 0 else "+ ") + term)
        if not parts:
            return "0"
        text = " ".join(parts)
        if text.startswith("- "):
            return "-" + text[2:]
        if text.startswith("+ "):
            return text[2:]
        return text

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Capacities:
    """Exact rational ball capacities; all strictly positive.

    Entries pass exact_rationals, in any order; the chamber tables read
    them sorted nonincreasing.
    """

    values: tuple[Fraction, ...]
    # (m, k): m is the lcm of the denominators and k_i = m*c_i, all integers;
    # set once in __init__, and outside repr, equality and hash
    scaled: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __init__(self, values: Iterable[Fraction | int | str]) -> None:
        vals = exact_rationals(values, "capacity")
        if not vals:
            raise ValueError("need at least one capacity")
        _check_n(len(vals))
        ratios = [v.as_integer_ratio() for v in vals]
        if any(p <= 0 for p, _ in ratios):
            raise ValueError(f"capacities must be strictly positive, got {vals}")
        object.__setattr__(self, "values", vals)
        m = lcm(*[q for _, q in ratios])
        object.__setattr__(self, "scaled", (m, tuple([p * (m // q) for p, q in ratios])))

    @property
    def n(self) -> int:
        return len(self.values)

    def volume_margin(self) -> Fraction:
        """1 - sum c_i^2, positive exactly when the packing fits by volume."""
        m, ks = self.scaled
        return Fraction(scaled_volume_margin(m, ks), m * m)

    @classmethod
    def parse(cls, text: str) -> "Capacities":
        """Comma-separated rational strings, each stripped of surrounding space."""
        return cls(part.strip() for part in text.split(","))

    def to_json_list(self) -> list[str]:
        return [str(v) for v in self.values]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def parse_rational(text: str, what: str) -> Fraction:
    """Fraction(text) for an ASCII rational string; what names it in errors.

    Exponent notation is refused: Fraction expands it exactly, so a string
    like 1e-30000000 alone would take seconds.  Digit-group underscores and
    non-ASCII digits, which Fraction also reads, are refused as well, and a
    string Fraction refuses is reported as what, not in Fraction's words.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"{what} is in exponent notation")
    if "_" in text or not text.isascii():
        raise ValueError(f"{what} has an underscore or a non-ASCII character")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{what} is not a rational") from None


def exact_rationals(values: Iterable, what: str, where: str = "") -> tuple[Fraction, ...]:
    """values as a tuple of Fractions, in one pass: each must be an int
    (exactly: a bool is refused), a Fraction, kept as given, or an ASCII
    rational string (parse_rational).  A refused value is named as
    "{what} {value!r}{where}".
    """
    out = []
    for v in values:
        t = type(v)
        if t is Fraction:
            out.append(v)
        elif t is int:
            out.append(Fraction(v))
        elif t is str:
            out.append(parse_rational(v, f"{what} {v!r}{where}"))
        else:
            raise TypeError(f"{what} {v!r}{where} is not an int, Fraction or rational string")
    return tuple(out)


def exact_ints(values: Iterable, what: str, where: Optional[Callable[[], str]] = None) -> tuple[int, ...]:
    """values as a tuple of ints (exactly int: a bool is refused); a
    refused value is named as "{what} {value!r}{where()}", and where is
    called only then, so its text is never formatted on the good path."""
    vals = tuple(values)
    for v in vals:
        if type(v) is not int:
            raise TypeError(f"{what} {v!r}{where() if where else ''} is not an int")
    return vals


def intersection(u: H2Element, v: H2Element) -> int:
    if u.n != v.n:
        raise DimensionMismatchError(f"mixed lattices: n={u.n} vs n={v.n}")
    return u.degree_a * v.degree_a - sum(map(mul, u.multiplicities, v.multiplicities))


def is_exceptional_numerical(u: H2Element) -> bool:
    """u.u = -1 and K.u = -1, with -K = 3L - E_1 - ... - E_n, so -K.u = 3a - sum r_i."""
    return intersection(u, u) == -1 and 3 * u.degree_a - sum(u.multiplicities) == 1


def _orbit(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The W(E_N) orbit of start = (a, r_1, ..., r_N), N >= 3, as int tuples.

    The generators are the adjacent transpositions of the r_i and the
    Cremona reflection in L - E_1 - E_2 - E_3, which adds t = a - r_1 - r_2 - r_3
    to a, r_1, r_2 and r_3.  The search keeps an explicit stack, so no
    closure refers to itself and no cyclic garbage is left behind.
    """
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        a, r1, r2, r3 = u[:4]
        t = a - r1 - r2 - r3
        images = [(a + t, r1 + t, r2 + t, r3 + t) + u[4:]]
        images += [u[:i] + (u[i + 1], u[i]) + u[i + 2 :] for i in range(1, len(u) - 1) if u[i] != u[i + 1]]
        for v in images:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@lru_cache(maxsize=None)
def enumerate_exceptional(n: int) -> tuple[H2Element, ...]:
    """All exceptional classes, in lexicographic order.

    For n <= 8 they are the W(E_n) orbit of E_1 (Manin, *Cubic Forms*, 1974,
    ch. IV), taken on int tuples over N = max(n, 3) points; for n < 3 the
    n = 3 orbit is restricted to the classes that vanish beyond n.  Every
    class is re-checked in exact integer arithmetic before it is kept.
    """
    _check_n(n)
    found: list[H2Element] = []
    for row in sorted(_orbit((0, -1) + (0,) * (max(n, 3) - 1))):
        if any(row[n + 1 :]):
            continue
        cand = H2Element(row[0], row[1 : n + 1])
        if not is_exceptional_numerical(cand):
            raise ArithmeticError(f"class {cand} passed the search but is not exceptional")
        found.append(cand)
    return tuple(found)


# (a, heavy coefficient h, heavy count, light coefficient l) of the six
# degree <= 6 shapes aL - h*sum_heavy E_i - l*sum_light E_i, the light
# indices being any subset of those left; no multiplicity is negative
_SHAPES = (
    (1, 0, 0, 1),  # L - sum E_i
    (2, 0, 0, 1),  # 2L - sum E_i
    (3, 2, 1, 1),  # 3L - 2E_m - sum E_i
    (4, 2, 3, 1),  # 4L - 2E - 2E - 2E - sum E_i
    (5, 1, 2, 2),  # 5L - E - E - sum 2E_i
    (6, 3, 1, 2),  # 6L - 3E_m - sum 2E_i
)


@lru_cache(maxsize=None)
def negative_wall_classes(n: int) -> tuple[H2Element, ...]:
    """Classes of self-intersection <= -2 from the degree-bounded shapes.

    Their area zero-loci are the walls between stability chambers.  A
    shape's square a^2 - h^2*|heavy| - l^2*|light| depends only on the
    subset sizes, so a size whose square is > -2 is skipped before any
    class is formed; the rest are deduplicated and sorted as int tuples,
    and only those are built.
    """
    _check_n(n)
    rows = set()
    for a, heavy_coeff, heavy_count, light_coeff in _SHAPES:
        for size in range(n - heavy_count + 1):
            if a * a - heavy_coeff**2 * heavy_count - light_coeff**2 * size > -2:
                continue
            for heavy in itertools.combinations(range(n), heavy_count):
                rest = [i for i in range(n) if i not in heavy]
                for light in itertools.combinations(rest, size):
                    r = [0] * n
                    for i in heavy:
                        r[i] = heavy_coeff
                    for i in light:
                        r[i] = light_coeff
                    rows.add((a, *r))
    return tuple(H2Element(row[0], row[1:]) for row in sorted(rows))


def scaled_volume_margin(m: int, ks: Sequence[int]) -> int:
    """m^2 (1 - sum c_i^2) for c = k/m; it has the sign of the volume margin."""
    return m * m - sum([k * k for k in ks])
