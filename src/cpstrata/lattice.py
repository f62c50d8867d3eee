"""Second homology of the n-fold blow-up of CP2 and its distinguished class sets.

Classes are written a*L - sum r_i*E_i in the standard basis (L, E_1, ..., E_n),
where the intersection form is diag(+1, -1, ..., -1).  Two finite families drive
everything downstream:

* exceptional classes (E.E = -1, K.E = 1), whose strict area positivity plus the
  volume bound characterises admissible capacity vectors;
* negative classes of square <= -2 drawn from the six degree-bounded shapes
  (aL with a <= 6, multiplicities in {1,2,3}), whose area signs cut the space of
  admissible capacities into stability chambers.

Both sets are tiny for n <= 8, so they are enumerated exhaustively and kept in a
fixed lexicographic order to make every downstream report reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, Sequence

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
        _check_n(len(self.multiplicities))
        for x in (self.degree_a, *self.multiplicities):
            if not (isinstance(x, Rational) and x.denominator == 1):
                raise ValueError(f"class coefficient {x!r} is not an integer")
        object.__setattr__(self, "multiplicities", tuple(int(r) for r in self.multiplicities))

    @property
    def n(self) -> int:
        return len(self.multiplicities)

    def self_intersection(self) -> int:
        return intersection(self, self)

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

    Entries are ints, Fractions or rational strings, never floats, in any
    order; the chamber tables read them sorted nonincreasing.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[Fraction | int | str]) -> None:
        vals = tuple(values)
        if bad := [v for v in vals if not isinstance(v, (Rational, str))]:
            raise TypeError(f"capacity {bad[0]!r} is not an int, Fraction or rational string")
        parsed = []
        for v in vals:
            try:
                parsed.append(Fraction(v))
            except ZeroDivisionError:
                raise ValueError(f"capacity {v!r} has a zero denominator") from None
        vals = tuple(parsed)
        if not vals:
            raise ValueError("need at least one capacity")
        _check_n(len(vals))
        if any(v <= 0 for v in vals):
            raise ValueError(f"capacities must be strictly positive, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(m, k): m is the lcm of the denominators and k_i = m*c_i, all integers."""
        m = lcm(*[v.denominator for v in self.values])
        return m, tuple([v.numerator * (m // v.denominator) for v in self.values])

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


def intersection(u: H2Element, v: H2Element) -> int:
    if u.n != v.n:
        raise DimensionMismatchError(f"mixed lattices: n={u.n} vs n={v.n}")
    return u.degree_a * v.degree_a - sum(r * s for r, s in zip(u.multiplicities, v.multiplicities))


def anticanonical(n: int) -> H2Element:
    """-K = 3L - E_1 - ... - E_n."""
    _check_n(n)
    return H2Element(3, (1,) * n)


def is_exceptional_numerical(u: H2Element) -> bool:
    return intersection(u, u) == -1 and intersection(anticanonical(u.n), u) == 1


@lru_cache(maxsize=None)
def enumerate_exceptional(n: int) -> tuple[H2Element, ...]:
    """All exceptional classes with a in [0,6], r_i in [-1,3], lexicographic.

    Depth-first search over the integer box for sum r_i = 3a - 1 and
    sum r_i^2 = a^2 + 1, pruned by what the remaining entries can still add;
    the surviving classes are re-checked in exact integer arithmetic.  The
    search keeps an explicit stack, so no closure refers to itself and no
    cyclic garbage is left behind.
    """
    _check_n(n)
    found: list[H2Element] = []
    # an entry is (a, prefix, rsum, rsq), rsum and rsq being what the entries
    # after prefix must add up to; over r in [-1,3] one has
    # |r| <= r^2 <= 3r + 4, which bounds them by the entries left
    def reachable(rsum: int, rsq: int, left: int) -> bool:
        return -left <= rsum <= 3 * left and abs(rsum) <= rsq <= 3 * rsum + 4 * left

    # pushed in reverse, so that a and then each r ascend
    stack = [
        (a, (), 3 * a - 1, a * a + 1) for a in range(6, -1, -1) if reachable(3 * a - 1, a * a + 1, n)
    ]
    while stack:
        a, prefix, rsum, rsq = stack.pop()
        left = n - len(prefix) - 1
        if left < 0:
            cand = H2Element(a, prefix)
            if not is_exceptional_numerical(cand):
                raise ArithmeticError(f"class {cand} passed the search but is not exceptional")
            found.append(cand)
            continue
        for r in range(3, -2, -1):
            if reachable(rsum - r, rsq - r * r, left):
                stack.append((a, prefix + (r,), rsum - r, rsq - r * r))
    return tuple(sorted(found))


def _negative_shape_instances(n: int) -> Iterable[H2Element]:
    """All instantiations of the six degree <= 6 shapes over index subsets.

    Shape data: coefficient of L, multiplicities for a distinguished index set
    (2s and 3s), and multiplicity 1 (or 2 for the quintic shape) on a free
    subset of the remaining indices.
    """
    indices = range(n)
    # (a, heavy coefficient, heavy count, light coefficient)
    shapes = (
        (1, 0, 0, 1),  # L - sum E_i
        (2, 0, 0, 1),  # 2L - sum E_i
        (3, 2, 1, 1),  # 3L - 2E_m - sum E_i
        (4, 2, 3, 1),  # 4L - 2E - 2E - 2E - sum E_i
        (5, 1, 2, 2),  # 5L - E - E - sum 2E_i
        (6, 3, 1, 2),  # 6L - 3E_m - sum 2E_i
    )
    for a, heavy_coeff, heavy_count, light_coeff in shapes:
        for heavy in itertools.combinations(indices, heavy_count):
            rest = [i for i in indices if i not in heavy]
            for size in range(len(rest) + 1):
                for light in itertools.combinations(rest, size):
                    r = [0] * n
                    for i in heavy:
                        r[i] = heavy_coeff
                    for i in light:
                        r[i] = light_coeff
                    yield H2Element(a, tuple(r))


@lru_cache(maxsize=None)
def negative_wall_classes(n: int) -> tuple[H2Element, ...]:
    """Classes of self-intersection <= -2 from the degree-bounded shapes.

    Their area zero-loci are the walls between stability chambers.
    """
    _check_n(n)
    keep = {
        cand
        for cand in _negative_shape_instances(n)
        if cand.self_intersection() <= -2 and all(r >= 0 for r in cand.multiplicities)
    }
    return tuple(sorted(keep))


def scaled_areas(m: int, ks: Sequence[int], classes: Iterable[H2Element]) -> Iterator[int]:
    """m * area(c, u) = a*m - sum r_i k_i for each class u, where c = k/m (see Capacities)."""
    for u in classes:
        s = u.degree_a * m
        for k, r in zip(ks, u.multiplicities):
            s -= k * r
        yield s


def scaled_volume_margin(m: int, ks: Sequence[int]) -> int:
    """m^2 (1 - sum c_i^2) for c = k/m; it has the sign of the volume margin."""
    return m * m - sum([k * k for k in ks])


def area(c: Capacities, u: H2Element) -> Fraction:
    """Area a - sum c_i r_i of u under c: the integer a*m - sum r_i k_i of scaled_areas over m."""
    if len(c) != u.n:
        raise DimensionMismatchError(f"capacities length {len(c)} vs n={u.n}")
    m, ks = c.scaled
    return Fraction(next(scaled_areas(m, ks, (u,))), m)

