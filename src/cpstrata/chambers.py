"""Admissibility, wall signatures, and chamber enumeration for capacity vectors.

A capacity vector c is admissible when every exceptional class has strictly
positive area and the volume margin 1 - sum c_i^2 is positive; the signs of
the areas of the negative wall classes cut the admissible set into convex
chambers.  A given c is classified in integers: with m the common denominator
and k = m*c, an area a - sum r_i c_i has the sign of a*m - sum r_i k_i and the
volume margin that of m^2 - sum k_i^2, so no Fraction is built per class; the
class tables are read as int rows (a, r), built once per n.  Admissibility is
certified on the sorted k by the exceptional rows whose r is nonincreasing,
0, 1, 1, 1, 2, 2, 3 and 6 rows for n = 1..8 instead of all 0, 1, 3, 6, 11,
21, 49 and 232 classes of positive degree (the rearrangement inequality); the
same rows bound the chamber LP, and the scan over every class runs only to
name the violator of an inadmissible c.  All chambers are
enumerated by exact rational feasibility checks (a simplex with a slack
variable standing in for strict inequalities; no floating point anywhere).

Conventions: capacities are sorted nonincreasing before any wall evaluation,
and an area tie (= 0) counts as the nonpositive side of the wall, matching the
inclusive ">= 1" rows of the classification tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import ge, le, mul
from typing import Literal, Optional, Sequence, Union, get_args

from .exactlp import Ineq as _Ineq
from .exactlp import _Simplex, feasible_point, interior_tableau, scaled_row
from .lattice import (
    Capacities,
    H2Element,
    enumerate_exceptional,
    exact_ints,
    negative_wall_classes,
    scaled_volume_margin,
)

Boundary = Literal["strict", "inclusive"]
BOUNDARIES: tuple[str, ...] = get_args(Boundary)

# largest n whose chamber count enumerate_chambers can vouch for
MAX_ENUMERATE_N = 5


class AdmissibilityError(ValueError):
    def __init__(self, violator: Union[H2Element, str]):
        self.violator = violator
        super().__init__(f"inadmissible capacities, violated: {violator}")


class UnsupportedLabelError(ValueError):
    """Chamber labels are only defined for n <= 4."""


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    violator: Optional[Union[H2Element, str]] = None  # H2Element or "volume"

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ChamberSignature:
    """Area signs over the canonical wall list; bit true <=> area > 0."""

    walls: tuple[H2Element, ...]
    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.walls) != len(self.bits):
            raise ValueError("walls and bits must align")

    def true_count(self) -> int:
        return sum(self.bits)

    def bit_string(self) -> str:
        return "".join("T" if b else "F" for b in self.bits)

    def to_json_list(self) -> list[dict]:
        return [{"class": w.to_text(), "positive": b} for w, b in zip(self.walls, self.bits)]


@dataclass(frozen=True)
class ChamberRecord:
    signature: ChamberSignature
    witness: Capacities
    label: Optional[str]

    def to_json_dict(self) -> dict:
        return {
            "bits": self.signature.bit_string(),
            "signature": self.signature.to_json_list(),
            "witness": self.witness.to_json_list(),
            "label": self.label,
        }


def _rounded(nums: list[tuple[int, int]], q: int) -> list[int]:
    """round(num * q / den) for each (num, den) with den > 0, in integers.

    A tie goes to the even neighbour, as round() takes it on a Fraction.
    """
    ks = []
    for num, den in nums:
        k, r = divmod(num * q, den)
        if 2 * r > den or (2 * r == den and k & 1):
            k += 1
        ks.append(k)
    return ks


def _simplify_point(point: tuple[Fraction, ...], ineqs: list[_Ineq]) -> tuple[Fraction, ...]:
    """Small-denominator feasible point near the given deep point.

    The slack-maximizing point sits away from every boundary, so snapping all
    coordinates to a common small denominator usually stays inside; the first
    q whose rounding passes the exact membership check wins.  If no q <= 64
    does, the exact point itself is kept.  The check runs on the numerators
    k_i = round(x_i * q), taken in integers (_rounded): sum a_i k_i < b * q
    (<= for closed rows).
    """
    nums = [(x.numerator, x.denominator) for x in point]
    for q in range(1, 65):
        ks = _rounded(nums, q)
        for coeffs, rhs, strict in ineqs:
            lhs = sum(map(mul, coeffs, ks))
            if lhs > rhs * q or (strict and lhs == rhs * q):
                break
        else:
            return tuple(Fraction(k, q) for k in ks)
    return point


# ---------------------------------------------------------------------------
# admissibility and classification


@lru_cache(maxsize=None)
def _class_rows(n: int) -> tuple[tuple, tuple, tuple[H2Element, ...], tuple]:
    """The class tables of n as int rows: (exceptional, certificate, walls,
    wall rows).

    exceptional holds (u, a, r) for every exceptional class u = aL - sum r_i E_i
    with a > 0, in enumeration order: the basis classes E_i have area c_i,
    which Capacities keeps positive, so they never decide admissibility.
    certificate holds (a, r) for those whose r is nonincreasing, in the same
    order: 0, 1, 1, 1, 2, 2, 3 and 6 rows for n = 1..8 (_certified).
    wall rows holds (a, r) for each wall.
    """
    exceptional = tuple((u, u.degree_a, u.multiplicities) for u in enumerate_exceptional(n) if u.degree_a)
    certificate = tuple((a, r) for _, a, r in exceptional if all(map(ge, r, r[1:])))
    walls = negative_wall_classes(n)
    return exceptional, certificate, walls, tuple((w.degree_a, w.multiplicities) for w in walls)


@lru_cache(maxsize=None)
def _wall_order(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(below, above) for each wall k: the earlier walls j with area_j >=
    area_k, respectively <=, on all of c_1 >= ... >= c_n >= 0.  By Abel
    summation that holds exactly when a_j >= a_k and each prefix sum of r_j
    is <= that of r_k (Hardy, Littlewood and Polya, *Inequalities*, 1934,
    section 10.2).  So the True child of wall k has no point when a wall
    below it has bit False, the False child when one above it has bit True,
    and the pair (j, k) certifies it.
    """
    rows = [(a, list(accumulate(r))) for a, r in _class_rows(n)[3]]
    order = []
    for k, (ak, sk) in enumerate(rows):
        below = tuple(j for j, (a, s) in enumerate(rows[:k]) if a >= ak and all(map(le, s, sk)))
        above = tuple(j for j, (a, s) in enumerate(rows[:k]) if a <= ak and all(map(ge, s, sk)))
        order.append((below, above))
    return tuple(order)


_ADMISSIBLE = AdmissibilityResult(True)


def _certified(m: int, ks: Sequence[int], certificate: Sequence[tuple]) -> bool:
    """Whether c = k/m, with k sorted nonincreasing, is admissible, from the
    certificate rows of _class_rows(n) and the volume margin alone.

    The exceptional classes are closed under permuting the E_i, so every
    class has the sorted rearrangement r* of its r among the certificate
    rows, with the same a, and r.k <= r*.k for a sorted k (Hardy, Littlewood
    and Polya, *Inequalities*, 1934, section 10.2).  So the rows all pass
    exactly when every exceptional class has positive area.
    """
    for a, r in certificate:
        if a * m <= sum(map(mul, r, ks)):
            return False
    return scaled_volume_margin(m, ks) > 0


def _violator(m: int, ks: Sequence[int]) -> Union[H2Element, str]:
    """The first exceptional class, in enumeration order, whose area at
    c = k/m (k as given) is <= 0, else "volume": the lexicographic scan
    that names what an uncertified vector violates."""
    for u, a, r in _class_rows(len(ks))[0]:
        if a * m <= sum(map(mul, r, ks)):
            return u
    return "volume"


def is_admissible(c: Capacities) -> AdmissibilityResult:
    """Strict positivity on every exceptional class plus the volume bound.

    Decided on the sorted k by the certificate rows, 2 at n = 5 and 6 at
    n = 8 instead of the 11 and 232 classes of positive degree (_certified);
    only an inadmissible c is scanned over every class, for its violator.
    """
    m, ks = c.scaled
    if _certified(m, sorted(ks, reverse=True), _class_rows(len(ks))[1]):
        return _ADMISSIBLE
    return AdmissibilityResult(False, _violator(m, ks))


def chamber_signature(c: Capacities) -> ChamberSignature:
    """Wall bits of the canonically sorted capacities; requires admissibility.

    The sorted k that the wall bits read is certified as is_admissible
    certifies it, so an admissible c costs no scan over every class; an
    inadmissible one raises AdmissibilityError naming is_admissible's
    violator.
    """
    m, unsorted = c.scaled
    ks = sorted(unsorted, reverse=True)
    _, certificate, walls, rows = _class_rows(len(ks))
    if not _certified(m, ks, certificate):
        raise AdmissibilityError(_violator(m, unsorted))
    return ChamberSignature(walls, tuple([a * m > sum(map(mul, r, ks)) for a, r in rows]))


def chamber_label(c: Capacities) -> str:
    """Row label of the classification tables (n <= 4 only)."""
    label = label_from_signature(c.n, chamber_signature(c))
    if label is None:
        raise UnsupportedLabelError(f"no chamber labels for n={c.n}; use chamber_signature")
    return label


def label_from_signature(n: int, sig: ChamberSignature) -> Optional[str]:
    """Row label read off the wall bits (works on cell closures); None for n >= 5."""
    if n <= 2:
        return "C_unique"
    if n == 3:
        # the single wall is the line class; positive area means a small packing
        return "small" if sig.bits[0] else "big"
    return f"C_{sig.true_count()}" if n == 4 else None


def _admissibility_ineqs(n: int, boundary: Boundary) -> list[_Ineq]:
    """Open admissibility region intersected with the sorted cone c_1 >= ... >= c_n > 0.

    Every row is integral, so coefficients and right-hand sides are ints,
    the only rows exactlp takes; the cone rows force c > 0, so its x >= 0
    loses no point.  The class rows are the certificate rows of
    _class_rows, those whose multiplicities r are nonincreasing: each class
    has its sorted rearrangement r* among them, with the same a and so the
    same strictness, and on the sorted cone r.c <= r*.c (_certified).  The
    region and its eps-program are unchanged, from 2, 3, 4, 5, 7, 8, 10, 14 rows
    for n = 1..8 instead of 2, 3, 6, 10, 16, 27, 56, 240.  The volume
    bound is quadratic; for n in 2..5 it is implied by the strict linear
    constraints (the supremum of sum c_i^2 over the closed linear region is
    1, attained only on excluded faces), and for n=1 it linearizes exactly
    to c_1 < 1.  Witnesses are volume-checked after the fact, so a
    hypothetical n >= 6 failure would surface as an error, not a wrong
    answer.
    """
    ineqs: list[_Ineq] = []
    zero = [0] * n

    def row(coeffs, rhs, strict):
        ineqs.append((tuple(coeffs), rhs, strict))

    for i in range(n - 1):  # c_i >= c_{i+1}  <=>  c_{i+1} - c_i <= 0
        co = zero.copy()
        co[i + 1], co[i] = 1, -1
        row(co, 0, False)
    co = zero.copy()
    co[n - 1] = -1  # c_n > 0
    row(co, 0, True)
    # the basis classes E_i are left out of _class_rows: area = c_i > 0
    # already follows; the one degree 1 class kept is the pair class
    # L - E_1 - E_2, whose strictness the inclusive convention relaxes
    for a, r in _class_rows(n)[1]:
        row(r, a, not (boundary == "inclusive" and a == 1))
    if n == 1:
        row([1], 1, True)  # exact linearization of the volume bound
    return ineqs


def _wall_ineq(u: H2Element, positive: bool) -> _Ineq:
    coeffs = tuple(u.multiplicities)
    if positive:  # area > 0  <=>  sum r_i c_i < a
        return (coeffs, u.degree_a, True)
    return (tuple(-a for a in coeffs), -u.degree_a, False)


def _leaf_record(
    n: int,
    boundary: Boundary,
    walls: Sequence[H2Element],
    signs: Sequence[tuple[_Ineq, _Ineq]],
    strict_base: list[_Ineq],
    relaxed: list[_Ineq],
    bits: tuple[bool, ...],
    tableau: _Simplex,
) -> ChamberRecord:
    """The record of a feasible full sign pattern, with a simplified witness.

    tableau is the leaf's optimal tableau from the descent: the admissibility
    rows of the boundary mode followed by one row per wall, signs[k][bit]
    for wall k.  The witness is read off it after folding in relaxed, the
    strict versions of the rows that the boundary mode relaxes (none in
    strict mode), so it is strictly admissible in either mode; it is then
    simplified over the strict admissibility and wall rows.
    """
    sig = ChamberSignature(walls, bits)
    deep = feasible_point(relaxed, n, tableau)
    if deep is None:
        raise ArithmeticError(
            f"sign pattern {sig.bit_string()} at n={n} ({boundary}) was "
            f"feasible on descent but has no strictly admissible point"
        )
    pt = _simplify_point(deep, strict_base + [rows[b] for rows, b in zip(signs, bits)])
    cap = Capacities(pt)
    margin = cap.volume_margin()
    if margin <= 0:
        raise ArithmeticError(
            f"witness {pt} violates the volume bound; the linear relaxation "
            f"is not exact for n={n}"
        )
    return ChamberRecord(sig, cap, label_from_signature(n, sig))


def enumerate_chambers(n: int, boundary: Boundary = "strict") -> tuple[ChamberRecord, ...]:
    """All feasible wall signatures over the sorted admissible cone, with witnesses.

    Depth-first over the wall bits.  The root's rows are folded once into
    the trivial optimum of the exact LP.  A child that the wall order rules
    out (_wall_order) is skipped with no LP step; for n <= 5 those are all
    the children without a strictly feasible point.  Every other child is
    decided by one LP step, _Simplex.with_row, which appends its wall row
    to the parent's optimal integer tableau and re-optimizes by the dual
    simplex, usually in a few pivots; a child without a strictly feasible
    point prunes its subtree, and its step stops as soon as the dual bound
    of a basis shows eps* <= 0.  Each full sign pattern then
    reads its witness off its own tableau, after a few more dual steps in
    inclusive mode that restore the strict row of L - E_1 - E_2, the only
    pair class the sorted cone needs (_leaf_record); no leaf solves from the
    trivial optimum.  Both sign rows of every wall are built and scaled once
    per call.

    The boundary convention decides which sign patterns count as feasible;
    witnesses are drawn from the strictly admissible part of each pattern
    (for n <= 5 it is never empty, and an empty one raises ArithmeticError),
    so they round-trip through chamber_signature in either mode.

    Only n in 1..5 is supported: for n >= 6 the linearized volume bound is
    not known to be exact, so no count there is trusted.  A non-int n (a
    bool or a float included) raises TypeError and a boundary other than
    "strict" or "inclusive" ValueError, before any LP call.
    """
    exact_ints((n,), "n")
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}, expected one of {BOUNDARIES}")
    if n < 1:
        raise ValueError(f"chamber enumeration supports n in 1..{MAX_ENUMERATE_N}, got {n}")
    if n > MAX_ENUMERATE_N:
        raise ValueError(
            f"chamber enumeration supports n in 1..{MAX_ENUMERATE_N}, got {n}: for "
            f"n >= 6 the linearized volume bound is not known to be exact"
        )
    walls = negative_wall_classes(n)
    base = _admissibility_ineqs(n, boundary)
    strict_base = base if boundary == "strict" else _admissibility_ineqs(n, "strict")
    relaxed = [row for row in strict_base if row not in base]
    root = interior_tableau(base, n)
    if root is None:
        return ()
    # (False row, True row) of each wall, as inequalities and scaled
    signs = [(_wall_ineq(w, False), _wall_ineq(w, True)) for w in walls]
    scaled = [tuple(scaled_row(row, n) for row in rows) for rows in signs]
    order = _wall_order(n)
    found: list[ChamberRecord] = []
    # Depth first with an explicit stack, so no closure refers to itself and
    # the search leaves no cyclic garbage.  An entry is a feasible node: its
    # bits and its optimal tableau.  The False child is pushed first, so True
    # is explored first.
    stack = [((), root)]
    while stack:
        bits, tableau = stack.pop()
        k = len(bits)
        if k == len(walls):
            found.append(
                _leaf_record(n, boundary, walls, signs, strict_base, relaxed, bits, tableau)
            )
            continue
        below, above = order[k]
        for positive, forcing in ((False, above), (True, below)):
            if any(bits[j] != positive for j in forcing):
                continue
            child = tableau.with_row(*scaled[k][positive])
            if child is not None:
                stack.append((bits + (positive,), child))
    return tuple(sorted(found, key=lambda rec: rec.signature.bits, reverse=True))
