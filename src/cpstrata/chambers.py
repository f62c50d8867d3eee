"""Admissibility, wall signatures, and chamber enumeration for capacity vectors.

A capacity vector c is admissible when every exceptional class has strictly
positive area and the volume margin 1 - sum c_i^2 is positive; the signs of
the areas of the negative wall classes cut the admissible set into convex
chambers.  A given c is classified in integers: with m the common denominator
and k = m*c, an area a - sum r_i c_i has the sign of a*m - sum r_i k_i and the
volume margin that of m^2 - sum k_i^2, so no Fraction is built per class; the
class tables are read as int rows (a, r), built once per n.  All chambers are
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
from operator import ge, mul
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
def _class_rows(n: int) -> tuple[tuple, tuple[H2Element, ...], tuple]:
    """The class tables of n as int rows: (exceptional, walls, wall rows).

    exceptional holds (u, a, r) for every exceptional class u = aL - sum r_i E_i
    with a > 0, in enumeration order: the basis classes E_i have area c_i,
    which Capacities keeps positive, so they never decide admissibility.
    wall rows holds (a, r) for each wall.
    """
    exceptional = tuple((u, u.degree_a, u.multiplicities) for u in enumerate_exceptional(n) if u.degree_a)
    walls = negative_wall_classes(n)
    return exceptional, walls, tuple((w.degree_a, w.multiplicities) for w in walls)


def is_admissible(c: Capacities) -> AdmissibilityResult:
    """Strict positivity on every exceptional class plus the volume bound."""
    m, ks = c.scaled
    for u, a, r in _class_rows(len(ks))[0]:
        if a * m <= sum(map(mul, r, ks)):
            return AdmissibilityResult(False, u)
    if scaled_volume_margin(m, ks) <= 0:
        return AdmissibilityResult(False, "volume")
    return AdmissibilityResult(True)


def chamber_signature(c: Capacities) -> ChamberSignature:
    """Wall bits of the canonically sorted capacities; requires admissibility."""
    verdict = is_admissible(c)
    if not verdict:
        raise AdmissibilityError(verdict.violator)
    m, ks = c.scaled
    ks = sorted(ks, reverse=True)
    _, walls, rows = _class_rows(len(ks))
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
    loses no point.  A class gives a row only if its multiplicities r are
    nonincreasing: the classes are closed under permuting the E_i, so each
    r has its sorted rearrangement r* among them, with the same a and so
    the same strictness, and on the sorted cone r.c <= r*.c (Hardy,
    Littlewood and Polya, *Inequalities*, 1934, section 10.2).  The region
    and its eps-program are unchanged, from 2, 3, 4, 5, 7, 8, 10, 14 rows
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
    for _, a, r in _class_rows(n)[0]:
        if all(map(ge, r, r[1:])):
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
    the trivial optimum of the exact LP; every other node is decided by one
    LP step, _Simplex.with_row, which appends its wall row to the parent's
    optimal integer tableau and re-optimizes by the dual simplex, usually in
    a few pivots.  A child without a strictly feasible point prunes its
    whole subtree, and its step stops as soon as the dual bound of a basis
    shows eps* <= 0, often before any pivot.  Each full sign pattern then
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
    found: list[ChamberRecord] = []
    # Depth first with an explicit stack, so no closure refers to itself and
    # the search leaves no cyclic garbage.  An entry is a feasible node: its
    # bits and its optimal tableau.  The False child is pushed first, so True
    # is explored first.
    stack = [((), root)]
    while stack:
        bits, tableau = stack.pop()
        if len(bits) == len(walls):
            found.append(
                _leaf_record(n, boundary, walls, signs, strict_base, relaxed, bits, tableau)
            )
            continue
        for positive in (False, True):
            child = tableau.with_row(*scaled[len(bits)][positive])
            if child is not None:
                stack.append((bits + (positive,), child))
    return tuple(sorted(found, key=lambda rec: rec.signature.bits, reverse=True))
