"""Admissibility, wall signatures, and chamber enumeration for capacity vectors.

A capacity vector c is admissible when every exceptional class has strictly
positive area and the volume margin 1 - sum c_i^2 is positive.  The signs of
the areas of the negative wall classes cut the admissible set into convex
chambers; this module classifies a given c and enumerates all chambers by
exact rational feasibility checks (a simplex with a slack variable standing
in for strict inequalities; no floating point anywhere).

Conventions: capacities are sorted nonincreasing before any wall evaluation,
and an area tie (= 0) counts as the nonpositive side of the wall, matching the
inclusive ">= 1" rows of the classification tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, Optional, Sequence, Union

from .exactlp import Ineq as _Ineq, Rational
from .exactlp import feasible_point, interior_tableau, tighten
from .lattice import (
    Capacities,
    H2Element,
    area,
    enumerate_exceptional,
    negative_wall_classes,
)

Boundary = Literal["strict", "inclusive"]

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

    def __getitem__(self, wall: H2Element) -> bool:
        return self.bits[self.walls.index(wall)]

    def items(self):
        return tuple(zip(self.walls, self.bits))

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


def _primitive_key(coeffs: Sequence[Rational], rhs: Rational):
    """Scale (coeffs, rhs) to a primitive integer vector for deduplication."""
    vals = (*coeffs, rhs)
    mult = lcm(*(x.denominator for x in vals))
    ints = [x.numerator * (mult // x.denominator) for x in vals]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def _dedupe(ineqs: Iterable[_Ineq]):
    """Merge duplicates (strict wins) and resolve constant rows; None = infeasible."""
    merged: dict[tuple, _Ineq] = {}
    for coeffs, rhs, strict in ineqs:
        if all(a == 0 for a in coeffs):
            if rhs < 0 or (strict and rhs == 0):
                return None
            continue
        key = _primitive_key(coeffs, rhs)
        prev = merged.get(key)
        if prev is None or (strict and not prev[2]):
            merged[key] = (coeffs, rhs, strict)
    return list(merged.values())


def _simplify_point(point: tuple[Fraction, ...], ineqs: list[_Ineq]) -> tuple[Fraction, ...]:
    """Small-denominator feasible point near the given deep point.

    The slack-maximizing point sits away from every boundary, so snapping all
    coordinates to a common small denominator usually stays inside; the first
    q whose rounding passes the exact membership check wins.  If no q <= 64
    does, the exact point itself is kept.  The check runs on the numerators
    k_i = round(x_i * q): sum a_i k_i < b * q (<= for closed rows).
    """
    for q in range(1, 65):
        ks = [round(x * q) for x in point]
        for coeffs, rhs, strict in ineqs:
            lhs = sum(a * k for a, k in zip(coeffs, ks))
            if lhs > rhs * q or (strict and lhs == rhs * q):
                break
        else:
            return tuple(Fraction(k, q) for k in ks)
    return point


# ---------------------------------------------------------------------------
# admissibility and classification


def is_admissible(c: Capacities) -> AdmissibilityResult:
    """Strict positivity on every exceptional class plus the volume bound."""
    for u in enumerate_exceptional(c.n):
        if area(c, u) <= 0:
            return AdmissibilityResult(False, u)
    if c.volume_margin() <= 0:
        return AdmissibilityResult(False, "volume")
    return AdmissibilityResult(True)


def chamber_signature(c: Capacities) -> ChamberSignature:
    """Wall bits of the canonically sorted capacities; requires admissibility."""
    verdict = is_admissible(c)
    if not verdict:
        raise AdmissibilityError(verdict.violator)
    cs = c.sorted()
    walls = negative_wall_classes(c.n)
    return ChamberSignature(walls, tuple(area(cs, w) > 0 for w in walls))


def chamber_label(c: Capacities) -> str:
    """Row label of the classification tables (n <= 4 only)."""
    verdict = is_admissible(c)
    if not verdict:
        raise AdmissibilityError(verdict.violator)
    n = c.n
    if n <= 2:
        return "C_unique"
    if n == 3:
        return "big" if sum(c.values) >= 1 else "small"
    if n == 4:
        return f"C_{chamber_signature(c).true_count()}"
    raise UnsupportedLabelError(f"no chamber labels for n={n}; use chamber_signature")


def _label_from_signature(n: int, sig: ChamberSignature) -> str:
    """Same labels as chamber_label, read off the bits (works on cell closures)."""
    if n <= 2:
        return "C_unique"
    if n == 3:
        # the single wall is the line class; positive area means a small packing
        return "small" if sig.bits[0] else "big"
    return f"C_{sig.true_count()}"


def _is_pair_class(u: H2Element) -> bool:
    """L - E_i - E_j, the classes whose strictness the inclusive convention relaxes."""
    return u.degree_a == 1 and sorted(u.multiplicities, reverse=True) == [1, 1] + [0] * (u.n - 2)


def _admissibility_ineqs(n: int, boundary: Boundary) -> list[_Ineq]:
    """Open admissibility region intersected with the sorted cone c_1 >= ... >= c_n > 0.

    Every row is integral, so coefficients and right-hand sides are ints.  The
    volume bound is quadratic; for n in 2..5 it is implied by the strict
    linear constraints (the supremum of sum c_i^2 over the closed linear
    region is 1, attained only on excluded faces), and for n=1 it linearizes
    exactly to c_1 < 1.  Witnesses are volume-checked after the fact, so a
    hypothetical n >= 6 failure would surface as an error, not a wrong answer.
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
    for u in enumerate_exceptional(n):
        if u.degree_a == 0:
            continue  # basis classes: area = c_i > 0 already follows
        strict = not (boundary == "inclusive" and _is_pair_class(u))
        row(u.multiplicities, u.degree_a, strict)
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
    strict_base: list[_Ineq],
    rows: list[_Ineq],
    bits: tuple[bool, ...],
) -> ChamberRecord:
    """The record of a feasible full sign pattern, with a simplified witness.

    rows are the admissibility rows of the boundary mode followed by one
    row per wall.
    """
    sig = ChamberSignature(walls, bits)
    wall_rows = rows[len(rows) - len(walls):]
    deduped = _dedupe(strict_base + wall_rows)
    deep = None if deduped is None else feasible_point(deduped, n)
    interior = deep is not None
    if not interior:  # pattern lives only on the relaxed boundary
        deduped = _dedupe(rows)
        deep = None if deduped is None else feasible_point(deduped, n)
        if deep is None:
            raise ArithmeticError(
                f"sign pattern {sig.bit_string()} at n={n} ({boundary}) was "
                f"feasible on descent but its leaf system is not"
            )
    pt = _simplify_point(deep, deduped)
    cap = Capacities(pt)
    margin = cap.volume_margin()
    if margin < 0 or (interior and margin == 0):
        raise ArithmeticError(
            f"witness {pt} violates the volume bound; the linear relaxation "
            f"is not exact for n={n}"
        )
    label = _label_from_signature(n, sig) if n <= 4 else None
    return ChamberRecord(sig, cap, label)


def enumerate_chambers(n: int, boundary: Boundary = "strict") -> tuple[ChamberRecord, ...]:
    """All feasible wall signatures over the sorted admissible cone, with witnesses.

    Depth-first over the wall bits.  The root's system is solved cold once;
    every other node is decided by appending its wall row to the parent's
    optimal integer tableau and re-optimizing by the dual simplex, usually
    in a few pivots.  A partial assignment whose system has no strictly
    feasible point prunes the whole subtree.  Each full sign pattern then
    gets its witness from cold solves of its own system (_leaf_record).

    The boundary convention decides which sign patterns count as feasible;
    witnesses are always drawn from the strictly admissible part of a pattern
    when it is nonempty (for n <= 5 it always is), so they round-trip through
    chamber_signature in either mode.

    Only n in 1..5 is supported: for n >= 6 the linearized volume bound is
    not known to be exact, so no count there is trusted.
    """
    if not 1 <= n <= MAX_ENUMERATE_N:
        raise ValueError(
            f"chamber enumeration supports n in 1..{MAX_ENUMERATE_N}, got {n}: for "
            f"n >= 6 the linearized volume bound is not known to be exact"
        )
    walls = negative_wall_classes(n)
    base = _admissibility_ineqs(n, boundary)
    strict_base = base if boundary == "strict" else _admissibility_ineqs(n, "strict")
    deduped = _dedupe(base)
    root = None if deduped is None else interior_tableau(deduped, n)
    if root is None:
        return ()
    found: list[ChamberRecord] = []
    # Depth first with an explicit stack, so no closure refers to itself and
    # the search leaves no cyclic garbage.  An entry is a feasible node: its
    # bits, its rows and its optimal tableau.  The False child is pushed
    # first, so True is explored first.
    stack = [((), list(base), root)]
    while stack:
        bits, rows, tableau = stack.pop()
        if len(bits) == len(walls):
            found.append(_leaf_record(n, boundary, walls, strict_base, rows, bits))
            continue
        for positive in (False, True):
            extra = _wall_ineq(walls[len(bits)], positive)
            child = tighten(tableau, extra)
            if child is not None:
                stack.append((bits + (positive,), rows + [extra], child))
    return tuple(sorted(found, key=lambda rec: rec.signature.bits, reverse=True))
