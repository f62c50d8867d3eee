"""Exact projective geometry of small point configurations in the plane.

A point is held as its primitive integer triple (coprime, the first
nonzero entry positive), so equality, hashing, determinants and the
projective action all run on ints; the public `coords`, the triple over
its first nonzero entry, are derived from it.  Configurations of three
or four distinct points are classified by their collinear triples: the
generic stratum F_0, one stratum F_ijk per collinear triple, and the
fully collinear stratum (F_123 for three points, F_1234 for four).  On
a collinear quadruple the cross ratio, a quotient of 2x2 determinants
along the line, is a complete invariant of the projective class; for
four distinct points it is never 0, 1, or infinity.  Everything is
exact: every entry passes lattice.exact_rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence, Union

from .lattice import exact_rationals

Rational = Union[int, str, Fraction]


def _integers(entries, kind: str, owner) -> Sequence[int]:
    """Entries times their denominators' lcm (ints pass as given); owner() names them in errors."""
    if all(type(x) is int for x in entries):
        return entries
    vals = exact_rationals(entries, kind, f" of {owner()}")
    s = lcm(*(x.denominator for x in vals))
    return [x.numerator * (s // x.denominator) for x in vals]


class ProjectivePoint:
    """A point of the rational projective plane, as a primitive integer triple."""

    __slots__ = ("triple",)

    def __init__(self, coords: Sequence[Rational]):
        coords = tuple(coords)
        z = _integers(coords, "coordinate", lambda: f"point {':'.join(map(str, coords))!r}")
        if len(z) != 3:
            raise ValueError("a projective point needs three coordinates")
        g = gcd(*z)
        if g == 0:
            raise ValueError("homogeneous coordinates cannot all vanish")
        g = g if next(c for c in z if c) > 0 else -g
        self.triple = tuple(c // g for c in z)

    @classmethod
    def parse(cls, text: str) -> "ProjectivePoint":
        parts = [part.strip() for part in str(text).strip().split(":")]
        if len(parts) != 3:
            raise ValueError(f"expected z0:z1:z2, got {text!r}")
        return cls(_integers(parts, "coordinate", lambda: f"point {text!r}"))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Rational coordinates with the first nonzero one equal to 1."""
        pivot = next(c for c in self.triple if c)
        return tuple(Fraction(c, pivot) for c in self.triple)

    def to_text(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def __eq__(self, other) -> bool:
        return self.triple == other.triple if isinstance(other, ProjectivePoint) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        return f"ProjectivePoint({self.to_text()!r})"


# ---------------------------------------------------------------------------
# Collinearity and strata

def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def collinear(p: ProjectivePoint, q: ProjectivePoint, r: ProjectivePoint) -> bool:
    """True iff the three points lie on a common projective line."""
    return _det3((p.triple, q.triple, r.triple)) == 0


def _check_points(points, sizes) -> tuple[ProjectivePoint, ...]:
    pts = tuple(points)
    if len(pts) not in sizes:
        raise ValueError(f"expected {sizes} points, got {len(pts)}")
    for pt in pts:
        if not isinstance(pt, ProjectivePoint):
            raise TypeError(f"not a ProjectivePoint: {pt!r}")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    return pts


def collinear_triples(points) -> list[tuple[int, ...]]:
    """1-based index triples of the input that are collinear."""
    pts = _check_points(points, (3, 4))
    return [
        tuple(i + 1 for i in tri)
        for tri in combinations(range(len(pts)), 3)
        if collinear(*(pts[i] for i in tri))
    ]


def stratum(points) -> str:
    """Stratum label of a configuration of 3 or 4 distinct points."""
    pts = _check_points(points, (3, 4))
    triples = collinear_triples(pts)
    if len(pts) == 3:
        return "F_123" if triples else "F_0"
    if not triples:
        return "F_0"
    if len(triples) == 4:
        return "F_1234"
    # Two collinear triples of distinct points share a line, so force all
    # four onto it; anything but a lone triple means broken input handling.
    if len(triples) != 1:
        raise ArithmeticError(f"collinear triples {triples} cannot occur for distinct points")
    i, j, k = triples[0]
    return f"F_{i}{j}{k}"


# ---------------------------------------------------------------------------
# Cross ratio along a line

def _line_coordinates(a: ProjectivePoint, b: ProjectivePoint, pts):
    """Integer [s:t] of each point of pts (all on the line ab) in the pencil
    s*a + t*b, read where a, b have a nonzero 2x2 minor: ratios ignore which."""
    a, b = a.triple, b.triple
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if a[i] * b[j] != a[j] * b[i]:
            break
    else:
        raise ValueError("base points coincide; the line is not determined")
    return [
        (z[i] * b[j] - z[j] * b[i], a[i] * z[j] - a[j] * z[i])
        for z in (p.triple for p in pts)
    ]


def cross_ratio(points) -> Fraction:
    """Cross ratio of four distinct collinear points.

    The common line is parametrized by the first two points and the
    classical ratio ((z3-z1)(z4-z2)) / ((z3-z2)(z4-z1)) is evaluated
    with each difference a 2x2 determinant of pencil coordinates, so no
    affine chart is chosen.  Each point appears once above and once
    below, so any representatives give the same reduced Fraction.  The
    differences of distinct points are nonzero: the ratio is not 0 or 1.
    """
    pts = _check_points(points, (4,))
    for tri in combinations(range(4), 3):
        if not collinear(*(pts[i] for i in tri)):
            raise ValueError("cross ratio needs four collinear points")
    (s1, t1), (s2, t2), (s3, t3), (s4, t4) = _line_coordinates(pts[0], pts[1], pts)
    num = (s3 * t1 - s1 * t3) * (s4 * t2 - s2 * t4)
    den = (s3 * t2 - s2 * t3) * (s4 * t1 - s1 * t4)
    if den == 0:
        # distinct points on the line have pairwise independent coordinates
        raise ArithmeticError(f"cross ratio of distinct points {pts} has a zero denominator")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# The projective linear action

def apply_pgl(M, p: ProjectivePoint) -> ProjectivePoint:
    """Image of p under an invertible rational 3x3 matrix, scaled to ints by
    the lcm of its denominators: a nonzero multiple of M acts as M does."""
    rows = [tuple(row) for row in M]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("the action needs a 3x3 matrix")
    m = _integers([x for row in rows for x in row], "entry", lambda: f"matrix {rows!r}")
    m = (m[0:3], m[3:6], m[6:9])
    if _det3(m) == 0:
        raise ValueError("singular matrix does not act on the plane")
    a, b, c = p.triple
    return ProjectivePoint([x * a + y * b + w * c for x, y, w in m])
