"""Exact projective geometry of small point configurations in the plane.

Points carry rational homogeneous coordinates and are kept in the
canonical form obtained by dividing through the first nonzero
coordinate.  Configurations of three or four pairwise distinct points
are classified by which triples are collinear: the generic stratum F_0,
one stratum F_ijk per collinear triple, and the fully collinear stratum
(F_123 for three points, F_1234 for four).  On a collinear quadruple
the cross ratio, computed projectively as a quotient of 2x2
determinants along the line, is a complete invariant of the projective
equivalence class; for four distinct points it never takes the values
0, 1, or infinity.

Everything here is exact; no tolerance comparison appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

Rational = Union[int, str, Fraction]


class ProjectivePoint:
    """A point of the rational projective plane, canonically scaled."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Rational]):
        vals = tuple(Fraction(c) for c in coords)
        if len(vals) != 3:
            raise ValueError("a projective point needs three coordinates")
        pivot = next((c for c in vals if c != 0), None)
        if pivot is None:
            raise ValueError("homogeneous coordinates cannot all vanish")
        self.coords = tuple(c / pivot for c in vals)

    @classmethod
    def parse(cls, text: str) -> "ProjectivePoint":
        parts = str(text).strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"expected z0:z1:z2, got {text!r}")
        coords = []
        for part in parts:
            part = part.strip()
            try:
                coords.append(Fraction(part))
            except ZeroDivisionError:
                raise ValueError(
                    f"coordinate {part!r} of point {text!r} has a zero denominator"
                ) from None
        return cls(coords)

    def to_text(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"ProjectivePoint({self.to_text()!r})"


# ---------------------------------------------------------------------------
# Collinearity and strata

def _det3(rows) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def collinear(p: ProjectivePoint, q: ProjectivePoint, r: ProjectivePoint) -> bool:
    """True iff the three points lie on a common projective line."""
    return _det3((p.coords, q.coords, r.coords)) == 0


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
    out = []
    for tri in combinations(range(len(pts)), 3):
        if collinear(*(pts[i] for i in tri)):
            out.append(tuple(i + 1 for i in tri))
    return out


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
    # Two collinear triples of distinct points share two points, hence a
    # line, hence force all four onto it.  So a lone triple is all that
    # can remain; anything else means broken input handling upstream.
    if len(triples) != 1:
        raise ArithmeticError(
            f"collinear triples {triples} cannot occur for distinct points"
        )
    i, j, k = triples[0]
    return f"F_{i}{j}{k}"


# ---------------------------------------------------------------------------
# Cross ratio along a line

def _line_coordinates(a: ProjectivePoint, b: ProjectivePoint, pts):
    """Coordinates [s:t] of each point in the pencil s*a + t*b.

    Works on the coordinate pair where the basis matrix has its largest
    nonzero 2x2 minor; projectively the choice drops out of any ratio
    of determinants in these coordinates.
    """
    best = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minor = a.coords[i] * b.coords[j] - a.coords[j] * b.coords[i]
        if minor != 0 and (best is None or abs(minor) > abs(best[2])):
            best = (i, j, minor)
    if best is None:
        raise ValueError("base points coincide; the line is not determined")
    i, j, _ = best
    out = []
    for p in pts:
        s = p.coords[i] * b.coords[j] - p.coords[j] * b.coords[i]
        t = a.coords[i] * p.coords[j] - a.coords[j] * p.coords[i]
        if s == 0 and t == 0:
            raise ValueError(f"{p!r} does not lie on the parametrized line")
        out.append((s, t))
    return out


def cross_ratio(points) -> Fraction:
    """Cross ratio of four distinct collinear points.

    The common line is parametrized by the first two points and the
    classical ratio ((z3-z1)(z4-z2)) / ((z3-z2)(z4-z1)) is evaluated
    with each difference taken as a 2x2 determinant of pencil
    coordinates, so no affine chart is ever chosen.  Each difference is
    nonzero for distinct points, so the ratio is a rational number other
    than 0 and 1.
    """
    pts = _check_points(points, (4,))
    for tri in combinations(range(4), 3):
        if not collinear(*(pts[i] for i in tri)):
            raise ValueError("cross ratio needs four collinear points")
    z = _line_coordinates(pts[0], pts[1], pts)

    def d(u, v) -> Fraction:
        return u[0] * v[1] - v[0] * u[1]

    num = d(z[2], z[0]) * d(z[3], z[1])
    den = d(z[2], z[1]) * d(z[3], z[0])
    if den == 0:
        # distinct points on the line have pairwise independent coordinates
        raise ArithmeticError(f"cross ratio of distinct points {pts} has a zero denominator")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# The projective linear action

def apply_pgl(M, p: ProjectivePoint) -> ProjectivePoint:
    """Image of p under an invertible rational 3x3 matrix."""
    rows = [tuple(Fraction(x) for x in row) for row in M]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("the action needs a 3x3 matrix")
    if _det3(rows) == 0:
        raise ValueError("singular matrix does not act on the plane")
    return ProjectivePoint(
        [sum(row[k] * p.coords[k] for k in range(3)) for row in rows]
    )
