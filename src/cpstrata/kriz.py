"""Rational models for configuration spaces of complex projective space.

E(m, k) is a differential graded algebra computing the rational cohomology
of the space of k ordered distinct points in CP^m.  Generators: one degree-2
class x_a per point with x_a^{m+1} = 0, and one degree 2m-1 class G_ab per
unordered pair.  G carries no orientation: G_ba names the same generator as
G_ab.  Relations identify x_a^i G_ab with x_b^i G_ab and impose the
three-term relation on G products over each triple of points; the
differential sends G_ab to the diagonal class sum_{i+j=m} x_a^i x_b^j and
kills every x_a.

One builder writes the model under any labeling of the points, so the
relabeled models that test the symmetric-group action are built directly,
not pushed through a substitution.  The pair relations and diagonal
classes are packed terms, linear in m; only the Arnold relations go
through GPolynomial.from_word, for their Koszul signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .dga import DgaSpec
from .gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra
from .lattice import exact_ints


@dataclass(frozen=True)
class KrizParams:
    """Complex dimension m of the ambient projective space, k points."""

    m: int
    k: int

    def __post_init__(self):
        exact_ints((self.m,), "m")
        exact_ints((self.k,), "k")
        if self.m < 1:
            raise ValueError(f"complex dimension m must be >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"point count k must be >= 1, got {self.k}")
        if self.k > 9:
            raise ValueError("single-digit point labels only (k <= 9)")


def point_pairs(k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]


def kriz_table(p: KrizParams) -> GeneratorTable:
    names = [f"x{a}" for a in range(1, p.k + 1)]
    names += [f"G{a}{b}" for a, b in point_pairs(p.k)]
    degrees = [2] * p.k + [2 * p.m - 1] * len(point_pairs(p.k))
    nilpotence = [p.m + 1] * p.k + [None] * len(point_pairs(p.k))
    return GeneratorTable(tuple(names), tuple(degrees), tuple(nilpotence))


def g_name(a: int, b: int) -> str:
    if a == b:
        raise ValueError("no connecting generator for a repeated point")
    a, b = min(a, b), max(a, b)
    return f"G{a}{b}"


def diagonal_pullback(m: int, a: int, b: int, table: GeneratorTable) -> GPolynomial:
    """The class sum_{i+j=m} x_a^i x_b^j hit by the connecting generator.

    This is the image of the diagonal of CP^m x CP^m under the (a,b)
    projection, written in the dual bases x^i <-> x^{m-i}.  Its terms are
    packed directly, so m + 1 must be the bound of x_a and x_b.
    """
    if a == b:
        raise ValueError("diagonal pullback needs two distinct points")
    ia, ib = table.index(f"x{a}"), table.index(f"x{b}")
    if table.nilpotence[ia] != m + 1 or table.nilpotence[ib] != m + 1:
        raise ValueError(f"x{a} and x{b} must have nilpotence bound m + 1 = {m + 1}")
    ua, ub, one = table._units[ia], table._units[ib], Fraction(1)
    return GPolynomial._wrap(table, {i * ua + (m - i) * ub: one for i in range(m + 1)})


def default_cap(p: KrizParams) -> int:
    return 14 if (p.m, p.k) == (2, 4) else 10


def _model(p: KrizParams, label: Sequence[int], degree_cap: Optional[int]) -> DgaSpec:
    """E(m, k) with point a named label[a-1]: per pair a < b the relations
    x_a^i G_ab - x_b^i G_ab, i = 1..m, then per triple a < b < c the Arnold
    relation G_ab G_bc + G_bc G_ca + G_ca G_ab."""
    table = kriz_table(p)
    unit, one, minus = table._units, Fraction(1), Fraction(-1)
    relations, values = [], {}
    for a, b in point_pairs(p.k):
        a, b = label[a - 1], label[b - 1]
        g = g_name(a, b)
        values[g] = diagonal_pullback(p.m, a, b, table)
        xa, xb, ug = unit[a - 1], unit[b - 1], unit[table.index(g)]  # x_a is generator a - 1
        relations += [
            GPolynomial._wrap(table, {i * xa + ug: one, i * xb + ug: minus})
            for i in range(1, p.m + 1)
        ]
    for a, b, c in combinations(label, 3):
        ab, bc, ca = g_name(a, b), g_name(b, c), g_name(c, a)
        relations.append(
            GPolynomial.from_word(table, [ab, bc])
            + GPolynomial.from_word(table, [bc, ca])
            + GPolynomial.from_word(table, [ca, ab])
        )
    cap = default_cap(p) if degree_cap is None else degree_cap
    return DgaSpec(PresentedAlgebra(table, tuple(relations)), values, cap)


def kriz_model(p: KrizParams, degree_cap: Optional[int] = None) -> DgaSpec:
    """The configuration model E(m, k) as a DgaSpec."""
    return _model(p, range(1, p.k + 1), degree_cap)


def relabeled_model(
    p: KrizParams, perm: Sequence[int], degree_cap: Optional[int] = None
) -> DgaSpec:
    """E(m, k) with point a renamed to perm[a-1] throughout.

    The result presents the same DGA through the relabeling automorphism;
    cohomology ranks must agree with the unpermuted model.
    """
    if sorted(exact_ints(perm, "point label")) != list(range(1, p.k + 1)):
        raise ValueError(f"not a permutation of 1..{p.k}: {perm}")
    return _model(p, tuple(perm), degree_cap)
