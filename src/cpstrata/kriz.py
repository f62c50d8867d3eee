"""Rational models for configuration spaces of complex projective space.

E(m, k) is a differential graded algebra computing the rational cohomology
of the space of k ordered distinct points in CP^m.  Generators: one degree-2
class x_a per point with x_a^{m+1} = 0, and one degree 2m-1 class G_ab per
unordered pair.  G carries no orientation: G_ba names the same generator as
G_ab.  Relations identify x_a^i G_ab with x_b^i G_ab and impose the
three-term relation on G products over each triple of points; the
differential sends G_ab to the diagonal class sum_{i+j=m} x_a^i x_b^j and
kills every x_a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .dga import DgaSpec, substitute
from .gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra


@dataclass(frozen=True)
class KrizParams:
    """Complex dimension m of the ambient projective space, k points."""

    m: int
    k: int

    def __post_init__(self):
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
    projection, written in the dual bases x^i <-> x^{m-i}.
    """
    if a == b:
        raise ValueError("diagonal pullback needs two distinct points")
    out = GPolynomial.zero(table)
    for i in range(m + 1):
        word = [f"x{a}"] * i + [f"x{b}"] * (m - i)
        out = out + GPolynomial.from_word(table, word)
    return out


def _pair_relations(p: KrizParams, table: GeneratorTable) -> list[GPolynomial]:
    rels = []
    for a, b in point_pairs(p.k):
        for i in range(1, p.m + 1):
            left = GPolynomial.from_word(table, [f"x{a}"] * i + [g_name(a, b)])
            right = GPolynomial.from_word(table, [f"x{b}"] * i + [g_name(a, b)])
            rels.append(left - right)
    return rels


def _arnold_relations(p: KrizParams, table: GeneratorTable) -> list[GPolynomial]:
    rels = []
    for a in range(1, p.k + 1):
        for b in range(a + 1, p.k + 1):
            for c in range(b + 1, p.k + 1):
                # G_ab G_bc + G_bc G_ca + G_ca G_ab, indices normalized;
                # from_word applies the Koszul signs.
                rel = (
                    GPolynomial.from_word(table, [g_name(a, b), g_name(b, c)])
                    + GPolynomial.from_word(table, [g_name(b, c), g_name(c, a)])
                    + GPolynomial.from_word(table, [g_name(c, a), g_name(a, b)])
                )
                rels.append(rel)
    return rels


def default_cap(p: KrizParams) -> int:
    return 14 if (p.m, p.k) == (2, 4) else 10


def kriz_model(p: KrizParams, degree_cap: Optional[int] = None) -> DgaSpec:
    """The configuration model E(m, k) as a DgaSpec."""
    table = kriz_table(p)
    relations = _pair_relations(p, table) + _arnold_relations(p, table)
    values = {
        g_name(a, b): diagonal_pullback(p.m, a, b, table)
        for a, b in point_pairs(p.k)
    }
    cap = default_cap(p) if degree_cap is None else degree_cap
    return DgaSpec(PresentedAlgebra(table, tuple(relations)), values, cap)


def relabeled_model(
    p: KrizParams, perm: Sequence[int], degree_cap: Optional[int] = None
) -> DgaSpec:
    """E(m, k) with point a renamed to perm[a-1] throughout.

    The result presents the same DGA through the relabeling automorphism;
    cohomology ranks must agree with the unpermuted model.
    """
    if sorted(perm) != list(range(1, p.k + 1)):
        raise ValueError(f"not a permutation of 1..{p.k}: {perm}")
    table = kriz_table(p)
    image = {f"x{a}": GPolynomial.generator(table, f"x{perm[a - 1]}")
             for a in range(1, p.k + 1)}
    for a, b in point_pairs(p.k):
        image[g_name(a, b)] = GPolynomial.generator(
            table, g_name(perm[a - 1], perm[b - 1])
        )

    def push(poly: GPolynomial) -> GPolynomial:
        return substitute(poly, image, table)

    base = kriz_model(p)
    relations = tuple(push(r) for r in base.algebra.relations)
    values = {
        g_name(perm[a - 1], perm[b - 1]): push(base.values[g_name(a, b)])
        for a, b in point_pairs(p.k)
    }
    cap = default_cap(p) if degree_cap is None else degree_cap
    return DgaSpec(PresentedAlgebra(table, relations), values, cap)
