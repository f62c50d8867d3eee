"""Rational models for spaces of unparametrized balls in the projective plane.

Each stability chamber determines, up to homotopy, the stabilizer of a
maximal ball configuration: a unitary group for one ball, the standard
torus for two balls or three big ones, and a wedge-like union of circle
subgroups once the balls get small.  The embedding space then fits into
a fibration over the classifying space of that stabilizer with fiber
PU(3), and its rational model is

    base algebra on degree-2 classes T_i (one per circle)  x  L(beta, gamma)

with d(beta), d(gamma) recording the composite of each circle with the
two generating spherical classes of PU(3).  A circle with weight pair
(a, b) contributes m*T^2 to d(beta) and n*T^3 to d(gamma) where
m = a^2 + a*b + b^2 and n = a^2*b + a*b^2; the full torus contributes
the symmetric polynomials T1^2 + T2^2 + T1*T2 and T1^2*T2 + T1*T2^2.
Circles living in distinct wedge summands multiply to zero.

One table, _CHAMBERS, gives each circle chamber its torus circles (0 or
2, one summand) and free circles (one summand each).  One rule writes
every circle presentation: beta is a generator only when there is no
circle, else d(beta) is a relation; so are the products T_i*T_j across
summands and, over the torus, T1^3.  eta maps to
(prod m)*gamma - sum n_i*(prod m/m_i)*T_i*beta in degree 5, times T3 over
the torus (degree 7, with relations eta*T1, eta*T2); a torus with no free
circle has no eta.

This module builds those models, the frozen presentations their
cohomology is checked against, the stabilizer cohomology rings, the
weight-independence sweep, and the comparison of the three-small-balls
answer with the Ashraf-Berceanu presentation of the configuration space
of three points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Optional, Sequence

from .dga import DgaSpec, cohomology_ranks, substitute
from .gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra, SparseReducer, integer_row
from .kriz import KrizParams, kriz_model
from .lattice import exact_ints

Pair = tuple[int, int]
WeightsLike = Optional[Sequence[Pair]]


class CircleWeights:
    """Integer weight pairs (a_i, b_i), one per free circle generator.

    The derived quantities m_i = a^2 + a*b + b^2 and n_i = a^2*b + a*b^2
    are the coefficients the circle feeds into d(beta) and d(gamma).
    The pair (0, 0) is rejected at construction: it is the only integer
    pair with m = 0, and a circle acting with zero weights is no circle.
    A pair must hold two ints (ValueError for another length, TypeError
    for an entry that fails lattice.exact_ints, a bool or a float among them).
    """

    def __init__(self, pairs: Sequence[Pair]):
        clean = [tuple(pair) for pair in pairs]
        for pair in clean:
            if len(pair) != 2:
                raise ValueError(f"circle weight {pair!r} is not a pair")
        exact_ints([x for pair in clean for x in pair], "circle weight entry", lambda: f" of {clean!r}")
        if (0, 0) in clean:
            raise ValueError("degenerate circle weight (0, 0)")
        self.pairs: tuple[Pair, ...] = tuple(clean)
        self.m: tuple[int, ...] = tuple(a * a + a * b + b * b for a, b in clean)
        self.n: tuple[int, ...] = tuple(a * a * b + a * b * b for a, b in clean)


# ---------------------------------------------------------------------------
# Chamber bookkeeping

# (n, label) -> (torus circles, free circles), or None for the two chambers
# that are not circle models: one ball and four small balls.  The torus
# circles have the pinned weights (1,0), (0,1); a free circle takes a pair.
_CHAMBERS = {
    (1, "C_unique"): None,
    (2, "C_unique"): (2, 0),
    (3, "big"): (2, 0),
    (3, "small"): (2, 1),
    (4, "C_0"): (0, 0),
    (4, "C_1"): (0, 1),
    (4, "C_2"): (0, 2),
    (4, "C_3"): (0, 3),
    (4, "C_4"): (0, 4),
    (4, "C_5"): None,
}


def canonical_chamber(n: int, chamber: str) -> str:
    """Normalize a chamber label and reject unsupported (n, label) pairs.
    n must be an int: True and 4.0 would hash like the keys 1 and 4."""
    exact_ints((n,), "ball count")
    label = str(chamber).strip()
    if label == "unique":
        label = "C_unique"
    elif len(label) == 2 and label[0] == "C" and label[1].isdigit():
        label = f"C_{label[1]}"
    if (n, label) not in _CHAMBERS:
        raise ValueError(f"unsupported ball count / chamber pair ({n}, {chamber!r})")
    return label


def free_weight_count(n: int, chamber: str) -> int:
    shape = _CHAMBERS[(n, canonical_chamber(n, chamber))]
    return 0 if shape is None else shape[1]


def _coerce_weights(n: int, label: str, w: WeightsLike) -> CircleWeights:
    """The checked free-circle weights of a canonical chamber; None gives
    (1, 1) to each free circle."""
    count = free_weight_count(n, label)
    context = "one ball" if n == 1 else f"chamber {label}"
    w = CircleWeights([(1, 1)] * count if w is None else w)
    if len(w.pairs) != count:
        raise ValueError(
            f"{context} takes {count} circle weight pair(s), got {len(w.pairs)}"
        )
    return w


# ---------------------------------------------------------------------------
# Models of the embedding spaces

def _one_ball_table() -> GeneratorTable:
    # The stabilizer of a single ball is a rank-2 unitary group, not its
    # maximal torus, so the base carries one generator in degree 2 and
    # one in degree 4.  The resulting cohomology is that of the plane.
    return GeneratorTable(("e1", "e2", "beta", "gamma"), (2, 4, 3, 5))


def _one_ball_model(degree_cap: int) -> DgaSpec:
    table = _one_ball_table()
    e1 = GPolynomial.generator(table, "e1")
    e2 = GPolynomial.generator(table, "e2")
    algebra = PresentedAlgebra(table, ())
    return DgaSpec(
        algebra,
        {"beta": e1 * e1 - e2, "gamma": e1 * e2},
        degree_cap,
    )


def _wedge_products(T: Sequence[GPolynomial], base: int) -> list[GPolynomial]:
    """T_i * T_j for the circles T of distinct wedge summands, which
    multiply to zero: the base torus circles T[:base] share one summand,
    every free circle is its own."""
    return [T[i] * T[j] for i, j in combinations(range(len(T)), 2) if j >= base]


def _wedge_algebra(base: int, free: int, fiber: bool) -> PresentedAlgebra:
    """T_1..T_k in degree 2 for base torus circles and free wedge circles,
    then beta (degree 3) and gamma (degree 5) when fiber is set."""
    k = base + free
    names = tuple(f"T{i}" for i in range(1, k + 1))
    table = GeneratorTable(
        names + (("beta", "gamma") if fiber else ()),
        (2,) * k + ((3, 5) if fiber else ()),
    )
    T = [GPolynomial.generator(table, name) for name in names]
    return PresentedAlgebra(table, _wedge_products(T, base))


@lru_cache(maxsize=None)
def _circle_algebra(base: int, free: int) -> PresentedAlgebra:
    """The algebra of a circle model: the wedge algebra with beta, gamma.

    It depends on the chamber only, not on the weights, so every model of
    a chamber shares one algebra and the graded frames it builds lazily.
    """
    return _wedge_algebra(base, free, fiber=True)


def _circle_values(
    table: GeneratorTable, base: int, weights: CircleWeights
) -> tuple[GPolynomial, GPolynomial]:
    """d(beta) and d(gamma) over the leading T_i of table, as packed terms
    in the key order of the module docstring's sums: the torus terms, then
    per free circle m_i * T_i^2 and, when n_i != 0, n_i * T_i^3."""
    # T_i^e keyed e * unit_i: the T_i are even and uncapped, and no two
    # keys coincide, so nothing cancels
    unit, one = table._units, Fraction(1)
    if base:
        u1, u2 = unit[0], unit[1]
        dbeta = {2 * u1: one, 2 * u2: one, u1 + u2: one}
        dgamma = {2 * u1 + u2: one, u1 + 2 * u2: one}
    else:
        dbeta, dgamma = {}, {}
    for u, m, nn in zip(unit[base:], weights.m, weights.n):
        dbeta[2 * u] = Fraction(m)
        if nn:
            dgamma[3 * u] = Fraction(nn)
    return GPolynomial._wrap(table, dbeta), GPolynomial._wrap(table, dgamma)


def iemb_model(
    n: int,
    chamber: str,
    w: WeightsLike = None,
    degree_cap: Optional[int] = None,
) -> DgaSpec:
    """Model of the space of n unparametrized balls in the given chamber.

    The chamber of four small balls is handled by the configuration-space
    model and is redirected to kriz_model(2, 4), at its default cap 14 unless
    degree_cap is given; it accepts no weights.  Every other chamber's
    default cap 12 leaves two degrees of headroom above the top nonzero
    cohomology group (degree 9), so a class cut off by the cap would show
    as a nonzero rank in degree 11 or 12.
    """
    label = canonical_chamber(n, chamber)
    weights = _coerce_weights(n, label, w)
    if (n, label) == (4, "C_5"):
        return kriz_model(KrizParams(2, 4), degree_cap)
    if degree_cap is None:
        degree_cap = 12
    shape = _CHAMBERS[(n, label)]
    if shape is None:
        return _one_ball_model(degree_cap)
    algebra = _circle_algebra(*shape)
    dbeta, dgamma = _circle_values(algebra.table, shape[0], weights)
    return DgaSpec(algebra, {"beta": dbeta, "gamma": dgamma}, degree_cap)


# ---------------------------------------------------------------------------
# Stabilizer cohomology rings

def _pair_quadratic(table: GeneratorTable, i: int, j: int) -> GPolynomial:
    ai = GPolynomial.generator(table, f"a{i}")
    aj = GPolynomial.generator(table, f"a{j}")
    return ai * ai + ai * aj + aj * aj


def four_ball_stabilizer_presentation() -> PresentedAlgebra:
    """Cohomology of the stabilizer classifying space for four small balls.

    Generators a1..a4 in degree 2 and e1, e2 in degree 5.  The quadratic
    part identifies all six diagonal classes a_i^2 + a_i*a_j + a_j^2 with
    one another; the degree-5 classes are annihilated by every difference
    a_j - a_k and multiply to zero.  Graded dimensions start
    1, 0, 4, 0, 5, 2 and repeat 5, 2 from degree 4 on.
    """
    table = GeneratorTable(
        ("a1", "a2", "a3", "a4", "e1", "e2"), (2, 2, 2, 2, 5, 5)
    )
    base = _pair_quadratic(table, 1, 2)
    relations = [
        _pair_quadratic(table, i, j) - base
        for i, j in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    ]
    for e_name in ("e1", "e2"):
        e = GPolynomial.generator(table, e_name)
        for j, k in combinations((1, 2, 3, 4), 2):
            aj = GPolynomial.generator(table, f"a{j}")
            ak = GPolynomial.generator(table, f"a{k}")
            relations.append(e * (aj - ak))
    relations.append(
        GPolynomial.generator(table, "e1") * GPolynomial.generator(table, "e2")
    )
    return PresentedAlgebra(table, relations)


def bstab_presentation(n: int, chamber: str) -> PresentedAlgebra:
    """Cohomology presentation of the stabilizer classifying space.

    A circle chamber's ring is its model's wedge algebra without the fiber
    generators, built afresh on each call.
    """
    label = canonical_chamber(n, chamber)
    shape = _CHAMBERS[(n, label)]
    if shape is not None:
        return _wedge_algebra(*shape, fiber=False)
    if n == 1:
        return PresentedAlgebra(GeneratorTable(("e1", "e2"), (2, 4)), ())
    return four_ball_stabilizer_presentation()


# ---------------------------------------------------------------------------
# Frozen cohomology presentations of the embedding spaces

def iemb_presentation(
    n: int,
    chamber: str,
    w: WeightsLike = None,
) -> tuple[PresentedAlgebra, dict[str, GPolynomial]]:
    """Presentation of H^*(IEmb) plus the generator map into the model.

    The map sends each presentation generator to a cocycle of the model
    returned by iemb_model(n, chamber, w), so the pair feeds directly
    into dga.verify_presentation; only that model's generator table is
    built here, not its differential.  Weighted chambers keep the integer
    coefficients m_i in the relations rather than rescaling the degree-2
    generators by irrational square roots.
    """
    label = canonical_chamber(n, chamber)
    if (n, label) == (4, "C_5"):
        raise ValueError(
            "no finite presentation is shipped for chamber C_5; "
            "compare ranks against the four-point configuration model"
        )
    weights = _coerce_weights(n, label, w)
    if n == 1:
        ptable = GeneratorTable(("h",), (2,))
        h = GPolynomial.generator(ptable, "h")
        pres = PresentedAlgebra(ptable, (h * h * h,))
        return pres, {"h": GPolynomial.generator(_one_ball_table(), "e1")}

    base, free = _CHAMBERS[(n, label)]
    mt = _circle_algebra(base, free).table
    names = mt.names[: base + free]
    gen_map = {name: GPolynomial.generator(mt, name) for name in names}
    beta = GPolynomial.generator(mt, "beta")
    if not names:  # no circle: d(beta) = 0, so beta is a class
        gen_map["beta"] = beta
    if free or not base:  # a torus with no free circle has no eta
        # gamma with the T_i * beta corrections that close it; the product
        # of the m_i clears denominators
        total = prod(weights.m)
        eta = total * GPolynomial.generator(mt, "gamma")
        for name, m, nn in zip(names[base:], weights.m, weights.n):
            eta = eta - nn * (total // m) * (gen_map[name] * beta)
        # over the torus eta is not closed but T3 * eta is: degree 7
        gen_map["eta"] = gen_map[names[base]] * eta if base else eta

    # each generator has the degree of its image
    ptable = GeneratorTable(tuple(gen_map), tuple(g.degree() for g in gen_map.values()))
    T = [GPolynomial.generator(ptable, name) for name in names]
    # d(beta) is a relation whenever there is a circle (zero, and dropped,
    # when there is none)
    relations = [_circle_values(ptable, base, weights)[0]] + _wedge_products(T, base)
    if base:
        relations.append(T[0] * T[0] * T[0])
        if "eta" in gen_map:
            eta = GPolynomial.generator(ptable, "eta")
            relations += [eta * T[0], eta * T[1]]
    return PresentedAlgebra(ptable, relations), gen_map


# ---------------------------------------------------------------------------
# Verification sweeps

def weight_independence_check(
    n: int,
    chamber: str,
    weight_sets: Sequence[WeightsLike],
) -> bool:
    """True iff the cohomology ranks agree across all given weight sets."""
    if len(weight_sets) < 2:
        raise ValueError("weight independence needs at least two weight sets")
    reference: Optional[list[int]] = None
    for w in weight_sets:
        ranks = cohomology_ranks(iemb_model(n, chamber, w)).ranks
        if reference is None:
            reference = ranks
        elif ranks != reference:
            return False
    return True


def ab_presentation() -> PresentedAlgebra:
    """The Ashraf-Berceanu ring of three points in the projective plane."""
    table = GeneratorTable(("alpha1", "alpha2", "alpha3", "zeta"), (2, 2, 2, 7))
    a = {i: GPolynomial.generator(table, f"alpha{i}") for i in (1, 2, 3)}
    zeta = GPolynomial.generator(table, "zeta")
    relations = [
        a[i] * a[i] + a[j] * a[j] + a[i] * a[j]
        for i, j in ((1, 2), (1, 3), (2, 3))
    ]
    relations.append(a[1] * a[1] * a[1])
    relations.extend(zeta * (a[i] - a[j]) for i, j in ((1, 2), (1, 3), (2, 3)))
    return PresentedAlgebra(table, relations)


@dataclass(frozen=True)
class AbIsoReport:
    ok: bool
    source_dims: tuple[int, ...]
    target_dims: tuple[int, ...]
    images: tuple[tuple[str, str], ...]
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def ab_isomorphism_check() -> AbIsoReport:
    """Map the three-point configuration ring onto the small-balls answer.

    Uses the weight pair (1, 1) for the third circle, the one case where
    the rescaling constant sqrt(m3 / 3) is rational (namely 1).  Checks
    that every source relation maps into the target ideal, that the
    degree-2 images span, and that the graded dimensions agree through
    degree 12, which together force a ring isomorphism.
    """
    source = ab_presentation()
    target, _ = iemb_presentation(3, "small", [(1, 1)])
    tt = target.table
    t1, t2, t3, eta = (GPolynomial.generator(tt, g) for g in tt.names)
    images = {
        "alpha1": t1 + t3,
        "alpha2": t2 + t3,
        "alpha3": -t1 - t2 + t3,
        "zeta": eta,
    }

    failures: list[str] = []
    image_pairs: list[tuple[str, str]] = []
    for rel in source.relations:
        img = substitute(rel, images, tt)
        image_pairs.append((rel.to_text(), img.to_text()))
        if not target.ideal_member(img):
            failures.append(
                f"image of {rel.to_text()} is not a target ideal member"
            )

    # The three degree-2 images must span the degree-2 part.
    span = SparseReducer()
    for name in ("alpha1", "alpha2", "alpha3"):
        span.insert(integer_row(images[name].terms)[1])
    if span.rank != 3:
        failures.append("degree-2 images do not span")

    source_dims = tuple(source.quotient_dimension(q) for q in range(13))
    target_dims = tuple(target.quotient_dimension(q) for q in range(13))
    if source_dims != target_dims:
        failures.append(
            f"graded dimensions differ: {list(source_dims)} vs {list(target_dims)}"
        )

    return AbIsoReport(
        ok=not failures,
        source_dims=source_dims,
        target_dims=target_dims,
        images=tuple(image_pairs),
        failures=tuple(failures),
    )
