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
from typing import Optional, Sequence, Union

from .dga import DgaSpec, cohomology_ranks, substitute
from .gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra, SparseReducer, integer_row
from .kriz import KrizParams, kriz_model

Pair = tuple[int, int]
WeightsLike = Union["CircleWeights", Sequence[Pair], None]


class CircleWeights:
    """Integer weight pairs (a_i, b_i), one per free circle generator.

    The derived quantities m_i = a^2 + a*b + b^2 and n_i = a^2*b + a*b^2
    are the coefficients the circle feeds into d(beta) and d(gamma).
    The pair (0, 0) is rejected at construction: it is the only integer
    pair with m = 0, and a circle acting with zero weights is no circle.
    A pair must hold two ints (ValueError for another length, TypeError
    for an entry of another type, a bool or a float among them).
    """

    def __init__(self, pairs: Sequence[Pair]):
        clean = []
        for pair in pairs:
            pair = tuple(pair)
            if len(pair) != 2:
                raise ValueError(f"circle weight {pair!r} is not a pair")
            if any(type(x) is not int for x in pair):
                raise TypeError(f"circle weight {pair!r} has an entry that is not an int")
            if pair == (0, 0):
                raise ValueError("degenerate circle weight (0, 0)")
            clean.append(pair)
        self.pairs: tuple[Pair, ...] = tuple(clean)
        self.m: tuple[int, ...] = tuple(a * a + a * b + b * b for a, b in clean)
        self.n: tuple[int, ...] = tuple(a * a * b + a * b * b for a, b in clean)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleWeights):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"CircleWeights({list(self.pairs)!r})"


# ---------------------------------------------------------------------------
# Chamber bookkeeping

# (n, label) -> number of free circle weights the caller supplies.  The
# torus factor of the n <= 3 models is pinned to weights (1,0), (0,1)
# and never parameterized.
_FREE_WEIGHTS = {
    (1, "C_unique"): 0,
    (2, "C_unique"): 0,
    (3, "big"): 0,
    (3, "small"): 1,
    (4, "C_0"): 0,
    (4, "C_1"): 1,
    (4, "C_2"): 2,
    (4, "C_3"): 3,
    (4, "C_4"): 4,
    (4, "C_5"): 0,
}

def canonical_chamber(n: int, chamber: str) -> str:
    """Normalize a chamber label and reject unsupported (n, label) pairs."""
    label = str(chamber).strip()
    if label == "unique":
        label = "C_unique"
    elif len(label) == 2 and label[0] == "C" and label[1].isdigit():
        label = f"C_{label[1]}"
    if (n, label) not in _FREE_WEIGHTS:
        raise ValueError(f"unsupported ball count / chamber pair ({n}, {chamber!r})")
    return label


def free_weight_count(n: int, chamber: str) -> int:
    return _FREE_WEIGHTS[(n, canonical_chamber(n, chamber))]


def _coerce_weights(w: WeightsLike, count: int, context: str) -> CircleWeights:
    if w is None:
        return CircleWeights([(1, 1)] * count)
    if not isinstance(w, CircleWeights):
        w = CircleWeights(w)
    if len(w) != count:
        raise ValueError(
            f"{context} takes {count} circle weight pair(s), got {len(w)}"
        )
    return w


# ---------------------------------------------------------------------------
# Models of the embedding spaces

_FIBER_GENS = (("beta", 3), ("gamma", 5))


def _model_table(circle_names: Sequence[str]) -> GeneratorTable:
    names = tuple(circle_names) + tuple(g for g, _ in _FIBER_GENS)
    degrees = (2,) * len(circle_names) + tuple(d for _, d in _FIBER_GENS)
    return GeneratorTable(names, degrees)


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


@lru_cache(maxsize=None)
def _circle_algebra(base: int, free: int) -> PresentedAlgebra:
    """The algebra of a circle model: base torus circles, free wedge circles.

    It depends on the chamber only, not on the weights, so every model of
    a chamber shares one algebra and the graded frames it builds lazily.
    """
    k = base + free
    names = [f"T{i}" for i in range(1, k + 1)]
    table = _model_table(names)
    T = [GPolynomial.generator(table, name) for name in names]
    # Wedge summands: the torus circles share one, every free circle is
    # its own; classes from distinct summands multiply to zero.
    summand = [0] * base + list(range(1, free + 1))
    relations = [
        T[i] * T[j]
        for i, j in combinations(range(k), 2)
        if summand[i] != summand[j]
    ]
    return PresentedAlgebra(table, relations)


def _circle_shape(n: int, label: str, w: WeightsLike) -> tuple[CircleWeights, int]:
    """The checked free-circle weights of a circle-model chamber, and its
    number of base torus circles."""
    weights = _coerce_weights(w, _FREE_WEIGHTS[(n, label)], f"chamber {label}")
    torus = (n, label) in ((2, "C_unique"), (3, "big"), (3, "small"))
    return weights, 2 if torus else 0


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

    A circle model's values are written down as packed terms, in the key
    order the module docstring's sums give: the torus terms, then per free
    circle m_i * T_i^2 in d(beta) and, when n_i != 0, n_i * T_i^3 in
    d(gamma).  No polynomial product is taken, and the algebra is shared.
    """
    label = canonical_chamber(n, chamber)
    if (n, label) == (4, "C_5"):
        _coerce_weights(w, 0, "chamber C_5")
        return kriz_model(KrizParams(2, 4), degree_cap)
    if degree_cap is None:
        degree_cap = 12
    if (n, label) == (1, "C_unique"):
        _coerce_weights(w, 0, "one ball")
        return _one_ball_model(degree_cap)

    weights, base = _circle_shape(n, label, w)
    algebra = _circle_algebra(base, len(weights))
    table = algebra.table
    # the values as packed terms, T_i^e keyed e * unit_i: the T_i are even
    # and uncapped, and no two keys coincide, so nothing cancels
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

    values = {"beta": GPolynomial._wrap(table, dbeta), "gamma": GPolynomial._wrap(table, dgamma)}
    return DgaSpec(algebra, values, degree_cap)


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
    """Cohomology presentation of the stabilizer classifying space."""
    label = canonical_chamber(n, chamber)
    if (n, label) == (1, "C_unique"):
        return PresentedAlgebra(GeneratorTable(("e1", "e2"), (2, 4)), ())
    if (n, label) in ((2, "C_unique"), (3, "big")):
        return PresentedAlgebra(GeneratorTable(("T1", "T2"), (2, 2)), ())
    if (n, label) == (3, "small"):
        table = GeneratorTable(("T1", "T2", "T3"), (2, 2, 2))
        t1, t2, t3 = (GPolynomial.generator(table, f"T{i}") for i in (1, 2, 3))
        return PresentedAlgebra(table, (t1 * t3, t2 * t3))
    if (n, label) == (4, "C_0"):
        # Contractible stabilizer: the trivial algebra.
        return PresentedAlgebra(GeneratorTable((), ()), ())
    if (n, label) == (4, "C_5"):
        return four_ball_stabilizer_presentation()
    r = int(label[-1])
    names = [f"T{i}" for i in range(1, r + 1)]
    table = GeneratorTable(names, (2,) * r)
    T = [GPolynomial.generator(table, name) for name in names]
    relations = [T[i] * T[j] for i, j in combinations(range(r), 2)]
    return PresentedAlgebra(table, relations)


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
    if (n, label) == (1, "C_unique"):
        _coerce_weights(w, 0, "one ball")
        ptable = GeneratorTable(("h",), (2,))
        h = GPolynomial.generator(ptable, "h")
        pres = PresentedAlgebra(ptable, (h * h * h,))
        return pres, {"h": GPolynomial.generator(_one_ball_table(), "e1")}

    weights, base = _circle_shape(n, label, w)
    mt = _circle_algebra(base, len(weights)).table

    if (n, label) in ((2, "C_unique"), (3, "big")):
        ptable = GeneratorTable(("T1", "T2"), (2, 2))
        t1 = GPolynomial.generator(ptable, "T1")
        t2 = GPolynomial.generator(ptable, "T2")
        pres = PresentedAlgebra(
            ptable, (t1 * t1 + t2 * t2 + t1 * t2, t1 * t1 * t1)
        )
        gen_map = {
            "T1": GPolynomial.generator(mt, "T1"),
            "T2": GPolynomial.generator(mt, "T2"),
        }
        return pres, gen_map

    beta = GPolynomial.generator(mt, "beta")
    gamma = GPolynomial.generator(mt, "gamma")

    if (n, label) == (3, "small"):
        m3, n3 = weights.m[0], weights.n[0]
        ptable = GeneratorTable(("T1", "T2", "T3", "eta"), (2, 2, 2, 7))
        t1, t2, t3, eta = (
            GPolynomial.generator(ptable, g) for g in ptable.names
        )
        pres = PresentedAlgebra(
            ptable,
            (
                t1 * t1 + t2 * t2 + t1 * t2 + m3 * (t3 * t3),
                t1 * t3,
                t2 * t3,
                t1 * t1 * t1,
                eta * t1,
                eta * t2,
            ),
        )
        mt3 = GPolynomial.generator(mt, "T3")
        gen_map = {
            "T1": GPolynomial.generator(mt, "T1"),
            "T2": GPolynomial.generator(mt, "T2"),
            "T3": mt3,
            "eta": m3 * (mt3 * gamma) - n3 * (mt3 * mt3 * beta),
        }
        return pres, gen_map

    if (n, label) == (4, "C_0"):
        ptable = GeneratorTable(("beta", "eta"), (3, 5))
        pres = PresentedAlgebra(ptable, ())
        return pres, {"beta": beta, "eta": gamma}

    # Chambers C_1..C_4: r wedge circles with weights.
    r = int(label[-1])
    ms, ns = weights.m, weights.n
    names = tuple(f"T{i}" for i in range(1, r + 1))
    ptable = GeneratorTable(names + ("eta",), (2,) * r + (5,))
    T = [GPolynomial.generator(ptable, name) for name in names]
    quad = GPolynomial.zero(ptable)
    for m, t in zip(ms, T):
        quad = quad + m * (t * t)
    relations = [quad] + [
        T[i] * T[j] for i, j in combinations(range(r), 2)
    ]
    pres = PresentedAlgebra(ptable, relations)

    # eta pulls back to the evident closed combination of gamma with the
    # T_i * beta corrections; the product of the m_j clears denominators.
    total = 1
    for m in ms:
        total *= m
    eta_img = total * gamma
    for i in range(r):
        t = GPolynomial.generator(mt, f"T{i + 1}")
        eta_img = eta_img - ns[i] * (total // ms[i]) * (t * beta)
    gen_map = {name: GPolynomial.generator(mt, name) for name in names}
    gen_map["eta"] = eta_img
    return pres, gen_map


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
