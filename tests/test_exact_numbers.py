"""One rule for exact numbers at every entry point.

lattice.exact_rationals and lattice.exact_ints decide what a rational and
an int are for every module: an int is an int and not a bool; a rational
is such an int, a Fraction or an ASCII rational string.  Each entry
point below must refuse the same inexact values, with a message that
starts with the entry's name and the value's repr.
"""

import numbers
import re
from decimal import Decimal

import pytest

from cpstrata.ballmodels import CircleWeights
from cpstrata.confgeom import ProjectivePoint, apply_pgl
from cpstrata.dga import DgaSpec
from cpstrata.gradedalg import GeneratorTable, GPolynomial, PresentedAlgebra
from cpstrata.kriz import KrizParams
from cpstrata.lattice import Capacities


class Ratio:
    """A numbers.Rational registered from outside the standard library."""

    def __init__(self, p, q=1):
        self.numerator, self.denominator = p, q

    def __repr__(self):
        return f"Ratio({self.numerator}, {self.denominator})"


numbers.Rational.register(Ratio)

TORUS = GeneratorTable(("T1", "T2"), (2, 2))
E1 = ProjectivePoint((1, 0, 0))

# (entry, name in messages, call on one value)
RATIONAL_ENTRIES = [
    ("capacity", "capacity", lambda v: Capacities(["1/2", v])),
    ("coefficient", "coefficient", lambda v: GPolynomial(TORUS, [((1, 0), v)])),
    ("constant", "coefficient", lambda v: GPolynomial.constant(TORUS, v)),
    ("scalar", "scalar", lambda v: GPolynomial.generator(TORUS, "T1") * v),
    ("coordinate", "coordinate", lambda v: ProjectivePoint((1, v, 0))),
    ("matrix-entry", "entry", lambda v: apply_pgl([[1, 0, 0], [0, v, 0], [0, 0, 1]], E1)),
]
INT_ENTRIES = [
    ("degree", "generator degree", lambda v: GeneratorTable(("x", "y"), (2, v))),
    ("nilpotence", "nilpotence bound", lambda v: GeneratorTable(("x",), (2,), (v,))),
    ("exponent", "exponent", lambda v: GPolynomial(TORUS, [((1, v), 1)])),
    ("kriz-m", "m", lambda v: KrizParams(v, 2)),
    ("kriz-k", "k", lambda v: KrizParams(2, v)),
    ("circle-weight", "circle weight entry", lambda v: CircleWeights([(1, 1), (v, 2)])),
    ("degree-cap", "degree_cap", lambda v: DgaSpec(PresentedAlgebra(TORUS, ()), {}, v)),
]
INEXACT = [("bool", True), ("float", 2.5), ("decimal", Decimal("0.5")), ("foreign-rational", Ratio(2))]
# strings that Fraction and int() read but the gates refuse
LOOSE_STRINGS = [("underscore", "1_0/3"), ("unicode-digit", "٣/4")]

CASES = [
    pytest.param(call, what, value, TypeError, "is not an int, Fraction or rational string", id=f"{entry}-{label}")
    for entry, what, call in RATIONAL_ENTRIES
    for label, value in INEXACT
] + [
    pytest.param(call, what, value, ValueError, "has an underscore or a non-ASCII character", id=f"{entry}-{label}")
    for entry, what, call in RATIONAL_ENTRIES
    for label, value in LOOSE_STRINGS
] + [
    pytest.param(call, what, value, TypeError, "is not an int", id=f"{entry}-{label}")
    for entry, what, call in INT_ENTRIES
    for label, value in INEXACT + [("string", "3")]
]


@pytest.mark.parametrize("call,what,value,error,reason", CASES)
def test_inexact_value_is_refused_naming_the_entry(call, what, value, error, reason):
    with pytest.raises(error, match=rf"^{re.escape(f'{what} {value!r}')}.*{re.escape(reason)}$"):
        call(value)

