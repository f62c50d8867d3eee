"""Polynomials for tests: P(table, text) reads what GPolynomial.to_text
writes, and from_exponents(table, terms) builds one from exponent tuples.

The package only ever writes polynomials as text and builds them from
generators, so both readers live here.  P's round-trip tests are
test_gradedalg.TestParseAndText.
"""

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from cpstrata.gradedalg import _FREE_MAX, GPolynomial
from cpstrata.lattice import parse_rational


def from_exponents(table, terms: Union[Mapping, Iterable]) -> GPolynomial:
    """The sum of coeff * x^mono over (exponent tuple, coefficient) pairs, or
    a dict of them; like terms are summed and coefficients go through
    Fraction.  Oracle inputs: each monomial is packed by table._pack and the
    terms adopted by GPolynomial._wrap, so no product (the kernel that
    test_monomial_kernel checks) builds any of it."""
    out: dict[int, Fraction] = {}
    for mono, coeff in terms.items() if isinstance(terms, Mapping) else terms:
        mono = tuple(mono)
        assert len(mono) == table.n and all(
            0 <= e <= (_FREE_MAX if cap is None else cap) for e, cap in zip(mono, table._caps)
        ), f"{mono} is not a monomial over {table.names}"
        key = table._pack(mono)
        c = out.get(key, 0) + Fraction(coeff)
        if c:
            out[key] = c
        elif key in out:
            del out[key]
    return GPolynomial._wrap(table, out)


def P(table, text: str) -> GPolynomial:
    """Inverse of to_text; also accepts unsorted words like G13*G12."""
    s = text.replace(" ", "")
    out = GPolynomial.zero(table)
    if not s or s == "0":
        return out
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse polynomial text {text!r}")
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign, chunk = -1, chunk[1:]
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coeff = sign
        word: list[str] = []
        for factor in chunk.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= parse_rational(factor, f"coefficient {factor!r} in {text!r}")
                continue
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            word.extend([m.group(1)] * int(m.group(2) or 1))
        out = out + GPolynomial.from_word(table, word) * coeff
    return out
