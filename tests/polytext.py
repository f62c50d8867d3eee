"""Polynomials written as text, for tests: P(table, text) reads what
GPolynomial.to_text writes.

The package only ever writes polynomials as text, so the reader lives
here.  Its round-trip tests are test_gradedalg.TestParseAndText.
"""

import re

from cpstrata.gradedalg import GPolynomial
from cpstrata.lattice import parse_rational


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
