"""Exact rational linear feasibility for mixed strict/nonstrict systems.

A system {sum a_ij x_j REL_i b_i} with REL_i in {<, <=} is strictly feasible
iff the linear program

    maximize eps  subject to  A x + eps * strict_i <= b,  0 <= eps <= 1

has optimal value eps* > 0.  It is solved by one algorithm, the dual
simplex (Lemke 1954) under a Bland-style rule (no cycling, no floating
point), which stays polynomial-sized on the tiny systems that chamber
enumeration produces, unlike Fourier-Motzkin whose intermediate systems can
blow up doubly exponentially.  Every solve is a fold: it starts from the
trivial optimum of "max eps s.t. eps <= 1" and appends the input rows one
at a time.  A row appended in terms of the optimal basis leaves the
objective row, hence dual feasibility, as it is, and the dual simplex
pivots back to optimality.  An empty ratio test there is the one place an
infeasible system is found; eps* = 0 is read off the optimal tableau.
Because eps* only falls as rows are added, the first prefix that fails
decides the whole system.

The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983,
ch. 2-3): each row holds only the nonbasic columns and the rhs, one entry
per structural variable and one more, however many rows there are.  It is
fraction-free: each input row is scaled by the lcm of its denominators, and
the entries are Python ints over the basis determinant d (Azulay and Pique,
ACM TOMS 27, 2001), pivoted by Edmonds-Bareiss integer elimination (every
entry stays a subdeterminant of the scaled input, so each division is
exact).  The pivot rule picks by variable label, never by column position,
so every solve visits the bases of the full tableau.  Fractions appear only
when the optimal vertex is read off.

A solved tableau is never mutated, so chamber enumeration keeps each
node's tableau and decides every child by one more step of the same fold.
A fold may also start from such a tableau instead of the trivial optimum
(the start argument of interior_tableau and feasible_point): a chamber
leaf's witness is read off the descent's tableau with at most a few rows
more, never solved afresh.

Free variables are split x = u - v with u, v >= 0 to reach standard form.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

# one inequality: (coefficients, rhs, strict) meaning sum a_j x_j < rhs (or <=)
Rational = Union[int, Fraction]
Ineq = tuple[tuple[Rational, ...], Rational, bool]

_ZERO = Fraction(0)


class _Simplex:
    """max eps over z = (u, v, eps) subject to A z <= b, z >= 0, as an integer dictionary.

    Each row of (A | b) is its input row scaled by a positive integer, so
    all entries are ints; its slack variable gets coefficient 1, which
    rescales the slack and leaves every pivot choice as it is over the
    rationals.  Variables are labelled: structural 0..n-1 (eps is n-1), and
    slack n+i for row i, where row 0 is eps <= 1.  Only the nonbasic columns
    are stored (the dictionary form): nb[k] labels position k, and row i,
    whose basic variable is basis[i], holds the entries rows[i][k] / d and
    the value rows[i][-1] / d (obj likewise, with obj[-1] / d = -eps).  The
    entries are those of the full tableau over its common denominator d > 0,
    so a rule applied by label makes the same choices as it would there.

    A new instance is the trivial optimum: eps <= 1 alone, with eps pivoted
    into the basis at 1.  Every other pivot comes from with_row().
    """

    def __init__(self, nvars: int):
        self.n = 2 * nvars + 1
        eps = self.n - 1
        self.rows = [[0] * eps + [1, 1]]
        self.basis = [self.n]
        self.nb = list(range(self.n))
        self.obj = [0] * eps + [1, 0]
        self.d = 1
        self._pivot(0, eps)

    def _pivot(self, r: int, col: int) -> None:
        """Exchange basis[r] with nb[col] by one Bareiss step.

        The leaving variable takes over position col.  Its full-tableau
        column, d in row r and 0 elsewhere, comes out as s*d in row r, -s*f
        in a row with entering entry f and -s*obj[col] in obj, where s is the
        sign of the pivot.  No row is written in place: rows may be shared.
        """
        row = self.rows[r]
        p, d = row[col], self.d
        # keep d > 0 so that signs of entries are signs of values; with the
        # pivot row negated and |p|, every updated row comes out negated too
        s = 1 if p > 0 else -1
        base = list(row) if s > 0 else [-v for v in row]
        base[col] = s * d
        p *= s

        def eliminate(row: list[int]) -> list[int]:
            f = row[col]
            if f == 0:
                return row if p == d else [v * p // d for v in row]
            new = [(v * p - f * w) // d for v, w in zip(row, base)]
            new[col] = -s * f
            return new

        self.rows = [base if i == r else eliminate(row) for i, row in enumerate(self.rows)]
        self.obj = eliminate(self.obj)
        self.d = p
        self.basis[r], self.nb[col] = self.nb[col], self.basis[r]

    def _by_label(self) -> list[int]:
        """The column positions in increasing order of their labels."""
        return sorted(range(len(self.nb)), key=self.nb.__getitem__)

    def values(self) -> dict[int, Fraction]:
        """The basic solution as {label: value}."""
        return {bi: Fraction(row[-1], self.d) for row, bi in zip(self.rows, self.basis)}

    def with_row(self, a: Sequence[int], b: int) -> Optional["_Simplex"]:
        """A solved copy with the row a.z <= b appended, or None if infeasible.

        The new row, raw*d - sum raw[b_i]*rows[i] over the optimal basis and
        the nonbasic columns, gets the new slack n+m as its basic variable;
        that leaves the basis determinant, hence d, unchanged.  The dual
        simplex then pivots out the negative rhs of smallest basis label on
        the column of least ratio obj[j] / row[j] over row[j] < 0 (smallest
        label on ties); no such column means the system has no point.  Rows
        that no pivot touches stay shared with self, which is never mutated.
        """
        d = self.d
        new = [a[j] * d if j < self.n else 0 for j in self.nb] + [b * d]
        for row, bi in zip(self.rows, self.basis):
            f = a[bi] if bi < self.n else 0
            if f != 0:
                new = [v - f * w for v, w in zip(new, row)]
        child = copy.copy(self)
        child.rows = self.rows + [new]
        child.basis = self.basis + [self.n + len(self.rows)]
        child.nb = list(self.nb)
        while True:
            leave = None
            for i, row in enumerate(child.rows):
                if row[-1] < 0 and (leave is None or child.basis[i] < child.basis[leave]):
                    leave = i
            if leave is None:
                return child
            row, obj = child.rows[leave], child.obj
            enter = None
            for j in child._by_label():
                # obj[j] / row[j] < obj[enter] / row[enter], both rows negative
                if row[j] < 0 and (enter is None or obj[j] * row[enter] < obj[enter] * row[j]):
                    enter = j
            if enter is None:
                return None
            child._pivot(leave, enter)


def _scaled_row(ineq: Ineq) -> tuple[list[int], int]:
    """(z-row, rhs) of one inequality, scaled to ints by the lcm of its denominators."""
    coeffs, rhs, strict = ineq
    s = lcm(rhs.denominator, *(x.denominator for x in coeffs))
    row = [x.numerator * (s // x.denominator) for x in coeffs]
    return row + [-x for x in row] + [s if strict else 0], rhs.numerator * (s // rhs.denominator)


def _interior(lp: _Simplex) -> Optional[_Simplex]:
    """lp if its optimal eps (the last structural column) is positive."""
    eps = lp.n - 1
    for row, bi in zip(lp.rows, lp.basis):
        if bi == eps:
            return lp if row[-1] > 0 else None
    return None


def _split_point(values: dict[int, Fraction], nvars: int) -> tuple[Fraction, ...]:
    """x = u - v from the basic solution of a max-eps program."""
    return tuple(values.get(j, _ZERO) - values.get(nvars + j, _ZERO) for j in range(nvars))


def feasible_point(
    ineqs: Sequence[Ineq], nvars: int, start: Optional[_Simplex] = None
) -> Optional[tuple[Fraction, ...]]:
    """A rational point satisfying every constraint (strictness included).

    With start, the point satisfies start's system as well: ineqs are folded
    onto that solved tableau (see interior_tableau).
    """
    lp = interior_tableau(ineqs, nvars, start)
    return None if lp is None else _split_point(lp.values(), nvars)


def interior_tableau(
    ineqs: Sequence[Ineq], nvars: int, start: Optional[_Simplex] = None
) -> Optional[_Simplex]:
    """The solved max-eps tableau of a strictly feasible system, else None.

    start (by default the trivial optimum) takes the rows one at a time by
    tighten(); eps* only falls as rows are added, so the first empty or
    eps* = 0 prefix decides.  A start other than the default must itself be
    a tableau with eps* > 0, such as a result of this function or tighten(),
    and the system solved is then start's rows followed by ineqs.
    """
    lp: Optional[_Simplex] = _Simplex(nvars) if start is None else start
    for ineq in ineqs:
        lp = tighten(lp, ineq)
        if lp is None:
            break
    return lp


def tighten(lp: _Simplex, ineq: Ineq) -> Optional[_Simplex]:
    """interior_tableau() of lp's system with ineq appended, warm-started."""
    child = lp.with_row(*_scaled_row(ineq))
    return None if child is None else _interior(child)
