"""Exact rational linear feasibility for mixed strict/nonstrict systems.

A system {sum a_ij x_j REL_i b_i} with REL_i in {<, <=} is strictly feasible
iff the linear program

    maximize eps  subject to  A x + eps * strict_i <= b,  0 <= eps <= 1

has optimal value eps* > 0.  The program is solved by a two-phase dense
simplex with Bland's rule (no cycling, no floating point), which stays
polynomial-sized on the tiny systems that chamber enumeration produces,
unlike Fourier-Motzkin whose intermediate systems can blow up doubly
exponentially.

The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983,
ch. 2-3): each row holds only the nonbasic columns and the rhs, one entry
per structural variable and one more, however many rows there are.  It is
fraction-free: each input row is scaled by the lcm of its denominators, and
the entries are Python ints over the basis determinant d (Azulay and Pique,
ACM TOMS 27, 2001), pivoted by Edmonds-Bareiss integer elimination (every
entry stays a subdeterminant of the scaled input, so each division is
exact).  Bland's rule picks by variable label, never by column position, so
every solve visits the bases of the full tableau.  Fractions appear only
when the optimal vertex is read off.

A solved tableau can be tightened by one more row without a cold solve:
the row is appended in terms of the optimal basis, which leaves the
objective row dual feasible, and the dual simplex (Lemke 1954) pivots
the same integer dictionary back to optimality under a Bland-style rule.
Chamber enumeration decides every node below the root this way.

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
    """max c.z subject to A z <= b, z >= 0, as an integer dictionary under Bland's rule.

    Row i of (A | b) is the input row multiplied by scale[i] > 0, so all
    entries are ints; its slack variable gets coefficient 1, which rescales
    the slack and leaves every pivot choice as it is over the rationals.
    Variables are labelled: structural 0..n-1, and slack n+i for row i.
    Only the nonbasic columns are stored (the dictionary form): nb[k] labels
    position k, and row i, whose basic variable is basis[i], holds the
    entries rows[i][k] / d and the value rows[i][-1] / d (obj likewise, with
    obj[-1] / d = -z).  The entries are those of the full tableau over its
    common denominator d > 0, so Bland's rule, applied by label, makes the
    same choices as it would there.
    """

    def __init__(
        self, a: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int], scale: Sequence[int]
    ):
        self.n = len(c)
        self.rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
        self.basis = [self.n + i for i in range(len(a))]
        self.nb = list(range(self.n))
        self.c = list(c)
        self.scale = scale
        self.d = 1

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

    def _bland_loop(self) -> None:
        while True:
            enter = next((j for j in self._by_label() if self.obj[j] > 0), None)
            if enter is None:
                return
            leave = None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    if leave is None:
                        leave = i
                        continue
                    # compare row[-1] / row[enter] with the best ratio so far
                    best = self.rows[leave]
                    lhs, rhs = row[-1] * best[enter], best[-1] * row[enter]
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave is None:
                # both objectives are bounded: phase 1 by 0, phase 2 by eps <= 1
                raise ArithmeticError("unbounded objective in a bounded program")
            self._pivot(leave, enter)

    def values(self) -> dict[int, Fraction]:
        """The basic solution as {label: value}."""
        return {bi: Fraction(row[-1], self.d) for row, bi in zip(self.rows, self.basis)}

    def solve(self) -> Optional[dict[int, Fraction]]:
        """Basic optimal solution as {label: value}, or None if infeasible."""
        if any(row[-1] < 0 for row in self.rows):
            # phase 1: max -x0 with x0 subtracted from every unscaled row;
            # x0 is labelled above every slack and takes the last position
            art = self.n + len(self.rows)
            self.rows = [row[:-1] + [-s, row[-1]] for row, s in zip(self.rows, self.scale)]
            self.nb.append(art)
            self.obj = [0] * len(self.nb) + [0]
            self.obj[-2] = -1
            # most negative unscaled rhs, first on ties
            worst = min(range(len(self.rows)), key=lambda i: Fraction(self.rows[i][-1], self.scale[i]))
            self._pivot(worst, len(self.nb) - 1)
            self._bland_loop()
            if self.obj[-1] > 0:  # objective row stores -z, so z* = -obj[-1] / d
                return None
            if art in self.basis:
                # basic at zero; pivot it out (degenerate, keeps feasibility)
                # on its nonzero entry of smallest label.  One exists: the
                # row's slack entries are a row of the inverse basis.
                r = self.basis.index(art)
                self._pivot(r, next(j for j in self._by_label() if self.rows[r][j] != 0))
            k = self.nb.index(art)
            del self.nb[k]
            for row in self.rows:
                del row[k]
        # phase 2 objective c - sum c_bi * (row i / d), expressed over d
        d = self.d
        self.obj = [self.c[j] * d if j < self.n else 0 for j in self.nb] + [0]
        for i, bi in enumerate(self.basis):
            f = self.c[bi] if bi < self.n else 0
            if f != 0:
                self.obj = [v - f * w for v, w in zip(self.obj, self.rows[i])]
        self._bland_loop()
        return self.values()

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


def _scaled_row(ineq: Ineq) -> tuple[list[int], int, int]:
    """(z-row, rhs, scale s) of one inequality, scaled by s to ints."""
    coeffs, rhs, strict = ineq
    s = lcm(rhs.denominator, *(x.denominator for x in coeffs))
    row = [x.numerator * (s // x.denominator) for x in coeffs]
    return row + [-x for x in row] + [s if strict else 0], rhs.numerator * (s // rhs.denominator), s


def _eps_program(ineqs: Sequence[Ineq], nvars: int) -> _Simplex:
    """The max-eps program of the system over z = (u, v, eps), unsolved."""
    eps_row = [0] * (2 * nvars) + [1]
    a, b, scale = zip(*[_scaled_row(ineq) for ineq in ineqs], (eps_row, 1, 1))  # eps <= 1
    return _Simplex(a, b, eps_row, scale)


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


def feasible_point(ineqs: Sequence[Ineq], nvars: int) -> Optional[tuple[Fraction, ...]]:
    """A rational point satisfying every constraint (strictness included)."""
    lp = _eps_program(ineqs, nvars)
    sol = lp.solve()
    # without strict rows eps* = 1, so eps* > 0 decides every system
    if sol is None or _interior(lp) is None:
        return None
    return _split_point(sol, nvars)


def interior_tableau(ineqs: Sequence[Ineq], nvars: int) -> Optional[_Simplex]:
    """The solved max-eps tableau of a strictly feasible system, else None.

    Rows can be added later by tighten(), each one a dual-simplex
    re-optimization instead of a cold solve.
    """
    lp = _eps_program(ineqs, nvars)
    return None if lp.solve() is None else _interior(lp)


def tighten(lp: _Simplex, ineq: Ineq) -> Optional[_Simplex]:
    """interior_tableau() of lp's system with ineq appended, warm-started."""
    row, rhs, _ = _scaled_row(ineq)
    child = lp.with_row(row, rhs)
    return None if child is None else _interior(child)
