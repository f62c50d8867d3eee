"""Exact rational linear feasibility for mixed strict/nonstrict systems.

A system {sum a_ij x_j REL_i b_i} with REL_i in {<, <=} is strictly feasible
iff the linear program

    maximize eps  subject to  A x + eps * strict_i <= b,  0 <= eps <= 1

has optimal value eps* > 0.  The program is solved by a two-phase dense
simplex with Bland's rule (no cycling, no floating point), which stays
polynomial-sized on the tiny systems that chamber enumeration produces,
unlike Fourier-Motzkin whose intermediate systems can blow up doubly
exponentially.

The tableau is fraction-free: each input row is scaled by the lcm of its
denominators, and the tableau is kept as Python ints over one common
denominator d, pivoted by Edmonds-Bareiss integer elimination (every entry
stays a subdeterminant of the scaled input, so each division is exact).
Fractions appear only when the optimal vertex is read off.

A solved tableau can be tightened by one more row without a cold solve:
the row is appended in terms of the optimal basis, which leaves the
objective row dual feasible, and the dual simplex (Lemke 1954) pivots
the same integer tableau back to optimality under a Bland-style rule.
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


class Unbounded(Exception):
    """The objective can increase without limit over the feasible set."""


class _Simplex:
    """max c.z subject to A z <= b, z >= 0, via tableau with Bland's rule.

    Row i of (A | b) is the input row multiplied by scale[i] > 0, so all
    entries are ints; its slack column holds 1, which rescales the slack
    variable and leaves every pivot choice as it is over the rationals.
    The rational tableau is rows[i][j] / d (and obj[j] / d), with d > 0.
    spare extra slack columns, all zero, are reserved for rows appended
    by with_row() after solve().
    """

    def __init__(
        self, a: list[list[int]], b: list[int], c: list[int], scale: list[int], spare: int = 0
    ):
        self.n = len(c)
        m = len(a)
        # columns: structural 0..n-1, slacks n..art-1 (the last `spare` of
        # them unused so far), artificial art (phase 1 only); rhs at ncols
        self.art = self.n + m + spare
        self.ncols = self.art + 1
        self.rows: list[list[int]] = []
        for i in range(m):
            row = list(a[i]) + [0] * (self.ncols - self.n) + [b[i]]
            row[self.n + i] = 1
            self.rows.append(row)
        self.basis = [self.n + i for i in range(m)]
        self.c = list(c)
        self.scale = scale
        self.d = 1

    def _pivot(self, r: int, col: int) -> None:
        base = self.rows[r]
        p, d = base[col], self.d
        if p < 0:
            # keep d > 0 so that signs of entries are signs of values; with
            # the pivot row negated and |p|, every updated row comes out
            # negated too, as if the whole tableau were negated afterwards
            base = [-v for v in base]
            p = -p

        def eliminate(row: list[int]) -> list[int]:
            f = row[col]
            if f == 0:
                return row if p == d else [v * p // d for v in row]
            return [(v * p - f * w) // d for v, w in zip(row, base)]

        self.rows = [base if i == r else eliminate(row) for i, row in enumerate(self.rows)]
        self.obj = eliminate(self.obj)
        self.d = p
        self.basis[r] = col

    def _bland_loop(self, active_cols: int) -> None:
        while True:
            enter = next((j for j in range(active_cols) if self.obj[j] > 0), None)
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
                raise Unbounded
            self._pivot(leave, enter)

    def values(self) -> dict[int, Fraction]:
        """The basic solution as {column: value}."""
        return {bi: Fraction(row[-1], self.d) for row, bi in zip(self.rows, self.basis)}

    def solve(self) -> Optional[dict[int, Fraction]]:
        """Basic optimal solution as {column: value}, or None if infeasible."""
        art = self.art
        if any(row[-1] < 0 for row in self.rows):
            # phase 1: max -x0 with x0 subtracted from every unscaled row
            for row, s in zip(self.rows, self.scale):
                row[art] = -s
            self.obj = [0] * self.ncols + [0]
            self.obj[art] = -1
            # most negative unscaled rhs, first on ties
            worst = 0
            for i in range(1, len(self.rows)):
                if self.rows[i][-1] * self.scale[worst] < self.rows[worst][-1] * self.scale[i]:
                    worst = i
            self._pivot(worst, art)
            self._bland_loop(self.ncols)
            if self.obj[-1] > 0:  # objective row stores -z, so z* = -obj[-1] / d
                return None
            if art in self.basis:
                # basic at zero; pivot it out on any nonzero entry (degenerate,
                # keeps feasibility) or, if the row is all zero, leave it inert
                r = self.basis.index(art)
                col = next((j for j in range(art) if self.rows[r][j] != 0), None)
                if col is not None:
                    self._pivot(r, col)
            for row in self.rows:
                row[art] = 0
        # phase 2 objective c - sum c_bi * (row i / d), expressed over d
        d = self.d
        self.obj = [v * d for v in self.c] + [0] * (self.ncols - self.n + 1)
        for i, bi in enumerate(self.basis):
            f = self.c[bi] if bi < self.n else 0
            if f != 0:
                self.obj = [v - f * w for v, w in zip(self.obj, self.rows[i])]
        self._bland_loop(art)
        return self.values()

    def with_row(self, a: Sequence[int], b: int) -> Optional["_Simplex"]:
        """A solved copy with the row a.z <= b appended, or None if infeasible.

        The new row, raw*d - sum raw[b_i]*rows[i] over the optimal basis,
        gets the next spare slack column as its basic variable; that leaves
        the basis determinant, hence d, unchanged.  The dual simplex then
        pivots out the negative rhs of smallest basis index on the column
        of least ratio obj[j] / row[j] over row[j] < 0 (smallest column on
        ties); no such column means the system has no point.  Rows that no
        pivot touches stay shared with self, which is never mutated.
        """
        slack = self.n + len(self.rows)
        if slack >= self.art:
            raise ValueError("no spare slack column left for another row")
        d = self.d
        new = [v * d for v in a] + [0] * (self.ncols - self.n) + [b * d]
        new[slack] = d
        for row, bi in zip(self.rows, self.basis):
            f = a[bi] if bi < self.n else 0
            if f != 0:
                new = [v - f * w for v, w in zip(new, row)]
        child = copy.copy(self)
        child.rows = self.rows + [new]
        child.basis = self.basis + [slack]
        while True:
            leave = None
            for i, row in enumerate(child.rows):
                if row[-1] < 0 and (leave is None or child.basis[i] < child.basis[leave]):
                    leave = i
            if leave is None:
                return child
            row, obj = child.rows[leave], child.obj
            enter = None
            for j in range(self.art):
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


def _eps_program(ineqs: Sequence[Ineq], nvars: int, spare: int = 0) -> _Simplex:
    """The max-eps program of the system over z = (u, v, eps), unsolved."""
    a_rows: list[list[int]] = []
    b: list[int] = []
    scale: list[int] = []
    for ineq in ineqs:
        row, rhs, s = _scaled_row(ineq)
        a_rows.append(row)
        b.append(rhs)
        scale.append(s)
    a_rows.append([0] * (2 * nvars) + [1])  # eps <= 1
    b.append(1)
    scale.append(1)
    c = [0] * (2 * nvars) + [1]
    return _Simplex(a_rows, b, c, scale, spare)


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
    if not ineqs:
        return tuple([_ZERO] * nvars)
    sol = _eps_program(ineqs, nvars).solve()
    # without strict rows eps* = 1, so eps* > 0 decides every system
    if sol is None or sol.get(2 * nvars, _ZERO) <= 0:
        return None
    return _split_point(sol, nvars)


def interior_tableau(ineqs: Sequence[Ineq], nvars: int, spare: int) -> Optional[_Simplex]:
    """The solved max-eps tableau of a strictly feasible system, else None.

    spare rows can be added later by tighten(), each one a dual-simplex
    re-optimization instead of a cold solve.
    """
    lp = _eps_program(ineqs, nvars, spare)
    return None if lp.solve() is None else _interior(lp)


def tighten(lp: _Simplex, ineq: Ineq) -> Optional[_Simplex]:
    """interior_tableau() of lp's system with ineq appended, warm-started."""
    row, rhs, _ = _scaled_row(ineq)
    child = lp.with_row(row, rhs)
    return None if child is None else _interior(child)
