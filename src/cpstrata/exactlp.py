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

Free variables are split x = u - v with u, v >= 0 to reach standard form.
"""

from __future__ import annotations

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
    """

    def __init__(self, a: list[list[int]], b: list[int], c: list[int], scale: list[int]):
        self.m = len(a)
        self.n = len(c)
        # columns: structural 0..n-1, slacks n..n+m-1, artificial n+m (phase 1 only)
        self.rows: list[list[int]] = []
        for i in range(self.m):
            row = list(a[i]) + [0] * self.m + [0, b[i]]
            row[self.n + i] = 1
            self.rows.append(row)
        self.ncols = self.n + self.m + 1  # + artificial slot; rhs sits at index ncols
        self.basis = [self.n + i for i in range(self.m)]
        self.c = list(c)
        self.scale = scale
        self.d = 1

    def _pivot(self, r: int, col: int) -> None:
        base = self.rows[r]
        p, d = base[col], self.d

        def eliminate(row: list[int]) -> list[int]:
            f = row[col]
            if f == 0:
                return row if p == d else [v * p // d for v in row]
            return [(v * p - f * w) // d for v, w in zip(row, base)]

        self.rows = [row if i == r else eliminate(row) for i, row in enumerate(self.rows)]
        self.obj = eliminate(self.obj)
        if p < 0:  # keep d > 0 so that signs of entries are signs of values
            self.rows = [[-v for v in row] for row in self.rows]
            self.obj = [-v for v in self.obj]
            p = -p
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

    def solve(self) -> Optional[dict[int, Fraction]]:
        """Basic optimal solution as {column: value}, or None if infeasible."""
        art = self.n + self.m
        if any(row[-1] < 0 for row in self.rows):
            # phase 1: max -x0 with x0 subtracted from every unscaled row
            for row, s in zip(self.rows, self.scale):
                row[art] = -s
            self.obj = [0] * self.ncols + [0]
            self.obj[art] = -1
            # most negative unscaled rhs, first on ties
            worst = 0
            for i in range(1, self.m):
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
        self.obj = [v * d for v in self.c] + [0] * (self.m + 2)
        for i, bi in enumerate(self.basis):
            f = self.c[bi] if bi < self.n else 0
            if f != 0:
                self.obj = [v - f * w for v, w in zip(self.obj, self.rows[i])]
        self._bland_loop(self.n + self.m)
        return {bi: Fraction(self.rows[i][-1], self.d) for i, bi in enumerate(self.basis)}


def feasible_point(ineqs: Sequence[Ineq], nvars: int) -> Optional[tuple[Fraction, ...]]:
    """A rational point satisfying every constraint (strictness included)."""
    if not ineqs:
        return tuple([_ZERO] * nvars)
    a_rows: list[list[int]] = []
    b: list[int] = []
    scale: list[int] = []
    any_strict = False
    for coeffs, rhs, strict in ineqs:
        s = lcm(rhs.denominator, *(x.denominator for x in coeffs))
        row = [x.numerator * (s // x.denominator) for x in coeffs]
        any_strict = any_strict or strict
        a_rows.append(row + [-x for x in row] + [s if strict else 0])
        b.append(rhs.numerator * (s // rhs.denominator))
        scale.append(s)
    a_rows.append([0] * (2 * nvars) + [1])  # eps <= 1
    b.append(1)
    scale.append(1)
    c = [0] * (2 * nvars) + [1]
    sol = _Simplex(a_rows, b, c, scale).solve()
    if sol is None:
        return None
    eps = sol.get(2 * nvars, _ZERO)
    if any_strict and eps <= 0:
        return None
    return tuple(sol.get(j, _ZERO) - sol.get(nvars + j, _ZERO) for j in range(nvars))
