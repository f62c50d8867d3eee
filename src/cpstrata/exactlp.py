"""Exact rational linear feasibility for mixed strict/nonstrict integer systems.

A system {sum a_ij x_j REL_i b_i} with REL_i in {<, <=}, integer a_ij and
b_i, has a point x >= 0 iff the linear program

    maximize eps  subject to  A x + eps * strict_i <= b,  x >= 0,  0 <= eps <= 1

has optimal value eps* > 0.  The variables are nonnegative because chamber
enumeration, the only caller, solves over the sorted capacity cone: its rows
-c_n < 0 and c_{i+1} - c_i <= 0 force x > 0, and x >= eps in the program, so
x >= 0 changes neither the set nor eps*.  It is solved by one algorithm, the
dual simplex (Lemke 1954) under a Bland-style rule (no cycling, no floating
point), which stays polynomial-sized on the tiny systems that chamber
enumeration produces, unlike Fourier-Motzkin whose intermediate systems can
blow up doubly exponentially.  Every solve is a fold: it starts from the
trivial optimum of "max eps s.t. eps <= 1" and appends the input rows one at
a time.  A row appended in terms of the optimal basis leaves the objective
row, hence dual feasibility, as it is, and the dual simplex pivots back to
optimality through dual feasible bases, each of whose objective values
bounds eps* from above (weak duality; Chvatal, Linear Programming, 1983,
ch. 10).  So a step stops, with no tableau, at an empty ratio test or at
the first pivot that would bring that bound to 0 or below, and a step that
ends has eps* > 0.  Because eps* only falls as rows are added, the first
prefix that fails decides the whole system.

The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983,
ch. 2-3): a row holds only the nonbasic columns and the rhs, one entry per
structural variable (x, then eps) and one more, however many rows there
are.  Only the rows of the basic structural variables are stored, at most
one per structural variable; the row of a basic slack is derived from its
input row when the dual step needs it (a slack's rhs is tested by one dot
product, and only the row that leaves is built), so a pivot rewrites the
structural rows and the objective only.  It is fraction-free: the input
rows are ints, and the entries are Python ints over the basis determinant
d (Azulay and Pique, ACM TOMS 27, 2001), pivoted by Edmonds-Bareiss
integer elimination (every entry stays a subdeterminant of the input, so
each division is exact).  The pivot rule picks by variable label, never by
column position, so every solve visits the bases of the full tableau.
Fractions appear only when the optimal vertex is read off.  A row that is
not nvars ints is refused before it reaches a tableau.

A solved tableau is never mutated, so chamber enumeration keeps each
node's tableau and decides every child that the wall order leaves open
(chambers._wall_order) by one more step of the same fold.
A fold may also start from such a tableau instead of the trivial optimum
(the start argument of interior_tableau and feasible_point): a chamber
leaf's witness is read off the descent's tableau with at most a few rows
more, never solved afresh.  A row appended many times, such as a chamber
wall row, is built once, as int lists that the wall class already
checked, and appended by with_row; the tableaux share it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .lattice import exact_ints

# one inequality: (coefficients, rhs, strict) meaning sum a_j x_j < rhs (or <=)
Ineq = tuple[tuple[int, ...], int, bool]


class _Simplex:
    """max eps over z = (x, eps) subject to A z <= b, z >= 0, as an integer dictionary.

    There are nvars + 1 structural columns: x, then eps.  Each row of
    (A | b) is an input row as given, its ints followed by the eps entry
    (1 for a strict row, 0 otherwise), and its slack variable gets
    coefficient 1.  Variables are labelled: structural 0..n-1 (eps is n-1),
    and slack n+i for input row i, where row 0 is eps <= 1; inputs[i] is
    the row (a_i, b_i).  Only the nonbasic columns are kept (the
    dictionary form): nb[k] labels position k, and the row of a basic
    variable holds the entries row[k] / d and the value row[-1] / d (obj
    likewise, with obj[-1] / d = -eps).

    Only the rows of basic structural variables are stored, in rows by
    label.  The row of a basic slack n+i is derived by _row(i): a_i * d on
    the nonbasic structural columns, 0 on the nonbasic slack columns and
    b_i * d in the rhs, minus a_i[j] * rows[j] for every basic structural
    j.  A basic variable's row is fixed by the basis, so over the same basis
    and d > 0 a stored or derived row is the full tableau's row over its
    common denominator, entry for entry, and a rule applied by label makes
    the same choices as it would there.

    A new instance is the trivial optimum: eps <= 1 alone, with eps pivoted
    into the basis at 1.  Every other pivot comes from with_row().
    """

    def __init__(self, nvars: int):
        if nvars < 0:
            raise ValueError(f"nvars must be >= 0, got {nvars}")
        self.n = nvars + 1
        eps = self.n - 1
        self.inputs = [([0] * eps + [1], 1)]
        self.rows: dict[int, list[int]] = {}
        self.nb = list(range(self.n))
        self.obj = [0] * eps + [1, 0]
        self.d = 1
        self._pivot(self.n, self._row(0), eps)

    def _row(self, i: int) -> list[int]:
        """The row of slack n+i over the current basis, derived from inputs[i]."""
        a, b = self.inputs[i]
        d, n = self.d, self.n
        row = [a[j] * d if j < n else 0 for j in self.nb] + [b * d]
        for j, other in self.rows.items():
            f = a[j]
            if f != 0:
                row = [v - f * w for v, w in zip(row, other)]
        return row

    def _pivot(self, leave: int, row: list[int], col: int) -> None:
        """Exchange the basic variable leave, whose row is row, with nb[col] by one Bareiss step.

        The leaving variable takes over position col.  Its full-tableau
        column, d in its own row and 0 elsewhere, comes out as s*d in the
        pivot row, -s*f in a row with entering entry f and -s*obj[col] in
        obj, where s is the sign of the pivot.  The pivot row becomes the
        entering variable's, stored only if that is structural.  No row is
        written in place: rows may be shared.
        """
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

        enter = self.nb[col]
        rows = {j: eliminate(other) for j, other in self.rows.items() if j != leave}
        if enter < self.n:
            rows[enter] = base
        self.rows = rows
        self.obj = eliminate(self.obj)
        self.d = p
        self.nb[col] = leave

    def _leaving(self, first: int = 0) -> Optional[tuple[int, list[int]]]:
        """(label, row) of the basic variable of least label with a negative rhs, or None.

        Structural labels come first.  A slack n+i has rhs b_i*d - a_i.x,
        with x the structural basic values over d, so it is tested by one
        dot product and only the one that leaves has its row derived; a
        nonbasic slack's row is tight, b_i*d = a_i.x, so it never leaves.
        Input rows before first are known to have rhs >= 0.
        """
        negative = [j for j, row in self.rows.items() if row[-1] < 0]
        if negative:
            j = min(negative)
            return j, self.rows[j]
        d, x = self.d, [0] * self.n
        for j, row in self.rows.items():
            x[j] = row[-1]
        for i in range(first, len(self.inputs)):
            a, b = self.inputs[i]
            if b * d < sum(map(mul, a, x)):
                return self.n + i, self._row(i)
        return None

    def _by_label(self) -> list[int]:
        """The column positions in increasing order of their labels."""
        return sorted(range(len(self.nb)), key=self.nb.__getitem__)

    def values(self) -> dict[int, Fraction]:
        """The basic structural values as {label: value}; the other structurals are 0."""
        return {j: Fraction(row[-1], self.d) for j, row in self.rows.items()}

    def with_row(self, a: Sequence[int], b: int) -> Optional["_Simplex"]:
        """A new solved tableau with the row a.z <= b appended if its eps* > 0, else None.

        self has eps* > 0.  The new row's slack n+m is basic, which leaves
        the basis determinant, hence d, unchanged, and its rhs is the only
        one that can be negative until the first pivot.  The dual simplex
        pivots out the negative rhs of smallest basis label on the column j
        of least ratio obj[j] / row[j] over row[j] < 0 (smallest label on
        ties).  No such column means the system has no point.  Else the
        pivot would bring eps to (obj[j]*row[-1] - obj[-1]*row[j]) / (d*row[j]),
        an upper bound on eps*, so a numerator >= 0 stops the step.  Rows
        that no pivot touches stay shared with self, which is never mutated.
        """
        child = _Simplex.__new__(_Simplex)
        child.n, child.rows, child.obj, child.d = self.n, self.rows, self.obj, self.d
        child.inputs = self.inputs + [(a, b)]
        child.nb = list(self.nb)
        leave = child._leaving(len(self.inputs))
        while leave is not None:
            label, row = leave
            obj, enter = child.obj, None
            for j in child._by_label():
                # obj[j] / row[j] < obj[enter] / row[enter], both rows negative
                if row[j] < 0 and (enter is None or obj[j] * row[enter] < obj[enter] * row[j]):
                    enter = j
            if enter is None or obj[enter] * row[-1] - obj[-1] * row[enter] >= 0:
                return None
            child._pivot(label, row, enter)
            leave = child._leaving()
        return child


def scaled_row(ineq: Ineq, nvars: int) -> tuple[list[int], int]:
    """(z-row, rhs) of one inequality: its coefficients, then 1 on eps if it is strict.

    A row of other than nvars coefficients raises ValueError, and an entry
    that is not an int (a Fraction, a float or a bool) raises TypeError:
    the tableau holds the rows as given.
    """
    coeffs, rhs, strict = ineq
    if len(coeffs) != nvars:
        raise ValueError(f"row {ineq!r} has {len(coeffs)} coefficients, expected {nvars}")
    exact_ints((*coeffs, rhs), "entry", lambda: f" of row {ineq!r}")
    return [*coeffs, 1 if strict else 0], rhs


def feasible_point(
    ineqs: Sequence[Ineq], nvars: int, start: Optional[_Simplex] = None
) -> Optional[tuple[Fraction, ...]]:
    """A rational point x >= 0 satisfying every constraint (strictness included).

    With start, the point satisfies start's system as well: ineqs are folded
    onto that solved tableau (see interior_tableau).
    """
    lp = interior_tableau(ineqs, nvars, start)
    if lp is None:
        return None
    values = lp.values()
    return tuple(values.get(j, Fraction(0)) for j in range(nvars))


def interior_tableau(
    ineqs: Sequence[Ineq], nvars: int, start: Optional[_Simplex] = None
) -> Optional[_Simplex]:
    """The solved max-eps tableau of a system with a point x >= 0, else None.

    start (by default the trivial optimum) takes the rows one at a time by
    with_row(); eps* only falls as rows are added, so the first row whose
    step stops decides.  A start other than the default must itself be a
    tableau over nvars variables with eps* > 0, such as a result of this
    function or with_row(), and the system solved is then start's rows
    followed by ineqs.  nvars must be an int (lattice.exact_ints).
    """
    exact_ints((nvars,), "nvars")
    if start is not None and start.n != nvars + 1:
        raise ValueError(f"start has {start.n - 1} variables, expected {nvars}")
    lp: Optional[_Simplex] = _Simplex(nvars) if start is None else start
    for ineq in ineqs:
        lp = lp.with_row(*scaled_row(ineq, nvars))
        if lp is None:
            break
    return lp
