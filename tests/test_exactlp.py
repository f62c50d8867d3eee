"""Exact LP feasibility: seeded random systems, pinned results, exact membership."""

import copy
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from cpstrata import chambers, exactlp
from cpstrata.exactlp import feasible_point, interior_tableau
from cpstrata.lattice import negative_wall_classes

F = Fraction


def integer_row(coeffs, rhs, strict):
    """The same half-space with its entries scaled to ints by their common denominator."""
    s = lcm(*(x.denominator for x in (*coeffs, rhs)))
    return tuple(int(a * s) for a in coeffs), int(rhs * s), strict


def random_system(seed):
    """1-4 variables, coefficients with denominators up to 4, mixed strictness.

    Each row is drawn with Fraction entries and handed on scaled to ints,
    the only rows exactlp takes.
    """
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    rows = [
        integer_row(tuple(q() for _ in range(nvars)), q(), rng.random() < 0.5)
        for _ in range(rng.randint(1, 7))
    ]
    return rows, nvars


def satisfies(rows, point):
    for coeffs, rhs, strict in rows:
        lhs = sum(a * x for a, x in zip(coeffs, point))
        if not (lhs < rhs if strict else lhs <= rhs):
            return False
    return True


def tightest(rows):
    """One row per direction: each scaled by its first nonzero |coefficient|,
    and of the rows left with equal coefficients the least rhs, strict on a
    tie.  The set they cut out is the same."""
    best = {}
    for coeffs, rhs, strict in rows:
        lead = next((abs(a) for a in coeffs if a), 1)
        key, rhs = tuple(a / lead for a in coeffs), rhs / lead
        if key not in best or (rhs, not strict) < (best[key][0], not best[key][1]):
            best[key] = rhs, strict
    return [(key, rhs, strict) for key, (rhs, strict) in best.items()]


def fourier_motzkin_feasible(rows, nvars):
    """Whether the system has a point x >= 0, by Fourier-Motzkin elimination over Fraction.

    Independent of exactlp: the rows -x_j <= 0 are added, each variable is
    eliminated by pairing every row with a positive coefficient with every
    row with a negative one (the pair is strict if either row is), and the
    constant rows left decide.  Rows made redundant by a parallel row are
    dropped after each step (tightest), which keeps the systems small.
    """
    orthant = [(tuple(-int(i == j) for i in range(nvars)), 0, False) for j in range(nvars)]
    rows = tightest(
        (tuple(F(a) for a in coeffs), F(rhs), strict) for coeffs, rhs, strict in rows + orthant
    )
    for k in range(nvars):
        pos, neg, rest = [], [], []
        for row in rows:
            a = row[0][k]
            (pos if a > 0 else neg if a < 0 else rest).append(row)
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                s, t = -cn[k], cp[k]  # s*cp + t*cn has no x_k
                rest.append(
                    (tuple(s * x + t * y for x, y in zip(cp, cn)), s * bp + t * bn, sp or sn)
                )
        rows = tightest(rest)
    return all(rhs > 0 or (rhs == 0 and not strict) for _, rhs, strict in rows)


def as_text(point):
    return None if point is None else " ".join(str(x) for x in point)


# feasible_point(*random_system(seed)) for seed = 0..299, as space-separated
# coordinates; a different vertex here means a different pivot sequence or a
# different order in which the rows are folded in.  Every point is x >= 0
FROZEN = [
    None,  # 0
    None,  # 1
    "1",  # 2
    None,  # 3
    None,  # 4
    None,  # 5
    None,  # 6
    "0 12/5 0",  # 7
    "0 1",  # 8
    None,  # 9
    None,  # 10
    None,  # 11
    None,  # 12
    None,  # 13
    None,  # 14
    "0 3",  # 15
    None,  # 16
    "141/56 125/28 0 345/56",  # 17
    "0 3/2",  # 18
    None,  # 19
    None,  # 20
    "0 0",  # 21
    "1/5 0",  # 22
    None,  # 23
    None,  # 24
    None,  # 25
    None,  # 26
    None,  # 27
    None,  # 28
    None,  # 29
    None,  # 30
    None,  # 31
    None,  # 32
    "17/33 3/11",  # 33
    None,  # 34
    None,  # 35
    "1/2 0 0",  # 36
    None,  # 37
    None,  # 38
    "3 0",  # 39
    None,  # 40
    "0 0 0 0",  # 41
    None,  # 42
    "0",  # 43
    None,  # 44
    "0 29/7 5/7",  # 45
    None,  # 46
    "0 0 0",  # 47
    None,  # 48
    None,  # 49
    None,  # 50
    None,  # 51
    "0 4 0",  # 52
    None,  # 53
    None,  # 54
    "2",  # 55
    None,  # 56
    None,  # 57
    "50/11 125/33",  # 58
    "0 2/3",  # 59
    "7/9 5/6 0",  # 60
    "0 0 0 0",  # 61
    "25/9 0",  # 62
    "0 1 0 6/5",  # 63
    "0 0 0 0",  # 64
    None,  # 65
    "0",  # 66
    "0",  # 67
    "0 0 1/8 0",  # 68
    None,  # 69
    None,  # 70
    None,  # 71
    None,  # 72
    "0 0 0",  # 73
    "7/5",  # 74
    "27/172 116/129 0 25/86",  # 75
    "0 1/3 31/48",  # 76
    "0 0 0",  # 77
    "9/2 0",  # 78
    "0 0",  # 79
    None,  # 80
    None,  # 81
    None,  # 82
    None,  # 83
    None,  # 84
    None,  # 85
    None,  # 86
    None,  # 87
    "4 0 0 0",  # 88
    None,  # 89
    None,  # 90
    "0",  # 91
    None,  # 92
    "0 83/169 15/169 0",  # 93
    "0 0",  # 94
    None,  # 95
    "13/11 17/11 0",  # 96
    None,  # 97
    "0 0 16/3",  # 98
    None,  # 99
    None,  # 100
    None,  # 101
    None,  # 102
    None,  # 103
    "5/4",  # 104
    None,  # 105
    "0 1/4 0 0",  # 106
    None,  # 107
    None,  # 108
    "0 0 0",  # 109
    None,  # 110
    None,  # 111
    None,  # 112
    None,  # 113
    "0 0",  # 114
    "0 0 1/4",  # 115
    None,  # 116
    "0 0",  # 117
    "2/7 2/21",  # 118
    "16/45 16/45 0",  # 119
    "79/29 1/29",  # 120
    None,  # 121
    None,  # 122
    "8/5",  # 123
    "0 13/6 0",  # 124
    None,  # 125
    None,  # 126
    None,  # 127
    None,  # 128
    "0 0 11/2",  # 129
    None,  # 130
    "0 0 0",  # 131
    "0 1/4 0 0",  # 132
    None,  # 133
    "1/2 0 0 0",  # 134
    None,  # 135
    None,  # 136
    None,  # 137
    "0 5/2",  # 138
    None,  # 139
    "0",  # 140
    None,  # 141
    "8/3 17/3 0 0",  # 142
    None,  # 143
    "0 0 0 0",  # 144
    None,  # 145
    None,  # 146
    "0 4",  # 147
    None,  # 148
    "5",  # 149
    "9/2 0 0",  # 150
    "131/455 16/65 451/910 0",  # 151
    None,  # 152
    "0 0 0 0",  # 153
    None,  # 154
    "21/44 5/22 13/44",  # 155
    "2/7 1/7 0 0",  # 156
    "3/4 0 0 0",  # 157
    "1 1",  # 158
    "17/8 0 0 7/4",  # 159
    None,  # 160
    None,  # 161
    None,  # 162
    None,  # 163
    None,  # 164
    None,  # 165
    None,  # 166
    None,  # 167
    None,  # 168
    None,  # 169
    None,  # 170
    "9/5 0 0 0",  # 171
    "0 0 0",  # 172
    None,  # 173
    "3/4",  # 174
    "1/3 0 0 0",  # 175
    "0",  # 176
    None,  # 177
    None,  # 178
    "0 0",  # 179
    None,  # 180
    "3",  # 181
    None,  # 182
    None,  # 183
    "0 0 0",  # 184
    None,  # 185
    None,  # 186
    None,  # 187
    "5/2 0",  # 188
    "2/5 0 0 0",  # 189
    None,  # 190
    "11/30 4/5",  # 191
    None,  # 192
    "11/127 58/127 0 151/254",  # 193
    None,  # 194
    "0 0 0 0",  # 195
    None,  # 196
    "0",  # 197
    None,  # 198
    "10/31 12/31 15/31",  # 199
    None,  # 200
    None,  # 201
    None,  # 202
    None,  # 203
    "5/17 0 10/17 0",  # 204
    None,  # 205
    "2",  # 206
    None,  # 207
    "174/73 439/73 357/73",  # 208
    None,  # 209
    "0 0 0 0",  # 210
    None,  # 211
    "11/21 0 38/21 61/42",  # 212
    "1 0",  # 213
    "23/25 0 13/25",  # 214
    None,  # 215
    None,  # 216
    "1 0 0",  # 217
    "0 0 0",  # 218
    None,  # 219
    None,  # 220
    None,  # 221
    None,  # 222
    "0 2/15 0",  # 223
    None,  # 224
    "0 0",  # 225
    "0 0 0 0",  # 226
    None,  # 227
    None,  # 228
    None,  # 229
    "0 0",  # 230
    "0",  # 231
    "0 0 0",  # 232
    None,  # 233
    None,  # 234
    "0 1/2 33/20",  # 235
    "0 0 0",  # 236
    "0 1 0 0",  # 237
    "0 11/5 0",  # 238
    None,  # 239
    "0",  # 240
    None,  # 241
    "0 0 5/12",  # 242
    None,  # 243
    "271/218 125/109 293/654 0",  # 244
    "0 0",  # 245
    None,  # 246
    "0 5 0 9",  # 247
    None,  # 248
    None,  # 249
    "0 0 0 5/2",  # 250
    "0 425/123 173/123 0",  # 251
    None,  # 252
    "0 0 16/15 28/15",  # 253
    "1/2 0 1",  # 254
    None,  # 255
    None,  # 256
    "2 0 0",  # 257
    None,  # 258
    None,  # 259
    "0 0",  # 260
    "1/12 0 0 0",  # 261
    None,  # 262
    None,  # 263
    "1139/533 179/533 253/533",  # 264
    "11/5 16/5 0 0",  # 265
    None,  # 266
    "0 0",  # 267
    "0 6/5 0",  # 268
    "4/5",  # 269
    "9/10 0",  # 270
    None,  # 271
    "0 0 0 0",  # 272
    None,  # 273
    "3/19 14/19",  # 274
    "0",  # 275
    "7/6 0 0",  # 276
    "2",  # 277
    "33/8 5 0",  # 278
    "0 0 0 0",  # 279
    "0 0 0",  # 280
    "0",  # 281
    None,  # 282
    "0",  # 283
    None,  # 284
    None,  # 285
    "0 0 0 0",  # 286
    None,  # 287
    "0 0 0",  # 288
    None,  # 289
    "0 76/29 5/29",  # 290
    None,  # 291
    None,  # 292
    "1 0 0 1/2",  # 293
    None,  # 294
    None,  # 295
    "1/3",  # 296
    None,  # 297
    None,  # 298
    None,  # 299
]


@pytest.mark.parametrize("seed", range(len(FROZEN)))
def test_random_system_frozen(seed):
    rows, nvars = random_system(seed)
    point = feasible_point(rows, nvars)
    assert as_text(point) == FROZEN[seed]
    if point is not None:
        assert len(point) == nvars
        assert all(type(x) is Fraction and x >= 0 for x in point)
        assert satisfies(rows, point)


def test_frozen_set_mixes_outcomes():
    assert 50 <= sum(v is None for v in FROZEN) <= 250


def test_strict_lower_bounds_of_two_scales():
    # 4x > 3 and x > 1 read -4x + eps <= -3 and -x + eps <= -1: eps enters
    # every strict row with coefficient 1, so at eps* = 1 they ask x >= 1
    # and x >= 2, and the vertex is x = 2
    rows = [((-4,), -3, True), ((-1,), -1, True)]
    assert feasible_point(rows, 1) == (F(2),)


def test_empty_system_is_origin():
    assert feasible_point([], 3) == (F(0),) * 3
    # the trivial optimum every fold starts from: max eps s.t. eps <= 1,
    # after its one start pivot puts eps (label 2, after x) in the basis at 1
    lp = interior_tableau([], 2)
    assert (lp.nb, lp.d, lp.inputs) == ([0, 1, 3], 1, [([0, 0, 1], 1)])
    assert lp.rows == {2: [0, 0, 1, 1]} and lp.obj == [0, 0, -1, -1]


def test_fold_order_does_not_change_the_verdict():
    # the fold takes the rows in the order given; any order is the same
    # system, so it must get the same verdict and a point of the system
    rng = random.Random(11)
    for seed in range(len(FROZEN)):
        rows, nvars = random_system(seed)
        shuffled = rng.sample(rows, len(rows))
        point = feasible_point(shuffled, nvars)
        assert (point is None) == (FROZEN[seed] is None), seed
        assert point is None or satisfies(rows, point), seed


def test_strict_rows_need_interior():
    assert feasible_point([((1,), 0, True), ((-1,), 0, False)], 1) is None
    assert feasible_point([((1,), 0, False), ((-1,), 0, False)], 1) == (F(0),)


def test_points_lie_on_the_orthant():
    # every variable is nonnegative: x < 0 is empty, and so is x + y <= -1,
    # while x - y < -1 is met on the orthant, at the vertex (0, 2) of
    # x - y + eps <= -1 with eps* = 1
    assert feasible_point([((1,), 0, True)], 1) is None
    assert feasible_point([((1, 1), -1, False)], 2) is None
    assert not fourier_motzkin_feasible([((1, 1), -1, False)], 2)
    assert feasible_point([((1, -1), -1, True)], 2) == (F(0), F(2))


def test_fourier_motzkin_oracle_sees_strictness():
    # x < 0 <= x is empty, 0 <= x <= 0 is not; so is x + y < 1 < x + y
    assert not fourier_motzkin_feasible([((1,), 0, True), ((-1,), 0, False)], 1)
    assert fourier_motzkin_feasible([((1,), 0, False), ((-1,), 0, False)], 1)
    assert not fourier_motzkin_feasible([((1, 1), 1, True), ((-1, -1), -1, False)], 2)
    assert fourier_motzkin_feasible([((1, 1), 1, False), ((-1, -1), -1, False)], 2)


def test_constant_rows_decide_themselves():
    # an all-zero row reads 0 < rhs or 0 <= rhs: 0 < 0 and 0 <= -1 empty
    # the system, 0 <= 1 drops out; no caller has to resolve them first
    base = [((1, -1), 2, True), ((-2, 0), 1, False)]
    for row, feasible in [
        (((0, 0), 0, True), False),
        (((0, 0), -1, False), False),
        (((0, 0), 1, False), True),
        (((0, 0), 0, False), True),
    ]:
        for rows in (base + [row], [row] + base):
            assert fourier_motzkin_feasible(rows, 2) is feasible
            point = feasible_point(rows, 2)
            assert (point is not None) is feasible, rows
            assert point is None or satisfies(rows, point)
    assert feasible_point(base + [((0, 0), 1, False)], 2) == feasible_point(base, 2)


def test_repeated_rows_decide_themselves():
    # a row given twice, once strict and once closed, keeps the strict one:
    # x <= 1, x < 1 and x >= 1 is empty; x <= 1 twice and x >= 1 is {1}
    closed, strict, floor = ((1,), 1, False), ((2,), 2, True), ((-1,), -1, False)
    for rows, feasible in [
        ([closed, strict, floor], False),
        ([strict, closed, floor], False),
        ([closed, closed, floor], True),
        ([strict, strict], True),
    ]:
        assert fourier_motzkin_feasible(rows, 1) is feasible
        point = feasible_point(rows, 1)
        assert (point is not None) is feasible, rows
        assert point is None or satisfies(rows, point)
    assert feasible_point([closed, closed, floor], 1) == (F(1),)


def tableau_state(lp):
    return copy.deepcopy((lp.rows, lp.obj, lp.nb, lp.inputs, lp.d))


@pytest.mark.parametrize("seed", range(len(FROZEN)))
def test_rows_appended_one_at_a_time_match_cold_solves(seed):
    # the first row is folded into the trivial optimum, every later one is a
    # dual-simplex step on the previous tableau; each prefix must get the
    # verdict of its own fold from the trivial optimum, and that verdict the
    # one of Fourier-Motzkin elimination, which shares no code with exactlp
    rows, nvars = random_system(seed)
    lp = interior_tableau(rows[:1], nvars)
    for k in range(1, len(rows) + 1):
        prefix = rows[:k]
        if k > 1 and lp is not None:
            before = tableau_state(lp)
            child = interior_tableau([rows[k - 1]], nvars, lp)
            assert tableau_state(lp) == before  # the parent is never mutated
            lp = child
        cold = feasible_point(prefix, nvars)
        oracle = fourier_motzkin_feasible(prefix, nvars)
        assert (lp is not None) == (cold is not None) == oracle, k
        if lp is None:
            continue  # a superset of an empty system stays empty
        assert lp.d > 0
        # one input row per slack, eps <= 1 first; stored rows for at most
        # the nvars + 1 structural variables
        assert len(lp.inputs) == k + 1 and len(lp.rows) <= nvars + 1
        assert satisfies(prefix, feasible_point([], nvars, lp))


def test_appended_rows_reach_both_verdicts_and_dual_pivots(monkeypatch):
    # 226 dual pivots pin the dual Bland rule (smallest basis index leaves,
    # least ratio enters, smallest column on ties) and the stop on the dual
    # bound: other choices reach the same verdicts through other bases, and
    # a step run on to its optimum takes more pivots
    pivots = []
    real_pivot = exactlp._Simplex._pivot

    def counting_pivot(lp, leave, row, col):
        pivots.append(col)
        real_pivot(lp, leave, row, col)

    monkeypatch.setattr(exactlp._Simplex, "_pivot", counting_pivot)
    verdicts, dual = set(), 0
    for seed in range(len(FROZEN)):
        rows, nvars = random_system(seed)
        lp = interior_tableau(rows[:1], nvars)
        for row in rows[1:]:
            if lp is None:
                break
            before = len(pivots)
            lp = interior_tableau([row], nvars, lp)
            dual += len(pivots) - before
            verdicts.add(lp is not None)
    assert verdicts == {False, True}
    assert dual == 226


def test_rows_appended_past_any_reserved_width_match_cold_solves():
    # the dictionary reserves no column per future row: a one-row root takes
    # as many rows as come, every row keeps nvars + 2 entries, and only the
    # basic structural variables' rows are stored
    root = ((1, 1), 2, True)  # x + y < 2
    extra = [
        ((-1, 0), 0, False), ((0, -1), 0, False), ((1, -1), 1, True), ((-1, 1), 1, True),
        ((-3, 0), -1, True), ((0, -4), -1, True), ((1, 2), 2, False),
        ((3, 1), 3, True), ((-5, -5), -6, True), ((3, 0), 1, False),
    ]
    lp, verdicts = interior_tableau([root], 2), []
    for k in range(1, len(extra) + 1):
        prefix = [root] + extra[:k]
        lp = interior_tableau([extra[k - 1]], 2, lp)
        cold = feasible_point(prefix, 2)
        verdicts.append(lp is not None)
        assert (lp is not None) == (cold is not None), k
        if lp is None:
            break
        assert len(lp.inputs) == k + 2 and len(lp.rows) <= 3
        assert all(len(row) == 4 for row in [*lp.rows.values(), lp.obj])
        assert satisfies(prefix, feasible_point([], 2, lp))
    assert verdicts == [True] * 9 + [False]


def test_opposite_rows_pin_their_point():
    # 2x <= 1 and -2x <= -1 leave the single point x = 1/2
    assert feasible_point([((2,), 1, False), ((-2,), -1, False)], 1) == (F(1, 2),)


def test_ratio_test_prunes_an_empty_cut():
    # x < 1 then x <= -1: the new row has no negative entry over the basis
    # of x < 1, so the dual simplex finds no entering column
    lp = interior_tableau([((1,), 1, True)], 1)
    assert lp.with_row([1, 0], -1) is None
    assert interior_tableau([((1,), -1, False)], 1, lp) is None
    oracle = FullDictionary(1).with_row([1, 0], 1)[0]
    assert oracle.with_row([1, 0], -1) == (None, "ratio")


def test_cut_without_interior_prunes_on_eps(monkeypatch):
    # x < 1 then x >= 1 (x >= 2): the first pivot puts x in the basis at 1
    # (at 2) and leaves the slack of x + eps <= 1 negative; the pivot that
    # would clear it brings eps to 0 (to -1), so the step stops before it,
    # on the bound.  Run on to its optimum, the step ends at eps = 0 (on an
    # empty ratio test)
    lp = interior_tableau([((1,), 1, True)], 1)
    pivots, real_pivot = [], exactlp._Simplex._pivot

    def counting_pivot(lp, leave, row, col):
        pivots.append(leave)
        real_pivot(lp, leave, row, col)

    monkeypatch.setattr(exactlp._Simplex, "_pivot", counting_pivot)
    assert lp.with_row([-1, 0], -1) is None
    assert lp.with_row([-1, 0], -2) is None
    assert interior_tableau([((-1,), -1, False)], 1, lp) is None
    assert pivots == [4, 4, 4]  # the new row's slack leaves, once per step
    oracle = FullDictionary(1).with_row([1, 1], 1)[0]
    assert oracle.with_row([-1, 0], -1) == (None, "bound")
    assert oracle.with_row([-1, 0], -2) == (None, "bound")
    assert optimum_eps(oracle.with_row([-1, 0], -1, to_optimum=True)[0]) == 0
    assert oracle.with_row([-1, 0], -2, to_optimum=True) == (None, "ratio")


@pytest.mark.parametrize(
    "ineqs,nvars,error,match",
    [
        # a coefficient too many is not dropped, one too few is not an IndexError
        ([((1, 2), 1, False)], 1, ValueError, r"row \(\(1, 2\), 1, False\) has 2 .*expected 1"),
        ([((1,), 1, False)], 2, ValueError, r"row \(\(1,\), 1, False\) has 1 coeff.*expected 2"),
        ([((1,), 1, False), ((1, 0), 1, True)], 1, ValueError, r"row \(\(1, 0\), 1, True\)"),
        ([], -1, ValueError, r"nvars must be >= 0, got -1"),
        ([((), 0, False)], -1, ValueError, r"nvars must be >= 0, got -1"),
        # ints only: no floating point, no Fraction, no bool, in a
        # coefficient or in a rhs
        ([((1, 0.5), 1, False)], 2, TypeError, r"entry 0\.5 of row \(\(1, 0"),
        ([((1,), 1.0, True)], 1, TypeError, r"entry 1\.0 of row"),
        ([(("1",), 1, True)], 1, TypeError, r"entry '1' of row"),
        ([((F(1, 2), 1), 1, False)], 2, TypeError, r"entry Fraction\(1, 2\) of row .* not an int"),
        ([((1,), F(2), False)], 1, TypeError, r"entry Fraction\(2, 1\) of row"),
        ([((True, 0), 1, False)], 2, TypeError, r"entry True of row \(\(True, 0\)"),
        ([((1,), False, True)], 1, TypeError, r"entry False of row"),
        # nvars is an int, not a bool or a float
        ([], True, TypeError, r"^nvars True is not an int$"),
        ([], 2.0, TypeError, r"^nvars 2\.0 is not an int$"),
        ([((1,), 1, False)], True, TypeError, r"^nvars True is not an int$"),
    ],
)
def test_malformed_rows_fail_fast(ineqs, nvars, error, match):
    with pytest.raises(error, match=match):
        feasible_point(ineqs, nvars)


def test_malformed_rows_fail_on_a_warm_tableau():
    lp = interior_tableau([((1, 1), 2, True)], 2)
    with pytest.raises(ValueError, match="has 3 coefficients, expected 2"):
        interior_tableau([((1, 1, 1), 2, True)], 2, lp)
    with pytest.raises(TypeError, match="entry 2.5 of row"):
        interior_tableau([((1, 1), 2.5, True)], 2, lp)
    with pytest.raises(ValueError, match="start has 2 variables, expected 3"):
        feasible_point([], 3, lp)


def test_zero_variables_decide_constant_rows():
    assert feasible_point([((), 1, True)], 0) == ()
    assert feasible_point([((), 0, True)], 0) is None


class FullDictionary:
    """The integer dictionary as it was before only structural rows were stored.

    A test oracle: it keeps one row per basic variable, slacks included, in
    basis order, and every pivot rewrites all of them.  Same labels, same
    dual Bland rule, same Bareiss step, the same stop on the dual bound.
    """

    def __init__(self, nvars):
        self.n = nvars + 1
        eps = self.n - 1
        self.rows = [[0] * eps + [1, 1]]
        self.basis = [self.n]
        self.nb = list(range(self.n))
        self.obj = [0] * eps + [1, 0]
        self.d = 1
        self._pivot(0, eps)

    def _pivot(self, r, col):
        row = self.rows[r]
        p, d = row[col], self.d
        s = 1 if p > 0 else -1
        base = list(row) if s > 0 else [-v for v in row]
        base[col] = s * d
        p *= s

        def eliminate(row):
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

    def with_row(self, a, b, to_optimum=False):
        """(child, None) for a child with eps* > 0, else (None, cause).

        The cause is "ratio" for an empty ratio test and "bound" when the
        objective value of the basis the next pivot would reach, computed in
        Fractions, is <= 0.  With to_optimum, no bound stops the step: it
        ends at an optimum, eps* = 0 included, or on the ratio test.
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
                return child, None
            row, obj = child.rows[leave], child.obj
            enter = None
            for j in sorted(range(len(child.nb)), key=child.nb.__getitem__):
                if row[j] < 0 and (enter is None or obj[j] * row[enter] < obj[enter] * row[j]):
                    enter = j
            if enter is None:
                return None, "ratio"
            # the entering variable would take the value row[-1] / row[enter]
            # and move the objective by obj[enter] / d per unit
            value = F(-obj[-1], child.d) + F(obj[enter], child.d) * F(row[-1], row[enter])
            if value <= 0 and not to_optimum:
                return None, "bound"
            child._pivot(leave, enter)


def optimum_eps(oracle):
    """eps at the oracle's basis: its objective value, -obj[-1] / d."""
    return F(-oracle.obj[-1], oracle.d)


def full_rows(lp):
    """Every basic row of an exactlp tableau by label: the stored ones and the derived."""
    rows = dict(lp.rows)
    nonbasic = set(lp.nb)
    for i in range(len(lp.inputs)):
        if lp.n + i not in nonbasic:
            rows[lp.n + i] = lp._row(i)
    return rows


def state(lp):
    return lp.d, list(lp.nb), lp.obj, full_rows(lp)


def oracle_state(lp):
    return lp.d, list(lp.nb), lp.obj, dict(zip(lp.basis, lp.rows))


class Lockstep:
    """exactlp's tableau and FullDictionary side by side, pivot for pivot.

    Each pivot logs (leaving label, entering label) and the whole state
    after it, on both sides; the logs, the verdicts and the final states
    must be equal.  pivots and with_row count what both sides did, and
    stops counts the oracle's causes of the steps that stopped.  Every stop
    is checked against the oracle run on to its optimum, which must find no
    point or eps* = 0 there: no step may stop a node with eps* > 0.
    """

    def __init__(self, monkeypatch):
        self.logs = {"new": [], "oracle": []}
        self.pivots = self.with_row = 0
        self.stops = Counter()
        real_new, real_oracle = exactlp._Simplex._pivot, FullDictionary._pivot

        def new_pivot(lp, leave, row, col):
            enter = lp.nb[col]
            real_new(lp, leave, row, col)
            self.logs["new"].append((leave, enter, state(lp)))

        def oracle_pivot(lp, r, col):
            leave, enter = lp.basis[r], lp.nb[col]
            real_oracle(lp, r, col)
            self.logs["oracle"].append((leave, enter, oracle_state(lp)))

        monkeypatch.setattr(exactlp._Simplex, "_pivot", new_pivot)
        monkeypatch.setattr(FullDictionary, "_pivot", oracle_pivot)

    def _check_pivots(self):
        assert self.logs["new"] == self.logs["oracle"]
        self.pivots += len(self.logs["new"])
        self.logs["new"].clear()
        self.logs["oracle"].clear()

    def start(self, nvars):
        """Both trivial optima."""
        pair = exactlp._Simplex(nvars), FullDictionary(nvars)
        self._check_pivots()
        assert state(pair[0]) == oracle_state(pair[1])
        return pair

    def step(self, lp, oracle, row):
        """Both children of the scaled row, or None once the steps stop."""
        parent = state(lp)
        child, (oracle_child, cause) = lp.with_row(*row), oracle.with_row(*row)
        self.with_row += 1
        self._check_pivots()
        assert state(lp) == parent  # the parent is never mutated
        assert (child is None) == (oracle_child is None)
        if child is None:
            self.stops[cause] += 1
            full, _ = oracle.with_row(*row, to_optimum=True)
            self.logs["oracle"].clear()  # pivots past the stop, made by the oracle alone
            assert full is None or optimum_eps(full) == 0
            return None
        assert state(child) == oracle_state(oracle_child)
        assert child.values().get(child.n - 1, 0) == optimum_eps(oracle_child) > 0
        return child, oracle_child


@pytest.fixture
def lockstep(monkeypatch):
    return Lockstep(monkeypatch)


def test_lockstep_with_full_dictionary_on_frozen_systems(lockstep):
    for seed in range(len(FROZEN)):
        rows, nvars = random_system(seed)
        pair = lockstep.start(nvars)
        for row in rows:
            pair = lockstep.step(*pair, exactlp.scaled_row(row, nvars))
            if pair is None:
                break
        point = None if pair is None else feasible_point([], nvars, pair[0])
        assert as_text(point) == FROZEN[seed]
    # 836 appended rows; 641 pivots: the start pivots of the 300 trivial
    # optima, 115 dual pivots on the first rows and the 226 on later ones.
    # The 164 infeasible systems stop 103 times on the dual bound and 61
    # times on the ratio test
    assert (lockstep.with_row, lockstep.pivots) == (836, 641)
    assert lockstep.stops == Counter(bound=103, ratio=61)


# pruned children of the chamber descent per n, the same in both modes
PRUNED = {3: 0, 4: 10, 5: 209}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("boundary", ["strict", "inclusive"])
def test_lockstep_with_full_dictionary_on_every_chamber_node(n, boundary, lockstep):
    # the root fold, both children of every node of the descent and, in
    # inclusive mode, the strict row of L - E1 - E2 folded onto every leaf,
    # as enumerate_chambers runs them
    walls = negative_wall_classes(n)
    base = chambers._admissibility_ineqs(n, boundary)
    relaxed = [row for row in chambers._admissibility_ineqs(n, "strict") if row not in base]
    pair = lockstep.start(n)
    for row in base:
        pair = lockstep.step(*pair, exactlp.scaled_row(row, n))
    assert pair is not None
    stack, leaves = [((), pair)], 0
    while stack:
        bits, pair = stack.pop()
        if len(bits) == len(walls):
            leaves += 1
            for row in relaxed:
                pair = lockstep.step(*pair, exactlp.scaled_row(row, n))
            assert pair is not None
            continue
        for positive in (False, True):
            row = chambers._wall_ineq(walls[len(bits)], positive)
            child = lockstep.step(*pair, exactlp.scaled_row(row, n))
            if child is not None:
                stack.append((bits + (positive,), child))
    assert leaves == len(chambers.enumerate_chambers(n, boundary))
    # every pruned child of the descent stops on the dual bound, none on
    # the ratio test: 438 over n = 3..5 in both modes
    assert lockstep.stops == Counter(bound=PRUNED[n])
