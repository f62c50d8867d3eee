"""Exact LP feasibility: seeded random systems, pinned results, exact membership."""

import copy
import random
from fractions import Fraction

import pytest

from cpstrata import chambers, exactlp
from cpstrata.exactlp import feasible_point, interior_tableau, tighten
from cpstrata.lattice import negative_wall_classes

F = Fraction


def random_system(seed):
    """1-4 free variables, coefficients with denominators up to 4, mixed strictness."""
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    rows = [
        (tuple(q() for _ in range(nvars)), q(), rng.random() < 0.5)
        for _ in range(rng.randint(1, 7))
    ]
    return rows, nvars


def satisfies(rows, point):
    for coeffs, rhs, strict in rows:
        lhs = sum(a * x for a, x in zip(coeffs, point))
        if not (lhs < rhs if strict else lhs <= rhs):
            return False
    return True


def fourier_motzkin_feasible(rows, nvars):
    """Whether the system has a point, by Fourier-Motzkin elimination over Fraction.

    Independent of exactlp: each variable is eliminated by pairing every row
    with a positive coefficient with every row with a negative one (the pair
    is strict if either row is), and the constant rows left decide.
    """
    rows = [(tuple(F(a) for a in coeffs), F(rhs), strict) for coeffs, rhs, strict in rows]
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
        rows = rest
    return all(rhs > 0 or (rhs == 0 and not strict) for _, rhs, strict in rows)


def as_text(point):
    return None if point is None else " ".join(str(x) for x in point)


# feasible_point(*random_system(seed)) for seed = 0..299, as space-separated
# coordinates; a different vertex here means a different pivot sequence or a
# different order in which the rows are folded in
FROZEN = [
    "-433/1438 -1687/5752 -655/2157 -2051/8628",  # 0
    "-7/12 2",  # 1
    "7/5",  # 2
    "-3 1/4",  # 3
    "210/47 -39/47",  # 4
    "87/7 54/7 -283/42",  # 5
    None,  # 6
    "0 12/5 0",  # 7
    "-3/4 7/6",  # 8
    "-991/232 -115/58 -2457/232 79/58",  # 9
    None,  # 10
    None,  # 11
    "-224/137 589/137 -1537/411 0",  # 12
    "-559/2568 -1441/856 209/321",  # 13
    None,  # 14
    "0 3",  # 15
    "-3 25/2 0",  # 16
    "-167/68 7581/1768 1797/884 436/221",  # 17
    "0 3/2",  # 18
    None,  # 19
    None,  # 20
    "-1/20 0",  # 21
    "1/5 0",  # 22
    "-232/141 -1207/141 16/141",  # 23
    None,  # 24
    "259/2736 43/152 -833/1368 179/684",  # 25
    None,  # 26
    None,  # 27
    None,  # 28
    None,  # 29
    None,  # 30
    None,  # 31
    "-1/3",  # 32
    "17/33 3/11",  # 33
    None,  # 34
    None,  # 35
    "1/2 0 0",  # 36
    "-3/8",  # 37
    "0 -21/10 0 2",  # 38
    "3 0",  # 39
    "6716/2019 -553/4038 -7298/2019 61/1346",  # 40
    "0 0 0 0",  # 41
    "-3/2",  # 42
    "0",  # 43
    "-32974/18447 1555/18447 -6703/6149 7032/6149",  # 44
    "-495/268 2139/1072 -1813/1072",  # 45
    None,  # 46
    "0 0 0",  # 47
    "-3 0 0",  # 48
    None,  # 49
    "-737/567 179/1701 1096/567 -5239/1701",  # 50
    None,  # 51
    "0 4 0",  # 52
    "18/7 -66/7",  # 53
    "-16/3 -5/3",  # 54
    "21/8",  # 55
    None,  # 56
    "-1/3",  # 57
    "147/22 64/11",  # 58
    "0 2/3",  # 59
    "7/9 5/6 0",  # 60
    "0 0 1 0",  # 61
    "4 0",  # 62
    "681/224 237/448 -2935/448 45/224",  # 63
    "0 0 0 0",  # 64
    "33/10 -9/8 0 0",  # 65
    "0",  # 66
    "-1/2",  # 67
    "0 0 0 1",  # 68
    "-8/9",  # 69
    None,  # 70
    "-21/256 319/192 -625/256",  # 71
    None,  # 72
    "0 0 0",  # 73
    "32/23",  # 74
    "3/8 13/12 0 5/8",  # 75
    "0 1/3 31/48",  # 76
    "0 0 0",  # 77
    "9/2 0",  # 78
    "0 0",  # 79
    None,  # 80
    "-5/6 1/12 0 0",  # 81
    None,  # 82
    "983/2526 2525/1263 -98/1263 -856/1263",  # 83
    "-113/222 19/444 17/37",  # 84
    None,  # 85
    None,  # 86
    None,  # 87
    "4 0 0 0",  # 88
    None,  # 89
    None,  # 90
    "0",  # 91
    "5/2228 -3419/6684 576/557 -247/1114",  # 92
    "0 83/169 15/169 0",  # 93
    "0 0",  # 94
    "-11/4 -7/8",  # 95
    "13/11 17/11 0",  # 96
    "86/293 -42/293",  # 97
    "0 0 16/3",  # 98
    "-98/37 3/37 6/37 89/37",  # 99
    "-25/56 3/14",  # 100
    None,  # 101
    "-5/104 1/52",  # 102
    "4050/5567 -2806/5567 706/16701 15164/16701",  # 103
    "5/4",  # 104
    "2/21 83/231 -197/154",  # 105
    "0 5/8 0 0",  # 106
    "-124/51 42/17",  # 107
    "131/324 -49/54",  # 108
    "0 0 0",  # 109
    "123/2770 1773/5540 5397/5540 -3297/11080",  # 110
    "-8/5 0",  # 111
    "3935/4494 -11545/8988 933/5992 45289/17976",  # 112
    None,  # 113
    "-1/130 -1/39",  # 114
    "0 0 1/4",  # 115
    "-1/3 0 0",  # 116
    "0 0",  # 117
    "4/21 11/63",  # 118
    "16/45 16/45 0",  # 119
    "98/29 24/29",  # 120
    "-4/3",  # 121
    "-91/55 -63/110",  # 122
    "8/5",  # 123
    "-2/5 14/5 0",  # 124
    "-1/4 0",  # 125
    None,  # 126
    None,  # 127
    None,  # 128
    "0 0 7",  # 129
    "-5 13/2 0 0",  # 130
    "0 0 0",  # 131
    "0 0 17/10 11/40",  # 132
    "15/2 41/12 -5 0",  # 133
    "1/2 0 0 0",  # 134
    None,  # 135
    "958/85 2564/85 -1044/85 20/17",  # 136
    None,  # 137
    "0 5/2",  # 138
    None,  # 139
    "0",  # 140
    None,  # 141
    "3 6 0 0",  # 142
    None,  # 143
    "0 0 0 2/5",  # 144
    "79/10 -19/4 1 -17/30",  # 145
    "40/21 -34/63",  # 146
    "-64/29 -12/29",  # 147
    "0 -3/5 9/20 0",  # 148
    "6",  # 149
    "9/2 0 0",  # 150
    "17600/32707 -2931/65414 14715/32707 -41361/65414",  # 151
    None,  # 152
    "0 0 0 0",  # 153
    None,  # 154
    "7/20 0 9/20",  # 155
    "0 55/192 31/192 0",  # 156
    "7/8 0 0 0",  # 157
    "35/44 57/44",  # 158
    "23/4 0 0 9/2",  # 159
    None,  # 160
    "-13/3 -67/6",  # 161
    "-8/5",  # 162
    "-63847/19038 -1101/12692 23325/3173 -11146/9519",  # 163
    None,  # 164
    "-9/5",  # 165
    None,  # 166
    None,  # 167
    None,  # 168
    "230/237 -82/79 192/79",  # 169
    None,  # 170
    "12/5 0 0 0",  # 171
    "0 0 0",  # 172
    "24/355 -2024/355 -452/355",  # 173
    "4/5",  # 174
    "1/3 0 0 0",  # 175
    "0",  # 176
    "-3 -6/5",  # 177
    None,  # 178
    "0 0",  # 179
    "-9/16 0",  # 180
    "3",  # 181
    "-61/3 80/7 296/21 0",  # 182
    "-1/15",  # 183
    "0 0 0",  # 184
    None,  # 185
    "-67/96 -11/16 -13/12",  # 186
    None,  # 187
    "15/4 0",  # 188
    "1/2 0 0 0",  # 189
    None,  # 190
    "4/3 39/16",  # 191
    "471/724 -359/362 155/724",  # 192
    "954/8893 1572/8893 -1585/17786 15753/35572",  # 193
    None,  # 194
    "0 0 0 0",  # 195
    None,  # 196
    "0",  # 197
    "-21/8",  # 198
    "-62/243 284/243 361/729",  # 199
    "-4/15",  # 200
    None,  # 201
    "-524/765 32/17 202/255 892/765",  # 202
    "-4",  # 203
    "694/5421 -5209/10842 1/3 3533/10842",  # 204
    "-137/294 -407/588 69/196 0",  # 205
    "2",  # 206
    None,  # 207
    "49/23 129/23 102/23",  # 208
    None,  # 209
    "0 0 0 0",  # 210
    "5/4 -1/4 -1/4",  # 211
    "11/21 0 38/21 61/42",  # 212
    "23/10 -9/20",  # 213
    "3/5 0 3/5",  # 214
    None,  # 215
    None,  # 216
    "1 0 0",  # 217
    "3/10 0 0",  # 218
    "-39/428 -3/107 -223/428",  # 219
    None,  # 220
    None,  # 221
    None,  # 222
    "0 3/10 0",  # 223
    None,  # 224
    "0 0",  # 225
    "0 0 0 0",  # 226
    None,  # 227
    "-23/36 -25/144",  # 228
    "-10 0",  # 229
    "0 0",  # 230
    "0",  # 231
    "0 0 0",  # 232
    None,  # 233
    "-10/9 -20/3 0",  # 234
    "-32 167/8 27",  # 235
    "-1/6 -1/6 0",  # 236
    "0 4 0 0",  # 237
    "0 12/5 0",  # 238
    None,  # 239
    "0",  # 240
    "-3/10",  # 241
    "0 0 2/3",  # 242
    None,  # 243
    "1181/763 1038/763 627/763 0",  # 244
    "0 2/3",  # 245
    None,  # 246
    "0 8 0 12",  # 247
    "28255/6579 -80567/4386 36575/6579 52958/6579",  # 248
    None,  # 249
    "-2 0 0 6",  # 250
    "0 204/41 65/41 0",  # 251
    None,  # 252
    "-259/426 130/213 209/213 0",  # 253
    "2/15 7/10 89/75",  # 254
    None,  # 255
    "31/23 -1109/828 0 4/9",  # 256
    "2 0 0",  # 257
    "-3",  # 258
    None,  # 259
    "0 0",  # 260
    "1/4 0 0 0",  # 261
    None,  # 262
    "-5/4 0 17/16 0",  # 263
    "1406/533 308/533 346/533",  # 264
    "-1616/807 308/269 -620/269 732/269",  # 265
    None,  # 266
    "0 1/10",  # 267
    "0 6/5 0",  # 268
    "6/5",  # 269
    "9/10 0",  # 270
    "-39155/7608 13489/5072 -1285/5072 36147/10144",  # 271
    "0 0 0 0",  # 272
    "-7/4 -3/2",  # 273
    "6/19 37/38",  # 274
    "0",  # 275
    "2 0 0",  # 276
    "2",  # 277
    "75/56 -95/7 -78/7",  # 278
    "0 0 0 0",  # 279
    "19/56 -1/6 -17/42",  # 280
    "0",  # 281
    None,  # 282
    "-9/8",  # 283
    None,  # 284
    "-1669/19308 -84/1609 571/6436",  # 285
    "0 0 0 0",  # 286
    None,  # 287
    "0 0 0",  # 288
    None,  # 289
    "0 84/29 4/29",  # 290
    "1320/2243 5377/4486 11051/8972 -3531/4486",  # 291
    None,  # 292
    "33/41 -18/41 0 22/41",  # 293
    "-2 0",  # 294
    None,  # 295
    "1/3",  # 296
    None,  # 297
    "-232/27 -104/9",  # 298
    "-2/3 -4/9 0",  # 299
]


@pytest.mark.parametrize("seed", range(len(FROZEN)))
def test_random_system_frozen(seed):
    rows, nvars = random_system(seed)
    point = feasible_point(rows, nvars)
    assert as_text(point) == FROZEN[seed]
    if point is not None:
        assert len(point) == nvars
        assert all(type(x) is Fraction for x in point)
        assert satisfies(rows, point)


def test_frozen_set_mixes_outcomes():
    assert 50 <= sum(v is None for v in FROZEN) <= 250


def test_integral_rows_given_as_ints():
    # chamber enumeration passes int rows; they must solve like their Fractions
    for seed in range(len(FROZEN)):
        rows, nvars = random_system(seed)
        as_ints = [
            (tuple(int(a) if a.denominator == 1 else a for a in co),
             int(r) if r.denominator == 1 else r, s)
            for co, r, s in rows
        ]
        assert as_text(feasible_point(as_ints, nvars)) == FROZEN[seed]


def test_strict_lower_bounds_of_two_scales():
    # x > 3/4 scales to -4x + 4 eps <= -3 and x > 1 stays -x + eps <= -1; at
    # eps* = 1 they ask x >= 7/4 and x >= 2, and the vertex is x = 2
    rows = [((F(-1),), F(-3, 4), True), ((F(-1),), F(-1), True)]
    assert feasible_point(rows, 1) == (F(2),)


def test_empty_system_is_origin():
    assert feasible_point([], 3) == (F(0),) * 3
    # the trivial optimum every fold starts from: max eps s.t. eps <= 1,
    # after its one start pivot puts eps (label 4) in the basis at 1
    lp = interior_tableau([], 2)
    assert (lp.nb, lp.d, lp.inputs) == ([0, 1, 2, 3, 5], 1, [([0, 0, 0, 0, 1], 1)])
    assert lp.rows == {4: [0, 0, 0, 0, 1, 1]} and lp.obj == [0, 0, 0, 0, -1, -1]


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


def test_fourier_motzkin_oracle_sees_strictness():
    # x < 0 <= x is empty, 0 <= x <= 0 is not; so is x + y < 1 < x + y
    assert not fourier_motzkin_feasible([((1,), 0, True), ((-1,), 0, False)], 1)
    assert fourier_motzkin_feasible([((1,), 0, False), ((-1,), 0, False)], 1)
    assert not fourier_motzkin_feasible([((1, 1), 1, True), ((-1, -1), -1, False)], 2)
    assert fourier_motzkin_feasible([((1, 1), 1, False), ((-1, -1), -1, False)], 2)


def test_constant_rows_decide_themselves():
    # an all-zero row reads 0 < rhs or 0 <= rhs: 0 < 0 and 0 <= -1 empty
    # the system, 0 <= 1 drops out; no caller has to resolve them first
    base = [((1, -1), 2, True), ((-1, 0), F(1, 2), False)]
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
            child = tighten(lp, rows[k - 1])
            assert tableau_state(lp) == before  # the parent is never mutated
            lp = child
        cold = feasible_point(prefix, nvars)
        oracle = fourier_motzkin_feasible(prefix, nvars)
        assert (lp is not None) == (cold is not None) == oracle, k
        if lp is None:
            continue  # a superset of an empty system stays empty
        assert lp.d > 0
        # one input row per slack, eps <= 1 first; stored rows for at most
        # the 2 * nvars + 1 structural variables
        assert len(lp.inputs) == k + 1 and len(lp.rows) <= 2 * nvars + 1
        assert satisfies(prefix, exactlp._split_point(lp.values(), nvars))


def test_appended_rows_reach_both_verdicts_and_dual_pivots(monkeypatch):
    # 689 dual pivots pin the dual Bland rule (smallest basis index leaves,
    # least ratio enters, smallest column on ties): other choices reach the
    # same verdicts through other bases
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
            lp = tighten(lp, row)
            dual += len(pivots) - before
            verdicts.add(lp is not None)
    assert verdicts == {False, True}
    assert dual == 689


def test_rows_appended_past_any_reserved_width_match_cold_solves():
    # the dictionary reserves no column per future row: a one-row root takes
    # as many rows as come, every row keeps 2 * nvars + 2 entries, and only
    # the basic structural variables' rows are stored
    root = ((1, 1), 2, True)  # x + y < 2
    extra = [
        ((-1, 0), 0, False), ((0, -1), 0, False), ((1, -1), 1, True), ((-1, 1), 1, True),
        ((-1, 0), F(-1, 3), True), ((0, -1), F(-1, 4), True), ((1, 2), 2, False),
        ((3, 1), 3, True), ((-1, -1), F(-6, 5), True), ((1, 0), F(1, 3), False),
    ]
    lp, verdicts = interior_tableau([root], 2), []
    for k in range(1, len(extra) + 1):
        prefix = [root] + extra[:k]
        lp = tighten(lp, extra[k - 1])
        cold = feasible_point(prefix, 2)
        verdicts.append(lp is not None)
        assert (lp is not None) == (cold is not None), k
        if lp is None:
            break
        assert len(lp.inputs) == k + 2 and len(lp.rows) <= 5
        assert all(len(row) == 6 for row in [*lp.rows.values(), lp.obj])
        assert satisfies(prefix, exactlp._split_point(lp.values(), 2))
    assert verdicts == [True] * 9 + [False]


def test_opposite_rows_pin_their_point():
    # 2x <= -1 and -2x <= 1 leave the single point x = -1/2
    assert feasible_point([((2,), -1, False), ((-2,), 1, False)], 1) == (F(-1, 2),)


def test_ratio_test_prunes_an_empty_cut():
    # x < 1 then x >= 2: the dual simplex finds no entering column
    lp = interior_tableau([((1,), 1, True)], 1)
    assert lp.with_row([-1, 1, 0], -2) is None
    assert tighten(lp, ((-1,), -2, False)) is None


def test_cut_without_interior_prunes_on_eps():
    # x < 1 then x >= 1: feasible only at eps = 0, so the node is pruned
    lp = interior_tableau([((1,), 1, True)], 1)
    child = lp.with_row([-1, 1, 0], -1)
    assert child is not None and child.values().get(2, 0) == 0
    assert tighten(lp, ((-1,), -1, False)) is None


@pytest.mark.parametrize(
    "ineqs,nvars,error,match",
    [
        # a coefficient too many is not dropped, one too few is not an IndexError
        ([((1, 2), 1, False)], 1, ValueError, r"row \(\(1, 2\), 1, False\) has 2 .*expected 1"),
        ([((1,), 1, False)], 2, ValueError, r"row \(\(1,\), 1, False\) has 1 coeff.*expected 2"),
        ([((1,), 1, False), ((1, 0), 1, True)], 1, ValueError, r"row \(\(1, 0\), 1, True\)"),
        ([], -1, ValueError, r"nvars must be >= 0, got -1"),
        ([((), 0, False)], -1, ValueError, r"nvars must be >= 0, got -1"),
        # no floating point, ever: not in a coefficient, not in a rhs
        ([((F(1, 2), 0.5), 1, False)], 2, TypeError, r"entry 0\.5 of row \(\(Fraction\(1, 2"),
        ([((1,), 1.0, True)], 1, TypeError, r"entry 1\.0 of row"),
        ([(("1",), 1, True)], 1, TypeError, r"entry '1' of row"),
    ],
)
def test_malformed_rows_fail_fast(ineqs, nvars, error, match):
    with pytest.raises(error, match=match):
        feasible_point(ineqs, nvars)


def test_malformed_rows_fail_on_a_warm_tableau():
    lp = interior_tableau([((1, 1), 2, True)], 2)
    with pytest.raises(ValueError, match="has 3 coefficients, expected 2"):
        tighten(lp, ((1, 1, 1), 2, True))
    with pytest.raises(TypeError, match="entry 2.5 of row"):
        tighten(lp, ((1, 1), 2.5, True))
    with pytest.raises(ValueError, match="start has 2 variables, expected 3"):
        feasible_point([], 3, lp)


def test_zero_variables_decide_constant_rows():
    assert feasible_point([((), 1, True)], 0) == ()
    assert feasible_point([((), 0, True)], 0) is None


class FullDictionary:
    """The integer dictionary as it was before only structural rows were stored.

    A test oracle: it keeps one row per basic variable, slacks included, in
    basis order, and every pivot rewrites all of them.  Same labels, same
    dual Bland rule, same Bareiss step.
    """

    def __init__(self, nvars):
        self.n = 2 * nvars + 1
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

    def with_row(self, a, b):
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
            for j in sorted(range(len(child.nb)), key=child.nb.__getitem__):
                if row[j] < 0 and (enter is None or obj[j] * row[enter] < obj[enter] * row[j]):
                    enter = j
            if enter is None:
                return None
            child._pivot(leave, enter)


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
    must be equal.  pivots and with_row count what both sides did.
    """

    def __init__(self, monkeypatch):
        self.logs = {"new": [], "oracle": []}
        self.pivots = self.with_row = 0
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
        """Both children of the scaled row, or None once they are infeasible or have eps* = 0."""
        parent = state(lp)
        child, oracle_child = lp.with_row(*row), oracle.with_row(*row)
        self.with_row += 1
        self._check_pivots()
        assert state(lp) == parent  # the parent is never mutated
        assert (child is None) == (oracle_child is None)
        if child is None:
            return None
        assert state(child) == oracle_state(oracle_child)
        interior = exactlp._interior(child)
        eps = oracle_child.rows[oracle_child.basis.index(oracle_child.n - 1)][-1]
        assert (interior is not None) == (eps > 0)
        return None if interior is None else (child, oracle_child)


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
        point = None if pair is None else exactlp._split_point(pair[0].values(), nvars)
        assert as_text(point) == FROZEN[seed]
    # 1,056 appended rows; 1,166 pivots: the start pivots of the 300 trivial
    # optima, 177 dual pivots on the first rows and the 689 on later ones
    assert (lockstep.with_row, lockstep.pivots) == (1056, 1166)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("boundary", ["strict", "inclusive"])
def test_lockstep_with_full_dictionary_on_every_chamber_node(n, boundary, lockstep):
    # the root fold, both children of every node of the descent and the
    # strict pair rows folded onto every leaf, as enumerate_chambers runs them
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
