"""Exact LP feasibility: seeded random systems, pinned results, exact membership."""

import copy
import random
from fractions import Fraction

import pytest

from cpstrata import exactlp
from cpstrata.exactlp import feasible_point, interior_tableau, tighten

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


def as_text(point):
    return None if point is None else " ".join(str(x) for x in point)


# feasible_point(*random_system(seed)) for seed = 0..299, as space-separated
# coordinates; a different vertex here means a different pivot sequence
FROZEN = [
    "-10459/36754 -12929/36754 -16775/55131 -11403/36754",  # 0
    "-18/5 2",  # 1
    "7/5",  # 2
    "-3 0",  # 3
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
    "-57/217 188/217 -198/217",  # 16
    "-111/6434 9605/6434 2985/12868 11245/6434",  # 17
    "0 3/2",  # 18
    None,  # 19
    None,  # 20
    "-1/20 0",  # 21
    "1/5 0",  # 22
    "-233/21 -1172/21 997/42",  # 23
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
    "1/8 -5/4 0 3/2",  # 40
    "0 0 0 0",  # 41
    "-3/2",  # 42
    "0",  # 43
    "-32974/18447 1555/18447 -6703/6149 7032/6149",  # 44
    "0 16/3 0",  # 45
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
    "3/182 94/91 0 110/91",  # 63
    "0 0 0 0",  # 64
    "33/10 -9/8 0 0",  # 65
    "0",  # 66
    "-1/2",  # 67
    "-2/37 0 0 22/37",  # 68
    "-8/9",  # 69
    None,  # 70
    "-21/256 319/192 -625/256",  # 71
    None,  # 72
    "0 0 0",  # 73
    "32/23",  # 74
    "3/8 13/12 0 5/8",  # 75
    "9/52 33/13 0",  # 76
    "0 0 0",  # 77
    "9/2 0",  # 78
    "0 0",  # 79
    None,  # 80
    "-5/6 1/12 0 0",  # 81
    None,  # 82
    "11/318 1769/4452 923/4452 -3977/8904",  # 83
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
    "12850/13239 -9902/13239 3934/13239 3332/4413",  # 103
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
    "64/17 24/17 0",  # 124
    "-1/4 0",  # 125
    None,  # 126
    None,  # 127
    None,  # 128
    "0 0 7",  # 129
    "-5 0 0 0",  # 130
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
    "0 4",  # 147
    "-9/26 -6/13 0 0",  # 148
    "6",  # 149
    "9/2 0 0",  # 150
    "40/43 -113/43 257/129 0",  # 151
    None,  # 152
    "0 0 0 0",  # 153
    None,  # 154
    "39/110 -1/22 43/110",  # 155
    "377/2394 33/266 67/342 0",  # 156
    "7/8 0 0 0",  # 157
    "35/44 57/44",  # 158
    "0 0 0 9/2",  # 159
    None,  # 160
    "-13/3 -67/6",  # 161
    "-8/5",  # 162
    "-1361/498 -359/332 889/249 0",  # 163
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
    "-1/3 0 8/3 0",  # 182
    "-1/15",  # 183
    "0 0 0",  # 184
    None,  # 185
    "-67/96 -11/16 -13/12",  # 186
    None,  # 187
    "15/4 0",  # 188
    "37/90 2/45 0 0",  # 189
    None,  # 190
    "4/3 39/16",  # 191
    "471/724 -359/362 155/724",  # 192
    "646/4147 1868/4147 -705/8294 8357/16588",  # 193
    None,  # 194
    "0 0 0 0",  # 195
    None,  # 196
    "0",  # 197
    "-21/8",  # 198
    "-62/243 284/243 361/729",  # 199
    "-4/15",  # 200
    None,  # 201
    "-173/459 32/17 0 616/459",  # 202
    "-4",  # 203
    "694/5421 -5209/10842 1/3 3533/10842",  # 204
    "-137/294 -407/588 69/196 0",  # 205
    "2",  # 206
    None,  # 207
    "0 2 0",  # 208
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
    "-4/51 -8/17 -79/153",  # 234
    "15/2 -61/16 91/16",  # 235
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
    "0 0 0 6",  # 247
    "28255/6579 -80567/4386 36575/6579 52958/6579",  # 248
    None,  # 249
    "-118/119 -20/119 0 279/119",  # 250
    "0 24 0 0",  # 251
    None,  # 252
    "0 0 5/2 0",  # 253
    "-31/138 73/69 24/23",  # 254
    None,  # 255
    "31/23 -1109/828 0 4/9",  # 256
    "2 0 0",  # 257
    "-3",  # 258
    None,  # 259
    "0 0",  # 260
    "1/4 0 0 0",  # 261
    None,  # 262
    "-5/4 0 17/16 0",  # 263
    "42/11 34/33 0",  # 264
    "8/15 16/5 0 0",  # 265
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
    "33/8 5 0",  # 278
    "0 0 0 0",  # 279
    "-3/28 0 13/21",  # 280
    "0",  # 281
    None,  # 282
    "-9/8",  # 283
    None,  # 284
    "-749/6036 -15/503 50/503",  # 285
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
    "-24 0",  # 298
    "-98/123 -100/369 20/123",  # 299
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


def test_phase_one_start_row_uses_unscaled_rhs():
    # x > 3/4 scales to -4x < -3, x > 1 stays -x < -1: the most negative rhs is
    # row 1 before scaling and row 0 after; starting on row 0 would end at 7/4
    rows = [((F(-1),), F(-3, 4), True), ((F(-1),), F(-1), True)]
    assert feasible_point(rows, 1) == (F(2),)


def test_empty_system_is_origin():
    assert feasible_point([], 3) == (F(0),) * 3


def test_strict_rows_need_interior():
    assert feasible_point([((1,), 0, True), ((-1,), 0, False)], 1) is None
    assert feasible_point([((1,), 0, False), ((-1,), 0, False)], 1) == (F(0),)


def tableau_state(lp):
    return copy.deepcopy((lp.rows, lp.obj, lp.basis, lp.d))


@pytest.mark.parametrize("seed", range(len(FROZEN)))
def test_rows_appended_one_at_a_time_match_cold_solves(seed):
    # the first row is solved cold, every later one is a warm dual-simplex
    # step on the previous tableau; each prefix must get the cold verdict
    rows, nvars = random_system(seed)
    lp = interior_tableau(rows[:1], nvars, len(rows) - 1)
    for k in range(1, len(rows) + 1):
        prefix = rows[:k]
        if k > 1 and lp is not None:
            before = tableau_state(lp)
            child = tighten(lp, rows[k - 1])
            assert tableau_state(lp) == before  # the parent is never mutated
            lp = child
        cold = feasible_point(prefix, nvars)
        assert (lp is not None) == (cold is not None), k
        if lp is None:
            continue  # a superset of an empty system stays empty
        assert lp.d > 0
        assert len(lp.rows) == len(lp.basis) == k + 1
        assert satisfies(prefix, exactlp._split_point(lp.values(), nvars))


def test_appended_rows_reach_both_verdicts_and_dual_pivots(monkeypatch):
    # 697 dual pivots pin the dual Bland rule (smallest basis index leaves,
    # least ratio enters, smallest column on ties): other choices reach the
    # same verdicts through other bases
    pivots = []
    real_pivot = exactlp._Simplex._pivot

    def counting_pivot(lp, r, col):
        pivots.append(col)
        real_pivot(lp, r, col)

    monkeypatch.setattr(exactlp._Simplex, "_pivot", counting_pivot)
    verdicts, dual = set(), 0
    for seed in range(len(FROZEN)):
        rows, nvars = random_system(seed)
        lp = interior_tableau(rows[:1], nvars, len(rows) - 1)
        for row in rows[1:]:
            if lp is None:
                break
            before = len(pivots)
            lp = tighten(lp, row)
            dual += len(pivots) - before
            verdicts.add(lp is not None)
    assert verdicts == {False, True}
    assert dual == 697


def test_no_spare_slack_left_raises():
    lp = interior_tableau([((1,), 1, True)], 1, 1)
    child = tighten(lp, ((-1,), 0, True))
    assert child is not None
    with pytest.raises(ValueError, match="spare slack"):
        tighten(child, ((1,), F(1, 2), False))


def test_ratio_test_prunes_an_empty_cut():
    # x < 1 then x >= 2: the dual simplex finds no entering column
    lp = interior_tableau([((1,), 1, True)], 1, 1)
    assert lp.with_row([-1, 1, 0], -2) is None
    assert tighten(lp, ((-1,), -2, False)) is None


def test_cut_without_interior_prunes_on_eps():
    # x < 1 then x >= 1: feasible only at eps = 0, so the node is pruned
    lp = interior_tableau([((1,), 1, True)], 1, 1)
    child = lp.with_row([-1, 1, 0], -1)
    assert child is not None and child.values().get(2, 0) == 0
    assert tighten(lp, ((-1,), -1, False)) is None
