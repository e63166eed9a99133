"""The benchmark's own checkers, on cases worked by hand and on the
published table4 rows.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import codec_stream  # noqa: E402
import reference as ref  # noqa: E402


def test_rows_fold_round_trip():
    s = (0, 1, 2, 3, 4, 0)
    rows = ref.rows_of(s, 4)
    assert rows == ((0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 1, 0),
                    (0, 0, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0))
    assert ref.fold(rows) == s
    assert ref.fold(((1, 0), (0, 0))) is None   # a one above a zero


def test_first_channel_ball_by_hand():
    # row 0 of 012 is 001: flipping bit 0 breaks column 0, bit 1 turns the
    # 1 into a 2, bit 2 turns the 2 into a 1
    assert ref.sub_ball((0, 1, 2), 2, ref.parse_spec("(1,0)")) == {
        (0, 1, 2), (0, 2, 2), (0, 1, 1)}


def test_total_one_ball_by_hand():
    # the letter 1 at k = 2 is the column (0,1): flipping row 0 reads 2,
    # flipping row 1 reads 0
    assert ref.sub_ball((1,), 2, ref.parse_spec("t:1")) == {(0,), (1,), (2,)}


def test_deletion_ball_by_hand():
    ball = ref.del_ball((0, 1, 2), ref.parse_spec("d:(1,0)"))
    assert ball == {((0, 1), (0, 1, 1)), ((0, 0), (0, 1, 1))}
    either = ref.del_ball((0, 1, 2), ref.parse_spec("d:1"))
    assert len(either) == ref.runs((0, 0, 1)) + ref.runs((0, 1, 1))


@pytest.mark.parametrize("k,spec", [
    (2, "(1,0)"), (2, "(0,1)"), (2, "(1,1)"), (2, "(2,1)"), (2, "t:1"),
    (2, "t:2"), (3, "(1,0,0)"), (3, "(1,1,0)"), (3, "t:1"), (3, "t:2")])
def test_ball_counter_matches_enumeration(k, spec):
    parsed = ref.parse_spec(spec)
    for n in range(1, 4):
        for s in product(range(k + 1), repeat=n):
            assert ref.ball_size(s, k, parsed) == len(ref.sub_ball(s, k, parsed))


def test_ball_counter_at_long_n_by_hand():
    # (1,0): one plus the letters k-1 and k; t:1: 1 + n + interior letters
    rng = random.Random(5)
    for k in (2, 3, 4):
        s = tuple(rng.randrange(k + 1) for _ in range(500))
        heavy = sum(1 for x in s if x >= k - 1)
        interior = sum(1 for x in s if 0 < x < k)
        first = "(" + ",".join(["1"] + ["0"] * (k - 1)) + ")"
        assert ref.ball_size(s, k, ref.parse_spec(first)) == 1 + heavy
        assert ref.ball_size(s, k, ref.parse_spec("t:1")) == 1 + 500 + interior


def test_integer_program_on_small_spaces():
    # n = 1, (1,0): the balls {0}, {1,2}, {1,2} admit two codewords
    assert ref.ilp_optimum(1, 2, ref.parse_spec("(1,0)")) == 2
    # binary length 3, one error: the repetition code
    assert ref.ilp_optimum(3, 1, ref.parse_spec("(1)")) == 2
    # the package README's exact search figure
    assert ref.ilp_optimum(4, 2, ref.parse_spec("(1,0)")) == 21
    # one deletion: at n = 1 every ball is {((), r1)}, one per letter row 1
    assert ref.ilp_optimum(1, 2, ref.parse_spec("d:(1,0)")) == 2


def test_conflict_free():
    spec = ref.parse_spec("(1,0)")
    assert ref.conflict_free([(0,), (1,)], 2, spec)
    assert not ref.conflict_free([(1,), (2,)], 2, spec)


def test_deletion_gspb_formula_matches_outputs():
    for n in range(2, 7):
        assert ref.gspb_del(n) == ref.gspb_del_by_outputs(n)


def test_published_table4():
    for n, row in ref.TABLE4_PUBLISHED.items():
        assert (math.floor(ref.gspb_del(n)), math.floor(ref.aspv_del(n, False)),
                math.floor(ref.aspv_del(n, True))) == row


def test_first_channel_gspb_closed_form():
    assert ref.gspb_first_channel(4, 2) == Fraction(121, 5)
    for n, k in ((5, 3), (7, 4)):
        assert ref.gspb_first_channel(n, k) == Fraction(
            (k + 1) ** (n + 1) - (k - 1) ** (n + 1), 2 * (n + 1))


def test_systematic_codewords_by_hand():
    # the package README: encode ternary 0120 -> 012011100, and
    # decode c4 010000/0110001 -> 012 (row 0 of 0120001 with a 0 deleted)
    assert ref.ternary_codeword((0, 1, 2, 0)) == (0, 1, 2, 0, 1, 1, 1, 0, 0)
    assert ref.marker_row_codeword((0, 1, 2)) == (0, 1, 2, 0, 0, 0, 1)
    cw = ref.marker_pair_codeword((1, 1))
    assert cw[:6] == (1, 1, 1, 1, 0, 2)


def test_syndromes_by_hand():
    assert ref.hamming_syndrome((1, 0, 1)) == 1 ^ 3
    assert ref.vt_syndrome((0, 1, 1)) == 5
    assert ref.checksum((1, 2)) == (1 + 4) % 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_drawn_codewords_meet_their_syndromes(seed):
    w = codec_stream.Workload(seed, reduced=False)
    for planned in w.plan:
        v, n, label = planned[:3]
        name, k, budgets = codec_stream.VARIANTS[v]
        word = w._draw(*planned)
        s = word.sent
        if name == "c1":
            rows = ref.rows_of(s, k)
            assert all(ref.hamming_syndrome(r) == label
                       for r, b in zip(rows, budgets) if b)
        elif name == "c2":
            assert ref.hamming_syndrome([1 if x == k else 0 for x in s if x >= k - 1]) == 0
        elif name == "lee":
            assert ref.checksum(s) == label
        elif name == "c3":
            assert ref.vt_syndrome(ref.rows_of(s, 2)[0]) % (n + 1) == label
        elif name == "c5":
            r0, r1 = ref.rows_of(s, 2)
            assert ref.vt_syndrome(r0 + r1) % (2 * n + 1) == label
        elif name == "vt":
            assert ref.vt_syndrome(s) % (n + 1) == label
