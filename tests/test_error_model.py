"""Tests for error specifications, ball sizes and counting helpers."""

import random
from itertools import product
from math import comb

import pytest

from composite_codec.core import (
    UNKNOWN,
    DomainError,
    all_sequences,
    decompose_sequence,
    reconstruct_rows,
)
from composite_codec.error_model import (
    PerChannel,
    SizeLimitError,
    Total,
    UnsupportedSpecError,
    count_runs_weight,
    count_v,
    del_ball_size,
    enumerate_del_ball,
    enumerate_in_ball,
    enumerate_received_rows,
    enumerate_sub_ball,
    has_closed_form,
    parse_spec,
    runs,
    sub_ball_size,
    vertex_set_size_10,
)


def test_parse_spec_forms():
    assert parse_spec("(1,0)") == PerChannel((1, 0))
    assert parse_spec("(2,1,0)") == PerChannel((2, 1, 0))
    assert parse_spec("t:2") == Total(2)
    assert parse_spec("d:(1,0)") == "d:(1,0)"
    assert parse_spec("d:1") == "d:1"
    with pytest.raises(DomainError):
        parse_spec("nope")


@pytest.mark.parametrize("text", ["t:x", "()", "(1,x)", "t:", "(1,,0)", "t:1.5"])
def test_parse_spec_rejects_malformed_specs(text):
    with pytest.raises(DomainError):
        parse_spec(text)


def test_spec_validation():
    with pytest.raises(DomainError):
        PerChannel((1, -1))
    with pytest.raises(DomainError):
        Total(-1)


def test_first_channel_ball_counts_top_levels():
    # Budget (1,0,...,0): reachable points are the center plus one letter
    # in {k-1, k} lowered by a single top-row flip.
    assert sub_ball_size((0,) * 30, 2, parse_spec("(1,0)")) == 1
    assert sub_ball_size((0, 1, 2) * 10, 2, parse_spec("(1,0)")) == 21
    assert sub_ball_size((3, 4, 0, 4), 4, parse_spec("(1,0,0,0)")) == 4


def test_total_one_ball_counts_interior_letters():
    # Total budget 1: 1 + n + #letters strictly between 0 and k.
    spec = parse_spec("t:1")
    for k in (2, 3, 4):
        for s in ((0,) * 4, (k,) * 4, tuple(range(min(k, 3) + 1))):
            interior = sum(1 for x in s if 0 < x < k)
            assert sub_ball_size(s, k, spec) == 1 + len(s) + interior


def test_ball_formula_matches_enumeration_small():
    specs = [parse_spec(t) for t in ("(1,0)", "(0,1)", "(1,1)", "(2,1)", "t:1", "t:2")]
    for n in (1, 2, 3, 4):
        for s in all_sequences(n, 2):
            for spec in specs:
                assert sub_ball_size(s, 2, spec) == len(enumerate_sub_ball(s, 2, spec))


def test_ball_enumeration_k3_total():
    spec = parse_spec("t:1")
    for s in all_sequences(3, 3):
        assert sub_ball_size(s, 3, spec) == len(enumerate_sub_ball(s, 3, spec))


def test_ball_contains_center_and_monotone():
    s = (0, 1, 2, 1)
    b1 = enumerate_sub_ball(s, 2, parse_spec("t:1"))
    b2 = enumerate_sub_ball(s, 2, parse_spec("t:2"))
    assert s in b1
    assert b1 <= b2


def test_enumerate_in_ball_is_adjoint():
    spec = parse_spec("(1,1)")
    space = list(all_sequences(3, 2))
    for y in space:
        inbound = enumerate_in_ball(y, 2, spec)
        expected = {x for x in space if y in enumerate_sub_ball(x, 2, spec)}
        assert inbound == expected


def _folded_ball(s, k, spec):
    """The definitional ball: every received row tuple, reconstructed,
    keeping the valid sequences."""
    folded = (reconstruct_rows(rows) for rows in enumerate_received_rows(s, k, spec))
    return {y for y in folded if UNKNOWN not in y}


# (k, largest n, specs): every k = 2 spec with budgets <= 3
FOLD_GRID = (
    (2, 4, ("(1,0)", "(0,1)", "(1,1)", "(2,0)", "(0,2)", "(2,1)", "(1,2)",
            "(2,2)", "t:1", "t:2", "t:3")),
    (3, 4, ("(1,0,0)", "(1,1,0)", "(0,1,1)", "(1,1,1)", "t:1", "t:2")),
    (4, 3, ("(1,0,0,0)", "(0,1,0,1)", "(1,1,1,1)", "t:1", "t:2")),
)


@pytest.mark.parametrize("k, max_n, specs", FOLD_GRID)
def test_letter_ball_equals_folded_received_rows(k, max_n, specs):
    for text in specs:
        spec = parse_spec(text)
        for n in range(1, max_n + 1):
            for s in all_sequences(n, k):
                ball = enumerate_sub_ball(s, k, spec)
                assert ball == _folded_ball(s, k, spec), (s, text)
                assert sub_ball_size(s, k, spec) == len(ball), (s, text)


@pytest.mark.parametrize("k, n, text", [
    (2, 3, "(1,1)"), (2, 3, "(2,1)"), (2, 3, "t:2"), (2, 4, "(0,1)"),
    (3, 3, "(1,1,0)"), (3, 3, "t:1"), (3, 2, "t:3"), (4, 2, "(0,1,1,0)"),
])
def test_enumerate_in_ball_equals_brute_force_scan(k, n, text):
    spec = parse_spec(text)
    space = list(all_sequences(n, k))
    balls = {x: _folded_ball(x, k, spec) for x in space}
    for y in space:
        expected = {x for x in space if y in balls[x]}
        assert enumerate_in_ball(y, k, spec) == expected


def _transformation_sum_e0e1(s, e0, e1):
    """k = 2 (e0, e1) ball size as a sum over the letter transformations
    a: 0->1, b: 0->2, c: 1->0, d: 1->2, e: 2->0, f: 2->1; b, d, e, f consume
    first-channel errors and a, b, c, e second-channel errors."""
    j = sum(1 for x in s if x == 0)
    m = sum(1 for x in s if x == 1)
    r = len(s) - m - j
    total = 0
    for a in range(min(j, e1) + 1):
        for b in range(min(j - a, e0, e1) + 1):
            for c in range(min(m, e1) + 1):
                for d in range(min(m - c, e0) + 1):
                    for ee in range(min(r, e0, e1) + 1):
                        for f in range(min(r - ee, e0) + 1):
                            if b + d + ee + f <= e0 and a + b + c + ee <= e1:
                                total += (comb(j, a) * comb(j - a, b)
                                          * comb(m, c) * comb(m - c, d)
                                          * comb(r, ee) * comb(r - ee, f))
    return total


def test_e0e1_ball_count_matches_transformation_sum():
    rng = random.Random(7)
    for n in (5, 14, 36, 200):
        for budgets in ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 0), (0, 3)):
            s = tuple(rng.randrange(3) for _ in range(n))
            assert (sub_ball_size(s, 2, PerChannel(budgets))
                    == _transformation_sum_e0e1(s, *budgets)), (n, budgets)


def test_enumerate_received_rows_covers_ball():
    # Valid received row pairs reconstruct exactly to the substitution ball.
    spec = parse_spec("t:1")
    for s in all_sequences(3, 2):
        recon = set()
        for rows in enumerate_received_rows(s, 2, spec):
            y = reconstruct_rows(rows)
            if UNKNOWN not in y:
                recon.add(y)
        assert recon == enumerate_sub_ball(s, 2, spec)


def test_received_rows_differ_from_clean_within_budget():
    s = (0, 2, 1)
    clean = decompose_sequence(s, 2)
    for rows in enumerate_received_rows(s, 2, parse_spec("(1,0)")):
        flips0 = sum(a != b for a, b in zip(rows[0], clean[0]))
        flips1 = sum(a != b for a, b in zip(rows[1], clean[1]))
        assert flips0 <= 1 and flips1 == 0


def test_unsupported_closed_form_raises_without_enumeration():
    spec = parse_spec("(1,1,0)")
    assert not has_closed_form(3, spec)
    assert has_closed_form(2, parse_spec("(2,1)"))
    assert has_closed_form(3, parse_spec("t:1"))
    with pytest.raises(UnsupportedSpecError):
        sub_ball_size((0, 1, 2), 3, spec, allow_enumeration=False)
    # enumeration fallback still produces the count
    got = sub_ball_size((0, 1, 2), 3, spec)
    assert got == len(enumerate_sub_ball((0, 1, 2), 3, spec))


def test_enumeration_cap():
    with pytest.raises(SizeLimitError):
        enumerate_sub_ball((0,) * 5, 2, parse_spec("t:1"), max_n=4)


def test_runs():
    with pytest.raises(DomainError):
        runs(())
    assert runs((0,)) == 1
    assert runs((0, 0, 0)) == 1
    assert runs((0, 1, 0, 1)) == 4
    assert runs((0, 0, 1, 1, 0)) == 3


def test_del_ball_size_is_run_count():
    for n in (2, 3, 4, 5):
        for s in all_sequences(n, 2):
            rows = decompose_sequence(s, 2)
            assert del_ball_size(s, parse_spec("d:(1,0)")) == runs(rows[0])
            assert del_ball_size(s, parse_spec("d:1")) == runs(rows[0]) + runs(rows[1])


def test_del_ball_enumeration_matches_size():
    for n in (2, 3, 4, 5, 6):
        for s in all_sequences(n, 2):
            for text in ("d:(1,0)", "d:1"):
                spec = parse_spec(text)
                ball = enumerate_del_ball(s, spec)
                assert len(ball) == del_ball_size(s, spec)


def test_del_ball_shapes():
    ball = enumerate_del_ball((0, 1, 2), parse_spec("d:(1,0)"))
    assert ball == {((0, 0), (0, 1, 1)), ((0, 1), (0, 1, 1))}
    for r0, r1 in enumerate_del_ball((0, 1, 2), parse_spec("d:1")):
        assert {len(r0), len(r1)} == {2, 3}


def _brute_runs_weight(n, rho, w):
    total = 0
    for x in product((0, 1), repeat=n):
        if sum(x) == w and runs(x) == rho:
            total += 1
    return total


def test_count_runs_weight_matches_brute_force():
    for n in (1, 2, 5, 8):
        for rho in range(1, n + 1):
            for w in range(0, n + 1):
                assert count_runs_weight(n, rho, w) == _brute_runs_weight(n, rho, w)
    with pytest.raises(DomainError):
        count_runs_weight(3, 0, 1)
    with pytest.raises(DomainError):
        count_runs_weight(3, 4, 1)


def _insertions(y):
    out = set()
    for i in range(len(y) + 1):
        for b in (0, 1):
            out.add(y[:i] + (b,) + y[i:])
    return out


def _brute_v(y0):
    n = len(y0) + 1
    seen = set()
    for s0 in _insertions(y0):
        for s1 in product((0, 1), repeat=n):
            if all(a <= b for a, b in zip(s0, s1)):
                seen.add(s1)
    return len(seen)


def test_count_v_matches_brute_force():
    for n in (2, 3, 4, 5):
        for y0 in product((0, 1), repeat=n - 1):
            assert count_v(n, sum(y0)) == _brute_v(y0)


def test_count_v_closed_form():
    for n in (3, 6, 10):
        for w in range(n):
            assert count_v(n, w) == 2 ** (n - w) + w * 2 ** (n - w - 1)


def test_vertex_set_size_10_matches_brute_force():
    for n in (2, 3, 4, 5, 6):
        vertices = set()
        for s in all_sequences(n, 2):
            for out in enumerate_del_ball(s, parse_spec("d:(1,0)")):
                vertices.add(out)
        assert vertex_set_size_10(n) == len(vertices)
        assert vertex_set_size_10(n) == 2 * 3 ** (n - 1) + (n - 1) * 3 ** (n - 2)


def test_total_run_count_identity():
    # Summing rho over all weight-w sequences with at least two runs.
    for n in (4, 7):
        for w in range(1, n):
            lhs = sum(
                rho * count_runs_weight(n, rho, w) for rho in range(2, n + 1)
            )
            assert lhs == comb(n, w) + 2 * (n - 1) * comb(n - 2, w - 1)
