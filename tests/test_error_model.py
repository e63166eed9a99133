"""Tests for error specifications, ball sizes and counting helpers."""

import random
from itertools import combinations, product
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
    _letter_moves,
    ball_size,
    count_runs_weight,
    count_v,
    del_ball_size,
    enumerate_ball,
    enumerate_del_ball,
    enumerate_in_ball,
    enumerate_received_rows,
    enumerate_sub_ball,
    has_closed_form,
    parse_spec,
    raised_caps,
    runs,
    shortened_rows,
    space_balls,
    sub_ball_pairs,
    sub_ball_size,
    vertex_set_size,
    walk_sub_balls,
)


def test_parse_spec_forms():
    assert parse_spec("(1,0)") == PerChannel((1, 0))
    assert parse_spec("(2,1,0)") == PerChannel((2, 1, 0))
    assert parse_spec("t:2") == Total(2)
    assert parse_spec("d:(1,0)") == "d:(1,0)"
    assert parse_spec("d:1") == "d:1"
    for text in ("d:(1)", "d:(1,0,0)", "d:(1,0,0,0,0)"):
        assert parse_spec(f" {text} ") == text
    assert (str(parse_spec("d:(1,0)")), repr(parse_spec("d:1"))) == ("d:(1,0)", "'d:1'")
    with pytest.raises(DomainError):
        parse_spec("nope")


@pytest.mark.parametrize("text", ["t:x", "()", "(1,x)", "t:", "(1,,0)", "t:1.5",
                                  "d:2", "d:(0,1)", "d:(1,1)", "d:()", "d:(1,0", "d:( 1,0)"])
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


# (k, largest n, specs): every word of every length up to the largest n
SMALL_GRID = (
    (2, 5, ("(0,0)", "(1,0)", "(0,1)", "(1,1)", "(2,1)", "(2,2)",
            "t:0", "t:1", "t:2", "t:3")),
    (3, 3, ("(0,0,0)", "(1,0,0)", "(1,1,0)", "(2,1,0)",
            "t:0", "t:1", "t:2", "t:3")),
    (4, 3, ("(0,0,0,0)", "(1,0,0,0)", "(0,0,1,1)", "(1,1,0,0)",
            "t:0", "t:1", "t:2", "t:3")),
)


def test_ball_formula_matches_enumeration_small():
    for k, max_n, texts in SMALL_GRID:
        for text in texts:
            spec = parse_spec(text)
            for n in range(max_n + 1):
                total = 0
                for s in all_sequences(n, k):
                    size = len(enumerate_sub_ball(s, k, spec))
                    assert sub_ball_size(s, k, spec) == size, (s, text)
                    total += size
                assert sub_ball_pairs(n, k, spec) == total, (k, n, text)


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


def _per_centre_ball(s, k, spec):
    """The ball of one centre by its own budget-layer pass, no layer shared
    with another centre: a list, to show that no member comes twice."""
    budget, moves = _letter_moves(k, spec)
    layer = {budget: [()]}
    for sigma in s:
        nxt: dict = {}
        for left, prefixes in layer.items():
            for tau, rest in moves[sigma, left]:
                nxt.setdefault(rest, []).extend(p + (tau,) for p in prefixes)
        layer = nxt
    return [y for ys in layer.values() for y in ys]


# (k, largest n, specs): per-channel budgets, zero budgets among them, and
# total budgets 0-3 at every k
WALK_GRID = (
    (1, 5, ("(0)", "(1)", "(2)", "(3)", "t:0", "t:1", "t:2", "t:3")),
    (2, 5, ("(0,0)", "(1,0)", "(0,1)", "(1,1)", "(2,0)", "(0,2)", "(2,1)",
            "(2,2)", "t:0", "t:1", "t:2", "t:3")),
    (3, 5, ("(0,0,0)", "(1,0,0)", "(0,0,1)", "(0,1,0)", "(1,0,1)",
            "(1,1,1)", "(2,0,1)", "t:0", "t:1", "t:2", "t:3")),
    (4, 5, ("(0,0,0,0)", "(1,0,0,0)", "(0,0,0,1)", "(0,1,1,0)",
            "(1,0,2,0)", "t:0", "t:1", "t:2", "t:3")),
)


@pytest.mark.parametrize("k, max_n, specs", WALK_GRID)
def test_walk_matches_per_centre_enumeration(k, max_n, specs):
    for text in specs:
        spec = parse_spec(text)
        for n in range(max_n + 1):
            walked = list(walk_sub_balls([range(k + 1)] * n, k, spec))
            assert [s for s, _ in walked] == list(all_sequences(n, k))
            for s, members in walked:
                expected = _per_centre_ball(s, k, spec)
                assert len(members) == len(set(members)) == len(expected), (s, text)
                assert set(members) == set(expected), (s, text)
            assert list(space_balls(n, k, spec)) == walked


def test_walk_over_chosen_letters_keeps_lexicographic_order():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(0, 5)
        spec = parse_spec(rng.choice(("t:1", "t:2"))) if rng.random() < 0.5 else \
            parse_spec("(" + ",".join(str(rng.randint(0, 2)) for _ in range(k)) + ")")
        columns = [sorted(rng.sample(range(k + 1), rng.randint(1, k + 1)))
                   for _ in range(n)]
        walked = list(walk_sub_balls(columns, k, spec))
        assert [s for s, _ in walked] == list(product(*columns))
        for s, members in walked:
            assert sorted(members) == sorted(_per_centre_ball(s, k, spec))


@pytest.mark.parametrize("k, text", [(1, "d:(1)"), (2, "d:(1,0)"), (2, "d:1"),
                                     (3, "d:1")])
def test_space_balls_of_a_deletion_spec_are_the_per_centre_balls(k, text):
    spec = parse_spec(text)
    for n in range(1, 4):
        assert list(space_balls(n, k, spec)) == [
            (s, enumerate_del_ball(s, k, spec)) for s in all_sequences(n, k)]


def test_walk_checks_come_before_any_column_is_built():
    # the cap refuses a long space at once; the count and letter rules
    # keep their texts
    with pytest.raises(SizeLimitError, match="^n=100000000 exceeds enumeration cap 10$"):
        space_balls(10 ** 8, 2, parse_spec("(1,1)"))
    with pytest.raises(DomainError, match="^budget vector \\(1,1\\) has 2 entries, expected k=3$"):
        space_balls(10 ** 8, 3, parse_spec("(1,1)"))
    with pytest.raises(DomainError, match="^letter 3 outside Sigma_3$"):
        next(walk_sub_balls([(0,), (1, 3)], 2, parse_spec("t:1")))


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


def _received_rows_recursive(s, k, spec):
    """Every raw row tuple, one flip set per channel at a time: position
    subsets of size <= e_j per channel, or a split of the total budget."""
    rows = decompose_sequence(s, k)
    budgets = spec.budgets if isinstance(spec, PerChannel) else None
    out = set()

    def place(channel, remaining, chosen):
        if channel == k:
            flipped = []
            for row, flips in zip(rows, chosen):
                r = list(row)
                for i in flips:
                    r[i] ^= 1
                flipped.append(tuple(r))
            out.add(tuple(flipped))
            return
        budget = budgets[channel] if budgets else remaining
        for t in range(budget + 1):
            for flips in combinations(range(len(s)), t):
                place(channel + 1, remaining - t, chosen + [flips])

    place(0, 0 if budgets else spec.errors, [])
    return out


@pytest.mark.parametrize("k, max_n, specs", FOLD_GRID + SMALL_GRID)
def test_received_rows_product_equals_the_recursion(k, max_n, specs):
    for text in specs:
        spec = parse_spec(text)
        for n in range(max_n + 1):
            for s in all_sequences(n, k):
                got = enumerate_received_rows(s, k, spec)
                assert got == _received_rows_recursive(s, k, spec), (s, text)


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


NO_CLOSED_FORM = {3: ("(1,1,0)", "(0,0,1)", "(2,0,1)", "t:2"),
                  4: ("(0,1,0,1)", "(1,1,1,1)", "t:2")}


@pytest.mark.parametrize("k", sorted(NO_CLOSED_FORM))
def test_ball_size_without_closed_form_matches_enumeration(k):
    assert has_closed_form(2, parse_spec("(2,1)"))
    assert has_closed_form(k, parse_spec("t:1"))
    rng = random.Random(k)
    for text in NO_CLOSED_FORM[k]:
        spec = parse_spec(text)
        assert not has_closed_form(k, spec)
        for n in range(1, 6):
            words = list(all_sequences(n, k))
            for s in words if n <= 3 else rng.sample(words, 60):
                assert sub_ball_size(s, k, spec) == len(enumerate_sub_ball(s, k, spec))


def _binom(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def _closed_form_size(s, k, spec):
    """Closed formulas for the ball size: zero budgets, (1,0,...,0) and t:1
    at any k, t:e at k = 2 (m ones in s).  None for the other specs; the
    k = 2 (e0, e1) sizes are _transformation_sum_e0e1."""
    if isinstance(spec, PerChannel):
        if not any(spec.budgets):
            return 1
        if spec.budgets[0] == 1 and not any(spec.budgets[1:]):
            # single error in the first channel: only k-1 <-> k toggles
            return 1 + sum(1 for x in s if x in (k - 1, k))
        return None
    if spec.errors == 0:
        return 1
    if spec.errors == 1:
        return 1 + len(s) + sum(1 for x in s if 1 <= x <= k - 1)
    if k != 2:
        return None
    n, e = len(s), spec.errors
    m = sum(1 for x in s if x == 1)
    total = 0
    for i in range(e + 1):
        inner = 0
        for ell in range(e - i + 1):
            psum = sum(_binom(n - m - ell, p)
                       for p in range((e - i - ell) // 2 + 1))
            inner += _binom(n - m, ell) * psum
        total += _binom(m, i) * (2 ** i) * inner
    return total


@pytest.mark.parametrize("k, texts", [
    (2, ("(0,0)", "(1,0)", "t:0", "t:1", "t:2", "t:3", "t:4")),
    (3, ("(0,0,0)", "(1,0,0)", "t:0", "t:1")),
    (4, ("(0,0,0,0)", "(1,0,0,0)", "t:0", "t:1")),
])
def test_ball_count_matches_the_closed_forms(k, texts):
    rng = random.Random(k)
    for text in texts:
        spec = parse_spec(text)
        assert has_closed_form(k, spec)
        for n in (1, 2, 7, 30, 200, 1000):
            for _ in range(3):
                s = tuple(rng.randrange(k + 1) for _ in range(n))
                assert sub_ball_size(s, k, spec) == _closed_form_size(s, k, spec)
        # words of one letter, where the closed forms are at their extremes
        for sigma in range(k + 1):
            s = (sigma,) * 50
            assert sub_ball_size(s, k, spec) == _closed_form_size(s, k, spec)


@pytest.mark.parametrize("text", ["(0,0)", "(1,0)", "(2,1)", "t:0", "t:1", "t:2"])
def test_ball_size_checks_the_letters_for_every_spec(text):
    spec = parse_spec(text)
    with pytest.raises(DomainError, match="outside"):
        sub_ball_size((9, 9), 2, spec)
    with pytest.raises(DomainError, match="contains '\\?'"):
        sub_ball_size((0, "?", 1), 2, spec)


def test_ball_pairs_reject_a_negative_length():
    with pytest.raises(DomainError, match="^length must be >= 0, got -1$"):
        sub_ball_pairs(-1, 2, parse_spec("t:1"))


def test_enumeration_cap(monkeypatch):
    monkeypatch.delenv("COMPOSITE_CODEC_CAPS", raising=False)
    spec = parse_spec("t:1")
    assert len(enumerate_sub_ball((0,) * 8, 2, spec)) == 9
    with pytest.raises(SizeLimitError, match="n=9 exceeds enumeration cap 8"):
        enumerate_sub_ball((0,) * 9, 2, spec)
    with raised_caps(9):
        assert len(enumerate_sub_ball((0,) * 9, 2, spec)) == 10


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
            assert del_ball_size(s, 2, parse_spec("d:(1,0)")) == runs(rows[0])
            assert del_ball_size(s, 2, parse_spec("d:1")) == runs(rows[0]) + runs(rows[1])


def test_del_ball_enumeration_matches_size():
    for n in (2, 3, 4, 5, 6):
        for s in all_sequences(n, 2):
            for text in ("d:(1,0)", "d:1"):
                spec = parse_spec(text)
                ball = enumerate_del_ball(s, 2, spec)
                assert len(ball) == del_ball_size(s, 2, spec)


def test_deletion_balls_are_stated_for_two_rows():
    """d:(1,0) names two rows; d:1 and d:(1,0,...,0) with k entries hold at any k."""
    s = (0, 1, 1, 0)
    spec = parse_spec("d:(1,0)")
    assert ball_size(s, 2, spec) == del_ball_size(s, 2, spec) == 1
    assert enumerate_ball(s, 2, spec) == enumerate_del_ball(s, 2, spec)
    for k in (1, 3, 4):
        for fn in (ball_size, enumerate_ball, del_ball_size, enumerate_del_ball):
            with pytest.raises(DomainError, match=(
                    rf"^deletion spec d:\(1,0\) has 2 entries, expected k={k}$")):
                fn(s, k, spec)
        for text in ("d:1", "d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")"):
            spec_k = parse_spec(text)
            assert ball_size(s, k, spec_k) == del_ball_size(s, k, spec_k)
            assert enumerate_ball(s, k, spec_k) == enumerate_del_ball(s, k, spec_k)


def test_shortened_rows_is_the_one_deletion_rule():
    for k in (1, 2, 3, 4, 7):
        assert shortened_rows("d:1", k) == tuple(range(k))
        assert shortened_rows("d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")", k) == (0,)
        for text in ("(1" + ",0" * (k - 1) + ")", "t:1"):
            assert shortened_rows(parse_spec(text), k) is None
    assert shortened_rows("not a spec", 2) is None
    with pytest.raises(DomainError, match=r"^deletion spec d:\(1,0\) has 2 entries, expected k=3$"):
        shortened_rows("d:(1,0)", 3)
    with pytest.raises(DomainError, match="^not a deletion spec: 't:1'$"):
        del_ball_size((0, 1), 2, "t:1")


def _rows_by_letter(s, k):
    """Row j of letter sigma is [sigma >= k - j], read letter by letter."""
    return tuple(tuple(int(x >= k - j) for x in s) for j in range(k))


DELETION_GRID = [(1, 8), (2, 6), (3, 5), (4, 4)]  # (k, largest n)


@pytest.mark.parametrize("k, top", DELETION_GRID)
def test_deletion_ball_size_matches_enumeration_at_any_k(k, top):
    first = parse_spec("d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")")
    for n in range(1, top + 1):
        for s in all_sequences(n, k):
            rows = _rows_by_letter(s, k)
            for spec, shortened in ((first, (0,)), (parse_spec("d:1"), range(k))):
                # each deletion position of each row the spec may shorten
                brute = {rows[:j] + (rows[j][:p] + rows[j][p + 1:],) + rows[j + 1:]
                         for j in shortened for p in range(n)}
                ball = enumerate_del_ball(s, k, spec)
                assert ball == brute
                assert del_ball_size(s, k, spec) == ball_size(s, k, spec) == len(ball)
    with pytest.raises(DomainError, match="^deletion balls need n >= 1$"):
        del_ball_size((), k, first)


def test_del_ball_shapes():
    ball = enumerate_del_ball((0, 1, 2), 2, parse_spec("d:(1,0)"))
    assert ball == {((0, 0), (0, 1, 1)), ((0, 1), (0, 1, 1))}
    for r0, r1 in enumerate_del_ball((0, 1, 2), 2, parse_spec("d:1")):
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


def _completions(n, k):
    """y0 -> the rows 1..k-1 of every sequence of length n whose row 0
    loses one bit to y0, by decomposing each sequence."""
    tails: dict = {}
    for s in all_sequences(n, k):
        rows = decompose_sequence(s, k)
        for i in range(n):
            tails.setdefault(rows[0][:i] + rows[0][i + 1:], set()).add(rows[1:])
    return tails


def test_count_v_matches_brute_force():
    for k in (1, 2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            tails = _completions(n, k)
            assert set(tails) == set(product((0, 1), repeat=n - 1))
            for y0, rest in tails.items():
                assert count_v(n, sum(y0), k) == len(rest), (k, n, y0)


def test_count_v_closed_form():
    for n in (3, 6, 10):
        for w in range(n):
            assert count_v(n, w, 2) == 2 ** (n - w) + w * 2 ** (n - w - 1)
            assert count_v(n, w, 1) == 1


def _first_row(k):
    return parse_spec("d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")")


def test_vertex_set_size_matches_brute_force():
    for k, top in ((1, 7), (2, 6), (3, 5), (4, 5)):
        for n in range(1, top + 1):
            vertices = set()
            for s in all_sequences(n, k):
                vertices |= enumerate_del_ball(s, k, _first_row(k))
            assert vertex_set_size(n, k) == len(vertices), (k, n)
    for n in range(2, 9):
        assert vertex_set_size(n, 2) == 2 * 3 ** (n - 1) + (n - 1) * 3 ** (n - 2)
    assert vertex_set_size(1, 2) == 2


def test_total_run_count_identity():
    # Summing rho over all weight-w sequences with at least two runs.
    for n in (4, 7):
        for w in range(1, n):
            lhs = sum(
                rho * count_runs_weight(n, rho, w) for rho in range(2, n + 1)
            )
            assert lhs == comb(n, w) + 2 * (n - 1) * comb(n - 2, w - 1)
