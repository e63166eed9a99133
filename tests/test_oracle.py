"""Tests for the exact search oracle and the exhaustive checkers."""

import hashlib
import sys
from fractions import Fraction

import pytest

from composite_codec.core import all_sequences, format_sequence
from composite_codec.error_model import (
    enumerate_del_ball,
    enumerate_sub_ball,
    parse_spec,
)
from composite_codec.oracle import (
    check_fractional_transversal,
    conflict_graph,
    exhaustive_decode_check,
    optimal_binary_single_error,
    optimal_code_size,
)


def test_optimal_binary_single_error_known_values():
    # Largest binary single-error-correcting codes up to length 7.
    expected = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 8, 7: 16}
    for length, size in expected.items():
        result = optimal_binary_single_error(length)
        assert result.size == size
        assert len(result.witness) == size


def test_optimal_binary_witness_is_valid_code():
    result = optimal_binary_single_error(5)
    words = result.witness
    assert len(set(words)) == result.size
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert sum(x != y for x, y in zip(a, b)) >= 3


def test_optimal_binary_witness_is_lex_smallest():
    assert optimal_binary_single_error(3).witness == ((0, 0, 0), (1, 1, 1))
    assert optimal_binary_single_error(4).witness[0] == (0, 0, 0, 0)


def test_optimal_code_size_substitution_goldens():
    assert optimal_code_size(2, 2, parse_spec("(1,0)")).size == 4
    assert optimal_code_size(3, 2, parse_spec("(1,0)")).size == 9
    assert optimal_code_size(4, 2, parse_spec("(1,1)")).size == 5
    assert optimal_code_size(4, 2, parse_spec("t:1")).size == 11
    assert optimal_code_size(4, 2, parse_spec("t:2")).size == 3
    assert optimal_code_size(3, 3, parse_spec("t:1")).size == 11


def test_optimal_code_size_deletion_goldens():
    assert optimal_code_size(4, 2, parse_spec("d:(1,0)")).size == 31
    assert optimal_code_size(4, 2, parse_spec("d:1")).size == 25


def test_optimal_witness_balls_are_disjoint():
    spec = parse_spec("t:1")
    result = optimal_code_size(4, 2, spec)
    balls = [enumerate_sub_ball(c, 2, spec) for c in result.witness]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert not balls[i] & balls[j]


def test_optimal_deletion_witness_balls_are_disjoint():
    spec = parse_spec("d:1")
    result = optimal_code_size(3, 2, spec)
    balls = [enumerate_del_ball(c, spec) for c in result.witness]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert not balls[i] & balls[j]


def test_optimal_witness_is_maximal():
    # No sequence outside the witness can be added without a ball collision.
    spec = parse_spec("(1,0)")
    result = optimal_code_size(3, 2, spec)
    code = set(result.witness)
    covered = set()
    for c in code:
        covered |= enumerate_sub_ball(c, 2, spec)
    for s in all_sequences(3, 2):
        if s not in code:
            assert enumerate_sub_ball(s, 2, spec) & covered


def _flips(word):
    yield word
    for i in range(len(word)):
        yield word[:i] + (1 - word[i],) + word[i:][1:]


def test_exhaustive_decode_check_passing():
    codewords = [(0, 0, 0), (1, 1, 1)]

    def decode(y):
        return (0, 0, 0) if sum(y) <= 1 else (1, 1, 1)

    report = exhaustive_decode_check(codewords, _flips, decode)
    assert report.ok
    assert report.cases == 8
    assert report.failures == ()


def test_exhaustive_decode_check_failing():
    codewords = [(0, 0, 0), (1, 1, 1)]

    def bad_decode(y):
        return (0, 0, 0)

    report = exhaustive_decode_check(codewords, _flips, bad_decode)
    assert not report.ok
    assert report.cases == 8
    assert len(report.failures) == 4
    codeword, received, decoded = report.failures[0]
    assert codeword == (1, 1, 1)
    assert decoded == (0, 0, 0)


def test_exhaustive_decode_check_counts_decoder_exceptions_as_failures():
    def decode(y):
        raise RuntimeError("decoder blew up")

    report = exhaustive_decode_check([(0, 0)], lambda c: [c], decode)
    assert not report.ok
    assert len(report.failures) == 1
    assert "RuntimeError" in report.failures[0][2]


def test_check_fractional_transversal_feasible():
    balls = {1: {"a", "b"}, 2: {"b", "c"}}
    report = check_fractional_transversal(
        [1, 2], balls.__getitem__, lambda out: Fraction(1, 2))
    assert report.feasible
    assert report.min_cover == Fraction(1)
    assert report.total_weight == Fraction(3, 2)


def test_check_fractional_transversal_infeasible():
    balls = {1: {"a"}, 2: {"a", "b", "c"}}
    report = check_fractional_transversal(
        [1, 2], balls.__getitem__, lambda out: Fraction(1, 3))
    assert not report.feasible
    assert report.min_cover == Fraction(1, 3)


def test_size_caps_guard_exponential_searches():
    from composite_codec.error_model import SizeLimitError

    with pytest.raises(SizeLimitError):
        optimal_code_size(12, 2, parse_spec("(1,0)"))
    with pytest.raises(SizeLimitError):
        optimal_binary_single_error(-1)
    with pytest.raises(SizeLimitError):
        optimal_binary_single_error(9)


def _pairwise_adjacency(balls):
    balls = [frozenset(b) for b in balls]
    adj = [0] * len(balls)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if balls[i] & balls[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("n, k, text", [
    (3, 2, "(1,0)"), (4, 2, "(1,1)"), (4, 2, "t:2"), (3, 3, "(1,1,0)"),
    (3, 3, "t:1"), (4, 2, "d:(1,0)"), (4, 2, "d:1"), (2, 4, "t:2"),
])
def test_conflict_graph_equals_pairwise_intersections(n, k, text):
    spec = parse_spec(text)
    if text.startswith("d:"):
        balls = [enumerate_del_ball(s, spec) for s in all_sequences(n, k)]
    else:
        balls = [enumerate_sub_ball(s, k, spec) for s in all_sequences(n, k)]
    assert conflict_graph(balls) == _pairwise_adjacency(balls)


def test_conflict_graph_of_repeated_and_disjoint_balls():
    assert conflict_graph([]) == []
    assert conflict_graph([{1, 2}, {3}, {2, 4}, {3}]) == [0b100, 0b1000, 0b1, 0b10]


# (n, k, spec, size, sha256 prefix of the newline-joined witness): the
# search grid of the exact-verify benchmark workload
WITNESS_GOLDENS = (
    (4, 2, "(1,0)", 21, "678a4e062f3b0dd4"),
    (4, 2, "(0,1)", 21, "d2c045aaf1ee97b0"),
    (4, 2, "(1,1)", 5, "5660aa63ba015f3e"),
    (4, 2, "(2,0)", 16, "c9e33bc2186d0ffa"),
    (4, 2, "(0,2)", 16, "134d2874131de6fc"),
    (4, 2, "(2,1)", 2, "32bf1280c8fae1a3"),
    (4, 2, "(1,2)", 2, "2dfb7f9ec9028740"),
    (4, 2, "(2,2)", 1, "9af15b336e6a9619"),
    (4, 2, "t:1", 11, "797466df6892cec8"),
    (4, 2, "t:2", 3, "92d8779445865186"),
    (4, 2, "t:3", 2, "c3e9a93338a7d2dd"),
    (4, 2, "d:(1,0)", 31, "7db5ced8635014bf"),
    (4, 2, "d:1", 25, "0fe441ec76a62b13"),
    (5, 2, "(1,1)", 8, "5c2c0f27122e4911"),
    (5, 2, "t:2", 7, "3cc2c368df7887c6"),
    (4, 3, "(1,0,0)", 90, "ee5bb049d4c9471c"),
    (4, 3, "(1,1,0)", 28, "e7dd447c081329f0"),
    (4, 3, "t:2", 10, "8fa12ef125104493"),
    (3, 4, "t:1", 20, "17024b0fbda2a0f8"),
)


@pytest.mark.parametrize("n, k, text, size, digest", WITNESS_GOLDENS)
def test_lex_smallest_witnesses_are_stable(n, k, text, size, digest):
    result = optimal_code_size(n, k, parse_spec(text))
    joined = "\n".join(format_sequence(w, k) for w in result.witness)
    assert result.size == size
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == digest


def test_search_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    optimal_code_size(6, 2, parse_spec("(0,0)"))
    assert sys.getrecursionlimit() == before
