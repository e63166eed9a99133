"""Tests for composite alphabets, decomposition and reconstruction."""

from itertools import product

import pytest

from composite_codec.core import (
    UNKNOWN,
    CompositeLetter,
    CompositeParams,
    DomainError,
    all_sequences,
    decompose_letter,
    decompose_sequence,
    format_binary,
    format_sequence,
    parse_binary,
    parse_sequence,
    reconstruct_column,
    reconstruct_rows,
    transform_reverse,
    transform_shift,
)


def test_alphabet_size_counts_multisets():
    assert CompositeParams(q=2, k=1).alphabet_size == 2
    assert CompositeParams(q=2, k=4).alphabet_size == 5
    assert CompositeParams(q=3, k=2).alphabet_size == 6
    assert CompositeParams(q=4, k=2).alphabet_size == 10


def test_params_validation():
    with pytest.raises(DomainError):
        CompositeParams(q=1, k=2)
    with pytest.raises(DomainError):
        CompositeParams(q=2, k=0)


def test_letter_level_roundtrip():
    for k in range(1, 6):
        for sigma in range(k + 1):
            letter = CompositeLetter.from_level(k, sigma)
            assert letter.resolution == k
            assert letter.level == sigma
    with pytest.raises(DomainError):
        CompositeLetter.from_level(2, 3)
    with pytest.raises(DomainError):
        CompositeLetter((-1, 2))


def test_decompose_letter_ternary_base():
    # q = 3, k = 2: the six composite letters and their sorted columns.
    params = CompositeParams(q=3, k=2)
    columns = {
        (2, 0, 0): (0, 0),
        (0, 2, 0): (1, 1),
        (0, 0, 2): (2, 2),
        (1, 1, 0): (0, 1),
        (1, 0, 1): (0, 2),
        (0, 1, 1): (1, 2),
    }
    for counts, col in columns.items():
        assert decompose_letter(params, CompositeLetter(counts)) == col
        assert reconstruct_column(params, col) == CompositeLetter(counts)


def test_decompose_letter_validation():
    params = CompositeParams(q=3, k=2)
    with pytest.raises(DomainError):
        decompose_letter(params, CompositeLetter((1, 1)))
    with pytest.raises(DomainError):
        decompose_letter(params, CompositeLetter((1, 1, 1)))


def test_reconstruct_column_unsorted_gives_unknown():
    params = CompositeParams(q=3, k=2)
    assert reconstruct_column(params, (1, 0)) == UNKNOWN
    assert reconstruct_column(params, (2, 1)) == UNKNOWN
    with pytest.raises(DomainError):
        reconstruct_column(params, (0, 3))
    with pytest.raises(DomainError):
        reconstruct_column(params, (0, 0, 0))


def test_decompose_sequence_k4_worked_example():
    s = parse_sequence("012340", 4)
    rows = decompose_sequence(s, 4)
    assert [format_binary(r) for r in rows] == [
        "000010",
        "000110",
        "001110",
        "011110",
    ]
    assert reconstruct_rows(rows) == s


def test_reconstruct_rows_faulty_column_k4():
    # One bit error in row 2 makes exactly one column invalid.
    rows = (
        parse_binary("000010"),
        parse_binary("000110"),
        parse_binary("011110"),
        parse_binary("010110"),
    )
    assert format_sequence(reconstruct_rows(rows), 4) == "02?340"


def test_reconstruct_rows_single_column():
    assert reconstruct_rows(((1,), (0,))) == (UNKNOWN,)
    assert reconstruct_rows(((0,), (1,))) == (1,)
    assert reconstruct_rows(((1,), (1,))) == (2,)


def test_decompose_reconstruct_roundtrip_exhaustive():
    for k in (1, 2, 3):
        for n in (0, 1, 3):
            for s in all_sequences(n, k):
                assert reconstruct_rows(decompose_sequence(s, k)) == s


def test_reconstruct_rows_rejects_ragged_input():
    with pytest.raises(DomainError):
        reconstruct_rows(((0, 1), (0,)))
    with pytest.raises(DomainError):
        reconstruct_rows(())
    with pytest.raises(DomainError):
        reconstruct_rows(((0, 2), (0, 1)))


def test_decompose_sequence_rejects_bad_letters():
    with pytest.raises(DomainError):
        decompose_sequence((0, 3), 2)
    with pytest.raises(DomainError):
        decompose_sequence((0, UNKNOWN), 2)


def test_transform_reverse_is_involution():
    for s in all_sequences(3, 3):
        assert transform_reverse(transform_reverse(s, 3), 3) == s
    assert transform_reverse((0, 1, 2), 2) == (2, 1, 0)


def test_transform_shift_cycles():
    assert transform_shift((0, 1, 2), 2, 1) == (1, 2, 0)
    assert transform_shift((0, 1, 2), 2, -1) == (2, 0, 1)
    for s in all_sequences(3, 2):
        assert transform_shift(transform_shift(s, 2, 2), 2, -2) == s


def test_parse_format_sequence_roundtrip():
    assert parse_sequence("012340", 4) == (0, 1, 2, 3, 4, 0)
    assert format_sequence((0, 1, 2, 3, 4, 0), 4) == "012340"
    assert parse_sequence("0,11,3", 11) == (0, 11, 3)
    assert format_sequence((0, 11, 3), 11) == "0,11,3"
    assert parse_sequence("0?2", 2) == (0, UNKNOWN, 2)
    assert format_sequence((0, UNKNOWN, 2), 2) == "0?2"
    assert parse_sequence("", 2) == ()


def test_parse_sequence_rejects_bad_text():
    with pytest.raises(DomainError):
        parse_sequence("013", 2)
    with pytest.raises(DomainError):
        parse_sequence("0a1", 2)


def test_parse_binary():
    assert parse_binary("0110") == (0, 1, 1, 0)
    with pytest.raises(DomainError):
        parse_binary("012")


def test_all_sequences_lexicographic():
    seqs = list(all_sequences(2, 2))
    assert len(seqs) == 9
    assert seqs == sorted(seqs)
    assert seqs[0] == (0, 0)
    assert seqs[-1] == (2, 2)
    assert list(all_sequences(0, 3)) == [()]


def test_decompose_rows_are_monotone_in_letter():
    # Column of sigma has exactly sigma ones, stacked at the bottom rows.
    for k in (2, 4):
        for sigma in range(k + 1):
            rows = decompose_sequence((sigma,), k)
            col = [rows[j][0] for j in range(k)]
            assert sum(col) == sigma
            assert col == sorted(col)


def _reconstruct_reference(rows):
    """Column-by-column reconstruction straight from the definition."""
    rows = [tuple(r) for r in rows]
    if not rows:
        raise DomainError("no rows given")
    if len({len(r) for r in rows}) != 1:
        raise DomainError(
            f"unequal row lengths {sorted(set(len(r) for r in rows))}; "
            "reconstruction requires equal-length rows")
    out = []
    for i in range(len(rows[0])):
        col = [r[i] for r in rows]
        if any(b not in (0, 1) for b in col):
            raise DomainError(f"non-binary entry in column {i}: {col}")
        sorted_col = all(col[j] <= col[j + 1] for j in range(len(col) - 1))
        out.append(sum(col) if sorted_col else UNKNOWN)
    return tuple(out)


def _outcome(fn, rows):
    try:
        return fn(rows)
    except DomainError as exc:
        return ("raised", str(exc))


def test_reconstruct_rows_matches_per_column_reference():
    # every binary row tuple for k <= 3, n <= 3: valid and '?' columns alike
    for k in (1, 2, 3):
        for n in (0, 1, 2, 3):
            for bits in product((0, 1), repeat=k * n):
                rows = [bits[j * n:(j + 1) * n] for j in range(k)]
                assert reconstruct_rows(rows) == _reconstruct_reference(rows)
    # non-binary entries (also ones whose column sum looks canonical) and
    # unequal lengths raise the same errors
    for rows in (((0, 2), (0, 1)), ((2,),), ((0, 1), (1, 0), (2, 0)),
                 ((-1, 0), (1, 1)), (("1",), ("1",)), ((1, 0), (0, 7)),
                 ((0, 1), (0,)), ((0,), (0, 1), (1,)), ()):
        got = _outcome(reconstruct_rows, rows)
        assert got[0] == "raised"
        assert got == _outcome(_reconstruct_reference, rows)


def test_decompose_sequence_rejects_resolution_below_one():
    with pytest.raises(DomainError):
        decompose_sequence((0, 0, 0), 0)
    with pytest.raises(DomainError):
        decompose_sequence((), -1)
