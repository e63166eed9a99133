"""Tests for the single-deletion-correcting constructions."""

from itertools import product

import pytest

from composite_codec.core import DomainError, all_sequences, decompose_sequence
from composite_codec.deletion import (
    _check_binary,
    ascent_syndrome,
    delete_at,
    deletion_outputs,
    marker_pair_decode,
    marker_pair_encode,
    marker_row_decode,
    marker_row_encode,
    message_length,
    ternary_decode,
    ternary_encode,
    ternary_redundancy,
    vt_decode,
    vt_enumerate,
    vt_membership,
    vt_pair_decode,
    vt_pair_enumerate,
    vt_pair_membership,
    vt_row_decode,
    vt_row_enumerate,
    vt_row_membership,
    vt_syndrome,
)
from composite_codec.error_model import (
    enumerate_del_ball,
    parse_spec,
    runs,
    single_deletions,
)
from composite_codec.oracle import exhaustive_decode_check
from composite_codec.substitution import DecodeFailure


def test_delete_at_and_distinct_deletions():
    assert delete_at((0, 1, 1, 0), 1) == (0, 1, 0)
    dels = single_deletions((0, 1, 1, 0))
    assert dels == {(1, 1, 0), (0, 1, 0), (0, 1, 1)}
    for x in product((0, 1), repeat=6):
        assert len(single_deletions(x)) == runs(x)


def test_vt_syndrome_and_membership():
    assert vt_syndrome((0, 1, 1, 0)) == 5
    assert vt_membership((0, 1, 1, 0), 0)
    assert not vt_membership((0, 1, 1, 0), 1)


def test_vt_code_golden_n4():
    assert sorted(vt_enumerate(4, 0)) == [
        (0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1),
    ]


def test_vt_labels_partition_the_space():
    for n in (3, 4, 5, 6):
        seen = set()
        for label in range(n + 1):
            words = set(vt_enumerate(n, label))
            assert not words & seen
            seen |= words
        assert len(seen) == 2 ** n


def test_vt_decode_every_single_deletion():
    for n in (2, 3, 4, 5, 6, 7):
        for label in range(n + 1):
            for x in vt_enumerate(n, label):
                for y in single_deletions(x):
                    assert vt_decode(y, n, label) == x


def test_vt_decode_rejects_wrong_length():
    with pytest.raises(DomainError):
        vt_decode((0, 1), 4, 0)


def test_ascent_syndrome():
    assert ascent_syndrome((0, 1, 1, 0)) == 3
    assert ascent_syndrome((2, 1, 0)) == 0
    assert ascent_syndrome((0, 0, 0)) == 0  # 1 + 2 mod 3


def test_ternary_encode_structure():
    s = (0, 1, 2, 0)
    word = ternary_encode(s)
    assert word == (0, 1, 2, 0, 1, 1, 1, 0, 0)
    assert word[:4] == s
    marker, digits = ternary_redundancy(s)
    assert marker == (s[-1] + 1) % 3
    assert word[4:6] == (marker, marker)
    assert word[6:] == digits


def test_ternary_decode_clean_and_deleted():
    for m in (2, 3, 4, 5):
        for s in product((0, 1, 2), repeat=m):
            word = ternary_encode(s)
            for i in range(len(word)):
                assert ternary_decode(delete_at(word, i), m) == s


def test_ternary_decode_rejects_wrong_length():
    with pytest.raises(DomainError):
        ternary_decode((0, 1, 2), 2)


def test_vt_row_code_corrects_first_row_deletion():
    for n in (3, 4, 5):
        for label in range(n + 1):
            words = list(vt_row_enumerate(n, label))
            for s in words:
                assert vt_row_membership(s, label)
            report = exhaustive_decode_check(
                words,
                lambda c: [rows for _, _, rows in deletion_outputs(c, 2, (0,))],
                lambda rows, _lab=label: vt_row_decode(rows, _lab),
            )
            assert report.ok, report.failures[:3]


def test_vt_pair_code_corrects_either_row_deletion():
    # One long checksum over both rows: labels run over 0..2n.
    for n in (3, 4, 5):
        for label in range(2 * n + 1):
            words = list(vt_pair_enumerate(n, label))
            for s in words:
                assert vt_pair_membership(s, label)
            report = exhaustive_decode_check(
                words,
                lambda c: [rows for _, _, rows in deletion_outputs(c, 2, (0, 1))],
                lambda rows, _lab=label: vt_pair_decode(rows, _lab),
            )
            assert report.ok, report.failures[:3]


@pytest.mark.parametrize("decode, rows, label, text", [
    (vt_row_decode, ((0, 1), (0, 1, 1)), 4, "label 4 out of range for n=3"),
    (vt_row_decode, ((0, 1), (0, 1, 1)), -1, "label -1 out of range for n=3"),
    (vt_row_decode, ((0, 2), (0, 1, 1)), 0, "not a binary word: (0, 2)"),
    (vt_pair_decode, ((0, 1, 1), (0, 1)), 7, "label 7 out of range for n=6"),
    (vt_pair_decode, ((0, 1), (1.5, 1, 1)), 0, "not a binary word: (1.5, 1, 1)"),
])
def test_row_decoders_reject_bad_labels_and_rows(decode, rows, label, text):
    with pytest.raises(DomainError) as exc:
        decode(rows, label)
    assert str(exc.value) == text


def test_vt_row_labels_partition():
    for n in (3, 4):
        total = sum(len(list(vt_row_enumerate(n, lab))) for lab in range(n + 1))
        assert total == 3 ** n


def test_marker_row_encode_structure():
    assert marker_row_encode((0, 1, 2)) == (0, 1, 2, 0, 0, 0, 1)
    from composite_codec.bounds import ceil_log

    for m in (2, 3, 4, 5):
        msg = tuple(x % 3 for x in range(m))
        word = marker_row_encode(msg)
        assert word[:m] == msg
        assert len(word) == m + ceil_log(3, m) + 3
        assert message_length(len(word), 3) == m


def test_message_length_matches_a_scan_of_every_length():
    from composite_codec.core import ceil_log

    def scan(n, overhead, span):
        for m in range(1, n):
            if m + ceil_log(3, span * m) + overhead == n:
                return m
        return None

    for overhead, span in ((2, 1), (3, 1), (5, 2)):
        for n in range(-1, 1000):
            try:
                got = message_length(n, overhead, span)
            except DomainError as exc:
                assert str(exc) == f"no message length yields codewords of length {n}"
                got = None
            assert got == scan(n, overhead, span), (n, overhead, span)


def test_marker_row_decodes_every_first_row_deletion():
    for m in (2, 3, 4):
        for msg in product((0, 1, 2), repeat=m):
            word = marker_row_encode(msg)
            for _, _, rows in deletion_outputs(word, 2, (0,)):
                assert marker_row_decode(rows) == msg


def test_marker_pair_encode_structure():
    from composite_codec.bounds import ceil_log

    assert marker_pair_encode((0, 1)) == (0, 1, 1, 1, 0, 2, 0, 2, 1)
    for m in (2, 3, 4):
        msg = (2,) * m
        word = marker_pair_encode(msg)
        assert word[:m] == msg
        assert len(word) == m + ceil_log(3, 2 * m) + 5
        assert message_length(len(word), 5, span=2) == m


def test_marker_pair_decodes_every_deletion_in_either_row():
    for m in (2, 3):
        for msg in product((0, 1, 2), repeat=m):
            word = marker_pair_encode(msg)
            for _, _, rows in deletion_outputs(word, 2, (0, 1)):
                assert marker_pair_decode(rows) == msg


def test_deletion_outputs_match_deletion_ball():
    for n in (3, 4, 5):
        for s in all_sequences(n, 2):
            got10 = {rows for _, _, rows in deletion_outputs(s, 2, (0,))}
            assert got10 == enumerate_del_ball(s, 2, parse_spec("d:(1,0)"))
            got1 = {rows for _, _, rows in deletion_outputs(s, 2, (0, 1))}
            assert got1 == enumerate_del_ball(s, 2, parse_spec("d:1"))


def test_deletion_outputs_annotations():
    for channel, pos, rows in deletion_outputs((0, 1, 2), 2, (0, 1)):
        assert channel in (0, 1)
        clean = decompose_sequence((0, 1, 2), 2)
        assert rows[channel] == delete_at(clean[channel], pos)
        assert rows[1 - channel] == clean[1 - channel]


def test_marker_decoders_fail_loudly_on_garbage():
    word = marker_row_encode((0, 1, 2))
    rows = decompose_sequence(word, 2)
    with pytest.raises((DecodeFailure, DomainError)):
        # both rows shortened: outside the single-deletion model
        marker_row_decode((rows[0][:-1], rows[1][:-1]))


def _row_filter(n, label):
    """Codewords of c3 by filtering the composite space on row 0."""
    return [s for s in all_sequences(n, 2)
            if vt_membership(decompose_sequence(s, 2)[0], label)]


def test_vt_row_enumerate_matches_the_space_filter():
    for n in range(9):
        for label in range(n + 1):
            assert list(vt_row_enumerate(n, label)) == _row_filter(n, label), (n, label)


def test_vt_row_enumerate_rejects_what_the_filter_rejected():
    for n, label in ((3, 4), (3, -1), (0, 1)):
        with pytest.raises(DomainError) as fast:
            list(vt_row_enumerate(n, label))
        with pytest.raises(DomainError) as slow:
            _row_filter(n, label)
        assert str(fast.value) == str(slow.value) == f"label {label} out of range for n={n}"
    with pytest.raises(DomainError, match="length must be >= 0, got -1"):
        list(vt_row_enumerate(-1, 0))


@pytest.mark.parametrize("n, label", [(5, 99), (4, 5), (3, -1)])
def test_vt_enumerate_rejects_a_label_out_of_range(n, label):
    # as vt_membership does, and on the call, not on the first word
    with pytest.raises(DomainError, match=f"^label {label} out of range for n={n}$"):
        vt_enumerate(n, label)
    with pytest.raises(DomainError, match=f"^label {label} out of range for n={n}$"):
        vt_membership((0,) * n, label)


def _entries_checked(check, symbols, word):
    """The outcome of check, or of the plain loop the set test stands in
    for, as ("ok",) or ("raised", text)."""
    try:
        if check is None:
            if any(v not in symbols for v in word):
                raise DomainError(f"not a binary word: {word!r}")
        else:
            check(word)
    except DomainError as exc:
        return ("raised", str(exc))
    return ("ok",)


@pytest.mark.parametrize("check, symbols", [(_check_binary, (0, 1))])
def test_symbol_checks_match_the_plain_loop(check, symbols):
    words = [(), (0,), (1, 0, 1), (2, 1, 0), (0, 3), (1.0, 0), (True, False),
             (0, 2.0), ("0", 1), (None,), (-1,), (0, [1]), [0, 1], (0, {}),
             (1, 0.5), (float("nan"),)]
    words += list(product(range(-1, 4), repeat=2))
    for word in words:
        assert _entries_checked(check, symbols, word) == \
            _entries_checked(None, symbols, word), word


def test_k2_words_name_their_bad_letter():
    # one letter rule, core's, for ternary words and composite k = 2 words
    for call in (lambda w: ternary_decode(w, 1), ternary_encode, marker_row_encode,
                 marker_pair_encode, lambda w: vt_row_membership(w, 0),
                 lambda w: vt_pair_membership(w, 0)):
        with pytest.raises(DomainError, match="^letter 3 outside Sigma_3$"):
            call((0, 3, 1, 2))
        with pytest.raises(DomainError, match="^sequence contains '\\?'$"):
            call((0, "?", 1, 2))


def test_row_decoders_name_the_row_count():
    # the checksum decoders read k from the row count; the marker codes are k = 2
    for decode in (vt_row_decode, vt_pair_decode):
        with pytest.raises(DomainError, match="^resolution k must be >= 1, got 0$"):
            decode((), 0)
    for decode in (marker_row_decode, marker_pair_decode):
        with pytest.raises(DomainError, match="^expected 2 rows, got 3$"):
            decode(((0, 1), (0, 1), (1, 1)))


def _rows_by_letter(s, k):
    """Row j of letter sigma is [sigma >= k - j], read letter by letter."""
    return tuple(tuple(int(x >= k - j) for x in s) for j in range(k))


def _first_row(k):
    return "d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")"


@pytest.mark.parametrize("k, top", [(1, 7), (2, 5), (3, 4), (4, 3)])
def test_deletion_outputs_match_deletion_ball_at_any_k(k, top):
    for n in range(1, top + 1):
        for s in all_sequences(n, k):
            rows = _rows_by_letter(s, k)
            for text, shortened in ((_first_row(k), (0,)), ("d:1", tuple(range(k)))):
                outputs = list(deletion_outputs(s, k, shortened))
                assert [(j, p) for j, p, _ in outputs] == [
                    (j, p) for j in shortened for p in range(n)]
                for j, p, got in outputs:
                    assert got == rows[:j] + (rows[j][:p] + rows[j][p + 1:],) + rows[j + 1:]
                assert {got for _, _, got in outputs} == enumerate_del_ball(
                    s, k, parse_spec(text))


def _row_code_filter(n, label, k):
    """c3 by filtering the space: row 0 in the checksum code of length n."""
    return [s for s in all_sequences(n, k)
            if vt_syndrome(_rows_by_letter(s, k)[0]) % (n + 1) == label]


def _joined_code_filter(n, label, k):
    """c5 by filtering the space: the k joined rows in the checksum code of
    length kn, modulo kn + 1."""
    return [s for s in all_sequences(n, k)
            if vt_syndrome(sum(_rows_by_letter(s, k), ())) % (k * n + 1) == label]


@pytest.mark.parametrize("k, top", [(1, 7), (3, 5), (4, 4)])
def test_c3_and_c5_decode_every_deletion_at_any_k(k, top):
    for n in range(1, top + 1):
        for label in range(n + 1):
            words = list(vt_row_enumerate(n, label, k))
            assert words == _row_code_filter(n, label, k)
            assert all(vt_row_membership(s, label, k) for s in words)
            report = exhaustive_decode_check(
                words, lambda c: [r for _, _, r in deletion_outputs(c, k, (0,))],
                lambda rows, _lab=label: vt_row_decode(rows, _lab))
            assert report.ok, (n, label, report.failures[:3])
        for label in range(k * n + 1):
            words = list(vt_pair_enumerate(n, label, k))
            assert words == _joined_code_filter(n, label, k)
            assert all(vt_pair_membership(s, label, k) for s in words)
            report = exhaustive_decode_check(
                words, lambda c: [r for _, _, r in deletion_outputs(c, k, range(k))],
                lambda rows, _lab=label: vt_pair_decode(rows, _lab))
            assert report.ok, (n, label, report.failures[:3])


@pytest.mark.parametrize("k, n", [(1, 4), (3, 3), (4, 3)])
def test_c3_and_c5_labels_partition_the_space(k, n):
    # so some label holds (k+1)^n / (n+1), resp. (k+1)^n / (kn+1), words
    assert sum(len(list(vt_row_enumerate(n, lab, k))) for lab in range(n + 1)) == (k + 1) ** n
    assert sum(len(list(vt_pair_enumerate(n, lab, k)))
               for lab in range(k * n + 1)) == (k + 1) ** n


@pytest.mark.parametrize("decode, rows, label, text", [
    (vt_row_decode, ((0, 1), (0, 1), (0, 1)), 0, "row 0 must be one bit short of row 1 (2 vs 2)"),
    (vt_row_decode, ((0, 1), (0, 1, 1), (0, 1)), 0, "exactly one row must be one bit short"),
    (vt_row_decode, ((0,), (0, 1), (0, 1, 1)), 0, "exactly one row must be one bit short"),
    (vt_pair_decode, ((0, 1), (0, 1), (0, 1)), 0, "exactly one row must be one bit short"),
    (vt_pair_decode, ((0,), (0, 1), (0, 1, 1)), 0, "exactly one row must be one bit short"),
    (vt_pair_decode, ((0, 1), (0,), (0,)), 0, "exactly one row must be one bit short"),
    (vt_pair_decode, ((0, 1), (0, 1, 1), (0, 2, 1)), 0, "not a binary word: (0, 2, 1)"),
    (vt_row_decode, ((0, 1), (0, 1, 1), (0, 1, 1)), 9, "label 9 out of range for n=3"),
    (vt_pair_decode, ((0, 1), (0, 1, 1), (0, 1, 1)), 10, "label 10 out of range for n=9"),
])
def test_row_decoders_name_the_short_row_at_any_k(decode, rows, label, text):
    with pytest.raises(DomainError) as exc:
        decode(rows, label)
    assert str(exc.value) == text


def test_row_decoders_at_one_row_read_the_lone_row_as_short():
    # at k = 1 both codes are the checksum code of the lone row
    for x in vt_enumerate(5, 2):
        for y in single_deletions(x):
            assert vt_row_decode((y,), 2) == vt_pair_decode((y,), 2) == x
