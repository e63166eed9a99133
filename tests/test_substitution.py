"""Tests for the substitution-correcting code constructions."""

import functools
import itertools
import random

import pytest

from composite_codec.core import (
    DomainError,
    all_sequences,
    decompose_sequence,
)
from composite_codec.error_model import enumerate_received_rows, parse_spec
from composite_codec.oracle import exhaustive_decode_check, optimal_code_size
from composite_codec.substitution import (
    DecodeFailure,
    ExplicitCode,
    HammingCosetCode,
    TrivialCode,
    _one_flip_letters,
    checksum,
    checksum_decode,
    checksum_enumerate,
    checksum_membership,
    fiber_code_size,
    fiber_decode,
    fiber_enumerate,
    fiber_map,
    fiber_membership,
    fiber_value,
    hamming_fiber_inners,
    optimal_fiber_inners,
    product_decode,
    product_enumerate,
    product_membership,
)


def test_hamming_coset_code_basics():
    code = HammingCosetCode(7)
    assert code.size == 16
    assert code.corrects == 1
    assert code.member((0,) * 7)
    words = list(code.codewords())
    assert len(words) == 16
    for w in words:
        assert code.decode(w) == w
        for i in range(7):
            flipped = w[:i] + (1 - w[i],) + w[i + 1:]
            assert code.decode(flipped) == w


def test_hamming_cosets_partition_the_space():
    seen = set()
    for coset in range(8):
        words = set(HammingCosetCode(7, coset=coset).codewords())
        assert len(words) == 16
        assert not words & seen
        seen |= words
    assert len(seen) == 128


def test_hamming_coset_code_shortened_lengths():
    # Shortened codes exist at every length: 2^(n - ceil(log2(n+1))) words.
    assert HammingCosetCode(3).size == 2
    assert HammingCosetCode(5).size == 4
    assert HammingCosetCode(15).size == 2048
    code = HammingCosetCode(5, coset=3)
    for w in code.codewords():
        for i in range(5):
            flipped = w[:i] + (1 - w[i],) + w[i + 1:]
            assert code.decode(flipped) == w
    with pytest.raises(DomainError):
        HammingCosetCode(5, coset=8)


def test_trivial_and_explicit_codes():
    triv = TrivialCode(3)
    assert triv.size == 8
    assert triv.corrects == 0
    assert triv.decode((0, 1, 1)) == (0, 1, 1)
    exp = ExplicitCode(3, [(0, 0, 0), (1, 1, 1)])
    assert exp.size == 2
    assert exp.member((1, 1, 1))
    assert not exp.member((0, 1, 1))
    assert exp.decode((0, 0, 1)) == (0, 0, 0)


def test_product_enumerate_hamming_rows():
    h = HammingCosetCode(7)
    words = list(product_enumerate(7, 2, (h, h)))
    # pairs of Hamming codewords with the top row dominated by the bottom row
    assert len(words) == 45
    assert len(set(words)) == 45
    for s in words:
        assert product_membership(s, 2, (h, h))
        rows = decompose_sequence(s, 2)
        assert h.member(rows[0]) and h.member(rows[1])


def test_product_membership_rejects_non_members():
    h = HammingCosetCode(7)
    assert not product_membership((1,) + (0,) * 6, 2, (h, h))


def test_product_decode_corrects_per_row_errors():
    h = HammingCosetCode(7)
    words = list(product_enumerate(7, 2, (h, h)))
    s = words[7]
    rows = [list(r) for r in decompose_sequence(s, 2)]
    rows[0][2] ^= 1
    rows[1][5] ^= 1
    received = tuple(tuple(r) for r in rows)
    assert product_decode(received, 2, (h, h)) == s


def test_product_with_trivial_rows_is_whole_space():
    triv = TrivialCode(3)
    words = set(product_enumerate(3, 2, (triv, triv)))
    assert words == set(all_sequences(3, 2))


@functools.lru_cache(maxsize=None)
def _decomposed_space(n, k):
    return [(s, decompose_sequence(s, k)) for s in all_sequences(n, k)]


def _filtered_product(n, k, row_codes):
    """Codewords by filtering the composite space on row membership."""
    members = [{w for w in all_sequences(n, 1) if code.member(w)}
               for code in row_codes]
    return [s for s, rows in _decomposed_space(n, k)
            if all(row in words for words, row in zip(members, rows))]


@pytest.mark.parametrize("k, max_n", [(2, 6), (3, 6), (4, 5)])
def test_product_enumerate_matches_the_space_filter(k, max_n):
    # every budget vector of 0s and 1s, with every coset label on the
    # protected rows, as construction c1 builds its row codes
    for n in range(max_n + 1):
        labels = range(2 ** HammingCosetCode(n).bits)
        for budgets in itertools.product((0, 1), repeat=k):
            for label in labels if any(budgets) else (0,):
                codes = tuple(HammingCosetCode(n, label) if b else TrivialCode(n)
                              for b in budgets)
                assert list(product_enumerate(n, k, codes)) == \
                    _filtered_product(n, k, codes), (n, budgets, label)


def test_product_enumerate_takes_any_row_codes():
    # distinct cosets and explicit codebooks per row
    rng = random.Random(3)
    for k, n in ((2, 5), (3, 4), (4, 3)):
        for _ in range(6):
            codes = []
            for _ in range(k):
                words = rng.sample(list(all_sequences(n, 1)), rng.randint(1, 2 ** n))
                codes.append(rng.choice((
                    ExplicitCode(n, words),
                    HammingCosetCode(n, rng.randrange(2 ** HammingCosetCode(n).bits)),
                    TrivialCode(n))))
            assert list(product_enumerate(n, k, codes)) == \
                _filtered_product(n, k, codes), (n, k)


def test_product_enumerate_rejects_a_negative_length():
    with pytest.raises(DomainError, match="length must be >= 0, got -1"):
        list(product_enumerate(-1, 2, ()))


def test_fiber_value_and_map_golden():
    s = (1, 3, 2, 4, 4, 0, 3)
    assert fiber_value(s, 4) == 4
    assert fiber_map(s, 4) == (0, 1, 1, 0)


def test_fiber_map_k2():
    # For k = 2 the marked positions hold letters 1 or 2; bit is 1 on a 2.
    assert fiber_value((0, 1, 2, 1), 2) == 3
    assert fiber_map((0, 1, 2, 1), 2) == (0, 1, 0)
    assert fiber_map((0, 0), 2) == ()


def test_fiber_code_size_matches_enumeration():
    for n in (2, 3, 4):
        inners = optimal_fiber_inners(n)
        words = list(fiber_enumerate(n, 2, inners))
        sizes = {v: c.size for v, c in inners.items()}
        assert len(words) == fiber_code_size(n, 2, sizes)
        for s in words:
            assert fiber_membership(s, 2, inners)


def test_fiber_code_with_optimal_inners_attains_oracle():
    for n in (2, 3):
        inners = optimal_fiber_inners(n)
        sizes = {v: c.size for v, c in inners.items()}
        assert fiber_code_size(n, 2, sizes) == optimal_code_size(
            n, 2, parse_spec("(1,0)")).size


def test_hamming_fiber_inners_sizes():
    sizes = {v: c.size for v, c in hamming_fiber_inners(7).items()}
    assert sizes == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 8, 7: 16}


def test_fiber_decode_corrects_first_channel_error():
    spec = parse_spec("(1,0)")
    for n in (3, 4):
        inners = optimal_fiber_inners(n)
        words = list(fiber_enumerate(n, 2, inners))
        report = exhaustive_decode_check(
            words,
            lambda c: enumerate_received_rows(c, 2, spec),
            lambda rows: fiber_decode(rows, 2, inners),
        )
        assert report.ok, report.failures[:3]


@pytest.mark.parametrize("inner, message", [
    (None, "no inner code for fiber length 3"),
    (HammingCosetCode(4), "inner code for length 3 has length 4"),
    (TrivialCode(3), "inner code for length 3 does not correct one error"),
])
def test_fiber_codes_check_the_inner_code_they_use(inner, message):
    s = (0, 1, 2, 2)  # fiber length 3
    rows = decompose_sequence(s, 2)
    inners = {3: inner} if inner is not None else {}
    for call in (lambda: fiber_membership(s, 2, inners),
                 lambda: fiber_decode(rows, 2, inners),
                 lambda: list(fiber_enumerate(3, 2, hamming_fiber_inners(2) | inners))):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()
    # the unused lengths are not looked at; enumeration checks them all
    inners = {3: HammingCosetCode(3)}
    assert not fiber_membership(s, 2, inners)  # fingerprint 011
    assert fiber_decode(rows, 2, inners) == (0, 2, 2, 2)  # 011 -> 111
    with pytest.raises(DomainError, match="^no inner code for fiber length 0$"):
        list(fiber_enumerate(4, 2, inners))


def test_checksum_value():
    assert checksum((0, 1, 2, 0), 4) == 8
    assert checksum((0, 0, 0), 3) == 0


def test_checksum_membership_and_enumerate():
    assert checksum_membership((0, 1, 2, 0), 4, label=8)
    total = 0
    for label in range(2 * 2 + 1):
        words = list(checksum_enumerate(2, 4, label))
        total += len(words)
        for s in words:
            assert checksum_membership(s, 4, label)
    assert total == 5 ** 2


@pytest.mark.parametrize("n, label", [(4, -1), (2, 5), (3, 99)])
def test_checksum_enumerate_rejects_a_label_out_of_range(n, label):
    # as checksum_membership does, and on the call, not on the first word
    with pytest.raises(DomainError, match=f"^label {label} out of range for n={n}$"):
        checksum_enumerate(n, 2, label)
    with pytest.raises(DomainError, match=f"^label {label} out of range for n={n}$"):
        checksum_membership((0,) * n, 2, label)


def test_checksum_decode_corrects_single_total_error():
    spec = parse_spec("t:1")
    words = list(checksum_enumerate(3, 4, 0))
    report = exhaustive_decode_check(
        words,
        lambda c: enumerate_received_rows(c, 4, spec),
        lambda rows: checksum_decode(rows, 4, 0),
    )
    assert report.ok, report.failures[:3]


def test_checksum_decode_rejects_garbage():
    with pytest.raises(DecodeFailure):
        # two columns are invalid, beyond the single-error budget
        checksum_decode(((1, 1), (0, 0), (0, 0), (0, 0)), 4, 0)


def _repair_column_reference(column):
    """The three-case column repair checksum_decode used before: the levels
    a single bit error away from a broken column, as (exact, levels)."""
    k = len(column)
    v = list(column)
    t = next(i for i in range(k - 1) if v[i] == 1 and v[i + 1] == 0)
    if t > 0 and v[t - 1] == 1:
        return True, (sum(v) + 1,)
    if t < k - 2 and v[t + 2] == 0:
        return True, (sum(v) - 1,)
    mid = k - t - 1
    return False, (mid - 1, mid + 1)


def test_one_flip_letters_match_the_three_case_repair():
    checked = 0
    for k in range(2, 9):
        letters = {tuple(row[0] for row in decompose_sequence((level,), k)): level
                   for level in range(k + 1)}
        for column in itertools.product((0, 1), repeat=k):
            if column in letters:
                continue
            checked += 1
            near = sorted(level for col, level in letters.items()
                          if sum(a != b for a, b in zip(col, column)) == 1)
            assert _one_flip_letters(column) == near, column
            if near:
                _, levels = _repair_column_reference(column)
                assert near == sorted(v for v in levels if 0 <= v <= k), column
    assert checked == 466


def test_checksum_decode_fails_on_a_column_two_flips_from_every_letter():
    # column 0 reads 1010 top first; the old repair offered level 2, whose
    # checksum 2 matches label 2, and decoded to (2, 0)
    with pytest.raises(DecodeFailure,
                       match="column 0 repair does not match the checksum"):
        checksum_decode(((1, 0), (0, 0), (1, 0), (0, 0)), 4, 2)


def test_explicit_code_validation():
    with pytest.raises(DomainError):
        ExplicitCode(3, [(0, 0)])


def test_hamming_codes_name_a_bad_length_or_label():
    with pytest.raises(DomainError, match="^length must be >= 0, got -2$"):
        HammingCosetCode(-2)
    with pytest.raises(DomainError, match="^length must be >= 0, got -2$"):
        TrivialCode(-2)
    # length 4 has 2^3 cosets: labels 0..7, many of them above the length
    assert HammingCosetCode(4, 7).coset == 7
    for label in (8, -1):
        with pytest.raises(DomainError, match=f"^label {label} out of range for n=4$"):
            HammingCosetCode(4, label)


def test_hamming_fiber_inners_check_the_coset_on_the_longest_fiber():
    inners = hamming_fiber_inners(5, 6)
    # the longest fibers take coset 6; fibers with fewer cosets take 0
    assert {ell: code.coset for ell, code in inners.items()} == {
        0: 0, 1: 0, 2: 0, 3: 0, 4: 6, 5: 6}
    for coset in (8, 99, -1):
        with pytest.raises(DomainError,
                           match=f"^label {coset} out of range for n=5$"):
            hamming_fiber_inners(5, coset)
    with pytest.raises(DomainError, match="^length must be >= 0, got -1$"):
        hamming_fiber_inners(-1)


@pytest.mark.parametrize("word", [(0, 1, "?", 1), ("?",), (2, None)])
def test_checksum_and_fiber_membership_name_a_bad_letter(word):
    bad = next(x for x in word if not isinstance(x, int))
    text = "^sequence contains '\\?'$" if bad == "?" else "^letter None outside Sigma_3$"
    with pytest.raises(DomainError, match=text):
        fiber_membership(word, 2, hamming_fiber_inners(len(word)))
    with pytest.raises(DomainError, match=text):
        checksum_membership(word, 2)


@pytest.mark.parametrize("decode, extra", [
    (product_decode, ((TrivialCode(3), TrivialCode(3)),)),
    (fiber_decode, (hamming_fiber_inners(3),)),
    (checksum_decode, ()),
])
def test_decoders_name_the_row_count(decode, extra):
    for rows in (((0, 0, 1),), ((0, 0, 1), (0, 1, 1), (0, 1, 1))):
        with pytest.raises(DomainError, match=f"^expected 2 rows, got {len(rows)}$"):
            decode(rows, 2, *extra)
