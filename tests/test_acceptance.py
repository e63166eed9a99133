"""Acceptance suite: the headline guarantees of the package.

Each test pins tolerances explicitly (exact arithmetic wherever the quantity
is rational) and enforces the runtime budget where one is part of the
guarantee.
"""

import math
import time
from fractions import Fraction
from itertools import product
from math import comb

from composite_codec.bounds import (
    BOUNDS,
    VALID_LOWER,
    VALID_UPPER,
    emit_bound_table,
    gspb_weight_rule,
)
from composite_codec.capacity import (
    blahut_arimoto,
    capacity_binary_pair,
    capacity_composite,
    channel_matrix,
)
from composite_codec.core import (
    UNKNOWN,
    CompositeLetter,
    CompositeParams,
    DomainError,
    all_sequences,
    decompose_letter,
    decompose_sequence,
    format_sequence,
    parse_sequence,
    reconstruct_column,
    reconstruct_rows,
)
from composite_codec.deletion import (
    deletion_outputs,
    marker_pair_decode,
    marker_pair_encode,
    marker_row_decode,
    marker_row_encode,
    vt_pair_decode,
    vt_pair_enumerate,
    vt_row_decode,
    vt_row_enumerate,
)
from composite_codec.error_model import (
    count_runs_weight,
    count_v,
    del_ball_size,
    enumerate_del_ball,
    enumerate_received_rows,
    enumerate_sub_ball,
    parse_spec,
    runs,
    sub_ball_size,
    vertex_set_size,
)
from composite_codec.oracle import (
    check_fractional_transversal,
    exhaustive_decode_check,
    optimal_code_size,
)
from composite_codec.substitution import (
    HammingCosetCode,
    checksum_decode,
    checksum_enumerate,
    fiber_code_size,
    fiber_decode,
    fiber_enumerate,
    hamming_fiber_inners,
    optimal_fiber_inners,
    product_decode,
    product_enumerate,
)


def test_published_bound_table_is_bit_exact_and_fast():
    started = time.monotonic()
    rows = list(emit_bound_table("table4", range(2, 11)))
    elapsed = time.monotonic() - started
    assert rows[0] == ["n", "gspb_del", "aspv_d(1,0)", "aspv_d(1)"]
    gspb_col = [7, 18, 47, 129, 357, 1001, 2836, 8106, 23329]
    aspv10_col = [6, 14, 34, 87, 226, 596, 1595, 4320, 11809]
    aspv1_col = [3, 7, 17, 43, 113, 298, 797, 2160, 5904]
    for i, n in enumerate(range(2, 11)):
        assert rows[1 + i] == [
            str(n), str(gspb_col[i]), str(aspv10_col[i]), str(aspv1_col[i]),
        ]
    assert elapsed < 1.0


def test_ball_sizes_match_enumeration_exhaustively():
    started = time.monotonic()
    spec_texts = {"(1,0)", "(1,1)", "t:1", "t:2"}
    spec_texts |= {
        f"({e0},{e1})" for e0 in range(4) for e1 in range(4) if e0 + e1 <= 3
    }
    specs = [parse_spec(t) for t in sorted(spec_texts)]
    for n in range(1, 7):
        for s in all_sequences(n, 2):
            for spec in specs:
                assert sub_ball_size(s, 2, spec) == len(
                    enumerate_sub_ball(s, 2, spec))
    del_specs = [parse_spec("d:(1,0)"), parse_spec("d:1")]
    for n in range(1, 9):
        for s in all_sequences(n, 2):
            for spec in del_specs:
                assert del_ball_size(s, 2, spec) == len(enumerate_del_ball(s, 2, spec))
    assert time.monotonic() - started < 120.0


def test_worked_example_goldens():
    # Six composite letters over a three-letter base alphabet at resolution 2.
    params = CompositeParams(q=3, k=2)
    letters = [
        CompositeLetter((2, 0, 0)),
        CompositeLetter((0, 2, 0)),
        CompositeLetter((0, 0, 2)),
        CompositeLetter((1, 1, 0)),
        CompositeLetter((1, 0, 1)),
        CompositeLetter((0, 1, 1)),
    ]
    columns = [decompose_letter(params, letter) for letter in letters]
    assert "".join(str(col[0]) for col in columns) == "012001"
    assert "".join(str(col[1]) for col in columns) == "012122"
    for letter, col in zip(letters, columns):
        assert reconstruct_column(params, col) == letter
    assert reconstruct_column(params, (1, 0)) == UNKNOWN

    # Resolution-4 two-level sequence, clean and with one flipped bit.
    s = parse_sequence("012340", 4)
    rows = decompose_sequence(s, 4)
    assert ["".join(map(str, r)) for r in rows] == [
        "000010", "000110", "001110", "011110",
    ]
    assert reconstruct_rows(rows) == s
    faulty = (rows[0], rows[1], rows[3], (0, 1, 0, 1, 1, 0))
    assert format_sequence(reconstruct_rows(faulty), 4) == "02?340"

    # Ball sizes of the two length-30 reference sequences.
    spec = parse_spec("(1,0)")
    assert sub_ball_size((0,) * 30, 2, spec) == 1
    assert sub_ball_size((0, 1, 2) * 10, 2, spec) == 21


def test_every_construction_decodes_its_full_error_universe():
    started = time.monotonic()

    # product code with single-error-correcting rows, length 7
    h = HammingCosetCode(7)
    words = list(product_enumerate(7, 2, (h, h)))
    spec = parse_spec("(1,1)")
    report = exhaustive_decode_check(
        words,
        lambda c: enumerate_received_rows(c, 2, spec),
        lambda rows: product_decode(rows, 2, (h, h)),
    )
    assert report.ok, report.failures[:3]
    assert report.cases == len(words) * 64

    # fiber construction, k in {2, 3}, n <= 5
    for k in (2, 3):
        spec = parse_spec("(" + "1" + ",0" * (k - 1) + ")")
        for n in range(2, 6):
            inners = hamming_fiber_inners(n)
            words = list(fiber_enumerate(n, k, inners))
            report = exhaustive_decode_check(
                words,
                lambda c, _k=k, _spec=spec: enumerate_received_rows(c, _k, _spec),
                lambda rows, _k=k, _inners=inners: fiber_decode(rows, _k, _inners),
            )
            assert report.ok, (k, n, report.failures[:3])

    # single total error on the five-level alphabet via the position checksum
    spec = parse_spec("t:1")
    for n in range(2, 6):
        words = list(checksum_enumerate(n, 4, 0))
        report = exhaustive_decode_check(
            words,
            lambda c: enumerate_received_rows(c, 4, spec),
            lambda rows: checksum_decode(rows, 4, 0),
        )
        assert report.ok, (n, report.failures[:3])

    # first-row deletion, membership form (checksum label 0), n <= 8
    for n in range(2, 9):
        words = list(vt_row_enumerate(n, 0))
        report = exhaustive_decode_check(
            words,
            lambda c: [rows for _, _, rows in deletion_outputs(c, 2, (0,))],
            lambda rows: vt_row_decode(rows, 0),
        )
        assert report.ok, (n, report.failures[:3])

    # first-row deletion, systematic form, message lengths <= 5
    for m in range(1, 6):
        for msg in product((0, 1, 2), repeat=m):
            word = marker_row_encode(msg)
            for _, _, rows in deletion_outputs(word, 2, (0,)):
                assert marker_row_decode(rows) == msg

    # either-row deletion, membership form, n <= 6
    for n in range(2, 7):
        words = list(vt_pair_enumerate(n, 0))
        report = exhaustive_decode_check(
            words,
            lambda c: [rows for _, _, rows in deletion_outputs(c, 2, (0, 1))],
            lambda rows: vt_pair_decode(rows, 0),
        )
        assert report.ok, (n, report.failures[:3])

    # either-row deletion, systematic form, message lengths <= 4
    for m in range(1, 5):
        for msg in product((0, 1, 2), repeat=m):
            word = marker_pair_encode(msg)
            for _, _, rows in deletion_outputs(word, 2, (0, 1)):
                assert marker_pair_decode(rows) == msg

    assert time.monotonic() - started < 600.0


def test_fiber_code_with_optimal_inners_is_optimal():
    expected = {2: 4, 3: 9, 4: 21}
    spec = parse_spec("(1,0)")
    for n, size in expected.items():
        inners = optimal_fiber_inners(n)
        sizes = {v: c.size for v, c in inners.items()}
        assert fiber_code_size(n, 2, sizes) == size
        assert optimal_code_size(n, 2, spec).size == size


_LOWER_BY_SPEC = {
    "(1,0)": {"lower:coset", "lower:fiber"},
    "(1,0,0)": {"lower:coset", "lower:fiber"},
    "(1,1)": {"lower:coset"},
    "t:1": {"lower:bch"},
    "t:2": {"lower:bch"},
    "d:(1,0)": {"lower:vt", "lower:tenengolts"},
    "d:1": {"lower:vt1", "lower:tenengolts1"},
}


def _must_check(n, k, text):
    """The bounds the sandwich must check on an instance, so that a change
    to BOUNDS cannot drop one unnoticed."""
    names = set(_LOWER_BY_SPEC[text])
    if text != "t:2" and (text != "(1,1)" or n >= 4):
        names.add("gspb")
    if k == 2 and not text.startswith("d:"):
        names.add("sphere")
    if text == "t:1" and k % 2 == 0:
        names.add("lower:lee")
    return names


def test_bound_sandwich_on_oracle_solved_instances():
    instances = [(n, 2, t) for n in (2, 3, 4)
                 for t in ("(1,0)", "(1,1)", "t:1", "t:2", "d:(1,0)", "d:1")]
    instances += [(n, 3, t) for n in (2, 3) for t in ("(1,0,0)", "t:1")]
    for n, k, text in instances:
        spec = parse_spec(text)
        opt = Fraction(optimal_code_size(n, k, spec).size)
        checked = set()
        for name, bound in BOUNDS.items():
            try:
                result = bound(n, k, spec)
            except DomainError:
                continue
            if result.kind == VALID_UPPER:
                assert opt <= result.value, (n, k, text, name, opt, result.value)
            elif result.kind == VALID_LOWER:
                assert result.value <= opt, (n, k, text, name, result.value, opt)
            else:
                continue
            checked.add(name)
        missed = _must_check(n, k, text) - checked
        assert not missed, (n, k, text, missed)


def test_weight_rules_are_fractional_transversals():
    # the two closed-form substitution rules and the two definitional ones
    sub_grids = [
        ("(1,0)", 2), ("(1,0,0)", 3),
        ("t:1", 2), ("t:1", 3),
        ("(1,1)", 2), ("(1,1,0)", 3),
        ("t:2", 2), ("t:2", 3),
    ]
    for text, k in sub_grids:
        spec = parse_spec(text)
        for n in range(2, 5):
            weight = gspb_weight_rule(n, k, spec)
            report = check_fractional_transversal(
                list(all_sequences(n, k)),
                lambda s, _k=k, _spec=spec: enumerate_sub_ball(s, _k, _spec),
                weight,
            )
            assert report.min_cover >= 1, (text, k, n, report.min_cover)

    spec = parse_spec("d:(1,0)")
    for n in range(2, 7):
        weight = gspb_weight_rule(n, 2, spec)
        report = check_fractional_transversal(
            list(all_sequences(n, 2)),
            lambda s: enumerate_del_ball(s, 2, spec),
            weight,
        )
        assert report.min_cover >= 1, (n, report.min_cover)


def _brute_count_runs_weight(n):
    table = {}
    for x in product((0, 1), repeat=n):
        key = (runs(x), sum(x))
        table[key] = table.get(key, 0) + 1
    return table


def test_counting_identities_match_brute_force():
    # V(n; w) against direct enumeration, n <= 7
    for n in range(2, 8):
        for y0 in product((0, 1), repeat=n - 1):
            w = sum(y0)
            seen = set()
            for i in range(n):
                for b in (0, 1):
                    s0 = y0[:i] + (b,) + y0[i:]
                    for s1 in product((0, 1), repeat=n):
                        if all(a <= c for a, c in zip(s0, s1)):
                            seen.add(s1)
            assert count_v(n, w, 2) == len(seen)

    # N(n; rho; w) against direct enumeration, n <= 12
    for n in range(1, 13):
        table = _brute_count_runs_weight(n)
        for rho in range(1, n + 1):
            for w in range(0, n + 1):
                assert count_runs_weight(n, rho, w) == table.get((rho, w), 0)

    # vertex-set size: closed form vs direct output collection
    for n in range(2, 8):
        outputs = set()
        for s in all_sequences(n, 2):
            outputs |= enumerate_del_ball(s, 2, parse_spec("d:(1,0)"))
        assert vertex_set_size(n, 2) == len(outputs)

    # total-run-count identity, n <= 12, 0 < w < n
    for n in range(2, 13):
        for w in range(1, n):
            lhs = sum(rho * count_runs_weight(n, rho, w)
                      for rho in range(2, n + 1))
            assert lhs == comb(n, w) + 2 * (n - 1) * comb(n - 2, w - 1)


def test_capacity_anchors_and_oracle_agreement():
    started = time.monotonic()
    assert abs(capacity_composite(0.0).bits - math.log2(3)) < 1e-9
    assert abs(capacity_binary_pair(0.0) - 1.0) < 1e-9
    assert abs(capacity_composite(0.5).bits - 0.0) < 1e-9
    for i in range(1, 10):
        p = 0.05 * i
        golden = capacity_composite(p).bits
        _, ba = blahut_arimoto(channel_matrix(p))
        assert abs(golden - ba) < 1e-6, (p, golden, ba)
    assert time.monotonic() - started < 30.0


def _binomial_half_sum(n, k):
    # sum_m C(n,m) ((k-1)/2)^m == ((k+1)/2)^n, used as the mass term below
    return Fraction(k + 1, 2) ** n


def test_reciprocal_binomial_inequalities_hold_exactly():
    # sandwich for the n+m reciprocal sum
    for k in (2, 3, 4, 8):
        half = Fraction(k - 1, 2)
        for n in range(4, 65):
            total = sum(comb(n, m) * half ** m * Fraction(1, n + m)
                        for m in range(n + 1))
            mass = _binomial_half_sum(n, k)
            mean = Fraction(2 * k * n, k + 1)
            assert mass / mean <= total <= mass / (mean - 1), (k, n)

    # shifted denominator, k = 2, j up to sqrt(n)
    half = Fraction(1, 2)
    for n in range(10, 65):
        mass = _binomial_half_sum(n, 2)
        mean = Fraction(4 * n, 3)
        for j in range(1, int(math.isqrt(n)) + 1):
            total = sum(comb(n, m) * half ** m * Fraction(1, n + m - j)
                        for m in range(n + 1))
            assert total <= mass / (mean - (j + 1)), (n, j)

    # reciprocal of m alone, m >= 1
    for k in (2, 3, 4, 8):
        half = Fraction(k - 1, 2)
        for n in range(4, 65):
            total = sum(comb(n, m) * half ** m * Fraction(1, m)
                        for m in range(1, n + 1))
            mass = _binomial_half_sum(n, k)
            denom = Fraction((k - 1) * n, k + 1) - 1
            assert denom > 0
            assert total <= mass / denom, (k, n)

    # double reciprocal sum bounded by 3^{n+2} / ((n+1)(n+2))
    for n in range(0, 21):
        total = sum(
            comb(n, m) * sum(
                comb(n - m, j) * Fraction(1, (j + 1) * (n - m - j + 1))
                for j in range(n - m + 1))
            for m in range(n + 1))
        assert total <= Fraction(3 ** (n + 2), (n + 1) * (n + 2)), n


def test_binomial_identity_helpers_hold_exactly():
    for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for n in range(0, 31):
            assert sum(comb(n, i) * x ** i for i in range(n + 1)) == (1 + x) ** n
            assert sum(i * comb(n, i) * x ** (i - 1)
                       for i in range(1, n + 1)) == n * (1 + x) ** (n - 1)
            assert sum((i * i - i) * comb(n, i) * x ** (i - 2)
                       for i in range(2, n + 1)) == (n * n - n) * (1 + x) ** max(n - 2, 0)
            assert sum(comb(n, i) * x ** (i + 1) / (i + 1)
                       for i in range(n + 1)) == ((1 + x) ** (n + 1) - 1) / (n + 1)
            assert sum(comb(n, i) * x ** (i + 2) / ((i + 1) * (i + 2))
                       for i in range(n + 1)) == (
                (1 + x) ** (n + 2) - (n + 2) * x - 1) / ((n + 1) * (n + 2))
