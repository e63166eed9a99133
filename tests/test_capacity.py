"""Tests for the channel model and capacity computations."""

import contextlib
import io
import math
import os
import random
import subprocess
import sys

import pytest

import composite_codec
from composite_codec.core import DomainError
from composite_codec import capacity, cli
from composite_codec.capacity import (
    NotConvergedError,
    blahut_arimoto,
    capacity_binary_pair,
    capacity_composite,
    channel_matrix,
    mutual_information,
    render_svg,
    sweep,
    symmetric_input,
)


def _close(xs, ys):
    return len(xs) == len(ys) and all(
        math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12) for x, y in zip(xs, ys))


def test_channel_matrix_rows():
    p = 0.1
    q = 1 - p
    M = channel_matrix(p)
    assert [len(row) for row in M] == [4, 4, 4]
    # inputs 0, 1, 2; output columns 0, 1, 2, '?'
    assert _close(M[0], [q * q, p * q, p * p, p * q])
    assert _close(M[1], [p * q, q * q, p * q, p * p])
    assert _close(M[2], [p * p, p * q, q * q, p * q])
    assert _close([sum(row) for row in M], [1.0] * 3)


def test_channel_matrix_is_input_symmetric():
    # Rows are permutations of each other, so H(Y|X) is input-independent.
    M = channel_matrix(0.23)
    sorted_rows = [sorted(row) for row in M]
    assert _close(sorted_rows[0], sorted_rows[1])
    assert _close(sorted_rows[0], sorted_rows[2])


def test_channel_matrix_validation():
    with pytest.raises(DomainError):
        channel_matrix(-0.1)
    with pytest.raises(DomainError):
        channel_matrix(1.1)
    # any crossover in [0, 1] is a legal stochastic matrix
    assert _close([sum(row) for row in channel_matrix(0.6)], [1.0] * 3)


def test_symmetric_input():
    dist = symmetric_input(0.25)
    assert _close(dist, [0.25, 0.5, 0.25])
    with pytest.raises(DomainError):
        symmetric_input(0.6)


def test_mutual_information_noiseless():
    M = channel_matrix(0.0)
    bits = mutual_information([1 / 3, 1 / 3, 1 / 3], M)
    assert abs(bits - math.log2(3)) < 1e-12


def test_capacity_anchors():
    r0 = capacity_composite(0.0)
    assert abs(r0.bits - math.log2(3)) < 1e-9
    assert abs(r0.alpha - 1 / 3) < 1e-6
    assert abs(capacity_binary_pair(0.0) - 1.0) < 1e-12
    assert abs(capacity_composite(0.5).bits) < 1e-9
    assert abs(capacity_binary_pair(0.5)) < 1e-12


def test_capacity_decreases_with_noise():
    values = [capacity_composite(p).bits for p in (0.0, 0.1, 0.2, 0.3, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_composite_beats_independent_binary_pair():
    for p in (0.05, 0.15, 0.3):
        assert capacity_composite(p).bits > capacity_binary_pair(p)


def test_blahut_arimoto_agrees_with_golden_section():
    for p in (0.05, 0.25, 0.45):
        dist, bits = blahut_arimoto(channel_matrix(p))
        assert abs(bits - capacity_composite(p).bits) < 1e-6
        assert abs(sum(dist) - 1.0) < 1e-12
        assert abs(dist[0] - dist[2]) < 1e-6  # optimum is symmetric


def test_blahut_arimoto_binary_symmetric_channel():
    p = 0.11
    M = [[1 - p, p], [p, 1 - p]]
    _, bits = blahut_arimoto(M)
    h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert abs(bits - (1 - h)) < 1e-9


def test_sweep_rows():
    rows = sweep([0.1, 0.2])
    assert len(rows) == 2
    p, alpha, composite_bits, pair_bits = rows[0]
    assert p == 0.1
    assert 0 < alpha < 1
    assert composite_bits > pair_bits


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_capacity_rejects_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="not finite and positive"):
        capacity_composite(0.1, tol=tol)


def test_capacity_search_stops_once_the_bracket_stops_shrinking():
    # a bracket 1e-30 wide is below float resolution near alpha = 0.37
    assert abs(capacity_composite(0.1, tol=1e-30).alpha
               - capacity_composite(0.1).alpha) < 1e-7


def test_render_svg():
    rows = sweep([0.1, 0.2, 0.3])
    svg = render_svg(rows)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2


# (p, alpha_opt, composite bits, two-level bits, Blahut-Arimoto bits) as
# computed with numpy's float64 kernels; the objective is flat near its
# optimum, so alpha_opt carries only about 1e-7 of it
REFERENCE = (
    (0.1, 0.37109282863476134, 0.8963453565606552, 0.7420858585497172,
     0.8963453565606551),
    (0.3, 0.44432163259537927, 0.22295769140544697, 0.21887209657226814,
     0.22295769140544702),
    (0.45, 0.4951445363349285, 0.014380356966730234, 0.014378956070045135,
     0.014380356966730226),
)


@pytest.mark.parametrize("p, alpha, bits, two_level, oracle", REFERENCE,
                         ids=[f"p={row[0]}" for row in REFERENCE])
def test_values_match_the_float64_reference(p, alpha, bits, two_level, oracle):
    res = capacity_composite(p)
    assert abs(res.alpha - alpha) < 1e-7
    assert abs(res.bits - bits) < 1e-15
    assert abs(capacity_binary_pair(p) - two_level) < 1e-15
    assert abs(blahut_arimoto(channel_matrix(p))[1] - oracle) < 1e-15


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(composite_codec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, composite_codec.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def _plain_blahut_arimoto(matrix, tol=1e-12, max_iter=100000):
    """The unaccelerated loop, one map step per iteration, as the
    reference: returns (lower, upper, closed), the sandwich at its last
    iterate and whether it is narrower than tol."""
    rows = [[float(x) for x in row] for row in matrix]
    m = len(rows)
    dist = [1.0 / m] * m
    for _ in range(max_iter):
        d = _divergences(dist, rows)
        lower = sum(w * v for w, v in zip(dist, d))
        upper = max(d)
        if upper - lower < tol:
            return lower, upper, True
        dist = [w * 2.0 ** (v - upper) for w, v in zip(dist, d)]
        total = sum(dist)
        dist = [w / total for w in dist]
    return lower, upper, False


def _divergences(dist, rows):
    out = [sum(w * row[j] for w, row in zip(dist, rows))
           for j in range(len(rows[0]))]
    return [sum(x * math.log2(x / o) for x, o in zip(row, out) if x > 0.0)
            for row in rows]


def _sandwich(dist, rows):
    """lower = I(dist) <= capacity <= upper, computed here."""
    d = _divergences(dist, rows)
    return sum(w * v for w, v in zip(dist, d)), max(d)


def _assert_certified(matrix, dist, bits, tol=1e-12):
    # the returned distribution's own sandwich, recomputed with the
    # x log2(x/o) terms of the reference loop: it closes below tol, and
    # the returned bits are its lower end, up to float rounding
    assert abs(sum(dist) - 1.0) < 1e-14 and min(dist) >= 0.0
    lower, upper = _sandwich(dist, matrix)
    assert upper - lower < tol
    assert abs(bits - lower) < 1e-14


@pytest.mark.parametrize("p", [i / 100 for i in range(46)])
def test_blahut_arimoto_matches_the_plain_loop(p):
    M = channel_matrix(p)
    dist, bits = blahut_arimoto(M)
    _assert_certified(M, dist, bits)
    lower, _, closed = _plain_blahut_arimoto(M)
    assert closed
    # both lower ends lie within tol below the capacity; on this grid they
    # agree to float rounding
    assert abs(bits - lower) < 1e-15


def _random_channel(rng):
    inputs, outputs = rng.randint(2, 8), rng.randint(2, 16)
    rows = []
    for _ in range(inputs):
        row = [0.0 if rng.random() < 0.2 else rng.random()
               for _ in range(outputs)]
        if not any(row):
            row[rng.randrange(outputs)] = 1.0
        total = sum(row)
        rows.append([x / total for x in row])
    return rows


_CHANNELS = [_random_channel(random.Random(seed)) for seed in range(200)]


def test_random_channels_match_the_plain_loop():
    tol = 1e-12
    closed_count = 0
    for M in _CHANNELS:
        dist, bits = blahut_arimoto(M, tol=tol)
        _assert_certified(M, dist, bits, tol)
        # any iterate of the plain loop brackets the capacity, and bits
        # lies within tol below it; the budget keeps the slow loop short
        lower, upper, closed = _plain_blahut_arimoto(M, tol=tol, max_iter=500)
        assert lower - tol < bits <= upper + 1e-15
        if closed:
            closed_count += 1
            assert abs(bits - lower) < tol
    assert closed_count > 100


def test_mutual_information_never_falls_along_the_iterates():
    for M in _CHANNELS:
        previous = -math.inf
        for _, (dist, d) in zip(range(40), capacity._iterates(M)):
            mi = sum(w * v for w, v in zip(dist, d))
            assert mi >= previous - 1e-15
            previous = mi


def test_extrapolation_clamps_the_step_length():
    # |r| < |v| gives a = -1/2: clamped to -1, which is x2 itself
    x0, r, r1, x2 = [0.5, 0.5], [0.1, -0.1], [-0.1, 0.1], [0.5, 0.5]
    assert capacity._extrapolate(x0, r, r1, x2) is x2
    # a = -2 and the point lies in the simplex: the full step
    x0, r, r1 = [0.5, 0.5], [-0.1, 0.1], [-0.05, 0.05]
    point = capacity._extrapolate(x0, r, r1, [0.35, 0.65])
    assert _close(point, [0.3, 0.7])


def test_extrapolation_backs_off_into_the_open_simplex():
    # a = -4 leaves the simplex, and so do -2.5 and -1.75; -1.375 is the
    # first halving back towards x2 that stays inside
    x0, r, r1 = [0.5, 0.5], [-0.2, 0.2], [-0.15, 0.15]
    point = capacity._extrapolate(x0, r, r1, [0.15, 0.85])
    assert _close(point, [0.04453125, 0.95546875])
    # a = -2 and every halving after it leave the simplex: x2 itself
    x2 = [1e-300, 1.0]
    assert capacity._extrapolate([0.5, 0.5], [-0.2, 0.2], [-0.3, 0.3], x2) is x2


def test_blahut_arimoto_evaluation_count(monkeypatch):
    calls = []
    divergences = capacity._divergences

    def counted(dist, rows):
        calls.append(1)
        return divergences(dist, rows)

    monkeypatch.setattr(capacity, "_divergences", counted)
    blahut_arimoto(channel_matrix(0.45))
    # the plain loop takes 75,016 map steps here
    assert len(calls) <= 100


@pytest.mark.parametrize("p", [0.49, 0.4999, 0.499999, 0.51])
def test_blahut_arimoto_closes_near_one_half(p):
    M = channel_matrix(p)
    dist, bits = blahut_arimoto(M)
    _assert_certified(M, dist, bits)


def test_blahut_arimoto_refuses_an_uncertified_value():
    with pytest.raises(NotConvergedError) as info:
        blahut_arimoto(channel_matrix(0.45), max_iter=2)
    assert isinstance(info.value, DomainError)
    assert str(info.value).startswith(
        "Blahut-Arimoto did not certify the capacity within max_iter=2 "
        "iterations: its sandwich is ")


#: p where some x log1p((x - o)/o) term fails: (x - o)/o rounds to -1
_EXTREME_P = ([10.0 ** -j for j in range(1, 301)]
              + [1.0 - 10.0 ** -j for j in range(1, 301)])


def test_blahut_arimoto_certifies_p_near_zero_and_one():
    for p in _EXTREME_P:
        M = channel_matrix(p)
        dist, bits = blahut_arimoto(M)
        _assert_certified(M, dist, bits)
        assert capacity_composite(p).bits - 1e-12 < bits <= math.log2(3) + 1e-15, p


def test_blahut_arimoto_at_the_least_positive_p():
    # p q is the least positive float and p^2 is 0, so an output
    # underflows to 0 and (x - o)/o divides by it
    p = 5e-324
    dist, bits = blahut_arimoto(channel_matrix(p))
    assert abs(sum(dist) - 1.0) < 1e-14
    assert abs(bits - math.log2(3)) < 1e-12
    assert abs(bits - capacity_composite(p).bits) < 1e-12


def test_fallback_terms_equal_the_log1p_form_where_it_holds():
    rng = random.Random(5)
    for _ in range(2000):
        x, o = rng.random() ** 8, rng.random() ** 8
        r = (x - o) / o
        if r > -1.0:
            assert capacity._term(x, o) == x * math.log1p(r)
    assert capacity._term(1e-30, 0.5) == 1e-30 * (math.log(1e-30) - math.log(0.5))
    assert capacity._term(5e-324, 0.0) == 0.0


@pytest.mark.parametrize("args", [("--p", "1e-9"), ("--p", "5e-324"),
                                  ("--p", "0.999999999"),
                                  ("--sweep", "0:1e-300:2")])
def test_capacity_oracle_at_extreme_p(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["capacity", *args, "--oracle"])
    assert (code, err.getvalue()) == (0, "")
    for line in out.getvalue().splitlines():
        assert len(line.split("\t")) == 5
