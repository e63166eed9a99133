"""Tests for the channel model and capacity computations."""

import math
import os
import subprocess
import sys

import pytest

import composite_codec
from composite_codec.core import DomainError
from composite_codec.capacity import (
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
