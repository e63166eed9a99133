"""Capacity of the two-channel composite letter channel (k = 2).

A letter sigma in {0, 1, 2} is transmitted as the column (sigma >= 2,
sigma >= 1); each row bit crosses an independent binary symmetric channel
with crossover p.  The received column is read back as a letter, or as an
erasure-like symbol '?' when the bits come back in the invalid order.

Two figures of merit:

* capacity over all three letters, with the symmetric input
  (alpha, 1 - 2*alpha, alpha) -- symmetry of the channel under reversing
  the alphabet makes this family optimal;
* the same physical channels driven by ordinary two-level letters
  {0, 2} only, i.e. one uniform bit observed through both rows, the
  baseline the third letter is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from composite_codec.core import DomainError

OUTPUTS = ("0", "1", "2", "?")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
_TINY = math.ulp(0.0)


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"crossover probability {p} outside [0, 1]")
    return p


def channel_matrix(p: float) -> list[list[float]]:
    """Row i: distribution of the read-back symbol given letter i was sent.

    Columns follow OUTPUTS; '?' collects the invalid bit pattern (1, 0).
    """
    p = _check_p(p)
    q = 1.0 - p
    return [
        [q * q, p * q, p * p, p * q],
        [p * q, q * q, p * q, p * p],
        [p * p, p * q, q * q, p * q],
    ]


def symmetric_input(alpha: float) -> list[float]:
    if not 0.0 <= alpha <= 0.5:
        raise DomainError(f"alpha {alpha} outside [0, 1/2]")
    return [alpha, 1.0 - 2.0 * alpha, alpha]


def _entropy(dist) -> float:
    return -sum(x * math.log2(x) for x in dist if x > 0.0)


def _output(dist, matrix) -> list[float]:
    """The output distribution dist @ matrix."""
    return [sum(d * x for d, x in zip(dist, column)) for column in zip(*matrix)]


def mutual_information(dist, matrix) -> float:
    """I(X; Y) in bits for input distribution dist over the rows."""
    h_given = sum(d * _entropy(row) for d, row in zip(dist, matrix))
    return _entropy(_output(dist, matrix)) - h_given


@dataclass(frozen=True)
class CapacityResult:
    p: float
    alpha: float
    bits: float


def capacity_composite(p: float, tol: float = 1e-10) -> CapacityResult:
    """Maximise I(X; Y) over the symmetric inputs (alpha, 1-2a, alpha)."""
    p = _check_p(p)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance {tol} is not finite and positive")
    matrix = channel_matrix(p)

    def f(alpha: float) -> float:
        return mutual_information(symmetric_input(alpha), matrix)

    # 129 points 0, 1/256, ..., 1/2 (exact in binary), then golden section
    # between the neighbours of the best one until the bracket is tol wide
    # or float rounding stops it shrinking
    grid = [i / 256.0 for i in range(129)]
    values = [f(a) for a in grid]
    best = values.index(max(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    fa, fb = f(a), f(b)
    width = math.inf
    while tol < hi - lo < width:
        width = hi - lo
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = f(a)
    alpha = 0.5 * (lo + hi)
    return CapacityResult(p=p, alpha=alpha, bits=f(alpha))


def capacity_binary_pair(p: float) -> float:
    """One uniform bit sent as letter 0 or 2 and observed through both rows."""
    p = _check_p(p)
    agree = (1.0 - p) ** 2 + p * p
    cross = p * (1.0 - p)
    h_out = _entropy([agree / 2.0, cross, cross, agree / 2.0])
    h_bit = _entropy([p, 1.0 - p])
    return h_out - 2.0 * h_bit


class NotConvergedError(DomainError):
    """An iteration reached its limit before it could certify its result."""


def _divergences(dist, rows) -> list[float]:
    """d_i = D(row i || dist @ rows) in bits: one evaluation of the
    Blahut-Arimoto map.  They give the map's next point and the sandwich
    sum_i dist_i d_i <= capacity <= max_i d_i at dist; the lower end is
    the mutual information at dist.  _term gives each term x log(x/o)."""
    out = _output(dist, rows)
    return [sum(_term(x, o) for x, o in zip(row, out) if x > 0.0) / _LN2
            for row in rows]


def _term(x: float, o: float) -> float:
    """x log(x/o) for x > 0: as x log1p((x - o)/o) where that ratio stays
    above -1, which keeps its relative precision when x and o are close,
    as they all are near p = 1/2; else as x (log x - log o), for an x so
    far below o that the ratio rounds to -1.  An output o that underflows
    to 0 is read as the least positive float: each product dist_i x in it
    rounded to 0, so unless dist_i is itself that small, x and the term
    are of the order of that float."""
    if o > 0.0:
        r = (x - o) / o
        if r > -1.0:
            return x * math.log1p(r)
    return x * (math.log(x) - math.log(max(o, _TINY)))


def _dot(xs, ys) -> float:
    return sum(x * y for x, y in zip(xs, ys))


def _ba_step(dist, d):
    """The Blahut-Arimoto update dist_i 2^(d_i), normalised: returns the
    next point and the step r from dist to it.  r_i = dist_i (e_i - s)/(1 + s)
    with e_i = 2^(d_i - max d) - 1 from expm1 and s = sum_i dist_i e_i, so
    r keeps its relative precision when it is far smaller than dist, as it
    is close to the optimum; the difference of the two points would not."""
    top = max(d)
    e = [math.expm1((v - top) * _LN2) for v in d]
    s = _dot(dist, e)
    step = [w * (x - s) / (1.0 + s) for w, x in zip(dist, e)]
    point = [w + r for w, r in zip(dist, step)]
    total = sum(point)
    return [w / total for w in point], step


def _extrapolate(x0, r, r1, x2) -> list[float]:
    """The squared extrapolation x0 - 2a r + a^2 v of two map steps
    x0 -> x1 -> x2, r = x1 - x0 and r1 = x2 - x1, with v = r1 - r
    (= x2 - 2 x1 + x0) and step length a = -|r|/|v| (Varadhan and Roland,
    Scand. J. Stat. 2008).

    a = -1 gives x2 itself.  The step length is clamped to a <= -1, so a
    shorter step returns x2, and while the point lies outside the open
    simplex the step is halved back towards x2, a -> (a - 1)/2."""
    v = [b - a for a, b in zip(r, r1)]
    norm_v = math.hypot(*v)
    alpha = -math.hypot(*r) / norm_v if norm_v > 0.0 else -1.0
    while alpha < -1.0:
        point = [x - 2.0 * alpha * s + alpha * alpha * t
                 for x, s, t in zip(x0, r, v)]
        if min(point) > 0.0:
            total = sum(point)
            return [x / total for x in point]
        alpha = (alpha - 1.0) / 2.0
    return x2


def _iterates(rows):
    """Yield (dist, d) at each iterate of SQUAREM over the Blahut-Arimoto
    map, from the uniform input, with d = _divergences(dist, rows).

    Each iteration takes two map steps x1, x2 and moves to their
    extrapolation, or to x2 where the extrapolation carries less mutual
    information; so, as under the plain map, the mutual information never
    falls from one iterate to the next."""
    m = len(rows)
    dist = [1.0 / m] * m
    d = _divergences(dist, rows)
    while True:
        yield dist, d
        x1, r = _ba_step(dist, d)
        x2, r1 = _ba_step(x1, _divergences(x1, rows))
        d2 = _divergences(x2, rows)
        point = _extrapolate(dist, r, r1, x2)
        dist, d = x2, d2
        if point is not x2:
            d_point = _divergences(point, rows)
            if _dot(point, d_point) >= _dot(x2, d2):
                dist, d = point, d_point


def blahut_arimoto(matrix, tol: float = 1e-12, max_iter: int = 100000):
    """Capacity over all input distributions; returns (distribution, bits).

    Blahut-Arimoto sped up by squared extrapolation (see _iterates), at
    most three map evaluations per iteration.  It stops at the first
    iterate whose sandwich sum_i dist_i d_i <= capacity <= max_i d_i,
    d_i = D(row i || output), is narrower than tol, and returns its lower
    end; so the returned bits lie within tol below the capacity.  Raises
    NotConvergedError if max_iter iterations do not close the sandwich.
    """
    rows = [[float(x) for x in row] for row in matrix]
    gap = math.inf
    for _, (dist, d) in zip(range(max_iter), _iterates(rows)):
        lower = _dot(dist, d)
        gap = max(d) - lower
        if gap < tol:
            return dist, lower
    raise NotConvergedError(
        f"Blahut-Arimoto did not certify the capacity within "
        f"max_iter={max_iter} iterations: its sandwich is {gap:.3g} bits "
        f"wide, above tol={tol:g}")


def sweep(ps, tol: float = 1e-10):
    """Rows (p, alpha_opt, composite bits, two-level bits) for each p."""
    rows = []
    for p in ps:
        res = capacity_composite(p, tol=tol)
        rows.append((res.p, res.alpha, res.bits, capacity_binary_pair(p)))
    return rows


def render_svg(rows, width: int = 640, height: int = 420) -> str:
    """Minimal standalone SVG: both capacities against p."""
    if not rows:
        raise DomainError("nothing to plot")
    pad = 50
    xs = [r[0] for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    y_hi = max(max(r[2] for r in rows), max(r[3] for r in rows)) or 1.0

    def sx(p):
        return pad + (p - x_lo) / x_span * (width - 2 * pad)

    def sy(v):
        return height - pad - v / y_hi * (height - 2 * pad)

    def polyline(idx, colour):
        pts = " ".join(f"{sx(r[0]):.2f},{sy(r[idx]):.2f}" for r in rows)
        return (f'<polyline fill="none" stroke="{colour}" '
                f'stroke-width="1.5" points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black"/>',
        polyline(2, "#1f77b4"),
        polyline(3, "#d62728"),
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        'font-size="12">crossover probability p</text>',
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})" '
        'text-anchor="middle">capacity (bits/letter)</text>',
        f'<text x="{width - pad}" y="{pad}" text-anchor="end" '
        'font-size="12" fill="#1f77b4">three-level letters</text>',
        f'<text x="{width - pad}" y="{pad + 16}" text-anchor="end" '
        'font-size="12" fill="#d62728">two-level letters</text>',
        "</svg>",
    ]
    return "\n".join(parts)