"""Composite error balls for substitutions and deletions.

Substitution specs come in two flavours: a per-channel budget vector
(e_0, ..., e_{k-1}) or a total budget e spread arbitrarily over the k
channels.  The ball of a sequence s collects every valid reconstruction
reachable within the budget (invalid ones, i.e. containing '?', are not
sequences and are excluded by definition).

Deletion balls (k = 2 only) assume a deletion always occurs: the affected
row comes back one bit short, so ball elements are row *pairs*, not
composite sequences.

Also home to the counting functions feeding the deletion bound: runs,
N(n; rho; w), V(n; w) and the channel-output vertex count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from composite_codec.core import (
    DomainError,
    _check_q2_letters,
    decompose_sequence,
)

# ---------------------------------------------------------------------------
# error specs


@dataclass(frozen=True)
class PerChannel:
    """Budget e_i substitutions in channel i."""

    budgets: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.budgets):
            raise DomainError(f"negative budget in {self.budgets}")

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.budgets) + ")"


@dataclass(frozen=True)
class Total:
    """At most e substitutions in total, split arbitrarily."""

    errors: int

    def __post_init__(self):
        if self.errors < 0:
            raise DomainError(f"negative budget {self.errors}")

    def __str__(self):
        return f"t:{self.errors}"


RADIUS_10 = "d:(1,0)"  # single deletion, known to be in the first channel
RADIUS_1 = "d:1"       # single deletion in exactly one (unknown) channel


def parse_spec(text: str):
    """Parse "(e0,e1,...)", "t:e", "d:(1,0)" or "d:1"."""
    text = text.strip()
    if text == RADIUS_10 or text == RADIUS_1:
        return text
    try:
        if text.startswith("t:"):
            return Total(int(text[2:]))
        if text.startswith("(") and text.endswith(")"):
            parts = text[1:-1].split(",")
            return PerChannel(tuple(int(p) for p in parts))
    except ValueError:
        raise DomainError(f"malformed error spec {text!r}") from None
    raise DomainError(f"unrecognized error spec {text!r}")


class SizeLimitError(DomainError):
    """Instance exceeds the enumeration cap."""


_caps_override: int | None = None


@contextmanager
def raised_caps(value: int | None):
    """Raise every enumeration cap to at least value inside the block.

    Takes precedence over COMPOSITE_CODEC_CAPS; None leaves the caps as
    they are.  The previous override is restored on exit.
    """
    global _caps_override
    previous = _caps_override
    if value is not None:
        _caps_override = value
    try:
        yield
    finally:
        _caps_override = previous


def _cap(default: int) -> int:
    if _caps_override is not None:
        return max(default, _caps_override)
    raised = os.environ.get("COMPOSITE_CODEC_CAPS")
    if raised:
        try:
            return max(default, int(raised))
        except ValueError:
            pass
    return default


# ---------------------------------------------------------------------------
# substitution balls: closed forms


def sub_ball_size(s, k: int, spec) -> int:
    """Exact size of the substitution error ball centred at s.

    Closed forms: per-channel (1,0,...,0) and total-1 for any k, any total-e
    for k = 2.  Every other (k, spec) is counted letter by letter.
    """
    _check_sub_spec(k, spec)
    if isinstance(spec, PerChannel):
        if all(e == 0 for e in spec.budgets):
            return 1
        if spec.budgets[0] == 1 and all(e == 0 for e in spec.budgets[1:]):
            # single error in the first channel: only k-1 <-> k toggles
            m = sum(1 for x in s if x in (k - 1, k))
            return 1 + m
    else:
        if spec.errors == 0:
            return 1
        if spec.errors == 1:
            m = sum(1 for x in s if 1 <= x <= k - 1)
            return 1 + len(s) + m
        if k == 2:
            return _ball_size_total(s, spec.errors)
    return _count_ball(s, k, spec)


def _binom(a: int, b: int) -> int:
    """C(a, b) with the zero convention for b > a or negative arguments."""
    return comb(a, b) if 0 <= b <= a else 0


def _ball_size_total(s, e: int) -> int:
    """k = 2 total-e ball size (j zeros, m ones, r twos in s)."""
    n = len(s)
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


def has_closed_form(k: int, spec) -> bool:
    if isinstance(spec, PerChannel):
        if all(e == 0 for e in spec.budgets):
            return True
        if spec.budgets[0] == 1 and all(e == 0 for e in spec.budgets[1:]):
            return True
        return k == 2
    if isinstance(spec, Total):
        return spec.errors <= 1 or k == 2
    return False


# ---------------------------------------------------------------------------
# substitution balls: letter by letter
#
# Letter sigma decomposes into the column (0,)*(k-sigma) + (1,)*sigma, so
# turning sigma into tau flips rows k - max(sigma, tau) .. k - min(sigma,
# tau) - 1 and nothing else.  y is in the ball of s exactly when these
# per-letter costs, summed over positions, fit the budget; the condition is
# symmetric in s and y.


def _check_sub_spec(k: int, spec) -> None:
    if isinstance(spec, PerChannel):
        if len(spec.budgets) != k:
            raise DomainError(
                f"budget vector {spec} has {len(spec.budgets)} entries, expected k={k}")
    elif not isinstance(spec, Total):
        raise DomainError(f"not a substitution spec: {spec!r}")


def _check_enumeration_cap(n: int, spec, max_n: int | None) -> None:
    if max_n is not None:
        cap = max_n
    elif isinstance(spec, PerChannel) and sum(spec.budgets) <= 2:
        cap = _cap(10)
    else:
        cap = _cap(8)
    if n > cap:
        raise SizeLimitError(f"n={n} exceeds enumeration cap {cap}")


@lru_cache(maxsize=None)
def _letter_costs(k: int, spec) -> tuple:
    """Budget of spec, its (k+1) x (k+1) cost table and a move cache.

    Budgets and costs are tuples: one entry per channel (the rows flipped)
    for per-channel specs, a single |sigma - tau| for total specs.  The
    cache maps (sigma, budget left) to the (tau, budget left after) moves
    that fit; the letter pass fills it as states are reached.  It memoises
    a pure function of its key, so every caller may share it.
    """
    if isinstance(spec, PerChannel):
        budget = spec.budgets
        cost = [[tuple(1 if k - max(sigma, tau) <= j < k - min(sigma, tau) else 0
                       for j in range(k))
                 for tau in range(k + 1)] for sigma in range(k + 1)]
    else:
        budget = (spec.errors,)
        cost = [[(abs(sigma - tau),) for tau in range(k + 1)]
                for sigma in range(k + 1)]
    return budget, cost, {}


def _letter_pass(s, k: int, spec, start, extend):
    """Position-by-position pass over s keyed by the remaining budget.

    Each layer maps a remaining budget to the value carried by the prefixes
    that leave it; extend(value, tau) carries a value one letter on (as a
    new object), and values meeting at one budget are combined with +=.
    """
    _check_q2_letters(s, k)
    budget, cost, moves = _letter_costs(k, spec)
    layer = {budget: start}
    for sigma in s:
        nxt: dict = {}
        for left, value in layer.items():
            fits = moves.get((sigma, left))
            if fits is None:
                fits = moves[sigma, left] = [
                    (tau, rest) for tau, c in enumerate(cost[sigma])
                    for rest in [tuple(a - b for a, b in zip(left, c))]
                    if min(rest) >= 0]
            for tau, rest in fits:
                step = extend(value, tau)
                if rest in nxt:
                    nxt[rest] += step
                else:
                    nxt[rest] = step
        layer = nxt
    return layer.values()


def _count_ball(s, k: int, spec) -> int:
    """Exact ball size, counted letter by letter."""
    return sum(_letter_pass(s, k, spec, 1, lambda ways, tau: ways))


def enumerate_sub_ball(s, k: int, spec, max_n: int | None = None) -> set:
    """The ball as an explicit set, built letter by letter.

    Every sequence whose per-channel (or total) substitution cost from s
    fits the budget, each produced once; column-inconsistent received rows
    never arise.  Equals the valid reconstructions of
    enumerate_received_rows.  Always contains s.
    """
    _check_sub_spec(k, spec)
    _check_enumeration_cap(len(s), spec, max_n)
    layer = _letter_pass(s, k, spec, [()],
                         lambda prefixes, tau: [p + (tau,) for p in prefixes])
    return {y for ys in layer for y in ys}


def enumerate_in_ball(y, k: int, spec) -> set:
    """Centres x whose ball contains y (the inbound ball used by the GSPB).

    Substitution balls are symmetric, so this is the ball of y itself.
    """
    return enumerate_sub_ball(tuple(y), k, spec)


# ---------------------------------------------------------------------------
# substitution balls: definitional enumeration


def _flip_sets(n: int, budget: int):
    for t in range(budget + 1):
        yield from combinations(range(n), t)


def _apply_flips(rows, flip_sets):
    new_rows = []
    for row, flips in zip(rows, flip_sets):
        r = list(row)
        for i in flips:
            r[i] ^= 1
        new_rows.append(tuple(r))
    return new_rows


def enumerate_received_rows(s, k: int, spec, max_n: int | None = None) -> set:
    """All raw row tuples obtainable within the error budget.

    Unlike enumerate_sub_ball this keeps column-inconsistent outputs: it is
    what a decoder actually receives.  Always contains the clean rows.
    Per-channel specs iterate position subsets of size <= e_i per channel;
    total specs additionally iterate the budget split.
    """
    _check_sub_spec(k, spec)
    _check_enumeration_cap(len(s), spec, max_n)
    rows = decompose_sequence(s, k)
    out: set = set()
    if isinstance(spec, PerChannel):
        _raw_per_channel(rows, list(spec.budgets), 0, [], out)
    else:
        _raw_total(rows, k, spec.errors, 0, [], out)
    return out


def _raw_per_channel(rows, budgets, channel, chosen, out):
    if channel == len(rows):
        out.add(tuple(_apply_flips(rows, chosen)))
        return
    for flips in _flip_sets(len(rows[0]), budgets[channel]):
        chosen.append(flips)
        _raw_per_channel(rows, budgets, channel + 1, chosen, out)
        chosen.pop()


def _raw_total(rows, k, remaining, channel, chosen, out):
    if channel == k:
        out.add(tuple(_apply_flips(rows, chosen)))
        return
    for flips in _flip_sets(len(rows[0]), remaining):
        chosen.append(flips)
        _raw_total(rows, k, remaining - len(flips), channel + 1, chosen, out)
        chosen.pop()


# ---------------------------------------------------------------------------
# deletions (k = 2)


def runs(x) -> int:
    """Number of maximal runs of the binary sequence x."""
    x = tuple(x)
    if not x:
        raise DomainError("runs of the empty sequence are undefined")
    return 1 + sum(1 for i in range(1, len(x)) if x[i] != x[i - 1])


def _single_deletions(row) -> set:
    return {row[:i] + row[i + 1:] for i in range(len(row))}


def del_ball_size(s, spec) -> int:
    """rho(s_0) for radius (1,0); rho(s_0) + rho(s_1) for radius 1."""
    s = tuple(s)
    if not s:
        raise DomainError("deletion balls need n >= 1")
    r0, r1 = decompose_sequence(s, 2)
    if spec == RADIUS_10:
        return runs(r0)
    if spec == RADIUS_1:
        return runs(r0) + runs(r1)
    raise DomainError(f"not a deletion spec: {spec!r}")


def enumerate_del_ball(s, spec) -> set:
    """Row pairs (y0, y1) with exactly one row one bit short.

    A deletion always occurs, so the pair for radius (1,0) is
    (subsequence of s_0, s_1); radius 1 adds the mirror pairs.
    """
    s = tuple(s)
    if not s:
        raise DomainError("deletion balls need n >= 1")
    r0, r1 = decompose_sequence(s, 2)
    if spec == RADIUS_10:
        return {(y0, r1) for y0 in _single_deletions(r0)}
    if spec == RADIUS_1:
        first = {(y0, r1) for y0 in _single_deletions(r0)}
        second = {(r0, y1) for y1 in _single_deletions(r1)}
        return first | second
    raise DomainError(f"not a deletion spec: {spec!r}")


def _check_deletion_k(k: int) -> None:
    if k != 2:
        raise DomainError("deletion balls are stated for k = 2")


def ball_size(s, k: int, spec) -> int:
    """Size of the error ball of s under any spec (deletion specs: k = 2)."""
    if spec in (RADIUS_10, RADIUS_1):
        _check_deletion_k(k)
        return del_ball_size(s, spec)
    return sub_ball_size(s, k, spec)


def enumerate_ball(s, k: int, spec) -> set:
    """The error ball of s under any spec: sequences for substitution specs,
    row pairs for the deletion specs (k = 2)."""
    if spec in (RADIUS_10, RADIUS_1):
        _check_deletion_k(k)
        return enumerate_del_ball(s, spec)
    return enumerate_sub_ball(s, k, spec)


# ---------------------------------------------------------------------------
# counting functions for the deletion bound


def count_runs_weight(n: int, rho: int, w: int) -> int:
    """N(n; rho; w): binary sequences of length n, rho runs, weight w."""
    if n < 1 or not 1 <= rho <= n or not 0 <= w <= n:
        raise DomainError(f"bad arguments N({n}; {rho}; {w})")
    if rho == 1:
        return 1 if w in (0, n) else 0
    if w in (0, n):
        return 0  # two or more runs force both symbols to appear
    hi, lo = (rho + 1) // 2, rho // 2
    return (comb(w - 1, hi - 1) * comb(n - w - 1, lo - 1)
            + comb(w - 1, lo - 1) * comb(n - w - 1, hi - 1))


def count_v(n: int, w: int) -> int:
    """V(n; w) = 2^{n-w} + w 2^{n-w-1}.

    For a first-channel output y0 of length n-1 and weight w, counts the
    second rows s1 that dominate some one-insertion supersequence of y0.
    """
    if not 0 <= w <= n - 1:
        raise DomainError(f"V({n}; {w}) needs 0 <= w <= n-1")
    return 2 ** (n - w) + w * 2 ** (n - w - 1)


def vertex_set_size_10(n: int) -> int:
    """|X_(1,0)| = 2*3^{n-1} + (n-1)*3^{n-2}: all (y0, s1) channel outputs."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n == 1:
        return 2
    return 2 * 3 ** (n - 1) + (n - 1) * 3 ** (n - 2)
