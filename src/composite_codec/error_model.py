"""Composite error balls for substitutions and deletions.

Substitution specs come in two flavours: a per-channel budget vector
(e_0, ..., e_{k-1}) or a total budget e spread arbitrarily over the k
channels.  The ball of a sequence s collects every valid reconstruction
reachable within the budget (invalid ones, i.e. containing '?', are not
sequences and are excluded by definition).  walk_sub_balls enumerates the
balls of many centres in one depth-first walk over their letters, sharing
the budget layers of each centre prefix; one centre's ball is its
one-path case, and space_balls walks all of Sigma_{k+1}^n.

Deletion balls assume a deletion always occurs: the affected row comes
back one bit short and the others intact, so ball elements are row
tuples, not composite sequences.

Also home to the counting functions feeding the deletion bound, at any
k: runs, N(n; rho; w), V(n; w; k) and the first-row output count.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import getitem

from composite_codec.core import (
    DomainError,
    _check_length,
    _check_q2_letters,
    all_sequences,
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
_FIRST_ROW = re.compile(r"d:\(1(,0)*\)")  # d:(1,0,...,0), one entry per row


def shortened_rows(spec, k: int):
    """The rows a deletion spec may shorten at resolution k, None for a
    substitution spec: any row for d:1, row 0 for d:(1,0,...,0) with k
    entries.  The one place that knows the deletion specs' rows."""
    if spec == RADIUS_1:
        return tuple(range(k))
    if not (isinstance(spec, str) and _FIRST_ROW.fullmatch(spec)):
        return None
    entries = spec.count(",") + 1
    if entries != k:
        raise DomainError(
            f"deletion spec {spec} has {entries} entries, expected k={k}")
    return (0,)


def parse_spec(text: str):
    """Parse "(e0,e1,...)", "t:e", "d:(1,0,...,0)" or "d:1"."""
    text = text.strip()
    if text == RADIUS_1 or _FIRST_ROW.fullmatch(text):
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

    The only way to raise a cap; None leaves the caps as they are.  The
    previous override is restored on exit.
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
    return default


# ---------------------------------------------------------------------------
# substitution balls
#
# Letter sigma decomposes into the column (0,)*(k-sigma) + (1,)*sigma, so
# turning sigma into tau flips rows k - max(sigma, tau) .. k - min(sigma,
# tau) - 1 and nothing else.  y is in the ball of s exactly when these
# per-letter costs, summed over positions, fit the budget; the condition is
# symmetric in s and y.  A ball therefore depends only on the letter
# composition of its centre, which is what the count below uses.


def has_closed_form(k: int, spec) -> bool:
    """Whether a closed formula for the ball size is known for (k, spec).

    Only labels output; the count does not use it.
    """
    if isinstance(spec, PerChannel):
        if all(e == 0 for e in spec.budgets):
            return True
        if spec.budgets[0] == 1 and all(e == 0 for e in spec.budgets[1:]):
            return True
        return k == 2
    if isinstance(spec, Total):
        return spec.errors <= 1 or k == 2
    return False


def _check_sub_spec(k: int, spec) -> None:
    if isinstance(spec, PerChannel):
        if len(spec.budgets) != k:
            raise DomainError(
                f"budget vector {spec} has {len(spec.budgets)} entries, expected k={k}")
    elif not isinstance(spec, Total):
        raise DomainError(f"not a substitution spec: {spec!r}")


def _check_enumeration_cap(n: int, spec) -> None:
    if isinstance(spec, PerChannel) and sum(spec.budgets) <= 2:
        cap = _cap(10)
    else:
        cap = _cap(8)
    if n > cap:
        raise SizeLimitError(f"n={n} exceeds enumeration cap {cap}")


class _Moves(dict):
    """(sigma, budget left) -> the (tau, budget left after) moves that fit,
    filled on first lookup."""

    def __init__(self, cost):
        super().__init__()
        self.cost = cost

    def __missing__(self, key):
        sigma, left = key
        fits = self[key] = [
            (tau, rest) for tau, c in enumerate(self.cost[sigma])
            for rest in [tuple(a - b for a, b in zip(left, c))]
            if min(rest) >= 0]
        return fits


@lru_cache(maxsize=None)
def _letter_moves(k: int, spec) -> tuple:
    """Budget of spec and its move table.

    Budgets and costs are tuples: one entry per channel (the rows flipped)
    for per-channel specs, a single |sigma - tau| for total specs.  The
    table memoises a pure function of its key, so every caller may share
    it.
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
    return budget, _Moves(cost)


def _move_count(k: int, spec, groups) -> int:
    """Ways to change positions within the budget, counted by group.

    groups: (letters, copies, stay) triples, copies positions that each hold
    one of letters and count stay ways when left unchanged.  C(copies, j)
    picks the j positions that change; those take one move each, in
    position order, keyed by the budget they leave.  Every change costs at
    least one unit, so j stops at the budget.
    """
    budget, moves = _letter_moves(k, spec)
    layer = {budget: 1}
    for letters, copies, stay in groups:
        out: dict = {}
        for j in range(copies + 1):
            weight = comb(copies, j) * stay ** (copies - j)
            nxt: dict = {}
            for left, ways in layer.items():
                out[left] = out.get(left, 0) + weight * ways
                for sigma in letters:
                    for tau, rest in moves[sigma, left]:
                        if tau != sigma:
                            nxt[rest] = nxt.get(rest, 0) + ways
            if not nxt:
                break
            layer = nxt
        layer = out
    return sum(layer.values())


def sub_ball_size(s, k: int, spec) -> int:
    """Exact size of the substitution error ball centred at s, counted over
    the letter composition of s."""
    _check_sub_spec(k, spec)
    counts = [s.count(sigma) for sigma in range(k + 1)]
    if k < 1 or sum(counts) != len(s):
        _check_q2_letters(s, k)  # names the letter the counts missed
    return _move_count(k, spec, [((sigma,), copies, 1)
                                 for sigma, copies in enumerate(counts)])


def sub_ball_pairs(n: int, k: int, spec) -> int:
    """(centre, member) pairs over Sigma_{k+1}^n: the sum of every ball size.

    The count of sub_ball_size with every letter allowed at every position.
    """
    _check_sub_spec(k, spec)
    _check_length(n)
    return _move_count(k, spec, [(range(k + 1), n, k + 1)])


def walk_sub_balls(columns, k: int, spec):
    """Every centre whose letter i lies in columns[i], with its ball as a
    list, each member once: (centre, members) pairs, lazily, in the
    lexicographic order of the centres when each column is ascending.

    One depth-first walk.  A layer maps each remaining budget to the member
    prefixes that leave it; extending a centre prefix by one letter extends
    its layer by one position, so the layer of each centre prefix is built
    once and shared by every centre below it, and the last position adds
    its letter straight into the members.  Every member is a sequence whose
    per-channel (or total) substitution cost from its centre fits the
    budget; column-inconsistent received rows never arise.
    """
    _check_sub_spec(k, spec)
    _check_enumeration_cap(len(columns), spec)
    _check_q2_letters([sigma for column in columns for sigma in column], k)
    budget, moves = _letter_moves(k, spec)
    tails = [(tau,) for tau in range(k + 1)]
    n = len(columns)
    centre = [0] * n

    def walk(depth, layer):
        for sigma in columns[depth]:
            centre[depth] = sigma
            if depth == n - 1:
                members: list = []
                for left, prefixes in layer.items():
                    for tau, _ in moves[sigma, left]:
                        tail = tails[tau]
                        members += [p + tail for p in prefixes]
                yield tuple(centre), members
                continue
            nxt: dict = {}
            for left, prefixes in layer.items():
                for tau, rest in moves[sigma, left]:
                    tail = tails[tau]
                    step = [p + tail for p in prefixes]
                    if rest in nxt:
                        nxt[rest] += step
                    else:
                        nxt[rest] = step
            yield from walk(depth + 1, nxt)

    if n:
        yield from walk(0, {budget: [()]})
    else:
        yield (), [()]


def enumerate_sub_ball(s, k: int, spec) -> set:
    """The ball as an explicit set: the one-path case of walk_sub_balls.

    Equals the valid reconstructions of enumerate_received_rows.  Always
    contains s.
    """
    (_, members), = walk_sub_balls([(sigma,) for sigma in s], k, spec)
    return set(members)


def enumerate_in_ball(y, k: int, spec) -> set:
    """Centres x whose ball contains y (the inbound ball of y).

    Substitution balls are symmetric, so this is the ball of y itself.
    """
    return enumerate_sub_ball(tuple(y), k, spec)


# ---------------------------------------------------------------------------
# substitution balls: raw channel outputs


def _shells(row, radius: int) -> list:
    """shells[t]: the rows at Hamming distance exactly t from row, for
    t = 0..radius (empty past the row's length)."""
    n = len(row)
    shells = []
    for t in range(radius + 1):
        shell = []
        for flips in combinations(range(n), t):
            r = list(row)
            for i in flips:
                r[i] ^= 1
            shell.append(tuple(r))
        shells.append(shell)
    return shells


def enumerate_received_rows(s, k: int, spec) -> set:
    """All raw row tuples obtainable within the error budget.

    Unlike enumerate_sub_ball this keeps column-inconsistent outputs: it is
    what a decoder actually receives.  Always contains the clean rows.
    Each row's flip variants are built once.  Channels err independently,
    so a per-channel spec gives the product of each row's radius-e_j ball,
    and a total spec the union, over the splits (t_0, ..., t_{k-1}) of at
    most e flips, of the products of the rows' distance-t_j shells; the
    splits give disjoint sets, since t_j is row j's distance.
    """
    _check_sub_spec(k, spec)
    _check_enumeration_cap(len(s), spec)
    rows = decompose_sequence(s, k)
    if isinstance(spec, PerChannel):
        balls = [[r for shell in _shells(row, e) for r in shell]
                 for row, e in zip(rows, spec.budgets)]
        return set(product(*balls))
    shells = [_shells(row, spec.errors) for row in rows]
    out: set = set()
    for split in product(range(spec.errors + 1), repeat=k):
        if sum(split) <= spec.errors:
            out.update(product(*map(getitem, shells, split)))
    return out


# ---------------------------------------------------------------------------
# deletions


def runs(x) -> int:
    """Number of maximal runs of the binary sequence x."""
    x = tuple(x)
    if not x:
        raise DomainError("runs of the empty sequence are undefined")
    return 1 + sum(1 for i in range(1, len(x)) if x[i] != x[i - 1])


def single_deletions(x) -> set:
    """All distinct words obtainable by deleting one symbol (one per run)."""
    return {x[:i] + x[i + 1:] for i in range(len(x))}


def _deletion_rows(s, k: int, spec) -> tuple:
    """The rows of s and those of them spec may shorten."""
    s = tuple(s)
    if not s:
        raise DomainError("deletion balls need n >= 1")
    rows = decompose_sequence(s, k)
    shortened = shortened_rows(spec, k)
    if shortened is None:
        raise DomainError(f"not a deletion spec: {spec!r}")
    return rows, shortened


def del_ball_size(s, k: int, spec) -> int:
    """The runs of the rows spec may shorten, summed: one output per run."""
    rows, shortened = _deletion_rows(s, k, spec)
    return sum(runs(rows[j]) for j in shortened)


def enumerate_del_ball(s, k: int, spec) -> set:
    """Row tuples with exactly one of the rows spec may shorten one bit
    short and the others intact (a deletion always occurs)."""
    rows, shortened = _deletion_rows(s, k, spec)
    return {rows[:j] + (y,) + rows[j + 1:]
            for j in shortened for y in single_deletions(rows[j])}


def ball_size(s, k: int, spec) -> int:
    """Size of the error ball of s under any spec."""
    if shortened_rows(spec, k) is None:
        return sub_ball_size(s, k, spec)
    return del_ball_size(s, k, spec)


def enumerate_ball(s, k: int, spec) -> set:
    """The error ball of s under any spec: sequences for substitution specs,
    row tuples for deletion specs."""
    if shortened_rows(spec, k) is None:
        return enumerate_sub_ball(s, k, spec)
    return enumerate_del_ball(s, k, spec)


def space_balls(n: int, k: int, spec):
    """(centre, ball) for every centre of Sigma_{k+1}^n, lazily and in
    lexicographic order: one walk_sub_balls pass for a substitution spec,
    enumerate_del_ball per centre for a deletion spec."""
    if shortened_rows(spec, k) is None:
        _check_length(n)
        _check_sub_spec(k, spec)
        _check_enumeration_cap(n, spec)  # before n columns are built
        return walk_sub_balls([range(k + 1)] * n, k, spec)
    return ((s, enumerate_del_ball(s, k, spec)) for s in all_sequences(n, k))


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


def count_v(n: int, w: int, k: int) -> int:
    """V(n; w; k) = k^{n-w-1} (k + w(k-1)), 2^{n-w} + w 2^{n-w-1} at k = 2.

    For a first-row output y0 of length n-1 and weight w, counts the rows
    1..k-1 that complete some one-insertion supersequence of y0 to a
    sequence.
    """
    if not 0 <= w <= n - 1:
        raise DomainError(f"V({n}; {w}) needs 0 <= w <= n-1")
    return k ** (n - w - 1) * (k + w * (k - 1))


def vertex_set_size(n: int, k: int) -> int:
    """|X| = k(k+1)^{n-1} + (k-1)(n-1)(k+1)^{n-2}: every first-row deletion
    output (y0, rows 1..k-1), the sum of V(n; w; k) over y0."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n == 1:
        return k
    return k * (k + 1) ** (n - 1) + (k - 1) * (n - 1) * (k + 1) ** (n - 2)
