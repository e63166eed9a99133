"""Exact brute-force references for small instances.

These routines are deliberately independent from the constructions and
closed forms elsewhere in the package: they enumerate, they do not reuse
formulas.  They exist so that everything else can be checked against ground
truth on small parameters.

optimal_code_size solves maximum independent set on the conflict graph
(two sequences conflict when their error balls share an output) with an
exact branch-and-bound, run on each connected component (a spec that
never flips some channel gives many small ones), each given one clique
order on the whole graph and renumbered once, a row at a time as a
string of bits.  The balls come from one error_model.space_balls walk
over the whole space.  Witnesses are deterministic: among all optima the
lexicographically smallest codeword list is returned.

exhaustive_decode_check counts every error case but decodes each distinct
channel output of a codeword once.  check_fractional_transversal adds
each ball's weights as integers over one common denominator.
"""

from __future__ import annotations

import sys
from collections.abc import KeysView
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul

from composite_codec.core import _check_length, _check_resolution, all_sequences
from composite_codec.error_model import PerChannel, SizeLimitError, _cap, space_balls


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: tuple


@dataclass(frozen=True)
class DecodeCheckReport:
    cases: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class TransversalReport:
    min_cover: Fraction
    total_weight: Fraction
    outputs: KeysView  # the union of all balls

    @property
    def feasible(self) -> bool:
        return self.min_cover >= 1


# ---------------------------------------------------------------------------
# maximum independent set


def set_bits(mask: int) -> list:
    """Set bit positions of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _induced(adj: list, order: list) -> list:
    """Adjacency masks of the subgraph on the vertices listed in order,
    vertex order[r] renumbered r; order must hold every neighbour of the
    vertices it lists.

    Each row is renumbered as a string: its bits, least significant first
    (a bit above the graph pads the string to every vertex), are picked in
    reversed order by one itemgetter and read back as a binary number.
    """
    if not order:
        return []
    top = 1 << len(adj)
    pick = itemgetter(*reversed(order))
    return [int("".join(pick(bin(adj[v] | top)[::-1])), 2) for v in order]


def _clique_order(vertices: int, adj: list) -> list:
    """The vertices in the bitmask vertices, greedy-clique by greedy-clique.

    Suffixes of this order shed whole cliques at a time, which keeps the
    suffix-optimum table of the search below tight.
    """
    unassigned = vertices
    order = []
    while unassigned:
        v = (unassigned & -unassigned).bit_length() - 1
        unassigned &= unassigned - 1
        order.append(v)
        common = adj[v] & unassigned
        while common:
            u = (common & -common).bit_length() - 1
            unassigned &= ~(1 << u)
            order.append(u)
            common &= adj[u] & ~(1 << u)
    return order


class _MisSolver:
    """Exact maximum independent set, Ostergard style.

    One component's vertices are renumbered once, in their clique order on
    the whole graph; c[i] holds the exact optimum of the suffix {i, ...,
    N-1}, built from the back.  Each suffix may improve the running optimum
    by at most one, so its search only asks whether the vertices after i
    that i leaves free hold as many as the running optimum; the witness is
    built from the same yes/no question.
    """

    def __init__(self, order: list, adj: list):
        self.n = len(order)
        self.order = order
        self.adj = _induced(adj, order)
        self.c = [0] * (self.n + 1)
        self.best = 0
        self._solve()

    def _holds(self, cand: int, need: int) -> bool:
        """Does cand hold need pairwise non-adjacent vertices?

        A branch is pruned before its call when its candidates cannot
        give the vertices it needs, by count or by the c[] table.
        """
        if need <= 0:
            return True
        adj, c = self.adj, self.c
        count = cand.bit_count()
        while count >= need:
            low = cand & -cand
            i = low.bit_length() - 1
            if c[i] < need:
                return False
            if need == 1:
                return True
            cand ^= low
            count -= 1
            rest = cand & ~adj[i]
            if (rest.bit_count() >= need - 1
                    and c[(rest & -rest).bit_length() - 1] >= need - 1
                    and self._holds(rest, need - 1)):
                return True
        return False

    def _solve(self):
        suffix = 0
        for i in range(self.n - 1, -1, -1):
            suffix |= 1 << i
            if self._holds(suffix & ~self.adj[i] & ~(1 << i), self.best):
                self.best += 1
            self.c[i] = self.best

    def lex_smallest_witness(self) -> list:
        """The lexicographically smallest maximum independent set, built
        vertex by vertex in ascending graph id: a vertex is taken when the
        vertices it leaves free still hold the rest of an optimum."""
        chosen: list = []
        remaining = (1 << self.n) - 1
        for v, rv in sorted(zip(self.order, range(self.n))):
            if not (remaining >> rv) & 1:
                continue
            rest = remaining & ~(1 << rv) & ~self.adj[rv]
            if self._holds(rest, self.best - len(chosen) - 1):
                chosen.append(v)
                if len(chosen) == self.best:
                    break
                remaining = rest
            else:
                remaining &= ~(1 << rv)
        return chosen


def _components(adj: list) -> list:
    """Connected components as vertex bitmasks, by breadth-first search."""
    unseen = (1 << len(adj)) - 1
    components = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in set_bits(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        components.append(comp)
    return components


def _max_independent_set(adj: list) -> list:
    """The lexicographically smallest maximum independent set, ascending.

    Each connected component is solved on its own: a maximum set of a
    disjoint union is a union of maximum sets of the parts, and the
    witness probe's choice for a vertex depends only on its component, so
    the union of each component's lex-smallest set is the lex-smallest set
    of the whole graph.
    """
    chosen = []
    # the searches recurse once per vertex added to a set; the limit is
    # process-wide, so it is put back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(adj) + 200))
    try:
        for comp in _components(adj):
            solver = _MisSolver(_clique_order(comp, adj), adj)
            chosen += solver.lex_smallest_witness()
    finally:
        sys.setrecursionlimit(limit)
    return sorted(chosen)


def conflict_graph(balls) -> list:
    """Adjacency bitmasks: bit j of adj[i] is set when balls i and j share
    an output (i != j).

    Built through one output -> centres bitmask index, so the cost is the
    total ball size rather than one set intersection per pair.
    """
    balls = list(balls)
    centres: dict = {}
    for i, ball in enumerate(balls):
        bit = 1 << i
        for y in ball:
            centres[y] = centres.get(y, 0) | bit
    adj = []
    for i, ball in enumerate(balls):
        mask = 0
        for y in ball:
            mask |= centres[y]
        adj.append(mask & ~(1 << i))
    return adj


def optimal_code_size(n: int, k: int, spec) -> OracleResult:
    """Largest code in Sigma_{k+1}^n whose error balls are pairwise disjoint.

    Exact and exponential: refuses spaces larger than the size cap
    (default 1024 sequences, raised by error_model.raised_caps).  The
    space holds at least 2^n sequences, so a length of at least the cap's
    bit length is refused before (k+1)^n is computed.
    """
    _check_length(n)
    _check_resolution(k)
    cap = _cap(1024)
    if n >= cap.bit_length() or (k + 1) ** n > cap:
        raise SizeLimitError(
            f"space size {k + 1}^{n} exceeds the oracle cap {cap}")
    space = list(all_sequences(n, k))
    adj = conflict_graph(ball for _, ball in space_balls(n, k, spec))
    chosen = _max_independent_set(adj)
    return OracleResult(len(chosen), tuple(space[i] for i in chosen))


def optimal_binary_single_error(length: int) -> OracleResult:
    """Largest binary code of the given length correcting one substitution,
    i.e. with minimum Hamming distance 3: the k = 1 composite code under
    the per-channel spec (1,).

    Lengths up to 7 are searched, each in well under a second.  Longer
    ones are refused whatever the caps (error_model.raised_caps): length 8
    is a famously hard search instance that can run for a very long
    time."""
    if not 0 <= length <= 7:
        raise SizeLimitError("optimal_binary_single_error supports length <= 7")
    return optimal_code_size(length, 1, PerChannel((1,)))


# ---------------------------------------------------------------------------
# generic harnesses


def exhaustive_decode_check(codewords, outputs_fn, decode_fn) -> DecodeCheckReport:
    """Run decode_fn on every channel output of every codeword.

    outputs_fn(c) enumerates the channel outputs to test for codeword c.
    A case fails when decode_fn(output) != c or raises; failures are
    (c, output, what decode_fn gave) triples, an exception it raised
    standing for what it gave (traceback dropped), collected rather than
    raised so callers can report all of them.  Every case is counted and
    reported, but decode_fn runs once per distinct output of a codeword
    (several error patterns often give the same output), so it must be a
    function of the output alone.
    """
    failures = []
    cases = 0
    for c in codewords:
        wrong: dict = {}  # output -> None if it decodes to c, else (what it gave,)
        for y in outputs_fn(c):
            cases += 1
            if y in wrong:
                got = wrong[y]
            else:
                try:
                    got = decode_fn(y)
                except Exception as exc:  # decoder crash is also a failure
                    got = (exc.with_traceback(None),)
                else:
                    got = None if got == c else (got,)
                wrong[y] = got
            if got is not None:
                failures.append((c, y, got[0]))
    return DecodeCheckReport(cases, tuple(failures))


def _common_sum(numerators, denominators: list) -> Fraction:
    """The sum of the fractions n/d, added as integers over one common
    denominator, the lcm of the denominators."""
    distinct = set(denominators)
    common = lcm(*distinct)
    scale = {d: common // d for d in distinct}
    return Fraction(sum(map(mul, numerators, map(scale.__getitem__, denominators))),
                    common)


def check_fractional_transversal(inputs, ball_fn, weight_fn) -> TransversalReport:
    """Verify a fractional transversal in exact rational arithmetic.

    For every input x the ball weights must sum to at least 1; the report
    carries the worst cover sum, the union of all balls (outputs) and the
    total weight over it (the sphere-packing objective the weights certify).
    weight_fn runs once per output, whose weight is kept as a numerator and
    a denominator; each cover, and the total, is one integer sum over a
    common denominator (_common_sum), the same rational as the Fraction
    additions member by member.
    """
    num: dict = {}
    den: dict = {}
    min_cover = None
    for x in inputs:
        ball = list(ball_fn(x))
        for y in set(ball).difference(num):
            w = Fraction(weight_fn(y))
            num[y], den[y] = w.numerator, w.denominator
        cover = _common_sum(map(num.__getitem__, ball),
                            list(map(den.__getitem__, ball)))
        if min_cover is None or cover < min_cover:
            min_cover = cover
    if min_cover is None:
        raise ValueError("no inputs given")
    return TransversalReport(min_cover, _common_sum(num.values(), list(den.values())),
                             num.keys())
