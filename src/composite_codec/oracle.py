"""Exact brute-force references for small instances.

These routines are deliberately independent from the constructions and
closed forms elsewhere in the package: they enumerate, they do not reuse
formulas.  They exist so that everything else can be checked against ground
truth on small parameters.

optimal_code_size solves maximum independent set on the conflict graph
(two sequences conflict when their error balls share an output) with an
exact branch-and-bound.  Witnesses are deterministic: among all optima the
lexicographically smallest codeword list is returned.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from composite_codec.core import all_sequences
from composite_codec.error_model import (
    RADIUS_1,
    RADIUS_10,
    SizeLimitError,
    _cap,
    enumerate_del_ball,
    enumerate_sub_ball,
)


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

    @property
    def feasible(self) -> bool:
        return self.min_cover >= 1


# ---------------------------------------------------------------------------
# maximum independent set


def _clique_order(n_vertices: int, adj: list) -> list:
    """Vertices listed greedy-clique by greedy-clique.

    Suffixes of this order shed whole cliques at a time, which keeps the
    suffix-optimum table of the search below tight.
    """
    unassigned = (1 << n_vertices) - 1
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

    Vertices are renumbered clique by clique; c[i] holds the exact optimum
    of the suffix {i, ..., N-1}, built from the back.  Each suffix search
    may improve the running optimum by at most one, so it stops at the
    first improving set, and the c[] values prune everything afterwards.
    """

    def __init__(self, n_vertices: int, adj: list):
        self.n = n_vertices
        order = _clique_order(n_vertices, adj)
        self.pos = pos = [0] * n_vertices
        for r, v in enumerate(order):
            pos[v] = r
        self.order = order
        self.adj = radj = [0] * n_vertices
        for v in range(n_vertices):
            rest, a = adj[v], 0
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                a |= 1 << pos[u]
            radj[pos[v]] = a
        self.c = [0] * (n_vertices + 1)
        self.best = 0
        self._found = False
        self._solve()

    def _expand(self, cand: int, size: int):
        if not cand:
            if size > self.best:
                self.best = size
                self._found = True
            return
        adj, c = self.adj, self.c
        while cand:
            if size + cand.bit_count() <= self.best:
                return
            i = (cand & -cand).bit_length() - 1
            if size + c[i] <= self.best:
                return
            cand &= cand - 1
            rest = cand & ~adj[i]
            if not rest:
                if size + 1 > self.best:
                    self.best = size + 1
                    self._found = True
                    return
            else:
                self._expand(rest, size + 1)
                if self._found:
                    return

    def _solve(self):
        suffix = 0
        for i in range(self.n - 1, -1, -1):
            suffix |= 1 << i
            self._found = False
            self._expand(suffix & ~self.adj[i] & ~(1 << i), 1)
            self.c[i] = self.best

    def _probe(self, cand: int, need: int) -> bool:
        """Does cand contain an independent set of the given size?"""
        if need <= 0:
            return True
        adj, c = self.adj, self.c
        while cand:
            if cand.bit_count() < need:
                return False
            i = (cand & -cand).bit_length() - 1
            if c[i] < need:
                return False
            cand &= cand - 1
            if self._probe(cand & ~adj[i], need - 1):
                return True
        return False

    def lex_smallest_witness(self) -> list:
        """The lexicographically smallest maximum independent set, built
        vertex by vertex in original order with feasibility probes."""
        chosen: list = []
        remaining = (1 << self.n) - 1
        for v in range(self.n):
            rv = self.pos[v]
            if not (remaining >> rv) & 1:
                continue
            rest = remaining & ~(1 << rv) & ~self.adj[rv]
            if self._probe(rest, self.best - len(chosen) - 1):
                chosen.append(v)
                if len(chosen) == self.best:
                    break
                remaining = rest
            else:
                remaining &= ~(1 << rv)
        return chosen


def _max_independent_set(n_vertices: int, adj: list) -> list:
    if n_vertices == 0:
        return []
    # the searches recurse once per vertex added to a set; the limit is
    # process-wide, so it is put back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * n_vertices + 200))
    try:
        return _MisSolver(n_vertices, adj).lex_smallest_witness()
    finally:
        sys.setrecursionlimit(limit)


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


def _ball_fn(k: int, spec):
    if spec in (RADIUS_10, RADIUS_1):
        return lambda s: enumerate_del_ball(s, spec)
    return lambda s: enumerate_sub_ball(s, k, spec)


def optimal_code_size(n: int, k: int, spec) -> OracleResult:
    """Largest code in Sigma_{k+1}^n whose error balls are pairwise disjoint.

    Exact and exponential: refuses spaces larger than the size cap
    (default 1024 sequences, raise via COMPOSITE_CODEC_CAPS).
    """
    space_size = (k + 1) ** n
    if space_size > _cap(1024):
        raise SizeLimitError(
            f"space size {space_size} exceeds the oracle cap; "
            "set COMPOSITE_CODEC_CAPS to raise it")
    space = list(all_sequences(n, k))
    ball_of = _ball_fn(k, spec)
    adj = conflict_graph(map(ball_of, space))
    chosen = _max_independent_set(len(space), adj)
    return OracleResult(len(chosen), tuple(space[i] for i in chosen))


def optimal_binary_single_error(length: int) -> OracleResult:
    """Largest binary code of the given length correcting one substitution,
    i.e. with minimum Hamming distance 3.

    Exact for length <= 8.  Lengths up to 7 solve in well under a second;
    length 8 is a famously hard search instance and can run for a very
    long time, so reach for it only when that cost is acceptable."""
    if not 0 <= length <= 8:
        raise SizeLimitError("optimal_binary_single_error supports length <= 8")
    space = list(all_sequences(length, 1))
    adj = [0] * len(space)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            dist = sum(a != b for a, b in zip(space[i], space[j]))
            if dist <= 2:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    chosen = _max_independent_set(len(space), adj)
    return OracleResult(len(chosen), tuple(space[i] for i in chosen))


# ---------------------------------------------------------------------------
# generic harnesses


def exhaustive_decode_check(codewords, outputs_fn, decode_fn) -> DecodeCheckReport:
    """Run decode_fn on every channel output of every codeword.

    outputs_fn(c) enumerates the channel outputs to test for codeword c.
    A case fails when decode_fn(output) != c; failures are collected, not
    raised, so callers can report all of them.
    """
    failures = []
    cases = 0
    for c in codewords:
        for y in outputs_fn(c):
            cases += 1
            try:
                got = decode_fn(y)
            except Exception as exc:  # decoder crash is also a failure
                failures.append((c, y, f"raised {type(exc).__name__}: {exc}"))
                continue
            if got != c:
                failures.append((c, y, got))
    return DecodeCheckReport(cases, tuple(failures))


def check_fractional_transversal(inputs, ball_fn, weight_fn) -> TransversalReport:
    """Verify a fractional transversal in exact rational arithmetic.

    For every input x the ball weights must sum to at least 1; the report
    carries the worst cover sum and the total weight over the union of all
    balls (the sphere-packing objective the weights certify).
    """
    weights: dict = {}
    min_cover = None
    for x in inputs:
        cover = Fraction(0)
        for y in ball_fn(x):
            w = weights.get(y)
            if w is None:
                w = weights[y] = Fraction(weight_fn(y))
            cover += w
        if min_cover is None or cover < min_cover:
            min_cover = cover
    if min_cover is None:
        raise ValueError("no inputs given")
    return TransversalReport(min_cover, sum(weights.values(), Fraction(0)))
