"""Tests for the exact search oracle and the exhaustive checkers."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from composite_codec.core import DomainError, all_sequences, format_sequence
from composite_codec.error_model import (
    SizeLimitError,
    enumerate_ball,
    enumerate_del_ball,
    enumerate_sub_ball,
    parse_spec,
    raised_caps,
)
from composite_codec.oracle import (
    _clique_order,
    _components,
    _induced,
    _max_independent_set,
    _MisSolver,
    check_fractional_transversal,
    conflict_graph,
    exhaustive_decode_check,
    optimal_binary_single_error,
    optimal_code_size,
    set_bits,
)


def test_optimal_binary_single_error_known_values():
    # Largest binary single-error-correcting codes up to length 7.
    expected = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 8, 7: 16}
    for length, size in expected.items():
        result = optimal_binary_single_error(length)
        assert result.size == size
        assert len(result.witness) == size


def test_optimal_binary_witness_is_valid_code():
    result = optimal_binary_single_error(5)
    words = result.witness
    assert len(set(words)) == result.size
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert sum(x != y for x, y in zip(a, b)) >= 3


def _binary_single_error_by_distance(length):
    """The search over Hamming distances: words at distance <= 2 conflict."""
    space = list(all_sequences(length, 1))
    adj = [0] * len(space)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            if sum(a != b for a, b in zip(space[i], space[j])) <= 2:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(space[i] for i in _max_independent_set(adj))


@pytest.mark.parametrize("length", range(8))
def test_optimal_binary_single_error_matches_the_distance_search(length):
    result = optimal_binary_single_error(length)
    assert result.witness == _binary_single_error_by_distance(length)
    assert result.size == len(result.witness)


def test_optimal_binary_witness_is_lex_smallest():
    assert optimal_binary_single_error(3).witness == ((0, 0, 0), (1, 1, 1))
    assert optimal_binary_single_error(4).witness[0] == (0, 0, 0, 0)


def test_optimal_code_size_substitution_goldens():
    assert optimal_code_size(2, 2, parse_spec("(1,0)")).size == 4
    assert optimal_code_size(3, 2, parse_spec("(1,0)")).size == 9
    assert optimal_code_size(4, 2, parse_spec("(1,1)")).size == 5
    assert optimal_code_size(4, 2, parse_spec("t:1")).size == 11
    assert optimal_code_size(4, 2, parse_spec("t:2")).size == 3
    assert optimal_code_size(3, 3, parse_spec("t:1")).size == 11


def test_optimal_code_size_deletion_goldens():
    assert optimal_code_size(4, 2, parse_spec("d:(1,0)")).size == 31
    assert optimal_code_size(4, 2, parse_spec("d:1")).size == 25


@pytest.mark.parametrize("n, text, size", [
    # clique-constrained integer program (scipy.optimize.milp), ROADMAP item 2
    (5, "(1,0)", 50), (6, "(1,0)", 124), (5, "d:(1,0)", 80), (6, "d:(1,0)", 209),
    # (0,1) is (1,0) under the letter reversal s -> 2 - s, which swaps the
    # two rows and complements them; the same integer program gives 50
    (5, "(0,1)", 50),
])
def test_optimal_code_size_past_n4_goldens(n, text, size):
    assert optimal_code_size(n, 2, parse_spec(text)).size == size


def test_optimal_witness_balls_are_disjoint():
    spec = parse_spec("t:1")
    result = optimal_code_size(4, 2, spec)
    balls = [enumerate_sub_ball(c, 2, spec) for c in result.witness]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert not balls[i] & balls[j]


def test_optimal_deletion_witness_balls_are_disjoint():
    spec = parse_spec("d:1")
    result = optimal_code_size(3, 2, spec)
    balls = [enumerate_del_ball(c, 2, spec) for c in result.witness]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert not balls[i] & balls[j]


def test_optimal_witness_is_maximal():
    # No sequence outside the witness can be added without a ball collision.
    spec = parse_spec("(1,0)")
    result = optimal_code_size(3, 2, spec)
    code = set(result.witness)
    covered = set()
    for c in code:
        covered |= enumerate_sub_ball(c, 2, spec)
    for s in all_sequences(3, 2):
        if s not in code:
            assert enumerate_sub_ball(s, 2, spec) & covered


def _flips(word):
    yield word
    for i in range(len(word)):
        yield word[:i] + (1 - word[i],) + word[i:][1:]


def test_exhaustive_decode_check_passing():
    codewords = [(0, 0, 0), (1, 1, 1)]

    def decode(y):
        return (0, 0, 0) if sum(y) <= 1 else (1, 1, 1)

    report = exhaustive_decode_check(codewords, _flips, decode)
    assert report.ok
    assert report.cases == 8
    assert report.failures == ()


def test_exhaustive_decode_check_failing():
    codewords = [(0, 0, 0), (1, 1, 1)]

    def bad_decode(y):
        return (0, 0, 0)

    report = exhaustive_decode_check(codewords, _flips, bad_decode)
    assert not report.ok
    assert report.cases == 8
    assert len(report.failures) == 4
    codeword, received, decoded = report.failures[0]
    assert codeword == (1, 1, 1)
    assert decoded == (0, 0, 0)


def _per_case_check(codewords, outputs_fn, decode_fn):
    """The unmemoised loop: one decode per case."""
    failures = []
    cases = 0
    for c in codewords:
        for y in outputs_fn(c):
            cases += 1
            try:
                got = decode_fn(y)
            except Exception as exc:
                failures.append((c, y, _raised(exc)))
                continue
            if got != c:
                failures.append((c, y, got))
    return cases, tuple(failures)


def _raised(got):
    """An exception a decoder raised as its type and text, so that two
    raises of the same error compare equal; anything else as it is."""
    return (type(got), str(got)) if isinstance(got, Exception) else got


def _with_repeats(word):
    # repeated outputs, as deleting either of two equal neighbours gives
    outs = list(_flips(word))
    return outs + outs[::-1] + [word]


def _decoders():
    def majority(y):
        return (0, 0, 0) if sum(y) <= 1 else (1, 1, 1)

    def wrong(y):
        return (0, 0, 0)

    def gives_none(y):
        return None if y[0] != y[1] else majority(y)

    def raises(y):
        if sum(y) == 1:
            raise ValueError(f"no repair for {y}")
        return majority(y)
    return (majority, wrong, gives_none, raises)


@pytest.mark.parametrize("decoder", _decoders(), ids=lambda f: f.__name__)
def test_exhaustive_decode_check_matches_the_per_case_loop(decoder):
    # (1,0,0) shares outputs with both others and decodes wrongly itself
    codewords = [(0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 0, 0)]
    calls = []

    def counted(y):
        calls.append(y)
        return decoder(y)

    report = exhaustive_decode_check(codewords, _with_repeats, counted)
    failures = tuple((c, y, _raised(got)) for c, y, got in report.failures)
    assert (report.cases, failures) == _per_case_check(
        codewords, _with_repeats, decoder)
    # one decode per distinct output of each codeword, repeated codewords
    # included
    expected = [y for c in codewords for y in dict.fromkeys(_with_repeats(c))]
    assert calls == expected


def test_exhaustive_decode_check_counts_decoder_exceptions_as_failures():
    def decode(y):
        raise RuntimeError("decoder blew up")

    report = exhaustive_decode_check([(0, 0)], lambda c: [c], decode)
    assert not report.ok
    assert len(report.failures) == 1
    got = report.failures[0][2]
    assert (type(got), str(got)) == (RuntimeError, "decoder blew up")
    assert got.__traceback__ is None


def test_check_fractional_transversal_feasible():
    balls = {1: {"a", "b"}, 2: {"b", "c"}}
    report = check_fractional_transversal(
        [1, 2], balls.__getitem__, lambda out: Fraction(1, 2))
    assert report.feasible
    assert report.min_cover == Fraction(1)
    assert report.total_weight == Fraction(3, 2)
    assert report.outputs == {"a", "b", "c"}


def test_check_fractional_transversal_infeasible():
    balls = {1: {"a"}, 2: {"a", "b", "c"}}
    report = check_fractional_transversal(
        [1, 2], balls.__getitem__, lambda out: Fraction(1, 3))
    assert not report.feasible
    assert report.min_cover == Fraction(1, 3)


def _plain_transversal(inputs, ball_fn, weight_fn):
    """Worst cover and total weight, added one Fraction at a time."""
    weights: dict = {}
    covers = []
    for x in inputs:
        cover = Fraction(0)
        for y in ball_fn(x):
            if y not in weights:
                weights[y] = Fraction(weight_fn(y))
            cover += weights[y]
        covers.append(cover)
    return min(covers), sum(weights.values(), Fraction(0)), set(weights)


@pytest.mark.parametrize("seed", range(6))
def test_common_denominator_sums_match_fraction_sums(seed):
    rng = random.Random(seed)
    outputs = range(rng.randint(1, 40))
    weights = {y: Fraction(rng.randint(0, 30), rng.randint(1, 60))
               for y in outputs}
    if seed % 2:
        weights = {y: w.numerator for y, w in weights.items()}  # int weights
    balls = [rng.sample(outputs, rng.randint(1, len(outputs)))
             for _ in range(rng.randint(1, 12))]
    ball_fn = balls.__getitem__
    report = check_fractional_transversal(range(len(balls)), ball_fn, weights.get)
    plain = _plain_transversal(range(len(balls)), ball_fn, weights.get)
    assert (report.min_cover, report.total_weight, set(report.outputs)) == plain
    assert all(type(v) is Fraction for v in (report.min_cover, report.total_weight))


def test_size_caps_guard_exponential_searches():
    from composite_codec.error_model import SizeLimitError

    with pytest.raises(SizeLimitError):
        optimal_code_size(12, 2, parse_spec("(1,0)"))
    with pytest.raises(SizeLimitError):
        optimal_binary_single_error(-1)
    with pytest.raises(SizeLimitError, match="length <= 7"):
        optimal_binary_single_error(8)
    for caps in (8, 12):
        for length in (8, 9):
            with pytest.raises(SizeLimitError, match="length <= 7"), raised_caps(caps):
                optimal_binary_single_error(length)


def _pairwise_adjacency(balls):
    balls = [frozenset(b) for b in balls]
    adj = [0] * len(balls)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if balls[i] & balls[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("n, k, text", [
    (3, 2, "(1,0)"), (4, 2, "(1,1)"), (4, 2, "t:2"), (3, 3, "(1,1,0)"),
    (3, 3, "t:1"), (4, 2, "d:(1,0)"), (4, 2, "d:1"), (2, 4, "t:2"),
])
def test_conflict_graph_equals_pairwise_intersections(n, k, text):
    spec = parse_spec(text)
    if text.startswith("d:"):
        balls = [enumerate_del_ball(s, k, spec) for s in all_sequences(n, k)]
    else:
        balls = [enumerate_sub_ball(s, k, spec) for s in all_sequences(n, k)]
    assert conflict_graph(balls) == _pairwise_adjacency(balls)


def test_conflict_graph_of_repeated_and_disjoint_balls():
    assert conflict_graph([]) == []
    assert conflict_graph([{1, 2}, {3}, {2, 4}, {3}]) == [0b100, 0b1000, 0b1, 0b10]


# (n, k, spec, size, sha256 prefix of the newline-joined witness): the
# search grid of the exact-verify benchmark workload
WITNESS_GOLDENS = (
    (4, 2, "(1,0)", 21, "678a4e062f3b0dd4"),
    (4, 2, "(0,1)", 21, "d2c045aaf1ee97b0"),
    (4, 2, "(1,1)", 5, "5660aa63ba015f3e"),
    (4, 2, "(2,0)", 16, "c9e33bc2186d0ffa"),
    (4, 2, "(0,2)", 16, "134d2874131de6fc"),
    (4, 2, "(2,1)", 2, "32bf1280c8fae1a3"),
    (4, 2, "(1,2)", 2, "2dfb7f9ec9028740"),
    (4, 2, "(2,2)", 1, "9af15b336e6a9619"),
    (4, 2, "t:1", 11, "797466df6892cec8"),
    (4, 2, "t:2", 3, "92d8779445865186"),
    (4, 2, "t:3", 2, "c3e9a93338a7d2dd"),
    (4, 2, "d:(1,0)", 31, "7db5ced8635014bf"),
    (4, 2, "d:1", 25, "0fe441ec76a62b13"),
    (5, 2, "(1,1)", 8, "5c2c0f27122e4911"),
    (5, 2, "t:2", 7, "3cc2c368df7887c6"),
    (4, 3, "(1,0,0)", 90, "ee5bb049d4c9471c"),
    (4, 3, "(1,1,0)", 28, "e7dd447c081329f0"),
    (4, 3, "t:2", 10, "8fa12ef125104493"),
    (3, 4, "t:1", 20, "17024b0fbda2a0f8"),
)


@pytest.mark.parametrize("n, k, text, size, digest", WITNESS_GOLDENS)
def test_lex_smallest_witnesses_are_stable(n, k, text, size, digest):
    result = optimal_code_size(n, k, parse_spec(text))
    joined = "\n".join(format_sequence(w, k) for w in result.witness)
    assert result.size == size
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == digest


def test_search_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    optimal_code_size(6, 2, parse_spec("(0,0)"))
    assert sys.getrecursionlimit() == before


def _brute_force_mis(n_vertices, adj):
    """Size and lex-smallest maximum independent set over all subsets."""
    for size in range(n_vertices, -1, -1):
        for subset in itertools.combinations(range(n_vertices), size):
            if all(not (adj[v] >> u) & 1 for v, u in itertools.combinations(subset, 2)):
                return list(subset)
    return []


def _random_graph(rng):
    """Several components on shuffled labels: isolated vertices, cliques
    and random graphs."""
    n_vertices = rng.randint(0, 14)
    labels = list(range(n_vertices))
    rng.shuffle(labels)
    adj = [0] * n_vertices
    start = 0
    while start < n_vertices:
        part = labels[start:start + rng.randint(1, 6)]
        start += len(part)
        kind = rng.choice(("isolated", "clique", "random"))
        p = {"isolated": 0.0, "clique": 1.0, "random": 0.45}[kind]
        for v, u in itertools.combinations(part, 2):
            if rng.random() < p:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return n_vertices, adj


@pytest.mark.parametrize("seed", range(8))
def test_component_split_matches_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n_vertices, adj = _random_graph(rng)
        assert _max_independent_set(adj) == _brute_force_mis(n_vertices, adj)


# digest of the whole-graph search's suffix-optimum table c[], as the plain
# search loop (_PlainSolver below) computes it
C_TABLE_DIGESTS = {
    (4, 2, "(1,0)"): "dce6f6dcbe2b366c",
    (4, 2, "(0,1)"): "c044ba3bd02eeb50",
    (4, 2, "(1,1)"): "d766ca2070585341",
    (4, 2, "(2,0)"): "50fe85768050c30e",
    (4, 2, "(0,2)"): "c8ab470dec653c6a",
    (4, 2, "(2,1)"): "40e20912dfe69992",
    (4, 2, "(1,2)"): "7e7faabe7014bd8d",
    (4, 2, "(2,2)"): "f01349f714b05756",
    (4, 2, "t:1"): "fb47d51658229392",
    (4, 2, "t:2"): "c5421cdbb7acaa7d",
    (4, 2, "t:3"): "2c6fe1225d440800",
    (4, 2, "d:(1,0)"): "034646f4c62c6b34",
    (4, 2, "d:1"): "52ac221f31697398",
    (5, 2, "(1,1)"): "8f1b0c4886bc1b84",
    (5, 2, "t:2"): "4cf1390209a8db9e",
    (4, 3, "(1,0,0)"): "ad6c8b84d473c81c",
    (4, 3, "(1,1,0)"): "2817fe721c8c7aa8",
    (4, 3, "t:2"): "d85996518826ff0d",
    (3, 4, "t:1"): "80c5701700b772bd",
}


def _whole_graph_order(adj):
    """One clique order over every vertex, components and all."""
    return _clique_order((1 << len(adj)) - 1, adj)


def _c_digest(c):
    return hashlib.sha256(",".join(map(str, c)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n, k, text, size, digest", WITNESS_GOLDENS)
def test_component_split_matches_the_whole_graph_search(n, k, text, size, digest):
    spec = parse_spec(text)
    space = list(all_sequences(n, k))
    adj = conflict_graph(enumerate_ball(s, k, spec) for s in space)
    solver = _MisSolver(_whole_graph_order(adj), adj)
    whole = solver.lex_smallest_witness()
    assert len(whole) == size
    assert _c_digest(solver.c) == C_TABLE_DIGESTS[n, k, text]
    assert _max_independent_set(adj) == whole


def _plain_induced(adj, order):
    """_induced with a per-edge loop: each neighbour's new number, looked up."""
    pos = {v: r for r, v in enumerate(order)}
    return [sum(1 << pos[u] for u in set_bits(adj[v])) for v in order]


def _orders(adj):
    """Orders _induced accepts: the whole graph, each component in clique
    order and ascending, and every isolated vertex alone."""
    orders = [_whole_graph_order(adj), []]
    for comp in _components(adj):
        orders += [_clique_order(comp, adj), set_bits(comp)]
    orders += [[v] for v, row in enumerate(adj) if not row]
    return orders


@pytest.mark.parametrize("seed", range(4))
def test_induced_matches_the_plain_loop_on_random_graphs(seed):
    rng = random.Random(seed)
    graphs = [_random_graph(rng) for _ in range(40)] + [(1, [0]), (0, [])]
    for _, adj in graphs:
        for order in _orders(adj):
            assert _induced(adj, order) == _plain_induced(adj, order)


@pytest.mark.parametrize("n, k, text", [g[:3] for g in WITNESS_GOLDENS])
def test_induced_matches_the_plain_loop_on_the_search_graphs(n, k, text):
    spec = parse_spec(text)
    adj = conflict_graph(enumerate_ball(s, k, spec) for s in all_sequences(n, k))
    for order in _orders(adj):
        assert _induced(adj, order) == _plain_induced(adj, order)


class _PlainSolver(_MisSolver):
    """The search and the witness probe with their plain loops: every
    branch is entered and prunes itself on its first check."""

    def _expand(self, cand, size):
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

    def _holds(self, cand, need):
        """The witness probe with its plain loop."""
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
            if self._holds(cand & ~adj[i], need - 1):
                return True
        return False


@pytest.mark.parametrize("seed", range(4))
def test_search_keeps_the_plain_loop_table_and_witness(seed):
    rng = random.Random(seed)
    graphs = [_random_graph(rng) for _ in range(25)]
    for n, k, text in ((3, 2, "t:1"), (3, 3, "(1,1,0)"), (4, 2, "d:1"),
                       (3, 3, "t:2"))[seed:seed + 1]:
        space = list(all_sequences(n, k))
        spec = parse_spec(text)
        graphs.append((len(space),
                       conflict_graph(enumerate_ball(s, k, spec) for s in space)))
    for _, adj in graphs:
        order = _whole_graph_order(adj)
        fast, plain = _MisSolver(order, adj), _PlainSolver(order, adj)
        assert fast.c == plain.c
        assert fast.lex_smallest_witness() == plain.lex_smallest_witness()


@pytest.mark.parametrize("n, k, text", [
    (-1, -1, "length must be >= 0, got -1"),
    (-1, 2, "length must be >= 0, got -1"),
    (1, -1, "resolution k must be >= 1, got -1"),
    (1, 0, "resolution k must be >= 1, got 0"),
])
def test_optimal_code_size_checks_length_and_resolution(n, k, text):
    with pytest.raises(DomainError, match=f"^{text}$"):
        optimal_code_size(n, k, parse_spec("t:1"))


def test_optimal_code_size_refuses_a_long_space_from_its_length():
    # 3^6 = 729 fits the cap of 1024, 3^7 does not; 2^10 = 1024 fits it
    assert optimal_code_size(6, 2, parse_spec("(0,0)")).size == 729
    assert optimal_code_size(10, 1, parse_spec("(0)")).size == 1024
    for n, k in ((7, 2), (11, 1), (10 ** 9, 1), (10 ** 9, 2)):
        with pytest.raises(SizeLimitError,
                           match=f"^space size {k + 1}\\^{n} exceeds the oracle cap 1024$"):
            optimal_code_size(n, k, parse_spec("t:1"))
    with raised_caps(2048), pytest.raises(SizeLimitError, match="cap 2048$"):
        optimal_code_size(10 ** 9, 1, parse_spec("t:1"))
