"""Reference computations the benchmark checks the program against.

Nothing here imports ``composite_codec``: every quantity is recomputed from
the channel model itself (k ordered binary rows, row j of letter s is 1
exactly when s >= k - j), so a fault in the package cannot hide behind the
same fault in its checker.

* ``parse_spec`` and ``sub_ball`` / ``del_ball``: the error balls by brute
  force, flipping rows and folding the columns back into letters;
* ``ball_size``: the same ball counted position by position, fast enough
  for long n;
* ``ilp_optimum``: the largest code whose balls are pairwise disjoint, as a
  clique-constrained integer program solved by ``scipy.optimize.milp``;
* ``gspb_del``: the paper's deletion sphere-packing sum from its binomial
  formula, and ``gspb_del_by_outputs``, the same value summed over every
  channel output;
* the syndrome arithmetic behind the codewords of ``codec-stream``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

DELETION_SPECS = ("d:(1,0)", "d:1")


def parse_spec(text: str):
    """("per", budgets), ("total", e) or ("del", text)."""
    text = text.strip()
    if text in DELETION_SPECS:
        return ("del", text)
    if text.startswith("t:"):
        return ("total", int(text[2:]))
    if text.startswith("(") and text.endswith(")"):
        return ("per", tuple(int(p) for p in text[1:-1].split(",")))
    raise ValueError(f"spec {text!r}")


def rows_of(s, k: int):
    """The k channel rows of the letters s, first channel first."""
    return tuple(tuple(1 if x >= k - j else 0 for x in s) for j in range(k))


def fold(rows):
    """Letters of the rows, or None when a column has a one above a zero."""
    out = []
    for col in zip(*rows):
        if any(a > b for a, b in zip(col, col[1:])):
            return None
        out.append(sum(col))
    return tuple(out)


def _flipped(row, positions):
    r = list(row)
    for i in positions:
        r[i] ^= 1
    return tuple(r)


def received_rows(s, k: int, spec):
    """Every raw row tuple within the substitution budget (a set)."""
    kind, budget = spec
    rows = rows_of(s, k)
    n = len(s)
    if kind == "per":
        options = [[_flipped(row, f) for t in range(e + 1)
                    for f in combinations(range(n), t)]
                   for row, e in zip(rows, budget)]
        return set(product(*options))
    if kind != "total":
        raise ValueError("substitution spec expected")
    out = set()
    cells = [(j, i) for j in range(k) for i in range(n)]
    for t in range(budget + 1):
        for flips in combinations(cells, t):
            new = [list(r) for r in rows]
            for j, i in flips:
                new[j][i] ^= 1
            out.add(tuple(tuple(r) for r in new))
    return out


def sub_ball(s, k: int, spec) -> set:
    """Letters reachable within the budget whose columns all fold."""
    ball = set()
    for rows in received_rows(s, k, spec):
        y = fold(rows)
        if y is not None:
            ball.add(y)
    return ball


def del_ball(s, spec) -> set:
    """Row pairs after one deletion: in row 0 (d:(1,0)) or either row (d:1)."""
    r0, r1 = rows_of(s, 2)
    out = {(r0[:i] + r0[i + 1:], r1) for i in range(len(r0))}
    if spec[1] == "d:1":
        out |= {(r0, r1[:i] + r1[i + 1:]) for i in range(len(r1))}
    return out


def ball(s, k: int, spec) -> set:
    return del_ball(s, spec) if spec[0] == "del" else sub_ball(s, k, spec)


def _letter_cost(x: int, y: int, k: int):
    """Rows flipped when letter x is read as y: those j with k-j in (lo, hi]."""
    lo, hi = min(x, y), max(x, y)
    return tuple(1 if lo < k - j <= hi else 0 for j in range(k))


def ball_size(s, k: int, spec) -> int:
    """Substitution ball size by a dynamic program over positions.

    The state is the budget spent so far (per channel, or in total); each
    position moves it by the rows that reading x as y flips.
    """
    kind, budget = spec
    if kind == "per":
        cap = tuple(budget)
        counts = {(0,) * k: 1}
        moves = {x: [_letter_cost(x, y, k) for y in range(k + 1)]
                 for x in range(k + 1)}
        for x in s:
            nxt: dict = {}
            for used, c in counts.items():
                for cost in moves[x]:
                    u = tuple(a + b for a, b in zip(used, cost))
                    if all(a <= b for a, b in zip(u, cap)):
                        nxt[u] = nxt.get(u, 0) + c
            counts = nxt
        return sum(counts.values())
    if kind != "total":
        raise ValueError("substitution spec expected")
    counts = [0] * (budget + 1)
    counts[0] = 1
    moves = {x: [sum(_letter_cost(x, y, k)) for y in range(k + 1)]
             for x in range(k + 1)}
    for x in s:
        nxt = [0] * (budget + 1)
        for used, c in enumerate(counts):
            if c:
                for cost in moves[x]:
                    if used + cost <= budget:
                        nxt[used + cost] += c
        counts = nxt
    return sum(counts)


def space(n: int, k: int):
    return list(product(range(k + 1), repeat=n))


def ilp_optimum(n: int, k: int, spec) -> int:
    """Largest code in {0..k}^n with pairwise disjoint balls.

    One binary variable per sequence and one packing row per channel
    output: the sequences whose ball holds that output sum to at most 1.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    words = space(n, k)
    index: dict = {}
    rows, cols = [], []
    for col, x in enumerate(words):
        for y in ball(x, k, spec):
            rows.append(index.setdefault(y, len(index)))
            cols.append(col)
    a = csr_matrix((np.ones(len(rows)), (rows, cols)),
                   shape=(len(index), len(words)))
    res = milp(-np.ones(len(words)), integrality=np.ones(len(words)),
               bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, -np.inf, 1))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(-res.fun))


def conflict_free(words, k: int, spec) -> bool:
    seen: set = set()
    for w in words:
        b = ball(w, k, spec)
        if seen & b:
            return False
        seen |= b
    return True


# ---------------------------------------------------------------------------
# the deletion sphere-packing bound


def runs(x) -> int:
    return 1 + sum(1 for a, b in zip(x, x[1:]) if a != b)


def _runs_weight(n: int, rho: int, w: int) -> int:
    """Binary words of length n with rho runs and weight w."""
    if rho == 1:
        return 1 if w in (0, n) else 0
    ones, zeros = (rho + 1) // 2, rho // 2

    def parts(total, k):  # compositions of total into k positive parts
        return comb(total - 1, k - 1) if k >= 1 and total >= k else 0

    return (parts(w, ones) * parts(n - w, zeros)
            + parts(w, zeros) * parts(n - w, ones))


def gspb_del(n: int) -> Fraction:
    """sum over w, rho of N(n-1; rho; w) V(n; w) / rho.

    A first-row output y0 (length n-1, weight w, rho runs) gets weight
    1/rho; V(n; w) = 2^(n-w) + w 2^(n-w-1) counts the second rows it is
    paired with.
    """
    total = Fraction(0)
    for w in range(n):
        v = 2 ** (n - w) + w * 2 ** (n - w - 1)
        for rho in range(1, n):
            total += Fraction(_runs_weight(n - 1, rho, w) * v, rho)
    return total


def gspb_del_by_outputs(n: int) -> Fraction:
    """The same value by brute force: 1/runs(y0) over all outputs (y0, s1)."""
    outputs = set()
    for s in product(range(3), repeat=n):
        outputs |= del_ball(s, ("del", "d:(1,0)"))
    return sum((Fraction(1, runs(y0)) for y0, _ in outputs), Fraction(0))


def gspb_first_channel(n: int, k: int) -> Fraction:
    """Weight 1/(1 + #letters in {k-1, k}) summed over {0..k}^n, by counts."""
    return sum((Fraction(comb(n, m) * 2 ** m * (k - 1) ** (n - m), m + 1)
                for m in range(n + 1)), Fraction(0))


#: table4 as published, n = 2..10: floors of gspb_del, ASPV d:(1,0), ASPV d:1.
TABLE4_PUBLISHED = {
    2: (7, 6, 3), 3: (18, 14, 7), 4: (47, 34, 17), 5: (129, 87, 43),
    6: (357, 226, 113), 7: (1001, 596, 298), 8: (2836, 1595, 797),
    9: (8106, 4320, 2160), 10: (23329, 11809, 5904),
}


def aspv_del(n: int, either: bool) -> Fraction:
    """3^n over the average deletion ball size.

    The average number of runs of a row is 1 + 4(n-1)/9 (a column pair of
    uniform letters differs in row 0 with probability 4/9); d:1 doubles it.
    """
    avg = 1 + Fraction(4 * (n - 1), 9)
    return Fraction(3 ** n) / (2 * avg if either else avg)


# ---------------------------------------------------------------------------
# syndrome arithmetic for drawing codewords


def hamming_syndrome(row) -> int:
    """XOR of the 1-based positions of the ones."""
    syn = 0
    for i, b in enumerate(row, start=1):
        if b:
            syn ^= i
    return syn


def hamming_bits(length: int) -> int:
    """Check bits of the (shortened) Hamming code: ceil(log2(length + 1))."""
    return length.bit_length()


def vt_syndrome(x) -> int:
    return sum(i for i, b in enumerate(x, start=1) if b)


def checksum(s) -> int:
    return sum(i * x for i, x in enumerate(s, start=1)) % (2 * len(s) + 1)


def _ceil_log3(x: int) -> int:
    t, p = 0, 1
    while p < x:
        p *= 3
        t += 1
    return t


def ternary_digits(s):
    """Ascent syndrome of s in base 3, then the symbol sum mod 3."""
    m = len(s)
    syn = sum(j for j in range(1, m) if s[j] >= s[j - 1]) % m
    width = _ceil_log3(m)
    digits = []
    for _ in range(width):
        digits.append(syn % 3)
        syn //= 3
    return tuple(reversed(digits)) + (sum(s) % 3,)


def ternary_codeword(s):
    marker = (s[-1] + 1) % 3
    return tuple(s) + (marker, marker) + ternary_digits(s)


def marker_row_codeword(s):
    r0 = rows_of(s, 2)[0]
    marker = 2 if r0[-1] == 0 else 0
    return tuple(s) + (marker, marker) + ternary_digits(r0)


def marker_pair_codeword(s):
    r0, r1 = rows_of(s, 2)
    marker = {0: 2, 1: 1, 2: 0}[s[-1]]
    return tuple(s) + (marker, marker, 0, 2) + ternary_digits(r0 + r1)


#: the systematic constructions and their codewords
SYSTEMATIC = {"c4": marker_row_codeword, "c6": marker_pair_codeword,
              "ternary": ternary_codeword}
