"""Cardinality bounds, average ball sizes and sphere-packing values.

Everything is computed in exact rational arithmetic (fractions.Fraction);
the only inherently irrational quantity, sqrt(8n/6) in the total-2
generalized sphere packing bound, is bracketed by rationals and combined so
that the reported value is still a guaranteed upper bound.

Bound kinds:
  valid_upper / valid_lower  -- finite-n guarantees
  asymptotic_estimate        -- "up to (1+o(1))" only, never a finite-n bound
  average_value              -- ASPV-style benchmarks, not bounds at all
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt, lcm
from operator import add, mul

from composite_codec.core import DomainError, _check_length, _check_resolution, ceil_log
from composite_codec.error_model import (
    RADIUS_1,
    RADIUS_10,
    PerChannel,
    Total,
    _check_sub_spec,
    count_v,
    runs,
    shortened_rows,
    space_balls,
    sub_ball_pairs,
)
from composite_codec.substitution import _check_fiber_k

VALID_UPPER = "valid_upper"
VALID_LOWER = "valid_lower"
ASYMPTOTIC = "asymptotic_estimate"
AVERAGE = "average_value"


class ValidityRangeError(DomainError):
    """Arguments outside the range in which the formula is proven."""


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    kind: str
    validity_range: str = ""
    value_floor: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value_floor", self.value.numerator // self.value.denominator)

    def __str__(self):
        return format_rational(self.value)


def format_rational(x: Fraction) -> str:
    """Exact integers plain, non-integers as "p/q"."""
    return str(Fraction(x))


def is_prime_power(x: int) -> bool:
    if x < 2:
        return False
    for p in range(2, isqrt(x) + 1):
        if x % p == 0:
            while x % p == 0:
                x //= p
            return x == 1
    return True  # x itself is prime


def _check_two_rows(k: int, what: str) -> None:
    """The one rule of the formulas stated for k = 2 only."""
    if k != 2:
        raise DomainError(f"{what} is stated for k = 2, got k={k}")


def _is_first_channel_single(spec, k: int) -> bool:
    """Is spec the (1,0,...,0) family?  Such a vector with other than k
    entries raises DomainError."""
    if not (isinstance(spec, PerChannel) and spec.budgets
            and spec.budgets[0] == 1 and all(e == 0 for e in spec.budgets[1:])):
        return False
    _check_sub_spec(k, spec)
    return True


# ---------------------------------------------------------------------------
# upper bounds


def sphere_packing_upper(n: int, k: int, spec) -> BoundResult:
    """3^n / C(n, min(e0,e1)) or 3^n / C(n, e); k = 2 only."""
    _check_length(n)
    _check_sub_spec(k, spec)
    _check_two_rows(k, "sphere packing bound")
    e = min(spec.budgets) if isinstance(spec, PerChannel) else spec.errors
    if e > n:
        raise DomainError(f"error budget {e} exceeds length {n}")
    return BoundResult(Fraction(3 ** n, comb(n, e)), VALID_UPPER, "e <= n")


def asymptotic_upper(n: int, k: int, spec, tighter: bool = False) -> BoundResult:
    """Levenshtein-style asymptotic estimates; never finite-n valid; k = 2
    only.

    PerChannel: 3^n e0^e0 e1^e1 / (n/3)^{e0+e1}; with tighter=True the
    (2n/3)^{e0+e1} variant, requiring 0 < e1 <= e0 <= 2 e1.
    Total: 3^n / (4n/3e)^e for positive even e.
    """
    if n < 1:
        raise ValidityRangeError("asymptotic forms need n >= 1")
    _check_sub_spec(k, spec)
    _check_two_rows(k, "asymptotic bound")
    if isinstance(spec, PerChannel):
        e0, e1 = spec.budgets
        if e0 < 1 or e1 < 1:
            raise DomainError("asymptotic per-channel form needs e0, e1 > 0")
        denom_base = Fraction(2 * n, 3) if tighter else Fraction(n, 3)
        if tighter and not (e1 <= e0 <= 2 * e1):
            raise ValidityRangeError("tighter form needs e1 <= e0 <= 2*e1")
        value = Fraction(3 ** n) * e0 ** e0 * e1 ** e1 / denom_base ** (e0 + e1)
        return BoundResult(value, ASYMPTOTIC, "n -> infinity")
    e = spec.errors
    if e < 1 or e % 2 != 0:
        raise ValidityRangeError("asymptotic total form needs positive even e")
    value = Fraction(3 ** n) / Fraction(4 * n, 3 * e) ** e
    return BoundResult(value, ASYMPTOTIC, "n -> infinity")


def _sqrt_bracket(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) < hi = lo + 2^-39, lo on the 2^-39 grid."""
    lo = Fraction(isqrt(x.numerator * 4 ** 39 // x.denominator), 2 ** 39)
    return lo, lo + Fraction(1, 2 ** 39)


def _deletion_gspb(n: int, k: int) -> Fraction:
    """sum over rho of I_rho / rho, I_rho = sum_w N(n-1; rho; w) V(n; w; k).

    Each I_rho is summed in integers and one Fraction is formed over
    lcm(1..n-1).  With m = n - 1 and 0 < w < m, N(m; 2j+2; w) is
    2 a_j b_j and N(m; 2j+3; w) is a_{j+1} b_j + a_j b_{j+1}, where
    a = C(w-1, .) and b = C(m-w-1, .); complementing the row gives
    N(m; rho; w) = N(m; rho; m-w), so w runs to m/2 only.  Only the two
    current binomial rows are held: a steps by Pascal's rule, b (scaled
    by V) comes from the multiplicative formula.
    """
    m = n - 1
    half = m // 2
    even = [0] * half  # I_{2j+2} / 2
    odd = [0] * half   # I_{2j+3}
    head = [1]
    for w in range(1, half + 1):
        if w > 1:
            head = [1, *map(add, head, head[1:]), 1]
        top = m - w - 1
        tail = [count_v(n, w, k) + (count_v(n, m - w, k) if 2 * w < m else 0)]
        for j in range(w):
            tail.append(tail[-1] * (top - j) // (j + 1))
        even[:w] = map(add, even, map(mul, head, tail))
        odd[:w] = map(add, odd, map(mul, head, tail[1:]))
        odd[:w - 1] = map(add, odd, map(mul, head[1:], tail))
    scale = lcm(*range(1, n))
    total = scale * (count_v(n, 0, k) + count_v(n, m, k))  # rho = 1: constant rows
    for j in range(half):
        total += even[j] * (scale // (j + 1))
        if 2 * j + 3 <= m:
            total += odd[j] * (scale // (2 * j + 3))
    return Fraction(total, scale)


def gspb_upper(n: int, k: int, spec) -> BoundResult:
    """Generalized sphere packing upper bounds (fractional transversals).

    Supported: per-channel (1,0,...,0) and total-1 for any k; (1,1) for
    k = 2 and n >= 4; total-2 for k = 2 and n >= 48; the first-row deletion
    d:(1,0,...,0) for any k and n >= 2, the total weight of its weight
    rule.  d:1 gets the same sum: its balls contain the first-row ones, so
    a d:1 code is a d:(1,0,...,0) code.
    """
    _check_resolution(k)
    _check_length(n)
    if shortened_rows(spec, k) is not None:
        if n < 2:
            raise ValidityRangeError("deletion GSPB needs n >= 2")
        return BoundResult(_deletion_gspb(n, k), VALID_UPPER, "n >= 2")
    if _is_first_channel_single(spec, k):
        value = Fraction((k + 1) ** (n + 1) - (k - 1) ** (n + 1), 2 * (n + 1))
        return BoundResult(value, VALID_UPPER, "n >= 0")
    if isinstance(spec, Total) and spec.errors == 1:
        denom = Fraction(2 * k * n, k + 1) - 1
        if denom <= 0:
            raise ValidityRangeError("total-1 GSPB needs 2kn/(k+1) > 1")
        return BoundResult(Fraction((k + 1) ** n) / denom, VALID_UPPER, "n >= 1")
    if isinstance(spec, PerChannel) and spec.budgets == (1, 1):
        _check_two_rows(k, "(1,1) GSPB")
        if n < 4:
            raise ValidityRangeError("(1,1) GSPB needs n >= 4")
        value = Fraction(3 ** n) / (Fraction((n - 3) ** 2, 6))
        return BoundResult(value, VALID_UPPER, "n >= 4")
    if isinstance(spec, Total) and spec.errors == 2:
        _check_two_rows(k, "total-2 GSPB")
        if n < 48:
            raise ValidityRangeError("total-2 GSPB needs n >= 48")
        # value = g(r) * h(r) at r = sqrt(8n/6), with g(r) = r/(r-1)
        # decreasing and h(r) = 3^n / (8n^2/9 - 2nr/3) increasing in r;
        # evaluating g at the lower and h at the upper bracket end keeps
        # the product a valid upper bound.
        lo, hi = _sqrt_bracket(Fraction(8 * n, 6))
        g = lo / (lo - 1)
        h = Fraction(3 ** n) / (Fraction(8 * n * n, 9) - Fraction(2 * n, 3) * hi)
        return BoundResult(g * h, VALID_UPPER, "n >= 48")
    raise DomainError(f"no GSPB for k={k}, spec={spec}")


def gspb_weight_rule(n: int, k: int, spec):
    """Dual-feasible weights on channel outputs for the packing program.

    Every center's ball collects weight at least 1 under the returned
    function, so the total weight over all outputs is a valid upper bound
    on code size; for the closed-form specs it reproduces gspb_upper
    exactly.  Outputs are valid sequences for substitution specs and row
    tuples, row 0 one bit short, for the first-row deletion spec.  The
    other substitution specs weigh an output one over the smallest ball
    that holds it, found when the rule is asked for, in one walk over the
    whole space (so the enumeration cap applies here).
    """
    _check_resolution(k)
    _check_length(n)
    shortened = shortened_rows(spec, k)
    if shortened == (0,):
        # a deleted row has at most the runs of its source; at n = 1 each
        # ball is the one output with an empty row 0
        def weight(output):
            return Fraction(1, runs(output[0])) if output[0] else Fraction(1)
        return weight
    if shortened is not None:
        raise DomainError("no weight rule for the either-channel deletion spec")
    if _is_first_channel_single(spec, k):
        heavy = (k - 1, k)

        def weight(y):
            return Fraction(1, 1 + sum(1 for v in y if v in heavy))
        return weight
    if isinstance(spec, Total) and spec.errors == 1:
        # total-1 ball size is 1 + n + #interior letters, and one error
        # moves the interior count by at most one
        if n < 1:
            raise ValidityRangeError("total-1 weight rule needs n >= 1")

        def weight(y):
            return Fraction(1, n + sum(1 for v in y if 0 < v < k))
        return weight
    if isinstance(spec, (PerChannel, Total)):
        # one over the smallest ball among the centres around an output,
        # found in one pass of the walk: each ball lowers the running
        # minimum of its members, so one size is kept per output
        smallest: dict = {}
        for _, ball in space_balls(n, k, spec):
            size = len(ball)
            for y in ball:
                if smallest.get(y, size) >= size:
                    smallest[y] = size
        inverse = {size: Fraction(1, size) for size in set(smallest.values())}

        def weight(y):
            return inverse[smallest[tuple(y)]]
        return weight
    raise DomainError(f"no weight rule for spec {spec!r}")


# ---------------------------------------------------------------------------
# averages and ASPV


def average_ball(n: int, k: int, spec) -> BoundResult:
    """Average ball size over the whole space (exact rational)."""
    _check_resolution(k)
    shortened = shortened_rows(spec, k)
    if shortened is not None:
        if n < 1:
            raise ValidityRangeError("deletion averages need n >= 1")
        # the mean runs of row j, whose bits are 1 with chance (j+1)/(k+1)
        runs_sum = sum((k + 1) ** 2 + (n - 1) * 2 * (j + 1) * (k - j) for j in shortened)
        return BoundResult(Fraction(runs_sum, (k + 1) ** 2), AVERAGE, "n >= 1")
    return BoundResult(Fraction(sub_ball_pairs(n, k, spec), (k + 1) ** n),
                       AVERAGE, "n >= 0")


def aspv(n: int, k: int, spec) -> BoundResult:
    """Average sphere packing value: |space| / average ball size."""
    avg = average_ball(n, k, spec)
    return BoundResult(Fraction((k + 1) ** n) / avg.value, AVERAGE,
                       avg.validity_range)


# ---------------------------------------------------------------------------
# lower bounds


def lower_bound(n: int, k: int, spec, method: str) -> BoundResult:
    """Construction-based lower bounds.

    method:
      bch             -- total-e via BCH codes; k+1 must be a prime power
      coset           -- per-channel product of Hamming cosets
      fiber           -- the fiber-map construction for (1,0,...,0)
      lee             -- total-1 via a Lee-distance-3 code; even k
      vt_del          -- deletion (1,0,...,0): (k+1)^n/(n+1)
      vt1_del         -- deletion 1: (k+1)^n/(kn+1); also serves (1,0,...,0)
      tenengolts_del  -- systematic deletion (1,0), k = 2: 3^n/3^{ceil(log3 n)+3}
      tenengolts1_del -- systematic deletion 1, k = 2: 3^n/3^{ceil(log3 2n)+5};
                         also serves (1,0)
    """
    _check_resolution(k)
    _check_length(n)
    if method == "bch":
        if not isinstance(spec, Total):
            raise DomainError("bch takes a total spec")
        if not is_prime_power(k + 1):
            raise DomainError(f"bch needs k+1 a prime power, got {k + 1}")
        e = spec.errors
        if e < 1:
            raise DomainError("bch needs e >= 1")
        exponent = ceil_log(k + 1, n + 1) * -(-(k * (2 * e - 1)) // (k + 1)) + 1
        value = Fraction((k + 1) ** n, (k + 1) ** exponent)
        return BoundResult(value, VALID_LOWER, "k+1 prime power")
    if method == "coset":
        if not isinstance(spec, PerChannel):
            raise DomainError("coset takes a per-channel spec")
        _check_sub_spec(k, spec)
        value = Fraction((k + 1) ** n,
                         2 ** (ceil_log(2, n + 1) * sum(spec.budgets)))
        return BoundResult(value, VALID_LOWER, "n >= 0")
    if method == "fiber":
        if not _is_first_channel_single(spec, k):
            raise DomainError("fiber bound applies to the (1,0,...,0) family")
        _check_fiber_k(k)
        total = sum(comb(n, ell) * (k - 1) ** (n - ell)
                    * 2 ** (ell - ceil_log(2, ell + 1))
                    for ell in range(n + 1))
        return BoundResult(Fraction(total), VALID_LOWER, "k >= 2")
    if method == "lee":
        if not (isinstance(spec, Total) and spec.errors == 1):
            raise DomainError("lee bound applies to the total-1 family")
        if k % 2 != 0:
            raise DomainError("lee bound needs even k (odd alphabet)")
        value = Fraction((k + 1) ** n, (k + 1) ** ceil_log(k + 1, 2 * n + 1))
        return BoundResult(value, VALID_LOWER, "even k")
    if method in ("vt_del", "vt1_del", "tenengolts_del", "tenengolts1_del"):
        # a d:1 code also corrects d:(1,0), not the other way round
        first = method in ("vt_del", "tenengolts_del")
        shortened = shortened_rows(spec, k)
        if shortened is None or first and shortened != (0,):
            served = (RADIUS_10,) if first else (RADIUS_10, RADIUS_1)
            raise DomainError(f"{method} bound applies to {' and '.join(served)}")
        if method.startswith("tenengolts"):
            _check_two_rows(k, f"{method} bound")
        if n < 1:
            raise ValidityRangeError("deletion lower bounds need n >= 1")
        # the labels of c3 (n + 1) and of c5 (kn + 1) split the space
        divisor = (n + 1 if method == "vt_del"
                  else k * n + 1 if method == "vt1_del"
                  else 3 ** (ceil_log(3, n) + 3) if method == "tenengolts_del"
                  else 3 ** (ceil_log(3, 2 * n) + 5))
        return BoundResult(Fraction((k + 1) ** n, divisor), VALID_LOWER, "n >= 1")
    raise DomainError(f"unknown lower bound method {method!r}")


# ---------------------------------------------------------------------------
# the bound registry


def _lower(method: str):
    return lambda n, k, spec: lower_bound(n, k, spec, method)


#: every bound by its CLI name, in listing order, as fn(n, k, spec) -> a
#: BoundResult; fn raises DomainError where its bound does not apply.  The
#: entries look the bound functions up by module name when called, so a
#: rebound module attribute (a tracing wrapper) is the one they call.
BOUNDS = {
    "sphere": lambda n, k, spec: sphere_packing_upper(n, k, spec),
    "asymptotic": lambda n, k, spec: asymptotic_upper(n, k, spec),
    "tighter": lambda n, k, spec: asymptotic_upper(n, k, spec, tighter=True),
    "gspb": lambda n, k, spec: gspb_upper(n, k, spec),
    "average": lambda n, k, spec: average_ball(n, k, spec),
    "aspv": lambda n, k, spec: aspv(n, k, spec),
    **{f"lower:{name}": _lower(method) for name, method in (
        ("bch", "bch"), ("coset", "coset"), ("fiber", "fiber"), ("lee", "lee"),
        ("vt", "vt_del"), ("vt1", "vt1_del"), ("tenengolts", "tenengolts_del"),
        ("tenengolts1", "tenengolts1_del"))},
}


# ---------------------------------------------------------------------------
# table emission


def _single(k: int) -> PerChannel:
    return PerChannel((1,) + (0,) * (k - 1))


#: per table, its columns (header, bound name, k, spec) from the table's
#: k, e0, e1 and e; each table builds only the specs it reads
_TABLES = {
    "table1": lambda k, e0, e1, e: [
        (f"sp_({e0},{e1})", "sphere", 2, PerChannel((e0, e1))),
        (f"asym_({e0},{e1})", "asymptotic", 2, PerChannel((e0, e1))),
        (f"sp_t{e}", "sphere", 2, Total(e)),
        (f"asym_t{e}", "asymptotic", 2, Total(e))],
    "table2": lambda k, e0, e1, e: [
        ("gspb_(1,0,...,0)", "gspb", k, _single(k)),
        ("aspv_(1,0,...,0)", "aspv", k, _single(k)),
        ("gspb_t1", "gspb", k, Total(1)),
        ("aspv_t1", "aspv", k, Total(1))],
    "table3": lambda k, e0, e1, e: [
        ("gspb_(1,1)", "gspb", 2, PerChannel((1, 1))),
        ("aspv_(1,1)", "aspv", 2, PerChannel((1, 1))),
        ("asym_(1,1)", "tighter", 2, PerChannel((1, 1))),
        ("gspb_t2", "gspb", 2, Total(2)),
        ("aspv_t2", "aspv", 2, Total(2)),
        ("asym_t2", "asymptotic", 2, Total(2))],
    "table4": lambda k, e0, e1, e: [
        ("gspb_del", "gspb", 2, RADIUS_10),
        ("aspv_d(1,0)", "aspv", 2, RADIUS_10),
        ("aspv_d(1)", "aspv", 2, RADIUS_1)],
    "summary6": lambda k, e0, e1, e: [
        ("lower_(1,0,...,0)_fiber", "lower:fiber", k, _single(k)),
        ("upper_(1,0,...,0)_gspb", "gspb", k, _single(k)),
        ("lower_t1_lee", "lower:lee", k, Total(1)),
        ("upper_t1_gspb", "gspb", k, Total(1))],
    "summary7": lambda k, e0, e1, e: [
        ("lower_(1,1)_coset", "lower:coset", 2, PerChannel((1, 1))),
        ("upper_(1,1)_gspb", "gspb", 2, PerChannel((1, 1))),
        ("lower_t2_bch", "lower:bch", 2, Total(2)),
        ("upper_t2_gspb", "gspb", 2, Total(2)),
        (f"lower_t{e}_bch", "lower:bch", 2, Total(e)),
        (f"upper_t{e}_asym", "asymptotic", 2, Total(e)),
        (f"lower_({e0},{e1})_coset", "lower:coset", 2, PerChannel((e0, e1))),
        (f"upper_({e0},{e1})_asym", "asymptotic", 2, PerChannel((e0, e1)))],
    # gspb_upper gives d:1 the d:(1,0) sum, so both upper columns read one cell
    "summary8": lambda k, e0, e1, e: [
        ("lower_d(1,0)_vt", "lower:vt", 2, RADIUS_10),
        ("upper_d(1,0)_gspb", "gspb", 2, RADIUS_10),
        ("lower_d1_vt", "lower:vt1", 2, RADIUS_1),
        ("upper_d1_gspb", "gspb", 2, RADIUS_10)],
}

TABLE_KINDS = tuple(_TABLES)

#: per table, the parameters of emit_bound_table besides n_range it reads
TABLE_READS = {"table1": ("e0", "e1", "e"), "table2": ("k",), "table3": (),
               "table4": (), "summary6": ("k",), "summary7": ("e0", "e1", "e"),
               "summary8": ()}


def emit_bound_table(kind: str, n_range, k: int = 2,
                     e0: int = 1, e1: int = 1, e: int = 2):
    """Yield header then data rows (lists of strings) for the named table.

    table1   -- k=2 sphere packing vs asymptotic, specs (e0,e1) and total-e
    table2   -- single error, arbitrary k: GSPB and ASPV
    table3   -- two errors, k=2: GSPB, ASPV, asymptotic
    table4   -- single deletion, k=2: GSPB sum and the two ASPV columns,
                floored exactly as published
    summary6 -- single error, arbitrary k: lower and upper bounds
    summary7 -- k=2 substitution: lower and upper bounds
    summary8 -- k=2 deletion: lower and upper bounds

    A cell is empty wherever its bound raises DomainError.  Columns that
    name the same (bound, k, spec) share one value per row.
    """
    if kind not in TABLE_KINDS:
        raise DomainError(f"unknown table kind {kind!r}")
    _check_resolution(k)
    columns = _TABLES[kind](k, e0, e1, e)
    cells = list(dict.fromkeys(column[1:] for column in columns))
    where = [cells.index(column[1:]) for column in columns]
    yield ["n"] + [column[0] for column in columns]
    for n in n_range:
        values = []
        for name, cell_k, spec in cells:
            try:
                result = BOUNDS[name](n, cell_k, spec)
            except DomainError:
                values.append("")
            else:
                values.append(str(result.value_floor if kind == "table4" else result))
        yield [str(n)] + [values[i] for i in where]
