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
from math import comb, isqrt

from composite_codec.core import DomainError
from composite_codec.error_model import (
    RADIUS_1,
    RADIUS_10,
    PerChannel,
    Total,
    count_runs_weight,
    count_v,
    enumerate_in_ball,
    runs,
    sub_ball_size,
)

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
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ceil_log(base: int, x: int) -> int:
    """Smallest t >= 0 with base**t >= x, by integer comparison."""
    if base < 2 or x < 1:
        raise DomainError(f"ceil_log needs base >= 2 and x >= 1, got ({base}, {x})")
    t, power = 0, 1
    while power < x:
        power *= base
        t += 1
    return t


def is_prime_power(x: int) -> bool:
    if x < 2:
        return False
    for p in range(2, isqrt(x) + 1):
        if x % p == 0:
            while x % p == 0:
                x //= p
            return x == 1
    return True  # x itself is prime


def _is_first_channel_single(spec) -> bool:
    return (isinstance(spec, PerChannel) and spec.budgets
            and spec.budgets[0] == 1 and all(e == 0 for e in spec.budgets[1:]))


# ---------------------------------------------------------------------------
# upper bounds


def sphere_packing_upper(n: int, spec) -> BoundResult:
    """3^n / C(n, min(e0,e1)) or 3^n / C(n, e); k = 2 only."""
    if isinstance(spec, PerChannel):
        if len(spec.budgets) != 2:
            raise DomainError("sphere packing bound is stated for k = 2")
        e = min(spec.budgets)
    elif isinstance(spec, Total):
        e = spec.errors
    else:
        raise DomainError(f"not a substitution spec: {spec!r}")
    if e > n:
        raise DomainError(f"error budget {e} exceeds length {n}")
    return BoundResult(Fraction(3 ** n, comb(n, e)), VALID_UPPER, "e <= n")


def asymptotic_upper(n: int, spec, tighter: bool = False) -> BoundResult:
    """Levenshtein-style asymptotic estimates; never finite-n valid.

    PerChannel: 3^n e0^e0 e1^e1 / (n/3)^{e0+e1}; with tighter=True the
    (2n/3)^{e0+e1} variant, requiring 0 < e1 <= e0 <= 2 e1.
    Total: 3^n / (4n/3e)^e for positive even e.
    """
    if isinstance(spec, PerChannel):
        if len(spec.budgets) != 2:
            raise DomainError("asymptotic bound is stated for k = 2")
        e0, e1 = spec.budgets
        if e0 < 1 or e1 < 1:
            raise DomainError("asymptotic per-channel form needs e0, e1 > 0")
        denom_base = Fraction(2 * n, 3) if tighter else Fraction(n, 3)
        if tighter and not (e1 <= e0 <= 2 * e1):
            raise ValidityRangeError("tighter form needs e1 <= e0 <= 2*e1")
        value = Fraction(3 ** n) * e0 ** e0 * e1 ** e1 / denom_base ** (e0 + e1)
        return BoundResult(value, ASYMPTOTIC, "n -> infinity")
    if isinstance(spec, Total):
        e = spec.errors
        if e < 1 or e % 2 != 0:
            raise ValidityRangeError("asymptotic total form needs positive even e")
        value = Fraction(3 ** n) / Fraction(4 * n, 3 * e) ** e
        return BoundResult(value, ASYMPTOTIC, "n -> infinity")
    raise DomainError(f"not a substitution spec: {spec!r}")


def _sqrt_bracket(x: Fraction, steps: int = 40) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi, tightened by bisection."""
    if x < 0:
        raise DomainError("negative radicand")
    root = isqrt(x.numerator // x.denominator)
    lo, hi = Fraction(root), Fraction(root + 2)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def gspb_upper(n: int, k: int, spec) -> BoundResult:
    """Generalized sphere packing upper bounds (fractional transversals).

    Supported: per-channel (1,0,...,0) and total-1 for any k; (1,1) for
    k = 2 and n >= 4; total-2 for k = 2 and n >= 48; deletion radius (1,0)
    (also the radius-1 column of the published table) for k = 2 and n >= 2.
    """
    if spec in (RADIUS_10, RADIUS_1):
        if k != 2:
            raise DomainError("deletion bounds are stated for k = 2")
        if n < 2:
            raise ValidityRangeError("deletion GSPB needs n >= 2")
        total = Fraction(0)
        for w in range(n):
            v = count_v(n, w)
            for rho in range(1, n):
                cnt = count_runs_weight(n - 1, rho, w)
                if cnt:
                    total += Fraction(cnt * v, rho)
        return BoundResult(total, VALID_UPPER, "n >= 2")
    if _is_first_channel_single(spec):
        value = Fraction((k + 1) ** (n + 1) - (k - 1) ** (n + 1), 2 * (n + 1))
        return BoundResult(value, VALID_UPPER, "n >= 1")
    if isinstance(spec, Total) and spec.errors == 1:
        denom = Fraction(2 * k * n, k + 1) - 1
        if denom <= 0:
            raise ValidityRangeError("total-1 GSPB needs 2kn/(k+1) > 1")
        return BoundResult(Fraction((k + 1) ** n) / denom, VALID_UPPER, "n >= 1")
    if isinstance(spec, PerChannel) and spec.budgets == (1, 1):
        if k != 2:
            raise DomainError("(1,1) GSPB is stated for k = 2")
        if n < 4:
            raise ValidityRangeError("(1,1) GSPB needs n >= 4")
        value = Fraction(3 ** n) / (Fraction((n - 3) ** 2, 6))
        return BoundResult(value, VALID_UPPER, "n >= 4")
    if isinstance(spec, Total) and spec.errors == 2:
        if k != 2:
            raise DomainError("total-2 GSPB is stated for k = 2")
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
    exactly.  Outputs are valid sequences for substitution specs and
    (deleted row 0, row 1) pairs for the first-channel deletion spec.
    """
    if spec == RADIUS_10:
        def weight(output):
            y0, _ = output
            return Fraction(1, runs(y0))
        return weight
    if spec == RADIUS_1:
        raise DomainError("no weight rule for the either-channel deletion spec")
    if _is_first_channel_single(spec):
        heavy = (k - 1, k)

        def weight(y):
            return Fraction(1, 1 + sum(1 for v in y if v in heavy))
        return weight
    if isinstance(spec, Total) and spec.errors == 1:
        # total-1 ball size is 1 + n + #interior letters, and one error
        # moves the interior count by at most one
        def weight(y):
            return Fraction(1, n + sum(1 for v in y if 0 < v < k))
        return weight
    if isinstance(spec, (PerChannel, Total)):
        sizes: dict = {}

        def size(x):
            if x not in sizes:
                sizes[x] = sub_ball_size(x, k, spec)
            return sizes[x]

        def weight(y):
            return Fraction(1, min(map(size, enumerate_in_ball(y, k, spec))))
        return weight
    raise DomainError(f"no weight rule for spec {spec!r}")


# ---------------------------------------------------------------------------
# averages and ASPV


def average_ball(n: int, k: int, spec) -> BoundResult:
    """Average ball size over the whole space (exact rational)."""
    if spec == RADIUS_10:
        if k != 2:
            raise DomainError("deletion averages are stated for k = 2")
        return BoundResult(1 + Fraction(4 * (n - 1), 9), AVERAGE, "n >= 1")
    if spec == RADIUS_1:
        if k != 2:
            raise DomainError("deletion averages are stated for k = 2")
        return BoundResult(2 + Fraction(8 * (n - 1), 9), AVERAGE, "n >= 1")
    if _is_first_channel_single(spec):
        return BoundResult(Fraction(2 * n, k + 1) + 1, AVERAGE, "n >= 1")
    if isinstance(spec, Total) and spec.errors == 1:
        return BoundResult(Fraction(2 * k * n, k + 1) + 1, AVERAGE, "n >= 1")
    if isinstance(spec, PerChannel) and spec.budgets == (1, 1):
        if k != 2:
            raise DomainError("(1,1) average is stated for k = 2")
        return BoundResult(
            Fraction(4 * n * n, 9) + Fraction(14 * n, 9) + 1, AVERAGE, "n >= 1")
    if isinstance(spec, Total) and spec.errors == 2:
        if k != 2:
            raise DomainError("total-2 average is stated for k = 2")
        return BoundResult(
            Fraction(8 * n * n, 9) + Fraction(10 * n, 9) + 1, AVERAGE, "n >= 1")
    raise DomainError(f"no average ball size for k={k}, spec={spec}")


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
      vt_del          -- deletion (1,0): 3^n/(n+1)
      vt1_del         -- deletion 1:     3^n/(2n+1)
      tenengolts_del  -- systematic deletion (1,0): 3^n/3^{ceil(log3 n)+3}
      tenengolts1_del -- systematic deletion 1:     3^n/3^{ceil(log3 2n)+5}
    """
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
        if len(spec.budgets) != k:
            raise DomainError(f"budget vector needs k={k} entries")
        value = Fraction((k + 1) ** n,
                         2 ** (ceil_log(2, n + 1) * sum(spec.budgets)))
        return BoundResult(value, VALID_LOWER, "n >= 1")
    if method == "fiber":
        if not (spec is None or _is_first_channel_single(spec)):
            raise DomainError("fiber bound applies to the (1,0,...,0) family")
        if k < 2:
            raise DomainError("fiber bound needs k >= 2")
        total = sum(comb(n, ell) * (k - 1) ** (n - ell)
                    * 2 ** (ell - ceil_log(2, ell + 1))
                    for ell in range(n + 1))
        return BoundResult(Fraction(total), VALID_LOWER, "k >= 2")
    if method == "lee":
        if not (spec is None or (isinstance(spec, Total) and spec.errors == 1)):
            raise DomainError("lee bound applies to the total-1 family")
        if k % 2 != 0:
            raise DomainError("lee bound needs even k (odd alphabet)")
        value = Fraction((k + 1) ** n, (k + 1) ** ceil_log(k + 1, 2 * n + 1))
        return BoundResult(value, VALID_LOWER, "even k")
    if method in ("vt_del", "vt1_del", "tenengolts_del", "tenengolts1_del"):
        if k != 2:
            raise DomainError("deletion bounds are stated for k = 2")
        if method == "vt_del":
            return BoundResult(Fraction(3 ** n, n + 1), VALID_LOWER, "n >= 1")
        if method == "vt1_del":
            return BoundResult(Fraction(3 ** n, 2 * n + 1), VALID_LOWER, "n >= 1")
        if method == "tenengolts_del":
            value = Fraction(3 ** n, 3 ** (ceil_log(3, n) + 3))
            return BoundResult(value, VALID_LOWER, "n >= 1")
        value = Fraction(3 ** n, 3 ** (ceil_log(3, 2 * n) + 5))
        return BoundResult(value, VALID_LOWER, "n >= 1")
    raise DomainError(f"unknown lower bound method {method!r}")


# ---------------------------------------------------------------------------
# table emission


TABLE_KINDS = ("table1", "table2", "table3", "table4",
               "summary6", "summary7", "summary8")


def _cell(result_or_none) -> str:
    return "" if result_or_none is None else format_rational(result_or_none.value)


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
    """
    if kind not in TABLE_KINDS:
        raise DomainError(f"unknown table kind {kind!r}")
    emit = getattr(_TableEmitters, kind)
    yield from emit(n_range, k, e0, e1, e)


def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValidityRangeError, DomainError):
        return None


class _TableEmitters:
    @staticmethod
    def table1(n_range, k, e0, e1, e):
        yield ["n", f"sp_({e0},{e1})", f"asym_({e0},{e1})", f"sp_t{e}", f"asym_t{e}"]
        pc, tot = PerChannel((e0, e1)), Total(e)
        for n in n_range:
            yield [str(n),
                   _cell(_try(sphere_packing_upper, n, pc)),
                   _cell(_try(asymptotic_upper, n, pc)),
                   _cell(_try(sphere_packing_upper, n, tot)),
                   _cell(_try(asymptotic_upper, n, tot))]

    @staticmethod
    def table2(n_range, k, e0, e1, e):
        yield ["n", "gspb_(1,0,...,0)", "aspv_(1,0,...,0)", "gspb_t1", "aspv_t1"]
        single = PerChannel((1,) + (0,) * (k - 1))
        for n in n_range:
            yield [str(n),
                   _cell(gspb_upper(n, k, single)),
                   _cell(aspv(n, k, single)),
                   _cell(gspb_upper(n, k, Total(1))),
                   _cell(aspv(n, k, Total(1)))]

    @staticmethod
    def table3(n_range, k, e0, e1, e):
        yield ["n", "gspb_(1,1)", "aspv_(1,1)", "asym_(1,1)",
               "gspb_t2", "aspv_t2", "asym_t2"]
        pc, tot = PerChannel((1, 1)), Total(2)
        for n in n_range:
            yield [str(n),
                   _cell(_try(gspb_upper, n, 2, pc)),
                   _cell(aspv(n, 2, pc)),
                   _cell(_try(asymptotic_upper, n, pc, tighter=True)),
                   _cell(_try(gspb_upper, n, 2, tot)),
                   _cell(aspv(n, 2, tot)),
                   _cell(_try(asymptotic_upper, n, tot))]

    @staticmethod
    def table4(n_range, k, e0, e1, e):
        yield ["n", "gspb_del", "aspv_d(1,0)", "aspv_d(1)"]
        for n in n_range:
            yield [str(n),
                   str(gspb_upper(n, 2, RADIUS_10).value_floor),
                   str(aspv(n, 2, RADIUS_10).value_floor),
                   str(aspv(n, 2, RADIUS_1).value_floor)]

    @staticmethod
    def summary6(n_range, k, e0, e1, e):
        yield ["n", "lower_(1,0,...,0)_fiber", "upper_(1,0,...,0)_gspb",
               "lower_t1_lee", "upper_t1_gspb"]
        single = PerChannel((1,) + (0,) * (k - 1))
        for n in n_range:
            lee = _try(lower_bound, n, k, Total(1), "lee")
            yield [str(n),
                   _cell(lower_bound(n, k, single, "fiber")),
                   _cell(gspb_upper(n, k, single)),
                   _cell(lee),
                   _cell(gspb_upper(n, k, Total(1)))]

    @staticmethod
    def summary7(n_range, k, e0, e1, e):
        yield ["n", "lower_(1,1)_coset", "upper_(1,1)_gspb",
               "lower_t2_bch", "upper_t2_gspb",
               f"lower_t{e}_bch", f"upper_t{e}_asym",
               f"lower_({e0},{e1})_coset", f"upper_({e0},{e1})_asym"]
        for n in n_range:
            yield [str(n),
                   _cell(lower_bound(n, 2, PerChannel((1, 1)), "coset")),
                   _cell(_try(gspb_upper, n, 2, PerChannel((1, 1)))),
                   _cell(lower_bound(n, 2, Total(2), "bch")),
                   _cell(_try(gspb_upper, n, 2, Total(2))),
                   _cell(lower_bound(n, 2, Total(e), "bch")),
                   _cell(_try(asymptotic_upper, n, Total(e))),
                   _cell(lower_bound(n, 2, PerChannel((e0, e1)), "coset")),
                   _cell(_try(asymptotic_upper, n, PerChannel((e0, e1))))]

    @staticmethod
    def summary8(n_range, k, e0, e1, e):
        yield ["n", "lower_d(1,0)_vt", "upper_d(1,0)_gspb",
               "lower_d1_vt", "upper_d1_gspb"]
        for n in n_range:
            gspb = gspb_upper(n, 2, RADIUS_10)
            yield [str(n),
                   _cell(lower_bound(n, 2, None, "vt_del")),
                   _cell(gspb),
                   _cell(lower_bound(n, 2, None, "vt1_del")),
                   _cell(gspb)]
