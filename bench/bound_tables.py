"""Workload ``bound-tables``: exact-rational bound tables and related
queries, with no enumeration, oracle or decoder on the path.

One operation is one table row (``emit_bound_table`` consumed row by row),
one single-point ``bounds`` query through ``cli.main``, one
``sub_ball_size`` or one capacity point (``capacity.sweep`` plus
Blahut-Arimoto).  Table lengths, ball centres and crossover probabilities
come from the seed, one per equal slice of their range so that a round's
cost hardly depends on it; the query grid is fixed.

Kept fault: single-point queries that print a deletion-code lower bound
(``lower:vt``, ``lower:vt1``, ``lower:tenengolts``) as ``valid_lower`` for a
substitution spec, above a ``valid_upper`` of that spec, fail the sandwich
check.  They count as failed operations, the same ones on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
from fractions import Fraction
from math import comb

import reference as ref
from harness import Op, stratified

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

TABLES = (("table1", 2), ("table2", 2), ("table2", 3), ("table2", 4),
          ("table3", 2), ("table4", 2), ("summary6", 2), ("summary6", 3),
          ("summary6", 4), ("summary7", 2), ("summary8", 2))
TABLE_N = (2, 240)
PUBLISHED = ("table4", 2, tuple(range(2, 11)))   # the published rows, every seed
QUERY_N = (4, 8, 12, 20, 48, 100)
QUERY_SPECS = {2: ("(1,0)", "(0,1)", "(1,1)", "(2,1)", "t:1", "t:2", "d:(1,0)", "d:1"),
               3: ("(1,0,0)", "(1,1,0)", "t:1", "t:2"),
               4: ("(1,0,0,0)", "t:1")}
#: closed-form specs at long n, and (e0,e1) specs at k = 2 where the
#: library loops over letter transformations (it cannot finish (2,1) at n=200)
LONG_BALLS = ((2, "(1,0)"), (2, "t:1"), (2, "t:2"), (2, "t:3"), (3, "(1,0,0)"),
              (3, "t:1"), (4, "(1,0,0,0)"), (4, "t:1"))
LONG_N = (200, 1000)
PAIR_BALLS = ((2, "(0,1)"), (2, "(1,1)"), (2, "(2,1)"), (2, "(1,2)"), (2, "(2,2)"))
PAIR_N = (12, 36)
CAPACITY_P = (0.0, 0.4)        # plus p = 0 and p = 1/2 exactly
DELETION_LOWER = ("lower:vt", "lower:vt1", "lower:tenengolts", "lower:tenengolts1")


class Workload:
    def __init__(self, seed: int, reduced: bool):
        rng = random.Random(seed)
        rows, points, top = (4, 1, 0.25) if reduced else (16, 4, 1.0)
        self.tables = [PUBLISHED] + [
            (kind, k, tuple(map(int, stratified(rng, TABLE_N[0], TABLE_N[1] * top, rows))))
            for kind, k in TABLES]
        grid = QUERY_N[:2] if reduced else QUERY_N
        self.queries = [(n, k, s) for n in grid for k, specs in QUERY_SPECS.items()
                        for s in specs]
        self.balls = []
        for group, (lo, hi) in ((LONG_BALLS, LONG_N), (PAIR_BALLS, PAIR_N)):
            for k, spec in group:
                for n in map(int, stratified(rng, lo * top, hi * top, points)):
                    s = tuple(rng.randrange(k + 1) for _ in range(n))
                    self.balls.append((k, spec, s))
        self.ps = [0.0, 0.5] + stratified(rng, *CAPACITY_P, 4 * points)
        self.rng = rng

    def setup(self):
        from composite_codec import bounds, capacity, cli, error_model

        self.bounds, self.capacity, self.cli, self.em = bounds, capacity, cli, error_model

    # -- operations

    def operations(self):
        os.makedirs(OUT, exist_ok=True)
        self.query_file = os.path.join(OUT, "bound-tables-query.csv")
        self.open_tables = {}
        units = [[(("table", t, i), self._table_row(t, i)) for i in range(len(t[2]))]
                 for t in self.tables]
        units += [[(("query",) + q, self._query(*q))] for q in self.queries]
        units += [[(("ball", k, spec, s), self._ball(k, spec, s))]
                  for k, spec, s in self.balls]
        units += [[(("capacity", p), self._capacity(p))] for p in self.ps]
        self.rng.shuffle(units)
        self.keys = [key for unit in units for key, _ in unit]
        return [op for unit in units for _, op in unit]

    def _table_row(self, table, i):
        """The first row opens the generator and takes the header with it."""
        kind, k, n_range = table
        bounds, open_tables = self.bounds, self.open_tables

        def run():
            if i == 0:
                gen = open_tables[table] = bounds.emit_bound_table(kind, n_range, k=k)
                return next(gen), next(gen)
            return next(open_tables[table])
        return Op("table", run)

    def _query(self, n, k, spec):
        cli, path, err = self.cli, self.query_file, io.StringIO()
        argv = ["bounds", "--n", str(n), "--k", str(k), "--spec", spec,
                "--format", "csv", "--out", path]

        def run():
            with contextlib.redirect_stderr(err):
                return cli.main(argv)

        def collect(rc):
            with open(path, encoding="utf-8", newline="") as fh:
                return rc, fh.read()
        return Op("query", run, collect)

    def _ball(self, k, spec, s):
        em = self.em
        parsed = em.parse_spec(spec)
        return Op("ball", lambda: em.sub_ball_size(s, k, parsed))

    def _capacity(self, p):
        cap = self.capacity

        def run():
            (_, _, bits, two_level), = cap.sweep([p])
            _, oracle = cap.blahut_arimoto(cap.channel_matrix(p))
            return bits, two_level, oracle
        return Op("capacity", run)

    # -- checks

    def check(self, outputs):
        verdicts = []
        header = {}
        caps = []
        for key, out in zip(self.keys, outputs):
            if isinstance(out, tuple) and out[:1] == ("raised",):
                verdicts.append((False, f"raised {out[1]}: {out[2]}"))
                continue
            kind = key[0]
            if kind == "table":
                table, i = key[1], key[2]
                if i == 0:
                    header[table], out = out
                why = _check_table_row(table, header[table], out)
                verdicts.append(None if why is None else (False, why))
            elif kind == "query":
                verdicts.append(_check_query(key[1:], out))
            elif kind == "ball":
                _, k, spec, s = key
                want = ref.ball_size(s, k, ref.parse_spec(spec))
                verdicts.append(None if out == want else
                                (False, f"ball size {out}, ours {want}"))
            else:
                caps.append((key[1], out, len(verdicts)))
                verdicts.append(None)
        for i, why in _check_capacity(caps):
            verdicts[i] = (False, why)
        return verdicts


def _check_table_row(table, header, row):
    kind, k, _ = table
    cells = dict(zip(header, row))
    n = int(cells["n"])
    want = {}
    if kind == "table4":
        if n in ref.TABLE4_PUBLISHED:
            want = dict(zip(header[1:], map(str, ref.TABLE4_PUBLISHED[n])))
        else:
            want = {"gspb_del": str(math.floor(ref.gspb_del(n))),
                    "aspv_d(1,0)": str(math.floor(ref.aspv_del(n, False))),
                    "aspv_d(1)": str(math.floor(ref.aspv_del(n, True)))}
    elif kind == "summary8":
        want = {"upper_d(1,0)_gspb": _fmt(ref.gspb_del(n)),
                "lower_d(1,0)_vt": _fmt(Fraction(3 ** n, n + 1))}
    elif kind in ("table2", "summary6"):
        col = "gspb_(1,0,...,0)" if kind == "table2" else "upper_(1,0,...,0)_gspb"
        want = {col: _fmt(ref.gspb_first_channel(n, k))}
    elif kind == "table1":
        want = {"sp_(1,1)": _fmt(Fraction(3 ** n, n)),
                "sp_t2": _fmt(Fraction(3 ** n, comb(n, 2)))}
    for col, value in want.items():
        if cells.get(col) != value:
            return f"{kind} n={n} {col} = {cells.get(col)}, ours {value}"
    # a lower bound never exceeds an upper bound of the same spec
    for lo_col, lo in cells.items():
        for up_col, up in cells.items():
            if (lo_col.startswith("lower_") and up_col.startswith("upper_")
                    and "asym" not in up_col and lo and up
                    and lo_col.split("_")[1] == up_col.split("_")[1]
                    and Fraction(lo) > Fraction(up)):
                return f"{kind} n={n}: {lo_col} {lo} > {up_col} {up}"
    return None


def _check_query(query, out):
    n, k, spec = query
    rc, text = out
    if rc != 0:
        return (False, f"exit status {rc}")
    rows = list(csv.DictReader(io.StringIO(text)))
    by_name = {r["bound"]: r for r in rows}
    parsed = ref.parse_spec(spec)
    own = {}
    if parsed[0] == "del":
        own = {"gspb": ref.gspb_del(n), "aspv": ref.aspv_del(n, spec == "d:1")}
    elif parsed == ("per", (1,) + (0,) * (k - 1)):
        own = {"gspb": ref.gspb_first_channel(n, k)}
    for name, value in own.items():
        if name in by_name and Fraction(by_name[name]["value"]) != value:
            return (False, f"{name} = {by_name[name]['value']}, ours {_fmt(value)}")
    lower = [r for r in rows if r["kind"] == "valid_lower"]
    upper = [r for r in rows if r["kind"] == "valid_upper"]
    broken = {lo["bound"] for lo in lower for up in upper
              if Fraction(lo["value"]) > Fraction(up["value"])}
    if not broken:
        return None
    kept = parsed[0] != "del" and broken <= set(DELETION_LOWER)
    return (kept, f"valid_lower {sorted(broken)} above a valid_upper")


def _check_capacity(points):
    """log2 3 at p = 0, 0 at p = 1/2, non-increasing, at least the two-level
    figure, and within 1e-6 of Blahut-Arimoto."""
    bad = []
    previous = None
    for p, (bits, two_level, oracle), i in sorted(points):
        if p == 0.0 and abs(bits - math.log2(3)) > 1e-9:
            bad.append((i, f"capacity at p=0 is {bits}"))
        elif p == 0.5 and abs(bits) > 1e-9:
            bad.append((i, f"capacity at p=1/2 is {bits}"))
        elif abs(bits - oracle) > 1e-6:
            bad.append((i, f"capacity {bits} vs Blahut-Arimoto {oracle} at p={p}"))
        elif bits < two_level - 1e-12:
            bad.append((i, f"capacity {bits} below two-level {two_level} at p={p}"))
        elif previous is not None and bits > previous + 1e-12:
            bad.append((i, f"capacity rises to {bits} at p={p}"))
        previous = bits
    return bad


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
