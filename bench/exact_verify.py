"""Workload ``exact-verify``: exact ground truth on small spaces, through
in-process ``cli.main`` invocations that write their output to a file.

One operation is one invocation.  The list is fixed; the seed only shuffles
its order (a search stays ahead of the ``verify --codebook`` that reads its
witness).  No invocation passes ``--caps``, which would write os.environ for
the rest of the process.  The checks recompute every figure with
``reference``: search sizes against an integer program, witnesses against
our own balls, verify counts against our own codeword and channel-output
counts.  The integer-program optima are cached in bench/out, because a few
of them take tens of seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb

import reference as ref
from harness import Op

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CACHE = os.path.join(OUT, "reference-cache.json")

N4_SPECS = ("(1,0)", "(0,1)", "(1,1)", "(2,0)", "(0,2)", "(2,1)", "(1,2)",
            "(2,2)", "t:1", "t:2", "t:3", "d:(1,0)", "d:1")
SEARCHES = tuple((4, 2, s) for s in N4_SPECS) + (
    (5, 2, "(1,1)"), (5, 2, "t:2"), (4, 3, "(1,0,0)"), (4, 3, "(1,1,0)"),
    (4, 3, "t:2"), (3, 4, "t:1"))
# (construction, k, n or m, c1 spec)
SUMMARIES = (
    ("c1", 2, 7, "(1,1)"), ("c1", 3, 7, "(1,1,1)"), ("c1", 4, 5, "(1,0,1,0)"),
    ("c2", 2, 7, None), ("c2", 3, 6, None), ("c2", 4, 5, None),
    ("lee", 2, 7, None), ("lee", 3, 6, None), ("lee", 4, 5, None),
    ("c3", 2, 10, None), ("c4", 2, 6, None), ("c5", 2, 8, None),
    ("c6", 2, 6, None), ("vt", 2, 12, None), ("ternary", 2, 7, None))
TRANSVERSALS = ((4, 2, "(1,1)"), (4, 2, "t:2"), (3, 3, "t:2"),
                (3, 3, "(1,1,0)"), (6, 2, "(1,0)"), (6, 2, "d:(1,0)"),
                (5, 3, "t:1"))
#: transversal instances whose integer program is not attempted (1,024 sequences)
NO_OPTIMUM = ((5, 3, "t:1"),)

REDUCED_SEARCHES = ((4, 2, "(1,0)"), (4, 2, "t:1"), (4, 2, "d:1"), (3, 3, "t:1"))
REDUCED_SUMMARIES = (
    ("c1", 3, 4, "(1,0,1)"), ("c2", 3, 4, None), ("lee", 2, 5, None),
    ("c3", 2, 6, None), ("c4", 2, 3, None), ("c5", 2, 5, None),
    ("c6", 2, 3, None), ("vt", 2, 8, None), ("ternary", 2, 4, None))
REDUCED_TRANSVERSALS = ((3, 3, "(1,1,0)"), (4, 2, "t:1"), (6, 2, "d:(1,0)"))



class Workload:
    def __init__(self, seed: int, reduced: bool):
        self.rng = random.Random(seed)
        self.searches = REDUCED_SEARCHES if reduced else SEARCHES
        self.summaries = REDUCED_SUMMARIES if reduced else SUMMARIES
        self.transversals = REDUCED_TRANSVERSALS if reduced else TRANSVERSALS
        self.dir = os.path.join(OUT, "exact-verify")

    def setup(self):
        from composite_codec import cli

        self.cli = cli

    # -- operations

    def operations(self):
        os.makedirs(self.dir, exist_ok=True)
        units = []
        for i, (n, k, spec) in enumerate(self.searches):
            saved = os.path.join(self.dir, f"witness{i}.txt")
            units.append([
                (("search", n, k, spec),
                 ["search-optimal", "--n", str(n), "--k", str(k), "--spec", spec,
                  "--save", saved]),
                (("codebook", n, k, spec),
                 ["verify", "--codebook", saved, "--k", str(k), "--spec", spec])])
        for name, k, size, spec in self.summaries:
            length = ["--m" if name in ref.SYSTEMATIC else "--n", str(size)]
            extra = ["--k", str(k)] if name in ("c1", "c2", "lee") else []
            extra += ["--spec", spec] if spec else []
            units.append([(("summary", name, k, size, spec),
                           ["verify", "--construction", name, "--summary"]
                           + length + extra)])
        for n, k, spec in self.transversals:
            units.append([(("transversal", n, k, spec),
                           ["verify", "--transversal", "--n", str(n), "--k", str(k),
                            "--spec", spec])])
        self.rng.shuffle(units)
        self.keys, ops = [], []
        for unit in units:
            for key, argv in unit:
                out = os.path.join(self.dir, f"op{len(ops)}.txt")
                self.keys.append(key)
                ops.append(self._op(key[0], argv + ["--format", "json", "--out", out], out))
        return ops

    def _op(self, name, argv, out):
        cli, err = self.cli, io.StringIO()

        def run():
            err.seek(0)
            err.truncate()
            with contextlib.redirect_stderr(err):
                return cli.main(argv)

        def collect(rc):
            with open(out, encoding="utf-8") as fh:
                return rc, fh.read(), err.getvalue()
        return Op(name, run, collect)

    # -- checks

    def check(self, outputs):
        optima = _optima(list(self.searches) + [
            t for t in self.transversals if t not in NO_OPTIMUM])
        sizes = {}
        verdicts = []
        for key, out in zip(self.keys, outputs):
            why = None
            if out[0] == "raised":
                why = f"raised {out[1]}: {out[2]}"
            elif out[0] != 0:
                why = f"exit status {out[0]}: {out[2].strip()}"
            else:
                check = getattr(self, "_check_" + key[0])
                why = check(key, out[1], out[2], optima, sizes)
            verdicts.append(None if why is None else (False, why))
        return verdicts

    def _check_search(self, key, text, err, optima, sizes):
        _, n, k, spec = key
        obj = json.loads(text)
        words = [tuple(int(c) for c in w) for w in obj["witness"]]
        sizes[n, k, spec] = obj["size"]
        if obj["size"] != optima[f"{n},{k},{spec}"]:
            return f"size {obj['size']}, optimum {optima[f'{n},{k},{spec}']}"
        if len(set(words)) != obj["size"] or any(len(w) != n for w in words):
            return "witness does not hold `size` distinct words of length n"
        if not ref.conflict_free(words, k, ref.parse_spec(spec)):
            return "witness balls overlap"
        return None

    def _check_codebook(self, key, text, err, optima, sizes):
        _, n, k, spec = key
        want = f"{sizes.get((n, k, spec))} codewords, 0 conflicting pairs"
        if text or err.strip() != want:
            return f"codebook report {err.strip()!r}, expected {want!r}"
        return None

    def _check_summary(self, key, text, err, optima, sizes):
        _, name, k, size, spec = key
        obj = json.loads(text)
        codewords, cases = own_summary(name, k, size, spec)
        got = (obj["codewords"], obj["cases"], obj["failures"], obj["ok"])
        if got != (codewords, cases, 0, True):
            return f"summary {got}, expected {(codewords, cases, 0, True)}"
        return None

    def _check_transversal(self, key, text, err, optima, sizes):
        _, n, k, spec = key
        obj = json.loads(text)
        parsed = ref.parse_spec(spec)
        universe: set = set()
        for x in ref.space(n, k):
            universe |= ref.ball(x, k, parsed)
        total = Fraction(obj["total_weight"])
        if not obj["feasible"] or Fraction(obj["min_cover"]) < 1:
            return "weights are not a fractional transversal"
        if obj["outputs"] != len(universe):
            return f"{obj['outputs']} outputs, our balls cover {len(universe)}"
        best = optima.get(f"{n},{k},{spec}")
        if best is not None and total < best:
            return f"total weight {total} below the optimum {best}"
        exact = {"(1,0)": ref.gspb_first_channel, "d:(1,0)": lambda n, k: ref.gspb_del(n)}
        if spec in exact and n == 6:
            want = exact[spec](n, k)
            if total != want or Fraction(obj["gspb"]) != want:
                return f"total {total}, gspb {obj['gspb']}, ours {want}"
        return None


def own_summary(name: str, k: int, size: int, spec):
    """Codewords and decode cases of `verify --summary`, counted our way.

    Membership codes (label 0) are counted over the whole space; a codeword
    contributes one case per distinct received row tuple (substitutions),
    per deleted position of an allowed row (c3, c5), or per distinct
    deletion (vt).  Systematic codes take every message, and cases are
    counted the same way on the codeword.
    """
    if name in ref.SYSTEMATIC:
        cases = 0
        for msg in ref.space(size, 2):
            cw = ref.SYSTEMATIC[name](msg)
            cases += {"c4": len(cw), "c6": 2 * len(cw)}.get(name) or ref.runs(cw)
        return 3 ** size, cases
    n = size
    if name == "vt":
        words = [x for x in ref.space(n, 1) if ref.vt_syndrome(x) % (n + 1) == 0]
        return len(words), sum(ref.runs(x) for x in words)
    member = {
        "c1": lambda s: all(ref.hamming_syndrome(r) == 0
                            for r, b in zip(ref.rows_of(s, k), ref.parse_spec(spec)[1])
                            if b),
        "c2": lambda s: ref.hamming_syndrome(
            [1 if x == k else 0 for x in s if x >= k - 1]) == 0,
        "lee": lambda s: ref.checksum(s) == 0,
        "c3": lambda s: ref.vt_syndrome(ref.rows_of(s, 2)[0]) % (n + 1) == 0,
        "c5": lambda s: ref.vt_syndrome(sum(ref.rows_of(s, 2), ())) % (2 * n + 1) == 0,
    }[name]
    count = sum(1 for s in ref.space(n, k) if member(s))
    if name == "c1":
        per = 1
        for b in ref.parse_spec(spec)[1]:
            per *= sum(comb(n, t) for t in range(b + 1))
    else:
        per = {"c2": 1 + n, "lee": 1 + k * n, "c3": n, "c5": 2 * n}[name]
    return count, count * per


def _optima(instances):
    """Integer-program optima, cached in bench/out against this file set."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.py"), "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()
    cache = {"version": version, "optima": {}}
    if os.path.exists(CACHE):
        with open(CACHE, encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored.get("version") == version:
            cache = stored
    missing = [t for t in instances if f"{t[0]},{t[1]},{t[2]}" not in cache["optima"]]
    for n, k, spec in missing:
        cache["optima"][f"{n},{k},{spec}"] = ref.ilp_optimum(n, k, ref.parse_spec(spec))
    if missing:
        os.makedirs(OUT, exist_ok=True)
        with open(CACHE, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=1, sort_keys=True)
    return cache["optima"]
