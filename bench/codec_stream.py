"""Workload ``codec-stream``: a seeded stream of long words through every
construction, each crossing the channels with one error it must correct.

One operation is a membership test (or a systematic encode) followed by one
decode through the library's public decode function.  Codewords of the
membership codes are drawn with the syndrome arithmetic of ``reference``,
outside the timed region; received words are prepared there too, so the
timed region holds library calls only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref
from harness import Op, stratified

# (construction, k, per-channel budgets for c1)
VARIANTS = (
    ("c1", 2, (1, 1)), ("c1", 3, (1, 1, 1)), ("c1", 4, (1, 0, 1, 1)),
    ("c2", 2, None), ("c2", 3, None), ("c2", 4, None),
    ("lee", 2, None), ("lee", 3, None), ("lee", 4, None),
    ("c3", 2, None), ("c5", 2, None), ("vt", 1, None),
    ("c4", 2, None), ("c6", 2, None), ("ternary", 2, None),
)
WORD_LENGTHS = (100, 300)      # codeword length n of the membership codes
MESSAGE_LENGTHS = (64, 200)    # message length m of the systematic codes
CLEAN_ONE_IN = 4               # one substitution word in 4 crosses clean


@dataclass
class Word:
    variant: int
    length: int                # n, or m for the systematic codes
    label: int
    sent: tuple                # codeword (membership) or message (systematic)
    codeword: tuple            # what goes on the channel
    received: object           # rows, or the short word for vt / ternary


class Workload:
    def __init__(self, seed: int, reduced: bool):
        self.rng = random.Random(seed)
        per_variant = 2 if reduced else 24
        scale = 0.4 if reduced else 1.0
        self.plan = []
        for v, (name, k, _) in enumerate(VARIANTS):
            lo, hi = MESSAGE_LENGTHS if name in ref.SYSTEMATIC else WORD_LENGTHS
            lo, hi = int(lo * scale), int(hi * scale)
            # error positions, as fractions of the word, and the clean words
            # are stratified too: how many deletions land in the data (the
            # costly decodes) then hardly depends on the seed
            where = stratified(self.rng, 0.0, 1.0, per_variant)
            clean = [i % CLEAN_ONE_IN == 0 for i in range(per_variant)]
            self.rng.shuffle(where)
            self.rng.shuffle(clean)
            lengths = map(int, stratified(self.rng, lo, hi, per_variant))
            for length, at, quiet in zip(lengths, where, clean):
                if name == "c1":
                    length = _clear_of_power_of_two(length, sum(VARIANTS[v][2]))
                self.plan.append((v, length, self._label(name, length), at, quiet))

    def _label(self, name: str, n: int) -> int:
        if name == "c1":
            return self.rng.randrange(2 ** ref.hamming_bits(n))
        if name in ("c3", "vt"):
            return self.rng.randrange(n + 1)
        if name in ("lee", "c5"):
            return self.rng.randrange(2 * n + 1)
        return 0

    # -- program objects (timed as set-up)

    def setup(self):
        from composite_codec import cli  # noqa: F401  (set-up imports the whole package)
        from composite_codec import deletion, substitution

        self.sub, self.dele = substitution, deletion
        self.row_codes, self.inners = {}, {}
        for v, n, label, _, _ in self.plan:
            name, k, budgets = VARIANTS[v]
            if name == "c1" and (n, label, budgets) not in self.row_codes:
                self.row_codes[n, label, budgets] = tuple(
                    substitution.HammingCosetCode(n, label) if b
                    else substitution.TrivialCode(n) for b in budgets)
            elif name == "c2" and n not in self.inners:
                self.inners[n] = substitution.hamming_fiber_inners(n)

    # -- inputs (not timed)

    def operations(self):
        words = [self._draw(*planned) for planned in self.plan]
        self.rng.shuffle(words)
        self.words = words
        return [Op(VARIANTS[w.variant][0], self._thunk(w)) for w in words]

    def _draw(self, v, n, label, at, clean) -> Word:
        name, k, budgets = VARIANTS[v]
        rng = self.rng
        if name in ref.SYSTEMATIC:
            msg = tuple(rng.randrange(3) for _ in range(n))
            cw = ref.SYSTEMATIC[name](msg)
            if name == "ternary":
                p = int(at * len(cw))
                return Word(v, n, label, msg, cw, cw[:p] + cw[p + 1:])
            return Word(v, n, label, msg, cw,
                        _delete_in_row(rng, ref.rows_of(cw, 2), name == "c6", at))
        cw = tuple(getattr(self, "_draw_" + name)(n, k, label, budgets))
        if name == "vt":
            p = int(at * n)
            return Word(v, n, label, cw, cw, cw[:p] + cw[p + 1:])
        rows = ref.rows_of(cw, k)
        if name in ("c3", "c5"):
            return Word(v, n, label, cw, cw, _delete_in_row(rng, rows, name == "c5", at))
        if clean:
            return Word(v, n, label, cw, cw, rows)
        if name == "c1":
            row = rng.choice([j for j, b in enumerate(budgets) if b])
        elif name == "c2":
            row = 0
        else:
            row = rng.randrange(k)
        pos = int(at * n)
        flipped = list(rows)
        flipped[row] = rows[row][:pos] + (1 - rows[row][pos],) + rows[row][pos + 1:]
        return Word(v, n, label, cw, cw, tuple(flipped))

    def _draw_c1(self, n, k, label, budgets):
        """Each protected row j gets a spanning set of positions held at
        level k-j-1; raising some of them to k-j flips row j alone and
        moves its Hamming syndrome onto the label."""
        rng = self.rng
        s = [rng.randrange(k + 1) for _ in range(n)]
        bits = ref.hamming_bits(n)
        used: set = set()
        spans = {}
        for j, b in enumerate(budgets):
            if b:
                spans[j] = _spanning_positions(rng, n, bits, used)
                used.update(spans[j])
                for p in spans[j]:
                    s[p - 1] = k - j - 1
        rows = ref.rows_of(s, k)
        for j, positions in spans.items():
            delta = ref.hamming_syndrome(rows[j]) ^ label
            for p in _xor_subset(positions, delta):
                s[p - 1] = k - j
        return s

    def _draw_c2(self, n, k, label, budgets):
        """Toggle fiber letters k-1 <-> k until the fingerprint's Hamming
        syndrome is 0 (the inner codes are coset 0)."""
        s = [self.rng.randrange(k + 1) for _ in range(n)]
        fiber = [i for i, x in enumerate(s) if x >= k - 1]
        delta = ref.hamming_syndrome([1 if s[i] == k else 0 for i in fiber])
        if delta:
            top = 1 << (delta.bit_length() - 1)
            for q in ((delta,) if delta <= len(fiber) else (top, delta ^ top)):
                i = fiber[q - 1]
                s[i] = 2 * k - 1 - s[i]
        return s

    def _draw_lee(self, n, k, label, budgets):
        while True:
            s = [self.rng.randrange(k + 1) for _ in range(n)]
            d = (label - ref.checksum(s)) % (2 * n + 1)
            if d == 0:
                return s
            if d <= n and s[d - 1] < k:
                s[d - 1] += 1
                return s
            p = 2 * n + 1 - d
            if d > n and s[p - 1] > 0:
                s[p - 1] -= 1
                return s

    def _draw_c3(self, n, k, label, budgets):
        """Move row 0's checksum by one letter 1 -> 2 or 2 -> 1."""
        while True:
            s = [self.rng.randrange(3) for _ in range(n)]
            d = (label - ref.vt_syndrome(ref.rows_of(s, 2)[0])) % (n + 1)
            if d == 0:
                return s
            if s[d - 1] == 1:
                s[d - 1] = 2
                return s
            if s[n - d] == 2:
                s[n - d] = 1
                return s

    def _draw_c5(self, n, k, label, budgets):
        """Position q <= n of row0 + row1 is row 0 (letters 1 <-> 2), q > n
        is row 1 (letters 0 <-> 1)."""
        mod = 2 * n + 1
        while True:
            s = [self.rng.randrange(3) for _ in range(n)]
            r0, r1 = ref.rows_of(s, 2)
            d = (label - ref.vt_syndrome(r0 + r1)) % mod
            if d == 0:
                return s
            for q, raise_bit in ((d, True), (mod - d, False)):
                i, lo = (q - 1, 1) if q <= n else (q - n - 1, 0)
                if raise_bit and s[i] == lo:
                    s[i] = lo + 1
                    return s
                if not raise_bit and s[i] == lo + 1:
                    s[i] = lo
                    return s

    def _draw_vt(self, n, k, label, budgets):
        while True:
            x = [self.rng.randrange(2) for _ in range(n)]
            d = (label - ref.vt_syndrome(x)) % (n + 1)
            if d == 0:
                return x
            if x[d - 1] == 0:
                x[d - 1] = 1
                return x
            if x[n - d] == 1:
                x[n - d] = 0
                return x

    def _thunk(self, w: Word):
        name, k, budgets = VARIANTS[w.variant]
        sub, dele, sent, got = self.sub, self.dele, w.sent, w.received
        n, label = w.length, w.label
        if name == "c1":
            codes = self.row_codes[n, label, budgets]
            return lambda: (sub.product_membership(sent, k, codes),
                            sub.product_decode(got, k, codes))
        if name == "c2":
            inners = self.inners[n]
            return lambda: (sub.fiber_membership(sent, k, inners),
                            sub.fiber_decode(got, k, inners))
        if name == "lee":
            return lambda: (sub.checksum_membership(sent, k, label),
                            sub.checksum_decode(got, k, label))
        if name == "c3":
            return lambda: (dele.vt_row_membership(sent, label),
                            dele.vt_row_decode(got, label))
        if name == "c5":
            return lambda: (dele.vt_pair_membership(sent, label),
                            dele.vt_pair_decode(got, label))
        if name == "vt":
            return lambda: (dele.vt_membership(sent, label),
                            dele.vt_decode(got, n, label))
        if name == "c4":
            return lambda: (dele.marker_row_encode(sent), dele.marker_row_decode(got))
        if name == "c6":
            return lambda: (dele.marker_pair_encode(sent), dele.marker_pair_decode(got))
        return lambda: (dele.ternary_encode(sent), dele.ternary_decode(got, n))

    # -- checks

    def check(self, outputs):
        """None, or (kept fault?, why) per operation: membership says yes
        (or the encoder matches ours) and the decode returns what was sent."""
        verdicts = []
        for w, out in zip(self.words, outputs):
            systematic = VARIANTS[w.variant][0] in ref.SYSTEMATIC
            if not isinstance(out, tuple) or len(out) != 2:
                verdicts.append((False, f"raised {out}"))
            elif out[0] != (w.codeword if systematic else True):
                verdicts.append((False, "encode differs from ours" if systematic
                                 else "codeword not accepted"))
            elif tuple(out[1]) != w.sent:
                verdicts.append((False, "decoded word differs from the one sent"))
            else:
                verdicts.append(None)
        return verdicts


def _delete_in_row(rng, rows, either: bool, at: float):
    """Delete the bit at fraction `at` of row 0 (or of a uniformly chosen row)."""
    row = rng.randrange(2) if either else 0
    p = int(at * len(rows[row]))
    out = list(rows)
    out[row] = rows[row][:p] + rows[row][p + 1:]
    return tuple(out)


def _clear_of_power_of_two(n: int, rows: int) -> int:
    """Smallest length >= n with a top-bit position for each protected row.

    Only positions 2^(b-1)..n carry the top syndrome bit b of a length-n
    Hamming code, and the rows need disjoint spanning sets.
    """
    while n - (1 << (n.bit_length() - 1)) + 1 < rows:
        n += 1
    return n


def _spanning_positions(rng, n: int, bits: int, used: set):
    """`bits` unused positions in 1..n whose binary forms are independent."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    basis: dict = {}
    chosen = []
    for p in order:
        if p in used:
            continue
        v = p
        for top in sorted(basis, reverse=True):
            if v >> top & 1:
                v ^= basis[top]
        if v:
            basis[v.bit_length() - 1] = v
            chosen.append(p)
            if len(chosen) == bits:
                return chosen
    raise ValueError("positions do not span the syndrome space")


def _xor_subset(positions, target: int):
    """A subset of the independent `positions` whose XOR is `target`."""
    for mask in range(1 << len(positions)):
        acc = 0
        for i, p in enumerate(positions):
            if mask >> i & 1:
                acc ^= p
        if acc == target:
            return [p for i, p in enumerate(positions) if mask >> i & 1]
    raise ValueError(f"syndrome {target} is not reachable")
