"""Substitution-correcting codes for composite sequences.

Three families:

* per-channel products: each binary row is drawn from its own binary block
  code, and rows are decoded independently;
* the fiber construction: only the letters k-1 and k are error-prone under
  a single first-channel error, so a binary inner code protects exactly the
  subsequence of those letters;
* checksum codes: a weighted position checksum modulo 2n+1 locates a single
  level shift, much like single-deletion checksums do.

All three are membership-defined; decoders consume raw row tuples as they
come off the channels, including column-inconsistent ones.
"""

from __future__ import annotations

from math import comb
from operator import add

from composite_codec.core import (
    UNKNOWN,
    DecodeFailure,
    DomainError,
    _check_label,
    _check_length,
    _check_q2_letters,
    _check_rows,
    all_sequences,
    ceil_log,
    decompose_sequence,
    reconstruct_rows,
)


# ---------------------------------------------------------------------------
# binary block codes used per row / as inner codes: each has length,
# corrects, size, member(word), decode(word) and codewords()


def _check_word(code, word) -> None:
    if len(word) != code.length:
        raise DomainError(
            f"word length {len(word)} != code length {code.length}")


class TrivialCode:
    """The full binary space; corrects nothing, accepts everything."""

    corrects = 0

    def __init__(self, length: int):
        _check_length(length)
        self.length = length

    def member(self, word) -> bool:
        _check_word(self, word)
        return True

    def decode(self, word):
        _check_word(self, word)
        return tuple(word)

    def codewords(self):
        return all_sequences(self.length, 1)

    @property
    def size(self) -> int:
        return 2 ** self.length


class HammingCosetCode:
    """A coset of the (possibly shortened) Hamming code.

    Parity checks are the binary expansions of the positions 1..length, so
    the syndrome of a single error is the flipped position itself.  Every
    coset has exactly 2^(length - ceil(log2(length+1))) words and corrects
    one substitution.
    """

    corrects = 1

    def __init__(self, length: int, coset: int = 0):
        _check_length(length)
        self.length = length
        self.bits = ceil_log(2, length + 1)
        _check_label(coset, 2 ** self.bits, length)
        self.coset = coset

    def _syndrome(self, word) -> int:
        s = 0
        for i, bit in enumerate(word, start=1):
            if bit:
                s ^= i
        return s

    def member(self, word) -> bool:
        _check_word(self, word)
        return self._syndrome(word) == self.coset

    def decode(self, word):
        _check_word(self, word)
        err = self._syndrome(word) ^ self.coset
        if err == 0:
            return tuple(word)
        if err > self.length:
            raise DecodeFailure(
                f"syndrome {err} points outside the word; more than one error")
        fixed = list(word)
        fixed[err - 1] ^= 1
        return tuple(fixed)

    def codewords(self):
        return (w for w in all_sequences(self.length, 1) if self.member(w))

    @property
    def size(self) -> int:
        return 2 ** (self.length - self.bits)


class ExplicitCode:
    """An arbitrary codebook with nearest-codeword decoding.

    Ties go to the lexicographically smallest nearest codeword, so decoding
    is deterministic; corrects floor((d_min - 1) / 2) errors.
    """

    MAX_LENGTH = 12

    def __init__(self, length: int, codewords):
        if not 0 <= length <= self.MAX_LENGTH:
            raise DomainError(
                f"explicit codebooks support length <= {self.MAX_LENGTH}")
        self.length = length
        words = sorted({tuple(w) for w in codewords})
        for w in words:
            if len(w) != length or any(b not in (0, 1) for b in w):
                raise DomainError(f"not a binary word of length {length}: {w!r}")
        if not words:
            raise DomainError("a codebook needs at least one codeword")
        self._words = tuple(words)
        self._members = frozenset(words)
        dmin = length + 1
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                dmin = min(dmin, sum(a != b for a, b in zip(words[i], words[j])))
        self.corrects = (dmin - 1) // 2 if len(words) > 1 else length

    def member(self, word) -> bool:
        _check_word(self, word)
        return tuple(word) in self._members

    def decode(self, word):
        _check_word(self, word)
        word = tuple(word)
        best, best_dist = None, None
        for c in self._words:
            d = sum(a != b for a, b in zip(c, word))
            if best_dist is None or d < best_dist:
                best, best_dist = c, d
        return best

    def codewords(self):
        return iter(self._words)

    @property
    def size(self) -> int:
        return len(self._words)


# ---------------------------------------------------------------------------
# per-channel products


def _check_row_codes(k: int, row_codes, n: int):
    if len(row_codes) != k:
        raise DomainError(f"need one binary code per channel, got {len(row_codes)}")
    for j, code in enumerate(row_codes):
        if code.length != n:
            raise DomainError(
                f"channel {j} code has length {code.length}, expected {n}")


def product_membership(s, k: int, row_codes) -> bool:
    """Does every row of s belong to its channel's binary code?"""
    _check_row_codes(k, row_codes, len(s))
    rows = decompose_sequence(s, k)
    return all(code.member(row) for code, row in zip(row_codes, rows))


def product_enumerate(n: int, k: int, row_codes):
    """All codewords in lexicographic order, built from the row codes'
    codewords.

    Row j of a sequence has its ones among those of row j + 1, and every
    such nested tuple of rows is the decomposition of one sequence, whose
    letters are the column sums.  Rows are held as bitmasks while they are
    matched.
    """
    _check_length(n)
    _check_row_codes(k, row_codes, n)
    layer = [(0, (0,) * n)]  # (bitmask of the last row, column sums so far)
    for code in row_codes:
        rows = [(sum(b << i for i, b in enumerate(w)), w) for w in code.codewords()]
        layer = [(mask, tuple(map(add, sums, w)))
                 for low, sums in layer
                 for mask, w in rows if mask & low == low]
    words = sorted(sums for _, sums in layer)
    yield from words


def product_decode(rows, k: int, row_codes):
    """Decode each row in its own code, then read the sequence back.

    Raises DecodeFailure naming the channel whose row could not be decoded,
    or reporting an inconsistent column if row decoding does not yield a
    composite sequence.
    """
    rows = _check_rows(rows, k)
    _check_row_codes(k, row_codes, len(rows[0]) if rows else 0)
    fixed = []
    for j, (code, row) in enumerate(zip(row_codes, rows)):
        try:
            fixed.append(code.decode(row))
        except DecodeFailure as exc:
            raise DecodeFailure(f"channel {j}: {exc}") from exc
    s = reconstruct_rows(fixed)
    if UNKNOWN in s:
        raise DecodeFailure(
            f"corrected rows disagree at column {s.index(UNKNOWN)}")
    return s


def _broken_column(rows):
    """The rows read back, and the index of their one '?' column (None if
    every column reads); more than one '?' exceeds a one-error budget."""
    y = reconstruct_rows(rows)
    broken = y.count(UNKNOWN)
    if broken > 1:
        raise DecodeFailure(f"{broken} inconsistent columns; budget is one error")
    return y, y.index(UNKNOWN) if broken else None


# ---------------------------------------------------------------------------
# the fiber construction


def fiber_value(s, k: int) -> int:
    """How many letters of s are k-1 or k (the letters a first-channel
    error can silently toggle)."""
    return sum(1 for sigma in s if sigma >= k - 1)


def fiber_map(s, k: int):
    """The binary fingerprint of the error-prone letters: k-1 -> 0, k -> 1,
    all other letters dropped."""
    return tuple(1 if sigma == k else 0 for sigma in s if sigma >= k - 1)


def hamming_fiber_inners(n: int, coset: int = 0) -> dict:
    """Hamming-coset inner codes for every possible fiber length.

    The coset is a label of the longest fiber's code; a shorter fiber
    whose code has fewer cosets takes coset 0.
    """
    _check_length(n)
    _check_label(coset, 2 ** ceil_log(2, n + 1), n)
    return {ell: HammingCosetCode(ell, coset if coset < 2 ** ceil_log(2, ell + 1) else 0)
            for ell in range(n + 1)}


def optimal_fiber_inners(n: int) -> dict:
    """Largest single-error inner codes, from exhaustive search (n <= 7).

    The longest is searched first, so a length past the search's reach
    is refused before the shorter searches run."""
    from composite_codec.oracle import optimal_binary_single_error

    return {ell: ExplicitCode(ell, optimal_binary_single_error(ell).witness)
            for ell in range(n, -1, -1)}


def _inner(inners, ell: int):
    """The inner code for fiber length ell, checked before it is used."""
    code = inners.get(ell)
    if code is None:
        raise DomainError(f"no inner code for fiber length {ell}")
    if code.length != ell:
        raise DomainError(
            f"inner code for length {ell} has length {code.length}")
    if ell >= 1 and code.corrects < 1:
        raise DomainError(
            f"inner code for length {ell} does not correct one error")
    return code


def _check_fiber_k(k: int) -> None:
    if k < 2:
        raise DomainError("the fiber construction needs k >= 2")


def fiber_membership(s, k: int, inners) -> bool:
    """s belongs to the fiber code iff its fingerprint is an inner codeword."""
    _check_fiber_k(k)
    try:
        ell, fingerprint = fiber_value(s, k), fiber_map(s, k)
    except TypeError:
        _check_q2_letters(s, k)  # names the letter the comparison failed on
        raise
    return _inner(inners, ell).member(fingerprint)


def fiber_enumerate(n: int, k: int, inners):
    _check_fiber_k(k)
    for ell in range(n + 1):
        _inner(inners, ell)
    for s in all_sequences(n, k):
        if inners[fiber_value(s, k)].member(fiber_map(s, k)):
            yield s


def fiber_code_size(n: int, k: int, inner_sizes) -> int:
    """Codeword count: choose the fiber positions, fill the rest with the
    k-1 letters that are never affected, and count inner codewords."""
    _check_fiber_k(k)
    return sum(comb(n, ell) * (k - 1) ** (n - ell) * inner_sizes[ell]
               for ell in range(n + 1))


def fiber_decode(rows, k: int, inners):
    """Correct one substitution error on the first channel.

    A first-channel error either breaks one column (visible, fixed by
    flipping the bit back) or silently toggles k-1 <-> k (invisible in the
    rows, corrected by the inner code on the fingerprint).
    """
    _check_fiber_k(k)
    rows = _check_rows(rows, k)
    y, j = _broken_column(rows)
    if j is not None:
        top = list(rows[0])
        top[j] ^= 1
        s = reconstruct_rows([tuple(top)] + list(rows[1:]))
        if UNKNOWN in s:
            raise DecodeFailure(
                f"column {j} not explainable by one first-channel error")
        if not _inner(inners, fiber_value(s, k)).member(fiber_map(s, k)):
            raise DecodeFailure("repaired word is not a codeword")
        return s
    ell = fiber_value(y, k)
    fingerprint = fiber_map(y, k)
    decoded = _inner(inners, ell).decode(fingerprint)
    diff = [r for r, (a, b) in enumerate(zip(decoded, fingerprint)) if a != b]
    if not diff:
        return y
    if len(diff) > 1:
        raise DecodeFailure("fingerprint is not within one error of a codeword")
    marked = [i for i, sigma in enumerate(y) if sigma >= k - 1]
    s = list(y)
    s[marked[diff[0]]] = k if decoded[diff[0]] else k - 1
    return tuple(s)


# ---------------------------------------------------------------------------
# checksum codes: one arbitrary substitution anywhere


def checksum(s, n: int) -> int:
    """Position-weighted letter sum modulo 2n+1 (positions 1-based)."""
    return sum(i * sigma for i, sigma in enumerate(s, start=1)) % (2 * n + 1)


def checksum_membership(s, k: int, label: int = 0) -> bool:
    n = len(s)
    _check_label(label, 2 * n + 1, n)
    try:
        return checksum(s, n) == label
    except TypeError:
        _check_q2_letters(s, k)  # names the letter the sum failed on
        raise


def checksum_enumerate(n: int, k: int, label: int = 0):
    _check_length(n)
    _check_label(label, 2 * n + 1, n)
    return (s for s in all_sequences(n, k) if checksum(s, n) == label)


def _one_flip_letters(column):
    """The letters whose column is one bit away from the received one
    (letter L's column has ones in its bottom L rows)."""
    k = len(column)
    return [level for level in range(k + 1)
            if sum(bit != (r >= k - level) for r, bit in enumerate(column)) == 1]


def checksum_decode(rows, k: int, label: int = 0):
    """Correct one bit error across all rows via the checksum.

    A broken column narrows the error to one position (sometimes two
    candidate levels); a silent error shifts one level by +-1 and the
    checksum residue reveals position and direction.
    """
    rows = _check_rows(rows, k)
    n = len(rows[0]) if rows else 0
    mod = 2 * n + 1
    _check_label(label, mod, n)
    y, j = _broken_column(rows)
    if j is not None:
        matches = []
        for level in _one_flip_letters([row[j] for row in rows]):
            s = list(y)
            s[j] = level
            if checksum(s, n) == label:
                matches.append(tuple(s))
        if len(matches) != 1:
            raise DecodeFailure(f"column {j} repair does not match the checksum")
        return matches[0]
    d = (checksum(y, n) - label) % mod
    if d == 0:
        return y
    s = list(y)
    if 1 <= d <= n:
        pos, delta = d - 1, -1
    else:
        pos, delta = (mod - d) - 1, 1
    s[pos] += delta
    if not 0 <= s[pos] <= k:
        raise DecodeFailure(
            f"checksum residue {d} needs an out-of-range level at column {pos}")
    return tuple(s)