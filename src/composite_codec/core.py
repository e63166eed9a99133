"""Composite alphabets and the decomposition/reconstruction mappings.

A resolution-k composite letter over a base alphabet of size q is a count
vector (k_0, ..., k_{q-1}) with sum k; it decomposes into the sorted column
[0^{k_0} 1^{k_1} ... (q-1)^{k_{q-1}}].  For q = 2 the letter is identified
with the integer sigma in {0, ..., k} (the number of ones), which is the
canonical representation used by every coding module in this package.

Sequences (q = 2 form) are plain tuples of ints, possibly containing the
'?' sentinel after a faulty reconstruction.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product, repeat
from math import comb

#: Sentinel letter marking a column that is not a valid decomposition.
UNKNOWN = "?"


class DomainError(ValueError):
    """Input violates a documented precondition."""


class DecodeFailure(DomainError):
    """The received word is not decodable within the promised error budget."""


@dataclass(frozen=True)
class CompositeParams:
    """Base alphabet size q and resolution k."""

    q: int = 2
    k: int = 1

    def __post_init__(self):
        if self.q < 2:
            raise DomainError(f"base alphabet size q must be >= 2, got {self.q}")
        _check_resolution(self.k)

    @property
    def alphabet_size(self) -> int:
        """Number of resolution-k composite letters: C(k+q-1, q-1)."""
        return comb(self.k + self.q - 1, self.q - 1)


@dataclass(frozen=True)
class CompositeLetter:
    """A composite letter as a count vector over the base alphabet."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise DomainError(f"negative count in {self.counts}")

    @property
    def resolution(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_level(cls, k: int, sigma: int) -> "CompositeLetter":
        """q = 2 letter sigma in {0..k}: counts (k - sigma, sigma)."""
        _check_q2_letters((sigma,), k)
        return cls((k - sigma, sigma))

    @property
    def level(self) -> int:
        """Inverse of from_level; only meaningful for q = 2 letters."""
        if len(self.counts) != 2:
            raise DomainError("level is defined only for q = 2 letters")
        return self.counts[1]


def decompose_letter(params: CompositeParams, letter: CompositeLetter) -> tuple[int, ...]:
    """Column [0^{k_0} 1^{k_1} ... (q-1)^{k_{q-1}}] of the letter."""
    if len(letter.counts) != params.q:
        raise DomainError(
            f"letter has {len(letter.counts)} counts, expected q={params.q}")
    if letter.resolution != params.k:
        raise DomainError(
            f"letter counts sum to {letter.resolution}, expected k={params.k}")
    col = []
    for symbol, count in enumerate(letter.counts):
        col.extend([symbol] * count)
    return tuple(col)


def reconstruct_column(params: CompositeParams, col):
    """Inverse of decompose_letter; UNKNOWN for non-sorted columns."""
    if len(col) != params.k:
        raise DomainError(f"column has length {len(col)}, expected k={params.k}")
    if any(not 0 <= b < params.q for b in col):
        raise DomainError(f"column entry outside base alphabet: {tuple(col)}")
    if any(col[i] > col[i + 1] for i in range(len(col) - 1)):
        return UNKNOWN
    counts = [0] * params.q
    for b in col:
        counts[b] += 1
    return CompositeLetter(tuple(counts))


_INT = frozenset((int,))


def _check_q2_letters(s, k) -> None:
    """Every letter is an int in 0..k.

    A valid sequence passes a type test and a min/max range test, both
    C-level passes whose cost does not depend on k; anything they reject
    (also a bool letter, which the loop accepts) is judged by the loop,
    which names the first bad letter.
    """
    _check_resolution(k)
    if (_INT.issuperset(map(type, s))
            and 0 <= min(s, default=0) and max(s, default=0) <= k):
        return
    for x in s:
        if x == UNKNOWN:
            raise DomainError("sequence contains '?'")
        if not isinstance(x, int) or not 0 <= x <= k:
            raise DomainError(f"letter {x!r} outside Sigma_{k + 1}")


def decompose_sequence(s, k: int) -> tuple[tuple[int, ...], ...]:
    """k binary rows of the q = 2 sequence s; row j bit i = 1 iff s[i] > j.

    Row j of the decomposition column of sigma is 1 exactly when
    j >= k - sigma, i.e. when sigma >= k - j; rows are returned top (j = 0,
    the first channel) to bottom.
    """
    _check_q2_letters(s, k)
    return tuple(
        tuple(1 if sigma >= k - j else 0 for sigma in s) for j in range(k)
    )


_TUPLE = frozenset((tuple,))
_BITS = frozenset((0, 1))


@lru_cache(maxsize=None)
def _canonical_columns(k: int) -> dict:
    """Decomposition column (0,)*(k-t) + (1,)*t -> letter t, for t in 0..k."""
    return {(0,) * (k - t) + (1,) * t: t for t in range(k + 1)}


def reconstruct_rows(rows) -> tuple:
    """Columnwise reconstruction of k equal-length binary rows.

    Returns a tuple over {0..k} union {'?'}: a column that is non-decreasing
    top to bottom (zeros above ones) maps to its bit sum, anything else gives
    '?'.  Unequal row lengths raise: reconstruction is undefined there, which
    is what forces deletion correction to happen first.

    Each column is looked up among the k + 1 canonical columns.  Only an
    entry of a column that is not canonical can be non-binary; one set
    test over all entries looks for one, and the loop names its column.
    A tuple of tuples is read in place, anything else is copied first.
    """
    if type(rows) is not tuple or not _TUPLE.issuperset(map(type, rows)):
        rows = tuple(map(tuple, rows))
    if not rows:
        raise DomainError("no rows given")
    lengths = set(map(len, rows))
    if len(lengths) > 1:
        raise DomainError(
            f"unequal row lengths {sorted(lengths)}; "
            "reconstruction requires equal-length rows")
    out = tuple(map(_canonical_columns(len(rows)).get, zip(*rows),
                    repeat(UNKNOWN)))
    if UNKNOWN in out and not _BITS.issuperset(chain.from_iterable(rows)):
        for i, col in enumerate(zip(*rows)):
            if out[i] == UNKNOWN and any(b not in (0, 1) for b in col):
                raise DomainError(f"non-binary entry in column {i}: {list(col)}")
    return out


def transform_reverse(s, k: int) -> tuple[int, ...]:
    """Letterwise sigma -> k - sigma; an involution on Sigma_{k+1}^n."""
    _check_q2_letters(s, k)
    return tuple(k - x for x in s)


def transform_shift(s, k: int, delta: int) -> tuple[int, ...]:
    """Letterwise (sigma + delta) mod (k+1); inverse is -delta."""
    _check_q2_letters(s, k)
    return tuple((x + delta) % (k + 1) for x in s)


def parse_sequence(text: str, k: int) -> tuple:
    """Parse the text form of a q = 2 sequence.

    Digit string for k <= 9 ("012340"), comma-separated integers otherwise;
    '?' is accepted in either form.
    """
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        items = [t.strip() for t in text.split(",")]
    elif k <= 9:
        items = list(text)
    else:
        items = [text]
    out = []
    for item in items:
        if item == UNKNOWN:
            out.append(UNKNOWN)
            continue
        try:
            val = int(item)
        except ValueError:
            raise DomainError(f"bad letter {item!r}") from None
        _check_q2_letters((val,), k)
        out.append(val)
    return tuple(out)


def format_sequence(s, k: int) -> str:
    """Inverse of parse_sequence (digit string for k <= 9)."""
    parts = [UNKNOWN if x == UNKNOWN else str(x) for x in s]
    return "".join(parts) if k <= 9 else ",".join(parts)


def parse_binary(text: str) -> tuple[int, ...]:
    """Parse a binary row given as a 0/1 digit string."""
    text = text.strip()
    if any(c not in "01" for c in text):
        raise DomainError(f"binary row must be over {{0,1}}: {text!r}")
    return tuple(int(c) for c in text)


def format_binary(row) -> str:
    return "".join(str(b) for b in row)


def ceil_log(base: int, x: int) -> int:
    """Smallest t >= 0 with base**t >= x, by integer comparison."""
    if base < 2 or x < 1:
        raise DomainError(f"ceil_log needs base >= 2 and x >= 1, got ({base}, {x})")
    t, power = 0, 1
    while power < x:
        power *= base
        t += 1
    return t


# argument rules, each stated once with its one error text (the letter rule
# is _check_q2_letters above)


def _check_length(n: int) -> None:
    if n < 0:
        raise DomainError(f"length must be >= 0, got {n}")


def _check_resolution(k: int) -> None:
    if k < 1:
        raise DomainError(f"resolution k must be >= 1, got {k}")


def _check_label(label: int, modulus: int, n: int) -> None:
    """label is a residue modulo modulus, the label count of a code of
    length n."""
    if not 0 <= label < modulus:
        raise DomainError(f"label {label} out of range for n={n}")


def _check_rows(rows, k: int) -> tuple:
    """The k received rows, as a tuple of tuples."""
    _check_resolution(k)
    rows = tuple(map(tuple, rows))
    if len(rows) != k:
        raise DomainError(f"expected {k} rows, got {len(rows)}")
    return rows


def all_sequences(n: int, k: int):
    """Iterate Sigma_{k+1}^n in lexicographic order."""
    _check_length(n)
    return product(range(k + 1), repeat=n)
