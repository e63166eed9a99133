"""Single-deletion-correcting codes for composite sequences.

Binary building block: checksum codes with membership
sum(i * x_i) = label (mod n+1), which recover one deleted bit from the
checksum residue.

Composite constructions:

* first-channel protection: put row 0 in a binary checksum code
  (membership, any k) or append a marker pair plus ternary syndrome
  digits (systematic, k = 2);
* either-channel protection: put the k rows, concatenated, in one
  checksum code of length kn (membership, any k), or protect row0+row1
  with the ternary syndrome machinery and a marker that also survives
  not knowing which channel shrank (systematic, k = 2).

Decoders take the received rows; which channel lost a bit is visible from
the row lengths.  The systematic decoders (ternary, c4, c6) share one
syndrome search, _reinsert.
"""

from __future__ import annotations

from itertools import product

from composite_codec.core import (
    _BITS,
    UNKNOWN,
    DecodeFailure,
    DomainError,
    _check_label,
    _check_length,
    _check_q2_letters,
    _check_resolution,
    _check_rows,
    all_sequences,
    ceil_log,
    decompose_sequence,
    reconstruct_rows,
)


def _check_binary(x):
    """Every entry equals 0 or 1, tested in one C-level pass."""
    try:
        if _BITS.issuperset(x):
            return
    except TypeError:  # an unhashable entry
        pass
    raise DomainError(f"not a binary word: {x!r}")


def delete_at(x, pos: int):
    if not 0 <= pos < len(x):
        raise DomainError(f"deletion position {pos} out of range")
    return tuple(x[:pos]) + tuple(x[pos + 1:])


# ---------------------------------------------------------------------------
# binary single-deletion checksum codes


def vt_syndrome(x) -> int:
    """Position-weighted bit sum, positions 1-based (not yet reduced)."""
    return sum(i * b for i, b in enumerate(x, start=1))


def vt_membership(x, label: int) -> bool:
    _check_binary(x)
    n = len(x)
    _check_label(label, n + 1, n)
    return vt_syndrome(x) % (n + 1) == label


def vt_enumerate(n: int, label: int):
    _check_length(n)
    _check_label(label, n + 1, n)
    return (x for x in all_sequences(n, 1) if vt_syndrome(x) % (n + 1) == label)


def vt_decode(y, n: int, label: int):
    """Reinsert the single deleted bit of a length-n checksum codeword.

    The residue d = label - syndrome(y) counts, for a deleted zero, the
    ones to its right; for a deleted one, w + 1 + the zeros to its left.
    """
    y = tuple(y)
    _check_binary(y)
    if len(y) != n - 1:
        raise DomainError(f"expected length {n - 1}, got {len(y)}")
    return _vt_reinsert(y, n, label)


def _vt_reinsert(y: tuple, n: int, label: int):
    """vt_decode of a binary tuple y that is known to have length n - 1."""
    _check_label(label, n + 1, n)
    w = sum(y)
    d = (label - vt_syndrome(y)) % (n + 1)
    if d <= w:
        ones_right = 0
        pos = len(y)
        while ones_right < d:
            pos -= 1
            ones_right += y[pos]
        return y[:pos] + (0,) + y[pos:]
    zeros_left, pos = 0, 0
    while zeros_left < d - w - 1:
        zeros_left += 1 - y[pos]
        pos += 1
    return y[:pos] + (1,) + y[pos:]


# ---------------------------------------------------------------------------
# ternary single-deletion syndromes (shared by the systematic constructions)


def ascent_syndrome(s) -> int:
    """Weighted count of non-descents: sum of j over s[j+1] >= s[j]
    (1-based j), modulo the length."""
    m = len(s)
    return sum(j for j in range(1, m) if s[j] >= s[j - 1]) % m


def _digits(value: int, base: int, width: int):
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    out.reverse()
    return tuple(out)


def _undigits(digits, base: int) -> int:
    value = 0
    for d in digits:
        value = value * base + d
    return value


def ternary_redundancy(s):
    """(marker symbol, syndrome digits) protecting s against one deletion.

    The digits are the ascent syndrome in base 3 followed by the symbol sum
    mod 3; the marker differs from the last data symbol, which frames the
    data against the tail.
    """
    _check_q2_letters(s, 2)
    m = len(s)
    if m < 1:
        raise DomainError("need at least one data symbol")
    marker = (s[-1] + 1) % 3
    width = ceil_log(3, m)
    return marker, _digits(ascent_syndrome(s), 3, width) + (sum(s) % 3,)


def ternary_encode(s):
    """Systematic single-deletion codeword: data, marker twice, digits."""
    marker, digits = ternary_redundancy(s)
    return tuple(s) + (marker, marker) + digits


def ternary_decode(received, m: int):
    """Recover the length-m data from a codeword missing one symbol.

    Equal symbols at positions m, m+1 mean the deletion hit the data (the
    marker pair slid into view); the stored syndromes then pin down the
    unique reinsertion.  Unequal symbols mean the data is intact.
    """
    received = tuple(received)
    _check_q2_letters(received, 2)
    if m < 1:
        raise DomainError("need at least one data symbol")
    width = ceil_log(3, m)
    if len(received) != m + width + 2:
        raise DomainError(
            f"expected length {m + width + 2}, got {len(received)}")
    if received[m - 1] != received[m]:
        return received[:m]
    # the marker symbol is the last data symbol plus one
    return _reinsert(received[:m - 1], (received[m - 1] - 1) % 3,
                     received[m + 1:], (0, 1, 2))


def _reinsert(stub, last, digits, alphabet):
    """The one word over alphabet that is stub with one symbol inserted,
    ends in last and has the digits of ternary_redundancy: ternary
    searches (0, 1, 2), c4 (row 0) and c6 (row0+row1) search (0, 1)."""
    want_a, want_b = _undigits(digits[:-1], 3), digits[-1]
    matches = set()
    for pos in range(len(stub) + 1):
        for symbol in alphabet:
            cand = stub[:pos] + (symbol,) + stub[pos:]
            if (cand[-1] == last and sum(cand) % 3 == want_b
                    and ascent_syndrome(cand) == want_a):
                matches.add(cand)
    if len(matches) != 1:
        raise DecodeFailure(
            f"{len(matches)} data words match the syndromes; more than one "
            "deletion or a corrupted tail")
    return matches.pop()


def message_length(n: int, overhead: int, span: int = 1,
                   unknown: str = "no message length yields codewords") -> int:
    """The data length m with m + ceil_log(3, span * m) + overhead == n.

    The sum grows strictly with m, so m is unique and lies within
    ceil_log(3, span * n) below n - overhead.  When no m fits, the
    DomainError opens with unknown."""
    top = n - overhead
    for m in range(max(1, top - ceil_log(3, span * max(n, 1))), top + 1):
        if m + ceil_log(3, span * m) + overhead == n:
            return m
    raise DomainError(f"{unknown} of length {n}")


# ---------------------------------------------------------------------------
# composite constructions


def _short_row(rows, first: bool = False):
    """The k received binary rows, the one that is one bit short (row 0
    with first; the lone row at k = 1) and the length n of the others."""
    rows = tuple(map(tuple, rows))
    _check_resolution(len(rows))
    for r in rows:
        _check_binary(r)
    lengths = list(map(len, rows))
    if first and len(rows) > 1 and lengths[0] != lengths[1] - 1:
        raise DomainError(
            f"row 0 must be one bit short of row 1 ({lengths[0]} vs {lengths[1]})")
    n = max(lengths) + (len(rows) == 1)
    if lengths.count(n - 1) != 1 or lengths.count(n) != len(rows) - 1:
        raise DomainError("exactly one row must be one bit short")
    return rows, lengths.index(n - 1), n


def _reconstruct_or_fail(rows):
    s = reconstruct_rows(rows)
    if UNKNOWN in s:
        raise DecodeFailure(
            f"rows disagree at column {s.index(UNKNOWN)}")
    return s


# -- first-channel deletion, membership-defined


def vt_row_membership(s, label: int, k: int = 2) -> bool:
    """Row 0 lies in the binary checksum code with the given label."""
    return vt_membership(decompose_sequence(tuple(s), k)[0], label)


def vt_row_enumerate(n: int, label: int, k: int = 2):
    """All codewords in lexicographic order, built from the checksum words
    of row 0: a 1 in row 0 is the letter k, a 0 is any letter 0..k-1."""
    _check_resolution(k)
    letters = (tuple(range(k)), (k,))
    words = [s for x in vt_enumerate(n, label)
             for s in product(*[letters[b] for b in x])]
    words.sort()
    yield from words


def vt_row_decode(rows, label: int):
    """Correct one deletion on channel 0; the other channels arrive intact."""
    rows, _, n = _short_row(rows, first=True)
    return _reconstruct_or_fail((_vt_reinsert(rows[0], n, label),) + rows[1:])


# -- either-channel deletion, membership-defined


def vt_pair_membership(s, label: int, k: int = 2) -> bool:
    """The k rows, concatenated, lie in one checksum code of length kn."""
    return vt_membership(sum(decompose_sequence(tuple(s), k), ()), label)


def vt_pair_enumerate(n: int, label: int, k: int = 2):
    for s in all_sequences(n, k):
        if vt_pair_membership(s, label, k):
            yield s


def vt_pair_decode(rows, label: int):
    """Correct one deletion on whichever channel came up short: a deletion
    in any row is a single deletion in the concatenation."""
    rows, _, n = _short_row(rows)
    x = _vt_reinsert(sum(rows, ()), len(rows) * n, label)
    return _reconstruct_or_fail(tuple(x[i:i + n] for i in range(0, len(x), n)))


# -- first-channel deletion, systematic


def marker_row_encode(message):
    """Append a marker letter twice plus the ternary syndrome digits of
    row 0, all as composite letters.

    The marker letter's row-0 bit differs from row 0's last data bit, so a
    channel-0 deletion inside the data slides an equal pair into positions
    m, m+1 of row 0 -- same framing as the plain ternary codeword.
    """
    s = tuple(message)
    if not s:
        raise DomainError("message must be non-empty")
    r0, _ = decompose_sequence(s, 2)
    _, digits = ternary_redundancy(r0)
    marker_letter = 2 if r0[-1] == 0 else 0
    return s + (marker_letter, marker_letter) + digits


def marker_row_decode(rows):
    """Recover the message from (row 0 minus one bit, row 1 intact)."""
    (y0, y1), _, n = _short_row(_check_rows(rows, 2), first=True)
    m = message_length(n, 3)
    tail = ceil_log(3, m) + 1
    if y0[m - 1] != y0[m]:
        return _reconstruct_or_fail((y0[:m], y1[:m]))
    # the deletion hit row 0's data: the marker bit, 1 - last, slid into view
    digits = _reconstruct_or_fail((y0[-tail:], y1[-tail:]))
    x0 = _reinsert(y0[:m - 1], 1 - y0[m - 1], digits, (0, 1))
    return _reconstruct_or_fail((x0, y1[:m]))


# -- either-channel deletion, systematic


_PAIR_MARKER = {0: 2, 1: 1, 2: 0}
#: per row: its bits at the last data letter and the marker -> that letter
_PAIR_BOUNDARY = tuple({decompose_sequence((last, marker), 2)[row]: last
                        for last, marker in _PAIR_MARKER.items()}
                       for row in (0, 1))


def marker_pair_encode(message):
    """Append a marker pair, the fixed letters 0 2, and the ternary
    syndrome digits of row0+row1.

    The marker letter flips both rows of the last data letter where it can
    (letters 0 and 2); the middle letter 1 keeps a fixed pattern 0 2 behind
    the marker as a fallback frame, since no single letter differs from 1
    in both rows.
    """
    s = tuple(message)
    if not s:
        raise DomainError("message must be non-empty")
    r0, r1 = decompose_sequence(s, 2)
    _, digits = ternary_redundancy(r0 + r1)
    marker_letter = _PAIR_MARKER[s[-1]]
    return s + (marker_letter, marker_letter, 0, 2) + digits


def marker_pair_decode(rows):
    """Recover the message whichever channel lost a bit.

    The intact row reveals the last data letter (hence the last bit of
    row0+row1); the short row is framed either by the marker pair or,
    when the marker cannot differ from the data on that row (last letter
    1), by the fixed 0 2 pattern behind it.
    """
    rows, channel, n = _short_row(_check_rows(rows, 2))
    short, intact = rows[channel], rows[1 - channel]
    m = message_length(n, 5, span=2)
    pattern = (intact[m - 1], intact[m])
    last_letter = _PAIR_BOUNDARY[1 - channel].get(pattern)
    if last_letter is None:
        raise DecodeFailure(
            f"boundary pattern {pattern} on the intact row is not reachable "
            "by one deletion")
    if last_letter == 1:
        # marker equals the data on this row; frame off the fixed 0 2 pair
        # (intact data leaves 0 at m + 2 on row 0, 1 at m + 1 on row 1)
        data_intact = short[m + 2 - channel] == channel
    else:
        data_intact = short[m - 1] != short[m]
    if data_intact:
        return _reconstruct_or_fail((rows[0][:m], rows[1][:m]))
    # row0+row1 data with one bit missing; its last bit is row 1's
    stub = rows[0][:m - 1 + channel] + rows[1][:m - channel]
    tail = ceil_log(3, 2 * m) + 1
    digits = _reconstruct_or_fail((rows[0][-tail:], rows[1][-tail:]))
    u = _reinsert(stub, int(last_letter > 0), digits, (0, 1))
    data = (u[:m], u[m:])
    if data[1 - channel] != intact[:m]:
        raise DecodeFailure("syndrome decoding contradicts the intact row")
    return _reconstruct_or_fail(data)


# ---------------------------------------------------------------------------
# channel-output enumeration for harnesses


def deletion_outputs(codeword, k: int, shortened):
    """All received rows after one deletion in one of the shortened rows.

    Yields (channel, position, rows), by channel, then position.
    """
    rows = decompose_sequence(tuple(codeword), k)
    for channel in shortened:
        row = rows[channel]
        for pos in range(len(row)):
            yield channel, pos, rows[:channel] + (delete_at(row, pos),) + rows[channel + 1:]
