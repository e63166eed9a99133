"""Command-line surface for the composite sequence toolkit.

Subcommands cover every library operation: letter/sequence mappings,
error-ball queries, bound tables, the code constructions (encode, decode,
exhaustive verification), exact optimal-code search, and channel capacity.

Conventions
-----------
* sequences are digit strings ("012340"), comma-separated above k = 9;
* received channel rows are slash-separated binary strings ("10/11");
* error specs: "(e0,e1,...)" per channel, "t:e" total, "d:(1,0,...,0)" /
  "d:1" for deletions;
* --format picks text, csv or json (one JSON object per line);
* exit status: 0 success, 1 domain error, a file that cannot be opened
  or failed verification, 2 usage.

Inputs come from positional arguments, --in FILE, or stdin (one item per
line); long outputs are streamed row by row.  Identical invocations
produce byte-identical output.  Schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter

from composite_codec import bounds as bounds_mod
from composite_codec import capacity as capacity_mod
from composite_codec import deletion as deletion_mod
from composite_codec import error_model as em
from composite_codec import oracle as oracle_mod
from composite_codec import substitution as sub_mod
from composite_codec.core import (
    DomainError,
    _check_resolution,
    _check_rows,
    all_sequences,
    decompose_sequence,
    format_binary,
    format_sequence,
    parse_binary,
    parse_sequence,
    reconstruct_rows,
    transform_reverse,
    transform_shift,
)

BOUND_CHOICES = tuple(bounds_mod.BOUNDS)


# ---------------------------------------------------------------------------
# input/output plumbing


def _input_items(args):
    if getattr(args, "inputs", None):
        yield from args.inputs
        return
    infile = getattr(args, "infile", None)
    with (open(infile, "r", encoding="utf-8") if infile
          else contextlib.nullcontext(sys.stdin)) as source:
        for line in source:
            line = line.strip()
            if line:
                yield line


def _open_out(args):
    path = getattr(args, "out", None)
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _cell(value) -> str:
    if isinstance(value, float):
        return format(float(value), ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return (value.numerator if value.denominator == 1
                else bounds_mod.format_rational(value))
    if value is None:
        return None
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class _Emitter:
    """Streams rows in the selected format, the one place that knows how a
    row looks.  csv writes the header before its first row and json keys
    each row by it; text prints the columns named in text (default: all),
    tab-separated, after the header line at once when text_header is set."""

    def __init__(self, fmt: str, out, header, text=None, text_header=False):
        self.fmt = fmt
        self.out = out
        self.header = tuple(header)
        self._text = None if text is None else [self.header.index(c) for c in text]
        self._writer = None
        if fmt == "text" and text_header:
            out.write("\t".join(self.header) + "\n")

    def row(self, values):
        values = tuple(values)
        if self.fmt == "csv":
            if self._writer is None:
                self._writer = csv.writer(self.out, lineterminator="\n")
                self._writer.writerow(self.header)
            self._writer.writerow([_cell(v) for v in values])
        elif self.fmt == "json":
            obj = {key: _jsonable(v) for key, v in zip(self.header, values)}
            self.out.write(json.dumps(obj) + "\n")
        else:
            if self._text is not None:
                values = [values[i] for i in self._text]
            self.out.write("\t".join(_cell(v) for v in values) + "\n")


# ---------------------------------------------------------------------------
# construction registry


@dataclass(frozen=True)
class _Construction:
    """A code construction as encode, decode and verify see it; callables
    take the run state first.  alphabet: letter range of plain words, None
    for k-row words.  Membership codes give members and is_member, systematic
    codes encode; size: a closed-form count; reads: the flags it reads."""

    spec: Callable
    decode: Callable
    alphabet: int | None = None
    members: Callable | None = None
    is_member: Callable | None = None
    encode: Callable | None = None
    size: Callable | None = None
    reads: tuple = ()


class _Run:
    """A construction's settings for one invocation; row codes and fiber
    inner codes are built once per length."""

    def __init__(self, entry: _Construction, args):
        self.k, self.label, self.inner = args.k, args.label, args.inner
        self.spec = entry.spec(args)
        self.alphabet = entry.alphabet or args.k
        self.rows_input = entry.alphabet is None
        self._row_codes, self._inners = {}, {}

    @cached_property
    def shortened(self):
        """The rows the spec may shorten (error_model.shortened_rows),
        computed on first use, so that a bad --k meets the resolution rule
        of the code's own calls first."""
        return em.shortened_rows(self.spec, self.k)

    def row_codes(self, n: int):
        if n not in self._row_codes:
            self._row_codes[n] = tuple(
                sub_mod.HammingCosetCode(n, self.label) if budget
                else sub_mod.TrivialCode(n) for budget in self.spec.budgets)
        return self._row_codes[n]

    def inners(self, n: int):
        if n not in self._inners:
            self._inners[n] = (sub_mod.optimal_fiber_inners(n)
                               if self.inner == "optimal"
                               else sub_mod.hamming_fiber_inners(n, self.label))
        return self._inners[n]


def _first_row(k: int) -> str:
    """The budget vector (1,0,...,0) with k entries, as text."""
    return f"({','.join(['1'] + ['0'] * (k - 1))})"


def _c1_spec(args):
    spec = em.parse_spec(args.spec or _first_row(args.k))
    if not isinstance(spec, em.PerChannel):
        raise DomainError("construction c1 takes a per-channel spec")
    if any(b not in (0, 1) for b in spec.budgets):
        raise DomainError(
            "construction c1 handles per-channel budgets of 0 or 1")
    return spec


_CONSTRUCTIONS = {
    "c1": _Construction(
        _c1_spec, reads=("k", "spec", "label"),
        members=lambda r, n: sub_mod.product_enumerate(n, r.k, r.row_codes(n)),
        is_member=lambda r, s: sub_mod.product_membership(
            s, r.k, r.row_codes(len(s))),
        decode=lambda r, y: sub_mod.product_decode(
            y, r.k, r.row_codes(len(y[0])))),
    "c2": _Construction(
        lambda a: em.PerChannel((1,) + (0,) * (a.k - 1)),
        reads=("k", "inner", "label"),
        members=lambda r, n: sub_mod.fiber_enumerate(n, r.k, r.inners(n)),
        is_member=lambda r, s: sub_mod.fiber_membership(s, r.k, r.inners(len(s))),
        decode=lambda r, y: sub_mod.fiber_decode(y, r.k, r.inners(len(y[0]))),
        size=lambda r, n: sub_mod.fiber_code_size(
            n, r.k, {ell: code.size for ell, code in r.inners(n).items()})),
    "lee": _Construction(
        lambda a: em.Total(1), reads=("k", "label"),
        members=lambda r, n: sub_mod.checksum_enumerate(n, r.k, r.label),
        is_member=lambda r, s: sub_mod.checksum_membership(s, r.k, r.label),
        decode=lambda r, y: sub_mod.checksum_decode(y, r.k, r.label)),
    "c3": _Construction(
        lambda a: em.parse_spec("d:" + _first_row(a.k)), reads=("k", "label"),
        members=lambda r, n: deletion_mod.vt_row_enumerate(n, r.label, r.k),
        is_member=lambda r, s: deletion_mod.vt_row_membership(s, r.label, r.k),
        decode=lambda r, y: deletion_mod.vt_row_decode(y, r.label)),
    "c4": _Construction(
        lambda a: em.RADIUS_10,
        encode=lambda r, msg: deletion_mod.marker_row_encode(msg),
        decode=lambda r, y: deletion_mod.marker_row_decode(y)),
    "c5": _Construction(
        lambda a: em.RADIUS_1, reads=("k", "label"),
        members=lambda r, n: deletion_mod.vt_pair_enumerate(n, r.label, r.k),
        is_member=lambda r, s: deletion_mod.vt_pair_membership(s, r.label, r.k),
        decode=lambda r, y: deletion_mod.vt_pair_decode(y, r.label)),
    "c6": _Construction(
        lambda a: em.RADIUS_1,
        encode=lambda r, msg: deletion_mod.marker_pair_encode(msg),
        decode=lambda r, y: deletion_mod.marker_pair_decode(y)),
    "vt": _Construction(
        lambda a: em.RADIUS_1, alphabet=1, reads=("label",),
        members=lambda r, n: deletion_mod.vt_enumerate(n, r.label),
        is_member=lambda r, x: deletion_mod.vt_membership(x, r.label),
        decode=lambda r, y: deletion_mod.vt_decode(y, len(y) + 1, r.label)),
    "ternary": _Construction(
        lambda a: em.RADIUS_1, alphabet=2,
        encode=lambda r, msg: deletion_mod.ternary_encode(msg),
        decode=lambda r, y: deletion_mod.ternary_decode(
            y, deletion_mod.message_length(
                len(y), 2, unknown="no data length yields received words"))),
}

CONSTRUCTIONS = tuple(_CONSTRUCTIONS)

#: flags every mode reads: the subcommand, its parser, output and inputs
_SHARED = ("command", "parser", "format", "out", "caps", "infile", "inputs")


def _only(args, mode: str, *reads: str) -> None:
    """The one unread-flag rule: a flag off its subcommand's default that
    is neither in reads nor shared is an error."""
    for flag, value in vars(args).items():
        if flag not in reads + _SHARED and value != args.parser.get_default(flag):
            raise DomainError(f"{mode} does not read --{flag.replace('_', '-')}")


def _construction(args, *reads):
    """The entry named by --construction, which reads its flags and reads."""
    entry = _CONSTRUCTIONS[args.construction]
    _only(args, f"construction {args.construction}", "construction",
          *entry.reads, *reads)
    if args.inner == "optimal" and args.label != 0:
        raise DomainError("--inner optimal does not read --label")
    return entry, _Run(entry, args)


def _cases(run, codeword):
    """Yield (channel, position, received), one per case of the error
    universe, in no set order: received rows under a substitution spec,
    one deletion from the shortened rows of a row code, one deletion from
    a plain word."""
    if run.shortened is None:
        for y in em.enumerate_received_rows(codeword, run.k, run.spec):
            yield None, None, y
    elif run.rows_input:
        yield from deletion_mod.deletion_outputs(codeword, run.k, run.shortened)
    else:
        for y in em.single_deletions(codeword):
            yield None, None, y


def _parse_received(run, text: str):
    if not run.rows_input:
        return parse_sequence(text, run.alphabet)
    return _check_rows(map(parse_binary, text.split("/")), run.k)


def _format_rows(rows) -> str:
    return "/".join(format_binary(r) for r in rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_decompose(args, out):
    emitter = _Emitter(args.format, out, ("sequence",) + tuple(
        f"row{j}" for j in range(args.k)))
    first = True
    for text in _input_items(args):
        s = parse_sequence(text, args.k)
        rows = decompose_sequence(s, args.k)
        if args.format == "text":
            if not first:
                out.write("\n")
            for row in rows:
                out.write(format_binary(row) + "\n")
            first = False
        else:
            emitter.row((format_sequence(s, args.k),)
                        + tuple(format_binary(r) for r in rows))
    return 0


def _cmd_reconstruct(args, out):
    emitter = _Emitter(args.format, out, ("rows", "sequence"), text=("sequence",))
    for text in _input_items(args):
        rows = tuple(parse_binary(part) for part in text.split("/"))
        emitter.row((_format_rows(rows),
                     format_sequence(reconstruct_rows(rows), len(rows))))
    return 0


def _cmd_transform(args, out):
    emitter = _Emitter(args.format, out, ("sequence", "transformed"),
                       text=("transformed",))
    for text in _input_items(args):
        s = parse_sequence(text, args.k)
        if args.reverse:
            t = transform_reverse(s, args.k)
        else:
            t = transform_shift(s, args.k, args.shift)
        emitter.row((format_sequence(s, args.k), format_sequence(t, args.k)))
    return 0


def _cmd_ball(args, out):
    spec = em.parse_spec(args.spec)
    k = args.k
    deletion = em.shortened_rows(spec, k) is not None
    if args.mode == "size":
        emitter = _Emitter(args.format, out, ("sequence", "size", "closed_form"),
                           text=("size",))
        for text in _input_items(args):
            s = parse_sequence(text, k)
            emitter.row((format_sequence(s, k), em.ball_size(s, k, spec),
                         deletion or em.has_closed_form(k, spec)))
        return 0
    members = {"enumerate": em.enumerate_ball, "inbound": em.enumerate_in_ball,
               "received": em.enumerate_received_rows}[args.mode]
    # members are sequences, or row tuples for received outputs and deletions
    rows = deletion or args.mode == "received"
    emitter = _Emitter(args.format, out, ("sequence", "member"), text=("member",))
    for text in _input_items(args):
        s = parse_sequence(text, k)
        if deletion and args.mode != "enumerate":
            raise DomainError(f"{args.mode} mode applies to substitution specs")
        for m in sorted(members(s, k, spec)):
            emitter.row((format_sequence(s, k),
                         _format_rows(m) if rows else format_sequence(m, k)))
    return 0


def _cmd_bounds(args, out):
    _check_resolution(args.k)
    if args.table:
        _only(args, f"bounds --table {args.table}", "table", "n_min", "n_max",
              *bounds_mod.TABLE_READS[args.table])
        stream = bounds_mod.emit_bound_table(
            args.table, range(args.n_min, args.n_max + 1),
            k=args.k, e0=args.e0, e1=args.e1, e=args.e)
        emitter = _Emitter(args.format, out, next(stream), text_header=True)
        for row in stream:
            emitter.row(row)
        return 0
    _only(args, "bounds", "n", "k", "spec", "bound")
    if args.n is None or args.spec is None:
        raise DomainError("either --table or both --n and --spec are required")
    spec = em.parse_spec(args.spec)
    # the spec's entry count against k, once for every bound
    # (shortened_rows checks a deletion spec's)
    if em.shortened_rows(spec, args.k) is None:
        em._check_sub_spec(args.k, spec)
    emitter = _Emitter(args.format, out,
                       ("bound", "kind", "value", "floor", "validity"))
    for name in args.bound or BOUND_CHOICES:
        try:
            result = bounds_mod.BOUNDS[name](args.n, args.k, spec)
        except DomainError:
            if args.bound:  # a named bound that does not apply is an error
                raise
            continue
        emitter.row((name, result.kind, result.value, result.value_floor,
                     result.validity_range))
    return 0


def _cmd_encode(args, out):
    entry, run = _construction(args)
    for text in _input_items(args):
        word = parse_sequence(text, run.alphabet)
        if entry.encode is not None:
            word = entry.encode(run, word)
        elif not entry.is_member(run, word):
            raise DomainError(
                f"{text} is not a codeword of {args.construction}")
        out.write(format_sequence(word, run.alphabet) + "\n")
    return 0


def _cmd_decode(args, out):
    entry, run = _construction(args)
    for text in _input_items(args):
        decoded = entry.decode(run, _parse_received(run, text))
        out.write(format_sequence(decoded, run.alphabet) + "\n")
    return 0


def _cmd_search_optimal(args, out):
    if args.binary_length is not None:
        _only(args, "search-optimal --binary-length", "binary_length", "save")
        result = oracle_mod.optimal_binary_single_error(args.binary_length)
        witness = [format_binary(w) for w in result.witness]
        params = {"binary_length": args.binary_length}
    else:
        _only(args, "search-optimal", "n", "k", "spec", "save")
        if args.n is None or args.spec is None:
            raise DomainError("--n and --spec (or --binary-length) are required")
        spec = em.parse_spec(args.spec)
        result = oracle_mod.optimal_code_size(args.n, args.k, spec)
        witness = [format_sequence(w, args.k) for w in result.witness]
        params = {"n": args.n, "k": args.k, "spec": args.spec}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            for word in witness:
                fh.write(word + "\n")
    if args.format == "json":
        obj = dict(params, size=result.size, witness=witness)
        out.write(json.dumps(obj) + "\n")
    elif args.format == "csv":
        emitter = _Emitter("csv", out, ("index", "codeword"))
        for i, word in enumerate(witness):
            emitter.row((i, word))
    else:
        out.write(f"size {result.size}\n")
        for word in witness:
            out.write(word + "\n")
    return 0


def _verify_construction(args, out):
    length = "n" if _CONSTRUCTIONS[args.construction].encode is None else "m"
    sampling = (("summary",) if args.summary
                else ("sample", "seed") if args.sample is not None else ())
    entry, run = _construction(args, length, *sampling)
    # (decode target, codeword); a systematic codeword decodes to its message
    if entry.encode is None:
        if args.n is None:
            raise DomainError("--n is required to verify a membership code")
        pairs = [(word, word) for word in entry.members(run, args.n)]
    else:
        if args.m is None:
            raise DomainError("--m (message length) is required to verify "
                              "a systematic code")
        pairs = [(msg, entry.encode(run, msg))
                 for msg in all_sequences(args.m, run.alphabet)]
    if args.summary:
        expected = entry.size(run, args.n) if entry.size else len(pairs)
        if expected != len(pairs):
            raise DomainError(
                f"enumerated {len(pairs)} codewords but the size formula gives "
                f"{expected}")
        header = ("construction", "codewords", "cases", "failures", "ok")
    else:
        if args.sample is not None:
            if args.sample < 0:
                raise DomainError(f"sample size must be >= 0, got {args.sample}")
            rng = random.Random(args.seed)
            pairs = sorted(rng.sample(pairs, min(args.sample, len(pairs))),
                           key=itemgetter(1))
        header = ("construction", "codeword", "channel", "position",
                  "received", "decoded", "status")
    emitter = _Emitter(args.format, out, header)
    decode = partial(entry.decode, run)
    count = failures = 0
    for target, word in pairs:
        cases = list(_cases(run, word))
        report = oracle_mod.exhaustive_decode_check(
            [target], lambda _: (y for _, _, y in cases), decode)
        count += report.cases
        failures += len(report.failures)
        if args.summary:
            continue
        wrong = {y: got for _, y, got in report.failures}
        for channel, position, received in sorted(cases):
            got = wrong.get(received, target)
            shown = (_format_rows(received) if run.rows_input
                     else format_sequence(received, run.alphabet))
            emitter.row((args.construction, format_sequence(word, run.alphabet),
                         channel, position, shown,
                         f"error: {got}" if isinstance(got, Exception)
                         else format_sequence(got, run.alphabet),
                         "fail" if received in wrong else "ok"))
    if args.summary:
        emitter.row((args.construction, len(pairs), count, failures, failures == 0))
    else:
        print(f"{count} cases, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def _verify_codebook(args, out):
    if args.spec is None:
        raise DomainError("--spec is required for --codebook")
    spec = em.parse_spec(args.spec)
    with open(args.codebook, "r", encoding="utf-8") as fh:
        words = [parse_sequence(line.strip(), args.k)
                 for line in fh if line.strip()]
    balls = [em.enumerate_ball(w, args.k, spec) for w in words]
    emitter = _Emitter(args.format, out, ("codeword_a", "codeword_b"))
    conflicts = 0
    for i, mask in enumerate(oracle_mod.conflict_graph(balls)):
        for j in oracle_mod.set_bits(mask >> (i + 1) << (i + 1)):
            conflicts += 1
            emitter.row((format_sequence(words[i], args.k),
                         format_sequence(words[j], args.k)))
    print(f"{len(words)} codewords, {conflicts} conflicting pairs",
          file=sys.stderr)
    return 0 if conflicts == 0 else 1


def _verify_transversal(args, out):
    if args.n is None or args.spec is None:
        raise DomainError("--n and --spec are required for --transversal")
    spec = em.parse_spec(args.spec)
    n, k = args.n, args.k
    weight = bounds_mod.gspb_weight_rule(n, k, spec)
    report = oracle_mod.check_fractional_transversal(
        em.space_balls(n, k, spec), itemgetter(1), weight)
    outputs = report.outputs
    if em.shortened_rows(spec, k) == (0,):
        expected = em.vertex_set_size(n, k)
        if len(outputs) != expected:
            raise DomainError(
                f"output universe has {len(outputs)} elements, closed form "
                f"gives {expected}")
        # gspb_upper sums N(n-1; rho; w) V(n; w; k) outputs per (runs,
        # weight) of the deleted row, which is empty at n = 1; the
        # enumerated outputs must match it
        seen = Counter((em.runs(y0), sum(y0)) for y0, *_ in outputs if y0)
        for (rho, w), count in sorted(seen.items()):
            closed = em.count_runs_weight(n - 1, rho, w) * em.count_v(n, w, k)
            if count != closed:
                raise DomainError(
                    f"{count} outputs with {rho} runs and weight {w}, "
                    f"closed form gives {closed}")
    try:
        gspb = bounds_mod.gspb_upper(n, k, spec).value
    except DomainError:
        gspb = None
    emitter = _Emitter(args.format, out,
                       ("n", "k", "spec", "outputs", "min_cover",
                        "total_weight", "gspb", "feasible"))
    emitter.row((n, k, args.spec, len(outputs), report.min_cover,
                 report.total_weight, gspb, report.feasible))
    return 0 if report.feasible else 1


def _cmd_verify(args, out):
    if args.codebook:
        _only(args, "verify --codebook", "codebook", "k", "spec")
        return _verify_codebook(args, out)
    if args.transversal:
        _only(args, "verify --transversal", "transversal", "n", "k", "spec")
        return _verify_transversal(args, out)
    if args.construction:
        return _verify_construction(args, out)
    raise DomainError(
        "one of --construction, --codebook or --transversal is required")


def _parse_sweep(text: str):
    try:
        if ":" in text:
            lo_s, hi_s, count_s = text.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            step = (hi - lo) / max(count - 1, 1)
            ps = [lo + i * step for i in range(count)]
        else:
            ps = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise DomainError(f"sweep {text!r} is neither lo:hi:count nor a "
                          "comma-separated list") from None
    if ":" in text and len(ps) < 2:
        raise DomainError("sweep needs at least two points")
    if not ps:
        raise DomainError(f"sweep {text!r} has no points")
    return ps


def _cmd_capacity(args, out):
    if args.sweep:
        _only(args, "capacity --sweep", "sweep", "oracle", "plot", "tol")
        ps = _parse_sweep(args.sweep)
        if args.plot and len(ps) < 2:
            raise DomainError("--plot needs a sweep with at least two points")
    elif args.p is not None:
        _only(args, "capacity --p", "p", "oracle", "tol")
        ps = [args.p]
    else:
        raise DomainError("either --p or --sweep is required")
    header = ["p", "alpha_opt", "cap_composite_bits", "cap_two_level_bits"]
    if args.oracle:
        header.append("cap_oracle_bits")
    rows = capacity_mod.sweep(ps, tol=args.tol)
    if args.oracle:
        # every point certified before the first row is printed
        table = [row + (capacity_mod.blahut_arimoto(
            capacity_mod.channel_matrix(row[0]))[1],) for row in rows]
    else:
        table = rows
    if args.plot:  # written before any row, so a refused path prints none
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(capacity_mod.render_svg(rows) + "\n")
    emitter = _Emitter(args.format, out, header)
    for values in table:
        emitter.row(values)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


DISPATCH = {
    "decompose": _cmd_decompose,
    "reconstruct": _cmd_reconstruct,
    "transform": _cmd_transform,
    "ball": _cmd_ball,
    "bounds": _cmd_bounds,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "search-optimal": _cmd_search_optimal,
    "verify": _cmd_verify,
    "capacity": _cmd_capacity,
}


def _add_common(sub, inputs=False):
    sub.set_defaults(parser=sub)  # the defaults _only compares against
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    sub.add_argument("--out", help="write output to this file")
    sub.add_argument("--caps", type=int,
                     help="raise each enumeration cap to at least this")
    if inputs:
        sub.add_argument("--in", dest="infile",
                         help="read inputs from this file (default: stdin)")
        sub.add_argument("inputs", nargs="*",
                         help="inline inputs (default: stdin)")


def _add_codec_flags(sub, required=True):
    sub.add_argument("--construction", choices=CONSTRUCTIONS,
                     required=required)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--label", type=int, default=0,
                     help="checksum label / coset selector")
    sub.add_argument("--inner", choices=("hamming", "optimal"),
                     default="hamming", help="inner codes for construction c2")
    sub.add_argument("--spec", help="per-channel spec for construction c1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="composite-codec",
        description="codes for ordered two-or-more-channel composite sequences")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="sequence -> channel rows")
    p.add_argument("--k", type=int, required=True)
    _add_common(p, inputs=True)

    p = subs.add_parser("reconstruct", help="channel rows -> sequence")
    _add_common(p, inputs=True)

    p = subs.add_parser("transform", help="alphabet symmetries")
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--reverse", action="store_true",
                       help="reverse the alphabet (sigma -> k - sigma)")
    group.add_argument("--shift", type=int,
                       help="shift levels by this amount where valid")
    _add_common(p, inputs=True)

    p = subs.add_parser("ball", help="error-ball sizes and members")
    ball_modes = p.add_subparsers(dest="mode", required=True)
    for mode, text in (("size", "ball cardinality"),
                       ("enumerate", "ball members"),
                       ("inbound", "centers whose ball contains the input"),
                       ("received", "raw channel-row outputs")):
        mp = ball_modes.add_parser(mode, help=text)
        mp.add_argument("--k", type=int, default=2)
        mp.add_argument("--spec", required=True)
        _add_common(mp, inputs=True)

    p = subs.add_parser("bounds", help="bound values and published tables")
    p.add_argument("--table", choices=sorted(bounds_mod.TABLE_KINDS))
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--spec")
    p.add_argument("--e0", type=int, default=1)
    p.add_argument("--e1", type=int, default=1)
    p.add_argument("--e", type=int, default=2)
    p.add_argument("--bound", action="append", choices=BOUND_CHOICES,
                   help="specific bound(s); default: all applicable")
    _add_common(p)

    p = subs.add_parser("encode", help="validate-and-echo or systematic encode")
    _add_codec_flags(p)
    _add_common(p, inputs=True)

    p = subs.add_parser("decode", help="decode received channel rows")
    _add_codec_flags(p)
    _add_common(p, inputs=True)

    p = subs.add_parser("search-optimal", help="exact largest code search")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--spec")
    p.add_argument("--binary-length", type=int,
                   help="search binary single-error codes of this length instead")
    p.add_argument("--save",
                   help="export the witness codebook to this file, one "
                        "codeword per line")
    _add_common(p)

    p = subs.add_parser("verify", help="exhaustive harnesses and checks")
    _add_codec_flags(p, required=False)
    p.add_argument("--n", type=int, help="codeword length (membership codes)")
    p.add_argument("--m", type=int, help="message length (systematic codes)")
    p.add_argument("--summary", action="store_true",
                   help="one aggregate row instead of per-case rows")
    p.add_argument("--sample", type=int,
                   help="verify a random subset of this many codewords")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codebook", help="check a codebook file for conflicts")
    p.add_argument("--transversal", action="store_true",
                   help="check the fractional-transversal weight rule")
    _add_common(p)

    p = subs.add_parser("capacity", help="channel capacity, sweeps and plots")
    p.add_argument("--p", type=float, help="single crossover probability")
    p.add_argument("--sweep", help='"lo:hi:count" or comma-separated list')
    p.add_argument("--oracle", action="store_true",
                   help="add a Blahut-Arimoto cross-check column")
    p.add_argument("--plot", help="write an SVG of the sweep to this path")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)

    return parser


@contextlib.contextmanager
def _all_digits():
    """Lift Python's limit on the digits of an int printed as text (exact
    bounds at large n run to thousands of digits), and put it back after;
    a Python without the limit (before 3.10.7) needs nothing."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# built on the first call and reused: building it costs about 5 ms, more
# than many in-process queries take
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        with (em.raised_caps(getattr(args, "caps", None)), _all_digits(),
              _open_out(args) as out):
            return DISPATCH[args.command](args, out)
    except BrokenPipeError:
        return 0
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())