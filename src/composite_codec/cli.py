"""Command-line surface for the composite sequence toolkit.

Subcommands cover every library operation: letter/sequence mappings,
error-ball queries, bound tables, the code constructions (encode, decode,
exhaustive verification), exact optimal-code search, and channel capacity.

Conventions
-----------
* sequences are digit strings ("012340"), comma-separated above k = 9;
* received channel rows are slash-separated binary strings ("10/11");
* error specs: "(e0,e1,...)" per channel, "t:e" total, "d:(1,0)" / "d:1"
  for deletions;
* --format picks text, csv or json (one JSON object per line);
* exit status: 0 success, 1 domain error or failed verification, 2 usage.

Inputs come from positional arguments, --in FILE, or stdin (one item per
line); long outputs are streamed row by row.  Identical invocations
produce byte-identical output.  Schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import sys
from fractions import Fraction

from composite_codec import bounds as bounds_mod
from composite_codec import capacity as capacity_mod
from composite_codec import deletion as deletion_mod
from composite_codec import error_model as em
from composite_codec import oracle as oracle_mod
from composite_codec import substitution as sub_mod
from composite_codec.core import (
    DomainError,
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

CONSTRUCTIONS = ("c1", "c2", "lee", "c3", "c4", "c5", "c6", "vt", "ternary")

_LOWER_METHODS = {
    "lower:bch": "bch",
    "lower:coset": "coset",
    "lower:fiber": "fiber",
    "lower:lee": "lee",
    "lower:vt": "vt_del",
    "lower:vt1": "vt1_del",
    "lower:tenengolts": "tenengolts_del",
    "lower:tenengolts1": "tenengolts1_del",
}

BOUND_CHOICES = ("sphere", "asymptotic", "tighter", "gspb", "average",
                 "aspv") + tuple(_LOWER_METHODS)


# ---------------------------------------------------------------------------
# input/output plumbing


def _input_items(args):
    if getattr(args, "inputs", None):
        yield from args.inputs
        return
    source = sys.stdin
    if getattr(args, "infile", None):
        source = open(args.infile, "r", encoding="utf-8")
    with contextlib.ExitStack() as stack:
        if source is not sys.stdin:
            stack.enter_context(source)
        for line in source:
            line = line.strip()
            if line:
                yield line


def _open_out(args):
    path = getattr(args, "out", None)
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def _cell(value) -> str:
    if isinstance(value, Fraction):
        return bounds_mod.format_rational(value)
    if isinstance(value, float):
        return _fmt_float(value)
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
    """Streams rows in the selected format; header emitted lazily."""

    def __init__(self, fmt: str, out, header):
        self.fmt = fmt
        self.out = out
        self.header = tuple(header)
        self._writer = None

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
            self.out.write("\t".join(_cell(v) for v in values) + "\n")


# ---------------------------------------------------------------------------
# construction registry


class _Codec:
    """Uniform facade over the code constructions for encode/decode/verify."""

    def __init__(self, name: str, args):
        self.name = name
        self.k = args.k
        self.label = args.label
        self.kind = "systematic" if name in ("c4", "c6", "ternary") else "membership"
        self.rows_input = name in ("c1", "c2", "lee", "c3", "c4", "c5", "c6")
        self.alphabet = {"vt": 1, "ternary": 2}.get(name, self.k)
        self._row_codes = {}
        self._inners = {}
        self._inner_kind = getattr(args, "inner", "hamming")
        if name in ("c3", "c4", "c5", "c6", "vt", "ternary") and self.k != 2:
            raise DomainError(f"construction {name} is defined for k = 2")
        if name == "c1":
            text = getattr(args, "spec", None) or f"({','.join(['1'] + ['0'] * (self.k - 1))})"
            spec = em.parse_spec(text)
            if not isinstance(spec, em.PerChannel):
                raise DomainError("construction c1 takes a per-channel spec")
            if any(b not in (0, 1) for b in spec.budgets):
                raise DomainError(
                    "construction c1 handles per-channel budgets of 0 or 1")
            self.spec = spec
        elif name == "c2":
            self.spec = em.PerChannel((1,) + (0,) * (self.k - 1))
        elif name == "lee":
            self.spec = em.Total(1)
        elif name in ("c3", "c4"):
            self.spec = em.RADIUS_10
        else:
            self.spec = em.RADIUS_1

    # -- per-length helpers

    def row_codes(self, n: int):
        if n not in self._row_codes:
            self._row_codes[n] = tuple(
                sub_mod.HammingCosetCode(n, self.label) if budget
                else sub_mod.TrivialCode(n)
                for budget in self.spec.budgets)
        return self._row_codes[n]

    def inners(self, n: int):
        if n not in self._inners:
            if self._inner_kind == "optimal":
                self._inners[n] = sub_mod.optimal_fiber_inners(n)
            else:
                self._inners[n] = sub_mod.hamming_fiber_inners(n, self.label)
        return self._inners[n]

    # -- membership interface

    def is_member(self, s) -> bool:
        return {
            "c1": lambda: sub_mod.product_membership(s, self.k, self.row_codes(len(s))),
            "c2": lambda: sub_mod.fiber_membership(s, self.k, self.inners(len(s))),
            "lee": lambda: sub_mod.checksum_membership(s, self.k, self.label),
            "c3": lambda: deletion_mod.vt_row_membership(s, self.label),
            "c5": lambda: deletion_mod.vt_pair_membership(s, self.label),
            "vt": lambda: deletion_mod.vt_membership(s, self.label),
        }[self.name]()

    def members(self, n: int):
        return {
            "c1": lambda: sub_mod.product_enumerate(n, self.k, self.row_codes(n)),
            "c2": lambda: sub_mod.fiber_enumerate(n, self.k, self.inners(n)),
            "lee": lambda: sub_mod.checksum_enumerate(n, self.k, self.label),
            "c3": lambda: deletion_mod.vt_row_enumerate(n, self.label),
            "c5": lambda: deletion_mod.vt_pair_enumerate(n, self.label),
            "vt": lambda: deletion_mod.vt_enumerate(n, self.label),
        }[self.name]()

    def expected_size(self, n: int):
        if self.name == "c2":
            sizes = {length: code.size for length, code in self.inners(n).items()}
            return sub_mod.fiber_code_size(n, self.k, sizes)
        return None

    # -- systematic interface

    def encode(self, message):
        return {
            "c4": lambda: deletion_mod.marker_row_encode(message),
            "c6": lambda: deletion_mod.marker_pair_encode(message),
            "ternary": lambda: deletion_mod.ternary_encode(message),
        }[self.name]()

    # -- decoding

    def decode(self, received):
        name = self.name
        if name == "c1":
            n = len(received[0])
            return sub_mod.product_decode(received, self.k, self.row_codes(n))
        if name == "c2":
            n = len(received[0])
            return sub_mod.fiber_decode(received, self.k, self.inners(n))
        if name == "lee":
            return sub_mod.checksum_decode(received, self.k, self.label)
        if name == "c3":
            return deletion_mod.vt_row_decode(received, self.label)
        if name == "c4":
            return deletion_mod.marker_row_decode(received)
        if name == "c5":
            return deletion_mod.vt_pair_decode(received, self.label)
        if name == "c6":
            return deletion_mod.marker_pair_decode(received)
        if name == "vt":
            return deletion_mod.vt_decode(received, len(received) + 1, self.label)
        return deletion_mod.ternary_decode(
            received, _infer_plain_length(len(received)))

    # -- verification cases

    def cases(self, codeword):
        """Yield (channel, position, received) spanning the error universe."""
        name = self.name
        if name in ("c1", "c2", "lee"):
            received = sorted(em.enumerate_received_rows(codeword, self.k, self.spec))
            for rows in received:
                yield None, None, rows
        elif name in ("c3", "c4"):
            yield from deletion_mod.deletion_outputs(codeword, (0,))
        elif name in ("c5", "c6"):
            yield from deletion_mod.deletion_outputs(codeword, (0, 1))
        else:
            for y in sorted(deletion_mod.distinct_deletions(codeword)):
                yield None, None, y

    # -- text forms

    def parse_word(self, text: str):
        return parse_sequence(text, self.alphabet)

    def format_word(self, word) -> str:
        return format_sequence(word, self.alphabet)

    def parse_received(self, text: str):
        if not self.rows_input:
            return self.parse_word(text)
        rows = tuple(parse_binary(part) for part in text.split("/"))
        if len(rows) != self.k:
            raise DomainError(
                f"expected {self.k} channel rows, got {len(rows)}")
        return rows

    def format_received(self, received) -> str:
        if not self.rows_input:
            return self.format_word(received)
        return "/".join(format_binary(r) for r in received)


def _infer_plain_length(received_len: int) -> int:
    for m in range(1, received_len + 1):
        if m + bounds_mod.ceil_log(3, m) + 2 == received_len:
            return m
    raise DomainError(
        f"no data length yields received words of length {received_len}")


def _build_codec(args) -> _Codec:
    return _Codec(args.construction, args)


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
    emitter = _Emitter(args.format, out, ("rows", "sequence"))
    for text in _input_items(args):
        rows = tuple(parse_binary(part) for part in text.split("/"))
        s = reconstruct_rows(rows)
        rendered = format_sequence(s, len(rows))
        if args.format == "text":
            out.write(rendered + "\n")
        else:
            emitter.row(("/".join(format_binary(r) for r in rows), rendered))
    return 0


def _cmd_transform(args, out):
    emitter = _Emitter(args.format, out, ("sequence", "transformed"))
    for text in _input_items(args):
        s = parse_sequence(text, args.k)
        if args.reverse:
            t = transform_reverse(s, args.k)
        else:
            t = transform_shift(s, args.k, args.shift)
        rendered = format_sequence(t, args.k)
        if args.format == "text":
            out.write(rendered + "\n")
        else:
            emitter.row((format_sequence(s, args.k), rendered))
    return 0


def _is_deletion(spec) -> bool:
    return spec in (em.RADIUS_10, em.RADIUS_1)


def _cmd_ball(args, out):
    spec = em.parse_spec(args.spec)
    k = args.k
    if args.mode == "size":
        emitter = _Emitter(args.format, out,
                           ("sequence", "size", "closed_form"))
        for text in _input_items(args):
            s = parse_sequence(text, k)
            if _is_deletion(spec):
                size, closed = em.del_ball_size(s, spec), True
            else:
                size = em.sub_ball_size(s, k, spec)
                closed = em.has_closed_form(k, spec)
            if args.format == "text":
                out.write(f"{size}\n")
            else:
                emitter.row((format_sequence(s, k), size, closed))
        return 0

    emitter = _Emitter(args.format, out, ("sequence", "member"))
    for text in _input_items(args):
        s = parse_sequence(text, k)
        if args.mode == "enumerate":
            if _is_deletion(spec):
                members = sorted(em.enumerate_del_ball(s, spec))
                rendered = ["/".join(format_binary(r) for r in m) for m in members]
            else:
                rendered = [format_sequence(m, k)
                            for m in sorted(em.enumerate_sub_ball(s, k, spec))]
        elif args.mode == "inbound":
            if _is_deletion(spec):
                raise DomainError("inbound mode applies to substitution specs")
            rendered = [format_sequence(m, k)
                        for m in sorted(em.enumerate_in_ball(s, k, spec))]
        else:  # received
            if _is_deletion(spec):
                raise DomainError("received mode applies to substitution specs")
            rendered = ["/".join(format_binary(r) for r in rows)
                        for rows in sorted(em.enumerate_received_rows(s, k, spec))]
        for item in rendered:
            if args.format == "text":
                out.write(item + "\n")
            else:
                emitter.row((format_sequence(s, k), item))
    return 0


def _bound_value(name: str, n: int, k: int, spec):
    if name == "sphere":
        if k != 2:
            raise DomainError("sphere-packing forms are stated for k = 2")
        return bounds_mod.sphere_packing_upper(n, spec)
    if name == "asymptotic":
        if k != 2:
            raise DomainError("asymptotic forms are stated for k = 2")
        return bounds_mod.asymptotic_upper(n, spec)
    if name == "tighter":
        if k != 2:
            raise DomainError("asymptotic forms are stated for k = 2")
        return bounds_mod.asymptotic_upper(n, spec, tighter=True)
    if name == "gspb":
        return bounds_mod.gspb_upper(n, k, spec)
    if name == "average":
        return bounds_mod.average_ball(n, k, spec)
    if name == "aspv":
        return bounds_mod.aspv(n, k, spec)
    return bounds_mod.lower_bound(n, k, spec, _LOWER_METHODS[name])


def _cmd_bounds(args, out):
    if args.table:
        stream = bounds_mod.emit_bound_table(
            args.table, range(args.n_min, args.n_max + 1),
            k=args.k, e0=args.e0, e1=args.e1, e=args.e)
        header = next(stream)
        emitter = _Emitter(args.format, out, header)
        if args.format == "text":
            out.write("\t".join(header) + "\n")
        for row in stream:
            emitter.row(row)
        return 0
    if args.n is None or args.spec is None:
        raise DomainError("either --table or both --n and --spec are required")
    spec = em.parse_spec(args.spec)
    requested = args.bound or list(BOUND_CHOICES)
    explicit = bool(args.bound)
    emitter = _Emitter(args.format, out,
                       ("bound", "kind", "value", "floor", "validity"))
    for name in requested:
        try:
            result = _bound_value(name, args.n, args.k, spec)
        except DomainError:
            if explicit:
                raise
            continue
        emitter.row((name, result.kind, result.value, result.value_floor,
                     result.validity_range))
    return 0


def _cmd_encode(args, out):
    codec = _build_codec(args)
    for text in _input_items(args):
        word = codec.parse_word(text)
        if codec.kind == "membership":
            if not codec.is_member(word):
                raise DomainError(
                    f"{text} is not a codeword of {codec.name}")
            out.write(codec.format_word(word) + "\n")
        else:
            out.write(codec.format_word(codec.encode(word)) + "\n")
    return 0


def _cmd_decode(args, out):
    codec = _build_codec(args)
    for text in _input_items(args):
        received = codec.parse_received(text)
        decoded = codec.decode(received)
        out.write(codec.format_word(decoded) + "\n")
    return 0


def _cmd_search_optimal(args, out):
    if args.binary_length is not None:
        result = oracle_mod.optimal_binary_single_error(args.binary_length)
        witness = [format_binary(w) for w in result.witness]
        params = {"binary_length": args.binary_length}
    else:
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
    codec = _build_codec(args)
    if codec.kind == "membership":
        if args.n is None:
            raise DomainError("--n is required to verify a membership code")
        words = codec.members(args.n)
        targets = None
    else:
        if args.m is None:
            raise DomainError("--m (message length) is required to verify "
                              "a systematic code")
        messages = list(all_sequences(args.m, codec.alphabet))
        words = [codec.encode(msg) for msg in messages]
        targets = dict(zip(words, messages))

    if args.summary:
        codewords = list(words)
        count = len(codewords)
        expected = codec.expected_size(args.n) if codec.kind == "membership" else None
        if expected is not None and expected != count:
            raise DomainError(
                f"enumerated {count} codewords but the size formula gives "
                f"{expected}")

        def outputs_fn(word):
            return [received for _, _, received in codec.cases(word)]

        if targets is None:
            report = oracle_mod.exhaustive_decode_check(
                codewords, outputs_fn, codec.decode)
        else:
            report = oracle_mod.exhaustive_decode_check(
                list(targets.values()),
                lambda msg: outputs_fn(codec.encode(msg)),
                codec.decode)
        emitter = _Emitter(args.format, out,
                           ("construction", "codewords", "cases", "failures", "ok"))
        emitter.row((codec.name, count, report.cases, len(report.failures),
                     report.ok))
        return 0 if report.ok else 1

    if args.sample is not None:
        rng = random.Random(args.seed)
        pool = list(words)
        words = sorted(rng.sample(pool, min(args.sample, len(pool))))

    emitter = _Emitter(args.format, out,
                       ("construction", "codeword", "channel", "position",
                        "received", "decoded", "status"))
    failures = 0
    count = 0
    for word in words:
        target = targets[word] if targets is not None else word
        for channel, position, received in codec.cases(word):
            count += 1
            try:
                decoded = codec.decode(received)
                ok = decoded == target
                rendered = codec.format_word(decoded)
            except DomainError as exc:
                ok = False
                rendered = f"error: {exc}"
            failures += 0 if ok else 1
            emitter.row((codec.name, codec.format_word(word), channel,
                         position, codec.format_received(received), rendered,
                         "ok" if ok else "fail"))
    print(f"{count} cases, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def _verify_codebook(args, out):
    spec = em.parse_spec(args.spec)
    with open(args.codebook, "r", encoding="utf-8") as fh:
        words = [parse_sequence(line.strip(), args.k)
                 for line in fh if line.strip()]
    if _is_deletion(spec):
        balls = [em.enumerate_del_ball(w, spec) for w in words]
    else:
        balls = [em.enumerate_sub_ball(w, args.k, spec) for w in words]
    emitter = _Emitter(args.format, out, ("codeword_a", "codeword_b"))
    conflicts = 0
    for i, mask in enumerate(oracle_mod.conflict_graph(balls)):
        later = mask >> (i + 1) << (i + 1)
        while later:
            j = (later & -later).bit_length() - 1
            later &= later - 1
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
    universe: set = set()

    def ball_fn(s):
        if _is_deletion(spec):
            ball = em.enumerate_del_ball(s, spec)
        else:
            ball = em.enumerate_sub_ball(s, k, spec)
        universe.update(ball)
        return ball
    report = oracle_mod.check_fractional_transversal(
        all_sequences(n, k), ball_fn, weight)
    expected = (em.vertex_set_size_10(n) if spec == em.RADIUS_10
                else len(universe))
    if len(universe) != expected:
        raise DomainError(
            f"output universe has {len(universe)} elements, closed form "
            f"gives {expected}")
    try:
        gspb = bounds_mod.gspb_upper(n, k, spec).value
    except DomainError:
        gspb = None
    emitter = _Emitter(args.format, out,
                       ("n", "k", "spec", "outputs", "min_cover",
                        "total_weight", "gspb", "feasible"))
    emitter.row((n, k, args.spec, len(universe), report.min_cover,
                 report.total_weight, gspb, report.feasible))
    return 0 if report.feasible else 1


def _cmd_verify(args, out):
    if args.codebook:
        return _verify_codebook(args, out)
    if args.transversal:
        return _verify_transversal(args, out)
    if args.construction:
        return _verify_construction(args, out)
    raise DomainError(
        "one of --construction, --codebook or --transversal is required")


def _parse_sweep(text: str):
    if ":" in text:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        if count < 2:
            raise DomainError("sweep needs at least two points")
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]
    return [float(part) for part in text.split(",") if part]


def _cmd_capacity(args, out):
    if args.sweep:
        ps = _parse_sweep(args.sweep)
    elif args.p is not None:
        ps = [args.p]
    else:
        raise DomainError("either --p or --sweep is required")
    header = ["p", "alpha_opt", "cap_composite_bits", "cap_two_level_bits"]
    if args.oracle:
        header.append("cap_oracle_bits")
    emitter = _Emitter(args.format, out, header)
    rows = capacity_mod.sweep(ps, tol=args.tol)
    for p, alpha, cap_bits, two_level in rows:
        values = [p, alpha, cap_bits, two_level]
        if args.oracle:
            _, oracle_bits = capacity_mod.blahut_arimoto(
                capacity_mod.channel_matrix(p))
            values.append(oracle_bits)
        emitter.row(values)
    if args.plot:
        if len(rows) < 2:
            raise DomainError("--plot needs a sweep with at least two points")
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(capacity_mod.render_svg(rows) + "\n")
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
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    sub.add_argument("--out", help="write output to this file")
    sub.add_argument("--caps", type=int,
                     help="override enumeration caps (COMPOSITE_CODEC_CAPS)")
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
                     default="hamming",
                     help="inner codes for construction c2")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "caps", None):
        os.environ["COMPOSITE_CODEC_CAPS"] = str(args.caps)
    try:
        with _open_out(args) as out:
            return DISPATCH[args.command](args, out)
    except BrokenPipeError:
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# Reachability ledger for the dispatch-coverage test: every public library
# operation and the subcommand whose handler exercises it (possibly through
# the functions it calls).
OPERATIONS = {
    "core:decompose_letter": "decompose",
    "core:decompose_sequence": "decompose",
    "core:parse_sequence": "decompose",
    "core:format_binary": "decompose",
    "core:reconstruct_column": "reconstruct",
    "core:reconstruct_rows": "reconstruct",
    "core:parse_binary": "reconstruct",
    "core:format_sequence": "reconstruct",
    "core:transform_reverse": "transform",
    "core:transform_shift": "transform",
    "core:all_sequences": "verify",
    "error_model:parse_spec": "ball",
    "error_model:sub_ball_size": "ball",
    "error_model:has_closed_form": "ball",
    "error_model:enumerate_received_rows": "ball",
    "error_model:enumerate_sub_ball": "ball",
    "error_model:enumerate_in_ball": "ball",
    "error_model:runs": "ball",
    "error_model:del_ball_size": "ball",
    "error_model:enumerate_del_ball": "ball",
    "error_model:count_runs_weight": "bounds",
    "error_model:count_v": "bounds",
    "error_model:vertex_set_size_10": "verify",
    "bounds:format_rational": "bounds",
    "bounds:ceil_log": "bounds",
    "bounds:is_prime_power": "bounds",
    "bounds:sphere_packing_upper": "bounds",
    "bounds:asymptotic_upper": "bounds",
    "bounds:gspb_upper": "bounds",
    "bounds:gspb_weight_rule": "verify",
    "bounds:average_ball": "bounds",
    "bounds:aspv": "bounds",
    "bounds:lower_bound": "bounds",
    "bounds:emit_bound_table": "bounds",
    "oracle:optimal_code_size": "search-optimal",
    "oracle:conflict_graph": "search-optimal",
    "oracle:optimal_binary_single_error": "search-optimal",
    "oracle:exhaustive_decode_check": "verify",
    "oracle:check_fractional_transversal": "verify",
    "substitution:product_membership": "encode",
    "substitution:product_enumerate": "verify",
    "substitution:product_decode": "decode",
    "substitution:fiber_value": "encode",
    "substitution:fiber_map": "encode",
    "substitution:hamming_fiber_inners": "encode",
    "substitution:optimal_fiber_inners": "encode",
    "substitution:fiber_membership": "encode",
    "substitution:fiber_enumerate": "verify",
    "substitution:fiber_code_size": "verify",
    "substitution:fiber_decode": "decode",
    "substitution:checksum": "encode",
    "substitution:checksum_membership": "encode",
    "substitution:checksum_enumerate": "verify",
    "substitution:checksum_decode": "decode",
    "deletion:delete_at": "verify",
    "deletion:distinct_deletions": "verify",
    "deletion:deletion_outputs": "verify",
    "deletion:vt_syndrome": "encode",
    "deletion:vt_membership": "encode",
    "deletion:vt_enumerate": "verify",
    "deletion:vt_decode": "decode",
    "deletion:ascent_syndrome": "encode",
    "deletion:ternary_redundancy": "encode",
    "deletion:ternary_encode": "encode",
    "deletion:ternary_decode": "decode",
    "deletion:vt_row_membership": "encode",
    "deletion:vt_row_enumerate": "verify",
    "deletion:vt_row_decode": "decode",
    "deletion:vt_pair_membership": "encode",
    "deletion:vt_pair_enumerate": "verify",
    "deletion:vt_pair_decode": "decode",
    "deletion:marker_row_encode": "encode",
    "deletion:marker_row_decode": "decode",
    "deletion:marker_pair_encode": "encode",
    "deletion:marker_pair_decode": "decode",
    "capacity:channel_matrix": "capacity",
    "capacity:symmetric_input": "capacity",
    "capacity:mutual_information": "capacity",
    "capacity:capacity_composite": "capacity",
    "capacity:capacity_binary_pair": "capacity",
    "capacity:blahut_arimoto": "capacity",
    "capacity:sweep": "capacity",
    "capacity:render_svg": "capacity",
}


if __name__ == "__main__":
    raise SystemExit(main())