"""A robustness gate drawn from the parser itself.

Argument vectors are drawn by walking ``cli.build_parser()``: its
subcommands, their option strings, ``choices`` and ``type``.  Values come
from pools per type (and per flag name where one is known), so a new flag
is drawn with no edit here.  Every call must end in one of three ways:

* argparse's usage error, ``SystemExit(2)``;
* exit 1 with exactly one ``error: ...`` line on stderr (``verify`` may
  instead report its failed verification);
* exit 0 with nothing on stderr (``verify`` may print its count line).

Lengths and resolutions stay small, so no exact search runs long, and each
call runs under an alarm.  A longer run:

    PYTHONPATH=src python tests/test_cli_fuzz.py COUNT SEED
"""

import argparse
import contextlib
import io
import os
import random
import re
import signal
import sys
import tempfile

from composite_codec import cli

SECONDS_PER_CALL = 10

INTS = (-2, -1, 0, 1, 2, 3)
#: per flag: what keeps every exhaustive search and enumeration small
INT_POOLS = {
    "k": (-1, 0, 1, 2, 3, 4),
    "n": INTS,
    "m": INTS,
    "label": (-1, 0, 1, 3, 5, 99, 10 ** 30),
    "caps": (-5, 0, 3, 12),
    "binary_length": (-1, 0, 1, 4, 9, 10 ** 6),
    "n_min": (-3, 0, 2, 9),
    "n_max": (-1, 0, 3, 20, 60),
    "sample": (-3, 0, 2, 10 ** 9),
    "seed": (-1, 0, 7, 10 ** 20),
    "shift": (-7, -1, 0, 1, 3, 10 ** 12),
}
#: larger values where the subcommand refuses or answers them quickly
INT_EXTRAS = {
    ("search-optimal", "n"): (10 ** 4, 10 ** 8),
    ("search-optimal", "k"): (10, 10 ** 6),
    ("bounds", "n"): (48, 300),
    ("bounds", "k"): (10,),
    ("decompose", "k"): (10, 12),
    ("transform", "k"): (10, 12),
}
FLOATS = ("nan", "inf", "-inf", "5e-324", "1e-300", "1e-9", "0", "1", "0.5",
          "0.45", "0.999999999", "1.5", "-0.1", "1e-3")
STR_POOLS = {
    "spec": ("(1,0)", "(0,1)", "(1,1)", "(2,1)", "t:0", "t:1", "t:2", "t:3",
             "d:(1,0)", "d:1", "(1,0,0)", "(0,0)", "(1,0,1)", "(1,0,0,0)", "()",
             "(1,x)", "t:", "t:x", "t:-1", "(-1,0)", "d:2", "", "(1,0", "d:(0,1)"),
    "sweep": ("0:1:5", "0:1e-300:2", "0.1,0.2", ",,,", "1:0:3", "0:1:1",
              "0:1:0", "x", "0:1:-5", "nan:1:3", "0:1:2:3", "0.5", "0:0.5:3",
              "1e-9,0.999999999", "inf,0.1"),
}
#: garbage for any option, and for a new string flag with no pool yet
JUNK = ("x", "", "-", "1.5", "0x10", "١", "?")
INPUTS = ("012", "0120", "01?1", "", "3", "0,1,2", "001/011", "01/1", "0/1/1",
          "abc", "0" * 9, "1,12,3", "0000", "0101", "2020", "001/011/111",
          "0000/1111", "010/01", "0121", "?", "012012012012")
#: the flags that name a file to read, and those that name one to write
READS = ("infile", "codebook")
WRITES = ("out", "save", "plot")


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so that no handler inside the
    program (a decode replay catches Exception) takes it for a result."""


def _leaves(parser, prefix=()):
    """(argv prefix, parser) for every subcommand that takes flags."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, prefix + (name,))
            return
    yield prefix, parser


class _Files:
    """Files in a scratch directory for the flags that name one."""

    def __init__(self, root):
        self.root = root
        words = {"words.txt": "012\n0120\n\n01?1\n", "codebook.txt": "000\n111\n222\n",
                 "bad.txt": "01x\n", "empty.txt": ""}
        for name, text in words.items():
            with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        # mostly files that work, so that the call goes on past them
        self.reads = [os.path.join(root, name) for name in words] * 3 + [
            os.path.join(root, "absent.txt"), root]
        self.writes = [os.path.join(root, "written.txt")] * 8 + [
            os.path.join(root, "no-such-dir", "x.txt"), root, ""]


def _value(rng, command, action, files):
    dest = action.dest
    if dest in READS:
        return rng.choice(files.reads)
    if dest in WRITES:
        return rng.choice(files.writes)
    if rng.random() < 0.04:
        return rng.choice(JUNK)
    if action.choices is not None:
        return rng.choice(list(action.choices))
    if action.type is int:
        pool = INT_POOLS.get(dest, INTS) + INT_EXTRAS.get((command, dest), ())
        return str(rng.choice(pool))
    if action.type is float:
        return rng.choice(FLOATS)
    return rng.choice(STR_POOLS.get(dest, JUNK + INPUTS))


def draw(rng, leaves, files):
    """One argument vector for a subcommand picked at random."""
    prefix, parser = rng.choice(leaves)
    command = prefix[0]
    argv = list(prefix)
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    optional = [a for a in actions if a.option_strings and not a.required]
    # a few optional flags reach the deeper paths, many the unread-flag rule
    chosen = rng.sample(optional, min(len(optional), rng.choice((0, 1, 2, 2, 3, 5))))
    for action in actions:
        if not action.option_strings:  # the inputs
            argv += rng.sample(INPUTS, rng.choice((0, 1, 1, 2)))
        elif action.required and rng.random() < 0.05 or (
                not action.required and action not in chosen):
            continue
        elif isinstance(action, argparse._StoreTrueAction):
            argv.append(action.option_strings[0])
        else:
            repeats = rng.choice((1, 1, 2)) if isinstance(action, argparse._AppendAction) else 1
            for _ in range(repeats):
                argv += [rng.choice(action.option_strings),
                         _value(rng, command, action, files)]
    return argv


def _alarm(signum, frame):
    raise _Timeout


def run(argv):
    """("exit", status, stdout, stderr), or ("raised", repr) for an exception
    that escaped main, or ("timeout",)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO("")
    alarm = hasattr(signal, "setitimer")
    if alarm:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CALL)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = ("SystemExit", exc.code)
    except _Timeout:
        return ("timeout",)
    except Exception as exc:
        return ("raised", repr(exc))
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sys.stdin = old_stdin
    return ("exit", status, out.getvalue(), err.getvalue())


VERIFY_REPORT = re.compile(r"\d+ (cases, \d+ failures|codewords, \d+ conflicting pairs)\n")


def fault(argv, outcome):
    """None, or why the outcome breaks the gate."""
    if outcome[0] != "exit":
        return outcome
    _, status, _, err = outcome
    verify = argv[0] == "verify"
    if status == ("SystemExit", 2):
        return None
    if status == 1:
        if err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"):
            return None
        if verify and (err == "" or VERIFY_REPORT.fullmatch(err)):
            return None
        return ("stderr on exit 1", err)
    if status == 0:
        if err == "" or (verify and VERIFY_REPORT.fullmatch(err)):
            return None
        return ("stderr on exit 0", err)
    return ("exit status", status)


def fuzz(count, seed):
    """The faults of count drawn argument vectors, as (argv, why) pairs."""
    rng = random.Random(seed)
    leaves = list(_leaves(cli.build_parser()))
    faults = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        files = _Files(root)
        os.chdir(root)  # a file a new flag names lands in the scratch directory
        try:
            for _ in range(count):
                argv = draw(rng, leaves, files)
                why = fault(argv, run(argv))
                if why is not None:
                    faults.append((argv, why))
        finally:
            os.chdir(here)
    return faults


def test_the_parser_walk_reaches_every_subcommand_and_flag():
    leaves = dict(_leaves(cli.build_parser()))
    assert {prefix[0] for prefix in leaves} == set(cli.DISPATCH)
    assert ("ball", "received") in leaves
    flags = {s for parser in leaves.values() for a in parser._actions
             for s in a.option_strings}
    assert {"--caps", "--label", "--sweep", "--binary-length", "--bound"} <= flags


def test_the_gate_holds_on_drawn_argument_vectors():
    faults = fuzz(3000, seed=2024)
    assert not faults, faults[:5]


def test_the_gate_flags_a_traceback_and_a_second_line():
    assert fault(["encode"], ("raised", "TypeError()")) == ("raised", "TypeError()")
    assert fault(["bounds"], ("exit", 1, "", "error: a\nerror: b\n")) is not None
    assert fault(["bounds"], ("exit", 0, "", "warning\n")) is not None
    assert fault(["verify"], ("exit", 1, "", "4 cases, 1 failures\n")) is None
    assert fault(["bounds"], ("exit", ("SystemExit", 2), "", "usage")) is None


if __name__ == "__main__":
    count, seed = int(sys.argv[1]), int(sys.argv[2])
    found = fuzz(count, seed)
    for argv, why in found:
        print(" ".join(map(repr, argv)), why)
    print(f"{count} argument vectors, {len(found)} faults")
    raise SystemExit(1 if found else 0)
