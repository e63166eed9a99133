"""The measurement loop shared by the workloads.

A workload yields a fixed list of operations.  The loop runs whole rounds
of that list, one operation at a time in one thread (a closed loop: each
operation starts when the previous one has returned), until another round
would overrun the time given.  Every round must produce the outputs of the
first; the first round's outputs are checked after the timed region, so the
checkers cost neither time nor memory inside it.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def stratified(rng, lo: float, hi: float, count: int):
    """One value from each of `count` equal slices of [lo, hi], so that a
    seeded sample covers the range evenly whatever the seed."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


@dataclass
class Op:
    name: str
    run: Callable
    collect: Callable = None   # turns run's return value into the output


@dataclass
class Rounds:
    rounds: int
    round_s: list              # wall time of each round (sum of its operations)
    op_s: list                 # wall time of every operation run
    outputs: list              # outputs of the first round
    mismatched: int            # later-round outputs that differ from the first
    peak_rss_mb: float         # at the end of the timed region


def run_rounds(ops, seconds: float, tracer=None) -> Rounds:
    outputs, round_s, op_s = None, [], []
    mismatched = 0
    began = perf_counter()
    while True:
        outs = []
        total = 0.0
        if tracer is not None:
            tracer.round_starts.append(len(tracer.fid))
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is an output too
                result = ("raised", type(exc).__name__, str(exc))
            dt = perf_counter() - t0
            total += dt
            op_s.append(dt)
            if op.collect is not None and not (
                    isinstance(result, tuple) and result[:1] == ("raised",)):
                result = op.collect(result)
            outs.append(result)
        round_s.append(total)
        if outputs is None:
            outputs = outs
        else:
            mismatched += sum(1 for a, b in zip(outputs, outs) if a != b)
        elapsed = perf_counter() - began
        if elapsed + elapsed / len(round_s) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Rounds(len(round_s), round_s, op_s, outputs, mismatched, peak)
