"""Benchmark of composite-codec: one workload per run, in this fresh process.

    python3 bench/run.py --workload codec-stream --seed 1 --seconds 20 --trace 0

Workloads: codec-stream, exact-verify, bound-tables (see bench/README.md).
The package is imported from src/ of the checkout this file sits in.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  --reduced runs small inputs (the self-check).
Result and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from harness import run_rounds  # noqa: E402

WORKLOADS = {
    "codec-stream": "codec_stream",
    "exact-verify": "exact_verify",
    "bound-tables": "bound_tables",
}
#: fresh processes that repeat the set-up, besides this one
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="small inputs, for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(workload) -> float:
    """Import the package from src/ and build the workload's program objects."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--reduced"] if args.reduced else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed, args.reduced)
    if args.setup_probe:
        print(repr(timed_setup(workload)))
        return 0
    setup = [timed_setup(workload)]
    ops = workload.operations()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        res = run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    verdicts = workload.check(res.outputs)
    failures = [(i, v) for i, v in enumerate(verdicts) if v is not None]
    wrong = [(i, why) for i, (kept, why) in failures if not kept]
    for i, why in wrong[:10]:
        print(f"check failed: op {i} ({ops[i].name}): {why}", file=sys.stderr)
    if res.mismatched:
        print(f"{res.mismatched} outputs differ between rounds", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracer.metrics(res.rounds)
        tracer.save(os.path.join(OUT, f"spans-{tag}.tsv"))
        print(f"traced run_s {statistics.median(res.round_s):.6f}", file=sys.stderr)
    else:
        setup += [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(res.round_s), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(res.op_s),
                          "unit": "ms"},
            "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {res.rounds} rounds of {len(ops)} operations, "
          f"{len(failures)} failed per round ({len(wrong)} unexpected)",
          file=sys.stderr)
    result = {
        "correct": not wrong and res.mismatched == 0,
        "attempted": len(ops) * res.rounds,
        "failed": len(failures) * res.rounds,
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
