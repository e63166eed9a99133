"""n-scaling series for the three costs that grow fastest with n.

    python3 bench/scaling.py

Prints one tab-separated line per point: function, parameters, n, and the
median wall time in milliseconds of a few calls (one call for the slow
points).  Inputs are seeded, so every run times the same calls.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
from composite_codec import deletion, error_model, oracle  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    rng = random.Random(1)
    print("function\tparameters\tn\tms")
    for spec, ns in (("(2,1)", (10, 20, 30, 40)), ("(1,1)", (10, 20, 30, 40)),
                     ("t:2", (250, 500, 1000, 2000))):
        for n in ns:
            s = tuple(rng.randrange(3) for _ in range(n))
            parsed = error_model.parse_spec(spec)
            ms = timed(lambda: error_model.sub_ball_size(s, 2, parsed), 5)
            print(f"sub_ball_size\tk=2 {spec}\t{n}\t{ms:.3f}")
    for m in (25, 50, 100, 200, 400):
        msg = tuple(rng.randrange(3) for _ in range(m))
        r0, r1 = ref.rows_of(ref.marker_pair_codeword(msg), 2)
        rows = (r0[:m // 2] + r0[m // 2 + 1:], r1)   # a deletion inside the data
        assert deletion.marker_pair_decode(rows) == msg
        ms = timed(lambda: deletion.marker_pair_decode(rows), 5)
        print(f"marker_pair_decode\tdeletion in row 0 data\t{m}\t{ms:.3f}")
    for spec, k, ns in (("(1,0)", 2, (2, 3, 4)), ("(1,1)", 2, (3, 4, 5)),
                        ("t:1", 3, (2, 3))):
        for n in ns:
            parsed = error_model.parse_spec(spec)
            ms = timed(lambda: oracle.optimal_code_size(n, k, parsed), 1)
            print(f"optimal_code_size\tk={k} {spec}\t{n}\t{ms:.3f}")


if __name__ == "__main__":
    main()
