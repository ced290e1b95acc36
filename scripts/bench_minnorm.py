#!/usr/bin/env python3
"""Benchmark the min-norm-point engine against exhaustive enumeration.

Draws random integer-valued submodular functions (modular + graph cut +
concave-of-cardinality mixes), times both engines, confirms the values agree
exactly, and reports the mean and largest Wolfe iteration count per size.

    python scripts/bench_minnorm.py --sizes 8 12 16 18 --trials 20
"""

import argparse
import random
import sys
import time

import submod2 as s
from submod2.sfm import _minnorm_detailed


def random_mix(rng, m):
    w = [rng.randint(-4, 4) for _ in range(m)]
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.3]
    ew = {e: rng.randint(1, 3) for e in edges}
    inc = sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)
    table = [0]
    for d in inc:
        table.append(table[-1] + d)

    def fn(mask):
        total = sum(w[i] for i in range(m) if (mask >> i) & 1)
        total += sum(v for (i, j), v in ew.items() if ((mask >> i) & 1) != ((mask >> j) & 1))
        return total + table[mask.bit_count()]

    return s.SetFunctionOracle(m, fn, integer_valued=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 18])
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'m':>4} {'brute (s)':>10} {'min-norm (s)':>13} {'speedup':>8} {'iters':>7} {'max':>6}")
    for m in args.sizes:
        rng = random.Random(f"{args.seed}:{m}")
        t_brute = t_norm = 0.0
        iters = []
        for _ in range(args.trials):
            f = random_mix(rng, m)
            t0 = time.perf_counter()
            _, v_brute = s.sfm_bruteforce(f)
            t_brute += time.perf_counter() - t0
            f2 = s.SetFunctionOracle(m, f._fn, integer_valued=True)  # fresh cache
            t0 = time.perf_counter()
            _, v_norm, stats = _minnorm_detailed(f2, None, s.DEFAULT_CONFIG)
            t_norm += time.perf_counter() - t0
            iters.append(stats.major_iterations)
            if v_brute != v_norm:
                print(f"VALUE MISMATCH at m={m}: {v_brute} != {v_norm}", file=sys.stderr)
                return 1
        speed = t_brute / t_norm if t_norm > 0 else float("inf")
        print(f"{m:>4} {t_brute:>10.3f} {t_norm:>13.3f} {speed:>7.1f}x "
              f"{sum(iters) / len(iters):>7.1f} {max(iters):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
