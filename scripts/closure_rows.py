#!/usr/bin/env python3
"""Seeded CPU time per solve of the minimum-cut engine on closure graphs.

Each row times one kind of graph, solve by solve, with the process CPU clock
(input building is not timed) and prints the median and the largest time:

    pit         open pits: depth x width blocks, each needing the three
                blocks above it, cost 1-2 per block, ore pockets worth 20-60
    pit-cyclic  the same pits with 5 % of their arcs also added reversed, so
                their uncuttable arcs form strongly connected blocks
    chain       n-node chain i -> i+1 with weights [n + 5] + [-1] * (n - 1):
                every unit of flow runs the whole chain
    ring        directed n-node ring with weights [-1] + [1] * (n - 1): every
                node but one gains, and the answer is the whole ring
    dense       one float ConcaveCardinality plus Modular objective over a
                level system of ``--levels`` levels (elements of bound 4),
                minimized by `closure.minimize_levels_mincut`

    python scripts/closure_rows.py --seed 1
    python scripts/closure_rows.py --pits 2 --depth 6 --width 10 --chain 50 --levels 16

It exits 1 when the chain or the ring gets a wrong answer.
"""

import argparse
import math
import random
import statistics
import sys
import time

import submod2 as s
from submod2.closure import minimize_levels_mincut


def pit(rng, depth, width):
    node = lambda d, p: d * width + p  # noqa: E731
    arcs = [(node(d, p), node(d - 1, q))
            for d in range(1, depth) for p in range(width)
            for q in (p - 1, p, p + 1) if 0 <= q < width]
    weights = [-rng.randint(1, 2) for _ in range(depth * width)]
    for _ in range(max(1, depth * width // 84)):
        cd, cp = rng.randint(depth // 3, depth - 1), rng.randint(0, width - 1)
        for d in range(max(0, cd - 2), min(depth, cd + 3)):
            for p in range(max(0, cp - 2), min(width, cp + 3)):
                if abs(d - cd) + abs(p - cp) <= 2:
                    weights[node(d, p)] = rng.randint(20, 60)
    return weights, arcs


def with_reversed(rng, arcs, share=0.05):
    return arcs + [(j, i) for (i, j) in rng.sample(arcs, round(share * len(arcs)))]


def dense_system(rng, levels):
    n = levels // 4
    ground = s.GroundSet((4,) * n)
    constraints = [s.Constraint.pair(i, -1, j, 1, 0)
                   for i, j in (rng.sample(range(n), 2) for _ in range(n))]
    system = s.build_level_system(ground, constraints)
    table = tuple(20.0 * math.sqrt(k) for k in range(4 * n + 1))
    modular = tuple(rng.uniform(-3.0, 0.5) for _ in range(n))
    return system, (s.Sum((s.Modular(modular), s.ConcaveCardinality(table))),)


def timed(solve, inputs):
    times, outs = [], []
    for args in inputs:
        t0 = time.process_time()
        outs.append(solve(*args))
        times.append(1e3 * (time.process_time() - t0))
    return times, outs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pits", type=int, default=10)
    parser.add_argument("--depth", type=int, default=36)
    parser.add_argument("--width", type=int, default=56)
    parser.add_argument("--chain", type=int, default=3000, help="nodes of the chain and the ring")
    parser.add_argument("--levels", type=int, default=400,
                        help="levels of the dense system (4 per element, at least 8)")
    args = parser.parse_args()

    rng = random.Random(f"closure-rows-{args.seed}")
    pits = [pit(rng, args.depth, args.width) for _ in range(args.pits)]
    cyclic = [(w, with_reversed(rng, arcs)) for w, arcs in pits]
    n = args.chain
    chain = ([n + 5] + [-1] * (n - 1), [(i, i + 1) for i in range(n - 1)])
    ring = ([-1] + [1] * (n - 1), [(i, (i + 1) % n) for i in range(n)])
    rows = {
        "pit": (s.solve_linear_closure_mincut, pits),
        "pit-cyclic": (s.solve_linear_closure_mincut, cyclic),
        "chain": (s.solve_linear_closure_mincut, [chain]),
        "ring": (s.solve_linear_closure_mincut, [ring]),
        "dense": (minimize_levels_mincut, [dense_system(rng, args.levels)]),
    }
    print(f"{'row':<11} {'nodes':>6} {'arcs':>7} {'solves':>6} {'ms_p50':>8} {'ms_max':>8}")
    failed = False
    for name, (solve, inputs) in rows.items():
        times, outs = timed(solve, inputs)
        if name == "dense":
            system, _ = inputs[0]
            nodes, arcs = system.level_count, outs[0].arcs
        else:
            nodes, arcs = len(inputs[0][0]), len(inputs[0][1])
        if name in ("chain", "ring"):
            failed |= outs[0] != (frozenset(range(n)), float(n - 2 if name == "ring" else 6))
        print(f"{name:<11} {nodes:>6} {arcs:>7} {len(times):>6} "
              f"{statistics.median(times):>8.1f} {max(times):>8.1f}")
    if failed:
        print("wrong answer on the chain or the ring", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
