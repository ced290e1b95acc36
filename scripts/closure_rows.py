#!/usr/bin/env python3
"""Seeded CPU time per solve of the minimum-cut engine on closure graphs, and
of Wolfe's method on opaque vertex covers.

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

A second table times Wolfe's method, one `solve_auto` per size in
``--opaque``:

    opaque      vertex cover of 2n random edges under weights 1-9 plus a
                concave cardinality term with increments max(1, 3n // (k+1)),
                passed as an opaque callable; it prints the Wolfe iterations,
                penalty retries, value and lower bound

    python scripts/closure_rows.py --seed 1
    python scripts/closure_rows.py --pits 2 --depth 6 --width 10 --chain 50 --levels 16 --opaque 6

It exits 1 when the chain or the ring gets a wrong answer, or when an opaque
cover's value or lower bound differs from the minimum cut's on its family.
"""

import argparse
import math
import random
import statistics
import sys
import time
from dataclasses import replace

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


def concave_cover(rng, n):
    w = tuple(rng.randint(1, 9) for _ in range(n))
    edges = set()
    while len(edges) < min(2 * n, n * (n - 1) // 2):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    table = [0]
    for k in range(n):
        table.append(table[-1] + max(1, 3 * n // (k + 1)))
    f = s.make_family(s.Sum((s.Modular(w), s.ConcaveCardinality(tuple(table)))), s.GroundSet.binary(n))
    return s.build_vertex_cover(s.GraphSpec(n, tuple(sorted(edges))), f)


def opaque(inst):
    """The instance with its objective stripped of the family spec, so that
    `solve_auto` minimizes it with Wolfe's method."""
    f = inst.objective
    return replace(inst, objective=s.SubmodularOracle(
        f.ground, f, claims_submodular=f.claims_submodular, claims_monotone=f.claims_monotone,
        integer_valued=f.integer_valued, batch_fn=f.eval_many, label="opaque"))


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
    parser.add_argument("--opaque", default="20,40,60",
                        help="comma-separated sizes of the opaque covers (at least 2 nodes)")
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
    print(f"\n{'row':<11} {'n':>6} {'iters':>7} {'retries':>7} {'ms':>8} {'value':>9} {'lower':>9}")
    for n in (int(v) for v in args.opaque.split(",")):
        inst = concave_cover(random.Random(args.seed), n)
        family = s.solve_auto(inst)
        [ms], [res] = timed(s.solve_auto, [(opaque(inst),)])
        d = res.diagnostics
        failed |= (res.value, res.lower_bound) != (family.value, family.lower_bound)
        print(f"{'opaque':<11} {n:>6} {d['sfm_iterations']:>7} {d['penalty_retries']:>7} "
              f"{ms:>8.1f} {res.value:>9.1f} {res.lower_bound:>9.1f}")
    if failed:
        print("wrong answer on the chain, the ring or an opaque cover", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
