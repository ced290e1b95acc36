#!/usr/bin/env python3
"""Survey the observed approximation ratio across random problem families.

For each of the five problem builders, draws random instances, solves them
with the certified factor-2 pipeline, computes the true optimum by
enumeration, and prints the ratio distribution.  The certified bound is 2;
this script shows how tight it runs in practice.  It exits 1 when a value
exceeds twice the optimum or a reported lower bound exceeds the optimum.

    python scripts/ratio_survey.py --per-family 200 --seed 7
"""

import argparse
import random
import sys
import time
from itertools import combinations

import submod2 as s


def random_graph(rng, n, p, min_edges=0):
    pairs = list(combinations(range(n), 2))
    edges = [e for e in pairs if rng.random() < p]
    while len(edges) < min_edges:
        edges.append(rng.choice([e for e in pairs if e not in edges]))
    return s.GraphSpec(n, tuple(sorted(edges)))


def nonneg_oracle(rng, n):
    kind = rng.choice(["modular", "concave", "coverage"])
    if kind == "modular":
        return s.make_family(s.Modular(tuple(rng.randint(0, 4) for _ in range(n))),
                             s.GroundSet.binary(n))
    if kind == "concave":
        inc = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        table = [0]
        for d in inc:
            table.append(table[-1] + d)
        return s.make_family(s.ConcaveCardinality(tuple(table)), s.GroundSet.binary(n))
    items = rng.randint(1, 2 * n)
    covers = tuple(tuple(sorted(rng.sample(range(items), rng.randint(0, min(items, 3)))))
                   for _ in range(n))
    weights = tuple(rng.randint(0, 4) for _ in range(items))
    return s.make_family(s.Coverage(covers, weights), s.GroundSet.binary(n))


def monotone_oracle(rng, n):
    return s.make_family(s.Modular(tuple(rng.randint(0, 4) for _ in range(n))),
                         s.GroundSet.binary(n))


def draw_instance(rng, family):
    if family == "vertex_cover":
        g = random_graph(rng, rng.randint(3, 10), 0.4, min_edges=1)
        return s.build_vertex_cover(g, nonneg_oracle(rng, g.node_count))
    if family == "min_2sat":
        n = rng.randint(2, 8)
        model = [rng.random() < 0.5 for _ in range(n)]
        clauses = []
        for _ in range(rng.randint(1, 2 * n)):
            vs = rng.sample(range(n), 2)
            lits = [(1 if rng.random() < 0.5 else -1) * (v + 1) for v in vs]
            if not any((l > 0) == model[abs(l) - 1] for l in lits):
                lits[0] = -lits[0]
            clauses.append(tuple(lits))
        return s.build_min2sat(s.CnfSpec(n, tuple(clauses)), monotone_oracle(rng, n))
    if family == "min_sat":
        n = rng.randint(2, 6)
        clauses = tuple(
            tuple((1 if rng.random() < 0.5 else -1) * (v + 1)
                  for v in rng.sample(range(n), rng.randint(1, min(n, 3))))
            for _ in range(rng.randint(1, 6))
        )
        return s.build_minsat(s.CnfSpec(n, clauses), nonneg_oracle(rng, len(clauses)))
    if family == "clique_edge_delete":
        g = random_graph(rng, rng.randint(3, 6), 0.5, min_edges=1)
        return s.build_clique_edge_delete(g, nonneg_oracle(rng, len(g.edges)))
    if family == "biclique_node_delete":
        edges = tuple((i, 3 + j) for i in range(3) for j in range(3) if rng.random() < 0.5)
        g = s.GraphSpec(6, edges, parts=(3, 3))
        return s.build_biclique_node_delete(g, nonneg_oracle(rng, 6))
    raise ValueError(family)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-family", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    families = ["vertex_cover", "min_2sat", "min_sat", "clique_edge_delete", "biclique_node_delete"]
    print(f"{'family':<22} {'solved':>6} {'mean':>7} {'p90':>7} {'worst':>7} {'time':>7}")
    for family in families:
        rng = random.Random((args.seed, family).__repr__())
        ratios = []
        t0 = time.time()
        solved = 0
        while solved < args.per_family:
            inst = draw_instance(rng, family)
            ref = s.brute_force_solve(inst)
            res = s.solve_approx(inst)
            if not ref.feasible:
                continue
            solved += 1
            if res.value > 2 * ref.value + 1e-9:
                print(f"BOUND VIOLATION in {family}: {res.value} > 2*{ref.value}", file=sys.stderr)
                return 1
            if res.lower_bound > ref.value + 1e-9:
                print(f"UNSOUND LOWER BOUND in {family}: {res.lower_bound} > {ref.value}",
                      file=sys.stderr)
                return 1
            ratios.append(res.value / ref.value if ref.value > 0 else 1.0)
        ratios.sort()
        mean = sum(ratios) / len(ratios)
        p90 = ratios[int(0.9 * (len(ratios) - 1))]
        print(f"{family:<22} {solved:>6} {mean:>7.3f} {p90:>7.3f} {ratios[-1]:>7.3f} "
              f"{time.time() - t0:>6.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
