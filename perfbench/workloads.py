"""Seeded input generators for the four benchmark workloads.

Everything here is plain Python data (lists, dicts, numbers) drawn from
``random.Random`` keyed by the workload, the seed and the size, so the same
arguments always give the same inputs in every process.  Nothing here imports
the program: the measuring process turns these specs into program objects
(`ops.py`) and the reference process computes optima from the same specs
(`reference.py`) without the program.

Objectives use the CLI's JSON schema (``{"kind": "sum", "terms": [...]}``)
so one description serves the library builders, the CLI documents and the
reference evaluator.
"""

from __future__ import annotations

import random
from itertools import combinations

WORKLOADS = ("approx-family", "exact-opaque", "cli-mixed", "closure-mincut")
SIZES = ("full", "tiny")

# Wolfe tolerance of the tight-certificate stratum of approx-family.  With it,
# the stall exit (gap > sqrt(tol)) cannot fire before the gap reaches its
# floating-point floor, so most of these solves run Wolfe to its iteration cap.
TIGHT_TOL = 1e-12


def rng_for(workload: str, seed: int, size: str, *salt) -> random.Random:
    return random.Random(":".join(str(p) for p in (workload, seed, size) + salt))


def _concave_table(rng: random.Random, total: int, top: int = 4) -> list[int]:
    inc = sorted((rng.randint(0, top) for _ in range(total)), reverse=True)
    table = [0]
    for d in inc:
        table.append(table[-1] + d)
    return table


def _objective(rng: random.Random, n: int, family: str) -> dict:
    """Sum(Modular, ConcaveCardinality) or Sum(Modular, Coverage) on n binary
    elements; weights >= 1 keep the optimum positive, and both parts are
    monotone, as min-2SAT requires."""
    w = [rng.randint(1, 5) for _ in range(n)]
    if family == "concave":
        second = {"kind": "concave_cardinality", "g": _concave_table(rng, n)}
    else:
        items = rng.randint(n, 2 * n)
        covers = [sorted(rng.sample(range(items), rng.randint(1, 3))) for _ in range(n)]
        second = {"kind": "coverage", "covers": covers,
                  "weights": [rng.randint(1, 4) for _ in range(items)]}
    return {"kind": "sum", "terms": [{"kind": "modular", "w": w}, second]}


def _graph(rng: random.Random, n: int) -> list[list[int]]:
    p = min(1.0, 4.0 / n)
    edges = [[i, j] for i, j in combinations(range(n), 2) if rng.random() < p]
    return edges or [[0, 1]]


def _two_cnf(rng: random.Random, n: int, clause_count: int) -> list[list[int]]:
    """Width-2 clauses satisfied by a planted assignment, at least one of them
    all-positive so that the all-false point is infeasible."""
    planted = [rng.random() < 0.5 for _ in range(n)]
    if not any(planted):
        planted[rng.randrange(n)] = True
    clauses: list[list[int]] = []
    while len(clauses) < clause_count:
        v1, v2 = rng.sample(range(n), 2)
        lits = [(v1 + 1) * rng.choice((1, -1)), (v2 + 1) * rng.choice((1, -1))]
        if any((lit > 0) == planted[abs(lit) - 1] for lit in lits):
            clauses.append(lits)
    if not any(l1 > 0 and l2 > 0 for l1, l2 in clauses):
        v1 = rng.choice([v for v in range(n) if planted[v]])
        v2 = rng.choice([v for v in range(n) if v != v1])
        clauses.append([v1 + 1, v2 + 1])
    return clauses


# ---------------------------------------------------------------------------
# approx-family
# ---------------------------------------------------------------------------


APPROX_KINDS = [(problem, family) for problem in ("vertex_cover", "min_2sat")
                for family in ("concave", "coverage")]


def _approx_instance(rng: random.Random, kind: int, tol: float | None) -> dict:
    problem, family = APPROX_KINDS[kind % len(APPROX_KINDS)]
    n = 6
    spec = {"problem": problem, "n": n, "tol": tol, "objective": _objective(rng, n, family)}
    if problem == "vertex_cover":
        spec["edges"] = _graph(rng, n)
    else:
        spec["clauses"] = _two_cnf(rng, n, rng.randint(n, 2 * n))
    return spec


def approx_family(seed: int, size: str) -> list[dict]:
    """Groups of six: five seeded instances at the default configuration,
    then one tight-tolerance instance.

    The tight instances are the same for every seed.  Most of them run Wolfe
    to its iteration cap (about 0.3-3 s each, against ~10 ms for the rest),
    so they carry most of a round's time; drawn per seed, the number that
    reach the cap would vary and move the throughput by more than the bound.
    """
    rng = rng_for("approx-family", seed, size)
    if size == "tiny":
        return [_approx_instance(rng, k, None) for k in range(4)]
    tight = rng_for("approx-family", "tight", size)
    out = []
    for group in range(42):
        out += [_approx_instance(rng, 5 * group + j, None) for j in range(5)]
        out.append(_approx_instance(tight, group, TIGHT_TOL))
    return out


# ---------------------------------------------------------------------------
# exact-opaque
# ---------------------------------------------------------------------------


def _monotone_system(rng: random.Random, bounds: list[int], count: int) -> list[dict]:
    """Constraints a*x_i - b*x_j >= c (a, b > 0, in either orientation) with
    c drawn at or below the row value of a planted point, so the system is
    feasible."""
    n = len(bounds)
    planted = [rng.randint(0, u) for u in bounds]
    out = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        row = a * planted[i] - b * planted[j]
        out.append({"i": i, "a": a, "j": j, "b": -b, "c": row - rng.randint(0, 2)})
    return out


def exact_opaque(seed: int, size: str) -> list[dict]:
    """All-monotone multiset systems with an opaque objective
    f(x) = g(sum_i a_i x_i) + sum_i w_i x_i, g a concave table.

    Values stay small (g's increments 0-2): with increments up to 4 about
    one solve in 200 runs Wolfe to its iteration cap, and a seed-dependent
    count of such solves moves the throughput far more than the bound.  The
    cap-bound solves are measured on approx-family, in a fixed set."""
    rng = rng_for("exact-opaque", seed, size)
    count = 1200 if size == "full" else 3
    out = []
    for _ in range(count):
        n = rng.randint(4, 5)
        bounds = [rng.randint(2, 5) for _ in range(n)]
        a = [rng.randint(1, 2) for _ in range(n)]
        top = sum(ai * u for ai, u in zip(a, bounds))
        out.append({
            "n": n,
            "bounds": bounds,
            "constraints": _monotone_system(rng, bounds, rng.randint(n, 2 * n)),
            "a": a,
            "g": _concave_table(rng, top, 2),
            "w": [rng.randint(-3, 2) for _ in range(n)],
        })
    return out


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------


def _modular(rng: random.Random, n: int) -> dict:
    return {"kind": "modular", "w": [rng.randint(1, 5) for _ in range(n)]}


def _mixed_system(rng: random.Random, n: int, monotone_only: bool) -> dict:
    """Raw multiset document: bounds <= 3, constraints of every sign pattern
    (or only monotone ones) around a planted point, modular nonnegative
    objective."""
    bounds = [rng.randint(1, 3) for _ in range(n)]
    planted = [rng.randint(0, u) for u in bounds]
    constraints = []
    for _ in range(rng.randint(n, 2 * n)):
        i, j = rng.sample(range(n), 2)
        a = rng.randint(1, 3) * rng.choice((1, -1))
        b = rng.randint(1, 3) * (-1 if a > 0 else 1) if monotone_only else \
            rng.randint(1, 3) * rng.choice((1, -1))
        row = a * planted[i] + b * planted[j]
        constraints.append({"i": i, "a": a, "j": j, "b": b, "c": row - rng.randint(0, 2)})
    return {"n": n, "bounds": bounds, "objective": _modular(rng, n),
            "constraints": constraints, "name": "mixed"}


def _builder_doc(rng: random.Random, kind: str) -> dict:
    if kind == "vertex_cover":
        n = rng.randint(6, 10)
        problem = {"kind": "vertex_cover", "n": n, "edges": _graph(rng, n)}
        return {"problem": problem, "objective": _modular(rng, n)}
    if kind == "min_2sat":
        n = rng.randint(4, 7)
        problem = {"kind": "min_2sat", "n": n, "clauses": _two_cnf(rng, n, rng.randint(n, 2 * n))}
        return {"problem": problem, "objective": _modular(rng, n)}
    if kind == "min_sat":
        nv = rng.randint(4, 6)
        clauses = []
        for _ in range(rng.randint(4, 6)):
            width = rng.randint(1, 3)
            clauses.append([(v + 1) * rng.choice((1, -1)) for v in rng.sample(range(nv), width)])
        problem = {"kind": "min_sat", "n": nv, "clauses": clauses}
        return {"problem": problem, "objective": _modular(rng, len(clauses))}
    if kind == "clique_edge_delete":
        n = rng.randint(3, 4)
        edges = [[i, j] for i, j in combinations(range(n), 2) if rng.random() < 0.6] or [[0, 1]]
        problem = {"kind": "clique_edge_delete", "n": n, "edges": edges}
        return {"problem": problem, "objective": _modular(rng, len(edges))}
    n1, n2 = rng.randint(3, 4), rng.randint(3, 4)
    edges = [[i, n1 + j] for i in range(n1) for j in range(n2) if rng.random() < 0.7]
    problem = {"kind": "biclique_node_delete", "parts": [n1, n2], "edges": edges}
    return {"problem": problem, "objective": _modular(rng, n1 + n2)}


BUILDER_KINDS = ("vertex_cover", "min_2sat", "min_sat", "clique_edge_delete", "biclique_node_delete")


def cli_mixed(seed: int, size: str) -> list[dict]:
    """Documents for all five builders plus raw mixed-sign systems; each one
    is both solved and reduced.  Raw systems stay at n <= 5: from n = 6 on,
    about one solve in 400 runs Wolfe to its iteration cap (0.5 s and more,
    against ~5 ms), which a seed may or may not draw."""
    rng = rng_for("cli-mixed", seed, size)
    blocks = 24 if size == "full" else 1
    docs = []
    for _ in range(blocks):
        for kind in BUILDER_KINDS:
            docs.append(_builder_doc(rng, kind))
        docs.append(_mixed_system(rng, rng.randint(4, 5), False))
        docs.append(_mixed_system(rng, rng.randint(4, 5), False))
        docs.append(_mixed_system(rng, rng.randint(4, 5), True))
    return [{"command": command, "doc": doc} for doc in docs for command in ("solve", "reduce")]


# ---------------------------------------------------------------------------
# closure-mincut
# ---------------------------------------------------------------------------


def closure_mincut(seed: int, size: str) -> list[dict]:
    """Layered precedence DAGs shaped like an open pit: node (d, p) sits at
    depth d and position p, and mining it requires the blocks at depth d-1
    and positions p-1..p+1.  Blocks cost 1-2 to remove; 24 ore pockets
    (13-block diamonds below the top third) are worth 20-60 per block.
    Every pit has the same 36 x 56 shape and the same number and size of
    pockets, so solve times vary only with where the pockets lie: with six
    to ten pockets of random size the summed solve time of a round varied
    by 14 % between seeds."""
    rng = rng_for("closure-mincut", seed, size)
    count, depth, width = (40, 36, 56) if size == "full" else (2, 6, 10)
    node = lambda d, p: d * width + p  # noqa: E731
    arcs = [[node(d, p), node(d - 1, q)]
            for d in range(1, depth) for p in range(width)
            for q in (p - 1, p, p + 1) if 0 <= q < width]
    out = []
    for _ in range(count):
        weights = [-rng.randint(1, 2) for _ in range(depth * width)]
        for _ in range(24 if size == "full" else 2):
            cd, cp = rng.randint(depth // 3, depth - 1), rng.randint(0, width - 1)
            radius = 2
            for d in range(max(0, cd - radius), min(depth, cd + radius + 1)):
                for p in range(max(0, cp - radius), min(width, cp + radius + 1)):
                    if abs(d - cd) + abs(p - cp) <= radius:
                        weights[node(d, p)] = rng.randint(20, 60)
        out.append({"weights": weights, "arcs": arcs})
    return out


GENERATORS = {
    "approx-family": approx_family,
    "exact-opaque": exact_opaque,
    "cli-mixed": cli_mixed,
    "closure-mincut": closure_mincut,
}


def generate(workload: str, seed: int, size: str) -> list[dict]:
    return GENERATORS[workload](seed, size)
