"""Random generators shared by the unit and acceptance tests.

Everything takes an explicit random.Random so individual tests pin their own
seeds.  Instance generators plant a feasible point where feasibility is
needed, by drawing the right-hand side below the planted point's row value.
"""

from __future__ import annotations

import random
from itertools import combinations

import submod2 as s


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def random_family(rng: random.Random, ground: s.GroundSet, *, monotone=False, nonnegative=False,
                  integer=True):
    """Random built-in family spec matching the requested structure."""
    choices = ["modular", "concave"]
    if ground.is_binary:
        choices += ["coverage"]
        if not monotone:
            choices += ["graph_cut"]
    kind = rng.choice(choices)
    n = ground.n
    if kind == "modular":
        lo = 0 if (monotone or nonnegative) else -3
        w = [rng.randint(lo, 4) for _ in range(n)]
        if nonnegative and not monotone:
            # nonnegative f, not necessarily monotone, stays easiest as covering weights
            w = [abs(v) for v in w]
        return s.Modular(tuple(w))
    if kind == "concave":
        total = ground.total_levels()
        inc = sorted((rng.randint(0 if (monotone or nonnegative) else -2, 4)
                      for _ in range(total)), reverse=True)
        table = [0]
        for d in inc:
            table.append(table[-1] + d)
        base = 0 if not nonnegative else max(0, -min(table))
        return s.ConcaveCardinality(tuple(v + base for v in table))
    if kind == "coverage":
        items = rng.randint(1, 2 * n)
        covers = tuple(
            tuple(sorted(rng.sample(range(items), rng.randint(0, min(items, 3)))))
            for _ in range(n)
        )
        weights = tuple(rng.randint(0, 4) for _ in range(items))
        return s.Coverage(covers, weights)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    weights = tuple(rng.randint(0, 3) for _ in edges)
    return s.GraphCut(tuple(edges), weights)


def random_oracle(rng, ground, **kw) -> s.SubmodularOracle:
    return s.make_family(random_family(rng, ground, **kw), ground)


def random_spec(rng: random.Random, ground: s.GroundSet, *, integer=True, depth=2):
    """Random built-in family spec of any shape: sums, nested complements and
    embeddings on random position subsets over every leaf family the ground
    (or the embedded sub-ground) admits, with float weights and tables unless
    ``integer``."""

    def num(lo, hi):
        return rng.randint(lo, hi) if integer else rng.uniform(lo, hi)

    kinds = ["modular", "concave"] + (["coverage", "graph_cut"] if ground.is_binary else [])
    if depth > 0:
        kinds += ["sum", "complement", "embed"]
    kind = rng.choice(kinds)
    n = ground.n
    if kind == "modular":
        return s.Modular(tuple(num(-3, 4) for _ in range(n)))
    if kind == "concave":
        table = [num(-2, 2)]
        for d in sorted((num(-2, 4) for _ in range(ground.total_levels())), reverse=True):
            table.append(table[-1] + d)
        return s.ConcaveCardinality(tuple(table))
    if kind == "coverage":
        items = rng.randint(1, 2 * n)
        covers = tuple(tuple(rng.sample(range(items), rng.randint(0, min(items, 3))))
                       for _ in range(n))
        return s.Coverage(covers, tuple(num(0, 4) for _ in range(items)))
    if kind == "graph_cut":
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.5)
        return s.GraphCut(edges, tuple(num(0, 3) for _ in edges))
    if kind == "sum":
        return s.Sum(tuple(random_spec(rng, ground, integer=integer, depth=depth - 1)
                           for _ in range(rng.randint(2, 3))))
    if kind == "complement":
        return s.Complement(random_spec(rng, ground, integer=integer, depth=depth - 1))
    positions = tuple(rng.sample(range(n), rng.randint(1, n)))
    sub = s.GroundSet(tuple(ground.bounds[p] for p in positions))
    return s.Embed(random_spec(rng, sub, integer=integer, depth=depth - 1), positions)


def opaque(oracle: s.SubmodularOracle) -> s.SubmodularOracle:
    """The same function as an oracle without a family spec, so the solvers
    minimize it with Wolfe's method instead of a minimum cut."""
    return s.SubmodularOracle(oracle.ground, oracle, claims_submodular=oracle.claims_submodular,
                              claims_monotone=oracle.claims_monotone,
                              integer_valued=oracle.integer_valued, batch_fn=oracle.eval_many,
                              label="opaque")


def concave_cover(rng: random.Random, n: int) -> s.Instance:
    """Vertex cover of 2n random edges (all pairs below n = 5) under weights
    1-9 plus a concave cardinality term with increments max(1, 3n // (k+1)),
    the objective a family."""
    w = tuple(rng.randint(1, 9) for _ in range(n))
    edges = set()
    while len(edges) < min(2 * n, n * (n - 1) // 2):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    table = [0]
    for k in range(n):
        table.append(table[-1] + max(1, 3 * n // (k + 1)))
    f = s.make_family(s.Sum((s.Modular(w), s.ConcaveCardinality(tuple(table)))), s.GroundSet.binary(n))
    return s.build_vertex_cover(s.GraphSpec(n, tuple(sorted(edges))), f)


def random_set_oracle(rng: random.Random, m: int) -> s.SetFunctionOracle:
    """Integer-valued submodular set function: modular + graph cut + concave
    cardinality mix, with a random constant offset."""
    w = [rng.randint(-4, 4) for _ in range(m)]
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.35]
    ew = {e: rng.randint(1, 3) for e in edges}
    inc = sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)
    table = [0]
    for d in inc:
        table.append(table[-1] + d)
    c0 = rng.randint(-3, 3)

    def fn(mask: int) -> float:
        total = c0 + sum(w[i] for i in range(m) if (mask >> i) & 1)
        total += sum(v for (i, j), v in ew.items() if ((mask >> i) & 1) != ((mask >> j) & 1))
        total += table[mask.bit_count()]
        return total

    return s.SetFunctionOracle(m, fn, integer_valued=True, label="mix")


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------


def _planted_rhs(rng, a, b, xi, xj, slack=3):
    value = a * xi + b * xj
    return value - rng.randint(0, slack)


def random_monotone_instance(rng: random.Random, *, max_n=6, max_u=3) -> s.Instance:
    """All-monotone (plus singleton) instance with a planted feasible point."""
    n = rng.randint(1, max_n)
    ground = s.GroundSet(tuple(rng.randint(1, max_u) for _ in range(n)))
    planted = tuple(rng.randint(0, u) for u in ground.bounds)
    constraints = []
    for _ in range(rng.randint(0, 2 * n)):
        if n >= 2 and rng.random() < 0.85:
            i, j = rng.sample(range(n), 2)
            a = rng.choice([1, 2, 3])
            b = -rng.choice([1, 2, 3])
            if rng.random() < 0.5:
                a, b = b, a
            c = _planted_rhs(rng, a, b, planted[i], planted[j])
            constraints.append(s.Constraint.pair(i, a, j, b, c))
        else:
            i = rng.randrange(n)
            a = rng.choice([-2, -1, 1, 2])
            c = a * planted[i] - rng.randint(0, 2)
            constraints.append(s.Constraint.single(i, a, c))
    objective = random_oracle(rng, ground)
    return s.Instance(ground, tuple(constraints), objective)


def random_general_instance(rng: random.Random, *, max_n=6, max_u=3, feasible=True,
                            monotone_f=False, nonneg_f=True) -> s.Instance:
    """Mixed-sign instance, planted-feasible unless ``feasible=False``."""
    n = rng.randint(2, max_n)
    ground = s.GroundSet(tuple(rng.randint(1, max_u) for _ in range(n)))
    planted = tuple(rng.randint(0, u) for u in ground.bounds)
    constraints = []
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        if feasible:
            c = _planted_rhs(rng, a, b, planted[i], planted[j])
        else:
            c = rng.randint(-6, 8)
        constraints.append(s.Constraint.pair(i, a, j, b, c))
    objective = random_oracle(rng, ground, monotone=monotone_f, nonnegative=nonneg_f)
    return s.Instance(ground, tuple(constraints), objective,
                      roundup_declared=False)


def random_covering_instance(rng: random.Random, *, max_n=5, max_u=3) -> s.Instance:
    """Nonnegative-coefficient (covering) instance over a multiset box; the
    box maximum is always feasible, and covering matrices round up."""
    n = rng.randint(2, max_n)
    ground = s.GroundSet(tuple(rng.randint(1, max_u) for _ in range(n)))
    constraints = []
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        a = rng.randint(0, 3)
        b = rng.randint(1, 3) if a == 0 else rng.randint(0, 3)
        top = a * ground.bounds[i] + b * ground.bounds[j]
        c = rng.randint(0, top)
        if b == 0:
            constraints.append(s.Constraint.single(i, a, c))
        else:
            constraints.append(s.Constraint.pair(i, a, j, b, c))
    objective = random_oracle(rng, ground, nonnegative=True)
    return s.Instance(ground, tuple(constraints), objective, roundup_declared=True)


# ---------------------------------------------------------------------------
# graphs and formulas
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, p=0.5, max_edges=None, min_edges=0) -> s.GraphSpec:
    all_pairs = list(combinations(range(n), 2))
    edges = [e for e in all_pairs if rng.random() < p]
    if max_edges is not None:
        while len(edges) > max_edges:
            edges.pop(rng.randrange(len(edges)))
    while len(edges) < min_edges:
        extra = rng.choice([e for e in all_pairs if e not in edges])
        edges.append(extra)
    return s.GraphSpec(n, tuple(sorted(edges)))


def random_bipartite(rng: random.Random, n1: int, n2: int, p=0.5):
    edges = [(i, j) for i in range(n1) for j in range(n2) if rng.random() < p]
    return edges


def random_dag(rng: random.Random, m: int, p=0.3):
    order = list(range(m))
    rng.shuffle(order)
    arcs = [
        (order[i], order[j])
        for i in range(m)
        for j in range(i + 1, m)
        if rng.random() < p
    ]
    return arcs


def random_2cnf(rng: random.Random, n: int, num_clauses: int, planted=True) -> s.CnfSpec:
    """Width-<=2 CNF; when planted, every clause is satisfied by a hidden
    assignment so the formula is satisfiable."""
    model = [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    for _ in range(num_clauses):
        width = 2 if n >= 2 and rng.random() < 0.9 else 1
        vs = rng.sample(range(n), width)
        lits = []
        for v in vs:
            sign = 1 if rng.random() < 0.5 else -1
            lits.append(sign * (v + 1))
        if planted and not any((l > 0) == model[abs(l) - 1] for l in lits):
            flip = rng.randrange(len(lits))
            lits[flip] = -lits[flip]
        clauses.append(tuple(lits))
    return s.CnfSpec(n, tuple(clauses))


def random_cnf(rng: random.Random, n: int, num_clauses: int, max_width=3) -> s.CnfSpec:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(n), width)
        clauses.append(tuple((1 if rng.random() < 0.5 else -1) * (v + 1) for v in vs))
    return s.CnfSpec(n, tuple(clauses))


# ---------------------------------------------------------------------------
# small exhaustive checkers (independent of the solver paths)
# ---------------------------------------------------------------------------


def enumerate_feasible(inst: s.Instance):
    for x in map(tuple, s.enumerate_box(inst.ground)):
        if not inst.violated_by(x):
            yield x


def has_roundup_property(inst: s.Instance) -> bool:
    """Brute-force check of the round-up property on a tiny instance: every
    feasible half-integral point must dominate-up to some feasible integer
    point.  Works on doubled coordinates to stay in integers."""
    import itertools

    feasible_int = list(enumerate_feasible(inst))
    if not feasible_int:
        return True
    doubled = [tuple(2 * v for v in x) for x in feasible_int]
    for half in itertools.product(*(range(2 * u + 1) for u in inst.ground.bounds)):
        ok_half = all(
            c.a * half[c.i] + (c.b * half[c.j] if c.j is not None else 0) >= 2 * c.c
            for c in inst.constraints
        )
        if not ok_half:
            continue
        if not any(all(h <= d for h, d in zip(half, dx)) for dx in doubled):
            return False
    return True
