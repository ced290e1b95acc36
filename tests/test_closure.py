import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from submod2 import (
    ClosureInstance,
    Complement,
    ConcaveCardinality,
    Constraint,
    Coverage,
    Embed,
    GraphCut,
    GroundSet,
    Modular,
    SetFunctionOracle,
    StClosureGraph,
    Sum,
    bisubmodular_vc_bipartite,
    build_level_system,
    make_family,
    sm_cut_to_closure,
    solve_linear_closure_mincut,
    solve_sm_closure,
)
from submod2.closure import _columns, _Dinic, minimize_levels_mincut
from submod2.errors import ValidationError
from submod2.sfm import mask_of

import gen


def modular_set(w):
    return SetFunctionOracle(
        len(w),
        lambda mask: sum(w[i] for i in range(len(w)) if (mask >> i) & 1),
        integer_valued=all(v == int(v) for v in w),
    )


def cardinality(m):
    return SetFunctionOracle(m, lambda mask: mask.bit_count(), integer_valued=True)


def closed_sets(m, arcs):
    for r in range(m + 1):
        for c in itertools.combinations(range(m), r):
            cs = set(c)
            if all(j in cs for (i, j) in arcs if i in cs):
                yield cs


def test_sm_closure_arc_example():
    inst = ClosureInstance(2, ((0, 1),), modular_set([-5, 3]))
    sub, val = solve_sm_closure(inst)
    assert sub == {0, 1}
    assert val == -2


def test_sm_closure_unconstrained_negative_weights():
    inst = ClosureInstance(2, (), modular_set([-1, -1]))
    sub, val = solve_sm_closure(inst)
    assert sub == {0, 1}
    assert val == -2


def test_sm_closure_two_cycle_leaves_two_closed_sets():
    rng = random.Random(1)
    for _ in range(5):
        f = gen.random_set_oracle(rng, 2)
        inst = ClosureInstance(2, ((0, 1), (1, 0)), f)
        sub, val = solve_sm_closure(inst)
        assert sub in (frozenset(), frozenset({0, 1}))
        assert val == min(f(0), f(0b11))


def test_max_closure_keeps_profitable_successor():
    sub, val = solve_linear_closure_mincut([3, -1], [(0, 1)])
    assert sub == {0, 1}
    assert val == 2


def test_max_closure_all_positive_is_everything():
    sub, val = solve_linear_closure_mincut([2, 1, 3], [(0, 1), (1, 2)])
    assert sub == {0, 1, 2}
    assert val == 6


def test_max_closure_drops_expensive_successor():
    sub, val = solve_linear_closure_mincut([1, -5], [(0, 1)])
    assert sub == frozenset()
    assert val == 0


def test_linear_closure_matches_enumeration_and_ring_route():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(2, 8)
        arcs = gen.random_dag(rng, m, p=0.35)
        w = [rng.randint(-6, 6) for _ in range(m)]
        sub_max, val_max = solve_linear_closure_mincut(w, arcs, "max")
        best_max = max(sum(w[i] for i in c) for c in closed_sets(m, arcs))
        assert val_max == best_max
        assert all(j in sub_max for (i, j) in arcs if i in sub_max)

        sub_min, val_min = solve_linear_closure_mincut(w, arcs, "min")
        best_min = min(sum(w[i] for i in c) for c in closed_sets(m, arcs))
        assert val_min == best_min
        # same answer through the ring-family route: two independent algorithms
        _, ring_val = solve_sm_closure(ClosureInstance(m, tuple(arcs), modular_set(w)))
        assert ring_val == best_min


def test_linear_closure_reads_repeated_arcs_self_loops_and_generators():
    rng = random.Random(29)
    for _ in range(40):
        m = rng.randint(2, 8)
        arcs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(1, 2 * m))]
        w = [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(m)]
        clean = list(dict.fromkeys(a for a in arcs if a[0] != a[1]))
        messy = arcs + rng.sample(arcs, rng.randint(1, len(arcs))) + [(v, v) for v in range(m)]
        rng.shuffle(messy)
        for sense in ("max", "min"):
            expected = solve_linear_closure_mincut(w, clean, sense)
            best = (max if sense == "max" else min)(
                sum(w[i] for i in c) for c in closed_sets(m, clean))
            assert expected[1] == best
            assert solve_linear_closure_mincut(w, messy, sense) == expected
            assert solve_linear_closure_mincut(w, (a for a in messy), sense) == expected


def test_cut_to_closure_single_node_example():
    graph = StClosureGraph(
        node_count=1,
        internal_arcs=(),
        source_arcs=(0,),
        sink_arcs=(0,),
        cut_cost=modular_set([2, 1]),
    )
    inst = sm_cut_to_closure(graph)
    assert inst.objective(0b0) == 2  # empty source set cuts the source arc
    assert inst.objective(0b1) == 1  # taking the node cuts the sink arc
    sub, val = solve_sm_closure(inst)
    assert sub == {0}
    assert val == 1


def test_cut_to_closure_zero_cost_any_closed_set():
    graph = StClosureGraph(
        node_count=3,
        internal_arcs=((0, 1),),
        source_arcs=(0, 2),
        sink_arcs=(1,),
        cut_cost=SetFunctionOracle(3, lambda mask: 0.0, integer_valued=True),
    )
    inst = sm_cut_to_closure(graph)
    sub, val = solve_sm_closure(inst)
    assert val == 0
    assert inst.is_closed(sub)


def test_cut_to_closure_matches_direct_cut_enumeration():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(1, 5)
        arcs = gen.random_dag(rng, m, p=0.3)
        src = tuple(v for v in range(m) if rng.random() < 0.6)
        snk = tuple(v for v in range(m) if rng.random() < 0.6)
        w = [rng.randint(0, 5) for _ in range(len(src) + len(snk))]
        graph = StClosureGraph(m, tuple(arcs), src, snk, modular_set(w))
        inst = sm_cut_to_closure(graph)
        _, val = solve_sm_closure(inst)
        best = min(inst.objective(mask_of(c)) for c in closed_sets(m, arcs))
        assert val == best


def bf_vertex_cover_min(v1, v2, edges, f1, f2):
    best = None
    for mask in range(1 << (v1 + v2)):
        cover = {i for i in range(v1 + v2) if (mask >> i) & 1}
        if all(i in cover or (v1 + j) in cover for (i, j) in edges):
            val = f1(mask & ((1 << v1) - 1)) + f2(mask >> v1)
            best = val if best is None else min(best, val)
    return best


def test_bipartite_cover_single_edge():
    cover, val = bisubmodular_vc_bipartite(1, 1, [(0, 0)], cardinality(1), cardinality(1))
    assert val == 1
    assert cover in ({0}, {1})


def test_bipartite_cover_complete_2x2():
    cover, val = bisubmodular_vc_bipartite(
        2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], cardinality(2), cardinality(2)
    )
    assert val == 2
    assert cover in ({0, 1}, {2, 3})


def test_bipartite_cover_free_side():
    zero = SetFunctionOracle(2, lambda mask: 0.0, integer_valued=True)
    cover, val = bisubmodular_vc_bipartite(2, 2, [(0, 0), (1, 1)], cardinality(2), zero)
    assert val == 0
    assert {2, 3} <= cover or all(i in cover or (2 + j) in cover for (i, j) in [(0, 0), (1, 1)])


def test_bipartite_cover_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(25):
        v1 = rng.randint(1, 4)
        v2 = rng.randint(1, 4)
        edges = gen.random_bipartite(rng, v1, v2, p=0.6)
        f1 = gen.random_set_oracle(rng, v1)
        f2 = gen.random_set_oracle(rng, v2)
        cover, val = bisubmodular_vc_bipartite(v1, v2, edges, f1, f2)
        assert all(i in cover or (v1 + j) in cover for (i, j) in edges)
        assert val == bf_vertex_cover_min(v1, v2, edges, f1, f2)


def test_bipartite_cover_rejects_bad_edges():
    with pytest.raises(ValidationError):
        bisubmodular_vc_bipartite(2, 2, [(0, 2)], cardinality(2), cardinality(2))


def test_linear_closure_solves_long_chains():
    # every augmenting path runs the length of the chain; a recursive search
    # exceeded the interpreter's recursion limit near 1000 nodes
    n = 3000
    weights = [n + 5] + [-1] * (n - 1)
    closure, value = solve_linear_closure_mincut(weights, [(i, i + 1) for i in range(n - 1)])
    assert closure == frozenset(range(n))
    assert value == 6


def _random_network(rng):
    # nodes 0..n-3 inner, s = n-2, t = n-1; arcs drawn with replacement, so
    # parallel and antiparallel arcs and cycles all occur.  Some networks also
    # get a strongly connected block of uncuttable arcs whose nodes hold sink
    # arcs, and uncuttable source and sink arcs.
    n = rng.randint(2, 9)
    s, t = n - 2, n - 1
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        c = rng.choice([0, 1, 2, 3, round(rng.uniform(0, 3), 3), rng.uniform(0, 3)])
        arcs.append((u, v, c))
    block = rng.sample(range(s), rng.randint(2, s)) if s >= 2 and rng.random() < 0.5 else []
    arcs += [(v, t, rng.choice([1, 2, rng.uniform(0, 2)])) for v in block]
    infinite = 1.0 + sum(c for _, _, c in arcs)
    arcs = [(u, v, infinite if rng.random() < 0.15 else c) for u, v, c in arcs]
    arcs += [(u, v, infinite) for u, v in zip(block, block[1:] + block[:1])]
    if s and rng.random() < 0.3:
        arcs.append((s, rng.randrange(s), infinite))
    if s and rng.random() < 0.3:
        arcs.append((rng.randrange(s), t, infinite))
    return n, arcs, infinite


def test_max_flow_equals_the_minimum_cut_by_enumeration():
    rng = random.Random("maxflow")
    for _ in range(400):
        n, arcs, infinite = _random_network(rng)
        s, t = n - 2, n - 1
        net = _Dinic(n, infinite, *_columns(arcs, 3))
        flow = net.max_flow(s, t)
        # a feasible flow: within capacity and conserved at every inner node
        balance = [0.0] * n
        for k, (u, v, c) in enumerate(arcs):
            pushed = net.cap[2 * k + 1]
            assert -1e-12 <= pushed <= c + 1e-9
            balance[u] -= pushed
            balance[v] += pushed
        assert all(abs(b) < 1e-9 for b in balance[:s])
        assert balance[t] == pytest.approx(flow, abs=1e-9)
        sides = [{s} | {v for v in range(s) if (mask >> v) & 1} for mask in range(1 << s)]
        values = [sum(c for u, v, c in arcs if u in side and v not in side) for side in sides]
        best = min(values)
        assert flow == pytest.approx(best, abs=1e-9)
        minimal = set.intersection(*(side for side, val in zip(sides, values) if val <= best + 1e-9))
        assert set(net.queue) == minimal


def test_max_flow_reroutes_what_the_forward_pass_blocks():
    # every arc counts as uncuttable, so the pass sends s->a->x->t first,
    # which leaves b no input-arc path to t; only a Dinic phase through the
    # twin of a->x reaches the flow of 2
    a, b, x, y, s, t = range(6)
    arcs = [(s, a), (s, b), (a, x), (a, y), (b, x), (x, t), (y, t)]
    net = _Dinic(6, 1, *_columns(arcs, 2), [1] * len(arcs))
    assert net.max_flow(s, t) == 2
    assert net.phases >= 1
    assert net.queue == [s]


def test_linear_closure_drains_a_saturated_ring_in_linear_time():
    # every node but 0 gains, and all the flow runs round the ring into node
    # 0's sink arc; a pass that searches the ring again for each source arc
    # takes seconds here
    n = 3000
    weights, arcs = [-1] + [1] * (n - 1), [(i, (i + 1) % n) for i in range(n)]
    start = time.process_time()
    closure, value = solve_linear_closure_mincut(weights, arcs)
    assert time.process_time() - start < 1.0
    assert closure == frozenset(range(n))
    assert value == n - 2


def _pit(rng, depth, width):
    # block (d, p) needs the blocks at depth d - 1 and positions p - 1..p + 1
    arcs = [(d * width + p, (d - 1) * width + q)
            for d in range(1, depth) for p in range(width) for q in (p - 1, p, p + 1) if 0 <= q < width]
    weights = [rng.choice([-2, -1, -1, 5, 40]) if d > 2 else -1
               for d in range(depth) for p in range(width)]
    return weights, arcs


def _components(n, arcs):
    # strongly connected components from pairwise reachability
    succ = [[] for _ in range(n)]
    for i, j in arcs:
        succ[i].append(j)
    reach = []
    for v in range(n):
        seen, todo = {v}, [v]
        while todo:
            for j in succ[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    comp = [-1] * n
    count = 0
    for v in range(n):
        if comp[v] < 0:
            for u in reach[v]:
                if v in reach[u]:
                    comp[u] = count
            count += 1
    return comp, count


def test_cyclic_pit_matches_its_contracted_components():
    # reversed copies of 5 % of a pit's arcs tie blocks into strongly connected
    # components, which lie wholly inside or outside every closed set
    rng = random.Random("cyclic-pit")
    for _ in range(4):
        weights, arcs = _pit(rng, 12, 16)
        arcs += [(j, i) for (i, j) in rng.sample(arcs, round(0.05 * len(arcs)))]
        closure, value = solve_linear_closure_mincut(weights, arcs)
        comp, count = _components(len(weights), arcs)
        assert count < len(weights) - 10
        merged = [0] * count
        for v, w in enumerate(weights):
            merged[comp[v]] += w
        contracted = {(comp[i], comp[j]) for (i, j) in arcs if comp[i] != comp[j]}
        members, merged_value = solve_linear_closure_mincut(merged, contracted)
        assert closure == {v for v in range(len(weights)) if comp[v] in members}
        assert value == merged_value


def _leaf(rng, family, ground, integer):
    # one leaf family of the given class, in the gate generator's shapes
    while True:
        spec = gen.random_spec(rng, ground, integer=integer, depth=0)
        if isinstance(spec, family):
            return spec


@pytest.mark.parametrize("complemented", [False, True])
@pytest.mark.parametrize("family", [Modular, ConcaveCardinality, Coverage, GraphCut, Sum, Embed])
def test_cut_energy_equals_the_objective_at_every_point(family, complemented):
    # pinning every level to the threshold set of x leaves the auxiliary nodes
    # free, so the constant plus the minimum cut is the compiled energy at x
    rng = random.Random(f"energy-{family.__name__}-{complemented}")
    points = 0
    for trial in range(12):
        integer = trial % 2 == 0
        binary = family in (Coverage, GraphCut) or trial % 3 == 0
        n = rng.randint(1, 4)
        ground = GroundSet.binary(n) if binary else GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
        if family is Sum:
            spec = Sum(tuple(_leaf(rng, leaf, ground, integer) for leaf in (Modular, ConcaveCardinality)))
        elif family is Embed:
            positions = tuple(rng.sample(range(n), rng.randint(1, n)))
            sub = GroundSet(tuple(ground.bounds[p] for p in positions))
            leaves = (Modular, ConcaveCardinality) + ((Coverage, GraphCut) if sub.is_binary else ())
            spec = Embed(_leaf(rng, rng.choice(leaves), sub, integer), positions)
        else:
            spec = _leaf(rng, family, ground, integer)
        if complemented:
            spec = Complement(spec)
        f = make_family(spec, ground)
        for x in itertools.product(*(range(u + 1) for u in ground.bounds)):
            pins = [c for i, v in enumerate(x)
                    for c in (Constraint.single(i, 1, v), Constraint.single(i, -1, -v))]
            system = build_level_system(ground, pins)
            cut = minimize_levels_mincut(system, (spec,))
            assert cut.members == {system.var(i, p) for i, v in enumerate(x) for p in range(1, v + 1)}
            assert cut.lower == pytest.approx(f(x), abs=1e-9), (spec, x)
            if integer:
                assert cut.lower == f(x)
            points += 1
    assert points > 50


def test_closure_rows_script_prints_every_row():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "closure_rows.py"), "--pits", "2", "--depth", "6",
         "--width", "10", "--chain", "40", "--levels", "12", "--opaque", "5,6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cuts, wolfe = proc.stdout.split("\n\n")
    header, *rows = cuts.splitlines()
    assert header.split() == ["row", "nodes", "arcs", "solves", "ms_p50", "ms_max"]
    assert [row.split()[0] for row in rows] == ["pit", "pit-cyclic", "chain", "ring", "dense"]
    assert all(float(row.split()[4]) >= 0 for row in rows)
    header, *rows = wolfe.splitlines()
    assert header.split() == ["row", "n", "iters", "retries", "ms", "value", "lower"]
    assert [row.split()[:2] for row in rows] == [["opaque", "5"], ["opaque", "6"]]
    assert all(int(row.split()[2]) > 0 for row in rows)
