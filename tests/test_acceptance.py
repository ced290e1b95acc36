"""Acceptance suite: every release gate runs here, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every gate checks the solver against an independent reference
(exhaustive enumeration or a second algorithm), at the tolerances stated in
the assertions; nothing is calibrated after the fact.
"""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

import submod2 as s
from submod2.cli import instance_to_json, main

import gen

TOL = 1e-9


def report(num, name, detail):
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared family sweep for gates 1 and 2
# ---------------------------------------------------------------------------


def _family_instances(which, rng):
    if which == "vertex_cover":
        n = rng.randint(3, 10)
        g = gen.random_graph(rng, n, p=0.4)
        f = gen.random_oracle(rng, s.GroundSet.binary(n), nonnegative=True)
        return s.build_vertex_cover(g, f)
    if which == "min_2sat":
        n = rng.randint(2, 8)
        cnf = gen.random_2cnf(rng, n, rng.randint(1, 2 * n))
        f = gen.random_oracle(rng, s.GroundSet.binary(n), monotone=True)
        return s.build_min2sat(cnf, f)
    if which == "min_sat":
        n = rng.randint(1, 4)
        cnf = gen.random_cnf(rng, n, rng.randint(1, 6), max_width=3)
        f = gen.random_oracle(rng, s.GroundSet.binary(len(cnf.clauses)), nonnegative=True)
        return s.build_minsat(cnf, f)
    if which == "clique_edge_delete":
        n = rng.randint(3, 6)
        g = gen.random_graph(rng, n, p=0.5, max_edges=16 - n, min_edges=1)
        f = gen.random_oracle(rng, s.GroundSet.binary(len(g.edges)), nonnegative=True)
        return s.build_clique_edge_delete(g, f)
    if which == "biclique_node_delete":
        present = gen.random_bipartite(rng, 3, 3, p=0.5)
        edges = tuple((i, 3 + j) for (i, j) in present)
        g = s.GraphSpec(6, edges, parts=(3, 3))
        f = gen.random_oracle(rng, s.GroundSet.binary(6), nonnegative=True)
        return s.build_biclique_node_delete(g, f)
    if which == "multiset_covering":
        return gen.random_covering_instance(rng, max_n=5, max_u=3)
    raise AssertionError(which)


FAMILIES = (
    "vertex_cover",
    "min_2sat",
    "min_sat",
    "clique_edge_delete",
    "biclique_node_delete",
    "multiset_covering",
)

PER_FAMILY = 500


@pytest.fixture(scope="module")
def family_sweep():
    """solve_approx vs brute force over every problem family; returns the
    per-instance (value, optimum, lower_bound, integer) records."""
    records = {}
    for which in FAMILIES:
        rng = random.Random(f"sweep-{which}")
        rows = []
        solved = 0
        while solved < PER_FAMILY:
            inst = _family_instances(which, rng)
            ref = s.brute_force_solve(inst)
            res = s.solve_approx(inst)
            assert res.feasible == ref.feasible, f"{which}: feasibility disagreement"
            if not ref.feasible:
                continue
            assert not inst.violated_by(res.x), f"{which}: infeasible output"
            rows.append((res.value, ref.value, res.lower_bound, inst.objective.integer_valued))
            solved += 1
        records[which] = rows
    return records


def test_gate_01_factor_two_across_families(family_sweep):
    checked = 0
    worst = 0.0
    for which, rows in family_sweep.items():
        for value, optimum, _, integral in rows:
            if integral:
                assert value <= 2 * optimum, f"{which}: {value} > 2*{optimum}"
            else:
                assert value <= 2 * optimum + TOL, f"{which}: {value} > 2*{optimum}"
            if optimum > 0:
                worst = max(worst, value / optimum)
            checked += 1
    report(1, "factor-2 end-to-end", f"{checked} instances across {len(FAMILIES)} families, "
                                     f"worst observed ratio {worst:.4f}")


def test_gate_02_certified_lower_bound_sound(family_sweep):
    checked = 0
    for which, rows in family_sweep.items():
        for _, optimum, lower, integral in rows:
            if integral:
                assert lower <= optimum + TOL, f"{which}: lower bound {lower} > optimum {optimum}"
            else:
                assert lower <= optimum + TOL
            checked += 1
    report(2, "lower-bound certificates", f"{checked} instances, every bound below the optimum")


def test_gate_03_exact_solver_on_monotone_systems():
    rng = random.Random("monotone-exact")
    solved = 0
    infeasible = 0
    while solved + infeasible < 500:
        inst = gen.random_monotone_instance(rng, max_n=6, max_u=3)
        ref = s.brute_force_solve(inst)
        got = s.solve_exact_monotone(inst)
        assert got.feasible == ref.feasible
        if not ref.feasible:
            infeasible += 1
            continue
        assert got.value == ref.value, f"{got.value} != {ref.value}"
        assert not inst.violated_by(got.x)
        solved += 1
    report(3, "exact monotone solver", f"{solved} solved + {infeasible} infeasible, "
                                       "values identical to enumeration")


def test_gate_04_binarization_roundtrip_exhaustive():
    from test_reductions import roundtrip_check

    count = 0
    coeffs = [v for v in range(-4, 5) if v != 0]
    for a in coeffs:
        for b in coeffs:
            for c in range(-8, 9):
                for u_i in range(1, 5):
                    for u_j in range(1, 5):
                        roundtrip_check(a, b, c, u_i, u_j)
                        count += 1
    report(4, "binarization round-trip", f"{count} (a, b, c, bounds) combinations, zero mismatches")


def test_gate_05_witness_clamping_always_feasible():
    rng = random.Random("ell-feasibility")
    for k in range(1000):
        inst = gen.random_general_instance(rng, max_n=6, max_u=3)
        feasible, z = s.check_feasibility_2sat(inst)
        assert feasible, "planted instance must be feasible"
        out = s.solve_relaxation(inst)
        ell = s.round_ell(out, z, inst)
        assert not inst.violated_by(ell), f"instance {k}: clamped point violates a constraint"
        lo = tuple(min(p, m) for p, m in zip(out.m_plus, out.minus_counts))
        hi = tuple(max(p, m) for p, m in zip(out.m_plus, out.minus_counts))
        assert all(a <= v <= b for v, a, b in zip(ell, lo, hi))
    report(5, "witness clamping", "1000 mixed-sign instances, zero violations, "
                                  "always between the copy counts")


def test_gate_06_min_norm_engine_matches_enumeration():
    rng = random.Random("sfm-engine")
    for k in range(300):
        m = rng.randint(2, 12)
        f = gen.random_set_oracle(rng, m)
        _, expected = s.sfm_bruteforce(f)
        _, got = s.sfm_minnorm(f)
        assert got == expected, f"oracle {k}: {got} != {expected}"
    report(6, "min-norm-point engine", "300 integer oracles up to 12 elements, exact equality")


def _closed_set_extremes(m, arcs, w):
    masks = np.arange(1 << m, dtype=np.uint32)
    closed = np.ones(len(masks), dtype=bool)
    for (i, j) in arcs:
        closed &= ~(((masks >> i) & 1).astype(bool) & ~((masks >> j) & 1).astype(bool))
    values = np.zeros(len(masks))
    for i in range(m):
        values += w[i] * ((masks >> i) & 1).astype(np.int64)
    return values[closed].max(), values[closed].min()


def test_gate_07_linear_closure_three_way_agreement():
    rng = random.Random("closure-cross")
    for k in range(200):
        m = rng.randint(2, 14)
        arcs = gen.random_dag(rng, m, p=0.25)
        w = [rng.randint(-8, 8) for _ in range(m)]
        enum_max, enum_min = _closed_set_extremes(m, arcs, w)
        cut_set, cut_max = s.solve_linear_closure_mincut(w, arcs, "max")
        assert cut_max == enum_max, f"dag {k}: {cut_max} != {enum_max}"
        assert all(j in cut_set for (i, j) in arcs if i in cut_set)
        _, cut_min = s.solve_linear_closure_mincut(w, arcs, "min")
        assert cut_min == enum_min
        modular = s.SetFunctionOracle(
            m, lambda mask, w=w: sum(w[i] for i in range(m) if (mask >> i) & 1),
            integer_valued=True)
        _, ring_min = s.solve_sm_closure(s.ClosureInstance(m, tuple(arcs), modular))
        assert ring_min == enum_min, f"dag {k}: ring {ring_min} != {enum_min}"
    report(7, "linear closure cross-validation", "200 DAGs up to 14 nodes, min-cut = "
                                                 "enumeration = ring-family route")


def test_gate_08_bipartite_cover_matches_enumeration():
    rng = random.Random("bipartite-cover")
    for k in range(200):
        v1 = rng.randint(1, 6)
        v2 = rng.randint(1, min(6, 12 - v1))
        edges = gen.random_bipartite(rng, v1, v2, p=0.5)
        f1 = gen.random_set_oracle(rng, v1)
        f2 = gen.random_set_oracle(rng, v2)
        cover, value = s.bisubmodular_vc_bipartite(v1, v2, edges, f1, f2)
        assert all(i in cover or (v1 + j) in cover for (i, j) in edges)
        t1 = np.array([f1(mask) for mask in range(1 << v1)])
        t2 = np.array([f2(mask) for mask in range(1 << v2)])
        total = t1[:, None] + t2[None, :]
        ok = np.ones_like(total, dtype=bool)
        m1 = np.arange(1 << v1, dtype=np.uint32)
        m2 = np.arange(1 << v2, dtype=np.uint32)
        for (i, j) in edges:
            ok &= (((m1 >> i) & 1).astype(bool))[:, None] | (((m2 >> j) & 1).astype(bool))[None, :]
        expected = total[ok].min()
        assert value == expected, f"graph {k}: {value} != {expected}"
    report(8, "bipartite split-cost cover", "200 graphs up to 12 nodes, exact agreement")


def test_gate_09_twosat_feasibility_matches_enumeration():
    rng = random.Random("feasibility")
    feasible_count = 0
    for k in range(1000):
        planted = rng.random() < 0.5
        inst = gen.random_general_instance(
            rng, max_n=4, max_u=1 if rng.random() < 0.5 else 3, feasible=planted
        )
        expected = s.brute_force_solve(inst).feasible
        got, z = s.check_feasibility_2sat(inst)
        assert got == expected, f"system {k}: 2-SAT={got} enumeration={expected}"
        if got:
            feasible_count += 1
            assert not inst.violated_by(z)
    report(9, "2-SAT feasibility", f"1000 systems ({feasible_count} feasible), full agreement")


def test_gate_10_structure_verifiers():
    rng = random.Random("verify")
    checked = 0
    # built-in families on binary and multiset boxes up to 2**12 points
    for _ in range(20):
        n = rng.randint(2, 4)
        ground = s.GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
        assert s.verify_submodular(gen.random_oracle(rng, ground))
        checked += 1
    big = s.GroundSet.binary(12)
    assert s.verify_submodular(s.make_family(s.Modular(tuple(range(-6, 6))), big))
    assert s.verify_submodular(
        s.make_family(s.GraphCut(tuple((i, i + 1) for i in range(9))), s.GroundSet.binary(10))
    )
    checked += 2
    # planted counterexamples must be rejected
    square = s.SubmodularOracle(s.GroundSet.binary(6), lambda x: sum(x) ** 2)
    assert not s.verify_submodular(square)
    cut = s.make_family(s.GraphCut(((0, 1), (1, 2), (2, 3))), s.GroundSet.binary(4))
    negated_cut = s.SubmodularOracle(s.GroundSet.binary(4), lambda x: -cut(x))
    assert not s.verify_submodular(negated_cut)
    report(10, "structure verifiers", f"{checked} families accepted, "
                                      "square and negated cut rejected")


def test_gate_11_loose_tolerance_certificates_stay_sound(tmp_path, capsys):
    """At wolfe_tol=0.5 Wolfe stops with a float gap open; the lower bound
    must stay below the optimum and "optimal" must never be claimed above it.
    The CLI solves every document's objective by a minimum cut, which no
    tolerance loosens, so the CLI pass must report all of them optimal; the
    open gaps show on the same functions as opaque oracles."""
    rng = random.Random("loose-tolerance")
    n = 10
    ground = s.GroundSet.binary(n)
    path = tmp_path / "inst.json"
    loose = s.SolverConfig(wolfe_tol=0.5)
    open_gaps = optimal = 0
    for k in range(200):
        w = tuple(rng.uniform(-2, 2) for _ in range(n))
        table = [0.0]
        for d in sorted((rng.uniform(0, 2) for _ in range(n)), reverse=True):
            table.append(table[-1] + d)
        f = s.make_family(s.Sum((s.Modular(w), s.ConcaveCardinality(tuple(table)))), ground)
        arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(3, 12))}
        inst = s.Instance(ground, tuple(s.Constraint.pair(i, 1, j, -1, 0) for i, j in arcs if i != j), f)
        opt = s.brute_force_solve(inst).value
        path.write_text(json.dumps(instance_to_json(inst)))
        code = main(["solve", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 3), doc
        assert doc["lower_bound"] <= opt + TOL, f"instance {k}: {doc['lower_bound']} > OPT {opt}"
        if doc["status"] == "optimal":
            assert doc["value"] <= opt + 1e-7, f"instance {k}: optimal {doc['value']} > OPT {opt}"
            optimal += 1
        assert doc["status"] == "optimal" and abs(doc["value"] - opt) <= 1e-7, f"instance {k}: {doc}"
        res = s.solve_exact_monotone(replace(inst, objective=gen.opaque(f)), cfg=loose)
        assert res.lower_bound <= opt + TOL, f"instance {k}: {res.lower_bound} > OPT {opt}"
        if res.ratio_bound == 1.0:
            assert res.value <= opt + 1e-7, f"instance {k}: optimal {res.value} > OPT {opt}"
        open_gaps += res.value > opt + 1e-7
    assert open_gaps > 0  # the tolerance is loose enough to leave Wolfe's gaps open
    report(11, "loose-tolerance certificates", f"200 instances, {optimal} optimal by min-cut, "
                                               f"{open_gaps} with an open gap as opaque oracles at "
                                               "wolfe_tol 0.5, every bound sound")


def _engine_instance(rng, shape):
    if shape == "binary":
        return gen.random_monotone_instance(rng, max_n=6, max_u=1)
    if shape == "multiset":
        return gen.random_monotone_instance(rng, max_n=4, max_u=3)
    return gen.random_general_instance(rng, max_n=4, max_u=rng.choice((1, 2, 3)))


def test_gate_12_mincut_wolfe_and_brute_force_agree():
    """Every built-in family shape, solved by its minimum cut, by Wolfe on the
    same function as an opaque oracle, and by enumeration."""
    rng = random.Random("mincut-engine")
    checked = {"binary": 0, "multiset": 0, "general": 0}
    floats = embedded = 0
    for k in range(600):
        shape = ("binary", "multiset", "general")[k % 3]
        base = _engine_instance(rng, shape)
        integer = rng.random() < 0.5
        f = s.make_family(gen.random_spec(rng, base.ground, integer=integer), base.ground)
        inst = replace(base, objective=f)
        wrapped = replace(base, objective=gen.opaque(f))
        ref = s.brute_force_solve(inst)
        if inst.is_monotone:
            cut, wolfe = s.solve_exact_monotone(inst), s.solve_exact_monotone(wrapped)
            assert cut.feasible == wolfe.feasible == ref.feasible, f"instance {k}"
            if not ref.feasible:
                continue
            assert (cut.diagnostics["engine"], wolfe.diagnostics["engine"]) == ("mincut", "wolfe")
            for res in (cut, wolfe):
                if f.integer_valued:
                    assert res.value == ref.value, f"instance {k}: {res.value} != {ref.value}"
                else:
                    assert abs(res.value - ref.value) <= 1e-7, f"instance {k}: {res.value} != {ref.value}"
                assert not inst.violated_by(res.x)
            assert cut.ratio_bound == 1.0 and cut.lower_bound <= ref.value + TOL
        else:
            cut, wolfe = s.solve_relaxation(inst), s.solve_relaxation(wrapped)
            assert (cut.diagnostics["engine"], wolfe.diagnostics["engine"]) == ("mincut", "wolfe")
            if f.integer_valued:
                assert cut.certified_lower == wolfe.certified_lower, f"instance {k}"
            else:
                assert abs(cut.certified_lower - wolfe.certified_lower) <= 1e-7, f"instance {k}"
            assert cut.certified_lower <= ref.value + TOL, f"instance {k}: bound above OPT"
        checked[shape] += 1
        floats += not f.integer_valued
        embedded += "Embed(" in repr(f.family_spec)
    report(12, "min-cut engine", f"{sum(checked.values())} feasible instances ({checked}, "
                                 f"{floats} float, {embedded} with an embedded family), "
                                 "min-cut = Wolfe = enumeration")
