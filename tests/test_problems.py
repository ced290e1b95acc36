import math
import random

import pytest

import submod2 as s
from submod2 import (
    CnfSpec,
    ConcaveCardinality,
    ConstraintKind,
    GraphSpec,
    GroundSet,
    Modular,
    brute_force_solve,
    build_biclique_node_delete,
    build_clique_edge_delete,
    build_min2sat,
    build_minsat,
    build_vertex_cover,
    solve_approx,
    solve_exact_monotone,
)
from submod2.errors import ValidationError

import gen


def cardinality(n):
    return s.make_family(Modular((1,) * n), GroundSet.binary(n))


# ---------------------------------------------------------------------------
# vertex cover
# ---------------------------------------------------------------------------


def test_vertex_cover_single_edge():
    inst = build_vertex_cover(GraphSpec(2, ((0, 1),)), cardinality(2))
    assert inst.roundup_declared
    assert brute_force_solve(inst).value == 1
    res = solve_approx(inst)
    assert res.value <= 2 + 1e-9


def test_vertex_cover_triangle_bounds():
    inst = build_vertex_cover(GraphSpec(3, ((0, 1), (1, 2), (0, 2))), cardinality(3))
    assert len(inst.constraints) == 3
    assert brute_force_solve(inst).value == 2
    assert solve_approx(inst).value <= 4 + 1e-9


def test_vertex_cover_k4_with_concave_objective():
    edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    f = s.make_family(ConcaveCardinality(tuple(math.sqrt(k) for k in range(5))), GroundSet.binary(4))
    inst = build_vertex_cover(GraphSpec(4, edges), f)
    ref = brute_force_solve(inst)
    assert ref.value == pytest.approx(math.sqrt(3))  # any 3 nodes cover K4
    assert solve_approx(inst).value <= 2 * math.sqrt(3) + 1e-9


def test_graph_spec_validation():
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 0),))
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 5),))


# ---------------------------------------------------------------------------
# min-2sat
# ---------------------------------------------------------------------------


def test_min2sat_one_of_each_polarity():
    cnf = CnfSpec(2, ((1, 2), (-1, -2)))
    inst = build_min2sat(cnf, cardinality(2))
    assert not inst.roundup_declared
    assert brute_force_solve(inst).value == 1
    res = solve_approx(inst)
    assert res.feasible and res.value <= 2 + 1e-9


def test_min2sat_all_negative_clauses_solved_by_all_false():
    cnf = CnfSpec(3, ((-1, -2), (-2, -3), (-1, -3)))
    inst = build_min2sat(cnf, cardinality(3))
    ref = brute_force_solve(inst)
    assert ref.value == 0 and ref.x == (0, 0, 0)


def test_min2sat_unsatisfiable_core_reports_infeasible():
    cnf = CnfSpec(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
    inst = build_min2sat(cnf, cardinality(2))
    assert not solve_approx(inst).feasible
    assert not brute_force_solve(inst).feasible


def test_min2sat_rejects_wide_clause_and_non_monotone_objective():
    with pytest.raises(ValidationError):
        build_min2sat(CnfSpec(3, ((1, 2, 3),)), cardinality(3))
    non_monotone = s.make_family(s.GraphCut(((0, 1),)), GroundSet.binary(2))
    with pytest.raises(ValidationError):
        build_min2sat(CnfSpec(2, ((1, 2),)), non_monotone)


def test_min2sat_implication_clauses_classify_monotone_and_solve_exactly():
    cnf = CnfSpec(3, ((1, -2), (2, -3), (1, -3)))
    inst = build_min2sat(cnf, cardinality(3))
    assert {c.kind for c in inst.constraints} <= {ConstraintKind.MONOTONE, ConstraintKind.SINGLETON}
    exact = solve_exact_monotone(inst)
    assert exact.value == brute_force_solve(inst).value


# ---------------------------------------------------------------------------
# min-sat
# ---------------------------------------------------------------------------


def test_minsat_single_positive_clause_costs_nothing():
    cnf = CnfSpec(1, ((1,),))
    inst = build_minsat(cnf, cardinality(1))
    assert brute_force_solve(inst).value == 0  # set the variable false


def test_minsat_contradictory_units_satisfy_exactly_one():
    cnf = CnfSpec(1, ((1,), (-1,)))
    inst = build_minsat(cnf, cardinality(2))
    assert inst.roundup_declared
    assert brute_force_solve(inst).value == 1
    assert solve_approx(inst).value <= 2 + 1e-9


def test_minsat_constraint_count_is_incidence_count():
    cnf = CnfSpec(3, ((1, -2), (2, 3), (-1,)))
    inst = build_minsat(cnf, cardinality(3))
    assert len(inst.constraints) == 5
    assert inst.ground.n == 3 + 3


def test_minsat_roundup_declaration_verified_on_tiny_instances():
    rng = random.Random(8)
    for _ in range(15):
        cnf = gen.random_cnf(rng, rng.randint(1, 3), rng.randint(1, 3), max_width=2)
        inst = build_minsat(cnf, cardinality(len(cnf.clauses)))
        assert gen.has_roundup_property(inst)


# ---------------------------------------------------------------------------
# clique edge deletion
# ---------------------------------------------------------------------------


def test_clique_edge_delete_triangle_needs_nothing():
    g = GraphSpec(3, ((0, 1), (1, 2), (0, 2)))
    inst = build_clique_edge_delete(g, cardinality(3))
    assert brute_force_solve(inst).value == 0
    assert solve_approx(inst).value <= 1e-9


def test_clique_edge_delete_path_drops_one_edge():
    g = GraphSpec(3, ((0, 1), (1, 2)))
    inst = build_clique_edge_delete(g, cardinality(2))
    ref = brute_force_solve(inst)
    assert ref.value == 1
    res = solve_approx(inst)
    assert res.feasible and res.value <= 2 + 1e-9


def test_clique_edge_delete_constraint_count():
    g = GraphSpec(4, ((0, 1), (1, 2), (2, 3)))
    inst = build_clique_edge_delete(g, cardinality(3))
    n, m = 4, 3
    assert len(inst.constraints) == 2 * m + (n * (n - 1) // 2 - m)


def test_clique_edge_delete_roundup_holds_in_deletion_variables():
    rng = random.Random(12)
    for _ in range(10):
        g = gen.random_graph(rng, rng.randint(2, 4), p=0.5, min_edges=1)
        inst = build_clique_edge_delete(g, cardinality(len(g.edges)))
        assert gen.has_roundup_property(inst)


# ---------------------------------------------------------------------------
# biclique node deletion
# ---------------------------------------------------------------------------


def test_biclique_complete_graph_deletes_nothing():
    edges = tuple((i, 2 + j) for i in range(2) for j in range(2))
    g = GraphSpec(4, edges, parts=(2, 2))
    inst = build_biclique_node_delete(g, cardinality(4))
    assert len(inst.constraints) == 0
    assert brute_force_solve(inst).value == 0


def test_biclique_one_missing_edge_deletes_one_node():
    edges = tuple((i, 2 + j) for i in range(2) for j in range(2) if (i, j) != (1, 1))
    g = GraphSpec(4, edges, parts=(2, 2))
    inst = build_biclique_node_delete(g, cardinality(4))
    assert brute_force_solve(inst).value == 1
    assert solve_approx(inst).value <= 2 + 1e-9


def test_biclique_requires_bipartition_and_cross_edges():
    with pytest.raises(ValidationError):
        build_biclique_node_delete(GraphSpec(4, ()), cardinality(4))
    with pytest.raises(ValidationError):
        build_biclique_node_delete(GraphSpec(4, ((0, 1),), parts=(2, 2)), cardinality(4))


def test_biclique_split_objective_cross_checks_against_exact_cover_solver():
    rng = random.Random(44)
    for _ in range(15):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        present = gen.random_bipartite(rng, n1, n2, p=0.5)
        edges = tuple((i, n1 + j) for (i, j) in present)
        g = GraphSpec(n1 + n2, edges, parts=(n1, n2))
        w = [rng.randint(0, 4) for _ in range(n1 + n2)]
        inst = build_biclique_node_delete(g, s.make_family(Modular(tuple(w)), GroundSet.binary(n1 + n2)))
        missing = [(i, j) for i in range(n1) for j in range(n2) if (i, j) not in present]
        f1 = s.SetFunctionOracle(n1, lambda mask: sum(w[i] for i in range(n1) if (mask >> i) & 1),
                                 integer_valued=True)
        f2 = s.SetFunctionOracle(n2, lambda mask: sum(w[n1 + j] for j in range(n2) if (mask >> j) & 1),
                                 integer_valued=True)
        _, exact = s.bisubmodular_vc_bipartite(n1, n2, missing, f1, f2)
        assert brute_force_solve(inst).value == exact
        res = solve_approx(inst)
        assert res.value <= 2 * exact + 1e-9


# ---------------------------------------------------------------------------
# across builders
# ---------------------------------------------------------------------------


def test_every_builder_output_is_well_formed_and_two_approximable():
    rng = random.Random(90)
    for _ in range(25):
        choice = rng.randrange(4)
        if choice == 0:
            g = gen.random_graph(rng, rng.randint(2, 6), p=0.5)
            inst = build_vertex_cover(g, gen.random_oracle(rng, GroundSet.binary(g.node_count),
                                                           nonnegative=True))
        elif choice == 1:
            cnf = gen.random_2cnf(rng, rng.randint(2, 5), rng.randint(1, 6))
            inst = build_min2sat(cnf, gen.random_oracle(rng, GroundSet.binary(cnf.var_count),
                                                        monotone=True))
        elif choice == 2:
            cnf = gen.random_cnf(rng, rng.randint(1, 4), rng.randint(1, 4))
            inst = build_minsat(cnf, gen.random_oracle(rng, GroundSet.binary(len(cnf.clauses)),
                                                       nonnegative=True))
        else:
            g = gen.random_graph(rng, rng.randint(2, 5), p=0.5, max_edges=6, min_edges=1)
            inst = build_clique_edge_delete(g, gen.random_oracle(rng, GroundSet.binary(len(g.edges)),
                                                                 nonnegative=True))
        ref = brute_force_solve(inst)
        res = solve_approx(inst)
        assert res.feasible == ref.feasible
        if ref.feasible:
            assert not inst.violated_by(res.x)
            assert res.value <= 2 * ref.value + 1e-9
            assert res.lower_bound <= ref.value + 1e-9
