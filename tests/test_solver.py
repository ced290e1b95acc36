import json
import random
from dataclasses import replace

import pytest

import submod2 as s
from submod2 import (
    Constraint,
    GroundSet,
    Instance,
    brute_force_solve,
    check_feasibility_2sat,
    monotonize,
    round_ell,
    round_up,
    solve_approx,
    solve_auto,
    solve_exact_monotone,
    solve_relaxation,
)
from submod2.errors import GuaranteeUnavailable, RoundUpViolation, ValidationError
from submod2.solver import MODE_APPROX, MODE_BRUTE, MODE_EXACT, RelaxationOutcome

import gen


def mk(ground, constraints, family, roundup=False):
    return Instance(ground, tuple(constraints), s.make_family(family, ground), roundup)


def triangle_vc():
    g = s.GraphSpec(3, ((0, 1), (1, 2), (0, 2)))
    f = s.make_family(s.Modular((1, 1, 1)), GroundSet.binary(3))
    return s.build_vertex_cover(g, f)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_triangle_cover():
    res = brute_force_solve(triangle_vc())
    assert res.value == 2
    assert res.mode == MODE_BRUTE
    assert res.feasible and not triangle_vc().violated_by(res.x)


def test_brute_force_unconstrained_picks_negatives():
    inst = mk(GroundSet.binary(2), (), s.Modular((-1, 2)))
    res = brute_force_solve(inst)
    assert res.x == (1, 0)
    assert res.value == -1


def test_brute_force_reports_infeasible():
    inst = mk(GroundSet.binary(1), (Constraint.single(0, 1, 2),), s.Modular((1,)))
    res = brute_force_solve(inst)
    assert not res.feasible
    assert res.x is None


def test_brute_force_tie_breaks_lexicographically():
    inst = mk(GroundSet.binary(2), (), s.Modular((0, 0)))
    assert brute_force_solve(inst).x == (0, 0)


# ---------------------------------------------------------------------------
# 2-SAT feasibility
# ---------------------------------------------------------------------------


def test_feasibility_exclusive_or_system():
    inst = mk(
        GroundSet.binary(2),
        (Constraint.pair(0, 1, 1, 1, 1), Constraint.pair(0, -1, 1, -1, -1)),
        s.Modular((1, 1)),
    )
    feasible, z = check_feasibility_2sat(inst)
    assert feasible and z in ((1, 0), (0, 1))


def test_feasibility_contradictory_bounds():
    inst = mk(
        GroundSet.binary(1),
        (Constraint.single(0, 1, 1), Constraint.single(0, -1, 0)),
        s.Modular((1,)),
    )
    assert check_feasibility_2sat(inst) == (False, None)


def test_feasibility_triangle_cover_witness_covers():
    inst = triangle_vc()
    feasible, z = check_feasibility_2sat(inst)
    assert feasible and not inst.violated_by(z)


def test_feasibility_agrees_with_bruteforce_on_random_systems():
    rng = random.Random(99)
    for _ in range(150):
        inst = gen.random_general_instance(rng, max_n=4, max_u=3, feasible=False)
        expected = brute_force_solve(inst).feasible
        got, z = check_feasibility_2sat(inst)
        assert got == expected
        if got:
            assert not inst.violated_by(z)


# ---------------------------------------------------------------------------
# exact monotone route
# ---------------------------------------------------------------------------


def test_exact_monotone_worked_example():
    inst = mk(GroundSet((2, 2)), (Constraint.pair(0, 1, 1, -1, 0),), s.Modular((1, -2)))
    res = solve_exact_monotone(inst)
    assert res.x == (2, 2)
    assert res.value == -2
    assert res.mode == MODE_EXACT and res.ratio_bound == 1.0
    assert res.lower_bound == res.value


def test_exact_monotone_unconstrained_monotone_objective_stays_at_zero():
    inst = mk(GroundSet((2, 3)), (), s.Modular((1, 2)))
    res = solve_exact_monotone(inst)
    assert res.x == (0, 0)
    assert res.value == 0


def test_exact_monotone_rejects_cover_constraints():
    with pytest.raises(ValidationError):
        solve_exact_monotone(triangle_vc())


def test_exact_monotone_detects_infeasible_fixings():
    inst = mk(
        GroundSet.binary(1),
        (Constraint.single(0, 1, 1), Constraint.single(0, -1, 0)),
        s.Modular((1,)),
    )
    res = solve_exact_monotone(inst)
    assert not res.feasible


def test_exact_monotone_matches_bruteforce_on_random_instances():
    rng = random.Random(7)
    for _ in range(120):
        inst = gen.random_monotone_instance(rng, max_n=5, max_u=3)
        expected = brute_force_solve(inst)
        got = solve_exact_monotone(inst)
        assert got.feasible == expected.feasible
        if got.feasible:
            if inst.objective.integer_valued:
                assert got.value == expected.value
            else:
                assert got.value == pytest.approx(expected.value, abs=1e-9)


# ---------------------------------------------------------------------------
# relaxation and roundings
# ---------------------------------------------------------------------------


def test_relaxation_unconstrained_instance_agrees_across_copies():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(1, 4)
        ground = GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
        inst = Instance(ground, (), gen.random_oracle(rng, ground))
        out = solve_relaxation(inst)
        assert out.m_plus == out.minus_counts
        best = brute_force_solve(inst).value
        assert out.g_value == pytest.approx(2 * best)


def test_relaxation_value_matches_duplicated_enumeration_on_triangle():
    inst = triangle_vc()
    out = solve_relaxation(inst)
    mono = monotonize(inst)
    best = min(
        inst.objective(mono.split(x)[0]) + inst.objective(mono.split(x)[1])
        for x in map(tuple, s.enumerate_box(mono.ground))
        if all(c.holds(x) for c in mono.constraints)
    )
    assert out.g_value == pytest.approx(best)
    assert out.g_value == 3  # both copies jointly cover each edge once


def test_relaxation_raises_on_infeasible_duplication():
    inst = mk(
        GroundSet.binary(1),
        (Constraint.single(0, 1, 1), Constraint.single(0, -1, 0)),
        s.Modular((1,)),
    )
    with pytest.raises(s.InfeasibleSystem):
        solve_relaxation(inst)


def test_relaxation_lower_bounds_twice_the_optimum():
    rng = random.Random(23)
    for _ in range(60):
        inst = gen.random_general_instance(rng, max_n=4, max_u=2)
        ref = brute_force_solve(inst)
        if not ref.feasible:
            continue
        out = solve_relaxation(inst)
        assert out.g_value <= 2 * ref.value + 1e-9
        # outcome invariants
        assert all(0 <= p <= u for p, u in zip(out.m_plus, inst.ground.bounds))
        assert all(-u <= mm <= 0 for mm, u in zip(out.m_minus, inst.ground.bounds))
        recomputed = inst.objective(out.m_plus) + inst.objective(out.minus_counts)
        assert out.g_value == pytest.approx(recomputed)


def test_round_up_takes_componentwise_max():
    inst = mk(GroundSet.binary(3), (), s.Modular((1, 1, 1)), roundup=True)
    out = RelaxationOutcome((1, 1, 0), (-1, 0, 0), 0.0, 0.0)
    assert round_up(out, inst) == (1, 1, 0)


def test_round_up_agreeing_copies_return_the_point_itself():
    out = RelaxationOutcome((1, 0, 1), (-1, 0, -1), 0.0, 0.0)
    inst = mk(GroundSet.binary(3), (), s.Modular((1, 1, 1)), roundup=True)
    assert round_up(out, inst) == (1, 0, 1)


def test_round_up_requires_declaration_and_verifies():
    inst_undeclared = mk(GroundSet.binary(1), (), s.Modular((1,)))
    out = RelaxationOutcome((0,), (0,), 0.0, 0.0)
    with pytest.raises(ValidationError):
        round_up(out, inst_undeclared)
    # a fake outcome whose max violates the single covering constraint
    inst = mk(GroundSet.binary(2), (Constraint.pair(0, 1, 1, 1, 2),), s.Modular((1, 1)), roundup=True)
    bad = RelaxationOutcome((1, 0), (0, 0), 0.0, 0.0)
    with pytest.raises(RoundUpViolation):
        round_up(bad, inst)


def test_round_up_covers_random_vertex_cover_instances():
    rng = random.Random(31)
    for _ in range(60):
        g = gen.random_graph(rng, rng.randint(2, 7), p=0.5)
        f = gen.random_oracle(rng, GroundSet.binary(g.node_count), nonnegative=True)
        inst = s.build_vertex_cover(g, f)
        out = solve_relaxation(inst)
        x = round_up(out, inst)
        assert not inst.violated_by(x)


def test_round_ell_clamps_witness_between_copies():
    inst = mk(GroundSet((3, 3, 3)), (), s.Modular((1, 1, 1)))
    out = RelaxationOutcome((1, 2, 0), (-3, -2, 0), 0.0, 0.0)
    # bounds per coordinate: [1,3], [2,2], [0,0]
    assert round_ell(out, (2, 0, 1), inst) == (2, 2, 0)
    assert round_ell(out, (0, 3, 0), inst) == (1, 2, 0)


def test_round_ell_rejects_infeasible_witness():
    inst = mk(GroundSet.binary(2), (Constraint.pair(0, 1, 1, 1, 1),), s.Modular((1, 1)))
    out = RelaxationOutcome((1, 1), (0, 0), 0.0, 0.0)
    with pytest.raises(ValidationError):
        round_ell(out, (0, 0), inst)


def test_round_ell_feasible_across_sign_patterns():
    rng = random.Random(77)
    for _ in range(120):
        inst = gen.random_general_instance(rng, max_n=5, max_u=3)
        feasible, z = check_feasibility_2sat(inst)
        assert feasible  # planted
        out = solve_relaxation(inst)
        ell = round_ell(out, z, inst)
        assert not inst.violated_by(ell)
        lo = tuple(min(p, m) for p, m in zip(out.m_plus, out.minus_counts))
        hi = tuple(max(p, m) for p, m in zip(out.m_plus, out.minus_counts))
        assert all(a <= v <= b for v, a, b in zip(ell, lo, hi))


# ---------------------------------------------------------------------------
# certified approximation
# ---------------------------------------------------------------------------


def test_approx_triangle_cover_certificate():
    res = solve_approx(triangle_vc())
    assert res.feasible and res.mode == MODE_APPROX
    assert res.value <= 2 * 2 + 1e-9  # optimum is 2
    assert res.value <= 2 * res.lower_bound + 1e-9
    assert res.ratio_bound <= 2 + 1e-9
    assert res.lower_bound <= 2 + 1e-9


def test_approx_refuses_without_any_guarantee():
    inst = mk(
        GroundSet.binary(2),
        (Constraint.pair(0, -1, 1, -1, -1),),
        s.GraphCut(((0, 1),)),  # not monotone, no round-up declaration
    )
    with pytest.raises(GuaranteeUnavailable):
        solve_approx(inst)


def test_approx_monotone_objective_route_uses_witness_clamping():
    rng = random.Random(5)
    for _ in range(40):
        inst = gen.random_general_instance(rng, max_n=4, max_u=2, monotone_f=True)
        ref = brute_force_solve(inst)
        res = solve_approx(inst)
        assert res.feasible == ref.feasible
        if res.feasible:
            assert not inst.violated_by(res.x)
            assert res.value <= 2 * ref.value + 1e-9
            assert res.lower_bound <= ref.value + 1e-9
            # monotone objective: the clamped point never beats the union point
            hi = tuple(
                max(p, m)
                for p, m in zip(res.diagnostics["m_plus"], res.diagnostics["m_minus_counts"])
            )
            assert res.value <= inst.objective(hi) + 1e-9


def test_approx_reports_infeasible_instances():
    f = s.make_family(s.Modular((1, 1)), GroundSet.binary(2))
    inst = Instance(
        GroundSet.binary(2),
        (Constraint.pair(0, 1, 1, 1, 2), Constraint.pair(0, -1, 1, -1, -1)),
        f,
        roundup_declared=True,
    )
    res = solve_approx(inst)
    assert not res.feasible


def test_approx_on_monotone_only_instances_matches_exact():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        inst = gen.random_monotone_instance(rng, max_n=4, max_u=2)
        inst = Instance(inst.ground, inst.constraints, inst.objective, roundup_declared=False)
        if not inst.objective.claims_monotone:
            inst = Instance(inst.ground, inst.constraints, inst.objective, roundup_declared=True)
        exact = solve_exact_monotone(inst)
        if not exact.feasible:
            continue
        if inst.roundup_declared:
            # componentwise max may leave the feasible region for general
            # monotone matrices only through the declaration check
            try:
                approx = solve_approx(inst)
            except RoundUpViolation:
                continue
        else:
            approx = solve_approx(inst)
        assert approx.value == pytest.approx(exact.value, abs=1e-9)
        checked += 1
    assert checked >= 20


def test_approx_certificate_on_covering_multisets():
    rng = random.Random(53)
    for _ in range(60):
        inst = gen.random_covering_instance(rng, max_n=4, max_u=3)
        ref = brute_force_solve(inst)
        res = solve_approx(inst)
        assert res.feasible and ref.feasible
        assert res.value <= 2 * ref.value + 1e-9
        assert res.lower_bound <= ref.value + 1e-9
        assert not inst.violated_by(res.x)


def test_approx_roundup_instance_that_is_actually_infeasible():
    # exactly-one on every pair of a triangle: the duplicated relaxation is
    # feasible (one copy all-ones, the other all-zeros) but no integer point
    # exists; the rounding failure must resolve to an infeasibility report
    g = GroundSet.binary(3)
    f = s.make_family(s.Modular((1, 1, 1)), g)
    cons = []
    for (i, j) in ((0, 1), (1, 2), (0, 2)):
        cons.append(Constraint.pair(i, 1, j, 1, 1))
        cons.append(Constraint.pair(i, -1, j, -1, -1))
    inst = Instance(g, tuple(cons), f, roundup_declared=True)
    assert solve_relaxation(inst).g_value == 3
    res = solve_approx(inst)
    assert not res.feasible


def test_approx_surfaces_wrong_roundup_declaration():
    # feasible instance, falsely declared round-up: the relaxed copies settle
    # on opposite sides of the exclusion and the max is infeasible
    g = GroundSet.binary(2)
    f = s.make_family(s.Modular((-1, -1)), g)
    inst = Instance(g, (Constraint.pair(0, -1, 1, -1, -1),), f, roundup_declared=True)
    with pytest.raises(RoundUpViolation):
        solve_approx(inst)


def test_approx_warns_when_objective_samples_negative():
    g = GroundSet.binary(2)
    f = s.make_family(s.Modular((-1, 0)), g)
    inst = Instance(g, (Constraint.pair(0, 1, 1, 1, 1),), f, roundup_declared=True)
    res = solve_approx(inst)
    assert res.feasible
    assert any("negative" in w for w in res.warnings)


def test_solve_pipelines_refuse_unclaimed_objectives():
    g = GroundSet.binary(2)
    raw = s.SubmodularOracle(g, lambda x: sum(x))  # no structural claims
    inst = Instance(g, (Constraint.pair(0, 1, 1, -1, 0),), raw)
    with pytest.raises(ValidationError):
        solve_exact_monotone(inst)
    with pytest.raises(ValidationError):
        solve_relaxation(inst)
    assert brute_force_solve(inst).feasible  # enumeration needs no claim


def test_certified_lower_matches_half_relaxation_for_integer_objectives():
    rng = random.Random(61)
    for _ in range(30):
        inst = gen.random_general_instance(rng, max_n=4, max_u=2)
        out = solve_relaxation(inst)
        assert inst.objective.integer_valued
        assert out.certified_lower == pytest.approx(out.g_value / 2)


def test_solve_auto_dispatches_on_classification():
    monotone_inst = mk(GroundSet((2, 2)), (Constraint.pair(0, 1, 1, -1, 0),), s.Modular((1, -2)))
    assert solve_auto(monotone_inst).mode == MODE_EXACT
    assert solve_auto(triangle_vc()).mode == MODE_APPROX


@pytest.mark.parametrize("scale", [1, 100, 1e5])
def test_large_weights_solve_at_every_scale(scale):
    # a vertex cover whose min-norm solve stalled with a gap of hundreds once
    # its weights reached the hundreds; the answer must scale with the weights
    g = s.GraphSpec(6, ((0, 5), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    w = tuple(v * scale for v in (4, 1, 4, 3, 1, 1))
    covers = ((1, 4, 7), (3, 6, 7), (8,), (6,), (3, 4, 5), (5,))
    items = tuple(v * scale for v in (2, 3, 1, 2, 4, 4, 2, 2, 1))
    f = s.make_family(s.Sum((s.Modular(w), s.Coverage(covers, items))), GroundSet.binary(6))
    inst = s.build_vertex_cover(g, f)
    res = solve_auto(inst)
    assert res.value == 25 * scale
    assert res.lower_bound <= brute_force_solve(inst).value == 15 * scale


def test_tight_tolerance_stops_on_the_certificate():
    # min-2SAT at wolfe_tol=1e-12: Wolfe ran on to its cap of 2440 iterations
    # before it stopped on the optimality certificate.  The objective is
    # opaque, so Wolfe (not a minimum cut) is the engine
    cnf = s.CnfSpec(6, ((-2, -3), (-2, -6), (2, 6), (-6, -2), (-3, 4), (-3, -5), (-4, 2)))
    covers = ((2, 7, 11), (5,), (0, 10), (10,), (3, 9), (3, 11))
    items = (2, 4, 3, 2, 3, 3, 4, 2, 1, 1, 2, 4)
    f = s.make_family(s.Sum((s.Modular((4, 1, 3, 5, 1, 2)), s.Coverage(covers, items))),
                      GroundSet.binary(6))
    inst = s.build_min2sat(cnf, gen.opaque(f))
    res = solve_auto(inst, cfg=s.SolverConfig(wolfe_tol=1e-12))
    d = res.diagnostics
    assert d["engine"] == "wolfe"
    assert d["sfm_iterations"] < 100
    assert d["sfm_exact"] is True and d["duality_gap"] < 1
    assert 0 < d["sfm_evaluations"] < 2 ** d["level_count"]
    assert res.value == brute_force_solve(inst).value


def test_widened_penalty_recovers_the_minimum_cut_answer():
    # the tight first penalty leaves an arc violated on this min-2SAT case;
    # the retry at the wide weight returns the closed optimum
    cnf = s.CnfSpec(6, ((-1, -4), (-4, 5), (-2, -1), (-6, -2), (1, -3), (-3, -6), (1, -2), (2, -6),
                        (2, 5)))
    covers = ((5,), (3, 6), (3,), (1, 3), (1, 6), (3, 5, 6))
    f = s.make_family(s.Sum((s.Modular((4, 2, 3, 1, 2, 1)), s.Coverage(covers, (1, 4, 2, 2, 2, 1, 2)))),
                      GroundSet.binary(6))
    family = solve_auto(s.build_min2sat(cnf, f))
    res = solve_auto(s.build_min2sat(cnf, gen.opaque(f)))
    assert res.diagnostics["engine"] == "wolfe"
    assert res.diagnostics["penalty_retries"] >= 1
    assert (res.x, res.value, res.lower_bound) == (family.x, family.value, family.lower_bound)
    assert res.x == (0, 0, 0, 0, 1, 0) and res.value == res.lower_bound == 8


def test_opaque_concave_cover_takes_few_wolfe_iterations():
    # Wolfe's iterations grow with the penalty weight: on this cover's 80
    # free levels the wide weight 1 + |f(0)| + sum|y| takes 441 of them, the
    # tight first weight 1 + max|y| 46
    inst = gen.concave_cover(random.Random(1), 40)
    family = solve_auto(inst)
    res = solve_auto(replace(inst, objective=gen.opaque(inst.objective)))
    assert res.diagnostics["engine"] == "wolfe"
    assert res.diagnostics["sfm_iterations"] <= 100
    assert (res.value, res.lower_bound) == (family.value, family.lower_bound)


def test_family_objectives_solve_by_one_minimum_cut():
    # the same instance with its family spec: no Wolfe iteration, zero gap
    cnf = s.CnfSpec(6, ((-2, -3), (-2, -6), (2, 6), (-6, -2), (-3, 4), (-3, -5), (-4, 2)))
    covers = ((2, 7, 11), (5,), (0, 10), (10,), (3, 9), (3, 11))
    items = (2, 4, 3, 2, 3, 3, 4, 2, 1, 1, 2, 4)
    f = s.make_family(s.Sum((s.Modular((4, 1, 3, 5, 1, 2)), s.Coverage(covers, items))),
                      GroundSet.binary(6))
    inst = s.build_min2sat(cnf, f)
    res = solve_auto(inst)
    d = res.diagnostics
    assert (d["engine"], d["sfm_iterations"], d["sfm_evaluations"], d["penalty_retries"]) == \
        ("mincut", 0, 0, 0)
    assert d["sfm_exact"] is True and d["duality_gap"] == 0
    # 2 * 6 levels, one node per covered item (8 of 12) in each block,
    # source and sink
    assert d["cut_nodes"] == 12 + 2 * 8 + 2 and d["cut_arcs"] > 0
    assert res.value == brute_force_solve(inst).value
    assert res.system is not None and res.system.level_count == 12


def test_float_family_exact_route_certifies_zero_gap():
    # a float concave + modular multiset system, which Wolfe certifies only
    # to within its tolerance, is optimal with zero gap at any --tol
    rng = random.Random("float-zero-gap")
    ground = GroundSet((3, 2, 3, 1))
    table = [0.0]
    for d in sorted((rng.uniform(0, 2) for _ in range(ground.total_levels())), reverse=True):
        table.append(table[-1] + d)
    f = s.make_family(s.Sum((s.Modular(tuple(rng.uniform(-2, 1) for _ in range(4))),
                             s.ConcaveCardinality(tuple(table)))), ground)
    inst = Instance(ground, (Constraint.pair(0, 1, 1, -1, 0), Constraint.pair(2, 2, 3, -1, 1)), f)
    opt = brute_force_solve(inst).value
    for tol in (1e-12, 0.5):
        res = solve_exact_monotone(inst, cfg=s.SolverConfig(wolfe_tol=tol))
        assert res.ratio_bound == 1.0 and not res.warnings
        assert res.value == pytest.approx(opt, abs=1e-12)
        assert abs(res.diagnostics["duality_gap"]) <= 1e-12


# x0 >= 1 and x1 <= 0 fix different levels of bounds (2, 2); only the arcs of
# x1 >= x0 join them, so the contradiction shows only once fixes propagate
CONFLICT = (Constraint.single(0, 1, 1), Constraint.single(1, -1, 0), Constraint.pair(1, 1, 0, -1, 0))


def engines(ground):
    """x0 - 2*x1 as a family (min-cut engine) and as an opaque callable (Wolfe)."""
    return {"mincut": s.make_family(s.Modular((1, -2)), ground),
            "wolfe": s.SubmodularOracle(ground, lambda x: x[0] - 2 * x[1],
                                        claims_submodular=True, integer_valued=True)}


def test_contradictory_fixings_reached_through_arcs():
    ground = GroundSet((2, 2))
    for engine, f in engines(ground).items():
        inst = Instance(ground, CONFLICT, f)
        res = solve_auto(inst)
        assert res.x is None and not res.feasible
        assert res.diagnostics["engine"] == engine
        assert res.diagnostics["infeasible_detail"] == "contradictory fixings"
        with pytest.raises(s.InfeasibleSystem) as exc:
            solve_relaxation(inst)
        assert str(exc.value) == ("monotonized system infeasible (contradictory fixings); "
                                  "the original instance has no feasible point")


def test_level_solve_diagnostics_record():
    # the key order and values the CLI prints, for each way a level solve ends
    def record(level_count, chain_arcs, closure_arcs, fixed, engine, cut=(0, 0, 0),
               sfm=(0, 0, False), **tail):
        keys = ("level_count", "chain_arcs", "closure_arcs", "fixed", "dropped_vacuous",
                "engine", "cut_nodes", "cut_arcs", "cut_phases", "sfm_iterations",
                "sfm_evaluations", "sfm_exact", "penalty_retries", "duality_gap")
        return dict(zip(keys, (level_count, chain_arcs, closure_arcs, fixed, 0, engine,
                               *cut, *sfm, 0, 0.0)), **tail)

    def pinned(res, constraints, expected):
        counts = dict(zip(("monotone", "non_monotone", "singleton"), constraints))
        assert json.dumps(res.diagnostics) == json.dumps({"constraints": counts, **expected})

    ground = GroundSet((2, 2))
    work = {"mincut": {"cut": (6, 9, 0), "sfm": (0, 0, True)}, "wolfe": {"sfm": (2, 4, True)}}
    for engine, f in engines(ground).items():
        exact = solve_auto(Instance(ground, CONFLICT[::2], f))
        assert (exact.x, exact.value, exact.lower_bound) == ((1, 2), -3, -3)
        pinned(exact, (1, 0, 1), record(4, 2, 2, 1, engine, **work[engine]))
        pinned(solve_auto(Instance(ground, CONFLICT, f)), (1, 0, 2),
               record(4, 2, 2, 2, engine, infeasible_detail="contradictory fixings"))
    box = mk(GroundSet.binary(1), (Constraint.single(0, 1, 2),), s.Modular((1,)))
    pinned(solve_auto(box), (0, 0, 1),
           record(1, 0, 0, 0, "mincut", infeasible_detail="constraint 0: x0 >= 2 but its bound is 1"))
    approx = solve_auto(triangle_vc())
    assert (approx.x, approx.value, approx.lower_bound, approx.mode) == ((1, 1, 1), 3, 1.5, MODE_APPROX)
    pinned(approx, (0, 3, 0), record(6, 0, 6, 0, "mincut", cut=(8, 12, 1), sfm=(0, 0, True),
                                     g_value=3.0, m_plus=[0, 0, 0], m_minus_counts=[1, 1, 1]))


def test_witness_feeds_each_implication_once(monkeypatch):
    # the minus block's arcs restate the plus block's as contrapositives
    from submod2 import solver

    fed = []
    solve = solver.solve_2sat

    def counting(num_vars, implications):
        fed.append(list(implications))
        return solve(num_vars, fed[-1])

    monkeypatch.setattr(solver, "solve_2sat", counting)
    rng = random.Random(3)
    for _ in range(200):
        feasible, z = check_feasibility_2sat(gen.random_general_instance(rng, max_n=5, max_u=3))
        assert feasible
    assert len(fed) == 200
    assert all(len(set(imps)) == len(imps) for imps in fed)
    assert sum(map(len, fed)) == 3325  # of 6001 with the repeats


def test_approx_builds_one_level_system(monkeypatch):
    # the relaxation and 2-SAT read the same monotonized system
    from submod2 import reductions, solver

    calls = []
    build = reductions.build_level_system

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for mod in (reductions, solver):
        if hasattr(mod, "build_level_system"):
            monkeypatch.setattr(mod, "build_level_system", counting)
    cnf = s.CnfSpec(4, ((1, 2), (-1, 3), (-3, -4), (2, 4)))
    f = s.make_family(s.Modular((1, 2, 1, 3)), GroundSet.binary(4))
    inst = s.build_min2sat(cnf, f)
    res = solve_approx(inst)
    assert res.feasible and not inst.violated_by(res.x)
    assert len(calls) == 1
