import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import submod2 as s
from submod2 import (
    Constraint,
    ConstraintKind,
    GroundSet,
    Instance,
    binarize_monotone,
    build_level_system,
    classify,
    cleared_coefficients,
    decode_levels,
    monotonize,
)
from submod2.errors import ChainViolation, ValidationError

import gen


def fragment_allows(frag, x):
    """Independent semantics of a fragment: evaluate its arcs and fixings
    directly on the threshold indicators of the point x."""

    def ind(level):
        elem, p = level
        return x[elem] >= p

    if frag.infeasible_reason is not None:
        return False
    for (lo, hi) in frag.closure_arcs:
        if ind(lo) and not ind(hi):
            return False
    for lv in frag.fix_one:
        if not ind(lv):
            return False
    for lv in frag.fix_zero:
        if ind(lv):
            return False
    return True


def roundtrip_check(a, b, c, u_i, u_j):
    """The feasible (x_i, x_j) pairs of a*x_i + b*x_j >= c must be exactly the
    pairs whose agreeing duplicate (x, u - x) both binarized halves of the
    monotonized constraint admit; a monotone or singleton constraint's own
    fragment must admit exactly them as well."""
    ground = GroundSet((u_i, u_j))
    con = Constraint.pair(0, a, 1, b, c)
    mono = monotonize(Instance(ground, (con,), s.make_family(s.Modular((0, 0)), ground)))
    halves = [binarize_monotone(h, mono.ground) for h in mono.constraints]
    own = binarize_monotone(con, ground) if classify(con) != ConstraintKind.NON_MONOTONE else None
    for xi in range(u_i + 1):
        for xj in range(u_j + 1):
            direct = a * xi + b * xj >= c
            agreed = (xi, xj, u_i - xi, u_j - xj)
            via_halves = all(fragment_allows(h, agreed) for h in halves)
            assert direct == via_halves, (
                f"{a}*x0 + {b}*x1 >= {c} with bounds ({u_i}, {u_j}) at ({xi}, {xj}): "
                f"direct={direct} monotonized={via_halves}"
            )
            if own is not None:
                assert direct == fragment_allows(own, (xi, xj)), (
                    f"{a}*x0 + {b}*x1 >= {c} with bounds ({u_i}, {u_j}) at ({xi}, {xj}): "
                    f"direct={direct} fragment disagrees"
                )


def test_classify_examples():
    assert classify(Constraint.pair(0, 1, 1, 1, 1)) == ConstraintKind.NON_MONOTONE
    assert classify(Constraint.pair(0, 1, 1, -1, 0)) == ConstraintKind.MONOTONE
    assert classify(Constraint.pair(0, 2, 1, 0, 1)) == ConstraintKind.SINGLETON
    assert classify(Constraint.single(0, 2, 1)) == ConstraintKind.SINGLETON
    assert classify(Constraint.pair(0, -1, 1, -1, -1)) == ConstraintKind.NON_MONOTONE


def test_constraint_validation():
    with pytest.raises(ValidationError):
        Constraint.pair(0, 0, 1, 0, 1)
    with pytest.raises(ValidationError):
        Constraint.pair(0, 1, 0, 1, 1)
    with pytest.raises(ValidationError):
        Constraint(0, Fraction(1), None, Fraction(1), Fraction(0))


def test_rational_coefficients_clear_exactly():
    c = Constraint.pair(0, "1/2", 1, "0.25", "3/4")
    assert cleared_coefficients(c) == (2, 1, 3)
    c2 = Constraint.pair(0, 1.5, 1, -0.5, 2)
    assert cleared_coefficients(c2) == (3, -1, 4)


def test_binarize_monotone_unit_coefficients():
    frag = binarize_monotone(Constraint.pair(0, 1, 1, -1, 0), GroundSet.binary(2))
    assert frag.closure_arcs == [((1, 1), (0, 1))]
    assert not frag.fix_one and not frag.fix_zero


def test_binarize_monotone_ceiling_arithmetic():
    # 2*x0 - 3*x1 >= 1 with bounds (2, 2): level 1 of x1 needs level 2 of x0,
    # level 2 of x1 is impossible, and even x1 = 0 forces x0 >= 1
    frag = binarize_monotone(Constraint.pair(0, 2, 1, -3, 1), GroundSet((2, 2)))
    assert frag.closure_arcs == [((1, 1), (0, 2))]
    assert frag.fix_zero == [(1, 2)]
    assert frag.fix_one == [(0, 1)]


def test_binarize_monotone_trivially_satisfied():
    frag = binarize_monotone(Constraint.pair(0, 1, 1, -1, -1), GroundSet.binary(2))
    assert frag.vacuous


def test_binarize_monotone_rejects_non_monotone():
    with pytest.raises(ValidationError):
        binarize_monotone(Constraint.pair(0, 1, 1, 1, 1), GroundSet.binary(2))
    with pytest.raises(ValidationError):
        build_level_system(GroundSet.binary(2), (Constraint.pair(0, -1, 1, -1, -1),))


def test_roundtrip_vacuous_and_infeasible_edges():
    # same-sign constraints that no box point violates, or every one does
    binary = GroundSet.binary(2)
    for a, b, c, expect in [(1, 1, 0, "vacuous"), (1, 1, 3, "infeasible"),
                            (-1, -1, -5, "vacuous"), (-1, -1, 1, "infeasible")]:
        roundtrip_check(a, b, c, 1, 1)
        inst = Instance(binary, (Constraint.pair(0, a, 1, b, c),),
                        s.make_family(s.Modular((0, 0)), binary))
        mono = monotonize(inst)
        halves = [binarize_monotone(h, mono.ground) for h in mono.constraints]
        if expect == "vacuous":
            assert all(h.vacuous for h in halves)
        else:
            assert all(h.infeasible_reason for h in halves)


def test_binarize_singletons_tighten_bounds():
    frag = binarize_monotone(Constraint.single(0, 2, 3), GroundSet((3, 1)))
    assert frag.fix_one == [(0, 2)]
    frag = binarize_monotone(Constraint.single(0, -2, -3), GroundSet((3, 1)))
    assert frag.fix_zero == [(0, 2)]  # x0 <= 1
    assert binarize_monotone(Constraint.single(0, 1, 9), GroundSet((3, 1))).infeasible_reason
    assert binarize_monotone(Constraint.single(0, 1, -1), GroundSet((3, 1))).vacuous


def test_roundtrip_small_exhaustive_slice():
    # full exhaustive sweep lives in the acceptance suite; keep a fast slice here
    for a, b in [(1, 1), (2, 3), (1, -1), (-2, 3), (-1, -1), (-3, -2), (2, 0), (-3, 0)]:
        for c in range(-5, 6):
            for u_i in (1, 2):
                for u_j in (1, 3):
                    roundtrip_check(a, b, c, u_i, u_j)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-4, 4).filter(lambda v: v != 0),
    st.integers(-4, 4).filter(lambda v: v != 0),
    st.integers(-8, 8),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_roundtrip_fuzz(a, b, c, u_i, u_j):
    roundtrip_check(a, b, c, u_i, u_j)


def test_build_level_system_assembles_chains_and_dedupes():
    ground = GroundSet((2, 2))
    cons = (
        Constraint.pair(0, 1, 1, -1, 0),
        Constraint.pair(0, 1, 1, -1, 0),  # duplicate
    )
    system = build_level_system(ground, cons)
    assert system.level_count == 4
    assert system.chain_arcs == [(1, 0), (3, 2)]
    assert len(system.closure_arcs) == 2  # levels 1 and 2, deduped across the copy
    assert system.dropped_vacuous == 0


def test_build_level_system_flags_conflicting_fixes():
    ground = GroundSet.binary(1)
    cons = (Constraint.single(0, 1, 1), Constraint.single(0, -1, 0))
    system = build_level_system(ground, cons)
    assert system.infeasible


def test_build_level_system_budget():
    cfg = s.SolverConfig(level_budget=3)
    with pytest.raises(ValidationError):
        build_level_system(GroundSet((2, 2)), (), cfg=cfg)


def test_decode_levels_counts_prefixes():
    system = build_level_system(GroundSet((3, 1)), ())
    assert decode_levels(system, {0, 1}) == (2, 0)
    assert decode_levels(system, set()) == (0, 0)
    assert decode_levels(system, {3}) == (0, 1)
    with pytest.raises(ChainViolation):
        decode_levels(system, {1})  # level 2 without level 1


# ---------------------------------------------------------------------------
# monotonizing duplication
# ---------------------------------------------------------------------------


def test_monotonize_splits_cover_into_cross_pairs():
    # x0 + x1 >= 1 on binary ground: the plus copy of 0 pairs with the
    # reversed minus copy of 1 and vice versa; in reversed orientation the
    # minus copy t stands for a count of u - t, so the right-hand side shifts
    # by b*u. The signed reading a*x0+ - b*x1- >= c is recovered by x- = t - u.
    inst = Instance(
        GroundSet.binary(2),
        (Constraint.pair(0, 1, 1, 1, 1),),
        s.make_family(s.Modular((1, 1)), GroundSet.binary(2)),
    )
    mono = monotonize(inst)
    assert [c.as_tuple() for c in mono.constraints] == [
        (0, 1, 3, -1, 0),
        (2, -1, 1, 1, 0),
    ]
    assert all(classify(c) == ConstraintKind.MONOTONE for c in mono.constraints)


def test_monotonize_duplicates_monotone_constraints_per_copy():
    inst = Instance(
        GroundSet.binary(2),
        (Constraint.pair(0, 1, 1, -1, 0),),
        s.make_family(s.Modular((1, 1)), GroundSet.binary(2)),
    )
    mono = monotonize(inst)
    assert [c.as_tuple() for c in mono.constraints] == [
        (0, 1, 1, -1, 0),
        (2, -1, 3, 1, 0),
    ]


def test_monotonize_feasible_points_embed_as_agreeing_pairs():
    rng = random.Random(5)
    for _ in range(100):
        inst = gen.random_general_instance(rng, max_n=4, max_u=3)
        mono = monotonize(inst)
        assert {classify(c) for c in mono.constraints} <= {
            ConstraintKind.MONOTONE,
            ConstraintKind.SINGLETON,
        }
        u = inst.ground.bounds
        for x in gen.enumerate_feasible(inst):
            agreed = tuple(x) + tuple(ub - v for ub, v in zip(u, x))
            assert all(c.holds(agreed) for c in mono.constraints)


def test_monotonize_feasible_pairs_satisfy_doubled_inequalities():
    rng = random.Random(6)
    for _ in range(60):
        inst = gen.random_general_instance(rng, max_n=3, max_u=2)
        mono = monotonize(inst)
        for x2n in map(tuple, s.enumerate_box(mono.ground)):
            if not all(c.holds(x2n) for c in mono.constraints):
                continue
            plus, minus = mono.split(x2n)
            combined = tuple(p + m for p, m in zip(plus, minus))
            for c in inst.constraints:
                lhs = c.a * combined[c.i] + (c.b * combined[c.j] if c.j is not None else 0)
                assert lhs >= 2 * c.c


def test_instance_validation():
    g = GroundSet.binary(2)
    f = s.make_family(s.Modular((1, 1)), g)
    with pytest.raises(ValidationError):
        Instance(g, (Constraint.pair(0, 1, 5, 1, 1),), f)
    with pytest.raises(ValidationError):
        Instance(GroundSet.binary(3), (), f)
