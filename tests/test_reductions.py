import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submod2 as s
from submod2 import (
    Constraint,
    ConstraintKind,
    GroundSet,
    Instance,
    build_level_system,
    decode_levels,
    monotonize,
    monotonized_system,
)
from submod2.errors import ChainViolation, ValidationError

import gen


def system_allows(system, x):
    """Independent semantics of a level system: evaluate its arcs and fixings
    directly on the threshold indicators of the point x, level p of element e
    being id offsets[e] + p - 1."""
    if system.infeasible:
        return False
    on = {system.offsets[e] + p - 1 for e, v in enumerate(x) for p in range(1, v + 1)}
    return all(lo not in on or hi in on for lo, hi in system.closure_arcs) and all(
        (v in on) == bool(value) for v, value in system.fixed.items()
    )


def roundtrip_check(a, b, c, u_i, u_j):
    """The feasible (x_i, x_j) pairs of a*x_i + b*x_j >= c must be exactly the
    pairs whose agreeing duplicate (x, u - x) the level system of the two
    halves of the monotonized constraint admits; a monotone or singleton
    constraint's own level system must admit exactly them as well."""
    ground = GroundSet((u_i, u_j))
    con = Constraint.pair(0, a, 1, b, c)
    _, halves = monotonized_system(Instance(ground, (con,), s.make_family(s.Modular((0, 0)), ground)))
    own = build_level_system(ground, (con,)) if con.kind != ConstraintKind.NON_MONOTONE else None
    for xi in range(u_i + 1):
        for xj in range(u_j + 1):
            direct = a * xi + b * xj >= c
            agreed = (xi, xj, u_i - xi, u_j - xj)
            via_halves = system_allows(halves, agreed)
            assert direct == via_halves, (
                f"{a}*x0 + {b}*x1 >= {c} with bounds ({u_i}, {u_j}) at ({xi}, {xj}): "
                f"direct={direct} monotonized={via_halves}"
            )
            if own is not None:
                assert direct == system_allows(own, (xi, xj)), (
                    f"{a}*x0 + {b}*x1 >= {c} with bounds ({u_i}, {u_j}) at ({xi}, {xj}): "
                    f"direct={direct} own level system disagrees"
                )


def test_classify_examples():
    assert Constraint.pair(0, 1, 1, 1, 1).kind == ConstraintKind.NON_MONOTONE
    assert Constraint.pair(0, 1, 1, -1, 0).kind == ConstraintKind.MONOTONE
    assert Constraint.pair(0, 2, 1, 0, 1).kind == ConstraintKind.SINGLETON
    assert Constraint.single(0, 2, 1).kind == ConstraintKind.SINGLETON
    assert Constraint.pair(0, -1, 1, -1, -1).kind == ConstraintKind.NON_MONOTONE
    assert Constraint.pair(0, "-1/2", 1, "0.25", 1).kind == ConstraintKind.MONOTONE


def test_constraint_validation():
    with pytest.raises(ValidationError):
        Constraint.pair(0, 0, 1, 0, 1)
    with pytest.raises(ValidationError):
        Constraint.pair(0, 1, 0, 1, 1)
    with pytest.raises(ValidationError):
        Constraint(0, Fraction(1), None, Fraction(1), Fraction(0))


def test_rational_coefficients_clear_exactly():
    c = Constraint.pair(0, "1/2", 1, "0.25", "3/4")
    assert (c.a, c.b, c.c) == (2, 1, 3)
    c2 = Constraint.pair(0, 1.5, 1, -0.5, 2)
    assert (c2.a, c2.b, c2.c) == (3, -1, 4)
    assert all(type(v) is int for v in c.as_tuple() + c2.as_tuple() if v is not None)
    assert c == Constraint.pair(0, 2, 1, 1, 3)


@pytest.mark.parametrize("index", [0.5, "1", True, None])
def test_non_integer_constraint_indices_are_refused(index):
    g = GroundSet.binary(2)
    f = s.make_family(s.Modular((1, 1)), g)
    with pytest.raises(ValidationError, match="must be an integer"):
        Instance(g, (Constraint.pair(index, 1, 1, 1, 1),), f)
    if index is not None:  # j = None is the singleton form
        with pytest.raises(ValidationError, match="must be an integer"):
            Instance(g, (Constraint.pair(0, 1, index, 1, 1),), f)
    assert Constraint.pair(1.0, 1, 0, 1, 1) == Constraint.pair(1, 1, 0, 1, 1)


def test_coefficients_read_exactly_or_refused():
    assert Constraint.pair(0, np.float64(0.5), 1, 1, 1).as_tuple() == (0, 1, 1, 2, 2)
    assert Constraint.pair(0, np.int64(2), 1, np.int32(-1), 1).as_tuple() == (0, 2, 1, -1, 1)
    assert Constraint.pair(0, 0.1, 1, "1/3", 1).as_tuple() == (0, 3, 1, 10, 30)
    for bad in (float("inf"), float("-inf"), float("nan"), np.float64("inf"), "1/0", "abc",
                True, None, [1]):
        with pytest.raises(ValidationError, match="cannot interpret coefficient"):
            Constraint.pair(0, bad, 1, 1, 1)
        with pytest.raises(ValidationError, match="cannot interpret coefficient"):
            Constraint.single(0, 1, bad)


@pytest.mark.parametrize("limit", [640, 4300])
def test_coefficients_beyond_the_int_digit_limit_are_refused(limit):
    # cleared integers Python would refuse to print, and decimal exponents
    # that would expand into one, fail as input errors before any work
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert Constraint.single(0, 1, 10 ** limit - 1).c == 10 ** limit - 1
        for c in (10 ** limit, -10 ** limit, f"1e{limit}"):
            with pytest.raises(ValidationError, match=f"more than {limit} digits"):
                Constraint.single(0, 1, c)
        with pytest.raises(ValidationError, match=f"more than {limit} digits"):
            Constraint.single(0, "1e-400", f"1e{limit - 300}")  # cleared by 10**400
        for c in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e-1000000", "2.5E+1000000"):
            with pytest.raises(ValidationError, match=f"exponent beyond {limit}"):
                Constraint.single(0, 1, c)
    finally:
        sys.set_int_max_str_digits(default)


def test_level_system_messages_and_insertion_order():
    # the 2-SAT witness and the order of the cut's hard arcs follow the order
    # of `fixed` and `closure_arcs`; ids: x0 levels 0-2, x1 level 3, x2 levels 4-5
    cons = (
        Constraint.single(0, 1, 5),
        Constraint.single(1, -1, 1),
        Constraint.pair(0, 1, 2, -2, 4),
        Constraint.pair(0, 2, 2, -3, 1),
        Constraint.single(0, -1, -1),
        Constraint.pair(2, 1, 0, -1, 0),
        Constraint.single(2, 1, 1),
        Constraint.single(0, 1, 2),
        Constraint.pair(0, 2, 2, -3, 1),
        Constraint.pair(0, 1, 2, -1, -9),
    )
    system = build_level_system(GroundSet((3, 1, 2)), cons)
    assert system.infeasible == [
        "constraint 0: x0 >= 5 but its bound is 3",
        "constraint 1: x1 <= -1 is impossible",
        "constraint 2: 1*x0 + -2*x2 >= 4 forces x0 >= 4 > bound 3",
        "constraint 7: level 2 of x0 is forced both ways",
    ]
    assert list(system.fixed.items()) == [(0, 1), (5, 0), (1, 0), (2, 0), (4, 1)]
    assert system.closure_arcs == [(4, 1), (0, 4), (1, 5)]
    assert system.dropped_vacuous == 1


def test_binarize_monotone_unit_coefficients():
    # level ids: element 0 owns id 0, element 1 owns id 1
    system = build_level_system(GroundSet.binary(2), (Constraint.pair(0, 1, 1, -1, 0),))
    assert system.closure_arcs == [(1, 0)]
    assert not system.fixed and not system.infeasible and system.dropped_vacuous == 0


def test_binarize_monotone_ceiling_arithmetic():
    # 2*x0 - 3*x1 >= 1 with bounds (2, 2): level 1 of x1 (id 2) needs level 2
    # of x0 (id 1), level 2 of x1 (id 3) is impossible, and even x1 = 0 forces
    # x0 >= 1 (id 0)
    system = build_level_system(GroundSet((2, 2)), (Constraint.pair(0, 2, 1, -3, 1),))
    assert system.closure_arcs == [(2, 1)]
    assert system.fixed == {0: 1, 3: 0}
    assert not system.infeasible and system.dropped_vacuous == 0


def test_binarize_monotone_trivially_satisfied():
    system = build_level_system(GroundSet.binary(2), (Constraint.pair(0, 1, 1, -1, -1),))
    assert system.dropped_vacuous == 1
    assert not system.closure_arcs and not system.fixed and not system.infeasible


def test_binarize_monotone_rejects_non_monotone():
    with pytest.raises(ValidationError):
        build_level_system(GroundSet.binary(2), (Constraint.pair(0, 1, 1, 1, 1),))
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
        _, halves = monotonized_system(inst)
        if expect == "vacuous":
            assert halves.dropped_vacuous == 2
            assert not halves.closure_arcs and not halves.fixed and not halves.infeasible
        else:
            assert [m.split(":")[0] for m in halves.infeasible] == ["constraint 0", "constraint 1"]


def test_binarize_singletons_tighten_bounds():
    def system(c):
        return build_level_system(GroundSet((3, 1)), (c,))

    assert system(Constraint.single(0, 2, 3)).fixed == {1: 1}  # x0 >= 2: level 2 is id 1
    assert system(Constraint.single(0, -2, -3)).fixed == {1: 0}  # x0 <= 1
    assert system(Constraint.single(0, 1, 9)).infeasible
    assert system(Constraint.single(0, 1, -1)).dropped_vacuous == 1
    assert system(Constraint.pair(0, 0, 1, 1, 1)).fixed == {3: 1}  # a = 0: a bound on x1


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
    assert all(c.kind == ConstraintKind.MONOTONE for c in mono.constraints)


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
        assert {c.kind for c in mono.constraints} <= {
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
