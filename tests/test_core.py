import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submod2 as s
from submod2 import (
    Complement,
    ConcaveCardinality,
    Coverage,
    Embed,
    GraphCut,
    GroundSet,
    Modular,
    SubmodularOracle,
    Sum,
    make_family,
    reflect_complement,
    verify_monotone,
    verify_submodular,
)
from submod2.errors import EnumerationCapExceeded, ValidationError

import gen


def test_modular_evaluates_weight_sum():
    f = make_family(Modular((1, 1, 1)), GroundSet.binary(3))
    assert f((1, 1, 0)) == 2
    assert f((0, 0, 0)) == 0
    assert f.claims_submodular and f.claims_monotone and f.integer_valued


def test_concave_cardinality_is_a_table_lookup():
    f = make_family(ConcaveCardinality((0, 1, 1.5, 1.75)), GroundSet.binary(3))
    assert f((1, 0, 1)) == 1.5
    assert f((0, 1, 1)) == 1.5
    assert not f.integer_valued


def test_graph_cut_counts_crossing_edges():
    triangle = GraphCut(((0, 1), (1, 2), (0, 2)))
    f = make_family(triangle, GroundSet.binary(3))
    assert f((1, 0, 0)) == 2  # both edges at node 0 are cut
    assert f((1, 1, 1)) == 0


def test_ground_set_validation():
    with pytest.raises(ValidationError):
        GroundSet(())
    with pytest.raises(ValidationError):
        GroundSet((1, 0))
    assert GroundSet((2, 3)).box_size() == 12
    assert GroundSet.binary(4).is_binary
    assert GroundSet.boxed([2.0, np.int64(3)]).bounds == (2, 3)
    for bad in (1.5, "2", float("inf"), None, True):
        with pytest.raises(ValidationError):
            GroundSet.boxed([1, bad])


def test_oracle_rejects_fractional_and_out_of_box_queries():
    f = make_family(Modular((1, 1)), GroundSet.binary(2))
    with pytest.raises(ValidationError):
        f((0.5, 0))
    with pytest.raises(ValidationError):
        f((2, 0))
    with pytest.raises(ValidationError):
        f((0,))


def test_family_dimension_and_domain_errors():
    with pytest.raises(ValidationError):
        make_family(Modular((1, 1)), GroundSet.binary(3))
    with pytest.raises(ValidationError):
        make_family(GraphCut(((0, 1),)), GroundSet((2, 2)))
    with pytest.raises(ValidationError):
        make_family(Coverage(((0,), (0,)), (1.0,)), GroundSet((2, 1)))
    with pytest.raises(ValidationError):
        make_family(ConcaveCardinality((0, 1, 3)), GroundSet.binary(2))  # convex step
    with pytest.raises(ValidationError):
        make_family(GraphCut(((0, 1),), (-1.0,)), GroundSet.binary(2))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_families_reject_non_finite_weights(bad):
    binary = GroundSet.binary(2)
    for spec in (Modular((1.0, bad)), ConcaveCardinality((0.0, 1.0, bad)),
                 GraphCut(((0, 1),), (bad,)), Coverage(((0,), (1,)), (1.0, bad))):
        with pytest.raises(ValidationError):
            make_family(spec, binary)


def test_verify_submodular_accepts_modular_rejects_square():
    assert verify_submodular(make_family(Modular((3, -2, 0.5)), GroundSet.binary(3)))
    square = SubmodularOracle(GroundSet.binary(2), lambda x: sum(x) ** 2)
    assert not verify_submodular(square)


def test_verify_submodular_bounds_beyond_int16():
    # a concave table on one element is submodular at every bound; box
    # coordinates above 32767 once wrapped and broke the lattice ranks
    bound = 40000
    table = tuple(-abs(v - bound // 2) for v in range(bound + 2))
    assert verify_submodular(make_family(ConcaveCardinality(table[:-1]), GroundSet((bound,))))
    tilted = make_family(Sum((ConcaveCardinality(table), Modular((0, 1)))), GroundSet((bound, 1)))
    assert verify_submodular(tilted)
    bump = SubmodularOracle(GroundSet((bound, 1)), lambda x: x[1] * (x[0] >= 39000))
    assert not verify_submodular(bump)


def _submodular_by_all_pairs(f):
    X = [tuple(int(v) for v in row) for row in s.enumerate_box(f.ground)]
    for x in X:
        for y in X:
            meet = tuple(map(min, x, y))
            join = tuple(map(max, x, y))
            if f(x) + f(y) < f(meet) + f(join) - 1e-9:
                return False
    return True


def test_verify_submodular_matches_the_all_pairs_definition():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(150):
        ground = GroundSet(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        if rng.random() < 0.5:
            table = {}
            f = SubmodularOracle(ground, lambda x, t=table: t.setdefault(x, rng.randint(-3, 3)))
        else:
            g = gen.random_oracle(rng, ground)
            bump = tuple(rng.randint(0, u) for u in ground.bounds)
            f = SubmodularOracle(ground, lambda x, g=g, b=bump: g(x) + (x == b))
        expected = _submodular_by_all_pairs(f)
        verdicts.add(expected)
        assert verify_submodular(f) == expected
    assert verdicts == {True, False}


def test_verify_submodular_graph_cut_exhaustive():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        fam = GraphCut(
            tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6)
        )
        assert verify_submodular(make_family(fam, GroundSet.binary(n)))


def test_verify_monotone_examples():
    assert verify_monotone(make_family(Modular((2, 0, 1)), GroundSet.binary(3)))
    assert not verify_monotone(make_family(Modular((-1, 1)), GroundSet.binary(2)))
    one_edge = make_family(GraphCut(((0, 1),)), GroundSet.binary(2))
    assert not verify_monotone(one_edge)  # cut of the full set drops back to 0


def test_reflect_complement_evaluates_at_reflected_point():
    f = make_family(Modular((1, 2)), GroundSet.binary(2))
    rf = reflect_complement(f)
    assert rf((0, 0)) == 3
    assert rf((1, 1)) == 0


def test_reflect_complement_is_an_involution():
    g = GroundSet((2, 1, 3))
    f = gen.random_oracle(random.Random(3), g)
    rrf = reflect_complement(reflect_complement(f))
    for x in map(tuple, s.enumerate_box(g)):
        assert rrf(x) == f(x)


def test_reflected_graph_cut_stays_submodular():
    f = make_family(GraphCut(((0, 1), (1, 2), (2, 3))), GroundSet.binary(4))
    assert verify_submodular(reflect_complement(f))


def test_enumeration_cap_enforced():
    big = make_family(Modular((1,) * 25), GroundSet.binary(25))
    with pytest.raises(EnumerationCapExceeded):
        verify_submodular(big)


def test_embed_oracle_ignores_other_positions():
    inner = make_family(Modular((2, 5)), GroundSet.binary(2))
    outer = s.embed_oracle(inner, GroundSet.binary(4), (1, 3))
    assert outer((0, 1, 1, 1)) == 7
    assert outer((1, 0, 1, 0)) == 0
    assert outer.claims_monotone
    assert outer.family_spec == Embed(Modular((2, 5)), (1, 3))
    assert s.embed_oracle(gen.opaque(inner), GroundSet.binary(4), (1, 3)).family_spec is None


def test_embed_family_matches_the_embedded_oracle():
    ground = GroundSet((1, 2, 1, 3))
    inner = Sum((Modular((2, -1)), Complement(ConcaveCardinality((0, 3, 5, 6, 6.5)))))
    f = make_family(Embed(inner, (3, 0)), ground)
    g = s.embed_oracle(make_family(inner, GroundSet((3, 1))), ground, (3, 0))
    X = s.enumerate_box(ground)
    assert np.array_equal(f.eval_many(X), g.eval_many(X))
    assert (f.claims_submodular, f.claims_monotone, f.integer_valued) == (True, False, False)


@pytest.mark.parametrize("positions", [(-1,), (4,), (2, 2)])
def test_embed_family_rejects_bad_positions(positions):
    # a negative position must not wrap round to the last element
    with pytest.raises(ValidationError):
        make_family(Embed(Modular((1,) * len(positions)), positions), GroundSet((1, 1, 1, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_every_builtin_family_is_lattice_submodular(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    ground = GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
    f = gen.random_oracle(rng, ground)
    assert verify_submodular(f)
    if f.claims_monotone:
        assert verify_monotone(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_builtin_families_have_diminishing_marginals_across_levels(seed):
    # marginals non-increasing in every coordinate, including the stepped one;
    # the level-lift used by the reductions relies on this
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    ground = GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
    f = gen.random_oracle(rng, ground)
    X = s.enumerate_box(ground)
    for x in map(tuple, X):
        for i in range(n):
            if x[i] + 2 > ground.bounds[i]:
                continue
            up1 = tuple(v + (1 if k == i else 0) for k, v in enumerate(x))
            up2 = tuple(v + (2 if k == i else 0) for k, v in enumerate(x))
            assert f(up2) - f(up1) <= f(up1) - f(x) + 1e-9


def test_modular_satisfies_lattice_equality():
    rng = random.Random(11)
    ground = GroundSet((2, 3, 1))
    f = make_family(Modular((1.5, -2, 4)), ground)
    pts = [tuple(rng.randint(0, u) for u in ground.bounds) for _ in range(30)]
    for x in pts:
        for y in pts:
            meet = tuple(map(min, x, y))
            join = tuple(map(max, x, y))
            assert f(x) + f(y) == pytest.approx(f(meet) + f(join))


def test_sum_and_complement_compose():
    ground = GroundSet((2, 2))
    fam = Sum((Modular((1, 1)), Complement(ConcaveCardinality((0, 2, 3, 3.5, 3.75)))))
    f = make_family(fam, ground)
    assert f((2, 2)) == 4 + 0
    assert f((0, 0)) == 0 + 3.75
    assert verify_submodular(f)


def test_eval_many_matches_scalar_eval():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        ground = GroundSet(tuple(rng.randint(1, 3) for _ in range(n)))
        f = gen.random_oracle(rng, ground)
        X = s.enumerate_box(ground)
        batch = f.eval_many(X)
        scalar = np.array([f(tuple(int(v) for v in row)) for row in X])
        assert np.allclose(batch, scalar)
