import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submod2 as s
from submod2 import (
    ClosureInstance,
    SetFunctionOracle,
    greedy_base_vertex,
    sfm_bruteforce,
    sfm_minnorm,
    solve_sm_closure,
)
from submod2.errors import EnumerationCapExceeded, ValidationError
from submod2.sfm import mask_of

import gen


def modular_oracle(w):
    return SetFunctionOracle(
        len(w),
        lambda mask: sum(w[i] for i in range(len(w)) if (mask >> i) & 1),
        integer_valued=all(v == int(v) for v in w),
        label="modular",
    )


def triangle_cut():
    edges = [(0, 1), (1, 2), (0, 2)]
    return SetFunctionOracle(
        3,
        lambda mask: sum(1 for (i, j) in edges if ((mask >> i) & 1) != ((mask >> j) & 1)),
        integer_valued=True,
        label="triangle_cut",
    )


def test_bruteforce_picks_negative_weights():
    sub, val = sfm_bruteforce(modular_oracle([-1, 2, -3]))
    assert sub == {0, 2}
    assert val == -4


def test_bruteforce_triangle_cut_empty():
    sub, val = sfm_bruteforce(triangle_cut())
    assert sub == frozenset()
    assert val == 0


def test_bruteforce_tie_breaks_to_lexicographically_smallest():
    sub, val = sfm_bruteforce(modular_oracle([0, 0]))
    assert sub == frozenset()
    assert val == 0


def test_bruteforce_cap():
    with pytest.raises(EnumerationCapExceeded):
        sfm_bruteforce(modular_oracle([0] * 23))


def test_greedy_vertex_of_modular_is_the_weights():
    w = [3, -1, 2, 0]
    f = modular_oracle(w)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        assert np.allclose(greedy_base_vertex(f, order), w)


def test_greedy_vertex_triangle_cut_frozen_values():
    y = greedy_base_vertex(triangle_cut(), [0, 1, 2])
    assert np.allclose(y, [2, 0, -2])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_vertex_telescopes_and_stays_in_base_polytope(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    f = gen.random_set_oracle(rng, m)
    order = list(range(m))
    rng.shuffle(order)
    y = greedy_base_vertex(f, order)
    full = (1 << m) - 1
    assert y.sum() == pytest.approx(f(full) - f(0))
    for mask in range(1 << m):
        total = sum(y[i] for i in range(m) if (mask >> i) & 1)
        assert total <= f(mask) - f(0) + 1e-9


def test_greedy_vertex_requires_permutation():
    with pytest.raises(ValidationError):
        greedy_base_vertex(modular_oracle([1, 2]), [0, 0])


def test_minnorm_matches_modular_optimum():
    sub, val = sfm_minnorm(modular_oracle([-1, 2, -3]))
    assert val == -4
    assert sub == {0, 2}


def test_minnorm_reports_empty_set_for_nonnegative_functions():
    f = SetFunctionOracle(4, lambda mask: mask.bit_count() ** 0.5)
    sub, val = sfm_minnorm(f)
    assert sub == frozenset()
    assert val == 0


def test_minnorm_equals_bruteforce_on_random_mixes():
    rng = random.Random(42)
    for _ in range(40):
        m = rng.randint(1, 9)
        f = gen.random_set_oracle(rng, m)
        _, expected = sfm_bruteforce(f)
        _, got = sfm_minnorm(f)
        assert got == expected


def test_minnorm_refuses_a_nonpositive_wolfe_tol():
    for tol in (0.0, -1e-9):
        with pytest.raises(ValidationError, match="wolfe_tol must be positive"):
            sfm_minnorm(modular_oracle([-1, 2]), cfg=s.SolverConfig(wolfe_tol=tol))


def test_ring_minimization_respects_arcs():
    f = modular_oracle([-5, 3])
    sub, val = solve_sm_closure(ClosureInstance(2, ((0, 1),), f))
    assert sub == {0, 1}
    assert val == -2


def test_ring_empty_equals_unconstrained():
    rng = random.Random(9)
    for _ in range(10):
        f = gen.random_set_oracle(rng, rng.randint(1, 6))
        assert solve_sm_closure(ClosureInstance(f.m, (), f))[1] == sfm_minnorm(f)[1]


def test_ring_cycle_forces_all_or_nothing():
    rng = random.Random(21)
    for _ in range(10):
        m = rng.randint(2, 6)
        f = gen.random_set_oracle(rng, m)
        cycle = [(i, (i + 1) % m) for i in range(m)]
        sub, val = solve_sm_closure(ClosureInstance(m, tuple(cycle), f))
        full = (1 << m) - 1
        assert sub in (frozenset(), frozenset(range(m)))
        assert val == min(f(0), f(full))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_ring_output_satisfies_every_arc_and_is_optimal(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 7)
    f = gen.random_set_oracle(rng, m)
    arcs = gen.random_dag(rng, m, p=0.4)
    sub, val = solve_sm_closure(ClosureInstance(m, tuple(arcs), f))
    assert all(j in sub for (i, j) in arcs if i in sub)
    # independent check: enumerate closed sets
    best = min(
        f(mask_of(c))
        for r in range(m + 1)
        for c in itertools.combinations(range(m), r)
        if all(j in c for (i, j) in arcs if i in c)
    )
    assert val == best


def test_ring_reads_repeated_arcs_and_self_loops_as_given():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(2, 6)
        f = gen.random_set_oracle(rng, m)
        arcs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(1, 2 * m))]
        arcs += rng.sample(arcs, rng.randint(1, len(arcs))) + [(v, v) for v in range(0, m, 2)]
        rng.shuffle(arcs)
        sub, val = solve_sm_closure(ClosureInstance(m, tuple(arcs), f))
        closed = [set(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)
                  if all(j in c for (i, j) in arcs if i in c)]
        assert set(sub) in closed
        assert val == f(mask_of(sub)) == min(f(mask_of(c)) for c in closed)


def test_arc_violation_penalty_is_a_submodular_cut_function():
    arcs = [(0, 1), (2, 0), (1, 3)]
    bits = [(1 << i, 1 << j) for i, j in arcs]
    pen = s.SubmodularOracle(
        s.GroundSet.binary(4),
        lambda x: sum(1 for bi, bj in bits
                      if x[bi.bit_length() - 1] and not x[bj.bit_length() - 1]),
    )
    assert s.verify_submodular(pen)


def test_ring_rejects_out_of_range_arcs():
    with pytest.raises(ValidationError):
        ClosureInstance(2, ((0, 5),), modular_oracle([1, 2]))

