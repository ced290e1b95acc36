import itertools
import random

from submod2.twosat import solve_2sat


def brute_sat(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any(bits[v] == pol for (v, pol) in clause) for clause in clauses):
            return True
    return False


def implications_of_clause(l1, l2):
    return [(l1 ^ 1, l2), (l2 ^ 1, l1)]


def to_implications(clauses):
    out = []
    for clause in clauses:
        lits = [2 * v if pol else 2 * v + 1 for (v, pol) in clause]
        if len(lits) == 1:
            out.append((lits[0] ^ 1, lits[0]))
        else:
            out += implications_of_clause(*lits)
    return out


def test_simple_formulas():
    # (x0 or x1) and (not x0 or not x1)
    clauses = [[(0, True), (1, True)], [(0, False), (1, False)]]
    model = solve_2sat(2, to_implications(clauses))
    assert model is not None
    assert model[0] != model[1]
    # x0 and not x0
    assert solve_2sat(1, to_implications([[(0, True)], [(0, False)]])) is None


def test_implication_chain_forces_assignment():
    # x0 -> x1 -> x2, with x0 forced true
    clauses = [[(0, False), (1, True)], [(1, False), (2, True)], [(0, True)]]
    model = solve_2sat(3, to_implications(clauses))
    assert model == [True, True, True]


def test_agreement_with_bruteforce_on_random_formulas():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 10)):
            width = 1 if n == 1 or rng.random() < 0.2 else 2
            vars_ = rng.sample(range(n), width)
            clauses.append([(v, rng.random() < 0.5) for v in vars_])
        model = solve_2sat(n, to_implications(clauses))
        expected = brute_sat(n, clauses)
        assert (model is not None) == expected
        if model is not None:
            assert all(any(model[v] == pol for (v, pol) in clause) for clause in clauses)
