"""Set-function minimization over binary ground sets.

Two engines: an exhaustive reference (`sfm_bruteforce`) and a min-norm-point
solver (`sfm_minnorm`) built from Wolfe's method over the base polytope with
the greedy linear oracle, which stops as soon as its duality certificate
proves the best threshold set of the iterate optimal (within the tolerance,
for float objectives).  `_ring_detailed` minimizes among the closed sets
of a digraph by adding a weighted count of violated arcs, which is itself a
directed cut function and therefore keeps the objective submodular.  The
weight starts tight, at 1 + max|y| over one greedy vertex y; only when the
answer is not closed does it widen to 1 + |f(0)| + sum|y| and then double.
Its public entry is `closure.solve_sm_closure`.

The solver runs these engines only on objectives it cannot see into (opaque
callables); built-in families are minimized by one minimum cut instead
(`closure.minimize_levels_mincut`), and the two cross-check each other in
the acceptance gates.

Subsets are frozensets at the public boundary and bitmasks internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import math

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import ConvergenceError, EnumerationCapExceeded, ValidationError


class SetFunctionOracle:
    """Pure evaluation oracle for a function on subsets of {0, .., m-1}.

    ``fn`` takes a bitmask (bit i set iff element i in the subset).  Values
    are memoized; the oracle must be deterministic.
    """

    def __init__(self, m: int, fn: Callable[[int], float], *, integer_valued: bool = False, label: str = ""):
        if m < 0:
            raise ValidationError("ground size must be nonnegative")
        self.m = m
        self.integer_valued = integer_valued
        self.label = label
        self._fn = fn
        self._cache: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        if mask < 0 or mask >> self.m:
            raise ValidationError(f"mask {mask:#x} outside ground of size {self.m}")
        hit = self._cache.get(mask)
        if hit is None:
            hit = float(self._fn(mask))
            self._cache[mask] = hit
        return hit

    def __repr__(self):
        return f"SetFunctionOracle({self.label or 'custom'}, m={self.m})"


def mask_of(subset: Iterable[int]) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << int(i)
    return mask


def set_of(mask: int) -> frozenset[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _lex_key(mask: int, m: int) -> tuple[int, ...]:
    # characteristic-vector tuple; smaller means "drop low indices first"
    return tuple((mask >> i) & 1 for i in range(m))


# Largest ground set `sfm_bruteforce` enumerates (2**m evaluations).
BRUTEFORCE_CAP = 22

# Retries `_ring_detailed` makes after its tight first penalty weight, the
# first at the wide weight and each later one at twice the last, before it
# gives up.
PENALTY_RETRIES = 10


def sfm_bruteforce(f: SetFunctionOracle) -> tuple[frozenset[int], float]:
    """Global minimizer by full enumeration; ties go to the lexicographically
    smallest characteristic vector."""
    if f.m > BRUTEFORCE_CAP:
        raise EnumerationCapExceeded(f"ground set of {f.m} exceeds brute-force cap {BRUTEFORCE_CAP}")
    best_mask, best_val = 0, f(0)
    for mask in range(1, 1 << f.m):
        v = f(mask)
        if v < best_val or (v == best_val and _lex_key(mask, f.m) < _lex_key(best_mask, f.m)):
            best_mask, best_val = mask, v
    return set_of(best_mask), best_val


def greedy_base_vertex(f: SetFunctionOracle, order: Sequence[int]) -> np.ndarray:
    """Vertex of the base polytope of f - f(empty): marginal gains of f along
    the given permutation."""
    if sorted(order) != list(range(f.m)):
        raise ValidationError("order must be a permutation of range(m)")
    y = np.zeros(f.m)
    mask, prev = 0, f(0)
    for idx in order:
        mask |= 1 << int(idx)
        cur = f(mask)
        y[int(idx)] = cur - prev
        prev = cur
    return y


@dataclass
class MinNormStats:
    """What one min-norm solve did.  ``evaluations`` counts the distinct
    points the objective oracle evaluated (its memo size); ``duality_gap`` is
    the certificate gap of the returned set (see `_certified`) and ``exact``
    says whether that gap certifies it optimal.  Min-cut solves do not report
    through it: their gap goes straight into the solve's diagnostics."""

    major_iterations: int = 0
    evaluations: int = 0
    duality_gap: float = 0.0
    penalty_retries: int = 0
    exact: bool = False


# Smallest certificate gap asked of a float oracle: below it, rounding in the
# iterate rather than the solve dominates.
FLOAT_GAP_FLOOR = 1e-7


def _certified(integer_valued: bool, gap: float, tol: float) -> bool:
    """Optimality certificate of a solve: ``gap`` is the value of the returned
    set less a proven lower bound (for a min-norm iterate x, f of its best
    threshold set less f(0) + sum(min(x, 0))).  Integer-valued objectives are
    solved exactly once it drops below 1; float ones once it is within
    max(10*tol, FLOAT_GAP_FLOOR).
    """
    if integer_valued:
        return gap < 1.0 - 1e-6
    return gap <= max(10 * tol, FLOAT_GAP_FLOOR)


def _affine_minimizer(V: list[np.ndarray]) -> np.ndarray:
    """Coefficients of the min-norm point of the affine hull of V (sum to 1)."""
    k = len(V)
    B = np.stack(V, axis=1)
    # The coefficients are invariant under scaling B, and B^T B with entries
    # near M^2 (large penalty weights) would swamp the ones row of the KKT
    # system, so solve it at unit scale.
    scale = float(np.abs(B).max())
    if scale > 0:
        B = B / scale
    A = np.zeros((k + 1, k + 1))
    A[:k, :k] = B.T @ B
    A[:k, k] = 1.0
    A[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    alpha = sol[:k]
    s = alpha.sum()
    if abs(s) > 1e-14:
        alpha = alpha / s
    return alpha


def _wolfe_min_norm(f: SetFunctionOracle, tol: float, iter_cap: int) -> tuple[np.ndarray, MinNormStats]:
    """Wolfe's method for the min-norm point of the base polytope of f - f(0)."""
    stats = MinNormStats()
    x = greedy_base_vertex(f, range(f.m))
    V: list[np.ndarray] = [x.copy()]
    lam = np.array([1.0])
    prev_norm = float(x @ x)
    while stats.major_iterations < iter_cap:
        stats.major_iterations += 1
        order = np.argsort(x, kind="stable")
        q = greedy_base_vertex(f, order)
        gap = float(x @ x - x @ q)
        stats.duality_gap = gap
        if gap <= tol:
            break
        # q walks the threshold sets of x, so its prefix sums along that order
        # are their values less f(0): the certificate costs no oracle call.
        best = min(0.0, float(np.cumsum(q[order]).min()))
        if _certified(f.integer_valued, best - float(np.minimum(x, 0.0).sum()), tol):
            break
        V.append(q)
        lam = np.append(lam, 0.0)
        for _ in range(iter_cap):
            alpha = _affine_minimizer(V)
            if np.all(alpha >= -1e-12):
                lam = np.clip(alpha, 0.0, None)
                lam = lam / lam.sum()
                # zero-weight vertices must leave the active set, or a later
                # line search pivots on them with step length zero and stalls
                keep = lam > 1e-12
                if not np.all(keep):
                    V = [v for v, k in zip(V, keep) if k]
                    lam = lam[keep]
                    lam = lam / lam.sum()
                break
            neg = alpha < 0
            stale = neg & (lam <= 1e-14)
            if np.any(stale):
                keep = ~stale
                V = [v for v, k in zip(V, keep) if k]
                lam = lam[keep]
                lam = lam / lam.sum()
                continue
            theta = float(np.min(lam[neg] / (lam[neg] - alpha[neg])))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-12] = 0.0
            keep = lam > 0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
                lam[keep] = 1.0
            V = [v for v, k in zip(V, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
        x = np.stack(V, axis=1) @ lam
        norm = float(x @ x)
        if prev_norm - norm <= tol and gap > math.sqrt(tol):
            break  # stalled; recovery + gap check decide what that means
        prev_norm = norm
    return x, stats


def _recover_minimizer(f: SetFunctionOracle, x: np.ndarray) -> tuple[int, float]:
    """Scan the threshold sets of the (approximate) min-norm point and return
    the best, with lexicographic tie-breaking.  Always evaluates the empty set
    and the full ground set."""
    best_mask, best_val = 0, f(0)

    def consider(mask):
        nonlocal best_mask, best_val
        v = f(mask)
        if v < best_val or (v == best_val and _lex_key(mask, f.m) < _lex_key(best_mask, f.m)):
            best_mask, best_val = mask, v

    mask = 0
    for idx in np.argsort(x, kind="stable"):
        mask |= 1 << int(idx)
        consider(mask)
    return best_mask, best_val


def _minnorm_detailed(f: SetFunctionOracle, cfg: SolverConfig) -> tuple[int, float, MinNormStats]:
    if f.m == 0:
        return 0, f(0), MinNormStats(exact=True)
    tol = cfg.wolfe_tol
    if tol <= 0:
        raise ValidationError("wolfe_tol must be positive")
    iter_cap = 10 * f.m * f.m + 1000
    x, stats = _wolfe_min_norm(f, tol, iter_cap)
    mask, val = _recover_minimizer(f, x)
    # x is exactly a convex combination of base vertices, so f(0) + sum of the
    # negative parts of x is a valid lower bound on min f regardless of how
    # close x is to the true min-norm point.
    lower = f(0) + float(np.minimum(x, 0.0).sum())
    gap = val - lower
    stats.exact = _certified(f.integer_valued, gap, tol)
    if f.integer_valued and not stats.exact:
        raise ConvergenceError(
            f"min-norm point did not close the integer duality gap (gap={gap:.3g}); "
            "the oracle is numerically hostile or not submodular"
        )
    stats.duality_gap = gap
    stats.evaluations = len(f._cache)
    return mask, val, stats


def sfm_minnorm(
    f: SetFunctionOracle, *, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[frozenset[int], float]:
    """Minimize a submodular set function via the min-norm point.

    The returned value is the oracle's own evaluation of the returned subset,
    never the approximate inner objective.  For integer-valued oracles the
    result is exact whenever the duality gap at termination is below 1.
    """
    mask, val, _ = _minnorm_detailed(f, cfg)
    return set_of(mask), val


def _count_violations(mask: int, arc_bits: list[tuple[int, int]]) -> int:
    return sum(1 for bi, bj in arc_bits if (mask & bi) and not (mask & bj))


def _ring_detailed(
    f: SetFunctionOracle, arcs: Sequence[tuple[int, int]], cfg: SolverConfig
) -> tuple[int, float, MinNormStats]:
    """Minimize f over the sets closed under the arcs, which lie in
    range(f.m).  A closed minimizer of the penalized function is optimal for
    any penalty weight, so checking closedness makes the heuristic weight
    sound; a self-loop is never violated and a repeat only doubles a penalty."""
    if not arcs:
        return _minnorm_detailed(f, cfg)
    arc_bits = [(1 << int(i), 1 << int(j)) for (i, j) in arcs]
    # Both weights come from one greedy vertex y.  The first try takes the
    # tight 1 + max|y| (Chakrabarty, Jain & Kothari 2014), which is usually
    # enough and keeps the base polytope Wolfe walks small: its iterations
    # grow with the weight.  When the returned set is not closed, the weight
    # widens to 1 + |f(0)| + sum|y| or twice the last, whichever is larger.
    y = greedy_base_vertex(f, list(range(f.m)))
    M = 1.0 + float(np.abs(y).max())
    wide = 1.0 + abs(f(0)) + float(np.abs(y).sum())
    if f.integer_valued:
        M, wide = float(math.ceil(M)), float(math.ceil(wide))
    total_stats = MinNormStats()
    for attempt in range(PENALTY_RETRIES + 1):
        penalized = SetFunctionOracle(
            f.m,
            lambda mask, M=M: f(mask) + M * _count_violations(mask, arc_bits),
            integer_valued=f.integer_valued and M == int(M),
            label=f"{f.label or 'f'}+ring_penalty",
        )
        mask, _, stats = _minnorm_detailed(penalized, cfg)
        total_stats.major_iterations += stats.major_iterations
        total_stats.duality_gap = stats.duality_gap
        total_stats.exact = stats.exact
        total_stats.penalty_retries = attempt
        if _count_violations(mask, arc_bits) == 0:
            value = f(mask)
            total_stats.evaluations = len(f._cache)
            return mask, value, total_stats
        M = max(2 * M, wide)
    raise ConvergenceError(
        f"ring-constrained minimization kept violating arcs after {PENALTY_RETRIES} penalty retries"
    )
