"""Orchestration of the solving pipelines.

Three routes:

* `solve_exact_monotone` - systems whose constraints all classify monotone or
  singleton binarize into precedence arcs over level indicators; minimizing
  the lifted objective over the closed sets of that arc graph is exact.
* `solve_approx` - general systems are duplicated into a purely monotone
  relaxation over plus/minus copies, binarized once; half of the relaxed
  optimum is a certified lower bound, and a feasible integer point within a
  factor 2 is recovered either by the componentwise max of the two copies
  (instances declared round-up) or by clamping, between the copies, a 2-SAT
  witness read off the same level system (monotone objectives).
* `brute_force_solve` - exhaustive reference used by the test suite as the
  independent oracle for both values and feasibility.

Both routes minimize over the closed sets of a level system with one of two
engines, chosen by the objective.  A built-in family (an oracle carrying a
``family_spec``) compiles to an s-t graph over the level indicators and is
minimized by one maximum flow, whose value certifies the optimum
(`closure.minimize_levels_mincut`).  An opaque callable goes through Wolfe's
min-norm point with a ring penalty (`sfm`); its lifted objective evaluates
per-element counts of level indicators, which extends the multiset function
to arbitrary (not only chain-respecting) indicator sets, and diminishing
marginals across levels keep that extension submodular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closure import minimize_levels_mincut
from .config import DEFAULT_CONFIG, SolverConfig
from .core import Complement, FamilySpec, enumerate_box
from .errors import (
    EnumerationCapExceeded,
    GuaranteeUnavailable,
    InfeasibleSystem,
    RoundUpViolation,
    SolverError,
    ValidationError,
)
from .reductions import (
    ConstraintKind,
    Instance,
    LevelSystem,
    Monotonized,
    build_level_system,
    decode_levels,
    monotonized_system,
)
from .sfm import FLOAT_GAP_FLOOR, SetFunctionOracle, _certified, _ring_detailed
from .twosat import solve_2sat

MODE_EXACT = "ExactMonotone"
MODE_APPROX = "Approx2"
MODE_BRUTE = "BruteForce"

# Absolute slack of the floating-point certificate inequalities.
CERTIFICATE_TOL = 1e-9


@dataclass
class SolveResult:
    """What a solve found.  ``system`` is the level system its route
    minimized over (the monotonized one for `MODE_APPROX`, none for
    `MODE_BRUTE`)."""

    x: tuple[int, ...] | None
    value: float
    lower_bound: float
    mode: str
    ratio_bound: float
    feasible: bool
    warnings: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    system: LevelSystem | None = field(default=None, repr=False, compare=False)


@dataclass
class RelaxationOutcome:
    """Optimal plus/minus copy counts of the monotonized relaxation.

    ``m_minus`` is stored nonpositive; -m_minus[i] is the minus-copy count.
    ``g_value`` is re-evaluated from the oracle, never trusted from the inner
    solve.  ``certified_lower`` is a sound lower bound on the constrained
    optimum: half the relaxed value, less any residual duality gap the inner
    solve left (zero for integer objectives, which are certified exact).
    """

    m_plus: tuple[int, ...]
    m_minus: tuple[int, ...]
    g_value: float
    certified_lower: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def minus_counts(self) -> tuple[int, ...]:
        return tuple(-v for v in self.m_minus)


# ---------------------------------------------------------------------------
# level-graph solving shared by the exact and relaxation routes
# ---------------------------------------------------------------------------


def _propagate_fixes(system: LevelSystem) -> tuple[int, int] | None:
    """(must_in mask, must_out mask) closed under the arcs, or None on
    conflict.  Membership propagates forward along arcs, exclusion backward."""
    arcs = system.all_arcs()
    fwd: dict[int, list[int]] = {}
    bwd: dict[int, list[int]] = {}
    for (i, j) in arcs:
        fwd.setdefault(i, []).append(j)
        bwd.setdefault(j, []).append(i)
    must_in, must_out = 0, 0
    stack_in = [v for v, val in system.fixed.items() if val == 1]
    stack_out = [v for v, val in system.fixed.items() if val == 0]
    while stack_in:
        v = stack_in.pop()
        if (must_in >> v) & 1:
            continue
        must_in |= 1 << v
        stack_in.extend(fwd.get(v, ()))
    while stack_out:
        v = stack_out.pop()
        if (must_out >> v) & 1:
            continue
        must_out |= 1 << v
        stack_out.extend(bwd.get(v, ()))
    if must_in & must_out:
        return None
    return must_in, must_out


def _solve_levels(
    system: LevelSystem,
    objective_on_counts,
    integer_valued: bool,
    cfg: SolverConfig,
    specs: Sequence[FamilySpec] | None,
) -> tuple[tuple[int, ...] | None, dict]:
    """Minimize objective(counts) over closed level sets of the system; return
    the optimal counts (None when no closed set obeys the fixings, which
    ``infeasible_detail`` explains) and the solve's diagnostics.

    With ``specs`` (one family spec per equal block of elements, together
    equal to the objective) the minimum is one minimum cut, and a gap above
    the certificate threshold means the compiled graph is wrong.  Without,
    fixed variables and their implications are contracted away and the
    remaining free variables go through the ring-constrained min-norm solve.
    """
    stats = {
        "level_count": system.level_count,
        "chain_arcs": len(system.chain_arcs),
        "closure_arcs": len(system.closure_arcs),
        "fixed": len(system.fixed),
        "dropped_vacuous": system.dropped_vacuous,
        "engine": "wolfe" if specs is None else "mincut",
        "cut_nodes": 0, "cut_arcs": 0, "cut_phases": 0,
        "sfm_iterations": 0, "sfm_evaluations": 0, "sfm_exact": False,
        "penalty_retries": 0, "duality_gap": 0.0,
    }
    prop = None if system.infeasible else _propagate_fixes(system)
    if prop is None:
        stats["infeasible_detail"] = "; ".join(system.infeasible) or "contradictory fixings"
        return None, stats
    if specs is not None:
        cut = minimize_levels_mincut(system, specs)
        counts = decode_levels(system, cut.members)
        gap = objective_on_counts(counts) - cut.lower
        if not _certified(integer_valued, gap, 0.0):
            raise SolverError(f"internal: minimum cut left a certificate gap of {gap:.3g}")
        stats.update(cut_nodes=cut.nodes, cut_arcs=cut.arcs, cut_phases=cut.phases,
                     sfm_exact=True, duality_gap=gap)
        return counts, stats
    must_in, must_out = prop
    free = [v for v in range(system.level_count) if not ((must_in | must_out) >> v) & 1]
    pos = {v: k for k, v in enumerate(free)}

    def expand(mask_free: int) -> int:
        full = must_in
        rem = mask_free
        k = 0
        while rem:
            if rem & 1:
                full |= 1 << free[k]
            rem >>= 1
            k += 1
        return full

    oracle = SetFunctionOracle(
        len(free),
        lambda mask: objective_on_counts(system.counts_of(expand(mask))),
        integer_valued=integer_valued,
        label="level_lift",
    )
    arcs = [(pos[i], pos[j]) for (i, j) in system.all_arcs() if i in pos and j in pos]
    mask, _, wolfe = _ring_detailed(oracle, arcs, cfg)
    stats.update(sfm_iterations=wolfe.major_iterations, sfm_evaluations=wolfe.evaluations,
                 sfm_exact=wolfe.exact, penalty_retries=wolfe.penalty_retries,
                 duality_gap=wolfe.duality_gap)
    return decode_levels(system, expand(mask)), stats


def _constraint_counts(inst: Instance) -> dict:
    counts = {k.value: 0 for k in ConstraintKind}
    for c in inst.constraints:
        counts[c.kind.value] += 1
    return counts


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------


def _require_submodular_claim(inst: Instance):
    if not inst.objective.claims_submodular:
        raise ValidationError(
            "objective does not claim submodularity; the certified pipelines require it "
            "(construct the oracle with claims_submodular=True after verifying, or use "
            "brute_force_solve)"
        )


def solve_exact_monotone(inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Exact minimum for instances whose constraints are all monotone or
    singleton; raises on any other constraint."""
    _require_submodular_claim(inst)
    system = build_level_system(inst.ground, inst.constraints, cfg=cfg)
    spec = inst.objective.family_spec
    x, stats = _solve_levels(system, inst.objective, inst.objective.integer_valued, cfg,
                             None if spec is None else (spec,))
    diagnostics = {"constraints": _constraint_counts(inst), **stats}
    if x is None:
        return SolveResult(None, float("nan"), float("nan"), MODE_EXACT, float("nan"), False,
                           diagnostics=diagnostics, system=system)
    violated = inst.violated_by(x)
    if violated:
        raise SolverError(f"internal: exact solution violates constraints {violated}")
    value = inst.objective(x)
    if inst.objective.integer_valued:
        return SolveResult(x, value, value, MODE_EXACT, 1.0, True, diagnostics=diagnostics,
                           system=system)
    # A float solve is only as good as its certificate: the inner gap bounds
    # how far the value can sit above the optimum, whatever the tolerance.
    gap = max(stats["duality_gap"], 0.0)
    lower = value - gap
    if gap <= FLOAT_GAP_FLOOR:
        return SolveResult(x, value, lower, MODE_EXACT, 1.0, True, diagnostics=diagnostics,
                           system=system)
    ratio = value / lower if lower > CERTIFICATE_TOL else float("inf")
    warning = (f"inner duality gap {gap:.3g} left open (wolfe_tol={cfg.wolfe_tol:g}); "
               "the value is certified only to within that gap")
    return SolveResult(x, value, lower, MODE_EXACT, ratio, True, (warning,), diagnostics, system)


# ---------------------------------------------------------------------------
# relaxation and roundings
# ---------------------------------------------------------------------------


def solve_relaxation(inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG) -> RelaxationOutcome:
    """Solve the monotonized duplication exactly (see `_relax`)."""
    _require_submodular_claim(inst)
    return _relax(inst, *monotonized_system(inst, cfg=cfg), cfg)


def _relax(inst: Instance, mono: Monotonized, system: LevelSystem, cfg: SolverConfig) -> RelaxationOutcome:
    """Minimize over the closed sets of the duplication's level system.

    The objective over the duplicated point is f(plus counts) + f(minus
    counts); since minus copies are stored in reversed orientation, the minus
    block evaluates f on bounds-minus-counts, i.e. through the reflected
    oracle, or, for a built-in family, through its `Complement`.  When an
    agreeing pair (both copies equal) attains the same optimum, it is
    preferred, which makes purely monotone instances round to their exact
    optimum.
    """
    f = inst.objective

    def g(counts2n: tuple[int, ...]) -> float:
        plus, minus = mono.split(counts2n)
        return f(plus) + f(minus)

    spec = f.family_spec
    counts, stats = _solve_levels(system, g, f.integer_valued, cfg,
                                  None if spec is None else (spec, Complement(spec)))
    if counts is None:
        raise InfeasibleSystem(
            f"monotonized system infeasible ({stats['infeasible_detail']}); "
            "the original instance has no feasible point"
        )
    plus, minus = mono.split(counts)
    g_value = f(plus) + f(minus)

    # The base-polytope bound of the (penalized) inner solve lower-bounds the
    # relaxed optimum whatever the penalty weight and however far the engine
    # got, so the certificate survives an inexact float solve.  Integer
    # objectives are certified exact (the gap check below 1 already passed).
    residual = max(stats["duality_gap"], 0.0)
    if f.integer_valued:
        certified_lower = g_value / 2.0
    else:
        certified_lower = (g_value - residual) / 2.0

    # prefer an agreeing optimum when one exists at the same value
    for cand in (plus, minus):
        if not inst.violated_by(cand):
            cand_value = 2 * f(cand)
            if cand_value <= g_value + 1e-12:
                plus = minus = tuple(cand)
                g_value = cand_value
                break

    diagnostics = {"constraints": _constraint_counts(inst), **stats}
    return RelaxationOutcome(
        m_plus=tuple(plus),
        m_minus=tuple(-v for v in minus),
        g_value=g_value,
        certified_lower=certified_lower,
        diagnostics=diagnostics,
    )


def round_up(out: RelaxationOutcome, inst: Instance) -> tuple[int, ...]:
    """Componentwise max of the two copy counts (the multiset union of the
    relaxed solution pair).  Verified by substitution; a violation means the
    round-up declaration was wrong for this instance."""
    if not inst.roundup_declared:
        raise ValidationError("round_up requires the instance to declare the round-up property")
    x = tuple(max(p, m) for p, m in zip(out.m_plus, out.minus_counts))
    violated = inst.violated_by(x)
    if violated:
        raise RoundUpViolation(
            f"rounded point {x} violates constraints {violated}; "
            "the round-up declaration is inconsistent with the instance"
        )
    return x


def round_ell(out: RelaxationOutcome, z: Sequence[int], inst: Instance) -> tuple[int, ...]:
    """Clamp a feasible integer witness componentwise between the two copy
    counts.  The clamped point is always feasible; a violation here signals an
    implementation bug, not a bad instance."""
    zt = tuple(int(v) for v in z)
    if inst.violated_by(zt):
        raise ValidationError("witness point is not feasible")
    lo = tuple(min(p, m) for p, m in zip(out.m_plus, out.minus_counts))
    hi = tuple(max(p, m) for p, m in zip(out.m_plus, out.minus_counts))
    ell = tuple(min(max(v, a), b) for v, a, b in zip(zt, lo, hi))
    violated = inst.violated_by(ell)
    if violated:
        raise SolverError(
            f"internal: clamped witness {ell} violates constraints {violated}; "
            "clamping between the copy counts must preserve feasibility"
        )
    return ell


# ---------------------------------------------------------------------------
# 2-SAT feasibility
# ---------------------------------------------------------------------------


def check_feasibility_2sat(
    inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide feasibility of the full system and produce an integer witness.

    The formula is the monotonized level system the relaxation minimizes
    over, 2 * sum(u) levels counted against ``cfg.level_budget`` (see
    `_witness_2sat`).
    """
    _, system = monotonized_system(inst, cfg=cfg)
    z = _witness_2sat(inst, system)
    return z is not None, z


def _witness_2sat(inst: Instance, system: LevelSystem) -> tuple[int, ...] | None:
    """A feasible point of the instance from its monotonized level system, or
    None when there is none.

    Over threshold indicators the duplication's arcs are implications: each
    arc a -> b is the clause (not a or b), fed as a -> b and its
    contrapositive not b -> not a, and each fixing is a unit clause.  Minus
    levels are not variables of their own: level (n + i, p) is the negation of
    plus level (i, u_i + 1 - p), which makes both copies agree, so the plus
    block of any satisfying assignment decodes to a feasible point.  The
    chain arcs keep that block a prefix of ones per element.
    """
    if system.infeasible:
        return None
    n = inst.ground.n
    plus_levels = system.offsets[n]
    lit = [2 * v for v in range(plus_levels)]  # literal of each level of the 2n system
    for i, ub in enumerate(inst.ground.bounds):
        lit += [2 * system.var(i, ub + 1 - p) + 1 for p in range(1, ub + 1)]
    implications: list[tuple[int, int]] = []
    for (lo, hi) in system.all_arcs():
        implications += [(lit[lo], lit[hi]), (lit[hi] ^ 1, lit[lo] ^ 1)]
    for v, val in system.fixed.items():
        unit = lit[v] if val == 1 else lit[v] ^ 1
        implications.append((unit ^ 1, unit))
    # the minus block's arcs mostly restate the plus block's as contrapositives;
    # first-occurrence order keeps the witness the one the full list gives
    assignment = solve_2sat(plus_levels, list(dict.fromkeys(implications)))
    if assignment is None:
        return None
    members = sum(1 << v for v, val in enumerate(assignment) if val)
    z = decode_levels(system, members)[:n]
    violated = inst.violated_by(z)
    if violated:
        raise SolverError(f"internal: 2-SAT witness {z} violates constraints {violated}")
    return z


# ---------------------------------------------------------------------------
# certified 2-approximation
# ---------------------------------------------------------------------------


def _infeasible_result(inst: Instance, mode: str, diagnostics: dict | None = None,
                       system: LevelSystem | None = None) -> SolveResult:
    d = {"constraints": _constraint_counts(inst)}
    if diagnostics:
        d.update(diagnostics)
    return SolveResult(None, float("nan"), float("nan"), mode, float("nan"), False,
                       diagnostics=d, system=system)


def _sample_nonnegativity(inst: Instance, out: RelaxationOutcome, x: tuple[int, ...], tol: float) -> bool:
    f = inst.objective
    n = inst.ground.n
    points = {
        (0,) * n,
        tuple(inst.ground.bounds),
        out.m_plus,
        out.minus_counts,
        tuple(min(p, m) for p, m in zip(out.m_plus, out.minus_counts)),
        x,
    }
    return all(f(p) >= -tol for p in points)


def solve_approx(inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Certified factor-2 solve for general two-variable systems.

    Requires either a declared round-up constraint matrix or a monotone
    objective; otherwise no guarantee exists and the solver refuses.  The
    reported lower bound (half the relaxed optimum) is valid for any
    objective; the factor-2 certificate additionally needs the objective to
    be nonnegative, which is sampled opportunistically and voided with a
    warning when a negative value shows up.
    """
    if not (inst.roundup_declared or inst.objective.claims_monotone):
        raise GuaranteeUnavailable(
            "no approximation guarantee available: the instance declares no round-up "
            "property and the objective does not claim monotonicity; use brute_force_solve "
            "or restate the problem"
        )
    _require_submodular_claim(inst)
    mono, system = monotonized_system(inst, cfg=cfg)
    try:
        relax = _relax(inst, mono, system, cfg)
    except InfeasibleSystem:
        return _infeasible_result(inst, MODE_APPROX, system=system)

    warnings: list[str] = []
    if inst.roundup_declared:
        try:
            x = round_up(relax, inst)
        except RoundUpViolation:
            if _witness_2sat(inst, system) is None:
                return _infeasible_result(inst, MODE_APPROX, relax.diagnostics, system)
            raise
    else:
        z = _witness_2sat(inst, system)
        if z is None:
            return _infeasible_result(inst, MODE_APPROX, relax.diagnostics, system)
        x = round_ell(relax, z, inst)

    value = inst.objective(x)
    lower = relax.certified_lower
    tol = CERTIFICATE_TOL
    if not _sample_nonnegativity(inst, relax, x, tol):
        warnings.append(
            "objective sampled negative: the factor-2 certificate assumes a nonnegative "
            "objective and is void; the lower bound remains valid"
        )
    if value > 2.0 * lower + tol and not warnings:
        warnings.append("certificate exceeded: value is more than twice the lower bound")
    if lower > tol:
        ratio = value / lower
    else:
        ratio = 1.0 if value <= 2.0 * lower + tol else float("inf")
    diagnostics = dict(relax.diagnostics)
    diagnostics["g_value"] = relax.g_value
    diagnostics["m_plus"] = relax.m_plus
    diagnostics["m_minus_counts"] = relax.minus_counts
    return SolveResult(x, value, lower, MODE_APPROX, ratio, True, tuple(warnings), diagnostics,
                       system)


# ---------------------------------------------------------------------------
# exhaustive reference
# ---------------------------------------------------------------------------


def brute_force_solve(inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Enumerate the whole box, filter by substitution, minimize; ties go to
    the lexicographically smallest point."""
    size = inst.ground.box_size()
    if size > cfg.enumeration_cap:
        raise EnumerationCapExceeded(f"box has {size} points, cap is {cfg.enumeration_cap}")
    X = enumerate_box(inst.ground)
    feasible = np.ones(len(X), dtype=bool)
    for c in inst.constraints:
        lhs = c.a * X[:, c.i]
        if c.j is not None:
            lhs = lhs + c.b * X[:, c.j]
        feasible &= lhs >= c.c
    if not feasible.any():
        return _infeasible_result(inst, MODE_BRUTE)
    Xf = X[feasible]
    vals = inst.objective.eval_many(Xf)
    best = vals.min()
    ties = Xf[vals <= best + (0 if inst.objective.integer_valued else 1e-12)]
    order = np.lexsort(tuple(ties[:, k] for k in range(ties.shape[1] - 1, -1, -1)))
    x = tuple(int(v) for v in ties[order[0]])
    value = inst.objective(x)
    return SolveResult(
        x, value, value, MODE_BRUTE, 1.0, True,
        diagnostics={"constraints": _constraint_counts(inst), "points": int(size),
                     "feasible_points": int(feasible.sum())},
    )


def solve_auto(inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Dispatch on constraint classification: all monotone/singleton goes to
    the exact solver, anything else to the certified approximation."""
    if inst.is_monotone:
        return solve_exact_monotone(inst, cfg=cfg)
    return solve_approx(inst, cfg=cfg)
