"""Two-variable inequality systems over bounded integer variables and their
reductions to binary form.

Constraints are stored uniformly as a*x_i + b*x_j >= c with integer
coefficients: each is read exactly once, at construction, and the three are
scaled by the lcm of their denominators.  A constraint is *monotone* when a
and b have strictly opposite signs; systems of monotone (and singleton)
constraints binarize into pure precedence arcs between level indicator
variables and are solvable exactly as closed-set problems.  A general system
has one encoding as well: its plus/minus duplication (`monotonize`) is
monotone, and binarizes into arcs over 2n elements.  The factor-2 relaxation
minimizes over the closed sets of that arc graph, and the same graph read as
implications, with each minus-copy level standing for the negation of a
plus-copy level, is the system's 2-SAT formula.

Level indicators follow the usual threshold convention: the p-th indicator of
element i is 1 exactly when x_i >= p, so per element the indicators form a
chain and any chain-respecting assignment is a prefix of ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .core import GroundSet, SubmodularOracle, _integer
from .errors import ChainViolation, ValidationError


def _rat(v) -> int | Fraction:
    """The exact value of one coefficient, as an int when it is integral.
    Ints, numpy integers, Fractions, decimal or fraction strings and floats
    are read; a float means its shortest printed decimal, not its binary
    value."""
    if type(v) is int:
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    value = None
    if isinstance(v, Fraction):
        value = v
    elif isinstance(v, (str, float, np.floating)):
        try:
            value = Fraction(v if isinstance(v, str) else repr(float(v)))
        except (ValueError, ZeroDivisionError):
            pass
    if value is None:
        raise ValidationError(f"cannot interpret coefficient {v!r}")
    return value.numerator if value.denominator == 1 else value


class ConstraintKind(enum.Enum):
    MONOTONE = "monotone"
    NON_MONOTONE = "non_monotone"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class Constraint:
    """a*x_i + b*x_j >= c; ``j`` may be None for singleton constraints.

    The coefficients may be given as ints, Fractions, floats or decimal and
    fraction strings; they are stored as the ints that the lcm of their
    denominators scales them to, which keeps the feasible set.  ``kind`` is
    derived from their signs."""

    i: int
    a: int
    j: int | None
    b: int
    c: int
    kind: ConstraintKind = field(init=False, compare=False)

    def __post_init__(self):
        i = _integer(self.i, "constraint index i")
        j = None if self.j is None else _integer(self.j, "constraint index j")
        a, b, c = _rat(self.a), _rat(self.b), _rat(self.c)
        scale = lcm(a.denominator, b.denominator, c.denominator)
        if scale != 1:
            a, b, c = int(a * scale), int(b * scale), int(c * scale)
        if j is None and b != 0:
            raise ValidationError("singleton constraint must have b = 0")
        if a == 0 and b == 0:
            raise ValidationError("constraint needs a nonzero coefficient")
        if j is not None and i == j:
            raise ValidationError("the two variables of a constraint must differ")
        if j is None or a == 0 or b == 0:
            kind = ConstraintKind.SINGLETON
        elif (a > 0) != (b > 0):
            kind = ConstraintKind.MONOTONE
        else:
            kind = ConstraintKind.NON_MONOTONE
        for name, value in zip(("i", "a", "j", "b", "c", "kind"), (i, a, j, b, c, kind)):
            object.__setattr__(self, name, value)

    @staticmethod
    def single(i: int, a, c) -> "Constraint":
        return Constraint(i, a, None, 0, c)

    @staticmethod
    def pair(i: int, a, j: int, b, c) -> "Constraint":
        return Constraint(i, a, j, b, c)

    def as_tuple(self):
        return (self.i, self.a, self.j, self.b, self.c)

    def holds(self, x: Sequence[int]) -> bool:
        lhs = self.a * x[self.i]
        if self.j is not None:
            lhs += self.b * x[self.j]
        return lhs >= self.c

    def __str__(self):
        if self.j is None or self.b == 0:
            return f"{self.a}*x{self.i} >= {self.c}"
        return f"{self.a}*x{self.i} + {self.b}*x{self.j} >= {self.c}"


@dataclass(frozen=True)
class Instance:
    """A constrained multiset minimization instance: box, two-variable
    inequalities, objective oracle, and whether the constraint matrix was
    declared to allow rounding every feasible half-integral point upward."""

    ground: GroundSet
    constraints: tuple[Constraint, ...]
    objective: SubmodularOracle
    roundup_declared: bool = False
    name: str = ""

    def __post_init__(self):
        if self.objective.ground.bounds != self.ground.bounds:
            raise ValidationError("objective ground does not match the instance ground")
        for k, c in enumerate(self.constraints):
            if not 0 <= c.i < self.ground.n or (c.j is not None and not 0 <= c.j < self.ground.n):
                raise ValidationError(f"constraint {k} references an element out of range")

    def violated_by(self, x: Sequence[int]) -> list[int]:
        return [k for k, c in enumerate(self.constraints) if not c.holds(x)]

    @property
    def is_monotone(self) -> bool:
        """True when every constraint is monotone or a singleton: the system
        then binarizes as it stands and solves exactly; otherwise it is solved
        through its plus/minus duplication."""
        return all(c.kind is not ConstraintKind.NON_MONOTONE for c in self.constraints)


# ---------------------------------------------------------------------------
# assembled level systems
# ---------------------------------------------------------------------------


@dataclass
class LevelSystem:
    """All level variables of a ground set plus the binarized constraints.

    Level variables are numbered element-major: element i owns the ids
    offsets[i] .. offsets[i] + u_i - 1, id offsets[i] + (p - 1) standing for
    the indicator of x_i >= p.  Chain arcs encode the threshold structure and
    are present for every element regardless of the constraints.
    """

    ground: GroundSet
    offsets: tuple[int, ...]
    chain_arcs: list[tuple[int, int]]
    closure_arcs: list[tuple[int, int]]
    fixed: dict[int, int]
    infeasible: list[str]
    dropped_vacuous: int

    @property
    def level_count(self) -> int:
        return self.ground.total_levels()

    def var(self, element: int, level: int) -> int:
        if not 1 <= level <= self.ground.bounds[element]:
            raise ValidationError(f"level {level} out of range for element {element}")
        return self.offsets[element] + level - 1

    def all_arcs(self) -> list[tuple[int, int]]:
        return self.chain_arcs + self.closure_arcs

    def counts_of(self, members: int) -> tuple[int, ...]:
        """Per-element number of set level indicators of a bitmask over the
        level ids; ignores chain structure (used as the objective lift)."""
        out = []
        for i, u in enumerate(self.ground.bounds):
            block = ((1 << u) - 1) << self.offsets[i]
            out.append((members & block).bit_count())
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "element_count": self.ground.n,
            "bounds": list(self.ground.bounds),
            "level_count": self.level_count,
            "levels": [
                {"var": self.var(i, p), "element": i, "level": p}
                for i in range(self.ground.n)
                for p in range(1, self.ground.bounds[i] + 1)
            ],
            "chain_arcs": [list(a) for a in self.chain_arcs],
            "closure_arcs": [list(a) for a in self.closure_arcs],
            # every constraint binarizes into arcs; the clause keys stay in the
            # document, empty, for readers of its schema
            "cover_clauses": [],
            "exclusion_clauses": [],
            "fixed": {str(k): v for k, v in sorted(self.fixed.items())},
            "infeasible": list(self.infeasible),
            "dropped_vacuous": self.dropped_vacuous,
        }


def build_level_system(
    ground: GroundSet,
    constraints: Iterable[Constraint],
    *,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> LevelSystem:
    """Binarize a whole monotone constraint system over one ground set; a
    non-monotone constraint raises (monotonize the instance first).

    Vacuous constraints are dropped (counted), box-infeasible ones are
    recorded in ``infeasible`` rather than raised, and conflicting fixings are
    detected here so downstream solvers can trust the fixed map.
    """
    total = ground.total_levels()
    if total > cfg.level_budget:
        raise ValidationError(f"{total} level variables exceed the budget {cfg.level_budget}")
    offsets = []
    acc = 0
    for u in ground.bounds:
        offsets.append(acc)
        acc += u
    system = LevelSystem(
        ground=ground,
        offsets=tuple(offsets),
        chain_arcs=[],
        closure_arcs=[],
        fixed={},
        infeasible=[],
        dropped_vacuous=0,
    )
    for i, u in enumerate(ground.bounds):
        for p in range(2, u + 1):
            system.chain_arcs.append((system.var(i, p), system.var(i, p - 1)))

    seen_arcs: set[tuple[int, int]] = set()
    for k, c in enumerate(constraints):
        reason = _binarize(c, system, k, seen_arcs)
        if reason is not None:
            system.infeasible.append(f"constraint {k}: {reason}")
    return system


def _ceil_div(p: int, q: int) -> int:
    # q > 0
    return -((-p) // q)


def _binarize(c: Constraint, system: LevelSystem, k: int,
              seen_arcs: set[tuple[int, int]]) -> str | None:
    """Add the precedence arcs and fixings of constraint number ``k`` to the
    system, as level ids, and return why no box point meets it (None when one
    can).  A vacuous constraint is only counted.

    Writing a monotone constraint as A*head - B*tail >= C with A, B > 0, the
    level threshold q(p) = ceil((C + B*p) / A) gives tail_p <= head_{q(p)} for
    each tail level p; q(p) above the head bound forbids the tail level, below
    1 it imposes nothing.  The p = 0 term carries the unconditional part: even
    a zero tail forces head >= q(0).  A singleton fixes one level of its
    element: a lower bound sets one, an upper bound clears one.
    """
    bounds, offsets = system.ground.bounds, system.offsets
    fixes: list[tuple[int, int, int]] = []  # (element, level, value)
    arcs = 0
    if c.kind is ConstraintKind.SINGLETON:
        elem, a = (c.i, c.a) if c.a != 0 else (c.j, c.b)
        u = bounds[elem]
        if a > 0:
            lower = _ceil_div(c.c, a)
            if lower > u:
                return f"x{elem} >= {lower} but its bound is {u}"
            if lower >= 1:
                fixes.append((elem, lower, 1))
        else:
            upper = c.c // a
            if upper < 0:
                return f"x{elem} <= {upper} is impossible"
            if upper < u:
                fixes.append((elem, upper + 1, 0))
    elif c.kind is ConstraintKind.MONOTONE:
        if c.a > 0:
            head, tail, A, B = c.i, c.j, c.a, -c.b
        else:
            head, tail, A, B = c.j, c.i, c.b, -c.a
        u_head = bounds[head]
        q = _ceil_div(c.c, A)
        if q > u_head:
            return f"{c} forces x{head} >= {q} > bound {u_head}"
        if q >= 1:
            fixes.append((head, q, 1))
        for p in range(1, bounds[tail] + 1):
            q = _ceil_div(c.c + B * p, A)
            if q > u_head:
                fixes.append((tail, p, 0))
            elif q >= 1:
                arcs += 1
                arc = (offsets[tail] + p - 1, offsets[head] + q - 1)
                if arc not in seen_arcs:
                    seen_arcs.add(arc)
                    system.closure_arcs.append(arc)
            # q < 1: satisfied at this level regardless
    else:
        raise ValidationError(f"constraint {c} is not monotone")
    if not arcs and not fixes:
        system.dropped_vacuous += 1
    for elem, p, value in fixes:
        if system.fixed.setdefault(offsets[elem] + p - 1, value) != value:
            system.infeasible.append(f"constraint {k}: level {p} of x{elem} is forced both ways")
    return None


def decode_levels(system: LevelSystem, members: Iterable[int] | int) -> tuple[int, ...]:
    """Integer point from a set of level-variable ids; the assignment must be
    a prefix of ones per element (anything else means the producing solver is
    broken, not the instance)."""
    mask = members if isinstance(members, int) else 0
    if not isinstance(members, int):
        for v in members:
            mask |= 1 << int(v)
    counts = system.counts_of(mask)
    for i, u in enumerate(system.ground.bounds):
        for p in range(1, counts[i] + 1):
            if not (mask >> system.var(i, p)) & 1:
                raise ChainViolation(
                    f"element {i}: {counts[i]} levels set but level {p} missing"
                )
    return counts


# ---------------------------------------------------------------------------
# monotonizing duplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monotonized:
    """Duplicated, purely monotone system over 2n variables.

    Variable k < n is the plus copy of element k and carries its value
    directly.  Variable n + k is the minus copy *in reversed orientation*:
    the stored value t corresponds to a minus-copy count of u_k - t, so that
    every duplicated constraint is monotone in the plain sign convention and
    level indicators keep their natural threshold meaning.
    """

    ground: GroundSet
    constraints: tuple[Constraint, ...]
    base: Instance

    @property
    def n(self) -> int:
        return self.base.ground.n

    def split(self, x2n: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(plus-copy counts, minus-copy counts) of a duplicated point."""
        n = self.n
        u = self.base.ground.bounds
        plus = tuple(int(v) for v in x2n[:n])
        minus = tuple(int(ub - v) for ub, v in zip(u, x2n[n:]))
        return plus, minus


def monotonize(inst: Instance) -> Monotonized:
    """Duplicate each element into a plus and a (reversed) minus copy and
    split every inequality into two monotone ones.

    A same-sign constraint a*x_i + b*x_j >= c splits across the copies, one
    inequality pairing the plus copy of i with the minus copy of j and one the
    reverse; a monotone constraint duplicates onto the plus pair and the minus
    pair.  With the minus copies stored in reversed orientation (t stands for
    a count of u - t), every produced inequality is again of the plain
    two-variable form and classifies monotone, and any original-feasible x
    embeds as the agreeing duplicated point.
    """
    n = inst.ground.n
    u = inst.ground.bounds
    ground2 = GroundSet(tuple(u) + tuple(u))
    out: list[Constraint] = []
    for c in inst.constraints:
        if c.kind is ConstraintKind.SINGLETON:
            k, coef = (c.i, c.a) if c.a != 0 else (c.j, c.b)
            out.append(Constraint.single(k, coef, c.c))
            out.append(Constraint.single(n + k, -coef, c.c - coef * u[k]))
        elif c.kind is ConstraintKind.MONOTONE:
            out.append(c)
            out.append(
                Constraint.pair(n + c.i, -c.a, n + c.j, -c.b, c.c - c.a * u[c.i] - c.b * u[c.j])
            )
        else:
            out.append(Constraint.pair(c.i, c.a, n + c.j, -c.b, c.c - c.b * u[c.j]))
            out.append(Constraint.pair(n + c.i, -c.a, c.j, c.b, c.c - c.a * u[c.i]))
    return Monotonized(ground2, tuple(out), inst)


def monotonized_system(
    inst: Instance, *, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[Monotonized, LevelSystem]:
    """The duplication of an instance and its level system, the one encoding
    the factor-2 route reads.  Minus-copy level (n + i, p) is the negation of
    plus-copy level (i, u_i + 1 - p), so the system has 2 * sum(u) levels."""
    mono = monotonize(inst)
    return mono, build_level_system(mono.ground, mono.constraints, cfg=cfg)
