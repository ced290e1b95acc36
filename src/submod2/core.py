"""Ground sets, multiset objective oracles, built-in function families, and
exhaustive structural verifiers.

Functions here are defined on the integer box ``0 <= x <= u`` of a
:class:`GroundSet`.  Submodularity is the lattice inequality

    f(x) + f(y) >= f(min(x, y)) + f(max(x, y))

with componentwise min/max, which coincides with the usual set-function
notion when all bounds are 1.  Every built-in family additionally has
non-increasing per-coordinate marginals (diminishing returns across levels),
which is what lets the reductions evaluate a lifted set function on arbitrary
subsets of level variables, not just on chain-respecting ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import EnumerationCapExceeded, ValidationError


@dataclass(frozen=True)
class GroundSet:
    """Element universe with per-element integer multiplicity bounds."""

    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) < 1:
            raise ValidationError("ground set needs at least one element")
        for u in self.bounds:
            if not isinstance(u, int) or isinstance(u, bool) or u < 1:
                raise ValidationError(f"multiplicity bounds must be integers >= 1, got {u!r}")

    @staticmethod
    def binary(n: int) -> "GroundSet":
        return GroundSet((1,) * n)

    @staticmethod
    def boxed(bounds: Sequence[int]) -> "GroundSet":
        return GroundSet(tuple(_integer(u, "multiplicity bound") for u in bounds))

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def is_binary(self) -> bool:
        return all(u == 1 for u in self.bounds)

    def box_size(self) -> int:
        size = 1
        for u in self.bounds:
            size *= u + 1
        return size

    def total_levels(self) -> int:
        return sum(self.bounds)


def _integer(v, what: str) -> int:
    """An integral number as an int (2.0 reads as 2); anything else, a bool
    included, is refused rather than truncated."""
    whole = isinstance(v, float) and v.is_integer()
    if whole or isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValidationError(f"{what} must be an integer, got {v!r}")


def check_vector(ground: GroundSet, x: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a point of the box. Fractional queries are a
    contract violation: the oracle domain is the integer box only."""
    if len(x) != ground.n:
        raise ValidationError(f"vector length {len(x)} != ground size {ground.n}")
    out = []
    for v, u in zip(x, ground.bounds):
        iv = int(v)
        if iv != v:
            raise ValidationError(f"fractional component {v!r}; oracle domain is the integer box")
        if not 0 <= iv <= u:
            raise ValidationError(f"component {iv} outside [0, {u}]")
        out.append(iv)
    return tuple(out)


class SubmodularOracle:
    """Evaluation oracle for a multiset function on an integer box.

    Oracles are immutable after construction and memoize evaluations, so they
    are safe to evaluate from concurrent contexts.  ``claims_*`` flags are
    declarations by the constructor; :func:`verify_submodular` and
    :func:`verify_monotone` check them exhaustively on small boxes.
    """

    def __init__(
        self,
        ground: GroundSet,
        fn: Callable[[tuple[int, ...]], float],
        *,
        claims_submodular: bool = False,
        claims_monotone: bool = False,
        integer_valued: bool = False,
        batch_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        label: str = "",
    ):
        self.ground = ground
        self.claims_submodular = claims_submodular
        self.claims_monotone = claims_monotone
        self.integer_valued = integer_valued
        self.label = label
        self.family_spec: "FamilySpec | None" = None
        self._fn = fn
        self._batch_fn = batch_fn
        self._cache: dict[tuple[int, ...], float] = {}

    def __call__(self, x: Sequence[int]) -> float:
        key = check_vector(self.ground, x)
        hit = self._cache.get(key)
        if hit is None:
            hit = float(self._fn(key))
            self._cache[key] = hit
        return hit

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate a matrix of box points (one per row). Families override the
        row loop with vectorized arithmetic."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.ground.n:
            raise ValidationError(f"expected matrix of shape (*, {self.ground.n})")
        if self._batch_fn is not None:
            return np.asarray(self._batch_fn(X), dtype=float)
        return np.array([self._fn(tuple(int(v) for v in row)) for row in X], dtype=float)

    def __repr__(self):
        tag = self.label or "custom"
        return f"SubmodularOracle({tag}, n={self.ground.n})"


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Modular:
    """f(x) = sum_i w_i * x_i."""

    w: tuple[float, ...]


@dataclass(frozen=True)
class ConcaveCardinality:
    """f(x) = table[x_1 + ... + x_n]; the table must have non-increasing
    increments and cover 0 .. sum(bounds)."""

    table: tuple[float, ...]


@dataclass(frozen=True)
class GraphCut:
    """Weighted cut of a graph on the elements, binary grounds only:
    f(x) = sum over edges (i, j) of w_ij * [x_i != x_j]."""

    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Coverage:
    """Weighted coverage, binary grounds only: element i covers the items in
    covers[i]; f(x) = total weight of items covered by {i : x_i = 1}."""

    covers: tuple[tuple[int, ...], ...]
    item_weights: tuple[float, ...]


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of member families."""

    parts: tuple["FamilySpec", ...]


@dataclass(frozen=True)
class Complement:
    """Evaluates the inner family on the reflected point u - x."""

    inner: "FamilySpec"


@dataclass(frozen=True)
class Embed:
    """Evaluates the inner family on the elements at ``positions`` (in that
    order); the other elements contribute nothing."""

    inner: "FamilySpec"
    positions: tuple[int, ...]


FamilySpec = Modular | ConcaveCardinality | GraphCut | Coverage | Sum | Complement | Embed


def _is_integral(values) -> bool:
    return all(float(v) == int(v) for v in values)


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite")
    return arr


def make_family(spec: FamilySpec, ground: GroundSet) -> SubmodularOracle:
    """Instantiate a built-in family on a ground set, with validated structure
    (finite weights and tables, in-range distinct positions) and correctly
    derived flags.  The spec is kept on the oracle (as ``family_spec``): it
    picks the minimum-cut engine and serializes instances back to JSON."""
    oracle = _make_family(spec, ground)
    oracle.family_spec = spec
    return oracle


def _make_family(spec: FamilySpec, ground: GroundSet) -> SubmodularOracle:
    n = ground.n
    if isinstance(spec, Modular):
        if len(spec.w) != n:
            raise ValidationError(f"modular weights: expected {n} entries, got {len(spec.w)}")
        w = _finite(spec.w, "modular weights")
        return SubmodularOracle(
            ground,
            lambda x: float(np.dot(w, x)),
            claims_submodular=True,
            claims_monotone=bool(np.all(w >= 0)),
            integer_valued=_is_integral(spec.w),
            batch_fn=lambda X: X @ w,
            label="modular",
        )

    if isinstance(spec, ConcaveCardinality):
        need = ground.total_levels() + 1
        if len(spec.table) != need:
            raise ValidationError(
                f"concave table must have sum(bounds)+1 = {need} entries, got {len(spec.table)}"
            )
        g = _finite(spec.table, "concave table")
        inc = np.diff(g)
        if np.any(inc[1:] > inc[:-1] + 1e-12):
            raise ValidationError("concave table must have non-increasing increments")
        return SubmodularOracle(
            ground,
            lambda x: float(g[sum(x)]),
            claims_submodular=True,
            claims_monotone=bool(np.all(inc >= -1e-12)),
            integer_valued=_is_integral(spec.table),
            batch_fn=lambda X: g[X.sum(axis=1)],
            label="concave_cardinality",
        )

    if isinstance(spec, GraphCut):
        if not ground.is_binary:
            raise ValidationError("graph-cut family is defined on binary grounds only")
        weights = spec.weights if spec.weights is not None else (1.0,) * len(spec.edges)
        if len(weights) != len(spec.edges):
            raise ValidationError("graph-cut: one weight per edge required")
        for (i, j) in spec.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValidationError(f"graph-cut edge ({i}, {j}) invalid for n={n}")
        if any(w < 0 for w in weights):
            raise ValidationError("graph-cut weights must be nonnegative for submodularity")
        ei = np.array([e[0] for e in spec.edges], dtype=int)
        ej = np.array([e[1] for e in spec.edges], dtype=int)
        ew = _finite(weights, "graph-cut weights")

        def cut(x):
            return float(sum(w for (i, j), w in zip(spec.edges, weights) if x[i] != x[j]))

        return SubmodularOracle(
            ground,
            cut,
            claims_submodular=True,
            claims_monotone=len(spec.edges) == 0,
            integer_valued=_is_integral(weights),
            batch_fn=lambda X: ((X[:, ei] != X[:, ej]) * ew).sum(axis=1) if len(ew) else np.zeros(len(X)),
            label="graph_cut",
        )

    if isinstance(spec, Coverage):
        if not ground.is_binary:
            raise ValidationError("coverage family is defined on binary grounds only")
        if len(spec.covers) != n:
            raise ValidationError(f"coverage: expected {n} cover sets, got {len(spec.covers)}")
        items = len(spec.item_weights)
        for cov in spec.covers:
            for it in cov:
                if not 0 <= it < items:
                    raise ValidationError(f"coverage item {it} out of range")
        if any(w < 0 for w in spec.item_weights):
            raise ValidationError("coverage item weights must be nonnegative")
        members = [np.array([i for i in range(n) if it in spec.covers[i]], dtype=int) for it in range(items)]
        iw = _finite(spec.item_weights, "coverage item weights")

        def cover_value(x):
            total = 0.0
            for it in range(items):
                if any(x[i] for i in members[it]):
                    total += iw[it]
            return total

        def cover_batch(X):
            out = np.zeros(len(X))
            for it in range(items):
                if len(members[it]):
                    out += iw[it] * X[:, members[it]].any(axis=1)
            return out

        return SubmodularOracle(
            ground,
            cover_value,
            claims_submodular=True,
            claims_monotone=True,
            integer_valued=_is_integral(spec.item_weights),
            batch_fn=cover_batch,
            label="coverage",
        )

    if isinstance(spec, Sum):
        if not spec.parts:
            raise ValidationError("sum family needs at least one part")
        oracles = [_make_family(p, ground) for p in spec.parts]
        return SubmodularOracle(
            ground,
            lambda x: sum(o(x) for o in oracles),
            claims_submodular=all(o.claims_submodular for o in oracles),
            claims_monotone=all(o.claims_monotone for o in oracles),
            integer_valued=all(o.integer_valued for o in oracles),
            batch_fn=lambda X: sum(o.eval_many(X) for o in oracles),
            label="sum",
        )

    if isinstance(spec, Complement):
        return reflect_complement(_make_family(spec.inner, ground))

    if isinstance(spec, Embed):
        # embed_oracle refuses a position outside the ground (bound 1 here)
        sub = GroundSet(tuple(ground.bounds[p] if 0 <= p < n else 1 for p in spec.positions))
        return embed_oracle(_make_family(spec.inner, sub), ground, spec.positions)

    raise ValidationError(f"unknown family spec {spec!r}")


def reflect_complement(oracle: SubmodularOracle) -> SubmodularOracle:
    """Oracle evaluating x -> f(u - x).  Preserves submodularity, flips the
    direction of monotonicity (so the monotone claim is dropped)."""
    u = np.asarray(oracle.ground.bounds, dtype=int)
    return SubmodularOracle(
        oracle.ground,
        lambda x: oracle(tuple(int(b - v) for b, v in zip(u, x))),
        claims_submodular=oracle.claims_submodular,
        claims_monotone=False,
        integer_valued=oracle.integer_valued,
        batch_fn=lambda X: oracle.eval_many(u[None, :] - X),
        label=f"complement({oracle.label or 'custom'})",
    )


def embed_oracle(inner: SubmodularOracle, ground: GroundSet, positions: Sequence[int]) -> SubmodularOracle:
    """Extend an oracle to a larger ground set; elements outside ``positions``
    contribute zero marginally.  The extension preserves all structural flags
    and keeps an inner family spec as an `Embed` spec (so the minimum cut
    still minimizes it); an opaque inner oracle stays opaque."""
    pos = tuple(int(p) for p in positions)
    if len(pos) != inner.ground.n:
        raise ValidationError("positions must match the inner ground size")
    if len(set(pos)) != len(pos):
        raise ValidationError("positions must be distinct")
    for p, ub in zip(pos, inner.ground.bounds):
        if not 0 <= p < ground.n:
            raise ValidationError(f"position {p} out of range for ground of size {ground.n}")
        if ground.bounds[p] != ub:
            raise ValidationError(f"bound mismatch at position {p}: {ground.bounds[p]} != {ub}")
    idx = np.array(pos, dtype=int)
    oracle = SubmodularOracle(
        ground,
        lambda x: inner(tuple(x[p] for p in pos)),
        claims_submodular=inner.claims_submodular,
        claims_monotone=inner.claims_monotone,
        integer_valued=inner.integer_valued,
        batch_fn=lambda X: inner.eval_many(X[:, idx]),
        label=f"embedded({inner.label or 'custom'})",
    )
    if inner.family_spec is not None:
        oracle.family_spec = Embed(inner.family_spec, pos)
    return oracle


# ---------------------------------------------------------------------------
# exhaustive verifiers
# ---------------------------------------------------------------------------


def enumerate_box(ground: GroundSet, cap: int | None = None) -> np.ndarray:
    """All box points as a (box_size, n) integer matrix, in C (row-major
    mixed-radix) order so that row rank equals the dot product with strides."""
    size = ground.box_size()
    if cap is not None and size > cap:
        raise EnumerationCapExceeded(f"box has {size} points, cap is {cap}")
    grids = np.meshgrid(*[np.arange(u + 1) for u in ground.bounds], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _box_strides(ground: GroundSet) -> np.ndarray:
    strides = np.ones(ground.n, dtype=np.int64)
    for i in range(ground.n - 2, -1, -1):
        strides[i] = strides[i + 1] * (ground.bounds[i + 1] + 1)
    return strides


def verify_submodular(oracle: SubmodularOracle, *, cfg: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Exhaustively check the lattice submodular inequality over the box.

    On a product of chains it suffices to check every unit square,
    f(x + e_i) + f(x + e_j) >= f(x) + f(x + e_i + e_j) for i != j (Topkis
    1978): summed along monotone paths, unit squares give the inequality for
    every pair of box points.  Exact up to 1e-9 float slack per square;
    linear in the box size.
    """
    X = enumerate_box(oracle.ground, cap=cfg.enumeration_cap)
    vals = oracle.eval_many(X)
    strides = _box_strides(oracle.ground)
    ranks = X @ strides
    u = oracle.ground.bounds
    for i in range(oracle.ground.n):
        for j in range(i + 1, oracle.ground.n):
            r = ranks[(X[:, i] < u[i]) & (X[:, j] < u[j])]
            ri, rj = r + strides[i], r + strides[j]
            if np.any(vals[ri] + vals[rj] < vals[r] + vals[ri + strides[j]] - 1e-9):
                return False
    return True


def verify_monotone(oracle: SubmodularOracle, *, cfg: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Exhaustively check that f never decreases along a unit componentwise
    increase anywhere in the box."""
    X = enumerate_box(oracle.ground, cap=cfg.enumeration_cap)
    vals = oracle.eval_many(X)
    strides = _box_strides(oracle.ground)
    ranks = X @ strides
    for i, u in enumerate(oracle.ground.bounds):
        below = X[:, i] < u
        if np.any(vals[ranks[below] + strides[i]] < vals[below] - 1e-9):
            return False
    return True
