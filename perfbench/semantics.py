"""What each benchmark input means, written from the problem definitions and
independent of the program: which box points are feasible and what they cost.

A :class:`Model` describes one input over the program's ground-set layout
(for the builder problems, the layout their docstrings document: min-sat
puts the clause indicators first, clique edge deletion the node indicators
first).  Feasibility and value are evaluated on matrices of box points, one
point per row.  Used by ``reference.py`` (optima) and ``checks.py`` (output
checks); neither imports the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np


def objective_values(obj: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate a CLI-schema objective on the rows of X."""
    kind = obj["kind"]
    if kind == "modular":
        return X @ np.asarray(obj["w"], dtype=float)
    if kind == "concave_cardinality":
        return np.asarray(obj["g"], dtype=float)[X.sum(axis=1)]
    if kind == "coverage":
        out = np.zeros(len(X))
        for item, weight in enumerate(obj["weights"]):
            members = [i for i, cov in enumerate(obj["covers"]) if item in cov]
            if members:
                out += weight * X[:, members].any(axis=1)
        return out
    if kind == "sum":
        return sum(objective_values(t, X) for t in obj["terms"])
    raise ValueError(f"objective kind {kind!r} is not used by the benchmark")


def _literal_values(X: np.ndarray, clause: list[int], offset: int = 0) -> np.ndarray:
    cols = [X[:, offset + abs(lit) - 1] if lit > 0 else 1 - X[:, offset + abs(lit) - 1]
            for lit in clause]
    return np.stack(cols, axis=1)


@dataclass
class Model:
    """Box, feasibility and cost of one input.  ``rows`` (sum of coef*x >=
    rhs) and ``cost`` (a modular objective) are filled where the input is a
    linear integer program, which lets a MILP solver find the optimum when
    the box is too large to enumerate."""

    bounds: list[int]
    feasible: Callable[[np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], np.ndarray]
    rows: list[tuple[dict[int, int], int]] = field(default_factory=list)
    cost: list[float] | None = None

    def box_size(self) -> int:
        size = 1
        for u in self.bounds:
            size *= u + 1
        return size


def _pair_rows(constraints: list[dict]) -> list[tuple[dict[int, int], int]]:
    rows = []
    for c in constraints:
        coef = {c["i"]: c["a"]}
        if c.get("j") is not None:
            coef[c["j"]] = coef.get(c["j"], 0) + c.get("b", 0)
        rows.append((coef, c["c"]))
    return rows


def _rows_feasible(rows, X: np.ndarray) -> np.ndarray:
    ok = np.ones(len(X), dtype=bool)
    for coef, rhs in rows:
        lhs = np.zeros(len(X), dtype=np.int64)
        for v, a in coef.items():
            lhs += a * X[:, v]
        ok &= lhs >= rhs
    return ok


def linear_model(bounds: list[int], constraints: list[dict], objective: dict) -> Model:
    rows = _pair_rows(constraints)
    cost = objective["w"] if objective["kind"] == "modular" else None
    return Model(list(bounds), lambda X: _rows_feasible(rows, X),
                 lambda X: objective_values(objective, X), rows, cost)


def opaque_model(spec: dict) -> Model:
    """exact-opaque: f(x) = g(sum a_i x_i) + sum w_i x_i."""
    a = np.asarray(spec["a"], dtype=np.int64)
    g = np.asarray(spec["g"], dtype=float)
    w = np.asarray(spec["w"], dtype=float)
    rows = _pair_rows(spec["constraints"])
    return Model(list(spec["bounds"]), lambda X: _rows_feasible(rows, X),
                 lambda X: g[X @ a] + X @ w, rows)


def problem_model(problem: dict, objective: dict) -> Model:
    """Builder problems, from their definitions."""
    kind = problem["kind"]
    if kind == "vertex_cover":
        n, edges = problem["n"], problem["edges"]
        return Model([1] * n,
                     lambda X: np.all([X[:, i] + X[:, j] >= 1 for i, j in edges], axis=0),
                     lambda X: objective_values(objective, X))
    if kind == "min_2sat":
        n, clauses = problem["n"], problem["clauses"]
        return Model([1] * n,
                     lambda X: np.all([_literal_values(X, cl).max(axis=1) >= 1 for cl in clauses],
                                      axis=0),
                     lambda X: objective_values(objective, X))
    if kind == "min_sat":
        nv, clauses = problem["n"], problem["clauses"]
        m = len(clauses)
        # clause indicator y_k (positions 0..m-1) must be 1 whenever clause k holds
        return Model([1] * (m + nv),
                     lambda X: np.all([X[:, k] >= _literal_values(X, cl, m).max(axis=1)
                                       for k, cl in enumerate(clauses)], axis=0),
                     lambda X: objective_values(objective, X[:, :m]))
    if kind == "clique_edge_delete":
        n, edges = problem["n"], problem["edges"]
        present = {tuple(sorted(e)) for e in edges}
        missing = [p for p in combinations(range(n), 2) if p not in present]

        def feasible(X):
            ok = np.ones(len(X), dtype=bool)
            for e, (i, j) in enumerate(edges):  # an edge touching a dropped node is deleted
                ok &= (X[:, n + e] >= X[:, i]) & (X[:, n + e] >= X[:, j])
            for i, j in missing:  # kept nodes are pairwise adjacent
                ok &= (X[:, i] + X[:, j]) >= 1
            return ok

        return Model([1] * (n + len(edges)), feasible,
                     lambda X: objective_values(objective, X[:, n:]))
    if kind == "biclique_node_delete":
        n1, n2 = problem["parts"]
        present = {tuple(sorted(e)) for e in problem["edges"]}
        missing = [(i, j) for i in range(n1) for j in range(n1, n1 + n2) if (i, j) not in present]
        return Model([1] * (n1 + n2),
                     lambda X: np.all([X[:, i] + X[:, j] >= 1 for i, j in missing], axis=0)
                     if missing else np.ones(len(X), dtype=bool),
                     lambda X: objective_values(objective, X))
    raise ValueError(f"problem kind {kind!r} is not used by the benchmark")


def model_of(workload: str, spec: dict) -> Model:
    if workload == "approx-family":
        problem = {"kind": spec["problem"], "n": spec["n"]}
        problem.update({k: spec[k] for k in ("edges", "clauses") if k in spec})
        return problem_model(problem, spec["objective"])
    if workload == "exact-opaque":
        return opaque_model(spec)
    if workload == "cli-mixed":
        doc = spec["doc"]
        if "problem" in doc:
            return problem_model(doc["problem"], doc["objective"])
        return linear_model(doc["bounds"], doc["constraints"], doc["objective"])
    raise ValueError(f"no box model for workload {workload!r}")


def enumerate_box(bounds: list[int]) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(u + 1) for u in bounds], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def closed(arcs: list[list[int]], members: set[int]) -> bool:
    return all(j in members for i, j in arcs if i in members)
