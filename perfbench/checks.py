"""Checks of every operation's output against the independent computations
(``semantics.py`` models, ``reference.py`` optima) and against the properties
the method guarantees.  Nothing here imports the program, and nothing
compares against a stored copy of an earlier output.

Each check returns ``None`` when the output holds, or a message saying what
does not.  Tolerances are absolute and small: every objective in the
benchmark is integer-valued.
"""

from __future__ import annotations

import numpy as np

from semantics import Model, closed, enumerate_box

TOL = 1e-6


def _point_ok(model: Model, x) -> str | None:
    if x is None or len(x) != len(model.bounds):
        return f"point {x} has the wrong length"
    if any(not 0 <= v <= u for v, u in zip(x, model.bounds)):
        return f"point {x} leaves the box {model.bounds}"
    if not model.feasible(np.asarray([x], dtype=np.int64))[0]:
        return f"point {x} is infeasible"
    return None


def solution(model: Model, opt: float, x, value, lower, exact: bool) -> str | None:
    """Feasible point, value recomputed from the spec, and the route's bound:
    ``value = OPT`` (and ``lower = value``) when exact, otherwise
    ``lower <= OPT <= value <= 2*lower``."""
    bad = _point_ok(model, x)
    if bad:
        return bad
    recomputed = float(model.value(np.asarray([x], dtype=np.int64))[0])
    if value is None or abs(recomputed - value) > TOL:
        return f"reported value {value} but the point costs {recomputed}"
    if exact:
        if abs(value - opt) > TOL or lower is None or abs(lower - value) > TOL:
            return f"exact route reported {value} (lower {lower}), optimum is {opt}"
        return None
    if lower is None or lower > opt + TOL:
        return f"lower bound {lower} exceeds the optimum {opt}"
    if value > 2 * lower + TOL:
        return f"value {value} exceeds twice the lower bound {lower}"
    return None


def library_result(model: Model, ref: dict, record: dict, expected_mode: str) -> str | None:
    if not record["feasible"] or record["mode"] != expected_mode:
        return f"expected a feasible {expected_mode} result, got mode {record['mode']}"
    return solution(model, ref["opt"], record["x"], record["value"], record["lower"],
                    expected_mode == "ExactMonotone")


def cli_solve(model: Model, ref: dict, record: dict) -> str | None:
    doc = record["doc"]
    status = doc.get("status")
    if record["exit"] != 0 or status not in ("optimal", "approx"):
        return f"solve exited {record['exit']} with status {status}"
    if status == "approx" and not doc["ratio_bound"] <= 2 + TOL:
        return f"approx status with ratio bound {doc['ratio_bound']}"
    return solution(model, ref["opt"], doc["x"], doc["value"], doc["lower_bound"],
                    status == "optimal")


def cli_reduce(model: Model, record: dict) -> str | None:
    """The emitted level system admits exactly the feasible box points: a
    point satisfies the instance iff its threshold encoding (of the agreeing
    duplicate (x, u - x) for a monotonized system) satisfies every chain and
    closure arc, cover and exclusion clause and fixing.  Checked on every box
    point."""
    system = record["doc"]
    if record["exit"] != 0 or "levels" not in system:
        return f"reduce exited {record['exit']}: {system.get('message', system.get('status'))}"
    bounds = list(model.bounds)
    encoded = bounds + bounds if system["monotonized"] else bounds
    if system["bounds"] != encoded:
        return f"emitted bounds {system['bounds']}, expected {encoded}"
    level_count = sum(encoded)
    var = {(lv["element"], lv["level"]): lv["var"] for lv in system["levels"]}
    expected_keys = {(e, p) for e, u in enumerate(encoded) for p in range(1, u + 1)}
    if set(var) != expected_keys or sorted(var.values()) != list(range(level_count)):
        return "emitted level numbering is not one variable per (element, level)"

    X = enumerate_box(bounds)
    X2 = np.hstack([X, np.asarray(bounds) - X]) if system["monotonized"] else X
    E = np.zeros((len(X), level_count), dtype=bool)
    for (e, p), v in var.items():
        E[:, v] = X2[:, e] >= p
    ok = np.full(len(X), not system["infeasible"])
    for lo, hi in system["chain_arcs"] + system["closure_arcs"]:
        ok &= ~E[:, lo] | E[:, hi]
    for p, q in system["cover_clauses"]:
        ok &= E[:, p] | E[:, q]
    for p, q in system["exclusion_clauses"]:
        ok &= ~(E[:, p] & E[:, q])
    for v, val in system["fixed"].items():
        ok &= E[:, int(v)] == bool(val)
    wrong = np.flatnonzero(ok != model.feasible(X))
    if len(wrong):
        x = X[wrong[0]].tolist()
        return f"{len(wrong)} box points disagree, e.g. {x} (system says {bool(ok[wrong[0]])})"
    return None


def closure(spec: dict, ref: dict, record: dict) -> str | None:
    members = set(record["x"])
    if not closed(spec["arcs"], members):
        return "returned set is not closed"
    weight = float(sum(spec["weights"][v] for v in members))
    if abs(weight - record["value"]) > TOL:
        return f"reported value {record['value']} but the set weighs {weight}"
    if abs(weight - ref["opt"]) > TOL:
        return f"closure weight {weight}, optimum is {ref['opt']}"
    return None


def ratio(value: float, opt: float) -> float:
    """value / OPT, counted as 1 when both are 0."""
    if abs(opt) <= TOL:
        return 1.0 if abs(value) <= TOL else float("inf")
    return value / opt
