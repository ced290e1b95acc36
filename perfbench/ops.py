"""Program inputs and operations of each workload.

``prepare(spec)`` builds a fresh input through the program's public
constructors (so every memo cache starts cold); ``run(prepared)`` is the
timed operation, a single call to a public entry point; ``output(result)``
turns what it returned into plain data for the checks.  Output conversion
stays out of the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import submod2 as s
from submod2 import cli


def family(obj: dict):
    """Family spec of a CLI-schema objective, through the public classes."""
    kind = obj["kind"]
    if kind == "modular":
        return s.Modular(tuple(obj["w"]))
    if kind == "concave_cardinality":
        return s.ConcaveCardinality(tuple(obj["g"]))
    if kind == "coverage":
        return s.Coverage(tuple(tuple(c) for c in obj["covers"]), tuple(obj["weights"]))
    if kind == "sum":
        return s.Sum(tuple(family(t) for t in obj["terms"]))
    raise ValueError(f"objective kind {kind!r} is not used by the benchmark")


def _constraints(rows: list[dict]):
    return tuple(s.Constraint.pair(c["i"], c["a"], c["j"], c["b"], c["c"]) for c in rows)


def _solve_record(res) -> dict:
    return {"x": list(res.x) if res.x is not None else None, "value": res.value,
            "lower": res.lower_bound, "mode": res.mode, "feasible": res.feasible,
            "warnings": list(res.warnings),
            "iters": res.diagnostics.get("sfm_iterations", 0),
            "retries": res.diagnostics.get("penalty_retries", 0)}


class ApproxFamily:
    """solve_auto on vertex covers and min-2SAT formulas (factor-2 route)."""

    def prepare(self, spec: dict):
        n = spec["n"]
        f = s.make_family(family(spec["objective"]), s.GroundSet.binary(n))
        if spec["problem"] == "vertex_cover":
            inst = s.build_vertex_cover(s.GraphSpec(n, tuple(map(tuple, spec["edges"]))), f)
        else:
            inst = s.build_min2sat(s.CnfSpec(n, tuple(map(tuple, spec["clauses"]))), f)
        cfg = s.SolverConfig(wolfe_tol=spec["tol"]) if spec["tol"] else s.DEFAULT_CONFIG
        return inst, cfg

    def run(self, prepared):
        inst, cfg = prepared
        return s.solve_auto(inst, cfg=cfg)

    output = staticmethod(_solve_record)


class ExactOpaque:
    """solve_auto on all-monotone multiset systems with an opaque callable."""

    def prepare(self, spec: dict):
        ground = s.GroundSet.boxed(spec["bounds"])
        a, g, w = tuple(spec["a"]), tuple(spec["g"]), tuple(spec["w"])
        idx = range(len(a))

        def fn(x):
            return g[sum(a[i] * x[i] for i in idx)] + sum(w[i] * x[i] for i in idx)

        oracle = s.SubmodularOracle(ground, fn, claims_submodular=True, integer_valued=True,
                                    label="opaque")
        return s.Instance(ground, _constraints(spec["constraints"]), oracle)

    def run(self, inst):
        return s.solve_auto(inst)

    output = staticmethod(_solve_record)


class CliMixed:
    """``submod2.cli.main`` in-process on a JSON document read from stdin."""

    def prepare(self, spec: dict):
        doc = spec["doc"]
        if "problem" not in doc:  # raw systems go through Instance and back to JSON
            ground = s.GroundSet.boxed(doc["bounds"])
            inst = s.Instance(ground, _constraints(doc["constraints"]),
                              s.make_family(family(doc["objective"]), ground),
                              roundup_declared=False, name=doc["name"])
            doc = cli.instance_to_json(inst)
        return spec["command"], json.dumps(doc)

    def run(self, prepared):
        command, text = prepared
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "-"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    @staticmethod
    def output(result) -> dict:
        code, text = result
        doc = json.loads(text)
        record = {"exit": code, "doc": doc}
        if "value" in doc:
            record.update(value=doc["value"], lower=doc["lower_bound"], x=doc["x"],
                          iters=doc["diagnostics"].get("sfm_iterations", 0),
                          retries=doc["diagnostics"].get("penalty_retries", 0))
        return record


class ClosureMincut:
    """solve_linear_closure_mincut on open-pit precedence DAGs."""

    def prepare(self, spec: dict):
        return list(spec["weights"]), [tuple(a) for a in spec["arcs"]]

    def run(self, prepared):
        weights, arcs = prepared
        return s.solve_linear_closure_mincut(weights, arcs, "max")

    @staticmethod
    def output(result) -> dict:
        members, value = result
        return {"x": sorted(members), "value": value, "lower": value}


OPERATIONS = {
    "approx-family": ApproxFamily,
    "exact-opaque": ExactOpaque,
    "cli-mixed": CliMixed,
    "closure-mincut": ClosureMincut,
}
