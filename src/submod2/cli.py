"""Command-line front end: JSON instances in, JSON results out.

Instance schema (all coefficients may be integers or decimal/rational
strings such as "0.5" or "2/3" for exact arithmetic):

    {"n": 3,
     "bounds": [1, 1, 1],                       // optional, default all ones
     "objective": {"kind": "modular", "w": [1, 1, 1]},
     "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1}, ...],
     "problem": {...},                           // alternative to constraints
     "roundup": true,                            // optional declaration
     "name": "triangle"}

Result schema:

    {"status": "optimal" | "approx" | "infeasible" | "refused" | "error",
     "x": [..], "value": .., "lower_bound": .., "ratio_bound": ..,
     "mode": "ExactMonotone" | "Approx2" | "BruteForce",
     "diagnostics": {..}}

Exit codes: 0 solved/feasible, 2 infeasible, 3 refused (no guarantee
available), 1 error.  Result JSON goes to stdout only; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import Any, IO

from .config import DEFAULT_CONFIG, SolverConfig
from .core import (
    Complement,
    ConcaveCardinality,
    Coverage,
    GraphCut,
    GroundSet,
    Modular,
    Sum,
    _integer,
    make_family,
    verify_monotone,
    verify_submodular,
)
from .errors import GuaranteeUnavailable, SolverError, ValidationError
from .problems import (
    CnfSpec,
    GraphSpec,
    build_biclique_node_delete,
    build_clique_edge_delete,
    build_min2sat,
    build_minsat,
    build_vertex_cover,
)
from .reductions import (
    Constraint,
    Instance,
    LevelSystem,
    build_level_system,
    monotonized_system,
)
from .solver import (
    CERTIFICATE_TOL,
    MODE_APPROX,
    MODE_BRUTE,
    MODE_EXACT,
    SolveResult,
    brute_force_solve,
    solve_approx,
    solve_auto,
    solve_exact_monotone,
)


class CliError(SolverError):
    pass


def _count(v: Any, what: str) -> int:
    """An element count, refused before anything is built from it when it
    exceeds the level budget (every element takes at least one level)."""
    n = _integer(v, what)
    if n > DEFAULT_CONFIG.level_budget:
        raise CliError(f"{what} = {n} exceeds the level budget of {DEFAULT_CONFIG.level_budget}")
    return n


def _budget_constraints(count: int, kind: str) -> None:
    """The level budget also caps the constraints a builder makes: refuse a
    larger count before any constraint is built."""
    if count > DEFAULT_CONFIG.level_budget:
        raise CliError(f"problem: {kind} would build {count} constraints, more than the level "
                       f"budget of {DEFAULT_CONFIG.level_budget}")


def _pairs(rows: Any, what: str) -> tuple[tuple[int, int], ...]:
    return tuple((_integer(i, what), _integer(j, what)) for i, j in rows)


def _clauses(rows: Any) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(_integer(lit, "problem: clause literal") for lit in cl) for cl in rows)


def _family_from_json(obj: Any, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CliError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "modular":
            return Modular(tuple(float(v) for v in obj["w"]))
        if kind == "concave_cardinality":
            return ConcaveCardinality(tuple(float(v) for v in obj["g"]))
        if kind == "graph_cut":
            edges = _pairs(obj["edges"], "edge endpoint")
            weights = tuple(float(w) for w in obj["weights"]) if "weights" in obj else None
            return GraphCut(edges, weights)
        if kind == "coverage":
            covers = tuple(tuple(_integer(v, "covered item") for v in cov)
                           for cov in obj["covers"])
            return Coverage(covers, tuple(float(w) for w in obj["weights"]))
        if kind == "sum":
            return Sum(tuple(_family_from_json(p, f"{where}.terms[{k}]")
                             for k, p in enumerate(obj["terms"])))
        if kind == "complement":
            return Complement(_family_from_json(obj["inner"], f"{where}.inner"))
    except KeyError as exc:
        raise CliError(f"{where}: {kind} objective needs field {exc}") from exc
    except (TypeError, ValueError, ValidationError) as exc:
        raise CliError(f"{where}: malformed {kind} objective: {exc}") from exc
    raise CliError(f"{where}: unknown family kind {kind!r}")


def _constraint_from_json(obj: Any, where: str) -> Constraint:
    if not isinstance(obj, dict) or "i" not in obj or "a" not in obj or "c" not in obj:
        raise CliError(f"{where}: constraint needs at least fields i, a, c")
    try:
        if obj.get("j") is None:
            return Constraint.single(obj["i"], obj["a"], obj["c"])
        return Constraint.pair(obj["i"], obj["a"], obj["j"], obj.get("b", 0), obj["c"])
    except ValidationError as exc:
        raise CliError(f"{where}: {exc}") from exc


def _problem_from_json(obj: Any, objective_spec: Any, doc: dict) -> Instance:
    kind = obj.get("kind")
    if kind == "vertex_cover":
        edges = _pairs(obj["edges"], "problem: edge endpoint")
        n = obj.get("n", 1 + max((max(e) for e in edges), default=-1))
        g = GraphSpec(_count(n, "problem: n"), edges)
        f = make_family(_family_from_json(objective_spec, "objective"), GroundSet.binary(g.node_count))
        return build_vertex_cover(g, f)
    if kind == "min_2sat":
        cnf = CnfSpec(_count(obj["n"], "problem: n"), _clauses(obj["clauses"]))
        f = make_family(_family_from_json(objective_spec, "objective"), GroundSet.binary(cnf.var_count))
        return build_min2sat(cnf, f)
    if kind == "min_sat":
        cnf = CnfSpec(_count(obj["n"], "problem: n"), _clauses(obj["clauses"]))
        f = make_family(_family_from_json(objective_spec, "objective"),
                        GroundSet.binary(len(cnf.clauses)))
        return build_minsat(cnf, f)
    if kind == "clique_edge_delete":
        edges = _pairs(obj["edges"], "problem: edge endpoint")
        g = GraphSpec(_count(obj["n"], "problem: n"), edges)
        n = g.node_count
        _budget_constraints(n * (n - 1) // 2 - len(edges), kind)  # one cover per non-edge
        f = make_family(_family_from_json(objective_spec, "objective"),
                        GroundSet.binary(len(edges)))
        return build_clique_edge_delete(g, f)
    if kind == "biclique_node_delete":
        edges = _pairs(obj["edges"], "problem: edge endpoint")
        parts = tuple(_integer(p, "problem: parts") for p in obj["parts"][:2])
        g = GraphSpec(_count(sum(parts), "problem: parts total"), edges, parts)
        n1, n2 = parts
        cross = sum(1 for i, j in edges if (i < n1) != (j < n1))
        _budget_constraints(n1 * n2 - cross, kind)  # one cover per missing cross pair
        f = make_family(_family_from_json(objective_spec, "objective"),
                        GroundSet.binary(g.node_count))
        return build_biclique_node_delete(g, f)
    raise CliError(f"problem: unknown kind {obj.get('kind')!r}")


def parse_instance(source: str | IO[str]) -> Instance:
    """Read and validate an instance document from a path, '-' (stdin), or an
    open stream."""
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("instance document must be a JSON object")
    if "objective" not in doc:
        raise CliError("missing 'objective'")
    has_constraints = "constraints" in doc
    has_problem = "problem" in doc
    if has_constraints == has_problem:
        raise CliError("exactly one of 'constraints' or 'problem' must be present")

    if has_problem:
        try:
            inst = _problem_from_json(doc["problem"], doc["objective"], doc)
        except KeyError as exc:
            raise CliError(f"problem: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise CliError(f"problem: malformed payload: {exc}") from exc
        if "roundup" in doc and bool(doc["roundup"]) != inst.roundup_declared:
            print(
                f"note: overriding builder round-up declaration with roundup={doc['roundup']}",
                file=sys.stderr,
            )
            inst = replace(inst, roundup_declared=bool(doc["roundup"]))
        if "name" in doc:
            inst = replace(inst, name=str(doc["name"]))
        return inst

    if "n" not in doc:
        raise CliError("missing 'n'")
    try:
        n = _count(doc["n"], "'n'")
        bounds = doc.get("bounds", [1] * n)
        if len(bounds) != n:
            raise CliError(f"'bounds' has {len(bounds)} entries, expected {n}")
        ground = GroundSet.boxed(bounds)
        objective = make_family(_family_from_json(doc["objective"], "objective"), ground)
        constraints = tuple(
            _constraint_from_json(c, f"constraints[{k}]") for k, c in enumerate(doc["constraints"])
        )
        return Instance(
            ground,
            constraints,
            objective,
            roundup_declared=bool(doc.get("roundup", False)),
            name=str(doc.get("name", "")),
        )
    except KeyError as exc:
        raise CliError(f"missing field {exc}") from exc
    except (TypeError, ValueError, ValidationError) as exc:
        raise CliError(str(exc)) from exc


def family_to_json(spec) -> dict:
    if isinstance(spec, Modular):
        return {"kind": "modular", "w": list(spec.w)}
    if isinstance(spec, ConcaveCardinality):
        return {"kind": "concave_cardinality", "g": list(spec.table)}
    if isinstance(spec, GraphCut):
        out = {"kind": "graph_cut", "edges": [list(e) for e in spec.edges]}
        if spec.weights is not None:
            out["weights"] = list(spec.weights)
        return out
    if isinstance(spec, Coverage):
        return {"kind": "coverage", "covers": [list(c) for c in spec.covers],
                "weights": list(spec.item_weights)}
    if isinstance(spec, Sum):
        return {"kind": "sum", "terms": [family_to_json(p) for p in spec.parts]}
    if isinstance(spec, Complement):
        return {"kind": "complement", "inner": family_to_json(spec.inner)}
    raise CliError(f"cannot serialize family {spec!r}")


def instance_to_json(inst: Instance) -> dict:
    """Instance document that parses back to an equivalent instance.  Only
    available when the objective was built from a family spec."""
    if inst.objective.family_spec is None:
        raise CliError("objective carries no family spec; cannot serialize")
    doc = {
        "n": inst.ground.n,
        "bounds": list(inst.ground.bounds),
        "objective": family_to_json(inst.objective.family_spec),
        "constraints": [
            {"i": c.i, "a": c.a, **({"j": c.j, "b": c.b} if c.j is not None else {}), "c": c.c}
            for c in inst.constraints
        ],
        "roundup": inst.roundup_declared,
    }
    if inst.name:
        doc["name"] = inst.name
    return doc


def _num(v: float):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def result_to_json(res: SolveResult, status: str) -> dict:
    return {
        "status": status,
        "x": list(res.x) if res.x is not None else None,
        "value": _num(res.value),
        "lower_bound": _num(res.lower_bound),
        "ratio_bound": _num(res.ratio_bound),
        "mode": res.mode,
        "diagnostics": {**res.diagnostics, "warnings": list(res.warnings)},
    }


def _emit(doc: dict):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _config_from_args(args) -> SolverConfig:
    if args.cap is None:
        return DEFAULT_CONFIG
    return replace(DEFAULT_CONFIG, enumeration_cap=args.cap)


def _reduction_document(system: LevelSystem, monotonized: bool) -> dict:
    """A level system as a JSON document; ``monotonized`` says whether it is
    the duplicated system of the factor-2 route."""
    out = system.to_json_dict()
    out["monotonized"] = monotonized
    return out


def _cmd_solve(args) -> int:
    inst = parse_instance(args.instance)
    cfg = _config_from_args(args)
    if args.emit_closure and args.mode == "brute":
        raise CliError("--emit-closure: the brute-force mode runs no reduction")
    try:
        if args.mode == "exact":
            res = solve_exact_monotone(inst, cfg=cfg)
        elif args.mode == "approx":
            res = solve_approx(inst, cfg=cfg)
        elif args.mode == "brute":
            res = brute_force_solve(inst, cfg=cfg)
        else:
            res = solve_auto(inst, cfg=cfg)
    except GuaranteeUnavailable as exc:
        _emit({"status": "refused", "reason": str(exc)})
        return 3
    if args.emit_closure:
        doc = _reduction_document(res.system, res.mode == MODE_APPROX)
        with open(args.emit_closure, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"reduction written to {args.emit_closure}", file=sys.stderr)
    if not res.feasible:
        _emit(result_to_json(res, "infeasible"))
        return 2
    dropped = res.diagnostics.get("dropped_vacuous", 0)
    if dropped:
        print(f"note: dropped {dropped} vacuous constraint(s)", file=sys.stderr)
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if res.mode in (MODE_EXACT, MODE_BRUTE) and res.ratio_bound == 1.0:
        _emit(result_to_json(res, "optimal"))
        return 0
    # an emitted approx status promises ratio_bound <= 2; a voided certificate
    # (negative objective samples: every document objective takes the minimum
    # cut, so no exact solve here leaves a float gap open) becomes a refusal
    if not res.ratio_bound <= 2 + CERTIFICATE_TOL:
        _emit({"status": "refused",
               "reason": "certificate void: " + "; ".join(res.warnings),
               "x": list(res.x), "value": _num(res.value),
               "lower_bound": _num(res.lower_bound)})
        return 3
    _emit(result_to_json(res, "approx"))
    return 0


def _cmd_verify(args) -> int:
    inst = parse_instance(args.instance)
    cfg = _config_from_args(args)
    f = inst.objective
    doc = {
        "status": "ok",
        "submodular": verify_submodular(f, cfg=cfg),
        "monotone": verify_monotone(f, cfg=cfg),
        "claims": {
            "submodular": f.claims_submodular,
            "monotone": f.claims_monotone,
            "integer_valued": f.integer_valued,
        },
    }
    _emit(doc)
    return 0


def _cmd_reduce(args) -> int:
    inst = parse_instance(args.instance)
    cfg = _config_from_args(args)
    if inst.is_monotone:
        system = build_level_system(inst.ground, inst.constraints, cfg=cfg)
    else:
        _, system = monotonized_system(inst, cfg=cfg)
    _emit(_reduction_document(system, not inst.is_monotone))
    return 0


def _cmd_brute(args) -> int:
    inst = parse_instance(args.instance)
    res = brute_force_solve(inst, cfg=_config_from_args(args))
    if not res.feasible:
        _emit(result_to_json(res, "infeasible"))
        return 2
    _emit(result_to_json(res, "optimal"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submod2",
        description="Submodular minimization under two-variable inequality constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("solve", _cmd_solve, "solve an instance (exact when monotone, else certified approx)"),
        ("verify", _cmd_verify, "exhaustively check the objective's structure"),
        ("reduce", _cmd_reduce, "emit the binarized closure system for inspection"),
        ("brute", _cmd_brute, "solve by exhaustive enumeration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON path, or - for stdin")
        p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
        if name == "solve":
            p.add_argument("--mode", choices=("auto", "exact", "approx", "brute"), default="auto")
            p.add_argument("--emit-closure", default=None, metavar="PATH",
                           help="write the level system the solve used to PATH")
        p.set_defaults(fn=fn)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, SolverError) as exc:
        _emit({"status": "error", "message": str(exc)})
        return 1
    except FileNotFoundError as exc:
        _emit({"status": "error", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
