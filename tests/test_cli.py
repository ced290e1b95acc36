import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import submod2 as s
from submod2 import cli
from submod2.cli import (
    CliError,
    instance_to_json,
    main,
    parse_instance,
)

import gen

TRIANGLE_VC = {
    "n": 3,
    "objective": {"kind": "modular", "w": [1, 1, 1]},
    "constraints": [
        {"i": 0, "a": 1, "j": 1, "b": 1, "c": 1},
        {"i": 1, "a": 1, "j": 2, "b": 1, "c": 1},
        {"i": 0, "a": 1, "j": 2, "b": 1, "c": 1},
    ],
    "roundup": True,
    "name": "triangle",
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_parse_constraint_instance():
    inst = parse_instance(io.StringIO(json.dumps(TRIANGLE_VC)))
    assert inst.ground.n == 3
    assert len(inst.constraints) == 3
    assert inst.roundup_declared
    assert inst.name == "triangle"
    assert inst.objective((1, 1, 0)) == 2


def test_parse_problem_shorthand():
    doc = {
        "problem": {"kind": "vertex_cover", "edges": [[0, 1], [1, 2], [0, 2]]},
        "objective": {"kind": "modular", "w": [1, 1, 1]},
    }
    inst = parse_instance(io.StringIO(json.dumps(doc)))
    assert len(inst.constraints) == 3
    assert inst.roundup_declared


def test_parse_rejects_schema_violations():
    with pytest.raises(CliError):
        parse_instance(io.StringIO("not json"))
    with pytest.raises(CliError):
        parse_instance(io.StringIO(json.dumps({"n": 2, "objective": {"kind": "modular", "w": [1, 1]}})))
    both = dict(TRIANGLE_VC)
    both["problem"] = {"kind": "vertex_cover", "edges": []}
    with pytest.raises(CliError):
        parse_instance(io.StringIO(json.dumps(both)))
    bad_kind = dict(TRIANGLE_VC)
    bad_kind["objective"] = {"kind": "mystery"}
    with pytest.raises(CliError):
        parse_instance(io.StringIO(json.dumps(bad_kind)))
    out_of_range = dict(TRIANGLE_VC)
    out_of_range["constraints"] = [{"i": 0, "a": 1, "j": 7, "b": 1, "c": 1}]
    with pytest.raises(CliError):
        parse_instance(io.StringIO(json.dumps(out_of_range)))


def test_parse_rejects_binary_family_on_multiset_bounds():
    doc = {
        "n": 2,
        "bounds": [2, 2],
        "objective": {"kind": "graph_cut", "edges": [[0, 1]]},
        "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1}],
    }
    with pytest.raises(CliError):
        parse_instance(io.StringIO(json.dumps(doc)))


FRACTIONAL = {
    "n": 2,
    "objective": {"kind": "modular", "w": [1, 1]},
    "constraints": [{"i": 0, "a": "0.5", "j": 1, "b": "1/3", "c": "0.5"}],
}


def test_parse_decimal_string_coefficients_are_exact():
    inst = parse_instance(io.StringIO(json.dumps(FRACTIONAL)))
    c = inst.constraints[0]
    assert (c.a, c.b, c.c) == (3, 2, 3)


def test_instance_round_trips_through_json():
    for source in (TRIANGLE_VC, FRACTIONAL):
        inst = parse_instance(io.StringIO(json.dumps(source)))
        doc = instance_to_json(inst)
        again = parse_instance(io.StringIO(json.dumps(doc)))
        assert again.ground.bounds == inst.ground.bounds
        assert [c.as_tuple() for c in again.constraints] == [c.as_tuple() for c in inst.constraints]
        assert again.roundup_declared == inst.roundup_declared
        for x in map(tuple, s.enumerate_box(inst.ground)):
            assert again.objective(x) == inst.objective(x)
            assert again.violated_by(x) == inst.violated_by(x)
    # the fractional document is written back with its cleared integers
    assert [(c["a"], c["b"], c["c"]) for c in doc["constraints"]] == [(3, 2, 3)]


def test_solve_vertex_cover_end_to_end(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_VC)
    code, doc, _ = run_main(capsys, ["solve", path])
    assert code == 0
    assert doc["status"] == "approx"
    assert doc["mode"] == "Approx2"
    assert doc["ratio_bound"] <= 2 + 1e-9
    assert doc["value"] <= 2 * doc["lower_bound"] + 1e-9
    x = doc["x"]
    for c in TRIANGLE_VC["constraints"]:
        assert x[c["i"]] + x[c["j"]] >= 1


def test_solve_monotone_instance_reports_optimal(tmp_path, capsys):
    doc = {
        "n": 2,
        "bounds": [2, 2],
        "objective": {"kind": "modular", "w": [1, -2]},
        "constraints": [{"i": 0, "a": 1, "j": 1, "b": -1, "c": 0}],
    }
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 0
    assert out["status"] == "optimal"
    assert out["mode"] == "ExactMonotone"
    assert out["x"] == [2, 2]
    assert out["value"] == -2


def test_solve_refuses_without_guarantee(tmp_path, capsys):
    doc = {
        "n": 2,
        "objective": {"kind": "graph_cut", "edges": [[0, 1]]},
        "constraints": [{"i": 0, "a": -1, "j": 1, "b": -1, "c": -1}],
    }
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 3
    assert out["status"] == "refused"


def test_solve_reports_infeasible_with_exit_2(tmp_path, capsys):
    doc = {
        "n": 1,
        "objective": {"kind": "modular", "w": [1]},
        "constraints": [{"i": 0, "a": 1, "c": 2}],
        "roundup": True,
    }
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 2
    assert out["status"] == "infeasible"
    assert out["x"] is None


def test_malformed_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{{{")
    code, out, _ = run_main(capsys, ["solve", str(path)])
    assert code == 1
    assert out["status"] == "error"


def test_brute_subcommand(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["brute", write(tmp_path, TRIANGLE_VC)])
    assert code == 0
    assert out["status"] == "optimal"
    assert out["mode"] == "BruteForce"
    assert out["value"] == 2


def test_solve_mode_brute_flag(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, TRIANGLE_VC), "--mode", "brute"])
    assert code == 0
    assert out["value"] == 2


def test_verify_subcommand_reports_structure(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["verify", write(tmp_path, TRIANGLE_VC)])
    assert code == 0
    assert out["submodular"] is True
    assert out["monotone"] is True
    assert out["claims"]["integer_valued"] is True


def test_reduce_subcommand_emits_level_system(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["reduce", write(tmp_path, TRIANGLE_VC)])
    assert code == 0
    assert out["monotonized"] is True
    assert out["element_count"] == 6  # duplicated ground
    assert out["level_count"] == 6
    assert len(out["closure_arcs"]) == 6  # two arcs per edge
    assert out["cover_clauses"] == [] and out["exclusion_clauses"] == []


def test_reduce_monotone_system_is_direct(tmp_path, capsys):
    doc = {
        "n": 2,
        "bounds": [2, 2],
        "objective": {"kind": "modular", "w": [1, -2]},
        "constraints": [{"i": 0, "a": 1, "j": 1, "b": -1, "c": 0}],
    }
    code, out, _ = run_main(capsys, ["reduce", write(tmp_path, doc)])
    assert code == 0
    assert out["monotonized"] is False
    assert out["level_count"] == 4


def test_emit_closure_writes_reduction_file(tmp_path, capsys):
    target = tmp_path / "reduction.json"
    code, out, _ = run_main(
        capsys, ["solve", write(tmp_path, TRIANGLE_VC), "--emit-closure", str(target)]
    )
    assert code == 0
    emitted = json.loads(target.read_text())
    assert emitted["monotonized"] is True
    assert emitted["level_count"] == 6


def test_emit_closure_writes_the_system_the_solve_used(tmp_path, capsys):
    # a monotone system forced onto the factor-2 route solves over its
    # duplication: 2 * (2 + 2) levels
    doc = {
        "n": 2,
        "bounds": [2, 2],
        "objective": {"kind": "modular", "w": [1, 2]},
        "constraints": [{"i": 0, "a": 1, "j": 1, "b": -1, "c": 0}],
        "roundup": True,
    }
    path = write(tmp_path, doc)
    for mode, monotonized, levels in (("approx", True, 8), ("exact", False, 4), ("auto", False, 4)):
        target = tmp_path / f"{mode}.json"
        code, out, _ = run_main(capsys, ["solve", path, "--mode", mode, "--emit-closure", str(target)])
        assert code == 0
        assert out["diagnostics"]["level_count"] == levels
        emitted = json.loads(target.read_text())
        assert emitted["monotonized"] is monotonized
        assert emitted["level_count"] == levels


def test_emit_closure_builds_the_level_system_once(tmp_path, capsys, monkeypatch):
    # the document serializes the system the solve built, not a rebuilt one
    from submod2 import cli, reductions, solver

    calls = []
    build = reductions.build_level_system

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for mod in (reductions, solver, cli):
        monkeypatch.setattr(mod, "build_level_system", counting)
    doc = {"n": 2, "bounds": [2, 2], "objective": {"kind": "modular", "w": [1, 2]},
           "constraints": [{"i": 0, "a": 1, "j": 1, "b": -1, "c": 0}], "roundup": True}
    path = write(tmp_path, doc)
    for mode, levels in (("approx", 8), ("exact", 4)):
        calls.clear()
        target = tmp_path / f"{mode}.json"
        code, out, _ = run_main(capsys, ["solve", path, "--mode", mode, "--emit-closure", str(target)])
        assert code == 0
        assert len(calls) == 1
        assert json.loads(target.read_text())["level_count"] == levels


def test_emit_closure_only_where_a_reduction_runs(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_VC)
    target = tmp_path / "reduction.json"
    code, out, _ = run_main(capsys, ["solve", path, "--mode", "brute", "--emit-closure", str(target)])
    assert code == 1 and out["status"] == "error"
    assert not target.exists()
    for command in ("verify", "reduce", "brute"):
        with pytest.raises(SystemExit):
            main([command, path, "--emit-closure", str(target)])
        capsys.readouterr()
    assert not target.exists()


def test_diagnostics_fields_present(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, TRIANGLE_VC)])
    d = out["diagnostics"]
    assert d["constraints"]["non_monotone"] == 3
    assert "sfm_iterations" in d and "level_count" in d
    assert "warnings" in d
    assert d["engine"] == "mincut" and d["cut_nodes"] > 0 and d["cut_arcs"] > 0
    assert d["sfm_iterations"] == d["sfm_evaluations"] == d["penalty_retries"] == 0
    assert isinstance(d["cut_phases"], int) and d["cut_phases"] >= 0
    # no document reaches Wolfe; an opaque objective, which only a library
    # caller can pass, does, and its result reports no cut
    wolfe_doc = {"objective": {"kind": "modular", "w": [1, 2, 3]},
                 "problem": {"kind": "min_sat", "n": 3, "clauses": [[1, 3], [1], [2]]}}
    inst = parse_instance(write(tmp_path, wolfe_doc, "wolfe.json"))
    res = s.solve_auto(replace(inst, objective=gen.opaque(inst.objective)))
    d = cli.result_to_json(res, "optimal")["diagnostics"]
    assert d["engine"] == "wolfe" and d["cut_nodes"] == d["cut_arcs"] == d["cut_phases"] == 0


def test_cap_flag_limits_enumeration(tmp_path, capsys):
    doc = {
        "n": 6,
        "objective": {"kind": "modular", "w": [1] * 6},
        "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1}],
    }
    code, out, _ = run_main(capsys, ["brute", write(tmp_path, doc), "--cap", "8"])
    assert code == 1
    assert out["status"] == "error"
    assert "cap" in out["message"]


@pytest.mark.parametrize("command", ["solve", "verify", "reduce", "brute"])
def test_tol_flag_is_an_argparse_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, write(tmp_path, TRIANGLE_VC), "--tol", "0.5"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


BUILDER_DOCS = [
    ({"kind": "vertex_cover", "edges": [[0, 1], [1, 2], [2, 3]]},
     {"kind": "coverage", "covers": [[0], [0, 1], [1], [2]], "weights": [1.5, 2, 0.5]}),
    ({"kind": "min_2sat", "n": 3, "clauses": [[1, 2], [-1, 3], [-2, -3]]},
     {"kind": "concave_cardinality", "g": [0, 2, 3.5, 4]}),
    ({"kind": "min_sat", "n": 3, "clauses": [[1, -2], [2, 3], [-3]]},
     {"kind": "sum", "terms": [{"kind": "modular", "w": [1, 0.5, 2]},
                               {"kind": "concave_cardinality", "g": [0, 1, 1.5, 1.75]}]}),
    ({"kind": "clique_edge_delete", "n": 4, "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]},
     {"kind": "concave_cardinality", "g": [0, 2, 3, 3.5, 3.75]}),
    ({"kind": "biclique_node_delete", "parts": [2, 2], "edges": [[0, 2], [1, 3]]},
     {"kind": "modular", "w": [1, 2, 1, 2]}),
]

RAW_MIXED = {
    "n": 3,
    "bounds": [2, 1, 3],
    "objective": {"kind": "concave_cardinality", "g": [0, 3, 5, 6.5, 7.5, 8, 8.25]},
    "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1},
                    {"i": 1, "a": 1, "j": 2, "b": -1, "c": -1},
                    {"i": 0, "a": -1, "j": 2, "b": -1, "c": -4}],
}


def test_every_document_objective_runs_on_the_minimum_cut(tmp_path, capsys):
    docs = [{"problem": problem, "objective": objective} for problem, objective in BUILDER_DOCS]
    for k, doc in enumerate(docs + [RAW_MIXED]):
        path = write(tmp_path, doc, f"doc{k}.json")
        code, out, _ = run_main(capsys, ["solve", path])
        assert code == 0 and out["status"] in ("optimal", "approx"), (k, out)
        d = out["diagnostics"]
        assert (d["engine"], d["sfm_iterations"]) == ("mincut", 0), (k, d)
        _, ref, _ = run_main(capsys, ["brute", path])
        assert ref["value"] <= out["value"] <= 2 * ref["value"] + 1e-9, (k, out, ref)


@pytest.mark.parametrize("change", [
    {"n": "x"},
    {"n": 2.7},
    {"bounds": 5},
    {"bounds": [1.5, 1]},
    {"constraints": 5},
    {"objective": {"kind": "modular", "w": [1, "inf"]}},
    {"objective": {"kind": "modular", "w": [1, "nan"]}},
    {"constraints": [{"i": 0, "a": "1/0", "j": 1, "b": 1, "c": 1}]},
    {"constraints": [{"i": 0, "a": 1, "j": 1, "b": "abc", "c": 1}]},
])
def test_malformed_raw_document_reports_error_json(tmp_path, capsys, change):
    doc = {"n": 2, "objective": {"kind": "modular", "w": [1, 1]},
           "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1}], **change}
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"


def test_multiset_instance_end_to_end(tmp_path, capsys):
    doc = {
        "n": 2,
        "bounds": [3, 2],
        "objective": {"kind": "concave_cardinality", "g": [0, 3, 5, 6, 6.5, 6.75]},
        "constraints": [{"i": 0, "a": 2, "j": 1, "b": 3, "c": 7}],
        "roundup": True,
    }
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 0 and out["status"] == "approx"
    x = out["x"]
    assert 2 * x[0] + 3 * x[1] >= 7
    code, ref, _ = run_main(capsys, ["brute", write(tmp_path, doc)])
    assert out["value"] <= 2 * ref["value"] + 1e-9


@pytest.mark.parametrize(
    "problem,objective",
    [
        ({"kind": "min_2sat", "n": 3, "clauses": [[1, 2], [-1, 3]]},
         {"kind": "modular", "w": [1, 2, 1]}),
        ({"kind": "min_sat", "n": 2, "clauses": [[1, -2], [2]]},
         {"kind": "modular", "w": [1, 1]}),
        ({"kind": "clique_edge_delete", "n": 3, "edges": [[0, 1], [1, 2]]},
         {"kind": "modular", "w": [1, 1]}),
        ({"kind": "biclique_node_delete", "parts": [2, 2], "edges": [[0, 2], [1, 3]]},
         {"kind": "modular", "w": [1, 1, 1, 1]}),
    ],
)
def test_problem_shorthand_kinds_solve_end_to_end(tmp_path, capsys, problem, objective):
    doc = {"problem": problem, "objective": objective}
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 0
    assert out["status"] in ("optimal", "approx")
    code, ref, _ = run_main(capsys, ["brute", write(tmp_path, doc)])
    assert code == 0
    assert out["value"] <= 2 * ref["value"] + 1e-9


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_VC)
    runs = []
    for _ in range(3):
        code = main(["solve", path])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] == runs[2]


def _run_each(capsys, argvs):
    outcomes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_main_reuses_one_parser_as_if_fresh(tmp_path, capsys, monkeypatch):
    # options of one call must not leak into the next, and an argparse error
    # must leave the shared parser usable
    path = write(tmp_path, TRIANGLE_VC)
    argvs = [
        ["solve", path, "--mode", "exact", "--cap", "1000"],
        ["reduce", path, "--cap", "64"],
        ["solve", path, "--no-such-flag"],
        ["brute", path, "--cap", "8"],
        ["solve", path],
        ["verify", path],
    ]
    shared = _run_each(capsys, argvs)
    assert cli._parser() is cli._parser()
    assert shared[2][0] == ("exit", 2) and "--no-such-flag" in shared[2][2]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert _run_each(capsys, argvs) == shared


def test_ratio_survey_script_stays_within_factor_two():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "ratio_survey.py"), "--per-family", "3", "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    worst = header.split().index("worst")
    assert len(rows) == 5
    assert all(float(row.split()[worst]) <= 2 for row in rows)


def test_cli_runs_as_module(tmp_path):
    path = write(tmp_path, TRIANGLE_VC)
    proc = subprocess.run(
        [sys.executable, "-m", "submod2", "solve", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "approx"


@pytest.mark.parametrize("objective", [
    {"kind": "modular"},
    {"kind": "modular", "w": [1, "x"]},
])
def test_malformed_objective_reports_error_json(tmp_path, capsys, objective):
    doc = {"n": 2, "objective": objective,
           "constraints": [{"i": 0, "a": 1, "j": 1, "b": 1, "c": 1}]}
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"
    assert "modular" in out["message"]


@pytest.mark.parametrize("problem", [
    {"kind": "vertex_cover"},
    {"kind": "min_2sat", "n": 2, "clauses": [[1, "y"]]},
])
def test_malformed_problem_reports_error_json(tmp_path, capsys, problem):
    doc = {"objective": {"kind": "modular", "w": [1, 1]}, "problem": problem}
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"
    assert out["message"].startswith("problem:")


def test_open_float_gap_is_not_reported_optimal(tmp_path, capsys, monkeypatch):
    # as an opaque oracle this min-SAT objective goes through Wolfe, which at
    # wolfe_tol=0.5 stops at value 0 while the optimum is -0.36: the gap is
    # open, so the answer is no optimum
    doc = {"objective": {"kind": "sum", "terms": [
               {"kind": "modular", "w": [-1.63, -1.56, -0.06]},
               {"kind": "concave_cardinality", "g": [0.0, 1.66, 2.83, 3.66]}]},
           "problem": {"kind": "min_sat", "n": 3, "clauses": [[1, 3], [1], [2]]}}
    path = write(tmp_path, doc)
    inst = parse_instance(path)
    opt = s.brute_force_solve(inst).value
    assert opt == pytest.approx(-0.36)
    loose = s.solve_exact_monotone(replace(inst, objective=gen.opaque(inst.objective)),
                                   cfg=s.SolverConfig(wolfe_tol=0.5))
    assert loose.value > opt + 0.1
    assert loose.lower_bound <= opt
    assert any("gap" in w for w in loose.warnings)
    # the CLI maps such a result to a refusal
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_auto", lambda inst, cfg: loose)
        code, out, err = run_main(capsys, ["solve", path])
    assert (code, out["status"]) == (3, "refused")
    assert (out["value"], out["lower_bound"]) == (loose.value, loose.lower_bound)
    assert "gap" in err
    # the document itself keeps its family spec: one minimum cut, optimal
    code, out, _ = run_main(capsys, ["solve", path])
    assert (code, out["status"]) == (0, "optimal")
    assert out["value"] == pytest.approx(opt)
    assert out["mode"] == "ExactMonotone"
    assert out["diagnostics"]["engine"] == "mincut"
    assert out["diagnostics"]["sfm_exact"] is True


MODULAR2 = {"kind": "modular", "w": [1, 1]}


@pytest.mark.parametrize("doc", [
    {"problem": {"kind": "min_2sat", "n": 2.7, "clauses": [[1, 2]]}, "objective": MODULAR2},
    {"problem": {"kind": "min_sat", "n": 2, "clauses": [[1.5], [2]]}, "objective": MODULAR2},
    {"problem": {"kind": "vertex_cover", "edges": [[0.9, 1.2]]}, "objective": MODULAR2},
    {"problem": {"kind": "vertex_cover", "edges": [[0, True]]}, "objective": MODULAR2},
    {"problem": {"kind": "clique_edge_delete", "n": 2.5, "edges": [[0, 1]]},
     "objective": {"kind": "modular", "w": [1]}},
    {"problem": {"kind": "biclique_node_delete", "parts": [1.5, 1.5], "edges": [[0, 1]]},
     "objective": MODULAR2},
    {"n": 2, "objective": MODULAR2, "constraints": [{"i": 0.9, "a": 1, "j": 1.7, "b": 1, "c": 1}]},
    {"n": 2, "objective": {"kind": "graph_cut", "edges": [[0.5, 1.5]]}, "constraints": []},
    {"n": 2, "objective": {"kind": "coverage", "covers": [[0.5], [1]], "weights": [1, 1]},
     "constraints": []},
])
def test_non_integer_indices_and_counts_are_refused(tmp_path, capsys, doc):
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"
    assert "must be an integer" in out["message"]


def test_integral_floats_read_as_integers(tmp_path, capsys):
    whole = {"problem": {"kind": "min_2sat", "n": 2.0, "clauses": [[1.0, 2]]}, "objective": MODULAR2}
    exact = {"problem": {"kind": "min_2sat", "n": 2, "clauses": [[1, 2]]}, "objective": MODULAR2}
    assert run_main(capsys, ["solve", write(tmp_path, whole)]) == \
        run_main(capsys, ["solve", write(tmp_path, exact, "exact.json")])


@pytest.mark.parametrize("doc", [
    {"n": 100_001, "objective": MODULAR2, "constraints": []},
    {"problem": {"kind": "vertex_cover", "n": 100_001, "edges": [[0, 1]]}, "objective": MODULAR2},
    {"problem": {"kind": "vertex_cover", "edges": [[0, 100_000]]}, "objective": MODULAR2},
])
def test_counts_above_the_level_budget_are_refused_before_building(tmp_path, capsys, monkeypatch, doc):
    # every element takes at least one level, so a larger count can never
    # solve; nothing of its size may be built first
    monkeypatch.setattr(cli, "GroundSet", None)
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"
    assert f"level budget of {s.DEFAULT_CONFIG.level_budget}" in out["message"]


@pytest.mark.parametrize("problem, builder, count", [
    # 448 * 447 / 2 pairs less the one edge
    ({"kind": "clique_edge_delete", "n": 448, "edges": [[0, 1]]}, "build_clique_edge_delete", 100_127),
    # 250 * 401 cross pairs less the one cross edge
    ({"kind": "biclique_node_delete", "parts": [250, 401], "edges": [[0, 250], [0, 1]]},
     "build_biclique_node_delete", 100_249),
])
def test_constraint_counts_above_the_level_budget_are_refused_before_building(
        tmp_path, capsys, monkeypatch, problem, builder, count):
    # one cover constraint per missing pair: the count is known before any
    # is built, and past the budget none may be
    monkeypatch.setattr(cli, "GroundSet", None)
    monkeypatch.setattr(cli, builder, None)
    doc = {"problem": problem, "objective": {"kind": "modular", "w": [1]}}
    code, out, _ = run_main(capsys, ["solve", write(tmp_path, doc)])
    assert code == 1
    assert out["status"] == "error"
    assert f"{count} constraints" in out["message"]
    assert f"level budget of {s.DEFAULT_CONFIG.level_budget}" in out["message"]
