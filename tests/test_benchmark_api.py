"""The benchmark under perfbench/ calls the program by name; these tests read
its sources (without running or changing them) and check that every name it
relies on still exists, so an API change cannot silently break a run or zero
a per-layer metric."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import submod2
from submod2 import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _function(tree, name):
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def _strings(node):
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_program_name_the_operations_use_exists():
    modules = {"s": submod2, "cli": cli}
    used = set()
    for node in ast.walk(_tree("ops.py")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((node.value.id, node.attr))
            assert hasattr(modules[node.value.id], node.attr), f"ops.py uses {node.value.id}.{node.attr}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules:
            fn = getattr(modules[node.func.value.id], node.func.attr, None)
            for kw in node.keywords if fn is not None else ():  # a missing name fails above
                assert kw.arg in inspect.signature(fn).parameters, \
                    f"ops.py passes {kw.arg}= to {node.func.value.id}.{node.func.attr}"
    assert {("s", "solve_auto"), ("s", "solve_linear_closure_mincut"), ("cli", "main")} <= used


def test_every_span_the_layer_metrics_read_is_a_public_function():
    spans = _tree("spans.py")
    layers = next(ast.literal_eval(node.value) for node in spans.body if isinstance(node, ast.Assign)
                  and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "LAYERS")
    metrics = _function(spans, "layer_metrics")
    totals = next(node.value for node in ast.walk(metrics) if isinstance(node, ast.Assign)
                  and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "totals")
    metric_names = {key.value for key in totals.keys}
    # spans and counters that `install` names itself rather than by wrapping a function
    named_by_install = _strings(_function(spans, "install"))
    read = set()
    for text in _strings(metrics) - metric_names - named_by_install:
        match = re.fullmatch(r"(\w+)\.(\w+)", text)
        if match and match[1] in layers:
            read.add(text)
            module = importlib.import_module(f"submod2.{match[1]}")
            fn = getattr(module, match[2], None)
            assert not match[2].startswith("_") and inspect.isfunction(fn) \
                and fn.__module__ == module.__name__, f"layer_metrics reads span {text}"
    assert {"closure.solve_linear_closure_mincut", "twosat.solve_2sat"} <= read
