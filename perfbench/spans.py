"""In-memory spans around the program's layers, for the traced run only.

`install` wraps every public function of the layer modules, the two oracle
``__call__`` methods, ``LevelSystem.to_json_dict`` and ``numpy.linalg.lstsq``
(where the Wolfe engine spends most of its time).  Each wrapper adds its
duration to the enclosing span, so a span's self time is its duration less
that of its children.  Spans are aggregated per name in memory; nothing is
written while operations run.

Oracle spans count only the outermost call of their kind: the Sum family
calls its member oracles, and the ring penalty wraps the level-lift oracle,
and those inner calls are part of the outer evaluation.  Inside a core
oracle call no further spans open at all, so its time stays whole.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "problems", "core", "reductions", "sfm", "closure", "twosat", "solver")


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._inside: Counter[str] = Counter()

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[name] += duration - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += duration

    def wrap(self, name: str, fn, after=None):
        inside = self._inside

        def traced(*args, **kwargs):
            if inside["core.oracle"]:
                return fn(*args, **kwargs)
            out = self._span(name, fn, args, kwargs)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_oracle(self, name: str, method):
        """Outermost-only span around an oracle's ``__call__``; a call that
        grows the oracle's memo is counted as an evaluation."""
        inside = self._inside
        counts = self.counts

        def traced(oracle, x):
            if inside[name] or inside["core.oracle"]:
                return method(oracle, x)
            inside[name] += 1
            before = len(oracle._cache)
            try:
                return self._span(name, method, (oracle, x), {})
            finally:
                inside[name] -= 1
                if len(oracle._cache) > before:
                    counts[name + ".evals"] += 1

        traced.__wrapped__ = method
        return traced


def install(tracer: Tracer) -> None:
    """Replace the program's public functions by traced ones everywhere they
    are bound, including the names other layers imported."""
    import numpy
    import submod2

    replacements = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"submod2.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                after = None
                if (layer, name) == ("reductions", "build_level_system"):
                    after = lambda system: tracer.counts.update({"reductions.levels": system.level_count})  # noqa: E731
                replacements[obj] = tracer.wrap(f"{layer}.{name}", obj, after)
    for modname, mod in list(sys.modules.items()):
        if modname == "submod2" or modname.startswith("submod2."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(mod, name, replacements[obj])

    core, sfm, reductions = submod2.core, submod2.sfm, submod2.reductions
    core.SubmodularOracle.__call__ = tracer.wrap_oracle("core.oracle", core.SubmodularOracle.__call__)
    sfm.SetFunctionOracle.__call__ = tracer.wrap_oracle("sfm.setfn", sfm.SetFunctionOracle.__call__)
    reductions.LevelSystem.to_json_dict = tracer.wrap(
        "reductions.to_json_dict", reductions.LevelSystem.to_json_dict)
    numpy.linalg.lstsq = tracer.wrap("numpy.lstsq", numpy.linalg.lstsq)


def _self(tracer: Tracer, prefix: str, exclude=()) -> float:
    return sum(v for k, v in tracer.self_s.items()
               if k.startswith(prefix) and k not in exclude)


def layer_metrics(tracer: Tracer, ops: int, wolfe_iters: float, penalty_retries: float) -> dict:
    """Per-operation figures of every layer, by the names in BENCHMARK.json.
    ``wolfe_iters`` and ``penalty_retries`` are the summed diagnostics the
    operations reported."""
    t, c, n = tracer.self_s, tracer.calls, tracer.counts
    solver_named = ("solver.solve_relaxation", "solver.solve_exact_monotone",
                    "solver.check_feasibility_2sat", "solver.round_up", "solver.round_ell")
    reductions_apart = ("reductions.monotonize", "reductions.to_json_dict")
    totals = {
        "cli.parse_s": t["cli.parse_instance"],
        "cli.self_s": _self(tracer, "cli.", ("cli.parse_instance",)),
        "problems.build_s": _self(tracer, "problems."),
        "core.oracle_calls": c["core.oracle"],
        "core.oracle_evals": n["core.oracle.evals"],
        "core.oracle_s": t["core.oracle"],
        "reductions.level_systems": c["reductions.build_level_system"],
        "reductions.build_s": _self(tracer, "reductions.", reductions_apart),
        "reductions.monotonize_s": t["reductions.monotonize"],
        "reductions.to_json_s": t["reductions.to_json_dict"],
        "reductions.levels": n["reductions.levels"],
        "sfm.wolfe_iters": wolfe_iters,
        "sfm.lstsq_calls": c["numpy.lstsq"],
        "sfm.lstsq_s": t["numpy.lstsq"],
        "sfm.greedy_calls": c["sfm.greedy_base_vertex"],
        "sfm.greedy_s": t["sfm.greedy_base_vertex"],
        "sfm.setfn_calls": c["sfm.setfn"],
        "sfm.setfn_evals": n["sfm.setfn.evals"],
        "sfm.penalty_retries": penalty_retries,
        "closure.mincut_calls": c["closure.solve_linear_closure_mincut"],
        "closure.mincut_s": t["closure.solve_linear_closure_mincut"],
        "twosat.calls": c["twosat.solve_2sat"],
        "twosat.solve_s": _self(tracer, "twosat."),
        "solver.relaxation_s": t["solver.solve_relaxation"],
        "solver.exact_s": t["solver.solve_exact_monotone"],
        "solver.feasibility_s": t["solver.check_feasibility_2sat"],
        "solver.round_s": t["solver.round_up"] + t["solver.round_ell"],
        "solver.self_s": _self(tracer, "solver.", solver_named),
    }
    return {k: v / ops for k, v in totals.items()}
