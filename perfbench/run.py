#!/usr/bin/env python3
"""Seeded benchmark of the submod2 solve routes, the CLI and the closure layer.

    python3 perfbench/run.py --workload approx-family --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick          # every workload on tiny inputs, traced and not

Run from the root of a checkout; the program is imported from ``src/``.  One
run builds its inputs from the seed, times whole rounds of operations for at
least ``--seconds`` seconds (and at least 100 operations), checks every
output against independent computations, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
in-memory spans (see ``spans.py``).  Details of the run go to
``perfbench/out/``.

Everything runs in this one process on one thread, BLAS included.  The
reference optima are computed in a separate process (``reference.py``),
before any timing, so neither their time nor their memory is measured.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile
SETUP_SAMPLES = {"full": 7, "tiny": 2}

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "value_over_opt": "ratio",
    "lower_over_opt": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.parse_s": "s", "cli.self_s": "s",
    "problems.build_s": "s",
    "core.oracle_calls": "count", "core.oracle_evals": "count", "core.oracle_s": "s",
    "reductions.level_systems": "count", "reductions.build_s": "s",
    "reductions.monotonize_s": "s", "reductions.to_json_s": "s", "reductions.levels": "count",
    "sfm.wolfe_iters": "count", "sfm.lstsq_calls": "count", "sfm.lstsq_s": "s",
    "sfm.greedy_calls": "count", "sfm.greedy_s": "s", "sfm.setfn_calls": "count",
    "sfm.setfn_evals": "count", "sfm.penalty_retries": "count",
    "closure.mincut_calls": "count", "closure.mincut_s": "s",
    "twosat.calls": "count", "twosat.solve_s": "s",
    "solver.relaxation_s": "s", "solver.exact_s": "s", "solver.feasibility_s": "s",
    "solver.round_s": "s", "solver.self_s": "s",
}


def load_references(workload: str, seed: int, size: str, specs: list[dict]) -> list:
    """Cached optima, made anew in a child process when missing or stale."""
    path = reference.cache_path(workload, seed, size)
    want = reference.digest(specs)
    for attempt in range(2):
        if path.is_file():
            cached = json.loads(path.read_text())
            if cached["digest"] == want:
                return cached["optima"]
        if attempt == 0:
            subprocess.run([sys.executable, str(HERE / "reference.py"), "--workload", workload,
                            "--seed", str(seed), "--size", size],
                           check=True, stdout=subprocess.DEVNULL, timeout=150)
    raise RuntimeError(f"reference optima for {workload} seed {seed} could not be made")


def import_program():
    sys.path.insert(0, str(SRC))
    import ops
    return ops


def setup_only(workload: str, seed: int, size: str) -> float:
    """One set-up sample in this fresh interpreter: import the program and
    build the first round's inputs through its constructors."""
    specs = workloads.generate(workload, seed, size)
    start = time.perf_counter()
    ops = import_program()
    op = ops.OPERATIONS[workload]()
    [op.prepare(spec) for spec in specs]
    return time.perf_counter() - start


def _check(checks, workload: str, spec: dict, ref, model, record: dict) -> str | None:
    if workload == "approx-family":
        return checks.library_result(model, ref, record, "Approx2")
    if workload == "exact-opaque":
        return checks.library_result(model, ref, record, "ExactMonotone")
    if workload == "cli-mixed":
        if spec["command"] == "solve":
            return checks.cli_solve(model, ref, record)
        return checks.cli_reduce(model, record)
    return checks.closure(spec, ref, record)


def measure(args) -> dict:
    size = args.size
    specs = workloads.generate(args.workload, args.seed, size)
    refs = load_references(args.workload, args.seed, size, specs)

    start = time.perf_counter()
    ops = import_program()
    op = ops.OPERATIONS[args.workload]()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    prepared = [op.prepare(spec) for spec in specs]
    setup_samples = [time.perf_counter() - start]

    times: list[float] = []
    first: list = []
    errors: list[str] = []
    wrong: list[str] = []
    rounds = 0
    started = time.perf_counter()
    while rounds == 0 or len(times) < MIN_OPS or time.perf_counter() - started < args.seconds:
        gc.collect()
        for k, spec in enumerate(specs):
            inp = prepared[k] if prepared else op.prepare(spec)
            t0 = time.perf_counter()
            try:
                result = op.run(inp)
            except Exception as exc:  # a failing operation is counted, not fatal
                result = exc
            times.append(time.perf_counter() - t0)
            del inp
            if isinstance(result, Exception):
                errors.append(f"round {rounds} op {k}: {type(result).__name__}: {result}")
                record = None
            else:
                record = op.output(result)
            if rounds == 0:
                first.append(record)
            elif record != first[k]:
                wrong.append(f"round {rounds} op {k}: output differs from the first round")
        prepared = None
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run outside every timed region.  The program is deterministic,
    # so later rounds must reproduce the first round's outputs exactly (see
    # above) and the first round is checked in full.
    import checks
    from semantics import model_of
    value_ratios, lower_ratios = [], []
    for k, (spec, ref, record) in enumerate(zip(specs, refs, first)):
        if record is None:
            continue
        model = model_of(args.workload, spec) if args.workload != "closure-mincut" else None
        bad = _check(checks, args.workload, spec, ref, model, record)
        if bad:
            wrong.append(f"op {k}: {bad}")
        elif ref is not None:
            value_ratios.append(checks.ratio(record["value"], ref["opt"]))
            lower_ratios.append(checks.ratio(record["lower"], ref["opt"]))
    result = {"rounds": rounds, "ops_per_round": len(specs), "op_seconds": sum(times),
              "errors": errors[:20], "wrong": wrong[:20],
              "first_round": [{"seconds": t, "iters": (r or {}).get("iters", 0)}
                              for t, r in zip(times, first)]}
    if tracer is None:
        for _ in range(SETUP_SAMPLES[size] - 1):
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                  "--workload", args.workload, "--seed", str(args.seed),
                                  "--size", size],
                                 check=True, capture_output=True, text=True, timeout=120)
            setup_samples.append(float(out.stdout.strip().splitlines()[-1]))
        deciles = statistics.quantiles(times, n=10)
        metrics = {
            "instances_per_s": len(times) / sum(times),
            "latency_s_p50": statistics.median(times),
            "latency_s_p90": deciles[8],
            "value_over_opt": statistics.fmean(value_ratios) if value_ratios else 1.0,
            "lower_over_opt": statistics.fmean(lower_ratios) if lower_ratios else 1.0,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        result["setup_samples"] = setup_samples
    else:
        import spans
        done = [r for r in first if r is not None]
        metrics = spans.layer_metrics(tracer, len(times),
                                      rounds * sum(r.get("iters", 0) for r in done),
                                      rounds * sum(r.get("retries", 0) for r in done))
        units = PER_LAYER
        result["spans"] = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                           "counts": dict(tracer.counts)}
    result["line"] = {
        "correct": not wrong,
        "attempted": len(times),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result


def quick() -> int:
    """Every workload, traced and untraced, on tiny inputs: the printed line
    must carry exactly the metric names and units of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", w["name"], "--seed", "1", "--seconds", "0.2",
                                   "--trace", str(trace), "--size", "tiny"],
                                  capture_output=True, text=True, timeout=120)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(line)}")
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{tag}: correct={line['correct']} failed={line['failed']}")
            print(f"{tag}: {line['attempted']} ops in {time.perf_counter() - t0:.1f} s", flush=True)
    for p in problems:
        print("FAIL", p)
    print("quick self-check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny inputs are for the quick self-check only")
    parser.add_argument("--quick", action="store_true", help="run the quick self-check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "submod2" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'submod2'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(setup_only(args.workload, args.seed, args.size))
        return 0

    result = measure(args)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
