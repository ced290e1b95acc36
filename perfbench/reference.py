"""Independent optima for the benchmark inputs, computed without the program.

* Linear integer programs (the raw cli-mixed systems, modular objectives):
  ``scipy.optimize.milp`` with a zero optimality gap.
* Every other input: every point of its box, with numpy.
* closure-mincut: a maximum-weight closure through ``networkx`` minimum cut
  on the textbook source/sink construction.

Results are cached under ``perfbench/out/ref/``, keyed by workload, size and
seed, with a digest of the inputs so that a changed generator invalidates
them.  Make a cache entry anew with

    python3 perfbench/reference.py --workload approx-family --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ENUMERATION_CAP = 1 << 20


def cache_path(workload: str, seed: int, size: str) -> Path:
    return HERE / "out" / "ref" / f"{workload}-{size}-{seed}.json"


def digest(specs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def _box_optimum(model) -> dict:
    import numpy as np
    from semantics import enumerate_box

    X = enumerate_box(model.bounds)
    feasible = model.feasible(X)
    if not feasible.any():
        raise ValueError("benchmark input has no feasible point")
    vals = model.value(X[feasible])
    k = int(np.argmin(vals))
    return {"opt": float(vals[k]), "x": [int(v) for v in X[feasible][k]]}


def _milp_optimum(model) -> dict:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(model.bounds)
    A = np.zeros((len(model.rows), n))
    lb = np.zeros(len(model.rows))
    for r, (coef, rhs) in enumerate(model.rows):
        for v, a in coef.items():
            A[r, v] = a
        lb[r] = rhs
    res = milp(np.asarray(model.cost, dtype=float),
               constraints=LinearConstraint(A, lb, np.inf),
               integrality=np.ones(n), bounds=Bounds(0, np.asarray(model.bounds, dtype=float)),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise ValueError(f"milp failed: {res.message}")
    x = [int(round(v)) for v in res.x]
    X = np.asarray([x], dtype=np.int64)
    if not model.feasible(X)[0]:
        raise ValueError("milp point is infeasible after rounding")
    return {"opt": float(model.value(X)[0]), "x": x}


def _closure_optimum(spec: dict) -> dict:
    import networkx as nx
    from networkx.algorithms.flow import boykov_kolmogorov

    weights = spec["weights"]
    G = nx.DiGraph()
    G.add_nodes_from(["s", "t"])
    for v, w in enumerate(weights):
        if w > 0:
            G.add_edge("s", v, capacity=w)
        elif w < 0:
            G.add_edge(v, "t", capacity=-w)
    for i, j in spec["arcs"]:
        G.add_edge(i, j)  # no capacity attribute: uncuttable
    cut, (source_side, _) = nx.minimum_cut(G, "s", "t", flow_func=boykov_kolmogorov)
    members = sorted(v for v in source_side if v != "s")
    positive = sum(w for w in weights if w > 0)
    return {"opt": float(positive - cut), "x": members}


def optima(workload: str, specs: list[dict]) -> list[dict | None]:
    from semantics import model_of

    out: list[dict | None] = []
    for spec in specs:
        if workload == "closure-mincut":
            out.append(_closure_optimum(spec))
            continue
        if workload == "cli-mixed" and spec["command"] != "solve":
            out.append(None)  # reduce output is checked point by point, not against an optimum
            continue
        model = model_of(workload, spec)
        if model.cost is not None:
            out.append(_milp_optimum(model))
        elif model.box_size() <= ENUMERATION_CAP:
            out.append(_box_optimum(model))
        else:
            raise ValueError("input is neither a linear program nor small enough to enumerate")
    return out


def make(workload: str, seed: int, size: str) -> Path:
    specs = workloads.generate(workload, seed, size)
    path = cache_path(workload, seed, size)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"digest": digest(specs), "optima": optima(workload, specs)}))
    tmp.replace(path)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compute reference optima for one workload and seed")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    print(make(args.workload, args.seed, args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
