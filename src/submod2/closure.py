"""Closed-set optimization on digraphs.

A subset S is closed (w.r.t. successors) when every arc (i, j) with i in S
also has j in S.  Closed sets are exactly the feasible sets of the system
x_i <= x_j, and they form a ring family, so a submodular objective can be
minimized exactly.  Each engine has one entry, and both read arcs as given
(self-loops and repeats change neither the closed sets nor the minimum):
`solve_sm_closure` runs Wolfe on an opaque objective (`sfm._ring_detailed`),
and `_min_cut` is the s-t minimum cut behind the other two entries.

For linear objectives the classical source/sink construction
(`solve_linear_closure_mincut`) is an independent second algorithm, which
the tests cross-validate against enumeration and `solve_sm_closure`.
`minimize_levels_mincut` minimizes every built-in objective family over the
closed sets of a level system: each family is a constant plus the capacity
of an s-t cut over the level indicators and a few auxiliary nodes (Picard
1976; Kolmogorov & Zabih 2004), so one maximum flow gives the optimum and,
through its value, a lower bound that certifies it.

The max-flow is `_Dinic`.  On closure graphs almost all of the flow runs
straight down the uncuttable precedence arcs (the structure Hochbaum's
pseudoflow algorithm exploits), so a forward pass first drains each source
arc along those arcs with one depth-first search: it pushes into every sink
arc it meets, books the flow on each tree arc once, on retreat, and retires
whole strongly connected components that can send no more, so cycles cost
no more than chains.  The cut is the set of nodes reachable from s in the
residual graph; when the pass leaves t outside it, as on open pits, that set
is the answer and no BFS runs, otherwise Dinic's BFS phases finish from the
flow the pass leaves and the set is read again.  It is the same minimal
minimum cut after every maximum flow, so the pass cannot change an answer;
only the float sum of the flow value can differ in its last bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Sequence

from .config import DEFAULT_CONFIG, SolverConfig
from .core import Complement, ConcaveCardinality, Coverage, Embed, FamilySpec, GraphCut, Modular, Sum
from .errors import SolverError, ValidationError
from .reductions import LevelSystem
from .sfm import SetFunctionOracle, _ring_detailed, set_of


@dataclass(frozen=True)
class ClosureInstance:
    """Binary nodes, precedence arcs (i, j) meaning x_i <= x_j, and a
    set-function objective to minimize over closed sets."""

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    objective: SetFunctionOracle

    def __post_init__(self):
        if self.objective.m != self.node_count:
            raise ValidationError("objective ground size must equal the node count")
        for (i, j) in self.arcs:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValidationError(f"arc ({i}, {j}) out of range")

    def is_closed(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return all(j in s for (i, j) in self.arcs if i in s)


def solve_sm_closure(
    inst: ClosureInstance, *, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[frozenset[int], float]:
    """Exact minimum of an opaque submodular objective over closed sets, by
    Wolfe's min-norm point with a penalty on violated arcs."""
    mask, val, _ = _ring_detailed(inst.objective, inst.arcs, cfg)
    out = set_of(mask)
    if not inst.is_closed(out):
        raise ValidationError("internal: returned set is not closed")  # pragma: no cover
    return out, val


# ---------------------------------------------------------------------------
# linear closure via max-flow / min-cut
# ---------------------------------------------------------------------------


class _Dinic:
    """Maximum flow by Dinic's algorithm, after a draining forward pass.

    The network is laid out from parallel tail, head and capacity sequences:
    input arc k has id ``2k`` and its reverse twin ``2k + 1``, which starts
    at capacity 0, so ``cap[eid] + cap[eid ^ 1]`` stays the arc's capacity.
    ``head[u]`` lists the input arcs leaving u (the first ``out[u]`` ids)
    and then the twins of the input arcs entering u, each group in id order.
    A self-loop never carries flow.  Arcs of capacity ``hard`` are the
    uncuttable ones.  `_forward_pass` first drains each source arc along
    uncuttable input arcs into the sink arcs, booking the flow on each arc
    once, on retreat, and retiring whole strongly connected components that
    can send no more; on closure graphs that routes nearly all of the flow.
    If t is still reachable from s, the BFS phases run from the flow it
    leaves and can undo any of it through the twins.  Every maximum flow
    leaves the same residual reachability from s (the minimal minimum cut),
    so the pass changes how fast the cut is found, not which cut.
    """

    def __init__(self, n: int, hard: float, tails: Sequence[int], heads: Sequence[int],
                 caps: Iterable[float]):
        self.n = n
        self.hard = hard
        self.to = to = [0] * (2 * len(tails))
        to[0::2] = heads
        to[1::2] = tails
        self.cap = cap = [0.0] * len(to)
        cap[0::2] = map(float, caps)
        self.head = head = [[] for _ in range(n)]
        for eid, u in zip(range(0, len(to), 2), tails):
            head[u].append(eid)
        self.out = [len(arcs) for arcs in head]
        for eid, v in zip(range(1, len(to), 2), heads):
            head[v].append(eid)

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        head, to, cap, level = self.head, self.to, self.cap, self.level
        while q:
            u = q.popleft()
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 1e-12 and level[v] < 0:
                    level[v] = level[u] + 1
                    if v == t:
                        # every node nearer than t is labelled by now; the rest
                        # cannot lie on a shortest augmenting path
                        return True
                    q.append(v)
        return False

    def _augment(self, path: list[int]) -> tuple[float, int]:
        """Push the bottleneck capacity along a path of arc ids; return it
        and the index of the first arc the push saturated."""
        cap = self.cap
        pushed = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= pushed
            cap[eid ^ 1] += pushed
        return pushed, next(k for k, eid in enumerate(path) if cap[eid] <= 1e-12)

    def _blocking_flow(self, s: int, t: int) -> float:
        """Saturate the level graph with s-t paths and return the flow pushed.

        Paths are grown on an explicit stack of arc ids, so their length is not
        bounded by the interpreter's recursion limit.  ``it[u]`` is u's current
        arc: arcs before it are saturated or lead to dead ends for the rest of
        the phase.  After a push the search resumes from the tail of the first
        saturated arc rather than from s.
        """
        head, to, cap, level = self.head, self.to, self.cap, self.level
        it = [0] * self.n
        flow = 0.0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed, cut = self._augment(path)
                flow += pushed
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = head[u]
            end = len(arcs)
            k = it[u]
            want = level[u] + 1
            while k < end:
                eid = arcs[k]
                if cap[eid] > 1e-12 and level[to[eid]] == want:
                    break
                k += 1
            it[u] = k
            if k < end:
                path.append(eid)
                u = to[eid]
            elif path:
                u = to[path.pop() ^ 1]  # dead end: retreat and skip the arc
                it[u] += 1
            else:
                return flow

    def _forward_pass(self, s: int, t: int) -> float:
        """Drain each source arc into the sink arcs, along uncuttable input
        arcs, with one depth-first search per source arc.

        Finite inner arcs are left to the BFS phases: on level graphs many
        nodes share them, and on a 400-level concave objective a greedy fill
        of them left up to 19 phases of ever longer paths where Dinic alone
        needs about 4.

        A search node holds ``avail``, what its tree path can still carry,
        and ``sent``, what its subtree has sent into t.  The search walks a
        node's input arcs in order: it pushes ``min(avail, residual)`` into
        each unsaturated sink arc and enters the head of each uncuttable arc
        that this search has not reached yet.  The flow into a node is
        booked on its tree arc once, when the search leaves it.  A node whose
        ``avail`` runs out is left unfinished, and so, in turn, are its
        ancestors unless their own arcs still have room.

        The search keeps Tarjan lowlinks, with a node's entry index in
        ``mark``.  A component root left with ``avail`` to spare has no
        residual path to an unsaturated sink arc from any node of its
        strongly connected component, since every arc out of it was tried;
        those nodes become ``dead``, and no later search enters them.  An
        unfinished node gets lowlink -1, so no ancestor retires it.  Forward
        residuals only fall during the pass, so state kept across source
        arcs stays true: ``it[u]`` skips arcs that are saturated, finite or
        lead to a dead node.  An arc into a live node that the search reached
        earlier holds the pointer, as the next search may need it.
        """
        head, out, to, cap, hard = self.head, self.out, self.to, self.cap, self.hard
        it = [0] * self.n
        dead = [False] * self.n
        dead[s] = True
        mark = [-1] * self.n
        clock = 0
        flow = 0.0
        for src in head[s][:out[s]]:
            u = to[src]
            if cap[src] <= 1e-12 or dead[u]:
                continue
            if u == t:
                flow += cap[src]
                cap[src ^ 1] += cap[src]
                cap[src] = 0.0
                continue
            start = clock
            e, avail, sent, low, k, live = src, cap[src], 0.0, clock, it[u], False
            mark[u] = clock
            clock += 1
            component = [u]
            stack = []
            while True:
                arcs = head[u]
                end = out[u]
                child = -1
                while k < end and avail > 1e-12:
                    eid = arcs[k]
                    k += 1
                    c = cap[eid]
                    if c > 1e-12:
                        v = to[eid]
                        if v == t:
                            if c > avail:  # the excess runs out here
                                cap[eid] = c - avail
                                cap[eid ^ 1] += avail
                                sent += avail
                                avail = 0.0
                                break
                            cap[eid] = 0.0
                            cap[eid ^ 1] += c
                            sent += c
                            avail -= c
                        elif not dead[v] and c + cap[eid ^ 1] >= hard:
                            if mark[v] < start:
                                child = v
                                break
                            if mark[v] < low:
                                low = mark[v]
                            live = live or v != u  # a self-loop never carries flow
                            continue
                    if not live:
                        it[u] = k
                if child >= 0:
                    stack.append((u, e, avail, sent, low, k, live))
                    u, e, sent, k, live = child, eid, 0.0, it[child], False
                    if c < avail:
                        avail = c
                    low = mark[u] = clock
                    clock += 1
                    component.append(u)
                    continue
                if avail <= 1e-12:
                    low = -1  # unfinished: no ancestor may retire u
                elif low == mark[u]:  # a component root with room to spare
                    while True:
                        v = component.pop()
                        dead[v] = True
                        if v == u:
                            break
                cap[e] -= sent  # book the subtree's flow on the tree arc
                cap[e ^ 1] += sent
                if not stack:
                    flow += sent
                    break
                v, ce, low_v = u, e, low
                used = sent
                u, e, avail, sent, low, k, live = stack.pop()
                avail -= used
                sent += used
                if not dead[v] and low_v < low:
                    low = low_v
                if dead[v] or cap[ce] <= 1e-12:
                    if not live:
                        it[u] = k
                else:
                    live = True
        return flow

    def max_flow(self, s: int, t: int) -> float:
        """Flow value; ``phases`` counts the BFS phases run after the pass, and
        ``source_side`` holds the nodes reachable from s in the final
        residual graph."""
        flow = self._forward_pass(s, t)
        self.phases = 0
        self.source_side = self.reachable_from(s)
        if t in self.source_side:  # the pass left an augmenting path
            while self._bfs(s, t):
                self.phases += 1
                flow += self._blocking_flow(s, t)
            self.source_side = self.reachable_from(s)
        return flow

    def reachable_from(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 1e-12 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


def _columns(rows: Sequence[tuple], width: int) -> list[list]:
    """The first ``width`` columns of a sequence of rows, as parallel lists.
    (``zip(*rows)`` would make one GC-tracked iterator per row, enough on an
    open pit to set off several collections per solve.)"""
    return [list(map(itemgetter(k), rows)) for k in range(width)]


def _min_cut(nodes: int, finite: list[list], hard: list[list[int]]) -> tuple[set[int], float, int]:
    """Minimal minimum s-t cut over inner nodes 0..nodes-1, s = nodes and
    t = nodes + 1: its inner source side, the flow and the Dinic phases run
    after the forward pass.  ``finite`` holds parallel tail, head and
    capacity (>= 0) lists; the arcs of the ``hard`` tail and head lists get
    capacity 1 + the finite sum, which no minimum cut crosses while some cut
    avoids them all."""
    s, t = nodes, nodes + 1
    (ft, fh, fc), (ht, hh) = finite, hard
    infinite = 1.0 + sum(fc)
    net = _Dinic(nodes + 2, infinite, ft + ht, fh + hh, fc + [infinite] * len(ht))
    flow = net.max_flow(s, t)
    if flow > infinite - 0.5:
        raise SolverError("internal: the minimum cut crosses an uncuttable arc")
    return net.source_side - {s}, flow, net.phases


def solve_linear_closure_mincut(
    weights: Sequence[float],
    arcs: Iterable[tuple[int, int]],
    sense: str = "max",
) -> tuple[frozenset[int], float]:
    """Best-weight closed set of a node-weighted digraph via a minimum cut.

    ``sense="max"`` hangs positive-weight nodes off the source and lets
    nonpositive ones feed the sink, makes the arcs uncuttable and reads the
    source side of a minimum cut (Picard 1976).  ``sense="min"`` runs the same
    construction on the negated weights, so both senses range over
    successor-closed sets and stay comparable with `solve_sm_closure`.  The
    arcs may be any iterable, with repeats and self-loops.
    """
    if sense not in ("max", "min"):
        raise ValidationError("sense must be 'max' or 'min'")
    w = [float(v) for v in weights]
    n = len(w)
    hard = list(arcs)
    tails, heads = _columns(hard, 2)
    if hard and (min(min(tails), min(heads)) < 0 or max(max(tails), max(heads)) >= n):
        i, j = next((i, j) for (i, j) in hard if not (0 <= i < n and 0 <= j < n))
        raise ValidationError(f"arc ({i}, {j}) out of range")
    gain = w if sense == "max" else [-v for v in w]
    s, t = n, n + 1
    finite = _columns([(s, v, g) if g > 0 else (v, t, -g) for v, g in enumerate(gain)], 3)
    closure = frozenset(_min_cut(n, finite, [tails, heads])[0])
    if not all(j in closure for (i, j) in hard if i in closure):
        raise ValidationError("internal: min-cut source side is not closed")  # pragma: no cover
    return closure, sum((w[i] for i in closure), 0.0)


# ---------------------------------------------------------------------------
# built-in families over level systems, as one minimum cut
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelCut:
    """Minimum cut of a compiled level system.  ``members`` are the level ids
    on the source side, a closed set; ``lower`` is the constant plus the
    max-flow value, a lower bound on the objective over every closed set
    that the members attain up to float rounding.  ``phases`` counts the
    Dinic phases that found a path after the forward pass."""

    members: frozenset[int]
    lower: float
    nodes: int
    arcs: int
    phases: int


class _CutEnergy:
    """constant + sum(lin[v] * y_v) + sum(c * y_a * (1 - y_b) over pairs),
    with y_v = 1 when node v lies on the source side.  Level ids are the
    first nodes and auxiliary nodes follow them.  Terms are added over
    literals: ``pos`` true reads y_v, false reads the complement 1 - y_v."""

    def __init__(self, levels: int):
        self.constant = 0.0
        self.lin = [0.0] * levels
        self.pairs: list[tuple[int, int, float]] = []

    def aux(self) -> int:
        self.lin.append(0.0)
        return len(self.lin) - 1

    def add(self, v: int, pos: bool, c: float):
        """+ c * lit(v)."""
        if pos:
            self.lin[v] += c
        else:
            self.constant += c
            self.lin[v] -= c

    def add_pair(self, a: int, b: int, pos: bool, c: float):
        """+ c * [lit(a) = 1 and lit(b) = 0], for c >= 0."""
        if c > 0:
            self.pairs.append((a, b, c) if pos else (b, a, c))

    def compile(self, spec: FamilySpec, levels: list[list[int]], pos: bool):
        """Add a family evaluated on the counts of the elements' levels
        (``levels[k]`` holds element k's level ids; pos false counts the
        levels that are off, i.e. evaluates at the reflected point)."""
        if isinstance(spec, Modular):
            for w, ids in zip(spec.w, levels):
                for v in ids:
                    self.add(v, pos, w)
        elif isinstance(spec, ConcaveCardinality):
            # g(k) = g(0) + d_K*k + sum_r (d_r - d_{r+1}) * min(k, r), and
            # c*min(k, r) = min over z of c*r*z + c*k*(1 - z): one auxiliary
            # node per breakpoint.  The running minimum keeps each weight
            # nonnegative and the floored table below g, so the bound stays
            # sound on tables whose increments rise within make_family's slack.
            flat = [v for ids in levels for v in ids]
            d = list(accumulate((b - a for a, b in zip(spec.table, spec.table[1:])), min))
            self.constant += spec.table[0]
            for v in flat:
                self.add(v, pos, d[-1])
            for r in range(1, len(d)):
                c = d[r - 1] - d[r]
                if c > 0:
                    z = self.aux()
                    self.add(z, pos, c * r)
                    for v in flat:
                        self.add_pair(v, z, pos, c)
        elif isinstance(spec, Coverage):
            # w * max(members) = min over z of w*z + w * [some member on, z off]
            for item, w in enumerate(spec.item_weights):
                members = [ids[0] for ids, cov in zip(levels, spec.covers) if item in cov]
                if w > 0 and members:
                    z = self.aux()
                    self.add(z, pos, w)
                    for v in members:
                        self.add_pair(v, z, pos, w)
        elif isinstance(spec, GraphCut):
            weights = spec.weights if spec.weights is not None else (1.0,) * len(spec.edges)
            for (i, j), w in zip(spec.edges, weights):
                self.add_pair(levels[i][0], levels[j][0], pos, w)
                self.add_pair(levels[j][0], levels[i][0], pos, w)
        elif isinstance(spec, Sum):
            for part in spec.parts:
                self.compile(part, levels, pos)
        elif isinstance(spec, Complement):
            self.compile(spec.inner, levels, not pos)
        elif isinstance(spec, Embed):
            self.compile(spec.inner, [levels[p] for p in spec.positions], pos)
        else:
            raise ValidationError(f"unknown family spec {spec!r}")


def minimize_levels_mincut(system: LevelSystem, specs: Sequence[FamilySpec]) -> LevelCut:
    """Minimize a sum of built-in families over the closed sets of a level
    system with one maximum flow.

    The elements split into ``len(specs)`` equal blocks, and spec k is
    evaluated on the counts of block k.  Chain arcs, closure arcs and fixings
    are the uncuttable arcs of `_min_cut`, which no minimum cut crosses once
    the system has a closed set obeying its fixings.
    """
    block = system.ground.n // len(specs)
    energy = _CutEnergy(system.level_count)
    for k, spec in enumerate(specs):
        elements = range(k * block, (k + 1) * block)
        levels = [[system.offsets[i] + p for p in range(system.ground.bounds[i])] for i in elements]
        energy.compile(spec, levels, True)
    nodes = len(energy.lin)
    s, t = nodes, nodes + 1
    constant = energy.constant
    finite = list(energy.pairs)
    for v, c in enumerate(energy.lin):
        if c > 0:
            finite.append((v, t, c))
        elif c < 0:
            constant += c
            finite.append((s, v, -c))
    hard = system.all_arcs() + [(s, v) if val else (v, t) for v, val in system.fixed.items()]
    source_side, flow, phases = _min_cut(nodes, _columns(finite, 3), _columns(hard, 2))
    members = frozenset(v for v in source_side if v < system.level_count)
    return LevelCut(members, constant + flow, nodes + 2, len(finite) + len(hard), phases)


# ---------------------------------------------------------------------------
# cut problems on source/sink closure graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StClosureGraph:
    """Source/sink graph whose only finite-cost arcs touch the source or the
    sink; internal arcs are uncuttable precedence arcs.

    The cut cost is a set function over the finite arcs, indexed source arcs
    first (position k is the arc s->source_arcs[k]) then sink arcs (position
    len(source_arcs)+k is the arc sink_arcs[k]->t).
    """

    node_count: int
    internal_arcs: tuple[tuple[int, int], ...]
    source_arcs: tuple[int, ...]
    sink_arcs: tuple[int, ...]
    cut_cost: SetFunctionOracle

    def __post_init__(self):
        for v in self.source_arcs + self.sink_arcs:
            if not 0 <= v < self.node_count:
                raise ValidationError(f"terminal arc endpoint {v} out of range")
        for (i, j) in self.internal_arcs:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValidationError(f"internal arc ({i}, {j}) out of range")
        if self.cut_cost.m != len(self.source_arcs) + len(self.sink_arcs):
            raise ValidationError("cut cost must be defined over the source and sink arcs")


def sm_cut_to_closure(graph: StClosureGraph) -> ClosureInstance:
    """Equivalent closed-set instance of a cut problem on a closure graph.

    For a source set S, the cut consists of the source arcs into the
    complement of S and the sink arcs out of S; the returned objective
    evaluates the cut cost of that arc set.  The objective is submodular
    whenever the cut cost is modular, or splits into independent submodular
    costs on the source-arc block and the sink-arc block.
    """
    src = list(graph.source_arcs)
    snk = list(graph.sink_arcs)
    k = len(src)

    def cost(node_mask: int) -> float:
        cut = 0
        for pos, v in enumerate(src):
            if not (node_mask >> v) & 1:
                cut |= 1 << pos
        for pos, v in enumerate(snk):
            if (node_mask >> v) & 1:
                cut |= 1 << (k + pos)
        return graph.cut_cost(cut)

    objective = SetFunctionOracle(
        graph.node_count,
        cost,
        integer_valued=graph.cut_cost.integer_valued,
        label="closure_cut_cost",
    )
    return ClosureInstance(graph.node_count, graph.internal_arcs, objective)


# ---------------------------------------------------------------------------
# bipartite vertex cover with per-side submodular costs
# ---------------------------------------------------------------------------


def bisubmodular_vc_bipartite(
    v1_count: int,
    v2_count: int,
    edges: Iterable[tuple[int, int]],
    f1: SetFunctionOracle,
    f2: SetFunctionOracle,
    *,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> tuple[frozenset[int], float]:
    """Exact minimum of f1(D ∩ V1) + f2(D ∩ V2) over vertex covers D of a
    bipartite graph (V1 = 0..v1_count-1, V2 indexed 0..v2_count-1 locally,
    v1_count..v1_count+v2_count-1 globally).

    Directing every edge from V1 to V2 makes the complement-on-V1 image of a
    cover a closed set, so replacing f1 by its reflection turns the cover
    problem into a closed-set minimization, solved exactly.
    """
    if f1.m != v1_count or f2.m != v2_count:
        raise ValidationError("side objectives must match the side sizes")
    edge_list = []
    for (i, j) in edges:
        if not (0 <= i < v1_count and 0 <= j < v2_count):
            raise ValidationError(f"edge ({i}, {j}) is not a V1 x V2 pair")
        edge_list.append((int(i), v1_count + int(j)))
    m = v1_count + v2_count
    full1 = (1 << v1_count) - 1

    def objective(mask: int) -> float:
        inside1 = mask & full1
        inside2 = mask >> v1_count
        return f1(full1 ^ inside1) + f2(inside2)

    inst = ClosureInstance(
        m,
        tuple(edge_list),
        SetFunctionOracle(m, objective, integer_valued=f1.integer_valued and f2.integer_valued),
    )
    closed, value = solve_sm_closure(inst, cfg=cfg)
    cover = frozenset(i for i in range(v1_count) if i not in closed) | frozenset(
        v for v in closed if v >= v1_count
    )
    for (i, j) in edge_list:
        if i not in cover and j not in cover:
            raise ValidationError("internal: decoded set is not a vertex cover")  # pragma: no cover
    return cover, value
