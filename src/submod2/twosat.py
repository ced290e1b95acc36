"""2-SAT via strongly connected components of the implication graph.

Literals are encoded as 2*v for "variable v true" and 2*v + 1 for "variable v
false", so ``lit ^ 1`` negates a literal.  Callers pass the implication graph
directly: a clause (l1 or l2) is the implications not-l1 -> l2 and
not-l2 -> l1, and a unit clause (l) is not-l -> l.  The formula is
satisfiable iff no variable shares a component with its negation, and a
satisfying assignment falls out of the component order.
"""

from __future__ import annotations

from typing import Iterable


def _tarjan_scc(num_nodes: int, adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan; components are numbered in the order they complete,
    which is reverse topological order of the condensation."""
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    comp = [-1] * num_nodes
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while ptr < len(adj[node]):
                nxt = adj[node][ptr]
                ptr += 1
                if index[nxt] == -1:
                    work[-1] = (node, ptr)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = comp_count
                    if top == node:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def solve_2sat(num_vars: int, implications: Iterable[tuple[int, int]]) -> list[bool] | None:
    """Satisfying assignment or None.

    ``implications`` are directed literal edges (see the module docstring).
    """
    n2 = 2 * num_vars
    adj: list[list[int]] = [[] for _ in range(n2)]
    for (frm, to) in implications:
        adj[frm].append(to)
    comp = _tarjan_scc(n2, adj)
    assignment = []
    for v in range(num_vars):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        # smaller component id = later in topological order; pick the literal
        # whose component all its implications have already committed to
        assignment.append(comp[2 * v] < comp[2 * v + 1])
    return assignment
