"""Centralized peeling: (k,l)-core extraction and the full decomposition.

This is the sequential baseline and the ground truth the distributed
algorithms are verified against.  All routines work on owned degree arrays;
the input graph is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph
from .kernels import Pair


@dataclass
class AnchoredTable:
    """Per-vertex map k -> l_max(v, k) for k in [0, kmax(v)].

    rows[v][k] holds l_max(v, k); len(rows[v]) == kmax(v) + 1.  Rows are
    non-increasing in k by partial nesting.
    """

    rows: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.rows)

    def kmax(self, v: int) -> int:
        return len(self.rows[v]) - 1

    def lmax(self, v: int, k: int) -> int:
        return self.rows[v][k]

    def pairs(self, v: int) -> list[Pair]:
        return [(k, l) for k, l in enumerate(self.rows[v])]


def dcore(g: DirectedGraph, k: int, l: int) -> set[int]:
    """Vertex set of the (k, l)-core: the unique maximal subgraph in which
    every vertex keeps in-degree >= k and out-degree >= l.

    Computed by cascading deletion of violating vertices until fixpoint.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    indeg = [g.in_degree(v) for v in range(g.n)]
    outdeg = [g.out_degree(v) for v in range(g.n)]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if indeg[v] < k or outdeg[v] < l]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for w in g.out_adj[v]:
            if alive[w]:
                indeg[w] -= 1
                if indeg[w] < k:
                    alive[w] = False
                    stack.append(w)
        for w in g.in_adj[v]:
            if alive[w]:
                outdeg[w] -= 1
                if outdeg[w] < l:
                    alive[w] = False
                    stack.append(w)
    return {v for v in range(g.n) if alive[v]}


def in_core_numbers(g: DirectedGraph) -> list[int]:
    """kmax(v): the largest k with v in the (k, 0)-core, via bucket peeling."""
    return _directional_core_numbers(g, use_in=True)


def out_core_numbers(g: DirectedGraph) -> list[int]:
    """lmax(v): the largest l with v in the (0, l)-core."""
    return _directional_core_numbers(g, use_in=False)


def _directional_core_numbers(g: DirectedGraph, use_in: bool) -> list[int]:
    # Classic O(n + m) min-degree peeling on one degree direction only.
    # Removing v lowers the constrained degree of the vertices that count v.
    if use_in:
        deg = [g.in_degree(v) for v in range(g.n)]
        fanout = g.out_adj
    else:
        deg = [g.out_degree(v) for v in range(g.n)]
        fanout = g.in_adj
    n = g.n
    if n == 0:
        return []
    maxdeg = max(deg)
    buckets: list[list[int]] = [[] for _ in range(maxdeg + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    core = [0] * n
    removed = [False] * n
    cur = 0
    for d in range(maxdeg + 1):
        bucket = buckets[d]
        i = 0
        while i < len(bucket):
            v = bucket[i]
            i += 1
            if removed[v] or deg[v] > d:
                continue
            cur = max(cur, deg[v])
            core[v] = cur
            removed[v] = True
            for w in fanout[v]:
                if not removed[w] and deg[w] > deg[v]:
                    deg[w] -= 1
                    if deg[w] <= d:
                        bucket.append(w)
                    else:
                        buckets[deg[w]].append(w)
    return core


def peel_decompose(g: DirectedGraph) -> AnchoredTable:
    """Full anchored decomposition by out-degree peeling inside each (k, 0)-core.

    For each feasible k the working set starts as the (k, 0)-core and is
    peeled toward increasing l; every vertex removed while tightening to the
    (k, l)-core records l_max(v, k) = l - 1.  Vertices tied at the minimum
    out-degree fall in the same batch, so the result is order-independent.
    """
    kmaxes = in_core_numbers(g)
    rows: list[list[int]] = [[] for _ in range(g.n)]
    top_k = max(kmaxes, default=0)
    for k in range(top_k + 1):
        members = [v for v in range(g.n) if kmaxes[v] >= k]
        lmax = _lmax_column(g, members, k)
        for v in members:
            rows[v].append(lmax[v])
    return AnchoredTable(rows)


def _lmax_column(g: DirectedGraph, members: list[int], k: int) -> dict[int, int]:
    alive = set(members)
    indeg = {v: sum(1 for u in g.in_adj[v] if u in alive) for v in members}
    outdeg = {v: sum(1 for u in g.out_adj[v] if u in alive) for v in members}
    lmax: dict[int, int] = {}
    l = 0
    while alive:
        l += 1
        stack = [v for v in alive if outdeg[v] < l]
        for v in stack:
            alive.discard(v)
        while stack:
            v = stack.pop()
            lmax[v] = l - 1
            for w in g.out_adj[v]:
                if w in alive:
                    indeg[w] -= 1
                    if indeg[w] < k:
                        alive.discard(w)
                        stack.append(w)
            for w in g.in_adj[v]:
                if w in alive:
                    outdeg[w] -= 1
                    if outdeg[w] < l:
                        alive.discard(w)
                        stack.append(w)
    return lmax


def skyline_of(row: list[int]) -> list[Pair]:
    """The skyline of an anchored row, k-ascending: each (k, row[k]) above every later entry."""
    pairs: list[Pair] = []
    hi = -1
    for k in range(len(row) - 1, -1, -1):
        if row[k] > hi:
            hi = row[k]
            pairs.append((k, hi))
    pairs.reverse()
    return pairs


def anchored_to_skyline(table: AnchoredTable) -> list[list[Pair]]:
    """Per-vertex skyline coreness sets read off an anchored table."""
    return [skyline_of(row) for row in table.rows]
