"""Centralized peeling: (k,l)-core extraction and the full decomposition.

This is the sequential baseline and the ground truth the distributed
algorithms are verified against.  One bucket peel, _peel, serves every
routine here: by in-degree for kmax, by out-degree for lmax, and by
out-degree under an in-degree floor k for column k of the anchored table
and for dcore.  It works on its own degree arrays; the input graph is never
mutated.
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


def dcore(g: DirectedGraph, k: int, l: int) -> set[int]:
    """Vertex set of the (k, l)-core: the unique maximal subgraph in which
    every vertex keeps in-degree >= k and out-degree >= l.

    The part of the (k, 0)-core whose l_max(v, k) is at least l, both read
    off the one bucket peel.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    members = [v for v, kmax in enumerate(in_core_numbers(g)) if kmax >= k]
    lmax = _peel(g.in_adj, g.out_adj, members, k)
    return {v for v in members if lmax[v] >= l}


def in_core_numbers(g: DirectedGraph) -> list[int]:
    """kmax(v): the largest k with v in the (k, 0)-core, via bucket peeling."""
    return _peel(g.out_adj, g.in_adj, range(g.n), 0)


def out_core_numbers(g: DirectedGraph) -> list[int]:
    """lmax(v): the largest l with v in the (0, l)-core."""
    return _peel(g.in_adj, g.out_adj, range(g.n), 0)


def peel_decompose(g: DirectedGraph) -> AnchoredTable:
    """Full anchored decomposition: one bucket peel inside each (k, 0)-core.

    Column k of the table is _peel over the (k, 0)-core with in-degree
    floor k, for every k up to the largest kmax.
    """
    kmaxes = in_core_numbers(g)
    rows: list[list[int]] = [[] for _ in range(g.n)]
    top_k = max(kmaxes, default=0)
    for k in range(top_k + 1):
        members = [v for v in range(g.n) if kmaxes[v] >= k]
        lmax = _peel(g.in_adj, g.out_adj, members, k)
        for v in members:
            rows[v].append(lmax[v])
    return AnchoredTable(rows)


def _peel(ins: list[list[int]], outs: list[list[int]], members, k: int) -> list[int]:
    """l_max(v, k) for each v in members, which must form a (k, 0)-core.

    The O(n + m) bucket peel of Batagelj and Zaversnik (2003) on out-degree
    (the length of outs[v] inside the survivors), under an in-degree floor
    k.  Level d removes every survivor outside the (k, d + 1)-core: removing
    v lowers its in-neighbours' out-degrees, never below d, and its
    out-neighbours' in-degrees; a vertex whose in-degree falls below k is
    capped at d and joins the current bucket.  Swapping ins and outs peels
    by in-degree.  Entries for non-members are 0.
    """
    alive = [False] * len(ins)
    for v in members:
        alive[v] = True
    indeg = [sum(map(alive.__getitem__, a)) for a in ins]
    outdeg = [sum(map(alive.__getitem__, a)) for a in outs]
    buckets: list[list[int]] = [[] for _ in range(max(outdeg, default=0) + 1)]
    for v in members:
        buckets[outdeg[v]].append(v)
    lmax = [0] * len(ins)
    for d, bucket in enumerate(buckets):
        for v in bucket:  # grows while it is walked
            if not alive[v]:
                continue
            alive[v] = False
            lmax[v] = d
            for w in ins[v]:
                if alive[w] and outdeg[w] > d:
                    outdeg[w] -= 1
                    buckets[outdeg[w]].append(w)
            for w in outs[v]:
                if alive[w]:
                    indeg[w] -= 1
                    if indeg[w] < k and outdeg[w] > d:
                        outdeg[w] = d
                        bucket.append(w)
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
