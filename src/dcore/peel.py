"""Centralized peeling: (k,l)-core extraction and the full decomposition.

This is the sequential baseline and the ground truth the distributed
algorithms are verified against.  One bucket peel, _peel, serves every
routine here: by in-degree for kmax, by out-degree for lmax, and by
out-degree under an in-degree floor k for column k of the anchored table
and for dcore.  Under a floor k it peels the whole graph and returns
l_max(v, k) inside the (k, 0)-core and -1 outside it, so dcore(g, k, l) is
one peel filtered at >= l.  It works on its own degree arrays; the input
graph is never mutated.
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

    The vertices whose l_max(v, k) is at least l, read off one bucket peel;
    l_max is -1 outside the (k, 0)-core, so l = 0 gives that core.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    return {v for v, lmax in enumerate(_peel(g.in_adj, g.out_adj, k)) if lmax >= l}


def in_core_numbers(g: DirectedGraph) -> list[int]:
    """kmax(v): the largest k with v in the (k, 0)-core, via bucket peeling."""
    return _peel(g.out_adj, g.in_adj, 0)


def out_core_numbers(g: DirectedGraph) -> list[int]:
    """lmax(v): the largest l with v in the (0, l)-core."""
    return _peel(g.in_adj, g.out_adj, 0)


def peel_decompose(g: DirectedGraph) -> AnchoredTable:
    """Full anchored decomposition: one whole-graph bucket peel per k.

    Column k of the table is _peel with in-degree floor k, for every k up
    to the largest kmax; a vertex's row keeps the entries that are not -1.
    """
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for k in range(max(in_core_numbers(g), default=0) + 1):
        for row, lmax in zip(rows, _peel(g.in_adj, g.out_adj, k)):
            if lmax >= 0:
                row.append(lmax)
    return AnchoredTable(rows)


def _peel(ins: list[list[int]], outs: list[list[int]], k: int) -> list[int]:
    """l_max(v, k) for every v inside the (k, 0)-core, and -1 outside it.

    The O(n + m) bucket peel of Batagelj and Zaversnik (2003) on out-degree
    (the length of outs[v] inside the survivors), under an in-degree floor
    k.  Level -1 holds the vertices of in-degree below k and removes the
    complement of the (k, 0)-core; level d >= 0 removes every survivor
    outside the (k, d + 1)-core.  Removing v lowers its in-neighbours'
    out-degrees, never below d, and its out-neighbours' in-degrees; a
    vertex whose in-degree falls below k is capped at d and joins the
    current bucket.  With k = 0 the floor never binds and is not walked.
    Swapping ins and outs peels by in-degree.
    """
    indeg = [len(a) for a in ins]
    outdeg = [len(a) for a in outs]
    buckets: list[list[int]] = [[] for _ in range(max(outdeg, default=0) + 2)]
    for v, d in enumerate(outdeg):
        buckets[0 if indeg[v] < k else d + 1].append(v)
    alive = [True] * len(ins)
    lmax = [-1] * len(ins)
    for d, bucket in enumerate(buckets, start=-1):
        for v in bucket:  # grows while it is walked
            if not alive[v]:
                continue
            alive[v] = False
            lmax[v] = d
            for w in ins[v]:
                if alive[w] and outdeg[w] > d:
                    outdeg[w] -= 1
                    buckets[outdeg[w] + 1].append(w)
            if k:
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
