"""Directed graph container, edge-list ingestion, partitioning and generators.

Graphs are simple (no self-loops, no parallel arcs) and immutable once built.
Vertices carry dense integer IDs 0..n-1; the original labels from the input
file are kept for output translation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property


class EdgeListError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


@dataclass(frozen=True)
class ParseReport:
    """Cleaning statistics gathered while ingesting an edge list."""

    self_loops_dropped: int = 0
    duplicates_dropped: int = 0


@dataclass
class DirectedGraph:
    """Simple directed graph in dense-ID adjacency form.

    in_adj[v] and out_adj[v] are ascending lists of dense neighbor IDs.
    labels[v] is the original label of dense vertex v.
    """

    n: int
    in_adj: list[list[int]]
    out_adj: list[list[int]]
    labels: list[int]

    @cached_property
    def both_adj(self) -> list[list[int]]:
        """Ascending in- and out-neighbors of every vertex, built on first use."""
        return [sorted(set(i).union(o)) for i, o in zip(self.in_adj, self.out_adj)]

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self.out_adj)

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(len(self.in_adj[v]) + len(self.out_adj[v]) for v in range(self.n))

    def arcs(self):
        for u in range(self.n):
            for v in self.out_adj[u]:
                yield (u, v)


def build_graph(n: int, arcs, labels: list[int] | None = None) -> DirectedGraph:
    """Build a simple graph from (u, v) dense-ID pairs.

    Self-loops and duplicate arcs are dropped; adjacency lists come out
    sorted ascending so iteration order is reproducible.
    """
    if labels is None:
        labels = list(range(n))
    out_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u != v:
            out_sets[u].add(v)
    out_adj = [sorted(s) for s in out_sets]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):  # ascending u keeps every in_adj[v] sorted
        for v in out_adj[u]:
            in_adj[v].append(u)
    return DirectedGraph(n=n, in_adj=in_adj, out_adj=out_adj, labels=labels)


def parse_edge_list_report(source) -> tuple[DirectedGraph, ParseReport]:
    """Parse SNAP-style edge-list text into a graph plus cleaning stats.

    Lines starting with '#' are comments; the first `# n=<count>` comment
    declares vertices 0..count-1 up front so isolated vertices survive a
    round trip, and a negative count is an error.
    Each remaining line must be two integer labels `src dst`.  A line `L L`
    whose label appears on no other line is how write_edge_list writes an
    isolated vertex, so it is not counted as a dropped self-loop.  source
    is the whole text as one str or an iterable of str lines, such as a
    text file handle.
    """
    ids: dict[int, int] = {}  # label -> dense ID, in order of first appearance
    arcs: list[tuple[int, int]] = []
    self_loops = 0
    looped: set[int] = set()  # dense IDs named on a self-loop line
    declared_n = None
    # A str splits at \n, \r and \r\n only, as a text file does; the split
    # lines must not outlive the loop: build_graph is the peak.
    for lineno, raw in enumerate(
        source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if isinstance(source, str) else source, start=1
    ):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("n=") and declared_n is None:
                try:
                    declared_n = int(body[2:])
                except ValueError:
                    pass
                else:
                    if declared_n < 0:
                        raise EdgeListError(f"line {lineno}: negative vertex count {declared_n}")
                    for lab in range(declared_n):
                        ids.setdefault(lab, len(ids))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer vertex label") from None
        if a == b:
            self_loops += 1
            looped.add(ids.setdefault(a, len(ids)))
            continue
        arcs.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))

    g = build_graph(len(ids), arcs, list(ids))
    self_loops -= sum(1 for v in looped if not (g.in_adj[v] or g.out_adj[v]))
    return g, ParseReport(
        self_loops_dropped=self_loops, duplicates_dropped=len(arcs) - g.num_arcs
    )


def parse_edge_list(source) -> DirectedGraph:
    g, _ = parse_edge_list_report(source)
    return g


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph back to edge-list text using its original labels.

    A pure edge list cannot express isolated vertices.  When the labels are
    exactly 0..n-1, a `# n=<count>` header declares them all; otherwise each
    isolated vertex is written as a self-loop line `L L`, which the parser
    reads as a vertex with no arc and does not report as a dropped loop.
    """
    touched = [False] * g.n
    for u, v in g.arcs():
        touched[u] = touched[v] = True
    header = not all(touched) and all(0 <= label < g.n for label in g.labels)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# n={g.n}\n")
        for u in range(g.n):
            if not (touched[u] or header):
                fh.write(f"{g.labels[u]} {g.labels[u]}\n")
            for v in g.out_adj[u]:
                fh.write(f"{g.labels[u]} {g.labels[v]}\n")


def hash_partition(g: DirectedGraph, n_blocks: int) -> list[int]:
    """The block of every vertex: block i gets the v with v % n_blocks == i."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    return [v % n_blocks for v in range(g.n)]


def segment_partition(g: DirectedGraph, n_blocks: int) -> list[int]:
    """The block of every vertex: contiguous ID ranges of size ceil(n / n_blocks)."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if g.n == 0:
        return []
    cap = -(-g.n // n_blocks)
    return [v // cap for v in range(g.n)]


PARTITIONERS = {"hash": hash_partition, "seg": segment_partition}


def make_partition(name: str, g: DirectedGraph, n_blocks: int) -> list[int]:
    try:
        fn = PARTITIONERS[name]
    except KeyError:
        raise ValueError(f"unknown partitioner {name!r}") from None
    return fn(g, n_blocks)


def generate_random_digraph(n: int, p: float, seed: int) -> DirectedGraph:
    """G(n, p) digraph: each ordered pair (u, v), u != v, kept with prob p.

    The same (n, p, seed) always produces the same arc set.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = []
    if p > 0.0:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    arcs.append((u, v))
    return build_graph(n, arcs)
