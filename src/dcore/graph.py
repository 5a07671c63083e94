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

    @property
    def id_map(self) -> dict[int, int]:
        return {lab: v for v, lab in enumerate(self.labels)}

    @cached_property
    def both_adj(self) -> list[list[int]]:
        """Ascending in- and out-neighbors of every vertex, built on first use."""
        return [sorted(set(i).union(o)) for i, o in zip(self.in_adj, self.out_adj)]

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self.out_adj)

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(len(self.in_adj[v]) + len(self.out_adj[v]) for v in range(self.n))

    def arcs(self):
        for u in range(self.n):
            for v in self.out_adj[u]:
                yield (u, v)

    def check_consistency(self) -> None:
        """Validator walk over the adjacency invariants (used by tests)."""
        assert len(self.in_adj) == self.n and len(self.out_adj) == self.n
        assert len(self.labels) == self.n
        assert len(set(self.labels)) == self.n
        out_sets = [set(a) for a in self.out_adj]
        in_sets = [set(a) for a in self.in_adj]
        for v in range(self.n):
            assert self.out_adj[v] == sorted(out_sets[v]), "unsorted or duplicate out-arc"
            assert self.in_adj[v] == sorted(in_sets[v]), "unsorted or duplicate in-arc"
            assert v not in out_sets[v], "self-loop"
            for u in self.in_adj[v]:
                assert v in out_sets[u], "in/out adjacency mismatch"
            for w in self.out_adj[v]:
                assert v in in_sets[w], "out/in adjacency mismatch"
        assert sum(len(a) for a in self.in_adj) == sum(len(a) for a in self.out_adj)


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
    for u in range(n):
        for v in out_adj[u]:
            in_adj[v].append(u)
    for a in in_adj:
        a.sort()
    return DirectedGraph(n=n, in_adj=in_adj, out_adj=out_adj, labels=labels)


def _iter_lines(source):
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return source.splitlines()
    return source


def parse_edge_list_report(source) -> tuple[DirectedGraph, ParseReport]:
    """Parse SNAP-style edge-list text into a graph plus cleaning stats.

    Lines starting with '#' are comments; a `# n=<count>` comment declares
    vertices 0..count-1 up front so isolated vertices survive a round trip.
    Each remaining line must be two integer labels `src dst`.
    """
    label_to_id: dict[int, int] = {}
    labels: list[int] = []
    arcs: list[tuple[int, int]] = []
    self_loops = 0
    declared_n = None

    def intern(label: int) -> int:
        dense = label_to_id.get(label)
        if dense is None:
            dense = len(labels)
            label_to_id[label] = dense
            labels.append(label)
        return dense

    for lineno, raw in enumerate(_iter_lines(source), start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
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
                    for lab in range(declared_n):
                        intern(lab)
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
            intern(a)
            continue
        arcs.append((intern(a), intern(b)))

    g = build_graph(len(labels), arcs, labels)
    return g, ParseReport(
        self_loops_dropped=self_loops, duplicates_dropped=len(arcs) - g.num_arcs
    )


def parse_edge_list(source) -> DirectedGraph:
    g, _ = parse_edge_list_report(source)
    return g


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph back to edge-list text using its original labels.

    Emits a `# n=<count>` header only when some vertex appears in no arc,
    since a pure edge list cannot express isolated vertices.
    """
    touched = [False] * g.n
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.arcs():
            touched[u] = True
            touched[v] = True
        if not all(touched):
            fh.write(f"# n={g.n}\n")
        for u in range(g.n):
            for v in g.out_adj[u]:
                fh.write(f"{g.labels[u]} {g.labels[v]}\n")


@dataclass
class PartitionMap:
    """Assignment of every vertex to one of n_blocks blocks."""

    n_blocks: int
    block_of: list[int]

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for v, b in enumerate(self.block_of):
            out[b].append(v)
        return out


def hash_partition(g: DirectedGraph, n_blocks: int) -> PartitionMap:
    """Block i gets the vertices with v_id % n_blocks == i."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    return PartitionMap(n_blocks, [v % n_blocks for v in range(g.n)])


def segment_partition(g: DirectedGraph, n_blocks: int) -> PartitionMap:
    """Contiguous ID ranges of size ceil(n / n_blocks) per block."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if g.n == 0:
        return PartitionMap(n_blocks, [])
    cap = -(-g.n // n_blocks)
    return PartitionMap(n_blocks, [v // cap for v in range(g.n)])


PARTITIONERS = {"hash": hash_partition, "seg": segment_partition}


def make_partition(name: str, g: DirectedGraph, n_blocks: int) -> PartitionMap:
    try:
        fn = PARTITIONERS[name]
    except KeyError:
        raise ValueError(f"unknown partitioner {name!r}") from None
    return fn(g, n_blocks)


def induced_subgraph(g: DirectedGraph, keep) -> DirectedGraph:
    """Subgraph on `keep` (dense IDs), containing arcs with both ends kept.

    The subgraph's labels are inherited from g, so results can be mapped
    back to the parent graph's vertices.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    remap = {old: new for new, old in enumerate(kept)}
    arcs = [
        (remap[u], remap[v])
        for u in kept
        for v in g.out_adj[u]
        if v in remap
    ]
    return build_graph(len(kept), arcs, [g.labels[v] for v in kept])


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
