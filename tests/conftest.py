"""Shared fixtures: two reference graphs, a skewed generator, dataset discovery.

The two reference graphs have hand-checked decompositions, down to the
per-superstep traces of every algorithm phase; test_peel.py re-derives all
of those expected values from the peeling oracle before the rest of the
suite leans on them.
"""

from __future__ import annotations

import gzip
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from dcore.graph import DirectedGraph, build_graph, generate_random_digraph
from dcore.skyline import tight_init

# 8-vertex reference graph, labels 1..8.  Small enough to check by hand,
# rich enough to exercise every phase: heterogeneous kmax (vertex 7 lags),
# zero-out-degree sinks (2, 3), a (2,2)-core {1,4,5,6} the (0,2)-core
# extends by vertex 7, and exactly nine distinct non-empty cores.
REF8_ARCS = [
    (1, 5), (1, 6), (1, 8),
    (4, 1), (4, 2), (4, 3), (4, 5), (4, 8),
    (5, 2), (5, 4), (5, 6),
    (6, 1), (6, 4),
    (7, 1), (7, 6),
    (8, 3), (8, 7),
]

REF8_KMAX = [2, 2, 2, 2, 2, 2, 1, 2]
REF8_INDEG = [3, 2, 2, 2, 2, 3, 1, 2]
REF8_OUTDEG = [3, 0, 0, 5, 3, 2, 2, 2]
REF8_LUPP = [[2, 2, 2], [0, 0, 0], [0, 0, 0], [2, 2, 2],
             [2, 2, 2], [2, 2, 2], [2, 2], [1, 1, 0]]
REF8_LMAX = [[2, 2, 2], [0, 0, 0], [0, 0, 0], [2, 2, 2],
             [2, 2, 2], [2, 2, 2], [2, 1], [1, 1, 0]]
REF8_TIGHT_INIT = [(2, 2), (2, 0), (2, 0), (2, 2), (2, 2), (2, 2), (1, 2), (2, 1)]
REF8_SKYLINE = [[(2, 2)], [(2, 0)], [(2, 0)], [(2, 2)],
                [(2, 2)], [(2, 2)], [(0, 2), (1, 1)], [(1, 1), (2, 0)]]

# 7-vertex reference graph, labels 1..7: a complete digraph on {1,3,5,6}
# plus satellites 2, 4, 7 wired so the whole graph is a (2,2)-core while
# the satellites' skyline sets differ in size and shape.
REF7_ARCS = [
    (1, 3), (1, 5), (1, 6),
    (3, 1), (3, 5), (3, 6),
    (5, 1), (5, 3), (5, 6),
    (6, 1), (6, 3), (6, 5),
    (3, 2), (4, 2), (5, 2), (7, 2),
    (1, 7), (5, 7), (6, 7),
    (2, 1), (2, 4),
    (4, 7),
    (7, 4),
]

REF7_PHI_V2 = [(0, 2), (1, 2), (2, 2), (3, 1)]
REF7_SC = {
    2: [(2, 2), (3, 1)],
    3: [(3, 3)],
    4: [(2, 2)],
    5: [(3, 3)],
    7: [(2, 2), (3, 1)],
}


def _labeled_graph(labeled_arcs, n):
    return build_graph(
        n, [(u - 1, v - 1) for u, v in labeled_arcs], labels=list(range(1, n + 1))
    )


@pytest.fixture(scope="session")
def ref8() -> DirectedGraph:
    return _labeled_graph(REF8_ARCS, 8)


@pytest.fixture(scope="session")
def ref7() -> DirectedGraph:
    return _labeled_graph(REF7_ARCS, 7)


def pa_digraph(n: int, d: int, seed: int) -> DirectedGraph:
    """Skewed digraph by preferential attachment, seeded with random.Random.

    Every vertex v >= d links to d distinct earlier vertices, each drawn with
    probability proportional to its degree (vertices 0..d-1 count one extra),
    and a fair coin orients each of those arcs.
    """
    rng = random.Random(seed)
    weighted = list(range(d))
    arcs = []
    for v in range(d, n):
        ends = set()
        while len(ends) < d:
            ends.add(rng.choice(weighted))
        for u in sorted(ends):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        weighted += sorted(ends) + [v] * d
    return build_graph(n, arcs)


# Small graphs for the oracle properties: G(n, p) and preferential attachment.
drawn_graphs = st.one_of(
    st.builds(
        generate_random_digraph,
        n=st.integers(0, 40),
        p=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        pa_digraph, n=st.integers(0, 60), d=st.integers(1, 4), seed=st.integers(0, 2**16)
    ),
)


# Graphs of the from-scratch comparison and arc-reversal tests: the two
# fixtures by name, G(n, p) graphs by generate_random_digraph arguments and
# a skewed graph by pa_digraph arguments after "pa".
GRAPH_SOURCES = ["ref7", "ref8", (40, 0.25, 1), (60, 0.12, 2), (80, 0.1, 3), ("pa", 60, 3, 1)]


def graph_from(source, request) -> DirectedGraph:
    if isinstance(source, str):
        return request.getfixturevalue(source)
    if source[0] == "pa":
        return pa_digraph(*source[1:])
    return generate_random_digraph(*source)


def boxes(pairs):
    """The skyline D-index's start rows: [L] * (K + 1) for each (K, L)."""
    return [[L] * (K + 1) for K, L in pairs]


def tight_pairs(g, parts=None, mode="vertex"):
    """tight_init's (K, L) = (kmax(v), lmax(v)) for every vertex."""
    return [(K, L) for K, _, L, _ in tight_init(g, parts, mode)[0]]


def check_consistency(g: DirectedGraph) -> None:
    """Validator walk over g's adjacency invariants."""
    assert len(g.in_adj) == g.n and len(g.out_adj) == g.n
    assert len(g.labels) == g.n
    assert len(set(g.labels)) == g.n
    out_sets = [set(a) for a in g.out_adj]
    in_sets = [set(a) for a in g.in_adj]
    for v in range(g.n):
        assert g.out_adj[v] == sorted(out_sets[v]), "unsorted or duplicate out-arc"
        assert g.in_adj[v] == sorted(in_sets[v]), "unsorted or duplicate in-arc"
        assert v not in out_sets[v], "self-loop"
        for u in g.in_adj[v]:
            assert v in out_sets[u], "in/out adjacency mismatch"
        for w in g.out_adj[v]:
            assert v in in_sets[w], "out/in adjacency mismatch"
    assert sum(len(a) for a in g.in_adj) == sum(len(a) for a in g.out_adj)


def reversed_graph(g: DirectedGraph) -> DirectedGraph:
    """The same vertices and labels with every arc turned around."""
    return build_graph(g.n, [(v, u) for u in range(g.n) for v in g.out_adj[u]], g.labels)


def transposed(skys):
    """Every skyline with each pair (k, l) swapped to (l, k), k-ascending."""
    return [sorted((l, k) for k, l in sky) for sky in skys]


def clipped_histogram(values, top):
    """hist[b] = how many values equal b, with every value >= top in hist[top].

    Negative values stand for "absent" and are not counted.
    """
    hist = [0] * (top + 1)
    for x in values:
        if x >= 0:
            hist[min(x, top)] += 1
    return hist


class DeliveryLog:
    """What record_deliveries saw.

    last maps id(state) to a dict from sender to the last value it
    delivered there; count is the number of recipient states handed over.
    """

    def __init__(self):
        self.last: dict = {}
        self.count = 0


def record_deliveries(program, start=None) -> DeliveryLog:
    """Record, per receiving state, the last value each sender delivered.

    Wraps program.on_broadcast and checks each recipient state of each
    call before forwarding the call to the program.  Values are
    ints for (old, new) payloads and dicts {k: value} for payloads of
    (k, old, new) triples.  start gives each sender's value before its
    first delta: an int for every slot (phases I and II), or RowProgram's
    start list, whose rows an out-neighbor's table counts from the start
    (-1 past its last row); a value the sender never sent stays there.  An
    H-index init is a drop from n, above every value, so phase I's start
    is n.  Phase II's exclusion (width, lmax, -1) stands for (j, lmax, -1)
    for every slot j >= width of the receiver: the sender is no longer
    counted there.  RowProgram's init triple (k, -1, value) stands for (j,
    -1, value) for every j after the previous triple's k up to k, and must
    be the first value delivered at j.  Any other delta's old must equal
    the value recorded before it, which checks that every delta arrives
    exactly once and in order.
    """
    log = DeliveryLog()
    hook = program.on_broadcast

    def before(sender, k):
        if start is None:
            return -1
        value = start[sender]
        if isinstance(value, int):
            return value
        return value[k] if k < len(value) else -1

    def on_broadcast(states, rs, sender, payload, wake):
        log.count += len(rs)
        for r in rs:
            state = states[r]
            seen = log.last.setdefault(id(state), {})
            if isinstance(payload[0], int):
                old, new = payload
                assert seen.get(sender, before(sender, 0)) == old, (sender, payload)
                seen[sender] = new
            else:
                slots = seen.setdefault(sender, {})
                count = None if start is None else len(state.arr)
                for k, old, new in _delta_triples(payload, count):
                    if old < 0:
                        assert k not in slots, (sender, k, payload)
                    else:
                        assert slots.get(k, before(sender, k)) == old, (sender, k, payload)
                    slots[k] = new
        hook(states, rs, sender, payload, wake)

    program.on_broadcast = on_broadcast
    return log


def _delta_triples(payload, count=None):
    """The (k, old, new) triples a payload stands for, one per slot.

    count is the receiver's slot count in phase II, where a triple with
    new = -1 is the exclusion and covers every slot from its k on.
    """
    if payload[0][1] < 0:
        runs, start = [], 0
        for k, old, value in payload:
            assert old == -1 and k >= start, payload
            runs += [(j, -1, value) for j in range(start, k + 1)]
            start = k + 1
        return runs
    if count is not None and payload[0][2] < 0:
        ((k, old, _),) = payload
        return [(j, old, -1) for j in range(k, count)]
    return payload


# ---------------------------------------------------------------------------
# Real datasets.  Criteria that depend on them skip when no local copy is
# present; the suite never reaches the network.

SNAP_FILES = {
    "wiki-vote": ("wiki-Vote.txt", "https://snap.stanford.edu/data/wiki-Vote.txt.gz"),
    "email-euall": ("email-EuAll.txt", "https://snap.stanford.edu/data/email-EuAll.txt.gz"),
}


def _data_dirs():
    dirs = []
    env = os.environ.get("DCORE_DATA")
    if env:
        dirs.append(Path(env))
    dirs.append(Path(__file__).resolve().parent.parent / "data")
    return dirs


def dataset_text(key: str) -> str | None:
    """Text of a local copy of the dataset, or None; never downloads."""
    name, _ = SNAP_FILES[key]
    for d in _data_dirs():
        for candidate in (d / name, d / (name + ".gz")):
            if candidate.exists():
                if candidate.suffix == ".gz":
                    return gzip.decompress(candidate.read_bytes()).decode("utf-8")
                return candidate.read_text(encoding="utf-8")
    return None


def require_dataset(key: str) -> str:
    text = dataset_text(key)
    if text is None:
        name, url = SNAP_FILES[key]
        pytest.skip(
            f"dataset {name} not found under data/ or $DCORE_DATA; the suite "
            f"never downloads, so place a copy of {url} there"
        )
    return text
