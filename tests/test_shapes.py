"""Adversarial graph shapes: both distributed algorithms against the peel oracle.

A star's hub has the largest fan-out a graph of its size allows and an
isolated vertex the empty one; a complete digraph puts every vertex in the
top core; a transitive tournament is acyclic, so every in- or out-core
above 0 is empty; a long directed cycle is one core in which every vertex
has one neighbor on each side.  Edge-list labels with gaps are interned
to dense ids.

Some families have an anchored table in closed form, so peel, anchored and
skyline are also checked against that formula rather than against peel:
a complete digraph on s vertices has every row [s - 1] * s, and so has
each component of a disjoint union of them; a directed cycle has every row
[1, 1], a bidirected one [2, 2, 2], and a transitive tournament [0].
"""

import pytest

from dcore.anchored import anchored_decompose
from dcore.graph import build_graph, make_partition, parse_edge_list
from dcore.peel import anchored_to_skyline, peel_decompose
from dcore.skyline import skyline_decompose, skyline_table

LEAVES = 40

SHAPES = {
    "in-star": lambda: build_graph(LEAVES + 1, [(i, 0) for i in range(1, LEAVES + 1)]),
    "out-star": lambda: build_graph(LEAVES + 1, [(0, i) for i in range(1, LEAVES + 1)]),
    "two-way star": lambda: build_graph(
        LEAVES + 1, [a for i in range(1, LEAVES + 1) for a in ((i, 0), (0, i))]
    ),
    "complete digraph": lambda: build_graph(
        12, [(u, v) for u in range(12) for v in range(12) if u != v]
    ),
    "transitive tournament": lambda: build_graph(
        30, [(u, v) for u in range(30) for v in range(u + 1, 30)]
    ),
    "long cycle": lambda: build_graph(300, [(v, (v + 1) % 300) for v in range(300)]),
    "isolated vertices": lambda: parse_edge_list(
        "# n=12\n0 1\n1 2\n2 0\n2 3\n3 2\n7 11\n"
    ),
    "sparse labels": lambda: parse_edge_list(
        "5 900000\n900000 5\n5 70\n70 900000\n900000 70\n70 5\n31 5\n"
    ),
}


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_equals_oracle(shape, mode):
    g = SHAPES[shape]()
    parts = make_partition("hash", g, 3) if mode == "block" else None
    table = peel_decompose(g)
    assert anchored_decompose(g, parts, mode)[0].rows == table.rows
    assert skyline_decompose(g, parts, mode)[0] == anchored_to_skyline(table)


def _complete_digraphs(sizes):
    """The disjoint union of complete digraphs of the given sizes."""
    arcs, base = [], 0
    for s in sizes:
        arcs += [(base + u, base + v) for u in range(s) for v in range(s) if u != v]
        base += s
    return build_graph(base, arcs)


def _cycle(n, steps):
    return build_graph(n, [(v, (v + d) % n) for v in range(n) for d in steps])


CLOSED_FORMS = {
    "complete K40": lambda: (_complete_digraphs([40]), [[39] * 40] * 40),
    "K3 + K5 + K8": lambda: (
        _complete_digraphs([3, 5, 8]),
        [[s - 1] * s for s in (3, 5, 8) for _ in range(s)],
    ),
    "directed cycle C5000": lambda: (_cycle(5000, (1,)), [[1, 1]] * 5000),
    "bidirected cycle C5000": lambda: (_cycle(5000, (1, -1)), [[2, 2, 2]] * 5000),
    "transitive tournament T60": lambda: (
        build_graph(60, [(u, v) for u in range(60) for v in range(u + 1, 60)]),
        [[0]] * 60,
    ),
}


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_closed_form_family(family, mode):
    g, rows = CLOSED_FORMS[family]()
    parts = make_partition("hash", g, 4) if mode == "block" else None
    assert peel_decompose(g).rows == rows
    assert anchored_decompose(g, parts, mode)[0].rows == rows
    assert skyline_table(g, parts, mode)[0].rows == rows
