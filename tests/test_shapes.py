"""Adversarial graph shapes: both distributed algorithms against the peel oracle.

A star's hub has the largest fan-out a graph of its size allows and an
isolated vertex the empty one; a complete digraph puts every vertex in the
top core; a transitive tournament is acyclic, so every in- or out-core
above 0 is empty; a long directed cycle is one core in which every vertex
has one neighbor on each side.  Edge-list labels with gaps are interned
to dense ids.
"""

import pytest

from dcore.anchored import anchored_decompose
from dcore.graph import build_graph, make_partition, parse_edge_list
from dcore.peel import anchored_to_skyline, peel_decompose
from dcore.skyline import skyline_decompose

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
