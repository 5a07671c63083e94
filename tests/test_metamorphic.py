"""Relabelling and disjoint-union properties of both distributed algorithms.

Neither property needs the oracle: relabelling the vertices must permute
the results, and the decomposition of G + H (disjoint union) must be the
decompositions of G and H side by side.  Both run in vertex mode and in
hash-3 block mode, whose blocks differ between the graphs compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.anchored import anchored_decompose
from dcore.graph import build_graph, make_partition
from dcore.skyline import skyline_decompose

from conftest import drawn_graphs


def _arcs(g, shift=0):
    return [(u + shift, v + shift) for u in range(g.n) for v in g.out_adj[u]]


def _results(g):
    """Anchored rows and skylines in vertex mode and in hash-3 block mode."""
    parts = make_partition("hash", g, 3)
    return [
        (anchored_decompose(g)[0].rows, skyline_decompose(g)[0]),
        (anchored_decompose(g, parts, "block")[0].rows, skyline_decompose(g, parts, "block")[0]),
    ]


@st.composite
def relabelled(draw):
    g = draw(drawn_graphs)
    perm = draw(st.permutations(range(g.n)))
    return g, perm, build_graph(g.n, [(perm[u], perm[v]) for u, v in _arcs(g)])


@settings(max_examples=30, deadline=None)
@given(case=relabelled())
def test_relabelling_permutes_both_decompositions(case):
    g, perm, h = case
    for (rows, skys), (rows_h, skys_h) in zip(_results(g), _results(h)):
        assert [rows_h[perm[v]] for v in range(g.n)] == rows
        assert [skys_h[perm[v]] for v in range(g.n)] == skys


@settings(max_examples=30, deadline=None)
@given(g=drawn_graphs, h=drawn_graphs)
def test_disjoint_union_decomposes_into_its_components(g, h):
    union = build_graph(g.n + h.n, _arcs(g) + _arcs(h, g.n))
    for (rows, skys), (rows_g, skys_g), (rows_h, skys_h) in zip(
        _results(union), _results(g), _results(h)
    ):
        assert rows == rows_g + rows_h
        assert skys == skys_g + skys_h
