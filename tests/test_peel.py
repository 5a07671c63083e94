"""Peeling oracle tests, including validation of the reconstructed fixtures."""

import random

import pytest
from hypothesis import given, settings

import dcore.peel as peel_module
from dcore.graph import build_graph, generate_random_digraph
from dcore.peel import (
    _peel,
    anchored_to_skyline,
    dcore,
    in_core_numbers,
    out_core_numbers,
    peel_decompose,
)

from _naive import naive_anchored_rows, naive_dcore, naive_skyline
from conftest import (
    REF7_PHI_V2,
    REF7_SC,
    REF8_INDEG,
    REF8_KMAX,
    REF8_LMAX,
    REF8_OUTDEG,
    REF8_SKYLINE,
    GRAPH_SOURCES,
    check_consistency,
    drawn_graphs,
    graph_from,
)


def test_dcore_whole_graph_at_zero(ref8):
    assert dcore(ref8, 0, 0) == set(range(8))


def test_dcore_ref8_worked_example(ref8):
    assert sorted(ref8.labels[v] for v in dcore(ref8, 2, 2)) == [1, 4, 5, 6]


def test_dcore_matches_naive_fixpoint_on_random_graph():
    g = generate_random_digraph(30, 0.2, seed=7)
    assert dcore(g, 2, 1) == naive_dcore(g, 2, 1)


def test_dcore_matches_naive_on_grid_of_random_graphs():
    for seed in range(6):
        g = generate_random_digraph(25, 0.18, seed=seed)
        for k in range(4):
            for l in range(4):
                assert dcore(g, k, l) == naive_dcore(g, k, l), (seed, k, l)


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_peel_is_minus_one_exactly_off_the_k0_core(source, request):
    g = graph_from(source, request)
    rows = naive_anchored_rows(g)
    top = max(len(row) for row in rows) - 1
    for k in range(top + 2):
        core = naive_dcore(g, k, 0)
        want = [rows[v][k] if v in core else -1 for v in range(g.n)]
        assert _peel(g.in_adj, g.out_adj, k) == want, k


def test_dcore_is_one_peel(ref8, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(peel_module, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(peel_module, name, wrapped)

    spy("_peel")
    spy("in_core_numbers")
    assert sorted(ref8.labels[v] for v in dcore(ref8, 2, 2)) == [1, 4, 5, 6]
    assert calls == ["_peel"]


def test_dcore_rejects_negative_bounds(ref8):
    with pytest.raises(ValueError):
        dcore(ref8, -1, 0)


def test_partial_nesting_on_random_graphs():
    for seed in (0, 1, 2):
        g = generate_random_digraph(40, 0.15, seed=seed)
        cores = {(k, l): dcore(g, k, l) for k in range(5) for l in range(5)}
        for (k1, l1), c1 in cores.items():
            for (k2, l2), c2 in cores.items():
                if k1 >= k2 and l1 >= l2:
                    assert c1 <= c2


def test_dcore_maximality():
    g = generate_random_digraph(25, 0.2, seed=13)
    for k, l in [(1, 1), (2, 1), (2, 2)]:
        core = dcore(g, k, l)
        for extra in set(range(g.n)) - core:
            grown = core | {extra}
            indeg = sum(1 for u in g.in_adj[extra] if u in grown)
            outdeg = sum(1 for u in g.out_adj[extra] if u in grown)
            # the added vertex itself must violate a bound, else not maximal
            assert indeg < k or outdeg < l


# --- fixture validation: every expected value re-derived from the oracle ---


def test_ref8_reconstruction_is_faithful(ref8):
    check_consistency(ref8)
    assert [len(ref8.in_adj[v]) for v in range(8)] == REF8_INDEG
    assert [len(ref8.out_adj[v]) for v in range(8)] == REF8_OUTDEG
    assert sorted(ref8.labels[u] for u in ref8.in_adj[0]) == [4, 6, 7]
    assert sorted(ref8.labels[v] for v in dcore(ref8, 0, 2)) == [1, 4, 5, 6, 7]
    # exactly nine distinct non-empty cores
    distinct = {
        frozenset(dcore(ref8, k, l))
        for k in range(4)
        for l in range(4)
        if dcore(ref8, k, l)
    }
    named = {
        (k, l): frozenset(dcore(ref8, k, l))
        for k, l in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2), (2, 0)]
    }
    assert len(named) == 9
    assert named[(0, 0)] == named[(1, 0)] == frozenset(range(8))
    assert named[(0, 1)] == named[(1, 1)]
    assert named[(1, 2)] == named[(2, 1)] == named[(2, 2)]
    assert len(distinct) == 5  # G, H1, H2, H3 and the (0,2)-core
    assert dcore(ref8, 3, 0) == set() and dcore(ref8, 0, 3) == set()


def test_ref8_table_matches_oracle(ref8):
    table = peel_decompose(ref8)
    assert table.rows == REF8_LMAX
    assert table.rows == naive_anchored_rows(ref8)
    assert [len(row) - 1 for row in table.rows] == REF8_KMAX
    assert anchored_to_skyline(table) == REF8_SKYLINE


def test_ref7_reconstruction_is_faithful(ref7):
    check_consistency(ref7)
    assert dcore(ref7, 2, 2) == set(range(7))
    assert sorted(ref7.labels[u] for u in ref7.in_adj[1]) == [3, 4, 5, 7]
    table = peel_decompose(ref7)
    assert table.rows == naive_anchored_rows(ref7)
    assert list(enumerate(table.rows[1])) == REF7_PHI_V2
    skys = anchored_to_skyline(table)
    for label, want in REF7_SC.items():
        assert skys[label - 1] == want, label


@settings(max_examples=40, deadline=None)
@given(g=drawn_graphs)
def test_table_equals_naive_on_drawn_graphs(g):
    assert peel_decompose(g).rows == naive_anchored_rows(g)


def test_peel_on_arcless_graph():
    table = peel_decompose(build_graph(3, []))
    assert table.rows == [[0], [0], [0]]


def test_table_equals_grid_membership():
    g = generate_random_digraph(30, 0.2, seed=21)
    table = peel_decompose(g)
    for k in range(5):
        core = dcore(g, k, 0)
        assert core == {v for v in range(g.n) if len(table.rows[v]) > k}
        for l in range(5):
            members = dcore(g, k, l)
            derived = {
                v
                for v in range(g.n)
                if len(table.rows[v]) > k and table.rows[v][k] >= l
            }
            assert members == derived, (k, l)


def test_anchored_rows_non_increasing():
    for seed in range(4):
        g = generate_random_digraph(35, 0.2, seed=seed)
        table = peel_decompose(g)
        for v in range(g.n):
            row = table.rows[v]
            assert all(a >= b for a, b in zip(row, row[1:]))
            assert len(row) - 1 <= len(g.in_adj[v])
            assert row[0] <= len(g.out_adj[v])


def test_directional_core_numbers_match_membership():
    graphs = [build_graph(0, [])]
    graphs += [generate_random_digraph(40, 0.12, seed=seed + 50) for seed in range(4)]
    for g in graphs:
        naive_k = [0] * g.n
        naive_l = [0] * g.n
        k = 1
        while True:
            core = naive_dcore(g, k, 0)
            if not core:
                break
            for v in core:
                naive_k[v] = k
            k += 1
        l = 1
        while True:
            core = naive_dcore(g, 0, l)
            if not core:
                break
            for v in core:
                naive_l[v] = l
            l += 1
        assert in_core_numbers(g) == naive_k
        assert out_core_numbers(g) == naive_l


def test_anchored_to_skyline_rows():
    # converged single-pair row and trivial row
    from dcore.peel import AnchoredTable

    t = AnchoredTable([[2, 2, 2], [0]])
    assert anchored_to_skyline(t) == [[(2, 2)], [(0, 0)]]


def test_anchored_to_skyline_matches_naive():
    rng = random.Random(3)
    for _ in range(30):
        row = sorted((rng.randrange(5) for _ in range(rng.randrange(1, 6))), reverse=True)
        from dcore.peel import AnchoredTable

        t = AnchoredTable([list(row)])
        assert anchored_to_skyline(t)[0] == naive_skyline(
            [(k, l) for k, l in enumerate(row)]
        )
