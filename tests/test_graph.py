import random

import pytest

from dcore.graph import (
    EdgeListError,
    build_graph,
    generate_random_digraph,
    hash_partition,
    induced_subgraph,
    make_partition,
    parse_edge_list,
    parse_edge_list_report,
    segment_partition,
    write_edge_list,
)


def test_parse_two_cycle():
    g = parse_edge_list("0 1\n1 0\n")
    assert g.n == 2
    assert sorted(g.arcs()) == [(0, 1), (1, 0)]


def test_parse_drops_self_loops_and_duplicates():
    g, report = parse_edge_list_report("0 0\n0 1\n0 1\n")
    assert g.n == 2
    assert list(g.arcs()) == [(0, 1)]
    assert report.self_loops_dropped == 1
    assert report.duplicates_dropped == 1
    # A reverse arc is a distinct arc, not a duplicate.
    g, report = parse_edge_list_report("3 5\n3 5\n5 3\n3 5\n")
    assert sorted(g.arcs()) == [(0, 1), (1, 0)]
    assert report.self_loops_dropped == 0
    assert report.duplicates_dropped == 2


def test_parse_keeps_original_labels():
    g = parse_edge_list("100 7\n7 42\n")
    assert g.labels == [100, 7, 42]
    assert g.id_map == {100: 0, 7: 1, 42: 2}
    assert sorted(g.arcs()) == [(0, 1), (1, 2)]


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# header\n\n1 2\n# trailing\n2 3\n")
    assert g.n == 3 and g.num_arcs == 2


def test_parse_n_header_declares_isolated_vertices():
    g = parse_edge_list("# n=4\n0 1\n")
    assert g.n == 4
    assert g.labels == [0, 1, 2, 3]
    assert g.out_degree(3) == 0


@pytest.mark.parametrize("text,fragment", [
    ("0 1\nx 2\n", "line 2"),
    ("0\n", "line 1"),
    ("0 1 2\n", "line 1"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(text)


def test_adjacency_invariants_on_parsed_graph():
    g = parse_edge_list("3 1\n1 3\n1 2\n2 3\n3 3\n1 2\n")
    g.check_consistency()
    assert sum(g.in_degree(v) for v in range(g.n)) == g.num_arcs


def test_hash_partition_rule():
    g = build_graph(5, [])
    assert hash_partition(g, 2).block_of == [0, 1, 0, 1, 0]
    assert hash_partition(g, 1).block_of == [0, 0, 0, 0, 0]
    g8 = build_graph(8, [])
    assert hash_partition(g8, 3).block_of == [0, 1, 2, 0, 1, 2, 0, 1]


def test_segment_partition_rule():
    g8 = build_graph(8, [])
    assert segment_partition(g8, 2).block_of == [0, 0, 0, 0, 1, 1, 1, 1]
    assert segment_partition(g8, 1).block_of == [0] * 8
    g5 = build_graph(5, [])
    assert segment_partition(g5, 2).block_of == [0, 0, 0, 1, 1]


def test_partition_rejects_zero_blocks():
    g = build_graph(3, [])
    with pytest.raises(ValueError):
        hash_partition(g, 0)
    with pytest.raises(ValueError):
        segment_partition(g, 0)
    with pytest.raises(ValueError):
        make_partition("nope", g, 1)


def test_partitions_are_stable():
    g = generate_random_digraph(23, 0.2, seed=1)
    for name in ("hash", "seg"):
        a = make_partition(name, g, 4)
        b = make_partition(name, g, 4)
        assert a.block_of == b.block_of
        assert sorted(len(b) for b in a.blocks()) == sorted(len(b) for b in b.blocks())
        assert all(0 <= x < 4 for x in a.block_of)


def test_induced_subgraph_identity_and_empty():
    g = generate_random_digraph(12, 0.3, seed=2)
    same = induced_subgraph(g, range(g.n))
    assert same.n == g.n and sorted(same.arcs()) == sorted(g.arcs())
    empty = induced_subgraph(g, [])
    assert empty.n == 0 and empty.num_arcs == 0


def test_induced_subgraph_two_cycle_single_vertex():
    g = parse_edge_list("0 1\n1 0\n")
    sub = induced_subgraph(g, {0})
    assert sub.n == 1 and sub.num_arcs == 0


def test_induced_subgraph_counts_inside_arcs():
    rng = random.Random(9)
    g = generate_random_digraph(20, 0.25, seed=9)
    for _ in range(10):
        keep = sorted(rng.sample(range(g.n), rng.randrange(g.n + 1)))
        sub = induced_subgraph(g, keep)
        want = sum(1 for u, v in g.arcs() if u in set(keep) and v in set(keep))
        assert sub.num_arcs == want
        sub.check_consistency()
        assert sub.labels == [g.labels[v] for v in keep]


def test_induced_subgraph_range_check():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 5])


def test_generator_edge_cases():
    assert generate_random_digraph(10, 0.0, seed=3).num_arcs == 0
    full = generate_random_digraph(3, 1.0, seed=3)
    assert full.num_arcs == 6


def test_generator_is_deterministic():
    a = generate_random_digraph(50, 0.1, seed=1)
    b = generate_random_digraph(50, 0.1, seed=1)
    assert sorted(a.arcs()) == sorted(b.arcs())
    c = generate_random_digraph(50, 0.1, seed=2)
    assert sorted(a.arcs()) != sorted(c.arcs())


def test_generator_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_random_digraph(5, 1.5, seed=0)


def test_generator_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        generate_random_digraph(-3, 0.5, seed=0)


def test_generated_graphs_are_consistent():
    for seed in range(5):
        generate_random_digraph(30, 0.15, seed=seed).check_consistency()


def test_edge_list_round_trip(tmp_path):
    g = generate_random_digraph(25, 0.12, seed=7)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    back = parse_edge_list(path.read_text())
    assert back.n == g.n
    labeled = lambda graph: sorted(
        (graph.labels[u], graph.labels[v]) for u, v in graph.arcs()
    )
    assert labeled(back) == labeled(g)
