import io

import pytest

from dcore.graph import (
    EdgeListError,
    build_graph,
    generate_random_digraph,
    hash_partition,
    make_partition,
    parse_edge_list,
    parse_edge_list_report,
    segment_partition,
    write_edge_list,
)

from conftest import check_consistency


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
    assert sorted(g.arcs()) == [(0, 1), (1, 2)]


def test_parse_comments_and_blank_lines():
    text = "# header\n\n1 2\n# trailing\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.num_arcs == 2
    # a text handle yields lines that keep their newlines
    assert parse_edge_list(io.StringIO(text)) == g
    # a str splits at \r and \r\n too, as a text file opened with open() does
    for eol in ("\r\n", "\r"):
        other = text.replace("\n", eol)
        assert parse_edge_list(other) == parse_edge_list(io.StringIO(other, newline=None)) == g


def test_parse_n_header_declares_isolated_vertices():
    g = parse_edge_list("# n=4\n0 1\n")
    assert g.n == 4
    assert g.labels == [0, 1, 2, 3]
    assert len(g.out_adj[3]) == 0
    # a count that is not an integer is a plain comment, so the next header counts
    assert parse_edge_list("# n=x\n# n=3\n0 1\n").n == 3
    # only the first header counts, so a later one is a plain comment
    assert parse_edge_list("# n=2\n# n=5\n0 1\n").n == 2
    # the count follows the label rule, ASCII -?[0-9]+, so int()'s other
    # forms (1_0, +3, the Arabic-Indic digit three) make a plain comment
    for count in ("1_0", "+3", "\u0663"):
        assert parse_edge_list(f"# n={count}\n0 1\n").n == 2, count
        assert parse_edge_list(f"# n={count}\n# n=4\n0 1\n").n == 4, count


@pytest.mark.parametrize("text,fragment", [
    ("0 1\nx 2\n", "line 2"),
    ("0\n", "line 1"),
    ("0 1 2\n", "line 1"),
    # a form feed ends no line in a text file, so it must not in a str either
    ("1 2\x0c3 4\n", "line 1: expected 2 tokens, got 4"),
    ("1 2\u20283 4\n", "line 1: expected 2 tokens, got 4"),
    # only the first header counts, so a negative one must not pass silently
    ("# n=-2\n# n=3\n0 1\n", "line 1: negative vertex count -2"),
    # a label is ASCII -?[0-9]+: int() would read 1_0 as 10, +1 as 1 and the
    # Arabic-Indic digit three as 3, merging distinct tokens into one label
    ("10 3\n1_0 2\n", "line 2: non-integer vertex label"),
    ("1 2\n+1 2\n", "line 2: non-integer vertex label"),
    ("\u0663 1\n", "line 1: non-integer vertex label"),
    ("1 \uff12\n", "line 1: non-integer vertex label"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(text)
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(io.StringIO(text))


@pytest.mark.parametrize("label", ["1_0", "+1", "\u0663", "\uff12"])
def test_a_bad_label_among_clean_lines_names_its_line(label):
    # A str is checked line by line only when the whole text holds a
    # character outside ASCII, "_" or "+"; the error must still name the line.
    clean = "".join(f"{u} {u + 1}\n" for u in range(5))
    for text in (clean + f"{label} 3\n" + clean, clean + f"3 {label}\n"):
        with pytest.raises(EdgeListError, match="line 6: non-integer vertex label"):
            parse_edge_list(text)
        with pytest.raises(EdgeListError, match="line 6: non-integer vertex label"):
            parse_edge_list(io.StringIO(text))


def test_suspect_characters_in_comments_are_not_labels():
    text = "# a_b +c \u0663\n0 1\n# n=+2\n1 2\n"
    assert parse_edge_list(text) == parse_edge_list(io.StringIO(text))
    assert parse_edge_list(text).labels == [0, 1, 2]


def test_leading_zeros_and_signs_read_as_one_label():
    g = parse_edge_list("007 -1\n7 -01\n-0 7\n")
    assert g.labels == [7, -1, 0]
    assert g.num_arcs == 2


def test_adjacency_invariants_on_parsed_graph():
    g = parse_edge_list("3 1\n1 3\n1 2\n2 3\n3 3\n1 2\n")
    check_consistency(g)
    assert sum(len(g.in_adj[v]) for v in range(g.n)) == g.num_arcs


def test_hash_partition_rule():
    g = build_graph(5, [])
    assert hash_partition(g, 2) == [0, 1, 0, 1, 0]
    assert hash_partition(g, 1) == [0, 0, 0, 0, 0]
    g8 = build_graph(8, [])
    assert hash_partition(g8, 3) == [0, 1, 2, 0, 1, 2, 0, 1]


def test_segment_partition_rule():
    g8 = build_graph(8, [])
    assert segment_partition(g8, 2) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert segment_partition(g8, 1) == [0] * 8
    g5 = build_graph(5, [])
    assert segment_partition(g5, 2) == [0, 0, 0, 1, 1]


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
        assert a == b
        assert all(0 <= x < 4 for x in a)


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
        check_consistency(generate_random_digraph(30, 0.15, seed=seed))


def test_edge_list_round_trip(tmp_path):
    labeled = lambda graph: sorted(
        (graph.labels[u], graph.labels[v]) for u, v in graph.arcs()
    )
    path = tmp_path / "g.txt"
    # Labels 0..n-1 with isolated vertices take the `# n=` header.  Labels
    # [5, 6, 7] with 7 isolated cannot, so 7 is written as the line "7 7".
    sparse = generate_random_digraph(50, 0.01, seed=1)
    assert any(not (sparse.in_adj[v] or sparse.out_adj[v]) for v in range(50))
    for g, header in [
        (generate_random_digraph(25, 0.12, seed=7), False),
        (sparse, True),
        (parse_edge_list("5 6\n7 7\n"), False),
    ]:
        write_edge_list(g, path)
        text = path.read_text()
        assert text.startswith("# n=") == header
        back = parse_edge_list(text)
        assert back.n == g.n
        assert sorted(back.labels) == sorted(g.labels)
        assert labeled(back) == labeled(g)
    assert path.read_text() == "5 6\n7 7\n"
