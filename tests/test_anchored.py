"""Anchored-coreness phases against the reference traces and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RowProgram,
    anchored_decompose,
    compute_kmax,
    compute_kmax_lmax,
    compute_lupp,
    refine,
)
from dcore.engine import default_superstep_cap, run_program, run_programs
from dcore.graph import build_graph, generate_random_digraph, make_partition
from dcore.peel import anchored_to_skyline, dcore, out_core_numbers, peel_decompose

from _naive import NaiveHIndexFixpoint, NaiveLuppProgram, NaiveRefineProgram, with_out_tables
from conftest import (
    GRAPH_SOURCES,
    REF7_PHI_V2,
    REF8_KMAX,
    REF8_LMAX,
    REF8_LUPP,
    clipped_histogram,
    drawn_graphs,
    graph_from,
    pa_digraph,
    record_deliveries,
    reversed_graph,
    transposed,
)


def _phase_one(g):
    """Phase I's seeds, and the kmax and lmax lists read off them."""
    seeds, _ = compute_kmax_lmax(g)
    return seeds, [k for k, _, _, _ in seeds], [lmax for _, _, lmax, _ in seeds]


def _phase_two(g):
    """compute_lupp's (l_upp, table) per vertex: phase III's starts."""
    return compute_lupp(g, compute_kmax_lmax(g)[0])[0]


def _lupps(g):
    return [arr for arr, _ in _phase_two(g)]


def test_phase1_ref8_trace(ref8):
    kmaxes, metrics = compute_kmax(ref8)
    assert kmaxes == REF8_KMAX
    # one round of changes (vertices 1 and 6 drop from 3) then quiet
    assert metrics.supersteps == 3
    assert metrics.messages_per_step[0] == ref8.num_arcs


def test_phase1_arcless_graph():
    g = build_graph(4, [])
    kmaxes, _ = compute_kmax(g)
    assert kmaxes == [0, 0, 0, 0]


def test_phase1_matches_oracle_core_sweep():
    g = generate_random_digraph(60, 0.1, seed=3)
    kmaxes, _ = compute_kmax(g)
    for k in range(max(kmaxes) + 2):
        members = dcore(g, k, 0)
        assert members == {v for v in range(g.n) if kmaxes[v] >= k}


def test_phase2_ref8_rows(ref8):
    lupps = _lupps(ref8)
    assert lupps == REF8_LUPP
    assert lupps[7] == [1, 1, 0]
    assert lupps[0] == [2, 2, 2]


def test_phase2_upper_bounds_dominate_oracle():
    for seed in (1, 5, 9):
        g = generate_random_digraph(45, 0.15, seed=seed)
        lupps = _lupps(g)
        table = peel_decompose(g)
        for v in range(g.n):
            assert len(lupps[v]) == len(table.rows[v])
            for k, bound in enumerate(lupps[v]):
                assert bound >= table.rows[v][k], (seed, v, k)


def test_phase3_ref8_rows(ref8):
    table, _ = refine(ref8, _phase_two(ref8))
    assert table.rows == REF8_LMAX
    assert table.rows[6] == [2, 1]   # v7 refined from [2, 2]
    assert table.rows[0] == [2, 2, 2]  # v1 unchanged


def test_refine_equals_oracle_on_random_graphs():
    for seed in range(8):
        g = generate_random_digraph(50 + 10 * seed, 0.9 / (8 + 4 * seed), seed=seed)
        table, _ = anchored_decompose(g)
        assert table.rows == peel_decompose(g).rows, seed


def test_full_decompose_fig_fixtures(ref7, ref8):
    t1, metrics1 = anchored_decompose(ref7)
    assert list(enumerate(t1.rows[1])) == REF7_PHI_V2
    t2, metrics2 = anchored_decompose(ref8)
    assert t2.rows == REF8_LMAX
    assert [m.phase for m in metrics2] == ["phase I", "phase II", "phase III"]


def test_full_decompose_arcless_graph():
    g = build_graph(3, [])
    table, _ = anchored_decompose(g)
    assert table.rows == [[0], [0], [0]]


def test_mode_equivalence_and_rounds_bound(ref8):
    g = generate_random_digraph(70, 0.08, seed=23)
    want = peel_decompose(g).rows
    cap = default_superstep_cap(g)
    for graph, expected in ((g, want), (ref8, REF8_LMAX)):
        vertex_table, vertex_metrics = anchored_decompose(graph, None, "vertex")
        assert vertex_table.rows == expected
        assert sum(m.supersteps for m in vertex_metrics) <= default_superstep_cap(graph)
        for blocks in (1, 2, 4, 8):
            for name in ("hash", "seg"):
                parts = make_partition(name, graph, blocks)
                table, metrics = anchored_decompose(graph, parts, "block")
                assert table.rows == expected, (blocks, name)
                for m_block, m_vertex in zip(metrics, vertex_metrics):
                    assert m_block.supersteps <= m_vertex.supersteps
    assert cap >= 10


def test_monotone_descent_all_phases(ref8):
    g = generate_random_digraph(40, 0.15, seed=31)
    for graph in (ref8, g):
        snaps = []
        prog = HIndexFixpoint("in")
        kmaxes, _ = run_program(
            prog,
            graph,
            observer=lambda _, states: snaps.append([s.value for s in states[0]]),
        )
        for before, after in zip(snaps, snaps[1:]):
            assert all(b <= a for a, b in zip(before, after))

        snaps = []
        lupps, _ = run_program(
            LuppProgram(compute_kmax_lmax(graph)[0]),
            graph,
            observer=lambda _, states: snaps.append([list(s.arr) for s in states[0]]),
        )
        for before, after in zip(snaps, snaps[1:]):
            for row_a, row_b in zip(before, after):
                assert all(b <= a for a, b in zip(row_a, row_b))

        snaps = []
        run_program(
            RowProgram(lupps),
            graph,
            observer=lambda _, states: snaps.append([list(s.arr) for s in states[0]]),
        )
        for before, after in zip(snaps, snaps[1:]):
            for row_a, row_b in zip(before, after):
                assert all(b <= a for a, b in zip(row_a, row_b))


def test_sandwich_property():
    g = generate_random_digraph(45, 0.12, seed=37)
    kmaxes, _ = compute_kmax(g)
    lupps = _lupps(g)
    table = peel_decompose(g)
    for v in range(g.n):
        for k, bound in enumerate(lupps[v]):
            out_deg_in_gk = sum(1 for u in g.out_adj[v] if kmaxes[u] >= k)
            assert table.rows[v][k] <= bound <= out_deg_in_gk, (v, k)


def _raised(g, lupps):
    """lupps with every odd slot raised to the out-degree.

    Still an upper bound on every l_max(v, k), but no longer non-increasing
    in k, so the init message has a run per slot wherever the two differ.
    """
    return [
        [len(g.out_adj[v]) if k % 2 else a for k, a in enumerate(row)]
        for v, row in enumerate(lupps)
    ]


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_init_messages_send_one_triple_per_run(source, request):
    g = graph_from(source, request)
    kmaxes, _ = compute_kmax(g)
    lupps = _lupps(g)
    for start in (lupps, _raised(g, lupps)):
        program = RowProgram(with_out_tables(g, start))
        for v in range(g.n):
            _, payload = program.init(v, g)
            assert payload[-1][0] == kmaxes[v]
            slots = []
            for i, (k, old, value) in enumerate(payload):
                assert old == -1
                assert i == 0 or value != payload[i - 1][2]
                assert k >= len(slots)
                slots += [value] * (k + 1 - len(slots))
            assert slots == start[v]


def _trace(program, g, parts, mode, attr):
    snaps = []
    results, metrics = run_program(
        program, g, parts, mode,
        observer=lambda _, states: snaps.append([_copy(getattr(s, attr)) for s in states[0]]),
    )
    return snaps, results, metrics


def _copy(value):
    return list(value) if isinstance(value, list) else value


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_counting_programs_match_from_scratch_every_superstep(source, request):
    g = graph_from(source, request)
    seeds, kmaxes, lmaxes = _phase_one(g)
    lupps = _lupps(g)
    # Out-degree bounds are loose, so phase III walks slots down by long
    # drops and moves many thresholds.
    loose = [[len(g.out_adj[v])] * (kmaxes[v] + 1) for v in range(g.n)]
    raised = _raised(g, lupps)
    pairs = [
        ("value", lambda: HIndexFixpoint("in"), NaiveHIndexFixpoint("in")),
        ("value", lambda: HIndexFixpoint("out"), NaiveHIndexFixpoint("out")),
        ("arr", lambda: LuppProgram(seeds), NaiveLuppProgram(kmaxes, lmaxes)),
        ("arr", lambda: RowProgram(_phase_two(g)), NaiveRefineProgram(lupps)),
        ("arr", lambda: RowProgram(with_out_tables(g, raised)), NaiveRefineProgram(raised)),
        ("arr", lambda: RowProgram(with_out_tables(g, loose)), NaiveRefineProgram(loose)),
    ]
    for mode, parts in [
        ("vertex", None),
        ("block", make_partition("hash", g, 3)),
        ("block", make_partition("seg", g, 4)),
    ]:
        for i, (attr, make, naive) in enumerate(pairs):
            got = _trace(make(), g, parts, mode, attr)
            want = _trace(naive, g, parts, mode, attr)
            if isinstance(naive, NaiveLuppProgram):
                # phase II also hands over its slot histograms, which
                # test_phase_three_out_tables_are_a_recount_after_init checks
                got = got[0], [arr for arr, _ in got[1]], got[2]
            assert got == want, (i, mode)
    # the loose start still ends at the oracle's rows, and so does the
    # non-monotone one
    assert got[1] == peel_decompose(g).rows
    assert refine(g, with_out_tables(g, raised))[0].rows == got[1]


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_reversing_every_arc_transposes_every_anchored_skyline(source, request):
    g = graph_from(source, request)
    rev = reversed_graph(g)
    want = transposed(anchored_to_skyline(peel_decompose(g)))
    assert anchored_to_skyline(anchored_decompose(rev)[0]) == want
    parts = make_partition("hash", rev, 3)
    assert anchored_to_skyline(anchored_decompose(rev, parts, "block")[0]) == want


def test_anchored_equals_oracle_on_5000_vertex_skewed_graph():
    g = pa_digraph(5000, 8, seed=5)
    want = peel_decompose(g).rows
    assert max(len(row) for row in want) >= 4
    assert anchored_decompose(g)[0].rows == want
    parts = make_partition("hash", g, 8)
    assert anchored_decompose(g, parts, "block")[0].rows == want


@settings(max_examples=100, deadline=None)
@given(
    g=drawn_graphs,
    blocks=st.integers(1, 6),
    partitioner=st.sampled_from(["hash", "seg"]),
)
def test_anchored_equals_oracle_on_drawn_graphs(g, blocks, partitioner):
    want = peel_decompose(g).rows
    assert anchored_decompose(g)[0].rows == want
    parts = make_partition(partitioner, g, blocks)
    assert anchored_decompose(g, parts, "block")[0].rows == want


def _h_checker(consume):
    """Phase I's check against a recount.

    Buckets 0..value count exact values, bucket value + 1 those above it.
    A neighbor not yet heard from is still at its init value n, above
    every value, so it counts in the top bucket.
    """

    def check(g, states, log):
        adj = g.in_adj if consume == "in" else g.out_adj
        for v, st in enumerate(states):
            delivered = log.last.get(id(st), {})
            column = [delivered.get(u, g.n) for u in adj[v]]
            assert st.hist[: st.value + 2] == clipped_histogram(column, st.value + 1), v

    return check


def _lupp_checker(lmaxes):
    """Phase II's check against a recount.

    Each vertex starts with every out-neighbor u in every slot, at lmax(u);
    a slot stays there until u delivers a drop there, and u's exclusion
    records it as absent (-1) in the slots past kmax(u).  Every slot's top
    bucket must hold at every observed superstep, since after_messages
    lowers every slot whose top bucket falls short.
    """

    def check(g, states, log):
        for v, st in enumerate(states):
            # phase II arrays stay non-increasing in k
            assert st.arr == sorted(st.arr, reverse=True)
            delivered = log.last.get(id(st), {})
            for k, a in enumerate(st.arr):
                column = [delivered.get(u, {}).get(k, lmaxes[u]) for u in g.out_adj[v]]
                base = k * st.stride
                assert st.hist[base : base + a + 1] == clipped_histogram(column, a), k
                assert st.hist[base + a] >= a, (v, k)

    return check


def _refine_checker(starts):
    """Phase III's check against a recount.

    An in-neighbor counts from its init message on.  An out-neighbor
    counts at its start height in every row it has (starts[u]) until it
    delivers a drop there, since the out-table came with the start.  From
    step 2 on every state is seeded, and every row must have both
    supports: a row left short would wait for a fold to wake its vertex.
    """

    def check(g, states, log):
        for v, st in enumerate(states):
            assert st.seeded, v
            delivered = log.last.get(id(st), {})
            for k, a in enumerate(st.arr):
                ins = [delivered.get(u, {}).get(k, -1) for u in g.in_adj[v]]
                outs = [
                    delivered.get(u, {}).get(k, starts[u][k] if k < len(starts[u]) else -1)
                    for u in g.out_adj[v]
                ]
                row = slice(k * st.width, k * st.width + a + 1)
                assert st.hin[row] == clipped_histogram(ins, a), (v, k)
                assert st.hout[row] == clipped_histogram(outs, a), (v, k)
                assert st.hin[row.stop - 1] >= k and st.hout[row.stop - 1] >= a, (v, k)

    return check


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_support_counters_equal_a_recount_after_every_superstep(source, request):
    # A count that drifts low only costs rescans or extra walks, which the
    # emitted values do not show; so compare every bucket of every histogram
    # with a recount over the last value each sender delivered, as the test
    # records it from the deltas, and check that the recorder saw every
    # delivery the engine counts.  Phase III sums its init counts into
    # histograms in its first round, so it is checked from step 2 on.
    g = graph_from(source, request)
    seeds, kmaxes, lmaxes = _phase_one(g)
    lupps = _lupps(g)
    loose = [[len(g.out_adj[v])] * (kmaxes[v] + 1) for v in range(g.n)]
    raised = _raised(g, lupps)
    above = [g.n] * g.n  # an H-index init is a drop from above every value
    for parts, mode in [(None, "vertex"), (make_partition("hash", g, 3), "block")]:
        checks = [
            (HIndexFixpoint("in"), _h_checker("in"), above),
            (HIndexFixpoint("out"), _h_checker("out"), above),
            (LuppProgram(seeds), _lupp_checker(lmaxes), lmaxes),
            (RowProgram(_phase_two(g)), _refine_checker(lupps), lupps),
            (RowProgram(with_out_tables(g, raised)), _refine_checker(raised), raised),
            (RowProgram(with_out_tables(g, loose)), _refine_checker(loose), loose),
        ]
        for program, check, start in checks:
            log = record_deliveries(program, start)
            steps = []
            rows = isinstance(program, RowProgram)

            def observe(step, runs, check=check, log=log, rows=rows):
                (states,) = runs
                if step > 1 or not rows:
                    check(g, states, log)
                steps.append(step)

            _, metrics = run_program(program, g, parts, mode, observer=observe)
            assert log.count == metrics.messages_total + metrics.intra_messages
            assert len(steps) > 1


@settings(max_examples=60, deadline=None)
@given(
    g=drawn_graphs,
    blocks=st.integers(1, 6),
    partitioner=st.sampled_from(["hash", "seg"]),
)
def test_strictly_above_count_equals_a_recount_after_every_phase1_superstep(
    g, blocks, partitioner
):
    # The top bucket is kept by the fold and rewritten by a drop; compare
    # every bucket, the top one included, with the neighbors' last
    # delivered values, in phase I's shared supersteps, in both modes.
    kmaxes = [len(row) - 1 for row in peel_decompose(g).rows]
    lmaxes = out_core_numbers(g)
    for parts, mode in [(None, "vertex"), (make_partition(partitioner, g, blocks), "block")]:
        pair = (HIndexFixpoint("in"), HIndexFixpoint("out"))
        logs = [record_deliveries(program, [g.n] * g.n) for program in pair]
        checks = (_h_checker("in"), _h_checker("out"))
        steps = []

        def observe(step, runs):
            for check, states, log in zip(checks, runs, logs):
                check(g, states, log)
            steps.append(step)

        (got_in, got_out), metrics = run_programs(
            pair, g, parts, mode, observer=observe, phase="phase I"
        )
        assert steps and sum(log.count for log in logs) == (
            metrics.messages_total + metrics.intra_messages
        )
        # extract cuts each histogram to its value + 2 buckets
        for got, values, adj in [(got_in, kmaxes, g.in_adj), (got_out, lmaxes, g.out_adj)]:
            assert got == [
                (values[v], clipped_histogram([values[u] for u in adj[v]], values[v] + 1))
                for v in range(g.n)
            ]
        seeds, _ = compute_kmax_lmax(g, parts, mode)
        assert [excludes for _, excludes, _, _ in seeds] == [
            any(kmaxes[u] > kmaxes[v] for u in g.in_adj[v]) for v in range(g.n)
        ]


def _band(n, forward, backward):
    return build_graph(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(max(0, i - backward), min(n, i + forward + 1))
            if j != i
        ],
    )


def test_phase2_is_silent_when_every_vertex_has_the_same_kmax():
    # No vertex has an in-neighbor of larger kmax, so no exclusion is sent
    # and every slot starts at its fixpoint: one superstep, no message.
    cycle = build_graph(12, [(v, (v + d) % 12) for v in range(12) for d in (1, 11)])
    for g in (cycle, _band(60, 4, 2)):
        seeds, kmaxes, _ = _phase_one(g)
        assert len(set(kmaxes)) == 1
        lupps, metrics = compute_lupp(g, seeds)
        assert metrics.messages_per_step == [0]
        assert [arr for arr, _ in lupps] == [row[:1] * len(row) for row in peel_decompose(g).rows]
        parts = make_partition("hash", g, 3)
        _, m_block = compute_lupp(g, compute_kmax_lmax(g, parts, "block")[0], parts, "block")
        assert (m_block.messages_per_step, m_block.intra_messages) == ([0], 0)


def test_phase2_init_senders_are_the_vertices_below_an_in_neighbor(ref8):
    seeds, kmaxes, _ = _phase_one(ref8)
    program = LuppProgram(seeds)
    senders = {v for v in range(ref8.n) if program.init(v, ref8)[1] is not None}
    want = {v for v in range(ref8.n) if any(kmaxes[u] > kmaxes[v] for u in ref8.in_adj[v])}
    assert senders == want and senders
    _, metrics = compute_lupp(ref8, seeds)
    assert metrics.messages_per_step[0] == sum(len(ref8.in_adj[v]) for v in want)
    # phase II only reads its seeds
    assert seeds == _phase_one(ref8)[0]


def test_phase2_wakes_on_the_exclusion_that_leaves_the_last_slot_short():
    # Vertex 0 has kmax 3 (in-neighbors 3, 4, 5 of the 4-clique 3..6) and
    # lmax 1, over its two out-neighbors, 1 (kmax 2) and 2 (kmax 1), both
    # at lmax 1.  Each takes itself out of 0's slots past its kmax, and 1's
    # exclusion arrives first: it leaves slot 3 one count, which is enough.
    # 2's then leaves slot 2 one count and slot 3 none, short of 1.  No
    # later drop reaches vertex 0, so only that exclusion's wake lowers
    # l_upp(0, 3) to 0: vertex 0 has no out-neighbor in G[3].
    clique = [(u, v) for u in range(3, 7) for v in range(3, 7) if u != v]
    g = build_graph(7, clique + [(3, 0), (4, 0), (5, 0), (0, 1), (0, 2), (3, 1), (1, 3), (2, 3)])
    seeds, kmaxes, lmaxes = _phase_one(g)
    assert (kmaxes[:3], lmaxes[:3]) == ([3, 2, 1], [1, 1, 1])
    lupps, metrics = compute_lupp(g, seeds)
    assert [arr for arr, _ in lupps] == [[1, 1, 1, 0], [1, 1, 1], [1, 1]] + [[3] * 4] * 4
    assert metrics.messages_per_step == [3, 3, 0]
