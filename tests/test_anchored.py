"""Anchored-coreness phases against the reference traces and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RefineProgram,
    anchored_decompose,
    compute_kmax,
    compute_lupp,
    refine,
)
from dcore.engine import default_superstep_cap, run_program
from dcore.graph import build_graph, generate_random_digraph, make_partition
from dcore.peel import anchored_to_skyline, dcore, peel_decompose

from _naive import NaiveHIndexFixpoint, NaiveLuppProgram, NaiveRefineProgram
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
    kmaxes, _ = compute_kmax(ref8)
    lupps, _ = compute_lupp(ref8, kmaxes)
    assert lupps == REF8_LUPP
    assert lupps[7] == [1, 1, 0]
    assert lupps[0] == [2, 2, 2]


def test_phase2_upper_bounds_dominate_oracle():
    for seed in (1, 5, 9):
        g = generate_random_digraph(45, 0.15, seed=seed)
        kmaxes, _ = compute_kmax(g)
        lupps, _ = compute_lupp(g, kmaxes)
        table = peel_decompose(g)
        for v in range(g.n):
            assert len(lupps[v]) == table.kmax(v) + 1
            for k, bound in enumerate(lupps[v]):
                assert bound >= table.lmax(v, k), (seed, v, k)


def test_phase3_ref8_rows(ref8):
    kmaxes, _ = compute_kmax(ref8)
    lupps, _ = compute_lupp(ref8, kmaxes)
    table, _ = refine(ref8, kmaxes, lupps)
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
    assert t1.pairs(1) == REF7_PHI_V2
    t2, metrics2 = anchored_decompose(ref8)
    assert t2.rows == REF8_LMAX
    assert [m.phase for m in metrics2] == ["phase I", "phase II", "phase III"]
    for m in metrics2:
        m.check()


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
            observer=lambda _, states: snaps.append([s.value for s in states]),
        )
        for before, after in zip(snaps, snaps[1:]):
            assert all(b <= a for a, b in zip(before, after))

        snaps = []
        lupps, _ = run_program(
            LuppProgram(kmaxes),
            graph,
            observer=lambda _, states: snaps.append([list(s.arr) for s in states]),
        )
        for before, after in zip(snaps, snaps[1:]):
            for row_a, row_b in zip(before, after):
                assert all(b <= a for a, b in zip(row_a, row_b))

        snaps = []
        run_program(
            RefineProgram(kmaxes, lupps),
            graph,
            observer=lambda _, states: snaps.append([list(s.arr) for s in states]),
        )
        for before, after in zip(snaps, snaps[1:]):
            for row_a, row_b in zip(before, after):
                assert all(b <= a for a, b in zip(row_a, row_b))


def test_sandwich_property():
    g = generate_random_digraph(45, 0.12, seed=37)
    kmaxes, _ = compute_kmax(g)
    lupps, _ = compute_lupp(g, kmaxes)
    table = peel_decompose(g)
    for v in range(g.n):
        for k, bound in enumerate(lupps[v]):
            out_deg_in_gk = sum(1 for u in g.out_adj[v] if kmaxes[u] >= k)
            assert table.lmax(v, k) <= bound <= out_deg_in_gk, (v, k)


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
    lupps, _ = compute_lupp(g, kmaxes)
    for start in (lupps, _raised(g, lupps)):
        program = RefineProgram(kmaxes, start)
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
        observer=lambda _, states: snaps.append([_copy(getattr(s, attr)) for s in states]),
    )
    return snaps, results, metrics


def _copy(value):
    return list(value) if isinstance(value, list) else value


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_counting_programs_match_from_scratch_every_superstep(source, request):
    g = graph_from(source, request)
    kmaxes, _ = compute_kmax(g)
    lupps, _ = compute_lupp(g, kmaxes)
    # Out-degree bounds are loose, so phase III lowers slots through long
    # chains of one-step drops and threshold moves.
    loose = [[len(g.out_adj[v])] * (kmaxes[v] + 1) for v in range(g.n)]
    raised = _raised(g, lupps)
    pairs = [
        ("value", HIndexFixpoint("in"), NaiveHIndexFixpoint("in")),
        ("value", HIndexFixpoint("out"), NaiveHIndexFixpoint("out")),
        ("arr", LuppProgram(kmaxes), NaiveLuppProgram(kmaxes)),
        ("arr", RefineProgram(kmaxes, lupps), NaiveRefineProgram(kmaxes, lupps)),
        ("arr", RefineProgram(kmaxes, raised), NaiveRefineProgram(kmaxes, raised)),
        ("arr", RefineProgram(kmaxes, loose), NaiveRefineProgram(kmaxes, loose)),
    ]
    for mode, parts in [
        ("vertex", None),
        ("block", make_partition("hash", g, 3)),
        ("block", make_partition("seg", g, 4)),
    ]:
        for i, (attr, program, naive) in enumerate(pairs):
            got = _trace(program, g, parts, mode, attr)
            want = _trace(naive, g, parts, mode, attr)
            assert got == want, (i, mode)
    # the loose start still ends at the oracle's rows, and so does the
    # non-monotone one
    assert got[1] == peel_decompose(g).rows
    assert refine(g, kmaxes, raised)[0].rows == got[1]


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


def _check_h_histogram(g, states, log):
    for st in states:
        delivered = log.last.get(id(st), {}).values()
        assert st.hist[: st.value + 1] == clipped_histogram(delivered, st.value)


def _check_lupp_histograms(g, states, log):
    for st in states:
        delivered = log.last.get(id(st), {}).values()
        for k, a in enumerate(st.arr):
            column = [slots[k] for slots in delivered if k in slots]
            base = k * st.stride
            assert st.hist[base : base + a + 1] == clipped_histogram(column, a), k


def _check_refine_histograms(g, states, log):
    # A slot whose dirty bit is clear must have both supports, or it would
    # never be checked again.
    for v, st in enumerate(states):
        delivered = log.last.get(id(st), {})
        for k, a in enumerate(st.arr):
            ins = [delivered.get(u, {}).get(k, -1) for u in g.in_adj[v]]
            outs = [delivered.get(u, {}).get(k, -1) for u in g.out_adj[v]]
            row = slice(k * st.width, k * st.width + a + 1)
            assert st.hin[row] == clipped_histogram(ins, a), (v, k)
            assert st.hout[row] == clipped_histogram(outs, a), (v, k)
            if a and not st.dirty >> k & 1:
                assert st.hin[row.stop - 1] >= k and st.hout[row.stop - 1] >= a, (v, k)


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_support_counters_equal_a_recount_after_every_superstep(source, request):
    # A count that drifts low only costs rescans or extra walks, which the
    # emitted values do not show; so compare every bucket of every histogram
    # with a recount over the last value each sender delivered, as the test
    # records it from the deltas, and check that the recorder saw every
    # delivery the engine counts.  Phase III sums its init counts into
    # histograms in its first round, so it is checked from step 2 on.
    g = graph_from(source, request)
    kmaxes, _ = compute_kmax(g)
    lupps, _ = compute_lupp(g, kmaxes)
    loose = [[len(g.out_adj[v])] * (kmaxes[v] + 1) for v in range(g.n)]
    for parts, mode in [(None, "vertex"), (make_partition("hash", g, 3), "block")]:
        checks = [
            (HIndexFixpoint("in"), _check_h_histogram),
            (HIndexFixpoint("out"), _check_h_histogram),
            (LuppProgram(kmaxes), _check_lupp_histograms),
            (RefineProgram(kmaxes, lupps), _check_refine_histograms),
            (RefineProgram(kmaxes, _raised(g, lupps)), _check_refine_histograms),
            (RefineProgram(kmaxes, loose), _check_refine_histograms),
        ]
        for program, check in checks:
            log = record_deliveries(program)
            steps = []

            def observe(step, states, check=check, log=log):
                if step > 1 or check is not _check_refine_histograms:
                    check(g, states, log)
                steps.append(step)

            _, metrics = run_program(program, g, parts, mode, observer=observe)
            assert log.count == metrics.messages_total + metrics.intra_messages
            assert len(steps) > 1
