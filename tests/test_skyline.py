"""Skyline-coreness algorithm against reference traces, oracles and invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.anchored import RowProgram, anchored_decompose, compute_kmax_lmax, compute_lupp
from dcore.engine import run_program
from dcore.graph import build_graph, generate_random_digraph, make_partition
from dcore.kernels import d_index, d_index_over_sets
from dcore.peel import anchored_to_skyline, peel_decompose, skyline_of
from dcore.skyline import skyline_decompose, skyline_table, tight_init

from _naive import (
    NaiveSkylineProgram,
    naive_d_index_over_sets,
    naive_skyline,
    set_dominated_by,
)
from conftest import (
    GRAPH_SOURCES,
    REF7_SC,
    REF8_SKYLINE,
    REF8_TIGHT_INIT,
    boxes,
    clipped_histogram,
    drawn_graphs,
    graph_from,
    pa_digraph,
    record_deliveries,
    reversed_graph,
    transposed,
)


def test_tight_init_ref8(ref8):
    pairs, metrics = tight_init(ref8)
    assert pairs == REF8_TIGHT_INIT
    assert metrics.phase == "init"


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_tight_init_is_anchored_phase_one_under_its_own_name(source, request):
    # Skyline's init and anchored's phase I are one phase: the same pairs
    # and the same counts, only the phase name differs.
    g = graph_from(source, request)
    for parts, mode in [(None, "vertex"), (make_partition("hash", g, 4), "block")]:
        pairs, m_init = tight_init(g, parts, mode)
        seeds, m_one = compute_kmax_lmax(g, parts, mode)
        assert pairs == [(kmax, lmax) for kmax, _, lmax, _ in seeds], mode
        assert (m_init.phase, m_one.phase) == ("init", "phase I")
        assert m_init.messages_per_step == m_one.messages_per_step, mode
        assert m_init.intra_messages == m_one.intra_messages, mode


@pytest.mark.parametrize("decompose", [anchored_decompose, skyline_decompose])
@pytest.mark.parametrize("mode", ["vertex", "block"])
def test_observer_sees_every_superstep_of_every_phase(decompose, mode, ref8):
    steps = []
    parts = make_partition("hash", ref8, 3)
    _, metrics = decompose(ref8, parts, mode, observer=lambda step, states: steps.append(step))
    assert len(steps) == sum(m.supersteps for m in metrics)
    assert steps.count(1) == len(metrics)


@pytest.mark.parametrize(
    "decompose,programs", [(anchored_decompose, [2, 1, 1]), (skyline_decompose, [2, 1])]
)
@pytest.mark.parametrize("mode", ["vertex", "block"])
def test_observer_gets_one_state_list_per_program_in_every_phase(
    decompose, programs, mode, ref8
):
    # Phase I (skyline's init) runs two programs and every later phase one;
    # one observer reads them all the same way.
    for graph in (ref8, generate_random_digraph(40, 0.12, seed=3)):
        phases = []

        def observe(step, states):
            if step == 1:
                phases.append([])
            phases[-1].append([len(s) for s in states])

        parts = make_partition("hash", graph, 4)
        _, metrics = decompose(graph, parts, mode, observer=observe)
        assert phases == [
            [[graph.n] * count] * m.supersteps for count, m in zip(programs, metrics)
        ]


def test_tight_init_arcless_graph():
    pairs, _ = tight_init(build_graph(5, []))
    assert pairs == [(0, 0)] * 5


def test_tight_init_dominates_skyline_sets():
    g = generate_random_digraph(50, 0.12, seed=41)
    pairs, _ = tight_init(g)
    skys = anchored_to_skyline(peel_decompose(g))
    for (k0, l0), sky in zip(pairs, skys):
        assert all(k <= k0 and l <= l0 for k, l in sky)


def _neighbor_views(g, skys, v):
    return (
        [tuple(skys[u]) for u in g.in_adj[v]],
        [tuple(skys[u]) for u in g.out_adj[v]],
    )


def test_first_step_ref8_v7_v8(ref8):
    init_sets = [[p] for p in REF8_TIGHT_INIT]
    in_sets, out_sets = _neighbor_views(ref8, init_sets, 6)
    assert d_index_over_sets(in_sets, out_sets) == [(0, 2), (1, 1)]
    in_sets, out_sets = _neighbor_views(ref8, init_sets, 7)
    assert d_index_over_sets(in_sets, out_sets) == [(1, 1), (2, 0)]


def test_step_collapses_to_d_index_on_singletons():
    rng = random.Random(11)
    for _ in range(100):
        r_in = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 5))]
        r_out = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 5))]
        assert d_index_over_sets([(p,) for p in r_in], [(p,) for p in r_out]) == d_index(
            r_in, r_out
        )


def test_step_matches_combinatorial_brute_force():
    rng = random.Random(12)
    for _ in range(120):
        n_in = rng.randrange(0, 5)
        n_out = rng.randrange(0, 5)

        def random_sky():
            pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 3))]
            return tuple(naive_skyline(pairs))

        in_sets = [random_sky() for _ in range(n_in)]
        out_sets = [random_sky() for _ in range(n_out)]
        got = d_index_over_sets(in_sets, out_sets)
        want = naive_d_index_over_sets(in_sets, out_sets)
        assert got == want, (in_sets, out_sets)


def test_step_on_tiny_random_graphs_matches_brute_force():
    rng = random.Random(13)
    for seed in range(25):
        g = generate_random_digraph(6, 0.4, seed=seed)
        skys = []
        for v in range(6):
            pairs = [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randrange(1, 3))]
            skys.append(tuple(naive_skyline(pairs)))
        for v in range(6):
            in_sets, out_sets = _neighbor_views(g, skys, v)
            assert d_index_over_sets(in_sets, out_sets) == naive_d_index_over_sets(
                in_sets, out_sets
            )


def test_skyline_decompose_ref8(ref8):
    skys, metrics = skyline_decompose(ref8)
    assert skys == REF8_SKYLINE
    assert skys[6] == [(0, 2), (1, 1)]
    assert skys[0] == [(2, 2)]
    # converged by the second d-index round: 3 supersteps incl. the quiet one
    assert metrics[-1].phase == "d-index"
    assert metrics[-1].supersteps == 3


def test_skyline_decompose_ref7(ref7):
    skys, _ = skyline_decompose(ref7)
    for label, want in REF7_SC.items():
        assert skys[label - 1] == want


def test_skyline_equals_oracle_on_random_graphs():
    for seed in range(8):
        g = generate_random_digraph(40 + 15 * seed, 1.2 / (10 + 3 * seed), seed=seed)
        skys, _ = skyline_decompose(g)
        assert skys == anchored_to_skyline(peel_decompose(g)), seed


def test_skyline_anchored_consistency(ref7):
    from dcore.anchored import anchored_decompose

    g = generate_random_digraph(55, 0.1, seed=51)
    for graph in (g, ref7):
        skys, _ = skyline_decompose(graph)
        table, _ = anchored_decompose(graph)
        assert skys == anchored_to_skyline(table)


def test_mode_equivalence(ref8):
    g = generate_random_digraph(60, 0.1, seed=61)
    for graph in (ref8, g):
        want, vm = skyline_decompose(graph, None, "vertex")
        for blocks in (1, 2, 4, 8):
            for name in ("hash", "seg"):
                parts = make_partition(name, graph, blocks)
                got, bm = skyline_decompose(graph, parts, "block")
                assert got == want, (blocks, name)
                assert bm[-1].supersteps <= vm[-1].supersteps


def test_antichain_and_dominance_descent_every_superstep(ref8):
    g = generate_random_digraph(40, 0.15, seed=71)
    for graph in (ref8, g):
        pairs, _ = tight_init(graph)
        snaps = []
        run_program(
            RowProgram(boxes(pairs)),
            graph,
            observer=lambda _, states: snaps.append([skyline_of(s.arr) for s in states[0]]),
        )
        for snap in snaps:
            for d in snap:
                assert list(d) == naive_skyline(d)
                assert all(k >= 0 and l >= 0 for k, l in d)
        for before, after in zip(snaps, snaps[1:]):
            for d_old, d_new in zip(before, after):
                assert set_dominated_by(d_new, d_old)


def test_converged_skylines_are_supported_and_maximal(ref8):
    g = generate_random_digraph(45, 0.12, seed=81)
    for graph in (ref8, g):
        skys, _ = skyline_decompose(graph)

        def supporters(adj, kq, lq):
            return sum(
                1
                for u in adj
                if any(k >= kq and l >= lq for k, l in skys[u])
            )

        for v in range(graph.n):
            for kv, lv in skys[v]:
                assert supporters(graph.in_adj[v], kv, lv) >= kv
                assert supporters(graph.out_adj[v], kv, lv) >= lv
                assert not (
                    supporters(graph.in_adj[v], kv + 1, lv) >= kv + 1
                    and supporters(graph.out_adj[v], kv + 1, lv) >= lv
                )
                assert not (
                    supporters(graph.in_adj[v], kv, lv + 1) >= kv
                    and supporters(graph.out_adj[v], kv, lv + 1) >= lv + 1
                )


def test_skyline_rounds_at_most_anchored_rounds_on_fixtures(ref7, ref8):
    from dcore.anchored import anchored_decompose

    for graph in (ref7, ref8):
        _, sky_metrics = skyline_decompose(graph)
        _, ac_metrics = anchored_decompose(graph)
        assert sky_metrics[-1].supersteps <= sum(m.supersteps for m in ac_metrics)


def _d_trace(program, g, parts, mode, read):
    snaps = []
    _, metrics = run_program(
        program, g, parts, mode,
        observer=lambda _, states: snaps.append([read(s) for s in states[0]]),
    )
    return snaps, metrics


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_incremental_program_matches_from_scratch_every_superstep(source, request):
    g = graph_from(source, request)
    tight, _ = tight_init(g)
    # (kmax, out-degree) boxes are loose but still bound every neighbor
    # H-index, and keep RowProgram's kmax(v) + 1 rows, so most sets start
    # higher and fall further.
    loose = [(K, len(g.out_adj[v])) for v, (K, _) in enumerate(tight)]
    for pairs in (tight, loose):
        for mode, parts in [
            ("vertex", None),
            ("block", make_partition("hash", g, 3)),
            ("block", make_partition("seg", g, 4)),
        ]:
            got = _d_trace(
                RowProgram(boxes(pairs)), g, parts, mode, lambda s: tuple(skyline_of(s.arr))
            )
            want = _d_trace(NaiveSkylineProgram(pairs), g, parts, mode, lambda s: s.d)
            assert got == want, (pairs is tight, mode)
    # the loose start still ends at the oracle's skylines
    assert got[0][-1] == [tuple(sky) for sky in anchored_to_skyline(peel_decompose(g))]


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_init_message_is_one_run_of_the_fold_shared_with_phase_three(source, request):
    # Phase III runs the same class, RowProgram, so the fold is shared by
    # construction; a box start sends its one run.
    g = graph_from(source, request)
    pairs, _ = tight_init(g)
    program = RowProgram(boxes(pairs))
    for v, (K, L) in enumerate(pairs):
        assert program.init(v, g)[1] == ((K, -1, L),)


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_row_heights_from_the_box_or_the_lupp_arrays_are_the_anchored_table(
    source, request
):
    # The fact that lets phase III and the D-index be one program, and
    # skyline_table return the anchored table.
    g = graph_from(source, request)
    want = peel_decompose(g).rows
    pairs, _ = tight_init(g)
    lupps, _ = compute_lupp(g, compute_kmax_lmax(g)[0])
    for parts, mode in [(None, "vertex"), (make_partition("hash", g, 3), "block")]:
        for starts in (boxes(pairs), lupps):
            heights, _ = run_program(RowProgram(starts), g, parts, mode)
            assert heights == want, (mode, starts is lupps)
        assert skyline_table(g, parts, mode)[0].rows == want, mode


def _row_height(ins, outs, k, top):
    """Largest l <= top with at least k of ins and l of outs >= l; -1 if no l."""
    for l in range(top, -1, -1):
        if sum(h >= l for h in ins) >= k and sum(h >= l for h in outs) >= l:
            return l
    return -1


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_support_histograms_equal_a_recount_after_every_superstep(source, request):
    # After every superstep, recompute each row height f[k] from its
    # definition and recount the buckets 0..f[k] (arr[k]) of each row of
    # hin/hout, from the last height each neighbor delivered at k, as the
    # test records it from the deltas.  After init (step 1) no message has
    # been delivered and every row is still dirty.  The recorder must also
    # see every delivery the engine counts.
    g = graph_from(source, request)
    tight, _ = tight_init(g)
    loose = [(K, len(g.out_adj[v])) for v, (K, _) in enumerate(tight)]
    for pairs in (tight, loose):
        for parts, mode in [(None, "vertex"), (make_partition("hash", g, 3), "block")]:
            program = RowProgram(boxes(pairs))
            log = record_deliveries(program)
            steps = []

            def observe(step, runs, log=log):
                (states,) = runs
                for v, st in enumerate(states):
                    heights = log.last.get(id(st), {})
                    if step > 1:
                        assert st.dirty == 0
                    for k, t in enumerate(st.arr):
                        ins = [heights.get(u, {}).get(k, -1) for u in g.in_adj[v]]
                        outs = [heights.get(u, {}).get(k, -1) for u in g.out_adj[v]]
                        if step > 1:
                            assert t == _row_height(ins, outs, k, st.width - 1), (v, k)
                        row = slice(k * st.width, k * st.width + t + 1)
                        assert st.hin[row] == clipped_histogram(ins, t), (v, k)
                        assert st.hout[row] == clipped_histogram(outs, t), (v, k)
                steps.append(step)

            _, metrics = run_program(program, g, parts, mode, observer=observe)
            assert log.count == metrics.messages_total + metrics.intra_messages
            assert len(steps) > 1


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_reversing_every_arc_transposes_every_skyline(source, request):
    g = graph_from(source, request)
    rev = reversed_graph(g)
    want = transposed(skyline_decompose(g)[0])
    assert anchored_to_skyline(peel_decompose(rev)) == want
    assert skyline_decompose(rev)[0] == want
    parts = make_partition("hash", rev, 3)
    assert skyline_decompose(rev, parts, "block")[0] == want


def test_skyline_equals_oracle_on_5000_vertex_skewed_graph():
    g = pa_digraph(5000, 8, seed=5)
    want = anchored_to_skyline(peel_decompose(g))
    assert max(k for sky in want for k, _ in sky) >= 3
    assert sum(len(sky) > 1 for sky in want) > 100
    assert skyline_decompose(g)[0] == want
    parts = make_partition("hash", g, 8)
    assert skyline_decompose(g, parts, "block")[0] == want


@settings(max_examples=100, deadline=None)
@given(
    g=drawn_graphs,
    blocks=st.integers(1, 6),
    partitioner=st.sampled_from(["hash", "seg"]),
)
def test_skyline_equals_oracle_on_drawn_graphs(g, blocks, partitioner):
    want = anchored_to_skyline(peel_decompose(g))
    assert skyline_decompose(g)[0] == want
    parts = make_partition(partitioner, g, blocks)
    assert skyline_decompose(g, parts, "block")[0] == want
