"""Engine semantics: superstep accounting, quiescence, mode equivalence."""

import pytest

from dcore.anchored import HIndexFixpoint, LuppProgram, RowProgram, anchored_decompose
from dcore.engine import (
    EngineMetrics,
    SuperstepLimitError,
    VertexProgram,
    default_superstep_cap,
    run_program,
    run_programs,
)
from dcore.graph import build_graph, generate_random_digraph, hash_partition, make_partition
from dcore.skyline import skyline_table

from _naive import naive_schedule
from conftest import GRAPH_SOURCES, REF8_KMAX, boxes, graph_from


class SilentProgram(VertexProgram):
    broadcast = "out"

    def init(self, v, g):
        return v, None

    def on_message(self, state, sender, payload):
        raise AssertionError("no messages should flow")

    def after_messages(self, state, v, g):
        return None

    def extract(self, state, v, g):
        return state


class ChattyProgram(VertexProgram):
    """Never quiesces; used to exercise the runaway guard."""

    broadcast = "out"

    def init(self, v, g):
        return 0, 1

    def on_message(self, state, sender, payload):
        pass

    def after_messages(self, state, v, g):
        return 1

    def extract(self, state, v, g):
        return state


class CountdownProgram(VertexProgram):
    """Emits every round until its countdown runs out, whatever it receives.

    Vertex v starts at v % 5 and emits its remaining count; received
    payloads are only summed.  A scheduler that ran only message receivers
    would stall the vertices whose in-neighbors fall silent first.
    """

    broadcast = "out"

    def init(self, v, g):
        state = {"left": v % 5, "got": 0}
        return state, (state["left"] or None)

    def on_message(self, state, sender, payload):
        state["got"] += payload

    def after_messages(self, state, v, g):
        if state["left"] == 0:
            return None
        state["left"] -= 1
        return state["left"]

    def extract(self, state, v, g):
        return (state["left"], state["got"])


class SequenceProgram(VertexProgram):
    """Vertex v emits (v, 0), (v, 1), ..., (v, v % 3), then stops.

    (v, 0) goes out at init and each later payload in the vertex's next
    round, whatever it receives.  Every delivery is logged in arrival order.
    """

    broadcast = "out"

    def init(self, v, g):
        return {"next": 1, "got": []}, (v, 0)

    def on_message(self, state, sender, payload):
        state["got"].append((sender, payload))

    def after_messages(self, state, v, g):
        i = state["next"]
        if i > v % 3:
            return None
        state["next"] = i + 1
        return (v, i)

    def extract(self, state, v, g):
        return state["got"]


def test_silent_program_runs_one_superstep(ref8):
    results, metrics = run_program(SilentProgram(), ref8)
    assert results == list(range(8))
    assert metrics.supersteps == 1
    assert metrics.messages_total == 0


def test_kmax_program_on_fixture(ref8):
    results, metrics = run_program(HIndexFixpoint("in"), ref8)
    assert results == REF8_KMAX
    assert metrics.supersteps >= 1


def test_vertex_mode_ignores_partitioning(ref8):
    base, m_base = run_program(HIndexFixpoint("in"), ref8, None)
    for name, blocks in [("hash", 2), ("hash", 5), ("seg", 3)]:
        parts = make_partition(name, ref8, blocks)
        res, m = run_program(HIndexFixpoint("in"), ref8, parts, "vertex")
        assert res == base
        assert m == m_base


def test_single_block_converges_in_two_supersteps_after_init(ref8):
    parts = hash_partition(ref8, 1)
    res, metrics = run_program(HIndexFixpoint("in"), ref8, parts, "block")
    assert res == REF8_KMAX
    assert metrics.supersteps == 3
    assert metrics.messages_per_step[1:] == [0, 0]  # never any cross traffic
    assert metrics.intra_messages > 0


def test_block_centric_matches_vertex_centric(ref8, ref7):
    for g in (ref8, ref7):
        want, m_vertex = run_program(HIndexFixpoint("in"), g)
        for blocks in (1, 2, 3, 8):
            for name in ("hash", "seg"):
                parts = make_partition(name, g, blocks)
                got, m_block = run_program(HIndexFixpoint("in"), g, parts, "block")
                assert got == want, (blocks, name)
                assert m_block.supersteps <= m_vertex.supersteps


def test_runaway_program_hits_cap(ref8):
    # the error carries the partial metrics of the supersteps completed
    with pytest.raises(SuperstepLimitError) as info:
        run_program(ChattyProgram(), ref8, max_supersteps=7, phase="chatty")
    m = info.value.metrics
    assert (m.phase, m.supersteps) == ("chatty", 7)
    assert m.messages_per_step == [ref8.num_arcs] * 7
    # block mode: one block never reaches a local fixpoint within the cap
    with pytest.raises(SuperstepLimitError) as info:
        run_program(ChattyProgram(), ref8, hash_partition(ref8, 2), "block", max_supersteps=7)
    m = info.value.metrics
    assert m.messages_per_step == [ref8.num_arcs]
    assert m.intra_messages > 0


def test_default_cap_covers_degree_and_ripple_terms(ref8):
    assert default_superstep_cap(ref8) == 10 * (ref8.max_degree() + 1) + 2 * ref8.n


def test_long_path_converges_within_default_cap():
    from dcore.anchored import compute_kmax
    from dcore.graph import build_graph

    g = build_graph(100, [(i, i + 1) for i in range(99)])
    kmaxes, metrics = compute_kmax(g)
    assert kmaxes == [0] * 100
    # the ripple retires one vertex per superstep along the chain
    assert metrics.supersteps == 100
    assert metrics.supersteps <= default_superstep_cap(g)


def test_run_program_dispatch(ref8):
    with pytest.raises(ValueError):
        run_program(SilentProgram(), ref8, None, "bogus")
    with pytest.raises(ValueError):
        run_program(SilentProgram(), ref8, None, "block")


def test_determinism_across_repeats():
    g = generate_random_digraph(60, 0.12, seed=17)
    parts = hash_partition(g, 4)
    runs = [run_program(HIndexFixpoint("in"), g) for _ in range(3)]
    for res, metrics in runs[1:]:
        assert res == runs[0][0]
        assert metrics == runs[0][1]
    bruns = [run_program(HIndexFixpoint("in"), g, parts, "block") for _ in range(2)]
    assert bruns[0][0] == bruns[1][0] == runs[0][0]
    assert bruns[0][1] == bruns[1][1]


def test_quiescence_soundness(ref8):
    prog = HIndexFixpoint("in")
    holder = {}

    def observer(step, states):
        holder["states"] = states

    run_program(prog, ref8, observer=observer)
    for v, state in enumerate(holder["states"]):
        assert prog.after_messages(state, v, ref8) is None


def test_empty_graph_runs():
    g = generate_random_digraph(0, 0.0, seed=0)
    results, metrics = run_program(HIndexFixpoint("in"), g)
    assert results == []
    assert metrics.supersteps == 1


def _reference(program, g, parts=None, phase=""):
    block_of = None if parts is None else parts.block_of
    results, _, per_step, intra = naive_schedule(program, g, block_of)
    return results, EngineMetrics(phase, per_step, intra)


def _program_factories(g):
    kmaxes = _reference(HIndexFixpoint("in"), g)[0]
    lmaxes = _reference(HIndexFixpoint("out"), g)[0]
    lupps = _reference(LuppProgram(kmaxes), g)[0]
    return {
        "kmax": lambda: HIndexFixpoint("in"),
        "lmax": lambda: HIndexFixpoint("out"),
        "lupp": lambda: LuppProgram(kmaxes),
        "refine": lambda: RowProgram(lupps),
        "skyline": lambda: RowProgram(boxes(zip(kmaxes, lmaxes))),
    }


@pytest.mark.parametrize("n,p,seed", [(30, 0.15, 1), (60, 0.06, 2), (80, 0.04, 3)])
def test_active_set_matches_full_sweep_reference(n, p, seed):
    g = generate_random_digraph(n, p, seed=seed)
    for name, make in _program_factories(g).items():
        assert run_program(make(), g) == _reference(make(), g), name
        for part, blocks in [("hash", 1), ("hash", 3), ("seg", 4)]:
            parts = make_partition(part, g, blocks)
            got = run_program(make(), g, parts, "block")
            assert got == _reference(make(), g, parts), (name, part, blocks)


def test_emitter_without_messages_stays_active():
    ring = build_graph(10, [(v, (v + 1) % 10) for v in range(10)])
    results, metrics = run_program(CountdownProgram(), ring)
    # v % 5 >= r vertices emit in round r, each to one successor
    assert metrics.messages_per_step == [8, 8, 6, 4, 2, 0]
    assert [left for left, _ in results] == [0] * 10
    assert (results, metrics) == _reference(CountdownProgram(), ring)
    # On two hash blocks every ring arc crosses blocks.  A block's superstep
    # ends after its first round that sends nothing inside the block, so
    # each superstep is one round, as in vertex mode.
    _, metrics = run_program(CountdownProgram(), ring, hash_partition(ring, 2), "block")
    assert metrics.messages_per_step == [8, 8, 6, 4, 2, 0]
    g = generate_random_digraph(40, 0.1, seed=5)
    assert run_program(CountdownProgram(), g) == _reference(CountdownProgram(), g)
    for blocks in (1, 3):
        parts = hash_partition(g, blocks)
        got = run_program(CountdownProgram(), g, parts, "block")
        assert got == _reference(CountdownProgram(), g, parts)


def test_long_path_updates_are_linear():
    g = build_graph(100, [(i, i + 1) for i in range(99)])
    prog = HIndexFixpoint("in")
    hook = prog.after_messages
    calls = []

    def counting(state, v, g):
        calls.append(v)
        return hook(state, v, g)

    prog.after_messages = counting
    _, metrics = run_program(prog, g)
    assert metrics.supersteps == 100
    # Round 1 runs all n vertices, as all emitted at init; every later round
    # runs only the vertex that just dropped and its successor.  A full sweep
    # would make n * (supersteps - 1) = 9900 calls.
    assert len(calls) == g.n + 2 * (metrics.supersteps - 2)


def _assert_each_payload_arrives_once_in_order(g, logs):
    for r, got in enumerate(logs):
        assert sorted({s for s, _ in got}) == g.in_adj[r]
        for s in g.in_adj[r]:
            assert [p for sender, p in got if sender == s] == [(s, i) for i in range(s % 3 + 1)]


def test_every_payload_arrives_exactly_once_in_emission_order():
    # Delta payloads are only correct under this contract: every emitted
    # payload reaches each recipient once, and one sender's payloads arrive
    # in the order it emitted them.
    g = generate_random_digraph(40, 0.12, seed=9)
    logs, _ = run_program(SequenceProgram(), g)
    _assert_each_payload_arrives_once_in_order(g, logs)
    for part, blocks in [("hash", 1), ("hash", 3), ("seg", 4)]:
        logs, _ = run_program(SequenceProgram(), g, make_partition(part, g, blocks), "block")
        _assert_each_payload_arrives_once_in_order(g, logs)


def test_payloads_of_two_local_rounds_cross_blocks_in_order():
    # On two hash blocks every ring arc crosses blocks; the chord (2, 4) stays
    # inside block 0.  Having sent along it, vertex 2 emits (2, 1) and (2, 2)
    # in two local rounds of superstep 2; vertex 3 must receive both at the
    # start of superstep 3, in that order.
    ring = build_graph(10, [(v, (v + 1) % 10) for v in range(10)] + [(2, 4)])
    snaps = []
    logs, _ = run_program(
        SequenceProgram(),
        ring,
        hash_partition(ring, 2),
        "block",
        observer=lambda _, states: snaps.append(list(states[3]["got"])),
    )
    assert snaps[1] == [(2, (2, 0))]
    assert snaps[2] == [(2, (2, 0)), (2, (2, 1)), (2, (2, 2))]
    _assert_each_payload_arrives_once_in_order(ring, logs)


def _padded_sum(*per_steps):
    """Step-wise sum of several runs' message counts, each padded with zeros."""
    width = max(map(len, per_steps))
    return [sum(xs[i] for xs in per_steps if i < len(xs)) for i in range(width)]


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_programs_in_shared_supersteps_equal_their_separate_runs(source, request):
    g = graph_from(source, request)
    for parts in (None, make_partition("hash", g, 3), make_partition("seg", g, 4)):
        mode = "vertex" if parts is None else "block"
        seen = []
        (kmaxes, lmaxes), joint = run_programs(
            (HIndexFixpoint("in"), HIndexFixpoint("out")),
            g,
            parts,
            mode,
            phase="init",
            observer=lambda step, states: seen.append((step, len(states))),
        )
        alone_in = run_program(HIndexFixpoint("in"), g, parts, mode, phase="init")
        alone_out = run_program(HIndexFixpoint("out"), g, parts, mode, phase="init")
        assert alone_in == _reference(HIndexFixpoint("in"), g, parts, "init")
        assert alone_out == _reference(HIndexFixpoint("out"), g, parts, "init")
        (want_in, m_in), (want_out, m_out) = alone_in, alone_out
        assert (kmaxes, lmaxes) == (want_in, want_out)
        assert joint.phase == "init"
        assert joint.messages_per_step == _padded_sum(
            m_in.messages_per_step, m_out.messages_per_step
        )
        assert joint.intra_messages == m_in.intra_messages + m_out.intra_messages
        assert joint.supersteps == max(m_in.supersteps, m_out.supersteps)
        # the observer gets one state list per program after every superstep
        assert seen == [(step, 2) for step in range(1, joint.supersteps + 1)]


def test_runaway_program_beside_a_quiet_one_hits_cap(ref8):
    _, quiet = run_program(HIndexFixpoint("in"), ref8)
    with pytest.raises(SuperstepLimitError) as info:
        run_programs((HIndexFixpoint("in"), ChattyProgram()), ref8, max_supersteps=7, phase="pair")
    m = info.value.metrics
    assert (m.phase, m.supersteps) == ("pair", 7)
    # the partial metrics count both programs' messages
    assert m.messages_per_step == _padded_sum(quiet.messages_per_step, [ref8.num_arcs] * 7)
    parts = hash_partition(ref8, 2)
    with pytest.raises(SuperstepLimitError, match=r"no local fixpoint .*\(in pair\)") as info:
        run_programs(
            (HIndexFixpoint("in"), ChattyProgram()), ref8, parts, "block",
            max_supersteps=7, phase="pair",
        )
    assert info.value.metrics.messages_per_step == [2 * ref8.num_arcs]


def _one_slow_block_graph():
    """Four seg blocks of 16: a path in block 0, random arcs in blocks 1-2.

    The path ripples one vertex per local round in either direction, so
    block 0 needs about 16 local rounds per superstep where blocks 1 and 2
    need a few.  Block 3 is isolated vertices: emitters without recipients,
    whose block stops after its first round.
    """
    rand = generate_random_digraph(32, 0.12, seed=4)
    arcs = [(i, i + 1) for i in range(15)]
    arcs += [(16 + u, 16 + v) for u in range(32) for v in rand.out_adj[u]]
    arcs += [(15, 16), (20, 15)]
    return build_graph(64, arcs)


def test_blocks_take_their_local_rounds_together():
    g = _one_slow_block_graph()
    parts = make_partition("seg", g, 4)
    programs = _program_factories(g) | {"countdown": CountdownProgram}
    for name, make in programs.items():
        got = run_program(make(), g, parts, "block", phase=name)
        assert got == _reference(make(), g, parts, name), name
    _, metrics = run_program(HIndexFixpoint("in"), g, parts, "block")
    assert metrics.intra_messages >= 15  # the whole path fell inside block 0
    # The rounds cap is the superstep cap plus one; the path needs more.
    with pytest.raises(SuperstepLimitError, match=r"block 0: .* 8 iterations \(in slow\)"):
        run_program(HIndexFixpoint("in"), g, parts, "block", max_supersteps=8, phase="slow")


def _path_with_back_arcs(n):
    """A directed path plus an arc back from i + 5 to i for every i = 0 mod 7."""
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i + 5, i) for i in range(0, n - 5, 7)]
    return build_graph(n, arcs)


# (supersteps, messages_total, intra_messages) of each phase of
# anchored_decompose (I, II, III) and skyline_table (init, d-index) in block
# mode.  The engine-vs-reference tests cannot catch a scheduling rule that
# moves these, since the reference follows the engine's rule.
BLOCK_MODE_COUNTS = {
    ((60, 0.12, 2), "hash", 3): (
        [(6, 903, 271), (12, 1249, 418), (3, 811, 1)],
        [(6, 1812, 530), (6, 1245, 227)],
    ),
    ((60, 0.12, 2), "seg", 4): (
        [(5, 1017, 143), (12, 1394, 251), (3, 809, 3)],
        [(6, 2030, 292), (8, 1333, 139)],
    ),
    ((80, 0.1, 3), "hash", 3): (
        [(5, 1243, 310), (8, 2330, 809), (7, 1883, 357)],
        [(8, 2975, 835), (7, 1896, 365)],
    ),
    ((80, 0.1, 3), "seg", 4): (
        [(5, 1288, 243), (10, 2548, 782), (7, 1955, 285)],
        [(10, 3080, 690), (7, 1973, 288)],
    ),
    (("pa", 60, 3, 1), "hash", 3): (
        [(7, 306, 66), (7, 343, 88), (2, 342, 0)],
        [(7, 618, 140), (3, 394, 22)],
    ),
    (("pa", 60, 3, 1), "seg", 4): (
        [(9, 304, 68), (8, 326, 115), (2, 342, 0)],
        [(9, 606, 159), (3, 386, 30)],
    ),
    ("path", "hash", 3): (
        [(3, 74, 0), (6, 79, 0), (2, 134, 0)],
        [(6, 153, 0), (2, 134, 0)],
    ),
    ("path", "seg", 4): (
        [(3, 68, 6), (3, 67, 12), (2, 134, 0)],
        [(3, 135, 18), (2, 134, 0)],
    ),
}


def _case_id(source, part, blocks):
    name = source if isinstance(source, str) else "-".join(map(str, source))
    return f"{name}-{part}{blocks}"


@pytest.mark.parametrize(
    "source,part,blocks",
    list(BLOCK_MODE_COUNTS),
    ids=[_case_id(*case) for case in BLOCK_MODE_COUNTS],
)
def test_block_mode_phase_counts_are_pinned(source, part, blocks, request):
    g = _path_with_back_arcs(60) if source == "path" else graph_from(source, request)
    parts = make_partition(part, g, blocks)
    want_anchored, want_skyline = BLOCK_MODE_COUNTS[source, part, blocks]
    for algo, names, want in [
        (anchored_decompose, ["phase I", "phase II", "phase III"], want_anchored),
        (skyline_table, ["init", "d-index"], want_skyline),
    ]:
        _, phases = algo(g, parts, "block")
        assert [m.phase for m in phases] == names
        assert [(m.supersteps, m.messages_total, m.intra_messages) for m in phases] == want
