"""Engine semantics: superstep accounting, quiescence, mode equivalence."""

import pytest

from dcore.anchored import HIndexFixpoint, LuppProgram, RefineProgram
from dcore.engine import (
    EngineMetrics,
    SuperstepLimitError,
    VertexProgram,
    default_superstep_cap,
    run_program,
)
from dcore.graph import build_graph, generate_random_digraph, hash_partition, make_partition
from dcore.skyline import SkylineProgram

from _naive import naive_schedule
from conftest import REF8_KMAX


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
    metrics.check()


def test_kmax_program_on_fixture(ref8):
    results, metrics = run_program(HIndexFixpoint("in"), ref8)
    assert results == REF8_KMAX
    assert metrics.supersteps >= 1
    metrics.check()


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
    m.check()
    assert (m.phase, m.supersteps) == ("chatty", 7)
    assert m.messages_per_step == [ref8.num_arcs] * 7
    # block mode: one block never reaches a local fixpoint within the cap
    with pytest.raises(SuperstepLimitError) as info:
        run_program(ChattyProgram(), ref8, hash_partition(ref8, 2), "block", max_supersteps=7)
    m = info.value.metrics
    m.check()
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


def test_determinism_across_runs_and_workers():
    g = generate_random_digraph(60, 0.12, seed=17)
    parts = hash_partition(g, 4)
    runs = [
        run_program(HIndexFixpoint("in"), g, workers=w) for w in (1, 1, 4)
    ]
    for res, metrics in runs[1:]:
        assert res == runs[0][0]
        assert metrics == runs[0][1]
    bruns = [
        run_program(HIndexFixpoint("in"), g, parts, "block", workers=w) for w in (1, 4)
    ]
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
    results, supersteps, per_step, intra = naive_schedule(program, g, block_of)
    return results, EngineMetrics(phase, supersteps, sum(per_step), per_step, intra)


def _program_factories(g):
    kmaxes = _reference(HIndexFixpoint("in"), g)[0]
    lmaxes = _reference(HIndexFixpoint("out"), g)[0]
    lupps = _reference(LuppProgram(kmaxes), g)[0]
    return {
        "kmax": lambda: HIndexFixpoint("in"),
        "lmax": lambda: HIndexFixpoint("out"),
        "lupp": lambda: LuppProgram(kmaxes),
        "refine": lambda: RefineProgram(kmaxes, lupps),
        "skyline": lambda: SkylineProgram(list(zip(kmaxes, lmaxes))),
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
    # On two hash blocks every ring arc crosses blocks.  Local rounds go on
    # while a round sends anything, so all countdowns finish in superstep 1.
    _, metrics = run_program(CountdownProgram(), ring, hash_partition(ring, 2), "block")
    assert metrics.messages_per_step == [8, 20, 0]
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
    # On two hash blocks every ring arc crosses blocks.  Vertex 2 emits (2, 1)
    # and (2, 2) in two local rounds of superstep 2; vertex 3 must receive
    # both at the start of superstep 3, in that order.
    ring = build_graph(10, [(v, (v + 1) % 10) for v in range(10)])
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
