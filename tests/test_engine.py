"""Engine semantics: superstep accounting, quiescence, mode equivalence."""

import copy

import pytest

from dcore import engine
from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RowProgram,
    anchored_decompose,
)
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
from conftest import GRAPH_SOURCES, REF8_KMAX, boxes, graph_from, pa_digraph


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
    """Emits whenever it runs until its countdown runs out, mail or not.

    Vertex v starts at v % 5 and emits its remaining count; received
    payloads are only summed.  This breaks the engine's contract: the
    engine runs a vertex only when it has mail, so the vertices whose
    in-neighbors fall silent first stall before zero.
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
    """Vertex v emits a prefix of (v, 0), (v, 1), ..., (v, v % 3).

    (v, 0) goes out at init and each later payload in a round in which the
    vertex has new mail.  Every delivery is logged in arrival order, and
    extract returns (deliveries, payloads emitted).
    """

    broadcast = "out"

    def init(self, v, g):
        return {"sent": [(v, 0)], "got": [], "read": 0}, (v, 0)

    def on_message(self, state, sender, payload):
        state["got"].append((sender, payload))

    def after_messages(self, state, v, g):
        sent, unread = state["sent"], len(state["got"]) > state["read"]
        state["read"] = len(state["got"])
        if not unread or len(sent) > v % 3:
            return None
        sent.append((v, len(sent)))
        return sent[-1]

    def extract(self, state, v, g):
        return state["got"], state["sent"]


def test_silent_program_runs_one_superstep(ref8):
    results, metrics = run_program(SilentProgram(), ref8)
    assert results == list(range(8))
    assert metrics.supersteps == 1
    assert metrics.messages_total == 0


def test_kmax_program_on_fixture(ref8):
    results, metrics = run_program(HIndexFixpoint("in"), ref8)
    assert [kmax for kmax, _ in results] == REF8_KMAX
    assert metrics.supersteps >= 1


def test_vertex_mode_ignores_partitioning(ref8):
    base, m_base = run_program(HIndexFixpoint("in"), ref8, None)
    for name, blocks in [("hash", 2), ("hash", 5), ("seg", 3)]:
        parts = make_partition(name, ref8, blocks)
        res, m = run_program(HIndexFixpoint("in"), ref8, parts, "vertex")
        assert res == base
        assert m == m_base


def test_block_mode_rejects_a_partition_of_another_length(ref8):
    for parts in ([0, 1, 0], [0] * (ref8.n + 1)):
        with pytest.raises(ValueError, match=f"{len(parts)} entries for {ref8.n} vertices"):
            anchored_decompose(ref8, parts, "block")
    # vertex mode ignores the partition
    assert anchored_decompose(ref8, [0], "vertex")[0] == anchored_decompose(ref8)[0]


def test_single_block_converges_in_two_supersteps_after_init(ref8):
    parts = hash_partition(ref8, 1)
    res, metrics = run_program(HIndexFixpoint("in"), ref8, parts, "block")
    assert [kmax for kmax, _ in res] == REF8_KMAX
    # init, then one superstep whose local rounds reach the fixpoint and
    # hold nothing, so the run ends there
    assert metrics.supersteps == 2
    assert metrics.messages_per_step[1:] == [0]  # never any cross traffic
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


def test_runaway_program_hits_cap(ref8, monkeypatch):
    monkeypatch.setattr(engine, "default_superstep_cap", lambda g: 7)
    # the error carries the partial metrics of the supersteps completed
    with pytest.raises(SuperstepLimitError) as info:
        run_program(ChattyProgram(), ref8, phase="chatty")
    m = info.value.metrics
    assert (m.phase, m.supersteps) == ("chatty", 7)
    assert m.messages_per_step == [ref8.num_arcs] * 7
    # block mode: the one block holds directed cycles (0 -> 4 -> 0), so it
    # never reaches a local fixpoint within the cap
    with pytest.raises(SuperstepLimitError, match="no local fixpoint") as info:
        run_program(ChattyProgram(), ref8, hash_partition(ref8, 1), "block")
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

    def observer(step, runs):
        (holder["states"],) = runs

    run_program(prog, ref8, observer=observer)
    for v, state in enumerate(holder["states"]):
        assert prog.after_messages(state, v, ref8) is None


def test_empty_graph_runs():
    g = generate_random_digraph(0, 0.0, seed=0)
    results, metrics = run_program(HIndexFixpoint("in"), g)
    assert results == []
    assert metrics.supersteps == 1


def _reference(program, g, parts=None, phase=""):
    results, _, per_step, intra = naive_schedule(program, g, parts)
    return results, EngineMetrics(phase, per_step, intra)


def _program_factories(g):
    ks = _reference(HIndexFixpoint("in"), g)[0]
    ls = _reference(HIndexFixpoint("out"), g)[0]
    seeds = [
        (kmax, khist[kmax + 1] > 0, lmax, lhist) for (kmax, khist), (lmax, lhist) in zip(ks, ls)
    ]
    lupps = _reference(LuppProgram(seeds), g)[0]
    return {
        "kmax": lambda: HIndexFixpoint("in"),
        "lmax": lambda: HIndexFixpoint("out"),
        "lupp": lambda: LuppProgram(seeds),
        "refine": lambda: RowProgram(lupps),
        "skyline": lambda: RowProgram(boxes((k, l) for k, _, l, _ in seeds)),
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


class MailLoggingCountdown(CountdownProgram):
    """CountdownProgram that logs (vertex, had mail) for every run."""

    def __init__(self):
        self.runs = []

    def on_message(self, state, sender, payload):
        super().on_message(state, sender, payload)
        state["mail"] = True

    def after_messages(self, state, v, g):
        self.runs.append((v, state.pop("mail", False)))
        return super().after_messages(state, v, g)

    def observer(self, step, runs):
        # every message delivered so far was read in its round
        (states,) = runs
        assert not any("mail" in state for state in states)


def test_after_init_a_vertex_runs_only_in_rounds_with_mail():
    # Vertices 1-3 have no arcs and vertex 4 only an arc to 0, so only
    # vertex 0 gets mail: it runs once, and the others never run after
    # init.  A full sweep counts them all down to zero.
    g = build_graph(5, [(4, 0)])
    results, metrics = run_program(CountdownProgram(), g)
    assert results == [(0, 4), (1, 0), (2, 0), (3, 0), (4, 0)]
    assert metrics.messages_per_step == [1, 0]
    assert _reference(CountdownProgram(), g)[0] == [(0, 4 + 3 + 2 + 1)] + [(0, 0)] * 4
    # On a ring vertex 0 emits nothing, so vertex 1 never runs after init,
    # and vertex i in 2..4 runs once per payload of i - 1, which is i - 1
    # times, and stalls at 1.  On two hash blocks every ring arc crosses
    # blocks, so each superstep is one round, as in vertex mode.
    ring = build_graph(10, [(v, (v + 1) % 10) for v in range(10)])
    for parts in (None, hash_partition(ring, 2)):
        mode = "vertex" if parts is None else "block"
        results, metrics = run_program(CountdownProgram(), ring, parts, mode)
        assert metrics.messages_per_step == [8, 6, 4, 2, 0]
        assert results == [(0, 4 + 3 + 2 + 1), (1, 0), (1, 1), (1, 2 + 1), (1, 3 + 2 + 1)] * 2
    rand = generate_random_digraph(40, 0.1, seed=5)
    for graph in (g, ring, rand):
        for parts in (None, hash_partition(graph, 1), hash_partition(graph, 3)):
            mode = "vertex" if parts is None else "block"
            prog = MailLoggingCountdown()
            run_program(prog, graph, parts, mode, observer=prog.observer)
            # Every run had mail; the observer checks that every vertex that
            # got mail ran in that round.
            assert prog.runs and all(mail for _, mail in prog.runs)


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_package_programs_return_none_without_new_mail(source, request):
    # What message-driven scheduling relies on: once a vertex has run on all
    # its mail, a further after_messages call emits nothing.  After every
    # superstep each vertex has, so a call on a copy of any state returns None.
    # A vertex that no init payload reaches does not run in the first round,
    # so at step 1 a call on a copy of its state returns None.  One that no
    # payload ever reaches never runs, so its init state must be final: it
    # is the result that the run ends with.  (Phase II sends init only from
    # some vertices, so a vertex can get its first mail after init.)
    g = graph_from(source, request)
    for name, make in _program_factories(g).items():
        for parts in (None, make_partition("hash", g, 3), make_partition("seg", g, 4)):
            prog, reached, unreached = make(), set(), {}
            recipients, init, after = engine._recipients(prog, g), prog.init, prog.after_messages

            def recording_init(v, g):
                state, payload = init(v, g)
                if payload is not None:
                    reached.update(recipients[v])
                return state, payload

            def recording_after(state, v, g):
                payload = after(state, v, g)
                if payload is not None:
                    reached.update(recipients[v])
                return payload

            prog.init, prog.after_messages = recording_init, recording_after

            def observer(step, runs):
                (states,) = runs
                for v, state in enumerate(states):
                    if step == 1 and v in reached:
                        continue
                    state = copy.deepcopy(state)
                    payload = prog.after_messages(state, v, g)
                    assert payload is None, (name, parts, step, v)
                    if step == 1:
                        unreached[v] = prog.extract(state, v, g)

            mode = "vertex" if parts is None else "block"
            results, _ = run_program(prog, g, parts, mode, observer=observer)
            never = {v: result for v, result in unreached.items() if v not in reached}
            assert never == {v: results[v] for v in never}, (name, parts)


@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_no_run_counts_an_empty_superstep(source, request):
    # A run ends after its first superstep that holds nothing, so the first
    # 0 in messages_per_step is its last entry, also in block mode after a
    # superstep whose messages all stayed inside blocks.
    g = graph_from(source, request)
    factories = _program_factories(g)
    cases = [("hash", 1), ("hash", 3), ("seg", 4)]
    for parts in (None, *(make_partition(part, g, blocks) for part, blocks in cases)):
        mode = "vertex" if parts is None else "block"
        runs = {name: run_program(make(), g, parts, mode)[1] for name, make in factories.items()}
        pair = (HIndexFixpoint("in"), HIndexFixpoint("out"))
        runs["kmax+lmax"] = run_programs(pair, g, parts, mode)[1]
        for name, m in runs.items():
            assert m.messages_per_step.index(0) == m.supersteps - 1, (name, parts)


def test_extract_from_an_observer_changes_no_run():
    # An observer may read any vertex's result mid-run: extract every state
    # of every package program after every superstep, and the results and
    # metrics stay those of a run that nobody watched.
    for g in (generate_random_digraph(60, 0.12, seed=2), pa_digraph(60, 3, 1)):
        makes = [lambda: (HIndexFixpoint("in"), HIndexFixpoint("out"))]
        makes += [lambda make=make: (make(),) for make in _program_factories(g).values()]
        for parts, mode in [(None, "vertex"), (hash_partition(g, 3), "block")]:
            for make in makes:
                programs = make()

                def observer(step, runs):
                    for program, states in zip(programs, runs):
                        for v, state in enumerate(states):
                            program.extract(state, v, g)

                watched = run_programs(programs, g, parts, mode, observer=observer)
                assert watched == run_programs(make(), g, parts, mode), (programs, mode)


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
    # Round 1 runs the n - 1 receivers of init's payloads (vertex 0 gets no
    # mail, ever); every later round runs only the successor of the vertex
    # that just dropped.  A full sweep would make n * (supersteps - 1) =
    # 9900 calls.
    assert len(calls) == (g.n - 1) + (metrics.supersteps - 2)
    assert 0 not in calls


def _assert_each_payload_arrives_once_in_order(g, logs):
    sent = [emitted for _, emitted in logs]
    for r, (got, _) in enumerate(logs):
        assert sorted({s for s, _ in got}) == g.in_adj[r]
        for s in g.in_adj[r]:
            assert [p for sender, p in got if sender == s] == sent[s]
    # some vertex emitted all three payloads, so their order is checked
    assert max(map(len, sent)) == 3


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
    # On two hash blocks every ring arc crosses blocks; the chords (2, 4) and
    # (4, 2) stay inside block 0.  Vertex 2 emits (2, 1) in the first round
    # of superstep 2 and, on the mail (4, 1) sent inside the block, (2, 2)
    # in the second; vertex 3 must receive both at the start of superstep
    # 3, in that order.
    ring = build_graph(10, [(v, (v + 1) % 10) for v in range(10)] + [(2, 4), (4, 2)])
    snaps = []
    logs, _ = run_program(
        SequenceProgram(),
        ring,
        hash_partition(ring, 2),
        "block",
        observer=lambda _, states: snaps.append(list(states[0][3]["got"])),
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


def test_runaway_program_beside_a_quiet_one_hits_cap(ref8, monkeypatch):
    _, quiet = run_program(HIndexFixpoint("in"), ref8)
    monkeypatch.setattr(engine, "default_superstep_cap", lambda g: 7)
    with pytest.raises(SuperstepLimitError) as info:
        run_programs((HIndexFixpoint("in"), ChattyProgram()), ref8, phase="pair")
    m = info.value.metrics
    assert (m.phase, m.supersteps) == ("pair", 7)
    # the partial metrics count both programs' messages
    assert m.messages_per_step == _padded_sum(quiet.messages_per_step, [ref8.num_arcs] * 7)
    parts = hash_partition(ref8, 1)
    with pytest.raises(SuperstepLimitError, match=r"no local fixpoint .*\(in pair\)") as info:
        run_programs((HIndexFixpoint("in"), ChattyProgram()), ref8, parts, "block", phase="pair")
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


def test_blocks_take_their_local_rounds_together(monkeypatch):
    g = _one_slow_block_graph()
    parts = make_partition("seg", g, 4)
    for name, make in _program_factories(g).items():
        got = run_program(make(), g, parts, "block", phase=name)
        assert got == _reference(make(), g, parts, name), name
    _, metrics = run_program(HIndexFixpoint("in"), g, parts, "block")
    assert metrics.intra_messages >= 15  # the whole path fell inside block 0
    # The rounds cap is the superstep cap plus one; the path needs more.
    monkeypatch.setattr(engine, "default_superstep_cap", lambda g: 8)
    with pytest.raises(SuperstepLimitError, match=r"block 0: .* 8 iterations \(in slow\)"):
        run_program(HIndexFixpoint("in"), g, parts, "block", phase="slow")


def _path_with_back_arcs(n):
    """A directed path plus an arc back from i + 5 to i for every i = 0 mod 7."""
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i + 5, i) for i in range(0, n - 5, 7)]
    return build_graph(n, arcs)


# (supersteps, messages_total, intra_messages) of each phase of
# anchored_decompose (I, II, III) and skyline_table (init, d-index), in
# vertex mode per source and in block mode per source and partition.  The
# engine-vs-reference tests cannot catch a scheduling rule that moves
# these, since the reference follows the engine's rule.  Anchored's phase I
# runs the same two fixpoints as skyline's init, so their counts are equal.
VERTEX_MODE_COUNTS = {
    (60, 0.12, 2): (
        [(6, 2295, 0), (14, 385, 0), (3, 812, 0)],
        [(6, 2295, 0), (9, 1472, 0)],
    ),
    (80, 0.1, 3): (
        [(12, 3737, 0), (3, 43, 0), (10, 2240, 0)],
        [(12, 3737, 0), (10, 2261, 0)],
    ),
    ("pa", 60, 3, 1): (
        [(10, 758, 0), (4, 79, 0), (2, 342, 0)],
        [(10, 758, 0), (3, 416, 0)],
    ),
    "path": (
        [(6, 153, 0), (1, 0, 0), (2, 134, 0)],
        [(6, 153, 0), (2, 134, 0)],
    ),
}

BLOCK_MODE_COUNTS = {
    ((60, 0.12, 2), "hash", 3): (
        [(6, 1812, 530), (12, 265, 120), (3, 811, 1)],
        [(6, 1812, 530), (6, 1245, 227)],
    ),
    ((60, 0.12, 2), "seg", 4): (
        [(6, 2030, 292), (11, 310, 75), (3, 809, 3)],
        [(6, 2030, 292), (8, 1333, 139)],
    ),
    ((80, 0.1, 3), "hash", 3): (
        [(8, 2975, 835), (3, 37, 6), (7, 1883, 357)],
        [(8, 2975, 835), (7, 1896, 365)],
    ),
    ((80, 0.1, 3), "seg", 4): (
        [(10, 3080, 690), (3, 40, 3), (7, 1955, 285)],
        [(10, 3080, 690), (7, 1973, 288)],
    ),
    (("pa", 60, 3, 1), "hash", 3): (
        [(7, 618, 140), (4, 70, 9), (2, 342, 0)],
        [(7, 618, 140), (3, 394, 22)],
    ),
    (("pa", 60, 3, 1), "seg", 4): (
        [(9, 606, 159), (3, 63, 16), (2, 342, 0)],
        [(9, 606, 159), (3, 386, 30)],
    ),
    ("path", "hash", 3): (
        [(6, 153, 0), (1, 0, 0), (2, 134, 0)],
        [(6, 153, 0), (2, 134, 0)],
    ),
    ("path", "seg", 4): (
        [(3, 135, 18), (1, 0, 0), (2, 134, 0)],
        [(3, 135, 18), (2, 134, 0)],
    ),
}


def _case_id(source, part=None, blocks=None):
    name = source if isinstance(source, str) else "-".join(map(str, source))
    return name if part is None else f"{name}-{part}{blocks}"


def _pinned_graph(source, request):
    return _path_with_back_arcs(60) if source == "path" else graph_from(source, request)


def _assert_phase_counts(g, parts, mode, want_anchored, want_skyline):
    for algo, names, want in [
        (anchored_decompose, ["phase I", "phase II", "phase III"], want_anchored),
        (skyline_table, ["init", "d-index"], want_skyline),
    ]:
        _, phases = algo(g, parts, mode)
        assert [m.phase for m in phases] == names
        assert [(m.supersteps, m.messages_total, m.intra_messages) for m in phases] == want
    assert want_anchored[0] == want_skyline[0]


@pytest.mark.parametrize("source", list(VERTEX_MODE_COUNTS), ids=map(_case_id, VERTEX_MODE_COUNTS))
def test_vertex_mode_phase_counts_are_pinned(source, request):
    _assert_phase_counts(_pinned_graph(source, request), None, "vertex", *VERTEX_MODE_COUNTS[source])


@pytest.mark.parametrize(
    "source,part,blocks",
    list(BLOCK_MODE_COUNTS),
    ids=[_case_id(*case) for case in BLOCK_MODE_COUNTS],
)
def test_block_mode_phase_counts_are_pinned(source, part, blocks, request):
    g = _pinned_graph(source, request)
    parts = make_partition(part, g, blocks)
    _assert_phase_counts(g, parts, "block", *BLOCK_MODE_COUNTS[source, part, blocks])
