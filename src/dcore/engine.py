"""Deterministic bulk-synchronous superstep simulator.

A vertex program supplies four hooks: init, on_broadcast, after_messages
and extract.  Block-centric mode runs each block's local rounds per
superstep, delivering same-block messages between rounds and holding
cross-block ones for the next superstep; a block's superstep ends after
its first round that sends no message inside the block.  Blocks share
nothing within a superstep, so all blocks take their local rounds
together over one active set, each as if it ran alone.  Vertex-centric
mode is the case in which no vertex has a recipient in its own block: each
superstep is one round, and every message is held for the next one.  A
run ends after the first superstep that delivers no message.

Each program's run is one _Run object.  run_programs advances several
runs in shared supersteps, as a Pregel job may run vertex programs that
do not depend on each other; each program's results are those of running
it alone, and the one EngineMetrics sums their traffic.  run_program is
run_programs with one program.

The engine calls on_broadcast(targets, sender, payload) once per emitted
payload, where targets iterates the recipients' states; in block mode the
recipients inside the sender's block get the payload in a local round and
the others in the next superstep, one call each.  The payload is the same
for every target, so a program unpacks it once and folds it into each.
The base class's on_broadcast calls on_message(state, sender, payload) per
target, for programs written one delivery at a time.

Delivery contract: every emitted payload reaches each of its recipients
exactly once, and the payloads of one sender reach a recipient in the
order the sender emitted them, also when it emits in several local rounds
of one block-mode superstep.  Programs may therefore send deltas against
their previous payload.  Payloads of distinct senders arrive in no
promised order, so their folds must be commutative across senders.  All
init messages are delivered before any vertex runs after_messages, so a
program may seed state from them in its first call.

Scheduling follows Pregel's vote-to-halt rule: in a round, a vertex takes
its messages and runs after_messages only if it received a message in that
round or emitted in its previous round (init counts as a round in which
every vertex with a payload emitted).  So after_messages must return None
unless one of those holds.  The programs in this package emit only on
change, which satisfies this; results and metrics then equal those of
sweeping every vertex in every round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph, PartitionMap

MODES = ("vertex", "block")


@dataclass
class EngineMetrics:
    """Exact round and message accounting for one engine run."""

    phase: str
    messages_per_step: list[int]  # one count per superstep, init's broadcast first
    intra_messages: int = 0  # block mode: deliveries kept inside a block after init

    @property
    def supersteps(self) -> int:
        return len(self.messages_per_step)

    @property
    def messages_total(self) -> int:
        return sum(self.messages_per_step)


class SuperstepLimitError(RuntimeError):
    """A program failed to quiesce within the superstep cap.

    metrics holds the run's partial EngineMetrics: its phase and the
    supersteps completed and their messages before the cap was hit.
    """

    def __init__(self, message: str, metrics: EngineMetrics):
        super().__init__(message)
        self.metrics = metrics


class VertexProgram:
    """Behavior contract executed at every vertex.

    broadcast names the recipients of every emitted payload: the vertex's
    out-neighbors, in-neighbors, or both.  The engine hands a payload to
    all its recipients in one on_broadcast call.  A program overrides
    on_broadcast to fold it into every target, or on_message, which the
    default on_broadcast calls once per target.
    """

    broadcast = "out"

    def init(self, v: int, g: DirectedGraph):
        """Return (state, initial payload or None)."""
        raise NotImplementedError

    def on_broadcast(self, targets, sender: int, payload) -> None:
        """Fold one payload of sender into each recipient state of targets.

        The default hands each target to on_message in turn.
        """
        for state in targets:
            self.on_message(state, sender, payload)

    def on_message(self, state, sender: int, payload) -> None:
        """Fold one payload into one recipient's state (see on_broadcast)."""
        raise NotImplementedError

    def after_messages(self, state, v: int, g: DirectedGraph):
        """Return a payload to broadcast, or None when nothing changed.

        Must return None unless the vertex received a message in this round
        or emitted in its previous one: the engine skips it otherwise.
        """
        raise NotImplementedError

    def extract(self, state, v: int, g: DirectedGraph):
        raise NotImplementedError


def _recipients(program: VertexProgram, g: DirectedGraph) -> list[list[int]]:
    if program.broadcast == "out":
        return g.out_adj
    if program.broadcast == "in":
        return g.in_adj
    if program.broadcast == "both":
        return g.both_adj
    raise ValueError(f"bad broadcast direction {program.broadcast!r}")


def default_superstep_cap(g: DirectedGraph) -> int:
    # Degree term covers refinement chains; the +2n term covers information
    # ripples along chains, which need up to diameter-many supersteps however
    # small the degrees are (e.g. a directed path converges one vertex per step).
    return 10 * (g.max_degree() + 1) + 2 * g.n


class _NoLocalFixpoint(Exception):
    """A block still sent inside itself in its last allowed round; args[0] is the block."""


class _Run:
    """One program's run: its states, recipients, held messages and active set.

    Each vertex's recipients are split into those in its own block
    (local_to, reached in the next local round) and the others (held_to,
    reached in the next superstep).  Vertex mode is block mode with no
    same-block recipients: local_to is empty everywhere.  One active set
    serves every block: it holds the emitters of their last round and the
    receivers since then.
    """

    def __init__(self, program: VertexProgram, g: DirectedGraph, block_of, cap: int):
        self.program, self.g, self.block_of, self.cap = program, g, block_of, cap
        self.recipients = recipients = _recipients(program, g)
        if block_of is None:
            self.held_to, self.local_to = recipients, [()] * g.n
        else:
            self.held_to, self.local_to = [], []
            for v, rs in enumerate(recipients):
                self.held_to.append([r for r in rs if block_of[r] != block_of[v]])
                self.local_to.append([r for r in rs if block_of[r] == block_of[v]])
        self.states = [None] * g.n
        self.active: set[int] = set()
        self.held: list[tuple[int, object, list[int]]] = []
        self.intra = 0  # deliveries kept inside a block after init
        self.delivering = False  # whether init or the last superstep delivered anything

    def init(self) -> int:
        """Run init at every vertex and hold its payloads; return their deliveries."""
        init, g, recipients = self.program.init, self.g, self.recipients
        states, active, held = self.states, self.active, self.held
        for v in range(g.n):
            states[v], payload = init(v, g)
            if payload is not None:
                active.add(v)
                if recipients[v]:
                    held.append((v, payload, recipients[v]))
        count = sum(len(rs) for _, _, rs in held)
        self.delivering = count > 0
        return count

    def _deliver(self, messages, active: set[int]) -> None:
        """Hand each payload to its recipients and mark them active."""
        on_broadcast, state_of = self.program.on_broadcast, self.states.__getitem__
        for s, payload, rs in messages:
            on_broadcast(map(state_of, rs), s, payload)
            active.update(rs)

    def superstep(self) -> int:
        """Deliver the held payloads, then run the superstep's rounds.

        All blocks take their rounds together.  A block's superstep ends
        after its first round that sends no message inside the block, as
        if it ran alone: blocks share nothing within a superstep.  The
        emitters of that round wait for the next superstep, and so does
        every emitter in vertex mode, which runs one round.  Returns the
        number of deliveries held for the next superstep.
        """
        self._deliver(self.held, self.active)
        self.held = held = []
        states, g, after = self.states, self.g, self.program.after_messages
        block_of, held_to, local_to = self.block_of, self.held_to, self.local_to
        run, waiting, rounds = self.active, [], 0  # rounds that sent inside a block
        while True:
            active, inbox = set(), []
            for v in run:
                payload = after(states[v], v, g)
                if payload is not None:
                    active.add(v)
                    if held_to[v]:
                        held.append((v, payload, held_to[v]))
                    if local_to[v]:
                        inbox.append((v, payload, local_to[v]))
            if not inbox:
                break
            rounds += 1
            if rounds > self.cap:
                raise _NoLocalFixpoint(min(block_of[s] for s, _, _ in inbox))
            # the emitters of blocks that sent nothing inside wait for the next superstep
            sending = {block_of[s] for s, _, _ in inbox}
            quiet = [v for v in active if block_of[v] not in sending]
            active.difference_update(quiet)
            waiting += quiet
            self.intra += sum(len(rs) for _, _, rs in inbox)
            self._deliver(inbox, active)
            run = active
        if waiting:
            active.update(waiting)
        self.active = active
        self.delivering = bool(held) or rounds > 0
        return sum(len(rs) for _, _, rs in held)


def run_programs(
    programs,
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    *,
    max_supersteps: int | None = None,
    workers: int = 1,
    observer=None,
    phase: str = "",
):
    """Run several programs on g in shared supersteps; return (results, metrics).

    The programs share nothing, so each one's results are those of running
    it alone; results holds one per-vertex result list per program.  The
    one EngineMetrics sums their traffic: messages_per_step is the
    step-wise sum of the programs' counts, each padded with zeros after its
    run ends, and intra_messages the sum of theirs; so supersteps is the
    longest run's.

    mode "block" needs parts and holds only cross-block messages; a block's
    superstep ends after its first round that sends nothing inside it.
    messages_per_step counts the initial broadcast plus cross-block traffic
    and intra_messages the deliveries kept inside a block after init.  mode
    "vertex" ignores parts and treats every recipient as outside the
    sender's block, so each superstep is one round and holds every message
    for the next; its results and metrics do not depend on the partition.
    Both modes give the same results.  `workers` is accepted and ignored,
    since the simulator runs in one thread; it stays only because
    benchmarks/run.py passes workers=1, and goes when that call stops
    passing it.  `observer(step, states)` is called after init as step 1
    and then after every superstep, with one state list per program.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "block" and parts is None:
        raise ValueError("block mode requires a partition")
    block_of = parts.block_of if mode == "block" else None
    cap = max_supersteps if max_supersteps is not None else default_superstep_cap(g)
    runs = [_Run(program, g, block_of, cap) for program in programs]
    states = [run.states for run in runs]
    per_step = [sum(run.init() for run in runs)]

    def metrics_so_far() -> EngineMetrics:
        return EngineMetrics(phase, list(per_step), sum(run.intra for run in runs))

    if observer is not None:
        observer(1, states)
    live = [run for run in runs if run.delivering]
    while live:
        if len(per_step) >= cap:
            raise SuperstepLimitError(
                f"no quiescence within {cap} supersteps (in {phase or '?'})",
                metrics_so_far(),
            )
        try:
            per_step.append(sum(run.superstep() for run in live))
        except _NoLocalFixpoint as stuck:
            raise SuperstepLimitError(
                f"block {stuck.args[0]}: no local fixpoint within {cap} iterations "
                f"(in {phase or '?'})",
                metrics_so_far(),
            ) from None
        live = [run for run in live if run.delivering]
        if observer is not None:
            observer(len(per_step), states)
    results = [
        [run.program.extract(run.states[v], v, g) for v in range(g.n)] for run in runs
    ]
    return results, metrics_so_far()


def run_program(
    program: VertexProgram,
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    *,
    observer=None,
    **kwargs,
):
    """Run one program on g to quiescence; return (per-vertex results, metrics).

    This is run_programs with one program (see there for the modes and
    keywords), except that `observer(step, states)` gets the program's
    state list itself.
    """
    if observer is not None:
        observe = observer

        def observer(step, states):
            observe(step, states[0])

    (results,), metrics = run_programs((program,), g, parts, mode, observer=observer, **kwargs)
    return results, metrics
