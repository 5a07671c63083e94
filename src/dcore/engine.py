"""Deterministic bulk-synchronous superstep simulator.

A vertex program supplies four hooks: init, on_broadcast, after_messages
and extract.  Block-centric mode runs each block's local rounds per
superstep, delivering same-block messages between rounds and holding
cross-block ones for the next superstep; a block's superstep ends after
its first round that sends no message inside the block.  Blocks share
nothing within a superstep, so all blocks take their local rounds
together, each as if it ran alone.  Vertex-centric mode is the case in
which no vertex has a recipient in its own block: each superstep is one
round, and every message is held for the next one.  A run ends after the
first superstep that holds no message.

Each program's run is one _Run object.  run_programs advances several
runs in shared supersteps, as a Pregel job may run vertex programs that
do not depend on each other; each program's results are those of running
it alone, and the one EngineMetrics sums their traffic.  run_program is
run_programs with one program, so an observer gets one state list per
program whichever of the two runs a phase.

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
program may seed state from them in its first call.  A program names
each vertex's init recipients (init_recipients), by default its broadcast
list; init mail is always held for the next superstep, so block mode
needs no split for it.

Scheduling is Pregel's rule, in which only a message wakes a halted
vertex.  Init is every vertex's first step.  After init, a round hands each
payload in its inbox to its recipients, then runs the vertices that got
one; a superstep's first inbox is the held mail.  So after_messages must
return None when nothing was folded into the state since init or its last
call, and a vertex that no payload reaches keeps its init state.  The
programs in this package change state only by folding messages and emit
only on change, which satisfies this; results and metrics then equal those
of sweeping every vertex in every round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph

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

    def init_recipients(self, g: DirectedGraph) -> list[list[int]]:
        """Each vertex's recipients of its init payload: its broadcast list.

        A program whose vertices already know what some neighbors would
        tell them at init overrides this to send to fewer of them.
        """
        return _recipients(self, g)

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

        Must return None when nothing was folded into state since init or
        the last call: the engine runs a vertex only in a round in which it
        received a message.
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
    """One program's run: its states, recipients and held messages.

    Each vertex's recipients are split into those in its own block
    (local_to, reached in the next local round) and the others (held_to,
    reached in the next superstep).  Vertex mode is block mode with no
    same-block recipients: local_to is empty everywhere.  The run is live
    while held is non-empty.
    """

    def __init__(self, program: VertexProgram, g: DirectedGraph, block_of, cap: int):
        self.program, self.g, self.block_of, self.cap = program, g, block_of, cap
        recipients = _recipients(program, g)
        if block_of is None:
            self.held_to, self.local_to = recipients, [()] * g.n
        else:
            self.held_to, self.local_to = [], []
            for rs, b in zip(recipients, block_of):
                held, local = [], []
                for r in rs:
                    (local if block_of[r] == b else held).append(r)
                self.held_to.append(held)
                self.local_to.append(local)
        self.states = [None] * g.n
        self.held: list[tuple[int, object, list[int]]] = []
        self.intra = 0  # deliveries kept inside a block after init

    def init(self) -> int:
        """Run init at every vertex and hold its payloads; return their deliveries."""
        init, g = self.program.init, self.g
        recipients = self.program.init_recipients(g)
        states, held = self.states, self.held
        for v in range(g.n):
            states[v], payload = init(v, g)
            if payload is not None and recipients[v]:
                held.append((v, payload, recipients[v]))
        return sum(len(rs) for _, _, rs in held)

    def superstep(self) -> int:
        """Deliver the held mail and run rounds until none sends inside a block.

        A round hands each payload in its inbox to its recipients, then runs
        the vertices that got one.  The first inbox is the held mail; each
        later one is what the round before sent inside a block, which
        reaches only that block, so all blocks take their rounds together,
        each as if it ran alone, and a vertex-mode superstep is one round.
        Returns the number of deliveries held for the next superstep.
        """
        inbox, self.held = self.held, []
        held, states, g = self.held, self.states, self.g
        on_broadcast, after = self.program.on_broadcast, self.program.after_messages
        held_to, local_to, state_of = self.held_to, self.local_to, states.__getitem__
        rounds = 0
        while inbox:
            if rounds:  # the inbox was sent inside blocks
                if rounds > self.cap:
                    raise _NoLocalFixpoint(min(self.block_of[s] for s, _, _ in inbox))
                self.intra += sum(len(rs) for _, _, rs in inbox)
            rounds += 1
            run = set()
            for s, payload, rs in inbox:
                on_broadcast(map(state_of, rs), s, payload)
                run.update(rs)
            inbox = []
            for v in run:
                payload = after(states[v], v, g)
                if payload is not None:
                    if held_to[v]:
                        held.append((v, payload, held_to[v]))
                    if local_to[v]:
                        inbox.append((v, payload, local_to[v]))
        return sum(len(rs) for _, _, rs in held)


def run_programs(
    programs,
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    *,
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

    parts[v] is the block of vertex v, as hash_partition returns it.  mode
    "block" needs parts, one entry per vertex (ValueError otherwise), and
    holds only cross-block messages; a block's superstep ends after its
    first round that sends nothing inside it.
    messages_per_step counts the initial broadcast plus cross-block traffic
    and intra_messages the deliveries kept inside a block after init.  mode
    "vertex" ignores parts and treats every recipient as outside the
    sender's block, so each superstep is one round and holds every message
    for the next; its results and metrics do not depend on the partition.
    Both modes give the same results.  `workers` is accepted and ignored,
    since the simulator runs in one thread; it stays only because
    benchmarks/run.py passes workers=1, and goes when that call stops
    passing it.  `observer(step, states)` is called after init as step 1
    and then after every superstep; states holds one state list per
    program, in the order of programs, also when there is one.  A run
    that needs more than default_superstep_cap(g) supersteps, or a block
    that needs more local rounds in one superstep, raises
    SuperstepLimitError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "block" and parts is None:
        raise ValueError("block mode requires a partition")
    if mode == "block" and len(parts) != g.n:
        raise ValueError(f"partition has {len(parts)} entries for {g.n} vertices")
    block_of = parts if mode == "block" else None
    cap = default_superstep_cap(g)
    runs = [_Run(program, g, block_of, cap) for program in programs]
    states = [run.states for run in runs]
    per_step = [sum(run.init() for run in runs)]

    def metrics_so_far() -> EngineMetrics:
        return EngineMetrics(phase, list(per_step), sum(run.intra for run in runs))

    if observer is not None:
        observer(1, states)
    live = [run for run in runs if run.held]
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
        live = [run for run in live if run.held]
        if observer is not None:
            observer(len(per_step), states)
    results = [
        [run.program.extract(run.states[v], v, g) for v in range(g.n)] for run in runs
    ]
    return results, metrics_so_far()


def run_program(
    program: VertexProgram,
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
):
    """Run one program on g to quiescence; return (per-vertex results, metrics).

    This is run_programs with one program; see there for the modes and
    keywords.  Its observer, too, gets one state list per program.
    """
    (results,), metrics = run_programs((program,), g, parts, mode, **kwargs)
    return results, metrics
