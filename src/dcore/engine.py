"""Deterministic bulk-synchronous superstep simulator.

A vertex program supplies five hooks: init, on_broadcast, after_messages,
compose and extract.  Block-centric mode runs each block's local rounds
per superstep, delivering same-block messages between rounds and holding
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

The engine calls on_broadcast(states, rs, sender, payload, wake) once
per emitted payload: rs lists the recipients, states is the run's state
list and wake the round's set of vertices to run; in block mode the
recipients inside the sender's block get the payload in a local round
and the others in the next superstep, one call each.  The payload is the
same for every recipient, so a program unpacks it once and folds it into
each.  The base class's on_broadcast calls on_message(state, sender,
payload) per recipient and wakes each one, for programs written one
delivery at a time.

Delivery contract: a sender's payloads reach a same-block recipient one
by one, each in the local round after the one that emitted it, and a
cross-block recipient, per superstep, as their composition, in emission
order.  Programs may therefore send deltas against their previous
payload.  A vertex holds at most one payload per superstep: when it emits
again in a later local round, its held payload p and the new one q become
compose(p, q), and messages_per_step counts that one payload per
recipient.  Held mail is all folded in the first round of the next
superstep, before any after_messages runs, so a program whose fold of
compose(p, q) equals the fold of p then q gets the results it would get
with every payload held apart.  In vertex mode a vertex runs at most once
per superstep, so nothing composes.  Payloads of distinct senders arrive
in no promised order, so their folds must be commutative across senders.
All init messages are delivered before any vertex runs after_messages, so
a program may seed state from them in its first call; init payloads are
held before any vertex emits, so they never compose.  A program names
each vertex's init recipients (init_recipients), by default its broadcast
list; init mail is always held for the next superstep, so block mode
needs no split for it.

Scheduling: a round runs the recipients its folds woke; waking every
recipient is Pregel's rule, in which any message wakes a halted vertex.
Init is every vertex's first step.  After init, a round hands each
payload in its inbox to its recipients, then runs the vertices that a
fold woke; a superstep's first inbox is the held mail.  So a fold must
wake each recipient whose after_messages would emit if it ran now, and
after_messages must return None, leaving the state as a later call needs
it, when no fold woke the vertex since init or its last call; a vertex
that no fold wakes keeps its init state.  The programs in this package
change state only by folding messages and emit only on change, and each
wakes a recipient only when the fold left one of its supports short of
its value; supports only fall between runs, so the first fold that
leaves one short is the one that wakes.  Results and every metric but
updates_per_step then equal those of sweeping every vertex in every
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DirectedGraph

MODES = ("vertex", "block")


@dataclass
class EngineMetrics:
    """Exact round and message accounting for one engine run."""

    phase: str
    messages_per_step: list[int]  # one count per superstep, init's broadcast first
    intra_messages: int = 0  # block mode: deliveries kept inside a block after init
    # after_messages calls per superstep, summed over its local rounds; 0 for
    # init.  The simulator's work, not the cost model: waking every recipient
    # gives equal metrics and more updates, so it takes no part in equality.
    updates_per_step: list[int] = field(default_factory=list, compare=False)

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
    on_broadcast to fold it into every recipient and wake those that must
    run, or on_message, which the default on_broadcast calls once per
    recipient before waking it.
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

    def on_broadcast(self, states, rs, sender: int, payload, wake) -> None:
        """Fold one payload of sender into states[r] for each r in rs.

        wake(r) makes r run in this round.  A round runs the recipients its
        folds woke; a program must wake each r whose after_messages would
        emit now.  The default hands each state to on_message and wakes
        every recipient, which is Pregel's rule.
        """
        for r in rs:
            self.on_message(states[r], sender, payload)
            wake(r)

    def on_message(self, state, sender: int, payload) -> None:
        """Fold one payload into one recipient's state (see on_broadcast)."""
        raise NotImplementedError

    def after_messages(self, state, v: int, g: DirectedGraph):
        """Return a payload to broadcast, or None when nothing changed.

        Must return None when no fold woke the vertex since init or the
        last call: the engine runs a vertex only in a round in which a fold
        woke it (see on_broadcast).
        """
        raise NotImplementedError

    def compose(self, first, then):
        """One payload whose fold equals folding first and then then.

        first and then are two payloads one vertex emitted after init, in
        that order, within one superstep; the engine holds their
        composition for the vertex's cross-block recipients.
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
    reached in the next superstep), to which it holds one payload per
    superstep.  Vertex mode is block mode with no same-block recipients:
    local_to is empty everywhere.  The run is live while held is non-empty.
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
        the vertices that the folds woke.  The first inbox is the held
        mail; each later one is what the round before sent inside a block,
        which reaches only that block, so all blocks take their rounds
        together, each as if it ran alone, and a vertex-mode superstep is
        one round.
        A vertex that emits in several rounds holds the composition of its
        payloads.  Returns the number of deliveries held for the next
        superstep and the number of after_messages calls.
        """
        inbox, held = self.held, {}  # held: sender -> its composed payload
        states, g, program = self.states, self.g, self.program
        on_broadcast, after = program.on_broadcast, program.after_messages
        compose = program.compose
        held_to, local_to = self.held_to, self.local_to
        rounds = updates = 0
        while inbox:
            if rounds:  # the inbox was sent inside blocks
                if rounds > self.cap:
                    raise _NoLocalFixpoint(min(self.block_of[s] for s, _, _ in inbox))
                self.intra += sum(len(rs) for _, _, rs in inbox)
            rounds += 1
            run = set()
            wake = run.add
            for s, payload, rs in inbox:
                on_broadcast(states, rs, s, payload, wake)
            updates += len(run)
            inbox = []
            for v in run:
                payload = after(states[v], v, g)
                if payload is not None:
                    if held_to[v]:
                        held[v] = compose(held[v], payload) if v in held else payload
                    if local_to[v]:
                        inbox.append((v, payload, local_to[v]))
        self.held = [(v, payload, held_to[v]) for v, payload in held.items()]
        return sum(len(rs) for _, _, rs in self.held), updates


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
    run ends, and so is updates_per_step, while intra_messages is the sum of
    theirs; so supersteps is the longest run's.

    parts[v] is the block of vertex v, as hash_partition returns it.  mode
    "block" needs parts, one entry per vertex (ValueError otherwise), and
    holds only cross-block messages; a block's superstep ends after its
    first round that sends nothing inside it.
    messages_per_step counts the initial broadcast plus cross-block traffic,
    one delivery per recipient of each sender's composed payload, and
    intra_messages the deliveries kept inside a block after init.  mode
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
    updates = [0]

    def metrics_so_far() -> EngineMetrics:
        intra = sum(run.intra for run in runs)
        return EngineMetrics(phase, list(per_step), intra, list(updates))

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
            steps = [run.superstep() for run in live]
        except _NoLocalFixpoint as stuck:
            raise SuperstepLimitError(
                f"block {stuck.args[0]}: no local fixpoint within {cap} iterations "
                f"(in {phase or '?'})",
                metrics_so_far(),
            ) from None
        per_step.append(sum(held for held, _ in steps))
        updates.append(sum(ran for _, ran in steps))
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
