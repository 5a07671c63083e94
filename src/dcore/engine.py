"""Deterministic bulk-synchronous superstep simulator.

A vertex program supplies four hooks: init, on_broadcast, after_messages
and extract.  Vertex-centric mode runs one update round per superstep and
holds every message for the next one.  Block-centric mode iterates each
block's rounds to a local fixpoint per superstep and holds only
cross-block messages.  A run ends after the first superstep that delivers
no message.

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


@dataclass
class EngineMetrics:
    """Exact round and message accounting for one engine run."""

    phase: str
    supersteps: int
    messages_total: int
    messages_per_step: list[int]
    intra_messages: int = 0  # block mode: deliveries kept inside a block after init

    def check(self) -> None:
        assert self.messages_total == sum(self.messages_per_step)
        assert self.supersteps == len(self.messages_per_step)


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


def run_program(
    program: VertexProgram,
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    *,
    max_supersteps: int | None = None,
    workers: int = 1,
    observer=None,
    phase: str = "",
):
    """Run program on g to quiescence; return (per-vertex results, metrics).

    mode "vertex" runs one update round per superstep, holds every message
    for the next superstep and ignores parts: its results and metrics do
    not depend on the partition.  mode "block" needs parts and holds only
    cross-block messages; messages_per_step counts the initial broadcast
    plus cross-block traffic and intra_messages the deliveries kept inside
    a block after init.  Both modes give the same results.  `workers` is
    ignored.  `observer(step, states)` is called after init as step 1 and
    then after every superstep.
    """
    if mode not in ("vertex", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "block" and parts is None:
        raise ValueError("block mode requires a partition")
    if mode == "vertex":
        parts = None
    cap = max_supersteps if max_supersteps is not None else default_superstep_cap(g)
    init, on_broadcast, after = program.init, program.on_broadcast, program.after_messages
    recipients = _recipients(program, g)
    if parts is None:
        block_of, n_blocks = [0] * g.n, 1
        held_to, local_to = recipients, [()] * g.n
    else:
        block_of, n_blocks = parts.block_of, parts.n_blocks
        held_to, local_to = [], []
        for v, rs in enumerate(recipients):
            held_to.append([r for r in rs if block_of[r] != block_of[v]])
            local_to.append([r for r in rs if block_of[r] == block_of[v]])
    states = [None] * g.n
    state_of = states.__getitem__
    # active[b]: block b's emitters of its last round plus receivers since then
    active: list[set[int]] = [set() for _ in range(n_blocks)]

    def deliver(messages: list[tuple[int, object, list[int]]], into: set[int] | None) -> None:
        """Hand each payload to its recipients and mark them active.

        into is the active set of the one block that holds every recipient,
        or None when they may sit in several blocks.
        """
        for s, payload, rs in messages:
            on_broadcast(map(state_of, rs), s, payload)
            if into is None:
                for r in rs:
                    active[block_of[r]].add(r)
            else:
                into.update(rs)

    def metrics_so_far() -> EngineMetrics:
        return EngineMetrics(phase, len(per_step), sum(per_step), list(per_step), intra_total)

    held = []
    for v in range(g.n):
        states[v], payload = init(v, g)
        if payload is not None:
            active[block_of[v]].add(v)
            if recipients[v]:
                held.append((v, payload, recipients[v]))
    delivered = sum(len(rs) for _, _, rs in held)
    per_step = [delivered]
    intra_total = 0
    if observer is not None:
        observer(1, states)
    while delivered:
        if len(per_step) >= cap:
            raise SuperstepLimitError(
                f"no quiescence within {cap} supersteps (in {phase or '?'})",
                metrics_so_far(),
            )
        deliver(held, active[0] if parts is None else None)
        held = []
        delivered = 0
        for b in range(n_blocks):
            for _ in range(cap + 1):
                run, active[b] = active[b], set()
                inbox = []
                sent = 0
                for v in run:
                    payload = after(states[v], v, g)
                    if payload is not None:
                        active[b].add(v)
                        sent += len(recipients[v])
                        if held_to[v]:
                            held.append((v, payload, held_to[v]))
                        if local_to[v]:
                            inbox.append((v, payload, local_to[v]))
                delivered += sent
                if parts is None or not sent:
                    break
                intra_total += sum(len(rs) for _, _, rs in inbox)
                deliver(inbox, active[b])
            else:
                raise SuperstepLimitError(
                    f"block {b}: no local fixpoint within {cap} iterations "
                    f"(in {phase or '?'})",
                    metrics_so_far(),
                )
        per_step.append(sum(len(rs) for _, _, rs in held))
        if observer is not None:
            observer(len(per_step), states)
    results = [program.extract(states[v], v, g) for v in range(g.n)]
    return results, metrics_so_far()
