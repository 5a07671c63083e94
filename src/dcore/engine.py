"""Deterministic bulk-synchronous superstep simulator.

A vertex program supplies four hooks: init, on_message, after_messages and
extract.  Vertex-centric mode runs one update round per superstep and holds
every message until the next one.  Block-centric mode iterates each block's
rounds to a local fixpoint per superstep and holds only cross-block
messages.  A run ends after the first superstep that delivers no message.

Delivery contract: every emitted payload reaches each of its recipients
exactly once, and the payloads of one sender reach a recipient in the
order the sender emitted them, also when it emits in several local rounds
of one block-mode superstep.  Programs may therefore send deltas against
their previous payload.  Payloads of distinct senders arrive in no
promised order, so on_message must be commutative across senders.  All
init messages are delivered before any vertex runs after_messages, so a
program may seed state from them in its first call.

Scheduling follows Pregel's vote-to-halt rule: in a round, a vertex runs
on_message and after_messages only if it received a message in that round
or emitted in its previous round (init counts as a round in which every
vertex with a payload emitted).  So after_messages must return None unless
one of those holds.  The programs in this package emit only on change,
which satisfies this; results and metrics then equal those of sweeping
every vertex in every round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph, PartitionMap


class SuperstepLimitError(RuntimeError):
    """A program failed to quiesce within the superstep cap."""


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


class VertexProgram:
    """Behavior contract executed at every vertex.

    broadcast names the recipients of every emitted payload: the vertex's
    out-neighbors, in-neighbors, or both.
    """

    broadcast = "out"

    def init(self, v: int, g: DirectedGraph):
        """Return (state, initial payload or None)."""
        raise NotImplementedError

    def on_message(self, state, sender: int, payload) -> None:
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


def _run(program, g, parts, *, max_supersteps=None, workers=1, observer=None, phase=""):
    """The scheduler loop behind both modes; parts=None is vertex mode.

    Vertex mode is one block with one round per superstep, and holds every
    message for the next superstep.  Block mode holds only cross-block
    messages.  `workers` is ignored.  `observer(step, states)` is called
    after init as step 1 and then after every superstep.
    """
    cap = max_supersteps if max_supersteps is not None else default_superstep_cap(g)
    init, on_message, after = program.init, program.on_message, program.after_messages
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
    # active[b]: block b's emitters of its last round plus receivers since then
    active: list[set[int]] = [set() for _ in range(n_blocks)]

    def deliver(messages: list[tuple[int, object, list[int]]]) -> None:
        for s, payload, rs in messages:
            for r in rs:
                on_message(states[r], s, payload)
                active[block_of[r]].add(r)

    held = []
    for v in range(g.n):
        states[v], payload = init(v, g)
        if payload is not None:
            active[block_of[v]].add(v)
            held.append((v, payload, recipients[v]))
    delivered = sum(len(rs) for _, _, rs in held)
    per_step = [delivered]
    intra_total = 0
    if observer is not None:
        observer(1, states)
    while delivered:
        if len(per_step) >= cap:
            raise SuperstepLimitError(
                f"no quiescence within {cap} supersteps (phase {phase or '?'})"
            )
        deliver(held)
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
                        held.append((v, payload, held_to[v]))
                        inbox.append((v, payload, local_to[v]))
                delivered += sent
                if parts is None or not sent:
                    break
                intra_total += sum(len(rs) for _, _, rs in inbox)
                deliver(inbox)
            else:
                raise SuperstepLimitError(
                    f"block {b}: no local fixpoint within {cap} iterations"
                )
        per_step.append(sum(len(rs) for _, _, rs in held))
        if observer is not None:
            observer(len(per_step), states)
    results = [program.extract(states[v], v, g) for v in range(g.n)]
    metrics = EngineMetrics(phase, len(per_step), sum(per_step), per_step, intra_total)
    return results, metrics


def run_vertex_centric(program, g, parts=None, **kwargs):
    """Run to quiescence, one update round per superstep.

    `parts` is accepted for interface parity and ignored: vertex-centric
    results and metrics do not depend on the partition.
    """
    return _run(program, g, None, **kwargs)


def run_block_centric(program, g, parts, **kwargs):
    """Run with per-block local fixpoints between global supersteps.

    Results match run_vertex_centric.  messages_per_step counts the initial
    broadcast plus cross-block traffic; intra-block deliveries after init
    are counted in intra_messages.
    """
    return _run(program, g, parts, **kwargs)


def run_program(
    program: VertexProgram,
    g: DirectedGraph,
    parts: PartitionMap | None,
    mode: str,
    **kwargs,
):
    """Dispatch on execution mode ("vertex" | "block")."""
    if mode not in ("vertex", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "block" and parts is None:
        raise ValueError("block mode requires a partition")
    return _run(program, g, parts if mode == "block" else None, **kwargs)
