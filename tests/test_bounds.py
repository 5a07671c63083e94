"""Message and round complexity against the bounds that "emit only on a drop" gives.

Every tracked value only descends, and every drop is emitted.  Call a
phase's gap the sum over its vertices' values of start - final.  Then,
per phase, in either mode:

- The unit drops its vertices emit after init (the sum of old - new over
  every emitted payload) equal its gap.
- Its deliveries (messages_total + intra_messages) are at most the sum
  over v of (1 + the total drop of v's values) times v's fan-out, since a
  vertex emits at init and then only when a value drops by at least one,
  and every emission reaches all of its recipients.
- Its supersteps are at most 2 + its gap: after the superstep that
  delivers init, a superstep runs only if the one before it emitted, and
  every emission lowers the gap by at least one.

Phase I, like skyline's init, runs the kmax fixpoint (from the in-degree
down to kmax) and the lmax fixpoint (from the out-degree down to lmax) in
shared supersteps, so its gap and bound are the sums of theirs, and each
fixpoint run alone keeps its own.  Phase II
starts every slot at lmax and ends at l_upp, and its init message goes
only from a vertex with an in-neighbor of larger kmax, so its 1 is [v
sends init].  Phase III lowers each slot from l_upp to l_max; the D-index
lowers each row height from L = lmax to l_max too.  A program that emits
without a change, or a scheduler that delivers a payload twice, breaks a
bound.  Block mode composes a sender's held payloads, which lowers
deliveries only: what each vertex emits, and so the unit drops and the
supersteps, stay those of holding every payload apart.
"""

from collections import Counter

import pytest

from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RowProgram,
    anchored_decompose,
    compute_kmax_lmax,
    compute_lupp,
)
from dcore.engine import run_program
from dcore.graph import make_partition
from dcore.peel import peel_decompose
from dcore.skyline import skyline_table

from conftest import GRAPH_SOURCES, graph_from

MODES = ["vertex", "block"]


def _deliveries(metrics):
    return metrics.messages_total + metrics.intra_messages


def _phase_costs(g, mode, monkeypatch):
    """(metrics, unit drops emitted, gap, delivery bound) per phase of both algorithms.

    Also per fixpoint of phase I, each run alone as "kmax" and "lmax".
    """
    parts = make_partition("hash", g, 3) if mode == "block" else None
    indeg = [len(a) for a in g.in_adj]
    outdeg = [len(a) for a in g.out_adj]
    fanout = [len(a) for a in g.both_adj]
    rows = peel_decompose(g).rows
    kmax = [len(row) - 1 for row in rows]
    lmax = [row[0] for row in rows]
    lupps = [arr for arr, _ in compute_lupp(g, compute_kmax_lmax(g)[0])[0]]
    vs = range(g.n)

    # each phase runs one program class, so count its unit drops per class
    units = Counter()
    for cls in (HIndexFixpoint, LuppProgram, RowProgram):
        monkeypatch.setattr(cls, "after_messages", _counting(cls, units))

    def drops(starts, finals):
        return [sum(s - f for s, f in zip(start, final)) for start, final in zip(starts, finals)]

    sends = [any(kmax[u] > kmax[v] for u in g.in_adj[v]) for v in vs]
    kmax_gap = [indeg[v] - kmax[v] for v in vs]
    lmax_gap = [outdeg[v] - lmax[v] for v in vs]
    kmax_bound = sum((1 + kmax_gap[v]) * outdeg[v] for v in vs)
    lmax_bound = sum((1 + lmax_gap[v]) * indeg[v] for v in vs)
    phase1 = (sum(kmax_gap) + sum(lmax_gap), kmax_bound + lmax_bound)
    phase2_gap = drops([[lmax[v]] * len(lupps[v]) for v in vs], lupps)
    phase3_gap = drops(lupps, rows)
    dindex_gap = drops([[lmax[v]] * len(rows[v]) for v in vs], rows)

    costs = {}
    _, (m1, m2, m3) = anchored_decompose(g, parts, mode)
    assert [m.phase for m in (m1, m2, m3)] == ["phase I", "phase II", "phase III"]
    costs["phase I"] = (m1, units.pop(HIndexFixpoint, 0), *phase1)
    costs["phase II"] = (
        m2, units.pop(LuppProgram, 0), sum(phase2_gap),
        sum((sends[v] + phase2_gap[v]) * indeg[v] for v in vs),
    )
    costs["phase III"] = (
        m3, units.pop(RowProgram, 0), sum(phase3_gap),
        sum((1 + phase3_gap[v]) * fanout[v] for v in vs),
    )
    _, (m_init, m_d) = skyline_table(g, parts, mode)
    assert [m.phase for m in (m_init, m_d)] == ["init", "d-index"]
    costs["init"] = (m_init, units.pop(HIndexFixpoint, 0), *phase1)
    costs["d-index"] = (
        m_d, units.pop(RowProgram, 0), sum(dindex_gap),
        sum((1 + dindex_gap[v]) * fanout[v] for v in vs),
    )
    # each of phase I's fixpoints run alone keeps its own share
    _, m_in = run_program(HIndexFixpoint("in"), g, parts, mode)
    costs["kmax"] = (m_in, units.pop(HIndexFixpoint, 0), sum(kmax_gap), kmax_bound)
    _, m_out = run_program(HIndexFixpoint("out"), g, parts, mode)
    costs["lmax"] = (m_out, units.pop(HIndexFixpoint, 0), sum(lmax_gap), lmax_bound)
    return costs


def _counting(cls, units):
    """cls.after_messages, adding the unit drops of every payload to units[cls]."""
    after = cls.after_messages

    def counting(self, st, v, g):
        payload = after(self, st, v, g)
        if payload is not None:
            if isinstance(payload[0], tuple):
                units[cls] += sum(old - new for _, old, new in payload)
            else:
                units[cls] += payload[0] - payload[1]
        return payload

    return counting


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_deliveries_within_the_emit_on_drop_bounds(source, mode, request, monkeypatch):
    g = graph_from(source, request)
    for phase, (metrics, _, _, bound) in _phase_costs(g, mode, monkeypatch).items():
        assert _deliveries(metrics) <= bound, phase


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_unit_drops_equal_the_gap_which_bounds_the_supersteps(
    source, mode, request, monkeypatch
):
    g = graph_from(source, request)
    for phase, (metrics, units, gap, _) in _phase_costs(g, mode, monkeypatch).items():
        assert units == gap, phase
        assert metrics.supersteps <= 2 + gap, phase
