"""Message complexity: every phase delivers no more than "emit only on a drop" allows.

A vertex emits at init and then only when one of its values drops, and
every emission reaches all of its recipients, so the deliveries of a phase
(messages_total + intra_messages, in either mode) are at most the sum over
v of (1 + the total drop of v's values) times v's fan-out.  Phase I, like
skyline's init, runs the kmax fixpoint (from the in-degree down to kmax)
and the lmax fixpoint (from the out-degree down to lmax) in shared
supersteps, so its bound is the sum of theirs.  Phase II starts every slot
at lmax and ends at l_upp, and its init message goes only from a vertex
with an in-neighbor of larger kmax, so its 1 is [v sends init].  Phase III
lowers each slot from l_upp to l_max; the D-index lowers each row height
f(k) from L to its final value, -1 for a row that dies.  Each emission
lowers a value by at least one, so a program that emits without a change,
or a scheduler that delivers a payload twice, breaks a bound.
"""

import pytest

from dcore.anchored import HIndexFixpoint, anchored_decompose, compute_kmax_lmax, compute_lupp
from dcore.engine import run_program
from dcore.graph import make_partition
from dcore.peel import peel_decompose
from dcore.skyline import skyline_decompose

from conftest import GRAPH_SOURCES, graph_from


def _deliveries(metrics):
    return metrics.messages_total + metrics.intra_messages


def _final_heights(sky, K):
    """f(k) = max{l : (k', l) in sky, k' >= k}, or -1, for k in 0..K."""
    return [max((l for k2, l in sky if k2 >= k), default=-1) for k in range(K + 1)]


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("source", GRAPH_SOURCES)
def test_deliveries_within_the_emit_on_drop_bounds(source, mode, request):
    g = graph_from(source, request)
    parts = make_partition("hash", g, 3) if mode == "block" else None
    indeg = [len(a) for a in g.in_adj]
    outdeg = [len(a) for a in g.out_adj]
    fanout = [len(a) for a in g.both_adj]
    rows = peel_decompose(g).rows
    kmax = [len(row) - 1 for row in rows]
    lmax = [row[0] for row in rows]
    lupps = [arr for arr, _ in compute_lupp(g, compute_kmax_lmax(g)[0])[0]]
    vs = range(g.n)
    sends = [any(kmax[u] > kmax[v] for u in g.in_adj[v]) for v in vs]
    kmax_bound = sum((indeg[v] - kmax[v] + 1) * outdeg[v] for v in vs)
    lmax_bound = sum((outdeg[v] - lmax[v] + 1) * indeg[v] for v in vs)

    _, (m1, m2, m3) = anchored_decompose(g, parts, mode)
    assert m1.phase == "phase I"
    assert _deliveries(m1) <= kmax_bound + lmax_bound
    phase2 = sum((sends[v] + sum(lmax[v] - u for u in lupps[v])) * indeg[v] for v in vs)
    assert _deliveries(m2) <= phase2
    phase3 = sum(
        (1 + sum(u - l for u, l in zip(lupps[v], rows[v]))) * fanout[v] for v in vs
    )
    assert _deliveries(m3) <= phase3

    # Skyline's init, like phase I, runs both H-index fixpoints in shared
    # supersteps; each run alone keeps its own bound, and the joint phase
    # their sum.
    _, m_in = run_program(HIndexFixpoint("in"), g, parts, mode)
    _, m_out = run_program(HIndexFixpoint("out"), g, parts, mode)
    assert _deliveries(m_in) <= kmax_bound
    assert _deliveries(m_out) <= lmax_bound
    skys, (m_init, m_d) = skyline_decompose(g, parts, mode)
    assert m_init.phase == "init"
    assert _deliveries(m_init) <= kmax_bound + lmax_bound
    dindex = sum(
        (1 + sum(lmax[v] - f for f in _final_heights(skys[v], kmax[v]))) * fanout[v]
        for v in vs
    )
    assert _deliveries(m_d) <= dindex
