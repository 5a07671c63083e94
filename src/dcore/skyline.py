"""Distributed skyline-coreness decomposition via iterated D-indexes.

Every vertex keeps an antichain of (k, l) pairs, initialized tightly to the
single pair (K, L) = (kmax(v), lmax(v)) obtained from two H-index fixpoint
runs, and then repeatedly replaced by the D-index of its neighbors' current
sets until nothing changes anywhere.

A set S_u is described to its neighbors by its staircase heights
f_u(k) = max{l' : (k', l') in S_u, k' >= k}, or -1 when no pair reaches k.
Every vertex keeps, per neighbor side, a histogram of those heights for each
k <= K, clipped at L, and moves only the buckets whose height changed when a
neighbor reports a new set.  The D-index then needs only running suffix sums
over the histograms.  The box (K, L) loses nothing: sets only descend from
their init pairs, and at the H-index fixpoints K is the H-index of the
in-neighbors' kmax and L that of the out-neighbors' lmax, so no D-index pair
of v leaves the box.  This is the two-dimensional form of the counting
computeIndex of Montresor, De Pellegrini and Miorandi (TPDS 2013).
"""

from __future__ import annotations

from bisect import bisect_left

from .anchored import HIndexFixpoint
from .engine import EngineMetrics, VertexProgram, run_program
from .graph import DirectedGraph, PartitionMap
from .kernels import Pair, d_index_over_sets

# Reference D-index over whole neighbor sets; exposed for direct use in tests.
d_index_step = d_index_over_sets


def height_profile(d, rows: int) -> tuple[int, ...]:
    """Staircase heights f(0..rows-1) of a canonical skyline; -1 past its last k."""
    prof: list[int] = []
    for k, l in d:
        prof += [l] * (k + 1 - len(prof))
    prof += [-1] * (rows - len(prof))
    return tuple(prof)


def _move(h: list[int], rows: int, top: int, old, new) -> bool:
    """Move one neighbor's histogram entries from profile old to new.

    h is a flat rows x (top + 1) table whose row k counts heights at k,
    clipped to top.  old is None for a neighbor not yet counted.  Returns
    whether any bucket changed.
    """
    width = top + 1
    if old is None:
        for k in range(min(rows, len(new))):
            f = new[k]
            if f < 0:
                break
            h[k * width + (f if f < top else top)] += 1
        return True
    moved = False
    pos, end = 0, rows * width
    for a, b in zip(old, new):
        if pos == end:
            break
        if a != b:
            if a > top:
                a = top
            if b > top:
                b = top
            if a != b:
                if a >= 0:
                    h[pos + a] -= 1
                if b >= 0:
                    h[pos + b] += 1
                moved = True
        elif a < 0:
            break  # heights only fall as k grows: both are -1 from here
        pos += width
    return moved


class _SkyState:
    __slots__ = ("d", "rows", "top", "ins", "outs", "pin", "pout", "hin", "hout", "flag")


class SkylineProgram(VertexProgram):
    """Iterated D-index over incrementally maintained support histograms.

    init_pairs[v] = (K, L) must be the tight (kmax(v), lmax(v)) of
    tight_init, or upper bounds on them with K at least the H-index of the
    in-neighbors' K and L at least the H-index of the out-neighbors' L
    (in- and out-degrees qualify).  The histograms of v only cover k <= K
    and heights up to L.

    The payload is (d, profile): the canonical skyline d of the sender and
    height_profile(d, K + 1) for the sender's K.  Receivers keep a reference
    to the last profile of each neighbor (pin/pout, aligned with the sorted
    in_adj/out_adj lists) and flat bucket tables hin/hout, where h[k][f]
    counts the neighbors of that side whose height at k is f (clipped to
    L).  after_messages reads the D-index off running suffix sums of the
    tables in O(K * L) and never looks at a neighbor's set.
    """

    broadcast = "both"

    def __init__(self, init_pairs: list[Pair]):
        self.init_pairs = init_pairs

    def init(self, v, g):
        K, L = self.init_pairs[v]
        st = _SkyState()
        st.d = ((K, L),)
        st.rows, st.top = K + 1, L
        st.ins, st.outs = g.in_adj[v], g.out_adj[v]
        st.pin = [None] * len(st.ins)
        st.pout = [None] * len(st.outs)
        st.hin = [0] * ((K + 1) * (L + 1))
        st.hout = [0] * ((K + 1) * (L + 1))
        st.flag = True
        return st, (st.d, (L,) * (K + 1))

    def on_message(self, st, sender, payload):
        prof = payload[1]
        moved = False
        adj = st.ins
        i = bisect_left(adj, sender)
        if i < len(adj) and adj[i] == sender:
            moved = _move(st.hin, st.rows, st.top, st.pin[i], prof)
            st.pin[i] = prof
        adj = st.outs
        i = bisect_left(adj, sender)
        if i < len(adj) and adj[i] == sender:
            moved = _move(st.hout, st.rows, st.top, st.pout[i], prof) or moved
            st.pout[i] = prof
        if moved:
            st.flag = True

    def after_messages(self, st, v, g):
        if not st.flag:
            return None
        st.flag = False
        hin, hout, top = st.hin, st.hout, st.top
        width = top + 1
        # k_bound: largest k with at least k in-neighbors reaching k at all
        k_bound = st.rows - 1
        while k_bound and sum(hin[k_bound * width : (k_bound + 1) * width]) < k_bound:
            k_bound -= 1
        # l_bound: largest l with at least l out-neighbors of height >= l at k = 0
        l_bound = top
        c = hout[top]
        while l_bound and c < l_bound:
            l_bound -= 1
            c += hout[l_bound]
        found: list[Pair] = []
        l_min = 0
        for k in range(k_bound, -1, -1):
            if l_bound <= l_min:
                break
            base = k * width
            c_in = sum(hin[base + l_bound + 1 : base + width])
            c_out = sum(hout[base + l_bound + 1 : base + width])
            for l in range(l_bound, l_min, -1):
                c_in += hin[base + l]
                c_out += hout[base + l]
                if c_in >= k and c_out >= l:
                    found.append((k, l))
                    l_min = l
                    break
        # (k_bound, 0) is always supported unless some (k_bound, l >= 1) was found
        if not found or found[0][0] < k_bound:
            found.insert(0, (k_bound, 0))
        found.reverse()
        new = tuple(found)
        if new != st.d:
            st.d = new
            return new, height_profile(new, st.rows)
        return None

    def extract(self, st, v, g):
        return list(st.d)


def tight_init(
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[Pair], list[EngineMetrics]]:
    """Per-vertex (kmax(v), lmax(v)) start pairs from two H-index fixpoints.

    Each returned pair weakly dominates every skyline pair of its vertex,
    so the D-index iteration can only descend from it.
    """
    kmaxes, m_in = run_program(
        HIndexFixpoint("in"), g, parts, mode, phase="init kmax", **kwargs
    )
    lmaxes, m_out = run_program(
        HIndexFixpoint("out"), g, parts, mode, phase="init lmax", **kwargs
    )
    return list(zip(kmaxes, lmaxes)), [m_in, m_out]


def skyline_decompose(
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[list[Pair]], list[EngineMetrics]]:
    """Skyline coreness sets for every vertex plus per-phase metrics.

    The result equals anchored_to_skyline(peel_decompose(g)) vertexwise.
    """
    init_kwargs = dict(kwargs)
    init_kwargs.pop("observer", None)
    pairs, metrics = tight_init(g, parts, mode, **init_kwargs)
    skys, m_d = run_program(
        SkylineProgram(pairs), g, parts, mode, phase="d-index", **kwargs
    )
    return skys, metrics + [m_d]
