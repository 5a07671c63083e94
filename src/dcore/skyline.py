"""Distributed skyline-coreness decomposition via iterated D-indexes.

Every vertex keeps an antichain of (k, l) pairs, initialized tightly to the
single pair (K, L) = (kmax(v), lmax(v)) obtained from two H-index fixpoint
runs, and then repeatedly replaced by the D-index of its neighbors' current
sets until nothing changes anywhere.

A set S_u is described to its neighbors by its staircase heights
f_u(k) = max{l' : (k', l') in S_u, k' >= k}, or -1 when no pair reaches k.
A vertex whose set changes sends only the heights that changed, as
(k, old, new) triples; its init message is the delta from "absent"
(old = -1) as one run, ((K, -1, L),), which stands for (k, -1, L) at
every k <= K.  This relies on the engine delivering each payload once and
in emission order.

Every vertex v keeps its own heights f[k] for k <= K: f[k] is the largest
l such that at least k in-neighbors and at least l out-neighbors have
height >= l at k, or -1 when fewer than k in-neighbors reach k.  The
D-index of the neighbors' sets is exactly the set of pairs (k, f[k]) whose
height exceeds that of every row past k, so the skyline is read off f in
O(K).  Per neighbor side, v keeps for each row k a histogram of the
neighbors' heights at k, clipped at f[k], and keeps no copy of any
neighbor's set or heights.  Since heights only descend after init, f[k]
can only drop when a count leaves the top bucket of row k; only such a
row is walked down, folding the buckets it passes into its new top, which
is the two-dimensional form of the counting computeIndex of Montresor, De
Pellegrini and Miorandi (TPDS 2013).  The box (K, L) loses nothing: sets
only descend from their init pairs, and at the H-index fixpoints K is the
H-index of the in-neighbors' kmax and L that of the out-neighbors' lmax,
so no D-index pair of v leaves the box.
"""

from __future__ import annotations

from .anchored import HIndexFixpoint, _RowState, fold_rows
from .engine import EngineMetrics, VertexProgram, run_program
from .graph import DirectedGraph, PartitionMap
from .kernels import Pair
# No program here calls d_index_over_sets; benchmarks/tracer.py still counts
# calls through this module attribute, so it stays importable.
from .kernels import d_index_over_sets  # noqa: F401


class _SkyState(_RowState):
    __slots__ = ()

    @property
    def d(self) -> tuple[Pair, ...]:
        """The skyline, k-ascending: each (k, f[k]) above every row past k."""
        f = self.arr
        pairs: list[Pair] = []
        hi = -1
        for k in range(len(f) - 1, -1, -1):
            if f[k] > hi:
                hi = f[k]
                pairs.append((k, hi))
        pairs.reverse()
        return tuple(pairs)


class SkylineProgram(VertexProgram):
    """Iterated D-index over per-row heights and clipped support histograms.

    init_pairs[v] = (K, L) must be the tight (kmax(v), lmax(v)) of
    tight_init, or upper bounds on them with K at least the H-index of the
    in-neighbors' K and L at least the H-index of the out-neighbors' L
    (in- and out-degrees qualify).  The histograms of v only cover k <= K
    and heights up to L.

    arr[k] is the vertex's own staircase height f[k] at k, as defined in
    the module docstring.  It starts at L and only descends, and it is also
    what the vertex last sent, so the payload needs no separate copy.

    The payload is the k-ascending tuple of (k, old, new) triples of the
    rows whose height dropped; init sends the one run ((K, -1, L),).  The
    state and the fold are phase III's (anchored.fold_rows): hin/hout are
    flat tables with rows of width L + 1, and for a live row (f[k] >= 0),
    bucket b < f[k] of row k counts the neighbors of that side whose height
    at k is b, and bucket f[k] counts those at or above it.  A dead row
    (f[k] = -1) takes no triple; its stale buckets are never read again.
    A row is marked in the bitmask dirty only when a count leaves its top
    bucket, and after_messages walks each dirty row down, as
    anchored._lower does, folding the buckets it passes into the new top.
    """

    broadcast = "both"
    on_broadcast = staticmethod(fold_rows)

    def __init__(self, init_pairs: list[Pair]):
        self.init_pairs = init_pairs

    def init(self, v, g):
        K, L = self.init_pairs[v]
        return _SkyState(v, g, [L] * (K + 1), L + 1), ((K, -1, L),)

    def after_messages(self, st, v, g):
        dirty = st.dirty
        if not dirty:
            return None
        if dirty < 0:
            dirty = st.seed()
        st.dirty = 0
        f, hin, hout, width = st.arr, st.hin, st.hout, st.width
        changed = []
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            k = low.bit_length() - 1
            t = l = f[k]
            base = k * width
            ci, co = hin[base + l], hout[base + l]
            while l and (ci < k or co < l):
                l -= 1
                ci += hin[base + l]
                co += hout[base + l]
            if ci < k:
                l = -1
            elif l < t:
                hin[base + l], hout[base + l] = ci, co
            if l < t:
                f[k] = l
                changed.append((k, t, l))
        if changed:
            return tuple(changed)
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
