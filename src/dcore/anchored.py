"""Distributed anchored-coreness decomposition in three phases.

Phase I iterates the in-H-index to the in-degree limit kmax(v).  Phase II
iterates, for every k in [0, kmax(v)] at once, the out-H-index restricted to
the vertices with kmax >= k, yielding upper bounds on l_max(v, k).  Phase
III decrements each bound until enough neighbors support it.  Every tracked
scalar only ever decreases, which is what guarantees quiescence.

Phases I and II send deltas and keep no copy of any neighbor.  A phase I
payload is (old, new), and its init message is the delta from "absent",
old = -1.  A phase II payload is (lo, triples): the k-ascending tuple of
(k, old, new) triples of the slots that dropped, headed by the smallest
new among them; its init message is (-1, (out-degree, width)).  Each
receiver folds the deltas into a clipped histogram per value (per slot k
in phase II): bucket b counts the neighbors whose value is b, and the top
bucket, at the vertex's own value, counts every neighbor at or above it.
That is the counting computeIndex of Montresor, De Pellegrini and
Miorandi (TPDS 2013).  A delta whose new value is at or above the
receiver's value would move a count from the top bucket back into it, so
the receiver skips it; in phase II a whole payload is skipped when lo is
at or above top, the largest of the receiver's slots.  A value can only
drop when its top bucket falls short of it; it then walks down the
buckets to the new H-index, folding the ones it passes into the new top.
So every decision to lower a value, and with it every emitted value,
superstep and message, is the one a full rescan would make.  Deltas rely
on the engine's contract: every payload reaches each recipient exactly
once, and one sender's payloads arrive in the order it emitted them.
Histograms are sums over senders, so the order between senders is
irrelevant.

Phase III keeps the state of the skyline D-index and shares its fold,
fold_rows: row k of a flat in- and a flat out-table is the clipped
histogram of the neighbors' values at slot k, and its top bucket, at the
slot's own bound, is the slot's support.  A payload is the tuple of
(k, t, t - 1) triples of the slots lowered; the init message has one
(k, -1, value) triple per maximal run of equal slots, 1 to 1.33 runs per
vertex on the benchmark workloads, which the first after_messages sums
into the histograms.  A slot whose support falls short drops by exactly
one per round, folding its top bucket into the one below, so every
emitted value, superstep and message is the one a rescan of the
neighbors' arrays would give.  Against keeping a reference to each
neighbor's whole array and seeding counts by an O(degree x kmax) rescan,
this cut the benchmark's anchored_s by 11% on the blocks workload and 10%
on skewed (10 alternating 35 s pairs each on a 2-vCPU host); on ripple,
where phase III is a fifth of the anchored time, it rose by 3.6%.
"""

from __future__ import annotations

from .engine import EngineMetrics, VertexProgram, run_program
from .graph import DirectedGraph, PartitionMap
# No program here calls h_index any more; benchmarks/tracer.py still counts
# calls through this module attribute, so it stays importable.
from .kernels import h_index  # noqa: F401
from .peel import AnchoredTable


def _lower(hist: list[int], base: int, top: int) -> int:
    """Fold a clipped histogram down to its H-index and return it.

    hist[base + b] counts the values equal to b, except hist[base + top],
    which counts every value >= top.  The H-index h is the largest h <= top
    with at least h values >= h.  The buckets above h are folded into
    hist[base + h], which leaves the histogram clipped at h; the ones above
    are never read again.
    """
    c = hist[base + top]
    if c >= top:
        return top
    h = top
    while c < h:
        h -= 1
        c += hist[base + h]
    hist[base + h] = c
    return h


class _HState:
    __slots__ = ("value", "hist")


class HIndexFixpoint(VertexProgram):
    """Iterated H-index over one neighbor direction.

    consume="in" starts from the in-degree and converges to kmax(v);
    consume="out" is the mirror image and converges to lmax(v).  A vertex
    re-broadcasts only when its value drops, and drops are the only way the
    H-index of a neighbor can fall, so quiescence is a true fixpoint.

    The payload is the delta (old, new) of the sender's value; init sends
    (-1, degree).  For b <= value, hist[b] counts the neighbors whose value
    is b, clipped to value, so hist[value] counts those at or above it.
    The H-index is never above value, so a vertex lowers it only when
    hist[value] < value, by walking the buckets down.
    """

    def __init__(self, consume: str = "in"):
        if consume not in ("in", "out"):
            raise ValueError("consume must be 'in' or 'out'")
        self.consume = consume
        self.broadcast = "out" if consume == "in" else "in"

    def init(self, v, g):
        st = _HState()
        st.value = len(g.in_adj[v] if self.consume == "in" else g.out_adj[v])
        st.hist = [0] * (st.value + 1)
        return st, (-1, st.value)

    def on_broadcast(self, targets, sender, payload):
        old, new = payload
        if old < 0:
            # init: count the sender in bucket new, clipped to the top
            for st in targets:
                top = st.value
                st.hist[new if new < top else top] += 1
            return
        for st in targets:
            top = st.value
            if new < top:
                # else old > new >= top: both clip to the top bucket
                hist = st.hist
                hist[old if old < top else top] -= 1
                hist[new] += 1

    def after_messages(self, st, v, g):
        old = st.value
        h = _lower(st.hist, 0, old)
        if h < old:
            st.value = h
            return (old, h)
        return None

    def extract(self, st, v, g):
        return st.value


class _LuppState:
    __slots__ = ("arr", "top", "stride", "hist", "flags")


class LuppProgram(VertexProgram):
    """Phase II: batched out-H-index iteration inside every G[k] at once.

    The k-th slot of a vertex's array lives in the subgraph induced by
    {u : kmax(u) >= k}; that restriction holds because a vertex sends
    triples only for its own slots and ignores those beyond them, so G[k] is
    never materialized.  Arrays
    start from the full-graph out-degree, a valid upper bound that converges
    to the same fixpoint.

    A payload is (lo, triples): the k-ascending tuple of (k, old, new)
    triples of the slots that dropped, headed by lo, the smallest new among
    them.  hist holds one clipped histogram per slot, as in HIndexFixpoint,
    of the out-neighbors' values there; slot k's starts at k * stride, with
    stride = out-degree + 1.  top = max(arr).  A receiver with lo >= top
    returns at once: every triple then has old > new >= top >= arr[k], so
    it would only move a count from the top bucket of its slot back into it.

    The init message is (-1, (out-degree, width)), width = kmax + 1.  At
    init every slot of the receiver holds its own out-degree, so the sender
    counts in bucket min(deg_u, deg_v) of each slot k < min(width_u,
    width_v), which one strided loop adds.  flags is a bitmask of slots:
    all are set at init; after that a message sets bit k only when it
    leaves slot k's top bucket short of arr[k].  after_messages lowers each
    flagged slot to its H-index, in ascending k.
    """

    broadcast = "in"

    def __init__(self, kmaxes: list[int]):
        self.kmaxes = kmaxes

    def init(self, v, g):
        st = _LuppState()
        width = self.kmaxes[v] + 1
        deg = g.out_degree(v)
        st.arr = [deg] * width
        st.top = deg
        st.stride = deg + 1
        st.hist = [0] * (width * st.stride)
        st.flags = (1 << width) - 1
        return st, (-1, (deg, width))

    def on_broadcast(self, targets, sender, payload):
        lo, body = payload
        if lo < 0:
            # init: every slot of a target still holds its out-degree, top
            deg, width = body
            for st in targets:
                top, stride = st.top, st.stride
                end = min(width, len(st.arr)) * stride
                hist = st.hist
                for i in range(deg if deg < top else top, end, stride):
                    hist[i] += 1
            return
        for st in targets:
            if lo >= st.top:
                continue
            arr, hist, stride = st.arr, st.hist, st.stride
            width = len(arr)
            flags = st.flags
            for k, old, new in body:
                if k >= width:
                    break
                a = arr[k]
                if new >= a:
                    continue
                base = k * stride
                hist[base + new] += 1
                if old < a:
                    hist[base + old] -= 1
                else:
                    hist[base + a] -= 1
                    if hist[base + a] < a:
                        flags |= 1 << k
            st.flags = flags

    def after_messages(self, st, v, g):
        flags = st.flags
        if not flags:
            return None
        st.flags = 0
        arr, hist, stride = st.arr, st.hist, st.stride
        changed = []
        lo = st.top
        while flags:
            low = flags & -flags
            flags ^= low
            k = low.bit_length() - 1
            a = arr[k]
            h = _lower(hist, k * stride, a)
            if h < a:
                arr[k] = h
                changed.append((k, a, h))
                if h < lo:
                    lo = h
        if changed:
            st.top = max(arr)
            return (lo, tuple(changed))
        return None

    def extract(self, st, v, g):
        return list(st.arr)


class _RowState:
    """Heights arr and per-row in- and out-histograms, as fold_rows reads them.

    hin/hout are flat len(arr) x width tables.  side maps each neighbor on
    the smaller of the two sides to the tables it counts in, one or both;
    every other neighbor counts in other, the larger side's table, which
    keeps the map to about half the degree.  dirty is a bitmask of rows,
    -1 until the first after_messages calls seed.
    """

    __slots__ = ("arr", "width", "side", "other", "hin", "hout", "dirty")

    def __init__(self, v, g, arr, width):
        self.arr, self.width = arr, width
        self.hin = [0] * (len(arr) * width)
        self.hout = [0] * (len(arr) * width)
        ins, outs = g.in_adj[v], g.out_adj[v]
        if len(ins) <= len(outs):
            side = dict.fromkeys(ins, (self.hin,))
            self.other, larger = (self.hout,), outs
        else:
            side = dict.fromkeys(outs, (self.hout,))
            self.other, larger = (self.hin,), ins
        both = (self.hin, self.hout)
        for u in side.keys() & larger:
            side[u] = both
        self.side = side
        self.dirty = -1

    def seed(self) -> int:
        """Turn the init counts into clipped histograms; return every row's bit.

        Row k becomes the sum of rows k.., so it counts each neighbor that
        reaches k at its height there, and its buckets above arr[k] are
        folded into bucket arr[k].
        """
        arr, width, hin, hout = self.arr, self.width, self.hin, self.hout
        for h in (hin, hout):
            for i in range(len(h) - width - 1, -1, -1):
                h[i] += h[i + width]
        for k, t in enumerate(arr):
            if t < width - 1:
                top, end = k * width + t, (k + 1) * width
                hin[top], hout[top] = sum(hin[top:end]), sum(hout[top:end])
        return (1 << len(arr)) - 1


def fold_rows(targets, sender, payload):
    """on_broadcast of RefineProgram and SkylineProgram.

    The payload is a k-ascending tuple of (k, old, new) triples.  An init
    message has old = -1 and one triple per maximal run of equal heights,
    at the run's last row k.  Each receiver counts a run once, in row
    min(k, last row), and takes the next run's value back out of that row;
    summing the rows downward in the first after_messages (_RowState.seed)
    then counts the sender at its height in every row it reaches.  After
    init a triple whose new height is at or above arr[k] moves nothing; the
    others move one count of each table of the sender's side, from the old
    height clipped to arr[k] to the new one, and mark the row dirty when
    the count leaves its top bucket.
    """
    if payload[0][1] < 0:
        for st in targets:
            width, last = st.width, len(st.arr) - 1
            tables = st.side.get(sender, st.other)
            prev = -1
            for k, _, new in payload:
                b = new if new < width else width - 1
                pos = (k if k < last else last) * width + b
                for h in tables:
                    if prev >= 0:
                        h[prev + b] -= 1
                    h[pos] += 1
                if k >= last:
                    break
                prev = k * width
        return
    for st in targets:
        arr, width, dirty = st.arr, st.width, st.dirty
        rows = len(arr)
        # most deliveries move nothing, so look the side up only when needed
        tables = None
        for k, a, b in payload:
            if k >= rows:
                break
            t = arr[k]
            if b >= t:
                continue
            if a >= t:
                a = t
                dirty |= 1 << k
            pos = k * width
            if tables is None:
                tables = st.side.get(sender, st.other)
            for h in tables:
                h[pos + a] -= 1
                if b >= 0:
                    h[pos + b] += 1
        st.dirty = dirty


class RefineProgram(VertexProgram):
    """Phase III: decrement l_upp(k, v) until both support conditions hold.

    (k, l_upp) survives a round only when at least k in-neighbors and at
    least l_upp out-neighbors report a bound >= l_upp at the same k.  A
    failed check lowers the bound by one and marks the slot for
    re-examination next round, so chains of decrements advance one step per
    superstep exactly as the refinement protocol prescribes.  Neighbors
    whose own array does not reach k count as zero.

    The state is the skyline program's _RowState and the fold is
    fold_rows: arr holds the slots, width = max(arr) + 1, and row k of the
    flat hin/hout tables is the clipped histogram of the in-/out-neighbors'
    values at k, so bucket arr[k] counts the support of slot k.  The payload is the tuple of
    (k, t, t - 1) triples of the lowered slots; init sends one (k, -1,
    value) triple per maximal run of equal slots.  dirty is a bitmask of
    slots: all at init, then every slot whose support a message lowered and
    every slot just lowered.  after_messages checks each dirty slot; a
    short one folds its top bucket into the one below and drops by one.
    """

    broadcast = "both"
    on_broadcast = staticmethod(fold_rows)

    def __init__(self, kmaxes: list[int], lupps: list[list[int]]):
        self.kmaxes = kmaxes
        self.lupps = lupps

    def init(self, v, g):
        arr = list(self.lupps[v])
        last = len(arr) - 1
        runs = tuple((k, -1, a) for k, a in enumerate(arr) if k == last or arr[k + 1] != a)
        return _RowState(v, g, arr, max(arr) + 1), runs

    def after_messages(self, st, v, g):
        dirty = st.dirty
        if not dirty:
            return None
        if dirty < 0:
            dirty = st.seed()
        arr, hin, hout, width = st.arr, st.hin, st.hout, st.width
        changed = []
        keep = 0
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            k = low.bit_length() - 1
            t = arr[k]
            top = k * width + t
            if t and (hin[top] < k or hout[top] < t):
                hin[top - 1] += hin[top]
                hout[top - 1] += hout[top]
                arr[k] = t - 1
                changed.append((k, t, t - 1))
                keep |= low
        st.dirty = keep
        if changed:
            return tuple(changed)
        return None

    def extract(self, st, v, g):
        return list(st.arr)


def compute_kmax(
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[int], EngineMetrics]:
    """Per-vertex kmax(v) = max{k : v in the (k, 0)-core}."""
    return run_program(HIndexFixpoint("in"), g, parts, mode, phase="phase I", **kwargs)


def compute_lupp(
    g: DirectedGraph,
    kmaxes: list[int],
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[list[int]], EngineMetrics]:
    """Per-vertex upper-bound arrays l_upp(k, v) for k in [0, kmax(v)]."""
    return run_program(LuppProgram(kmaxes), g, parts, mode, phase="phase II", **kwargs)


def refine(
    g: DirectedGraph,
    kmaxes: list[int],
    lupps: list[list[int]],
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[AnchoredTable, EngineMetrics]:
    """Tighten the upper bounds to the exact anchored corenesses."""
    rows, metrics = run_program(
        RefineProgram(kmaxes, lupps), g, parts, mode, phase="phase III", **kwargs
    )
    return AnchoredTable(rows), metrics


def anchored_decompose(
    g: DirectedGraph,
    parts: PartitionMap | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[AnchoredTable, list[EngineMetrics]]:
    """Run the three phases back to back; equals peel_decompose exactly."""
    kmaxes, m1 = compute_kmax(g, parts, mode, **kwargs)
    lupps, m2 = compute_lupp(g, kmaxes, parts, mode, **kwargs)
    table, m3 = refine(g, kmaxes, lupps, parts, mode, **kwargs)
    return table, [m1, m2, m3]
