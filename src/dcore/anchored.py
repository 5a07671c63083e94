"""Distributed anchored-coreness decomposition in three phases.

Phase I iterates the in-H-index to the in-degree limit kmax(v) and the
out-H-index to the out-degree limit lmax(v), in shared supersteps;
skyline's init is this phase under its own name.  Phase II iterates, for
every k in [0, kmax(v)] at once, the out-H-index restricted to the
vertices with kmax >= k, yielding upper bounds on l_max(v, k).  Phase III
lowers each bound to the largest value its neighbors support.  Every
tracked scalar only ever decreases, which is what guarantees quiescence.

Phases I and II send deltas and keep no copy of any neighbor.  A phase I
payload is (old, new), and its init message is a drop from above every
value, old = n, since no degree reaches n.  Each receiver folds the
deltas into a histogram per value (per slot k in phase II).  In phase I,
bucket b <= value counts the neighbors whose value is exactly b, and one
more bucket, at value + 1, those strictly above it; every neighbor starts
there, as if its value were +inf.  In phase II a slot's histogram is
clipped at its own value: bucket b counts the neighbors whose value is b,
and the top bucket, at the slot's value, every neighbor at or above it.
That is the counting computeIndex of Montresor, De Pellegrini and
Miorandi (TPDS 2013).  A delta whose new value is above the receiver's
(at or above it, in phase II) moves nothing, so the receiver skips it.  A
value can only drop when the neighbors at or above it fall short of it;
it then walks down the buckets to the new H-index, and the ones it passes
make up the new top.  So every decision to lower a value, and with it
every emitted value, superstep and message, is the one a full rescan
would make.  Deltas rely on the engine's contract: every payload reaches
each recipient exactly once, and one sender's payloads arrive in the
order it emitted them.  Histograms are sums over senders, so the order
between senders is irrelevant.

Phase I is two plain HIndexFixpoint runs, and each extracts its value
with its final histogram.  Vertex values persist between phases, as in
Pregel (Malewicz et al., SIGMOD 2010), so phase II starts every slot of v
at lmax(v), with a copy of the histogram that the lmax fixpoint ended
with, its top two buckets merged.  l_upp(v, k) is the out-core number of
v in G[k], which is inside G, so it is at most lmax(v), and the descent
from there ends at the same l_upp as one from the out-degree.  A phase II
payload is phase III's: the tuple of (k, old, new) triples of the slots
that dropped.  The copies count every out-neighbor in every slot; the one
init message, the exclusion (width, lmax, -1) with width = kmax + 1,
takes its sender out of the slots past kmax.  Only a vertex with an
in-neighbor of larger kmax sends it, which compute_kmax_lmax reads off
the strictly-above bucket of the kmax histogram.

Phase III is RowProgram, the program of the skyline D-index started from
the l_upp arrays instead of a (kmax, lmax) box.  Row k of a flat in- and
a flat out-table is the clipped histogram of the neighbors' values at
slot k, and its top bucket, at the slot's own bound, is the slot's
support.  Phase II's final slot histograms are exactly phase III's
out-tables, so compute_lupp hands them over with the l_upp arrays and
refine folds into them.  A payload is the tuple of (k, old, new) triples
of the slots lowered; the init message has one (k, -1, value) triple per
maximal run of equal slots.  It goes only to the out-neighbors, whose
first after_messages sums it into their in-tables.  A slot whose support
falls short walks down its row to the largest value that at least k
in-neighbors and that many out-neighbors reach, so a slot that falls
several steps sends one triple in one superstep.
"""

from __future__ import annotations

from .engine import EngineMetrics, VertexProgram, run_program, run_programs
from .graph import DirectedGraph
# No program here calls h_index any more; benchmarks/tracer.py still counts
# calls through this module attribute, so it stays importable.
from .kernels import h_index  # noqa: F401
from .peel import AnchoredTable


class _HState:
    __slots__ = ("value", "hist")


class HIndexFixpoint(VertexProgram):
    """Iterated H-index over one neighbor direction.

    consume="in" starts from the in-degree and converges to kmax(v);
    consume="out" is the mirror image and converges to lmax(v).  A vertex
    re-broadcasts only when its value drops, and drops are the only way the
    H-index of a neighbor can fall, so quiescence is a true fixpoint.

    The payload is the delta (old, new) of the sender's value; init sends
    (n, degree), a drop from above every value, since no degree reaches n.
    hist has value + 2 buckets: for b <= value, hist[b] counts the
    neighbors whose value is exactly b, and hist[value + 1] those strictly
    above value, which at init is every neighbor.  A delta moves a count
    only when new <= value; otherwise both ends lie in the top bucket.  The
    H-index is never above value, so a vertex lowers it only when
    hist[value] + hist[value + 1] < value, by walking the buckets down to
    the new value h and writing the count above h into hist[h + 1].

    extract returns (value, hist) with hist cut to its value + 2 buckets.
    The cut buckets are never read again, so extract may be called on any
    state mid-run; the returned list is the state's own.
    """

    def __init__(self, consume: str = "in"):
        if consume not in ("in", "out"):
            raise ValueError("consume must be 'in' or 'out'")
        self.consume = consume
        self.broadcast = "out" if consume == "in" else "in"

    def init(self, v, g):
        st = _HState()
        st.value = len(g.in_adj[v] if self.consume == "in" else g.out_adj[v])
        st.hist = [0] * (st.value + 1) + [st.value]
        return st, (g.n, st.value)

    def on_broadcast(self, targets, sender, payload):
        old, new = payload
        for st in targets:
            top = st.value
            if new <= top:
                # else old > new > top: both lie in the top bucket
                hist = st.hist
                hist[old if old <= top else top + 1] -= 1
                hist[new] += 1

    def after_messages(self, st, v, g):
        old = h = st.value
        hist = st.hist
        c = hist[h] + hist[h + 1]
        if c >= h:
            return None
        while c < h:
            h -= 1
            c += hist[h]
        hist[h + 1] = c - hist[h]
        st.value = h
        return (old, h)

    def extract(self, st, v, g):
        del st.hist[st.value + 2 :]
        return st.value, st.hist


class _LuppState:
    __slots__ = ("arr", "stride", "hist")


class LuppProgram(VertexProgram):
    """Phase II: batched out-H-index iteration inside every G[k] at once.

    The k-th slot of a vertex's array lives in the subgraph induced by
    {u : kmax(u) >= k}; that restriction holds because a vertex sends
    triples only for its own slots and ignores those beyond them, so G[k] is
    never materialized.

    seeds[v] is phase I's (kmax, excludes, lmax, hist) for v, with hist
    the lmax fixpoint's final histogram (compute_kmax_lmax).  Every slot
    starts at lmax(v) and its histogram is a copy of hist with the top two
    buckets merged, so it is clipped at lmax, with stride = lmax + 1:
    vertex values persist between phases, as in Pregel.  That start is
    valid because l_upp(v, k), the out-core number of v in G[k], is at
    most lmax(v), and the box of lmax values is a pre-fixpoint of every
    slot's out-H-index (G[k] is inside G), so the descent from it ends at
    the same l_upp as one from the out-degree.  init only reads seeds.

    A payload is RowProgram's: the k-ascending tuple of (k, old, new)
    triples of the slots that dropped.  hist holds one clipped histogram
    per slot, as in HIndexFixpoint, of the out-neighbors' values there;
    slot k's starts at k * stride.  The copies count every out-neighbor in
    every slot, so the one init message, the exclusion (width, lmax, -1)
    with width = kmax + 1, takes the sender out of the slots it is not in:
    new = -1 means "no longer counted here", for every slot from width on.
    Only a vertex with an in-neighbor of larger kmax (excludes) sends it; a
    vertex that neither an exclusion nor a drop reaches never runs.
    after_messages walks each slot whose top bucket falls short down its
    buckets to its H-index, in ascending k, and writes the count of the
    buckets it passed into the new top, which leaves the slot clipped there.
    extract returns (arr, hist), the state's own lists: at the fixpoint
    hist is phase III's out-table, whose width lmax + 1 is max(arr) + 1,
    since slot 0 never drops (l_upp(v, 0) = lmax(v)).
    """

    broadcast = "in"

    def __init__(self, seeds: list):
        self.seeds = seeds

    def init(self, v, g):
        kmax, excludes, lmax, hist = self.seeds[v]
        st = _LuppState()
        width = kmax + 1
        st.arr = [lmax] * width
        st.stride = lmax + 1
        st.hist = lmax_rows(kmax, lmax, hist)
        return st, (((width, lmax, -1),) if excludes else None)

    def on_broadcast(self, targets, sender, payload):
        for st in targets:
            arr, stride, hist = st.arr, st.stride, st.hist
            width = len(arr)
            for k, old, new in payload:
                if k >= width:
                    break
                a = arr[k]
                if new < 0:
                    # the exclusion, at init: every slot still holds lmax
                    b = old if old < a else a
                    for i in range(k * stride + b, len(hist), stride):
                        hist[i] -= 1
                elif new < a:
                    base = k * stride
                    hist[base + new] += 1
                    hist[base + (old if old < a else a)] -= 1

    def after_messages(self, st, v, g):
        arr, hist, stride = st.arr, st.hist, st.stride
        changed = []
        for k, a in enumerate(arr):
            if hist[k * stride + a] < a:
                base = k * stride
                h, c = a, hist[base + a]
                while c < h:
                    h -= 1
                    c += hist[base + h]
                hist[base + h] = c
                arr[k] = h
                changed.append((k, a, h))
        return tuple(changed) or None

    def extract(self, st, v, g):
        return st.arr, st.hist


def lmax_rows(kmax: int, lmax: int, hist: list[int]) -> list[int]:
    """kmax + 1 copies of the lmax fixpoint's final histogram, clipped at lmax.

    hist is phase I's (lmax + 2 buckets, the last one counting the
    out-neighbors strictly above lmax); its top two buckets are merged.
    This is phase II's start table and the D-index's out-table.
    """
    row = hist[: lmax + 1]
    row[lmax] += hist[lmax + 1]
    return row * (kmax + 1)


class _RowState:
    """Heights arr and per-row in- and out-histograms, as RowProgram reads them.

    hin/hout are flat len(arr) x width tables, width > max(arr).  hout is
    the out-table the vertex was handed, the list itself; hin starts empty
    and is filled by the in-neighbors' init runs.  side maps each neighbor
    on the smaller of the two sides to the tables it counts in, one or
    both; every other neighbor counts in other, the larger side's table,
    which keeps the map to about half the degree.  The tuples hold hin and
    hout themselves, so `tables[-1] is hout` tells an out-neighbor.  dirty
    is a bitmask of rows, -1 until the first after_messages calls seed.
    """

    __slots__ = ("arr", "width", "side", "other", "hin", "hout", "dirty")

    def __init__(self, v, g, arr, hout):
        self.arr, self.width = arr, len(hout) // len(arr)
        self.hin = [0] * len(hout)
        self.hout = hout
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
        """Turn the init counts into clipped in-histograms; return every row's bit.

        Row k of hin becomes the sum of rows k.., so it counts each
        in-neighbor that reaches k at its height there, and its buckets
        above arr[k] are folded into bucket arr[k].  hout came clipped.
        """
        arr, width, hin = self.arr, self.width, self.hin
        for i in range(len(hin) - width - 1, -1, -1):
            hin[i] += hin[i + width]
        for k, t in enumerate(arr):
            if t < width - 1:
                top = k * width + t
                hin[top] = sum(hin[top : (k + 1) * width])
        return (1 << len(arr)) - 1


class RowProgram(VertexProgram):
    """Phase III and the skyline D-index: a 2-D H-index per row.

    Row k of v starts at starts[v][0][k] and only descends.  A round lowers
    a row whose support fell short to the largest l such that at least k
    in-neighbors and at least l out-neighbors have height >= l in their
    row k.  The anchored table is the largest set of heights that keeps
    its supports, and it stays below every iterate, so from any start at
    or above it with a row for every k up to kmax(v) (kmax(v) + 1 rows,
    each at or above l_max(v, k)) the heights end at the table.  No row
    then runs out of support: at l = 0 row k counts every in-neighbor u
    with kmax(u) >= k, and v has at least k of them.  Phase II's l_upp
    arrays qualify, and so does the skyline's box [L] * (K + 1): it loses
    nothing, since at the H-index fixpoints K = kmax(v) is the H-index of
    the in-neighbors' K and L = lmax(v) that of the out-neighbors' L, and
    l_max(v, k) <= lmax(v).

    starts[v] is (arr, out_table): the start heights and v's out-table,
    len(arr) rows of one width, at least max(arr) + 1, whose row k is the
    histogram of the out-neighbors' start heights at k clipped at arr[k]
    (an out-neighbor with no row k is not counted there).  The program
    folds into both lists, so a starts list serves one run.  Phase III
    hands over phase II's final slot histograms, and the D-index
    lmax_rows, which counts every out-neighbor in every row; excludes[v]
    says that v is not counted past its last row in some in-neighbor's
    out-table (phase I's excludes), None that no vertex is.

    A payload is the k-ascending tuple of (k, old, new) triples of the rows
    that dropped; init sends one (k, -1, value) triple per maximal run of
    equal heights, at the run's last row, so a box sends ((K, -1, L),).
    Since every vertex holds its out-table, init goes only to the
    out-neighbors, which count the runs in their in-tables; an excluding
    vertex sends it to all its neighbors, and those that count it in
    their out-table take it out of their rows past its last.  A vertex
    with no in-neighbor may get no init mail, so it walks its one row at
    init.  Row k of _RowState's hin/hout is the histogram of the in-/
    out-neighbors' heights at k, clipped at arr[k].  A row turns dirty
    only when a count leaves its top bucket, and after_messages walks each
    dirty row down, folding the buckets it passes into the new top: the
    counting computeIndex in two dimensions.
    """

    broadcast = "both"

    def __init__(self, starts: list, excludes: list[bool] | None = None):
        self.starts, self.excludes = starts, excludes

    def init_recipients(self, g):
        if self.excludes is None:
            return g.out_adj
        return [b if x else o for o, b, x in zip(g.out_adj, g.both_adj, self.excludes)]

    def init(self, v, g):
        arr, hout = self.starts[v]
        st = _RowState(v, g, arr, hout)
        if not g.in_adj[v]:
            # kmax(v) = 0 and nothing to seed: walk the one row, which needs
            # only out-neighbors, now, since no init may reach v
            l = arr[0]
            c = hout[l]
            while c < l:
                l -= 1
                c += hout[l]
            hout[l], arr[0] = c, l
            st.dirty = 0
        last = len(arr) - 1
        runs = tuple((k, -1, a) for k, a in enumerate(arr) if k == last or arr[k + 1] != a)
        return st, runs

    def on_broadcast(self, targets, sender, payload):
        """Fold one payload into every target's histograms.

        An init run (k, -1, value) is counted in the in-table's row
        min(k, last row) and the next run takes its value back out of that
        row, so summing the rows downward (_RowState.seed) counts the
        sender in every row it reaches.  An excluding sender's init also
        reaches the vertices that count it in their out-table, at
        min(value, arr[j]) in every row j, and leaves their rows past its
        last.  After init a triple moves one count per table of the
        sender's side, from the old height clipped to arr[k] to the new
        one, unless the new height is at or above arr[k].
        """
        if payload[0][1] < 0:
            excludes = self.excludes is not None and self.excludes[sender]
            for st in targets:
                arr, width, hin = st.arr, st.width, st.hin
                last = len(arr) - 1
                if excludes:
                    tables = st.side.get(sender, st.other)
                    if tables[-1] is st.hout:
                        k, _, value = payload[-1]
                        hout = st.hout
                        for j in range(k + 1, last + 1):
                            a = arr[j]
                            hout[j * width + (value if value < a else a)] -= 1
                    if tables[0] is not hin:
                        continue
                prev = -1
                for k, _, new in payload:
                    b = new if new < width else width - 1
                    if prev >= 0:
                        hin[prev + b] -= 1
                    hin[(k if k < last else last) * width + b] += 1
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
                    h[pos + b] += 1
            st.dirty = dirty

    def after_messages(self, st, v, g):
        dirty = st.dirty
        if not dirty:
            return None
        if dirty < 0:
            dirty = st.seed()
        st.dirty = 0
        arr, hin, hout, width = st.arr, st.hin, st.hout, st.width
        changed = []
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            k = low.bit_length() - 1
            t = l = arr[k]
            base = k * width
            ci, co = hin[base + l], hout[base + l]
            while l and (ci < k or co < l):
                l -= 1
                ci += hin[base + l]
                co += hout[base + l]
            if l < t:
                hin[base + l], hout[base + l] = ci, co
                arr[k] = l
                changed.append((k, t, l))
        if changed:
            return tuple(changed)
        return None

    def extract(self, st, v, g):
        return list(st.arr)


def compute_kmax(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[int], EngineMetrics]:
    """Per-vertex kmax(v) = max{k : v in the (k, 0)-core}, run alone.

    anchored_decompose computes kmax together with lmax (compute_kmax_lmax).
    """
    results, metrics = run_program(HIndexFixpoint("in"), g, parts, mode, phase="kmax", **kwargs)
    return [kmax for kmax, _ in results], metrics


def compute_kmax_lmax(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    *,
    phase: str = "phase I",
    **kwargs,
) -> tuple[list[tuple[int, bool, int, list[int]]], EngineMetrics]:
    """Phase I: the kmax and lmax fixpoints in shared supersteps.

    Returns one seed per vertex for compute_lupp: (kmax, excludes, lmax,
    hist).  excludes says that some in-neighbor has a larger kmax, which
    the strictly-above bucket of the kmax histogram counts; hist is the
    final lmax histogram as HIndexFixpoint extracts it, lmax + 2 buckets.
    phase names the metrics; skyline's tight_init runs this as "init".
    """
    (ks, ls), metrics = run_programs(
        (HIndexFixpoint("in"), HIndexFixpoint("out")), g, parts, mode, phase=phase, **kwargs
    )
    seeds = [
        (kmax, khist[kmax + 1] > 0, lmax, lhist) for (kmax, khist), (lmax, lhist) in zip(ks, ls)
    ]
    return seeds, metrics


def compute_lupp(
    g: DirectedGraph,
    seeds: list[tuple[int, bool, int, list[int]]],
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[tuple[list[int], list[int]]], EngineMetrics]:
    """Per-vertex (l_upp, table): the upper bounds l_upp(k, v) for k in
    [0, kmax(v)] and the final slot histograms of phase II.

    table is phase III's out-table for refine, lmax(v) + 1 buckets per
    slot.  seeds is compute_kmax_lmax's result, which this only reads.
    """
    return run_program(LuppProgram(seeds), g, parts, mode, phase="phase II", **kwargs)


def refine(
    g: DirectedGraph,
    lupps: list[tuple[list[int], list[int]]],
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[AnchoredTable, EngineMetrics]:
    """Tighten the upper bounds to the exact anchored corenesses.

    lupps is compute_lupp's result, whose lists this folds into.
    """
    rows, metrics = run_program(
        RowProgram(lupps), g, parts, mode, phase="phase III", **kwargs
    )
    return AnchoredTable(rows), metrics


def anchored_decompose(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[AnchoredTable, list[EngineMetrics]]:
    """Run the three phases back to back; equals peel_decompose exactly."""
    seeds, m1 = compute_kmax_lmax(g, parts, mode, **kwargs)
    lupps, m2 = compute_lupp(g, seeds, parts, mode, **kwargs)
    # phase I's histograms are dead now; free them before phase III's tables
    del seeds
    table, m3 = refine(g, lupps, parts, mode, **kwargs)
    return table, [m1, m2, m3]
