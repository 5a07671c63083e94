"""Distributed anchored-coreness decomposition in three phases.

Phase I iterates the in-H-index to the in-degree limit kmax(v).  Phase II
iterates, for every k in [0, kmax(v)] at once, the out-H-index restricted to
the vertices with kmax >= k, yielding upper bounds on l_max(v, k).  Phase
III decrements each bound until enough neighbors support it.  Every tracked
scalar only ever decreases, which is what guarantees quiescence.

Phases I and II send deltas and keep no copy of any neighbor.  A phase I
payload is (old, new) and a phase II payload is the k-ascending tuple of
(k, old, new) triples of the slots that dropped; an init message is the
delta from "absent", old = -1.  Each receiver folds the deltas into a
clipped histogram per value (per slot k in phase II): bucket b counts the
neighbors whose value is b, and the top bucket, at the vertex's own value,
counts every neighbor at or above it.  That is the counting computeIndex of
Montresor, De Pellegrini and Miorandi (TPDS 2013).  A value can only drop
when its top bucket falls short of it; it then walks down the buckets to
the new H-index, folding the ones it passes into the new top.  So every
decision to lower a value, and with it every emitted value, superstep and
message, is the one a full rescan would make.  Deltas rely on the engine's
contract: every payload reaches each recipient exactly once, and one
sender's payloads arrive in the order it emitted them.  Histograms are sums
over senders, so the order between senders is irrelevant.

Phase III sends the sender's whole per-k array plus the ascending list of
slots that changed, and receivers keep a reference to each sender's latest
array (the shared payload tuple, never a copy).  Storing that reference
costs O(1) per delivery, and a delivery touches only the counts of slots
whose value crosses a threshold.  Deltas there would move buckets in up to
two per-slot histograms per changed slot and allocate both histograms for
every slot at init; measured that way, phase III took 1.16 to 1.62 times
as long on the benchmark workloads.  Each vertex keeps in- and out-support
counts per slot: a message decrements a count only when the neighbor's value
crosses below the slot's threshold, a short slot is lowered by one, and its
counts gain the neighbors sitting exactly at the new threshold.  The counts
are seeded by one full scan in each vertex's first after_messages, from the
init messages: every vertex emits at init, and the engine delivers all init
messages before any vertex runs after_messages.
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


def _column(arrays, k: int) -> list[int]:
    """Slot k of every array long enough to have one."""
    return [a[k] for a in arrays if k < len(a)]


def _support(arrays, k: int, thr: int) -> int:
    """How many arrays reach slot k with a value >= thr there."""
    n = 0
    for a in arrays:
        if k < len(a) and a[k] >= thr:
            n += 1
    return n


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

    def on_message(self, st, sender, payload):
        old, new = payload
        hist, top = st.hist, st.value
        if old >= 0:
            hist[old if old < top else top] -= 1
        hist[new if new < top else top] += 1

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
    __slots__ = ("arr", "stride", "hist", "flags")


class LuppProgram(VertexProgram):
    """Phase II: batched out-H-index iteration inside every G[k] at once.

    The k-th slot of a vertex's array lives in the subgraph induced by
    {u : kmax(u) >= k}; that restriction holds because a vertex sends
    triples only for its own slots and ignores those beyond them, so G[k] is
    never materialized.  Arrays
    start from the full-graph out-degree, a valid upper bound that converges
    to the same fixpoint.

    The payload is the k-ascending tuple of (k, old, new) triples of the
    slots that dropped; init sends (k, -1, out-degree) for every slot.  hist
    holds one clipped histogram per slot, as in HIndexFixpoint, of the
    out-neighbors' values there; slot k's starts at k * stride, with stride
    = out-degree + 1.  Every slot is flagged at init; after that a message
    flags slot k only when it leaves slot k's top bucket short of arr[k].
    after_messages lowers each flagged slot to its H-index.
    """

    broadcast = "in"

    def __init__(self, kmaxes: list[int]):
        self.kmaxes = kmaxes

    def init(self, v, g):
        st = _LuppState()
        width = self.kmaxes[v] + 1
        deg = g.out_degree(v)
        st.arr = [deg] * width
        st.stride = deg + 1
        st.hist = [0] * (width * st.stride)
        st.flags = set(range(width))
        return st, tuple((k, -1, deg) for k in range(width))

    def on_message(self, st, sender, payload):
        arr, hist, stride = st.arr, st.hist, st.stride
        if payload[0][1] < 0:
            # init message: one triple per slot, from slot 0 up
            for (_, _, new), a, base in zip(payload, arr, range(0, len(hist), stride)):
                hist[base + (new if new < a else a)] += 1
            return
        width = len(arr)
        for k, old, new in payload:
            if k >= width:
                break
            a = arr[k]
            base = k * stride
            if old < a:
                hist[base + old] -= 1
                hist[base + new] += 1
            elif new < a:
                hist[base + new] += 1
                hist[base + a] -= 1
                if hist[base + a] < a:
                    st.flags.add(k)

    def after_messages(self, st, v, g):
        flags = st.flags
        if not flags:
            return None
        arr, hist, stride = st.arr, st.hist, st.stride
        changed = []
        for k in sorted(flags):
            a = arr[k]
            h = _lower(hist, k * stride, a)
            if h < a:
                arr[k] = h
                changed.append((k, a, h))
        flags.clear()
        if changed:
            return tuple(changed)
        return None

    def extract(self, st, v, g):
        return list(st.arr)


class _RefineState:
    __slots__ = ("arr", "nin", "nout", "cin", "cout", "flags")


class RefineProgram(VertexProgram):
    """Phase III: decrement l_upp(k, v) until both support conditions hold.

    (k, l_upp) survives a round only when at least k in-neighbors and at
    least l_upp out-neighbors report a bound >= l_upp at the same k.  A
    failed check lowers the bound by one and schedules the slot for
    re-examination next round, so chains of decrements advance one step per
    superstep exactly as the refinement protocol prescribes.  Neighbors
    whose own array does not reach k count as zero.

    nin/nout map each in-/out-neighbor to its latest array (a neighbor on
    both sides is in both; the empty tuple until its init message arrives).
    cin[k]/cout[k] count the neighbors of that side whose value at k is
    >= arr[k].  The first after_messages seeds both with one full scan of
    the init arrays, which the engine delivers before it runs, and then
    checks every slot.  After that, on_message decrements a count when a
    neighbor's value at k crosses below arr[k], and flags k when the count
    falls short (cin[k] < k or cout[k] < arr[k]).  after_messages lowers each
    flagged or just-lowered slot by one if a count is still short, and adds
    to both counts the neighbors whose value at k is exactly the new
    threshold.
    """

    broadcast = "both"

    def __init__(self, kmaxes: list[int], lupps: list[list[int]]):
        self.kmaxes = kmaxes
        self.lupps = lupps

    def init(self, v, g):
        st = _RefineState()
        st.arr = list(self.lupps[v])
        st.nin = dict.fromkeys(g.in_adj[v], ())
        st.nout = dict.fromkeys(g.out_adj[v], ())
        st.cin = st.cout = None
        st.flags = set(range(len(st.arr)))
        return st, (tuple(st.arr), tuple(range(len(st.arr))))

    def on_message(self, st, sender, payload):
        vals, changed = payload
        arr = st.arr
        width = len(arr)
        old = st.nin.get(sender)
        if old is not None:
            st.nin[sender] = vals
            if old:
                cin = st.cin
                for k in changed:
                    if k >= width:
                        break
                    a = arr[k]
                    if old[k] >= a > vals[k]:
                        cin[k] -= 1
                        if cin[k] < k:
                            st.flags.add(k)
        old = st.nout.get(sender)
        if old is not None:
            st.nout[sender] = vals
            if old:
                cout = st.cout
                for k in changed:
                    if k >= width:
                        break
                    a = arr[k]
                    if old[k] >= a > vals[k]:
                        cout[k] -= 1
                        if cout[k] < a:
                            st.flags.add(k)

    def after_messages(self, st, v, g):
        flags = st.flags
        if not flags:
            return None
        arr, ins, outs = st.arr, st.nin.values(), st.nout.values()
        if st.cin is None:
            st.cin = [_support(ins, k, thr) for k, thr in enumerate(arr)]
            st.cout = [_support(outs, k, thr) for k, thr in enumerate(arr)]
        cin, cout = st.cin, st.cout
        changed = []
        for k in sorted(flags):
            thr = arr[k]
            if thr and (cin[k] < k or cout[k] < thr):
                thr -= 1
                arr[k] = thr
                cin[k] += _column(ins, k).count(thr)
                cout[k] += _column(outs, k).count(thr)
                changed.append(k)
        st.flags = set(changed)
        if changed:
            return (tuple(arr), tuple(changed))
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
