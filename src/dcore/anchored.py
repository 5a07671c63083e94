"""Distributed anchored-coreness decomposition in three phases.

Phase I iterates the in-H-index to the in-degree limit kmax(v).  Phase II
iterates, for every k in [0, kmax(v)] at once, the out-H-index restricted to
the vertices with kmax >= k, yielding upper bounds on l_max(v, k).  Phase
III decrements each bound until enough neighbors support it.  Every tracked
scalar only ever decreases, which is what guarantees quiescence.

Messages in phases II/III carry the sender's whole per-k array plus the
ascending list of slots that changed; receivers keep a reference to each
sender's latest array (the shared payload tuple, never a copy).

No phase rescans its neighbors on every change.  Each vertex keeps, per
value (per slot k in phases II/III), a count of the neighbors whose latest
value there is at or above its own: the counting computeIndex of Montresor,
De Pellegrini and Miorandi (TPDS 2013).  A message decrements a count only
when the neighbor's value crosses from at or above the vertex's value to
below it, and flags the slot only when the count then falls short of what
the value needs.  A short slot is the only kind that can drop.  In phases I
and II it gets its H-index recomputed from the neighbors' values and its
count recounted at the new value; in phase III it is lowered by one and its
counts gain the neighbors sitting exactly at the new threshold.  So every
decision to lower a value, and with it every emitted value, superstep and
message, is the one a full rescan would make.  Counts are sums over
senders, so the update order within a superstep is irrelevant.

The counts are seeded by one full scan in each vertex's first
after_messages, from the init messages.  That relies on the engine's
contract: every vertex emits at init, and all init messages are delivered
before any vertex runs after_messages.  Both engine modes and the
full-sweep reference scheduler of the tests keep it.
"""

from __future__ import annotations

from .engine import EngineMetrics, VertexProgram, run_program
from .graph import DirectedGraph, PartitionMap
from .kernels import h_index
from .peel import AnchoredTable


def _h_support(vals) -> tuple[int, int]:
    """H-index h of vals and how many of vals are >= h.

    The second number is the >=-counter phases I and II keep per value:
    while it stays >= h, no neighbor drop can lower the H-index.
    """
    h = h_index(vals)
    ge = 0
    for x in vals:
        if x >= h:
            ge += 1
    return h, ge


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
    __slots__ = ("value", "nbr", "ge")


class HIndexFixpoint(VertexProgram):
    """Iterated H-index over one neighbor direction.

    consume="in" starts from the in-degree and converges to kmax(v);
    consume="out" is the mirror image and converges to lmax(v).  A vertex
    re-broadcasts only when its value drops, and drops are the only way the
    H-index of a neighbor can fall, so quiescence is a true fixpoint.

    ge counts the neighbors whose latest value is >= value; it starts at -1
    so the first round computes the H-index and seeds it.  After that a
    vertex recomputes only when ge < value, which is exactly when the
    H-index has fallen below value.
    """

    def __init__(self, consume: str = "in"):
        if consume not in ("in", "out"):
            raise ValueError("consume must be 'in' or 'out'")
        self.consume = consume
        self.broadcast = "out" if consume == "in" else "in"

    def _adj(self, v: int, g: DirectedGraph):
        return g.in_adj[v] if self.consume == "in" else g.out_adj[v]

    def init(self, v, g):
        st = _HState()
        adj = self._adj(v, g)
        st.value = len(adj)
        st.nbr = dict.fromkeys(adj, 0)
        st.ge = -1
        return st, st.value

    def on_message(self, st, sender, payload):
        nbr = st.nbr
        if payload < st.value <= nbr[sender]:
            st.ge -= 1
        nbr[sender] = payload

    def after_messages(self, st, v, g):
        if st.ge >= st.value:
            return None
        h, st.ge = _h_support(st.nbr.values())
        if h < st.value:
            st.value = h
            return h
        return None

    def extract(self, st, v, g):
        return st.value


class _LuppState:
    __slots__ = ("arr", "nbr", "ge", "flags")


class LuppProgram(VertexProgram):
    """Phase II: batched out-H-index iteration inside every G[k] at once.

    The k-th slot of a vertex's array lives in the subgraph induced by
    {u : kmax(u) >= k}; that restriction is applied by ignoring slots beyond
    a neighbor's own array length, so G[k] is never materialized.  Arrays
    start from the full-graph out-degree, a valid upper bound that converges
    to the same fixpoint.

    nbr maps each out-neighbor whose init message has arrived to its latest
    array, and ge[k] counts the out-neighbors whose value at k is >= arr[k].
    Every slot is flagged at init.  The first after_messages therefore
    computes the H-index of every slot from the init arrays and seeds ge;
    the engine delivers all init messages before it runs.  After that,
    on_message decrements ge[k] when a neighbor's value at k crosses below
    arr[k], and flags k only if then ge[k] < arr[k], which is exactly when
    the slot's H-index has fallen.  after_messages recomputes only flagged
    slots: it lowers each to its new H-index and recounts ge there.
    """

    broadcast = "in"

    def __init__(self, kmaxes: list[int]):
        self.kmaxes = kmaxes

    def init(self, v, g):
        st = _LuppState()
        width = self.kmaxes[v] + 1
        st.arr = [g.out_degree(v)] * width
        st.nbr = {}
        st.ge = [0] * width
        st.flags = set(range(width))
        return st, (tuple(st.arr), tuple(range(width)))

    def on_message(self, st, sender, payload):
        vals, changed = payload
        nbr = st.nbr
        old = nbr.get(sender)
        nbr[sender] = vals
        if old is None:
            return  # init message: the first after_messages seeds ge
        arr, ge = st.arr, st.ge
        width = len(arr)
        for k in changed:
            if k >= width:
                break
            a = arr[k]
            if old[k] >= a > vals[k]:
                ge[k] -= 1
                if ge[k] < a:
                    st.flags.add(k)

    def after_messages(self, st, v, g):
        flags = st.flags
        if not flags:
            return None
        arr, ge, arrays = st.arr, st.ge, st.nbr.values()
        changed = []
        for k in sorted(flags):
            h, ge[k] = _h_support(_column(arrays, k))
            if h < arr[k]:
                arr[k] = h
                changed.append(k)
        flags.clear()
        if changed:
            return (tuple(arr), tuple(changed))
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
