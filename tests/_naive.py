"""Brute-force reference implementations used only as test oracles.

Everything here favors obviousness over speed and deliberately shares no
code with the production paths it checks.  NaiveSkylineProgram recomputes
the D-index from scratch with the reference kernel d_index_over_sets, which
the production skyline program no longer calls and which test_skyline.py
checks against the combinatorial brute force below.  NaiveHIndexFixpoint,
NaiveLuppProgram and NaiveRefineProgram are the anchored phases without
support counters: every flagged value is recomputed by a full scan of the
neighbors' latest values, with naive_h_index in phases I and II and, in
phase III, by a walk down from the slot's bound that counts both supports
at every step.  with_out_tables gives RowProgram the exact out-table of
any start, counted neighbor by neighbor.
"""

from __future__ import annotations

import itertools

from dcore.engine import VertexProgram
from dcore.kernels import d_index_over_sets


def naive_dcore(g, k, l):
    """Repeated full-scan deletion until no vertex violates (k, l)."""
    alive = set(range(g.n))
    while True:
        indeg = {v: sum(1 for u in g.in_adj[v] if u in alive) for v in alive}
        outdeg = {v: sum(1 for u in g.out_adj[v] if u in alive) for v in alive}
        bad = {v for v in alive if indeg[v] < k or outdeg[v] < l}
        if not bad:
            return alive
        alive -= bad


def naive_anchored_rows(g):
    """Anchored table from direct (k, l)-core membership sweeps."""
    rows = [[] for _ in range(g.n)]
    k = 0
    while True:
        core = naive_dcore(g, k, 0)
        if not core:
            break
        remaining = set(core)
        l = 0
        lmax = {}
        while remaining:
            nxt = naive_dcore(g, k, l + 1)
            for v in remaining - nxt:
                lmax[v] = l
            remaining &= nxt
            l += 1
        for v in core:
            rows[v].append(lmax[v])
        k += 1
    return rows


def naive_skyline(pairs):
    """Non-dominated distinct pairs by pairwise comparison, k-ascending."""
    uniq = set(pairs)
    keep = [
        (k, l)
        for (k, l) in uniq
        if not any(k2 >= k and l2 >= l and (k2, l2) != (k, l) for (k2, l2) in uniq)
    ]
    return sorted(keep)


def naive_h_index(values):
    vals = list(values)
    h = 0
    while sum(1 for x in vals if x >= h + 1) >= h + 1:
        h += 1
    return h


def _qualifies(r_in, r_out, k, l):
    n_in = sum(1 for a, b in r_in if a >= k and b >= l)
    n_out = sum(1 for a, b in r_out if a >= k and b >= l)
    return n_in >= k and n_out >= l


def naive_d_index(r_in, r_out):
    """Full enumeration over the candidate grid plus a maximality filter."""
    r_in, r_out = list(r_in), list(r_out)
    good = [
        (k, l)
        for k in range(len(r_in) + 1)
        for l in range(len(r_out) + 1)
        if _qualifies(r_in, r_out, k, l)
    ]
    return naive_skyline(good)


def naive_d_index_over_sets(in_sets, out_sets):
    """Union of d_index over every one-pair-per-neighbor combination."""
    collected = set()
    in_choices = list(itertools.product(*in_sets)) or [()]
    out_choices = list(itertools.product(*out_sets)) or [()]
    for rin in in_choices:
        for rout in out_choices:
            collected.update(naive_d_index(rin, rout))
    return naive_skyline(collected)


def set_dominated_by(r2, r1):
    """True when every pair of r2 is weakly dominated by some pair of r1."""
    return all(any(k <= k1 and l <= l1 for (k1, l1) in r1) for (k, l) in r2)


def with_out_tables(g, starts):
    """RowProgram's starts for the row lists starts: (arr, out-table) per vertex.

    Row k of v's out-table, max(arr) + 1 buckets wide, counts each
    out-neighbor u with a row k at min(starts[u][k], arr[k]).  Every call
    returns new lists, since RowProgram folds into them.
    """
    out = []
    for v, arr in enumerate(starts):
        table = []
        for k, a in enumerate(arr):
            row = [0] * (max(arr) + 1)
            for u in g.out_adj[v]:
                if k < len(starts[u]):
                    row[min(starts[u][k], a)] += 1
            table += row
        out.append((list(arr), table))
    return out


def naive_schedule(program, g, block_of=None, max_supersteps=10_000):
    """Full-sweep superstep scheduler: every vertex runs in every round.

    It ignores what on_broadcast wakes, since it runs every vertex anyway.

    Each block sweeps all of its members in rounds, delivering same-block
    messages between rounds, until a round sends no message inside the
    block; cross-block messages wait for the next superstep, one per
    (sender, recipient): a sender's later payload to the same recipient is
    composed into the waiting one.  block_of=None is vertex mode: one block
    in which every message counts as crossing, so each superstep is one
    round and all messages wait for the next one.  Init payloads go to the
    program's init_recipients and wait too.  A run stops after a superstep
    that holds nothing for the next one.  Returns (results, supersteps,
    messages per superstep, intra messages).
    """
    n = g.n
    if program.broadcast == "out":
        targets = [list(g.out_adj[v]) for v in range(n)]
    elif program.broadcast == "in":
        targets = [list(g.in_adj[v]) for v in range(n)]
    else:
        targets = [sorted(set(g.in_adj[v]) | set(g.out_adj[v])) for v in range(n)]
    blocks = [0] * n if block_of is None else list(block_of)
    states = [None] * n
    waiting = []  # (sender, recipient, payload) held for the next superstep
    init_targets = program.init_recipients(g)
    for v in range(n):
        states[v], payload = program.init(v, g)
        if payload is not None:
            waiting += [(v, r, payload) for r in init_targets[v]]
    per_step = [len(waiting)]
    intra = 0
    while waiting:
        if len(per_step) >= max_supersteps:
            raise RuntimeError("naive scheduler did not quiesce")
        incoming, composed = waiting, {}  # (sender, recipient) -> payload
        for b in sorted(set(blocks)):
            members = [v for v in range(n) if blocks[v] == b]
            inbox = [m for m in incoming if blocks[m[1]] == b]
            while True:
                for s, r, payload in inbox:
                    program.on_broadcast(states, (r,), s, payload, set().add)
                inbox = []
                for v in members:
                    payload = program.after_messages(states[v], v, g)
                    if payload is None:
                        continue
                    for r in targets[v]:
                        if block_of is not None and blocks[r] == b:
                            inbox.append((v, r, payload))
                            intra += 1
                        elif (v, r) in composed:
                            composed[v, r] = program.compose(composed[v, r], payload)
                        else:
                            composed[v, r] = payload
                if not inbox:
                    break
        waiting = [(s, r, payload) for (s, r), payload in composed.items()]
        per_step.append(len(waiting))
    results = [program.extract(states[v], v, g) for v in range(n)]
    return results, len(per_step), per_step, intra


def union_changed(first, then):
    """An (array, changed slots) payload composed: then's array, both sets of slots."""
    return then[0], tuple(sorted({*first[1], *then[1]}))


class _SkyState:
    __slots__ = ("d", "nbr", "flag")


class NaiveSkylineProgram(VertexProgram):
    """Skyline program that reruns the D-index over every neighbor's whole set.

    Each vertex caches the latest set of every neighbor and, when any
    message arrived, recomputes d_index_over_sets from scratch.  The payload
    is the bare canonical set.  Each vertex starts out knowing its
    out-neighbors' start pairs, as RowProgram knows them through its
    out-table, so init goes to the out-neighbors only; a vertex with no
    in-neighbor, which may get no mail, computes its set at init.
    """

    broadcast = "both"

    def __init__(self, init_pairs):
        self.init_pairs = init_pairs

    def init_recipients(self, g):
        return g.out_adj

    def init(self, v, g):
        st = _SkyState()
        st.d = (self.init_pairs[v],)
        st.nbr = {u: (self.init_pairs[u],) for u in g.out_adj[v]}
        st.flag = True
        if not g.in_adj[v]:
            self.after_messages(st, v, g)
        return st, st.d

    def on_message(self, st, sender, payload):
        st.nbr[sender] = payload
        st.flag = True

    def after_messages(self, st, v, g):
        if not st.flag:
            return None
        st.flag = False
        nbr = st.nbr
        new = tuple(
            d_index_over_sets([nbr[u] for u in g.in_adj[v]], [nbr[u] for u in g.out_adj[v]])
        )
        if new != st.d:
            st.d = new
            return new
        return None

    def compose(self, first, then):
        return then

    def extract(self, st, v, g):
        return list(st.d)


class _HState:
    __slots__ = ("value", "nbr", "flag")


class NaiveHIndexFixpoint(VertexProgram):
    """Iterated H-index over one direction, rescanning on every drop below value.

    extract recounts the final histogram from the neighbor copies: bucket
    b <= value counts the neighbors whose value is b, and bucket value + 1
    those above it.
    """

    def __init__(self, consume="in"):
        self.consume = consume
        self.broadcast = "out" if consume == "in" else "in"

    def init(self, v, g):
        st = _HState()
        adj = g.in_adj[v] if self.consume == "in" else g.out_adj[v]
        st.value = len(adj)
        st.nbr = dict.fromkeys(adj, 0)
        st.flag = True
        return st, st.value

    def on_message(self, st, sender, payload):
        st.nbr[sender] = payload
        if payload < st.value:
            st.flag = True

    def after_messages(self, st, v, g):
        if not st.flag:
            return None
        st.flag = False
        h = naive_h_index(st.nbr.values())
        if h < st.value:
            st.value = h
            return h
        return None

    def compose(self, first, then):
        return then

    def extract(self, st, v, g):
        hist = [0] * (st.value + 2)
        for x in st.nbr.values():
            hist[min(x, st.value + 1)] += 1
        return st.value, hist


class _ArrayState:
    __slots__ = ("arr", "nbr", "flags")


class NaiveLuppProgram(VertexProgram):
    """Phase II recomputing the out-H-index of every flagged slot from scratch.

    Every slot starts at lmax(v), and each vertex starts out knowing its
    out-neighbors' start arrays, [lmax(u)] * (kmax(u) + 1), as the
    production program knows them through its copy of the lmax histogram.
    A vertex with an in-neighbor of larger kmax sends its array at init,
    and a receiver flags every slot past the sender's last; after that a
    payload is the sender's array and the slots that dropped.
    """

    broadcast = "in"

    def __init__(self, kmaxes, lmaxes):
        self.kmaxes, self.lmaxes = kmaxes, lmaxes

    def _start(self, v):
        return [self.lmaxes[v]] * (self.kmaxes[v] + 1)

    def init(self, v, g):
        st = _ArrayState()
        st.arr = self._start(v)
        st.nbr = {u: tuple(self._start(u)) for u in g.out_adj[v]}
        st.flags = set()
        if any(self.kmaxes[u] > self.kmaxes[v] for u in g.in_adj[v]):
            return st, (tuple(st.arr), ())
        return st, None

    def on_message(self, st, sender, payload):
        vals, changed = payload
        st.nbr[sender] = vals
        if not changed:  # init: the sender is not in the slots past its own
            st.flags.update(range(len(vals), len(st.arr)))
        for k in changed:
            if k < len(st.arr) and vals[k] < st.arr[k]:
                st.flags.add(k)

    def after_messages(self, st, v, g):
        if not st.flags:
            return None
        changed = []
        for k in sorted(st.flags):
            vals = [st.nbr[u][k] for u in g.out_adj[v] if k < len(st.nbr[u])]
            h = naive_h_index(vals)
            if h < st.arr[k]:
                st.arr[k] = h
                changed.append(k)
        st.flags.clear()
        if changed:
            return (tuple(st.arr), tuple(changed))
        return None

    def compose(self, first, then):
        return union_changed(first, then)

    def extract(self, st, v, g):
        return list(st.arr)


class NaiveRefineProgram(VertexProgram):
    """Phase III counting both supports of every flagged slot from scratch.

    A flagged slot with bound t drops to the largest t' <= t with at least
    k in-supports and at least t' out-supports at k, or to -1 when no t'
    has them.  Each vertex starts out knowing its out-neighbors' start
    arrays, as RowProgram knows them through its out-table, so init goes
    to the out-neighbors only; a vertex with no in-neighbor, which may get
    no mail, checks its slots at init.
    """

    broadcast = "both"

    def __init__(self, lupps):
        self.lupps = lupps

    def init_recipients(self, g):
        return g.out_adj

    def init(self, v, g):
        st = _ArrayState()
        st.arr = list(self.lupps[v])
        st.nbr = {u: tuple(self.lupps[u]) for u in g.out_adj[v]}
        st.flags = set(range(len(st.arr)))
        if not g.in_adj[v]:
            self.after_messages(st, v, g)
        return st, (tuple(st.arr), tuple(range(len(st.arr))))

    def on_message(self, st, sender, payload):
        vals, changed = payload
        st.nbr[sender] = vals
        st.flags.update(k for k in changed if k < len(st.arr))

    def _support(self, st, adj, k, thr):
        return sum(
            1 for u in adj if u in st.nbr and k < len(st.nbr[u]) and st.nbr[u][k] >= thr
        )

    def after_messages(self, st, v, g):
        changed = []
        for k in sorted(st.flags):
            t = thr = st.arr[k]
            while thr >= 0 and (
                self._support(st, g.in_adj[v], k, thr) < k
                or self._support(st, g.out_adj[v], k, thr) < thr
            ):
                thr -= 1
            if thr < t:
                st.arr[k] = thr
                changed.append(k)
        st.flags.clear()
        if changed:
            return (tuple(st.arr), tuple(changed))
        return None

    def compose(self, first, then):
        return union_changed(first, then)

    def extract(self, st, v, g):
        return list(st.arr)
