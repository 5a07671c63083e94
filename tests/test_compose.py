"""Composed payloads: folding compose(p, q) is folding p and then q.

The engine holds one payload per sender per superstep and composes a
later one into it, so each program's compose must be exact against its
own fold.  Each test draws a receiver state and a chain of payloads from
one sender, as that sender emits them: every value only descends, and
each payload's old value is the sender's value before it.  The chain is
folded one payload at a time into one copy of the state and as one
left-folded composition into another; the two copies must be equal, and
both ways must wake the receiver or neither, since held mail is folded
before any vertex runs.  A composed payload also never holds more ints
than its parts together.
"""

import copy
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RowProgram,
    _HState,
    _LuppState,
    _RowState,
)
from dcore.graph import build_graph

heights = st.integers(0, 8)


def counts(size):
    return st.lists(st.integers(0, 5), min_size=size, max_size=size)


def _composed(program, payloads):
    """The left fold of compose over payloads, checking every composition's size."""

    def step(first, then):
        both = program.compose(first, then)
        assert len(both) <= len(first) + len(then)
        return both

    return reduce(step, payloads)


def _fold_both_ways(program, state, sender, payloads):
    """(state after folding each payload, state after folding their composition).

    The state is recipient 0 of a one-vertex state list; checks that both
    ways wake the same recipients.
    """
    apart, together = [copy.deepcopy(state)], [copy.deepcopy(state)]
    woke_apart, woke_together = set(), set()
    for payload in payloads:
        program.on_broadcast(apart, [0], sender, payload, woke_apart.add)
    program.on_broadcast(together, [0], sender, _composed(program, payloads), woke_together.add)
    assert woke_together == woke_apart
    return apart[0], together[0]


@st.composite
def triple_chains(draw, rows):
    """A sender's start heights at rows slots and its payloads of k-ascending drops.

    Each payload lowers a non-empty set of the slots that can still drop;
    the chain has two to six payloads, fewer when every slot reaches 0.
    """
    start = draw(st.lists(st.integers(1, 9), min_size=rows, max_size=rows))
    now, payloads = list(start), []
    for _ in range(draw(st.integers(2, 6))):
        live = [k for k in range(rows) if now[k] > 0]
        if not live:
            break
        ks = draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
        payload = []
        for k in sorted(ks):
            new = draw(st.integers(0, now[k] - 1))
            payload.append((k, now[k], new))
            now[k] = new
        payloads.append(tuple(payload))
    return start, payloads


@settings(max_examples=300, deadline=None)
@given(
    top=heights,
    hist=counts(10),
    chain=st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True),
)
def test_h_index_deltas_compose(top, hist, chain):
    chain.sort(reverse=True)
    state = _HState()
    state.value = top
    state.hist = hist[: top + 2]
    # the receiver counts the sender at its first value, clipped above top
    state.hist[min(chain[0], top + 1)] += 1
    payloads = list(zip(chain, chain[1:]))
    program = HIndexFixpoint("in")
    apart, together = _fold_both_ways(program, state, 0, payloads)
    assert together.hist == apart.hist
    assert _composed(program, payloads) == (chain[0], chain[-1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 5), sender_rows=st.integers(1, 5))
def test_phase_two_triples_compose(data, width, sender_rows):
    arr = data.draw(st.lists(heights, min_size=width, max_size=width))
    stride = max(arr) + 1
    start, payloads = data.draw(triple_chains(sender_rows))
    state = _LuppState()
    state.arr, state.stride = arr, stride
    state.hist = data.draw(counts(width * stride))
    for k in range(min(width, sender_rows)):
        state.hist[k * stride + min(start[k], arr[k])] += 1
    apart, together = _fold_both_ways(LuppProgram([]), state, 0, payloads)
    assert together.hist == apart.hist


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 5),
    sender_rows=st.integers(1, 5),
    relation=st.sampled_from([[(0, 1)], [(1, 0)], [(0, 1), (1, 0)]]),
)
def test_row_triples_compose(data, rows, sender_rows, relation):
    # vertex 0 sends to vertex 1 as an in-neighbor, an out-neighbor or both
    g = build_graph(2, relation)
    arr = data.draw(st.lists(heights, min_size=rows, max_size=rows))
    width = max(arr) + 1 + data.draw(st.integers(0, 2))
    hout = data.draw(counts(rows * width))
    state = _RowState(1, g, arr, hout)
    state.hin[:] = data.draw(counts(rows * width))
    start, payloads = data.draw(triple_chains(sender_rows))
    for k in range(min(rows, sender_rows)):
        for table in state.side.get(0, state.other):
            table[k * width + min(start[k], arr[k])] += 1
    apart, together = _fold_both_ways(RowProgram([]), state, 0, payloads)
    assert (together.hin, together.hout) == (apart.hin, apart.hout)
    assert together.arr == apart.arr
