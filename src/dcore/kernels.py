"""The paper's H-index and D-index operators, in plain form.

No algorithm calls them: the distributed programs fold deltas into clipped
support histograms instead.  They are kept as the references the tests
check those programs against and as the acceptance examples.  h_index and
d_index_over_sets also stay imported in anchored.py and skyline.py, where
benchmarks/tracer.py patches them.

A coreness pair is a plain (k, l) tuple of non-negative ints.  A skyline set
is an antichain of pairs kept in canonical order: strictly increasing k,
which for an antichain forces strictly decreasing l.
"""

from __future__ import annotations

from bisect import bisect_left

Pair = tuple[int, int]


def h_index(values) -> int:
    """Largest h such that at least h of the values are >= h."""
    vs = sorted(values, reverse=True)
    h = 0
    for i, x in enumerate(vs):
        if x > i:
            h = i + 1
        else:
            break
    return h


def is_canonical_skyline(pairs) -> bool:
    """True when pairs form an antichain sorted by ascending k."""
    for (k1, l1), (k2, l2) in zip(pairs, pairs[1:]):
        if not (k1 < k2 and l1 > l2):
            return False
    return all(k >= 0 and l >= 0 for k, l in pairs)


def d_index(r_in, r_out) -> list[Pair]:
    """Two-dimensional H-index of two pair multisets.

    Returns the antichain of all (k, l) backed by at least k pairs of r_in
    and l pairs of r_out under weak dominance.  Duplicate input pairs count
    with multiplicity: this is d_index_over_sets with every pair its own
    one-pair set.
    """
    return d_index_over_sets([(p,) for p in r_in], [(p,) for p in r_out])


def max_l_at(skyline: list[Pair], k: int) -> int:
    """Largest l' among the pairs of a canonical skyline with k' >= k.

    Returns -1 when no pair reaches k.  Because the list is k-ascending and
    l-descending, the first pair with k' >= k carries the answer.
    """
    i = bisect_left(skyline, (k, -1))
    if i == len(skyline):
        return -1
    return skyline[i][1]


def d_index_over_sets(in_sets, out_sets) -> list[Pair]:
    """D-index where each neighbor contributes a whole skyline set.

    A neighbor supports a candidate (k, l) when any of its pairs weakly
    dominates (k, l); each neighbor counts once.  Equivalent to taking every
    combination of one pair per neighbor, computing d_index per combination
    and skyline-reducing the union, but runs in one pass.
    """
    k_bound = h_index([s[-1][0] for s in in_sets if s])
    l_bound = h_index([s[0][1] for s in out_sets if s])
    found: list[Pair] = []
    l_min = 0
    for k in range(k_bound, -1, -1):
        if l_bound <= l_min:
            break
        cnt_in = _suffix_support(in_sets, k, l_bound)
        cnt_out = _suffix_support(out_sets, k, l_bound)
        for l in range(l_bound, l_min, -1):
            if cnt_in[l] >= k and cnt_out[l] >= l:
                found.append((k, l))
                l_min = l
                break
    # The scan never visits l = 0, but (k_bound, 0) is always supported and
    # belongs to the index unless some (k_bound, l >= 1) was accepted.
    if not found or found[0][0] < k_bound:
        found.insert(0, (k_bound, 0))
    found.reverse()
    return found


def _suffix_support(sets, k: int, l_bound: int) -> list[int]:
    """counts[l] = number of sets holding a pair (k', l') with k' >= k, l' >= l."""
    buckets = [0] * (l_bound + 2)
    for s in sets:
        best = max_l_at(s, k)
        if best >= 0:
            buckets[min(best, l_bound)] += 1
    for l in range(l_bound - 1, -1, -1):
        buckets[l] += buckets[l + 1]
    return buckets
