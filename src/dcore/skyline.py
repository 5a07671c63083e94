"""Distributed skyline-coreness decomposition via iterated D-indexes.

Every vertex keeps an antichain of (k, l) pairs, initialized tightly to the
single pair (K, L) = (kmax(v), lmax(v)) obtained from two H-index fixpoints,
and then repeatedly replaced by the D-index of its neighbors' current sets
until nothing changes anywhere.  The fixpoints are anchored's phase I, run
under the name "init"; the iteration is the phase "d-index".

A set S_u is described by its staircase heights f_u(k) = max{l' : (k', l')
in S_u, k' >= k}, or -1 when no pair reaches k.  The D-index of v's
neighbors' sets has height f[k] at k: the largest l such that at least k
in-neighbors and at least l out-neighbors have height >= l at k, or -1
when fewer than k in-neighbors reach k.  That is the row height of
anchored.RowProgram, so the D-index iteration is RowProgram started from
the box [L] * (K + 1), whose init message is the one run ((K, -1, L),).
The box has a row for every k up to kmax(v), so no height falls to -1.
Its out-table is phase I's lmax histogram in every row (lmax_rows), which
counts every out-neighbor at its L, so init goes only to the
out-neighbors, for their in-tables.  A vertex with an in-neighbor of
larger kmax (phase I's excludes) sends its run to all its neighbors, and
those that count it in their out-table take it out of their rows past K.
The heights end at the anchored table, which skyline_table returns;
skyline_decompose reads each set off it with peel.anchored_to_skyline.
"""

from __future__ import annotations

from .anchored import RowProgram, compute_kmax_lmax, lmax_rows
from .engine import EngineMetrics, run_program
from .graph import DirectedGraph
from .kernels import Pair
from .peel import AnchoredTable, anchored_to_skyline
# No program here calls d_index_over_sets; benchmarks/tracer.py still counts
# calls through this module attribute, so it stays importable.
from .kernels import d_index_over_sets  # noqa: F401


def tight_init(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[tuple[int, bool, int, list[int]]], EngineMetrics]:
    """Anchored's phase I as "init": one (K, excludes, L, hist) per vertex.

    Each (K, L) = (kmax(v), lmax(v)) weakly dominates every skyline pair of
    its vertex, so the D-index iteration can only descend from it.
    excludes and the lmax histogram hist give the D-index its out-tables
    (anchored.compute_kmax_lmax).
    """
    return compute_kmax_lmax(g, parts, mode, phase="init", **kwargs)


def skyline_table(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[AnchoredTable, list[EngineMetrics]]:
    """The D-index's converged heights, equal to peel_decompose(g), plus metrics."""
    seeds, m_init = tight_init(g, parts, mode, **kwargs)
    starts = [([L] * (K + 1), lmax_rows(K, L, hist)) for K, _, L, hist in seeds]
    program = RowProgram(starts, [excludes for _, excludes, _, _ in seeds])
    # the out-tables are copies, so phase I's histograms are dead now
    del seeds
    heights, m_d = run_program(program, g, parts, mode, phase="d-index", **kwargs)
    return AnchoredTable(heights), [m_init, m_d]


def skyline_decompose(
    g: DirectedGraph,
    parts: list[int] | None = None,
    mode: str = "vertex",
    **kwargs,
) -> tuple[list[list[Pair]], list[EngineMetrics]]:
    """Skyline coreness sets for every vertex plus per-phase metrics.

    The result equals anchored_to_skyline(peel_decompose(g)) vertexwise.
    """
    table, metrics = skyline_table(g, parts, mode, **kwargs)
    return anchored_to_skyline(table), metrics
