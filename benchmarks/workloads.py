"""Seeded workload graphs for the offline D-core benchmark.

A workload's shape is fixed: the preferential-attachment generator runs
with a fixed structure seed, and the band has no random choices.  The
benchmark's `--seed` then relabels the vertices with a random permutation
and shuffles the arc lines, using stdlib `random.Random`.  The relabelling
changes dense vertex IDs, hence iteration order and hash blocks, but not
the shape.  Superstep counts are set by the longest chain of updates in a
shape, and across ten preferential-attachment shapes of the same size they
ranged from 77 to 104; seeding the shape itself would bury a one-superstep
change in that spread.  The program under test only ever sees
the generated text, loaded through its public parser.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

STRUCTURE_SEED = 3
PARTITIONER = "hash"


def pa_arcs(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Preferential-attachment digraph, drawn with random.Random(seed).

    Vertices 0..d-1 seed the pool.  Each later vertex v draws d distinct
    endpoints from a pool holding every vertex once per incident arc (the
    seeds once each), so endpoints are chosen with probability proportional
    to degree.  A fair coin picks the direction of each arc.
    """
    rng = random.Random(seed)
    pool = list(range(d))
    arcs = []
    for v in range(d, n):
        ends: set[int] = set()
        while len(ends) < d:
            ends.add(rng.choice(pool))
        for u in sorted(ends):
            arcs.append((v, u) if rng.random() < 0.5 else (u, v))
            pool.append(u)
        pool.extend([v] * d)
    return arcs


def band_arcs(n: int, forward: int, backward: int) -> list[tuple[int, int]]:
    """Banded digraph: i has arcs to i+1..i+forward and i-1..i-backward."""
    return [
        (i, j)
        for i in range(n)
        for j in range(max(0, i - backward), min(n, i + forward + 1))
        if j != i
    ]


def relabelled_text(n: int, arcs: list[tuple[int, int]], rng: random.Random) -> str:
    """Edge-list text with vertices relabelled by a random permutation, lines shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    lines = [f"{label[u]} {label[v]}" for u, v in arcs]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: Callable[..., list[tuple[int, int]]]
    params: dict
    mode: str = "vertex"
    blocks: int = 1
    # Expected (n, arcs, kmax, digest) of the graph made with REFERENCE_SEED;
    # every run regenerates it, so a silent change to the generator fails.
    reference: tuple = ()

    def edge_list(self, seed: int) -> str:
        arcs = self.generator(**self.params)
        return relabelled_text(self.params["n"], arcs, random.Random(seed))

    def describe(self) -> dict:
        return {
            "generator": self.generator.__name__,
            "params": self.params,
            "mode": self.mode,
            "blocks": self.blocks,
            "partitioner": PARTITIONER,
        }


REFERENCE_SEED = 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "skewed",
            "kernel-bound: d_index_over_sets takes most of skyline time and "
            "about a tenth of updates emit, so incremental support counting shows",
            pa_arcs,
            {"n": 1000, "d": 16, "seed": STRUCTURE_SEED},
            reference=(1000, 15744, 8, "f22f4cbb8c5c7a8d"),
        ),
        Workload(
            "ripple",
            "deep ripples: phases I and II take ~1200 supersteps in which "
            "almost no vertex emits, so an active-set scheduler shows while "
            "the kernels are mostly bypassed",
            band_arcs,
            {"n": 1200, "forward": 4, "backward": 2},
            reference=(1200, 7187, 2, "86413676ee66e340"),
        ),
        Workload(
            "blocks",
            "block mode, 8 hash blocks: block-local fixpoints plus cross-block "
            "traffic, so a change that helps vertex mode but costs block mode shows",
            pa_arcs,
            {"n": 4000, "d": 8, "seed": STRUCTURE_SEED},
            mode="block",
            blocks=8,
            reference=(4000, 31936, 4, "214156203fac8a71"),
        ),
    )
}
