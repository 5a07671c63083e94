"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
for every criterion.  Criteria 5 and 6 need the SNAP Wiki-vote and
Email-EuAll edge lists; they read a local copy under data/ (or
$DCORE_DATA) and otherwise skip with an explicit message.  The suite never
downloads anything.
"""

import random

from dcore.anchored import (
    HIndexFixpoint,
    LuppProgram,
    RowProgram,
    anchored_decompose,
    compute_kmax,
    compute_kmax_lmax,
)
from dcore.engine import default_superstep_cap, run_program
from dcore.graph import generate_random_digraph, make_partition, parse_edge_list
from dcore.kernels import d_index, h_index
from dcore.peel import (
    anchored_to_skyline,
    dcore,
    in_core_numbers,
    out_core_numbers,
    peel_decompose,
    skyline_of,
)
from dcore.skyline import skyline_decompose, tight_init

from _naive import naive_skyline, set_dominated_by
from conftest import (
    REF8_KMAX,
    REF8_LMAX,
    REF8_LUPP,
    REF8_SKYLINE,
    boxes,
    require_dataset,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"\n[criterion {num}] {status} {name}{tail}")
    assert ok, f"criterion {num} failed: {name} {tail}"


def test_criterion_1_kernel_exactness():
    ok = (
        h_index([1, 2, 3, 3, 4, 6]) == 3
        and d_index([(1, 1), (2, 2)], [(3, 3), (4, 4)]) == [(1, 2)]
        and d_index([(3, 3), (4, 4)], [(1, 1), (2, 2)]) == [(2, 1)]
    )
    _report(1, "kernel exactness (H-index and D-index worked values)", ok)


def test_criterion_2_fixture_reproduction(ref8):
    kmaxes, _ = compute_kmax(ref8)
    ok_k = kmaxes == REF8_KMAX
    from dcore.anchored import compute_lupp, refine

    lupps, _ = compute_lupp(ref8, compute_kmax_lmax(ref8)[0])
    ok_l = lupps == REF8_LUPP and lupps[7] == [1, 1, 0]
    table, _ = refine(ref8, lupps)
    ok_r = table.rows == REF8_LMAX and table.rows[6] == [2, 1]
    skys, _ = skyline_decompose(ref8)
    ok_s = skys == REF8_SKYLINE and skys[6] == [(0, 2), (1, 1)]
    _report(
        2,
        "fixture reproduction (phase I/II/III and skyline tables)",
        ok_k and ok_l and ok_r and ok_s,
        f"kmax={ok_k} lupp={ok_l} lmax={ok_r} skyline={ok_s}",
    )


def _sweep_cases(count: int = 200):
    rng = random.Random(20260809)
    cases = [(5, 0.5), (5, 0.02), (30, 0.5), (60, 0.3), (200, 0.02), (200, 0.05)]
    while len(cases) < count:
        n = rng.randint(5, 200)
        if n <= 30:
            p = rng.uniform(0.05, 0.5)
        elif n <= 80:
            p = rng.uniform(0.02, 0.25)
        else:
            p = rng.uniform(0.02, 0.08)
        cases.append((n, round(p, 3)))
    return cases


def test_criterion_3_oracle_equivalence_sweep():
    cases = _sweep_cases()
    block_cycle = [1, 2, 4, 8]
    part_cycle = ["hash", "seg"]
    checked = 0
    covered = set()
    for i, (n, p) in enumerate(cases):
        g = generate_random_digraph(n, p, seed=1000 + i)
        oracle = peel_decompose(g)
        oracle_sky = anchored_to_skyline(oracle)
        blocks = block_cycle[i % 4]
        part = part_cycle[(i // 4) % 2]
        covered.add((blocks, part))
        parts = make_partition(part, g, blocks)
        for mode in ("vertex", "block"):
            table, _ = anchored_decompose(g, parts, mode)
            assert table.rows == oracle.rows, (n, p, mode, blocks, part)
            skys, _ = skyline_decompose(g, parts, mode)
            assert skys == oracle_sky, (n, p, mode, blocks, part)
            checked += 2
    assert covered == {(b, q) for b in block_cycle for q in part_cycle}
    _report(
        3,
        "oracle equivalence on 200 random digraphs",
        True,
        f"{checked} configuration runs, blocks x partitioner fully covered",
    )


def test_criterion_4_invariant_suites(ref8):
    violations = []

    # partial-nesting over the full (k, l) grid
    for seed in (1, 2, 3):
        g = generate_random_digraph(20 + 20 * (seed - 1), 0.5 / seed, seed=seed)
        kmax_top = max(in_core_numbers(g), default=0)
        lmax_top = max(out_core_numbers(g), default=0)
        grid = {
            (k, l): dcore(g, k, l)
            for k in range(kmax_top + 2)
            for l in range(lmax_top + 2)
        }
        for (k1, l1), c1 in grid.items():
            for (k2, l2), c2 in grid.items():
                if k1 >= k2 and l1 >= l2 and not c1 <= c2:
                    violations.append(f"nesting {(k1, l1)} !<= {(k2, l2)} seed {seed}")

    # anchored monotone descent, every superstep, every tracked scalar
    probe = generate_random_digraph(50, 0.12, seed=4)
    for g in (ref8, probe):
        snaps = []
        prog = HIndexFixpoint("in")
        kmaxes, _ = run_program(
            prog, g, observer=lambda _, s: snaps.append([x.value for x in s[0]])
        )
        bad = any(
            b > a for pre, post in zip(snaps, snaps[1:]) for a, b in zip(pre, post)
        )
        if bad:
            violations.append("phase I ascent")
        from dcore.anchored import compute_lupp

        snaps = []
        lupps, _ = run_program(
            LuppProgram(compute_kmax_lmax(g)[0]),
            g,
            observer=lambda _, s: snaps.append([list(x.arr) for x in s[0]]),
        )
        for pre, post in zip(snaps, snaps[1:]):
            for ra, rb in zip(pre, post):
                if any(b > a for a, b in zip(ra, rb)):
                    violations.append("phase II ascent")
        snaps = []
        run_program(
            RowProgram(lupps),
            g,
            observer=lambda _, s: snaps.append([list(x.arr) for x in s[0]]),
        )
        for pre, post in zip(snaps, snaps[1:]):
            for ra, rb in zip(pre, post):
                if any(b > a for a, b in zip(ra, rb)):
                    violations.append("phase III ascent")

        # skyline: antichain at all times plus dominance descent
        pairs, _ = tight_init(g)
        snaps = []
        heights, _ = run_program(
            RowProgram(boxes(pairs)),
            g,
            observer=lambda _, s: snaps.append([skyline_of(x.arr) for x in s[0]]),
        )
        skys = [skyline_of(h) for h in heights]
        for snap in snaps:
            for d in snap:
                if list(d) != naive_skyline(d) or any(k < 0 or l < 0 for k, l in d):
                    violations.append(f"antichain broken: {d}")
        for pre, post in zip(snaps, snaps[1:]):
            for d_old, d_new in zip(pre, post):
                if not set_dominated_by(d_new, d_old):
                    violations.append("dominance ascent")

        # property (I)-(III) of converged skyline corenesses
        def supporters(adj, kq, lq):
            return sum(1 for u in adj if any(k >= kq and l >= lq for k, l in skys[u]))

        for v in range(g.n):
            for kv, lv in skys[v]:
                if supporters(g.in_adj[v], kv, lv) < kv:
                    violations.append(f"in-support short v={v}")
                if supporters(g.out_adj[v], kv, lv) < lv:
                    violations.append(f"out-support short v={v}")
                if (
                    supporters(g.in_adj[v], kv + 1, lv) >= kv + 1
                    and supporters(g.out_adj[v], kv + 1, lv) >= lv
                ):
                    violations.append(f"k+1 strengthening supportable v={v}")
                if (
                    supporters(g.in_adj[v], kv, lv + 1) >= kv
                    and supporters(g.out_adj[v], kv, lv + 1) >= lv + 1
                ):
                    violations.append(f"l+1 strengthening supportable v={v}")

    _report(
        4,
        "invariant suites (nesting, descent, antichain, skyline support)",
        not violations,
        "zero violations" if not violations else "; ".join(violations[:5]),
    )


def test_criterion_5_desk_scale_dataset_degeneracies():
    wv = parse_edge_list(require_dataset("wiki-vote"))
    wv_kmax = max(in_core_numbers(wv))
    wv_lmax = max(out_core_numbers(wv))
    kmaxes, _ = compute_kmax(wv)
    ee = parse_edge_list(require_dataset("email-euall"))
    ee_kmax = max(in_core_numbers(ee))
    ee_lmax = max(out_core_numbers(ee))
    ok = (
        wv.n == 7115
        and 103_000 <= wv.num_arcs <= 104_000
        and wv_kmax == 19
        and wv_lmax == 15
        and max(kmaxes) == 19
        and ee_kmax == 28
        and ee_lmax == 28
    )
    _report(
        5,
        "desk-scale dataset degeneracies",
        ok,
        f"wiki-vote kmax/lmax={wv_kmax}/{wv_lmax} (n={wv.n}, m={wv.num_arcs}), "
        f"email-euall {ee_kmax}/{ee_lmax}",
    )


def test_criterion_6_convergence_behavior():
    wv = parse_edge_list(require_dataset("wiki-vote"))
    table, ac_metrics = anchored_decompose(wv, None, "vertex")
    skys, sc_metrics = skyline_decompose(wv, None, "vertex")
    assert table.rows == peel_decompose(wv).rows
    assert skys == anchored_to_skyline(peel_decompose(wv))

    reference_rounds = {"phase I": 19, "phase II": 32, "phase III": 33}
    detail = []
    ok = True
    for m in ac_metrics:
        want = reference_rounds[m.phase]
        lo, hi = 0.8 * want, 1.2 * want
        detail.append(f"{m.phase}={m.supersteps} (band {lo:.0f}-{hi:.0f})")
        ok &= lo <= m.supersteps <= hi
    sc_steps = sc_metrics[-1].supersteps
    detail.append(f"skyline={sc_steps} (band 26-40)")
    ok &= 0.8 * 33 <= sc_steps <= 1.2 * 33

    parts = make_partition("hash", wv, 8)
    _, ac_block = anchored_decompose(wv, parts, "block")
    _, sc_block = skyline_decompose(wv, parts, "block")
    for mb, mv in zip(ac_block, ac_metrics):
        ok &= mb.supersteps <= mv.supersteps
    ok &= sc_block[-1].supersteps <= sc_steps

    total = sum(m.supersteps for m in ac_metrics)
    cap = default_superstep_cap(wv)
    ok &= total <= wv.max_degree() < cap
    detail.append(f"AC total={total} vs max-degree bound {wv.max_degree()}")
    _report(6, "convergence rounds near the reference counts", ok, "; ".join(detail))


def test_criterion_7_determinism(ref8):
    probe = generate_random_digraph(80, 0.08, seed=5)
    ok = True
    for g in (ref8, probe):
        parts = make_partition("hash", g, 4)
        for algo in (anchored_decompose, skyline_decompose):
            for mode in ("vertex", "block"):
                runs = [algo(g, parts, mode) for _ in range(3)]
                results = [r[0] for r in runs]
                metrics = [
                    [
                        (m.phase, m.supersteps, m.messages_total, tuple(m.messages_per_step), m.intra_messages)
                        for m in r[1]
                    ]
                    for r in runs
                ]
                ok &= results[0] == results[1] == results[2]
                ok &= metrics[0] == metrics[1] == metrics[2]
    _report(
        7,
        "determinism across repeats",
        ok,
        "results and superstep/message metrics identical",
    )
