#!/usr/bin/env python3
"""Offline D-core benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload skewed --seed 3 --seconds 30 --trace 0

The workload graph is generated from --seed as edge-list text and loaded
through the public parser.  Each repetition then runs peel_decompose,
anchored_decompose and skyline_decompose back to back (one process, one
thread, workers=1) and checks every result against the peel oracle.  A
decomposition that raises or differs from the oracle counts as failed and
makes the result incorrect (exit code 1), but the run goes on.

--trace 0 measures for --seconds and prints the end-to-end metrics.  Each
timed section (set-up and each decomposition) sits between two runs of a
fixed calibration loop that shares no code with dcore, and is reported
host-normalised: wall seconds x CAL_REF_S / mean(calibration before,
after), i.e. seconds on a host where that loop takes CAL_REF_S.  A change
to dcore moves the normalised time as much as the wall time; only the
host's speed cancels.  The gated figure is the trimmed mean over the
run's repetitions: the mean after dropping the lowest and highest fifth.
The median, p10, p90 and the median raw wall time are printed beside it.
On the 2-vCPU host this was tuned on, throughput drifted by up to 2x over
tens of seconds.  Over seven sets of ten 35-40 s runs (all three
workloads), the quartile distance across a set of a decomposition's
normalised trimmed mean was at most 8.5% of its median (4.7% on average),
against 11.9% (5.7%) for the normalised median, 14.2% (8.2%) for the
normalised p10 and 38% (19%) for the raw wall median.

--trace 1 splits --seconds between untraced repetitions, repetitions with
coarse spans (per-layer times) and repetitions with counting wrappers
(exact per-layer counts), and prints the per-layer metrics.  Per-layer
times are raw wall seconds from the span repetitions.

The last line of standard output is always the JSON result; a stamped copy
with every distribution, and the spans of a traced run, goes to
benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import PARTITIONER, REFERENCE_SEED, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
ALGOS = ("peel", "anchored", "skyline")
# Host-speed calibration: CAL_LISTS lists make one calibration run, and timed
# sections are reported as seconds on a host where that run takes CAL_REF_S.
CAL_LISTS = 6000
CAL_REF_S = 0.02


def load_dcore():
    """Import the package from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import dcore
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import dcore from {SRC}: {exc}") from None
    if not Path(dcore.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: dcore imported from {dcore.__file__}, not {SRC}")
    return dcore


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (inclusive), defined for one sample too."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trimmed_mean(values: list[float], share: float = 0.2) -> float:
    """Mean of the values left after dropping `share` of them at each end."""
    xs = sorted(values)
    cut = int(len(xs) * share)
    return statistics.mean(xs[cut : len(xs) - cut])


def graph_record(dcore, text: str) -> dict:
    """What identifies a workload graph: size, top in-coreness and text digest."""
    g, _ = dcore.parse_edge_list_report(text)
    kmax = max(dcore.in_core_numbers(g), default=0)
    return {"n": g.n, "arcs": g.num_arcs, "kmax": kmax, "digest": digest(text)}


def calibration_lists() -> list[list[int]]:
    rng = random.Random(0)
    return [[rng.randrange(20) for _ in range(rng.randrange(4, 40))] for _ in range(CAL_LISTS)]


def calibration_work(lists: list[list[int]]) -> int:
    """Fixed pure-Python work that shares no code with dcore: sorts, H-indexes, dict stores."""
    seen = {}
    for i, xs in enumerate(lists):
        vs = sorted(xs, reverse=True)
        h = 0
        for j, x in enumerate(vs):
            if x <= j:
                break
            h = j + 1
        seen[i % 997] = (h, tuple(vs[:3]))
    return len(seen)


class Bench:
    """Repeats set-up and the three decompositions of one workload graph."""

    def __init__(self, dcore, workload, text: str):
        self.dcore = dcore
        self.workload = workload
        self.text = text
        self.cal_lists = calibration_lists()
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        # What makes the run's result incorrect.  A failed decomposition is
        # recorded here and the run still completes.
        self.wrong: list[str] = []
        self.signatures: dict[str, object] = {}

    def calibrate(self) -> float:
        start = perf_counter()
        calibration_work(self.cal_lists)
        return perf_counter() - start

    def measure(self, fn):
        """Run fn; return (result, SuperstepLimitError or None, wall s, normalised s).

        The normalised time scales the wall time by CAL_REF_S over the mean
        of the calibration runs just before and just after fn.
        """
        start = perf_counter()
        error = None
        try:
            result = fn()
        except self.dcore.SuperstepLimitError as exc:
            result, error = None, exc
        wall = perf_counter() - start
        after = self.calibrate()
        normalised = wall * CAL_REF_S * 2 / (self.cal_s + after)
        self.cal_s = after
        return result, error, wall, normalised

    def setup(self, tracer: Tracer | None = None) -> None:
        """Parse the workload text and partition the graph, timing both.

        Runs once before the oracle and again before every repetition, so the
        set-up samples spread over the whole run like the others.
        """
        def load():
            with _span(tracer, "graph.parse"):
                g, _ = self.dcore.parse_edge_list_report(self.text)
            with _span(tracer, "graph.partition"):
                parts = self.dcore.make_partition(PARTITIONER, g, self.workload.blocks)
            return g, parts

        (self.g, self.parts), _, wall, normalised = self.measure(load)
        self.setup_wall_s.append(wall)
        self.setup_s.append(normalised)

    def prepare(self, tracer: Tracer | None = None) -> None:
        """First set-up, then the peel oracle every result is checked against."""
        self.cal_s = self.calibrate()
        self.setup(tracer)
        oracle = self.dcore.peel_decompose(self.g)
        self.want = {
            "peel": oracle.rows,
            "anchored": oracle.rows,
            "skyline": self.dcore.anchored_to_skyline(oracle),
        }
        self.cal_s = self.calibrate()

    def repeat(self, seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Run repetitions until `seconds` have passed (at least one)."""
        reps = []
        deadline = perf_counter() + seconds
        while not reps or perf_counter() < deadline:
            reps.append(self.once(tracer))
        return reps

    def once(self, tracer: Tracer | None) -> dict:
        kwargs = {"workers": 1}
        if tracer is not None:
            kwargs["observer"] = tracer.observer
            tracer.counts.clear()
            tracer.kernel_s.clear()
            since = len(tracer.spans)
        self.setup(tracer)
        dcore, wl, g, parts = self.dcore, self.workload, self.g, self.parts

        def peel():
            return dcore.peel_decompose(g).rows, []

        def anchored():
            table, metrics = dcore.anchored_decompose(g, parts, wl.mode, **kwargs)
            return table.rows, metrics

        def skyline():
            return dcore.skyline_decompose(g, parts, wl.mode, **kwargs)

        rep = {"seconds": {}, "wall": {}, "engine": {}}
        with _span(tracer, "rep"):
            for algo, call in zip(ALGOS, (peel, anchored, skyline)):
                if tracer is not None:
                    tracer.algo = algo
                self.attempted += 1

                def spanned(call=call, name=algo + ".decompose"):
                    with _span(tracer, name):
                        return call()

                result, error, wall, normalised = self.measure(spanned)
                rep["wall"][algo] = wall
                rep["seconds"][algo] = normalised
                if error is not None:
                    self.failed += 1
                    self.wrong.append(f"{algo} raised: {error}")
                    continue
                got, metrics = result
                if got != self.want[algo]:
                    self.failed += 1
                    self.wrong.append(f"{algo} differs from the peel oracle")
                rep["engine"][algo] = [
                    (m.phase, m.supersteps, m.messages_total,
                     tuple(m.messages_per_step), m.intra_messages)
                    for m in metrics
                ]
        self._guard("engine metrics", rep["engine"])
        if tracer is not None:
            rep["layers"] = tracer.totals(since)
            rep["counts"] = dict(tracer.counts)
            rep["kernel_s"] = dict(tracer.kernel_s)
            if tracer.counting:
                self._guard("traced counts", rep["counts"])
        return rep

    def _guard(self, what: str, signature) -> None:
        """Determinism guard: every repetition, traced or not, must repeat the first."""
        first = self.signatures.setdefault(what, signature)
        if signature != first:
            self.wrong.append(f"{what} differ between repetitions")


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def end_to_end(bench: Bench, reps: list[dict]) -> tuple[dict, dict, dict]:
    """Gated metrics, the ungated figures printed beside them, and raw samples."""
    samples = {"setup_s": bench.setup_s} | {
        algo + "_s": [r["seconds"][algo] for r in reps] for algo in ALGOS
    }
    walls = {"setup_s": bench.setup_wall_s} | {
        algo + "_s": [r["wall"][algo] for r in reps] for algo in ALGOS
    }
    metrics = {name: (trimmed_mean(xs), "s") for name, xs in samples.items()}
    for algo in ("anchored", "skyline"):
        phases = reps[0]["engine"].get(algo, [])
        metrics[algo + "_supersteps"] = (sum(p[1] for p in phases), "count")
        metrics[algo + "_messages"] = (sum(p[2] for p in phases), "count")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    peel = metrics["peel_s"][0]
    extra = {
        "error_rate": (bench.failed / bench.attempted, "fraction"),
        "anchored_x_peel": (metrics["anchored_s"][0] / peel, "ratio"),
        "skyline_x_peel": (metrics["skyline_s"][0] / peel, "ratio"),
    }
    for name, xs in samples.items():
        extra[name + ".median"] = (statistics.median(xs), "s")
        extra[name + ".p10"] = (quantile(xs, 0.1), "s")
        extra[name + ".p90"] = (quantile(xs, 0.9), "s")
        extra[name + ".wall"] = (statistics.median(walls[name]), "s")
        extra[name + ".samples"] = (len(xs), "count")
    return metrics, extra, {"normalised": samples, "wall": walls}


def per_layer(bench: Bench, untraced: list[dict], spanned: Tracer, spanned_reps: list[dict],
              counted_reps: list[dict]) -> dict:
    def layer_s(name: str) -> float:
        return statistics.median(r["layers"].get(name, 0.0) for r in spanned_reps)

    def overhead(reps: list[dict], algo: str) -> float:
        return statistics.median(r["seconds"][algo] for r in reps) / statistics.median(
            r["seconds"][algo] for r in untraced
        )

    engine = untraced[0]["engine"]
    counts = counted_reps[0]["counts"]
    metrics = {
        "graph.parse_s": (layer_s("graph.parse"), "s"),
        "graph.partition_s": (layer_s("graph.partition"), "s"),
        "graph.n": (bench.g.n, "count"),
        "graph.arcs": (bench.g.num_arcs, "count"),
        "peel.in_core_s": (layer_s("peel.in_core"), "s"),
        "peel.columns": (max(map(len, bench.want["peel"]), default=0), "count"),
    }
    for i, phase in enumerate(engine.get("anchored", []), start=1):
        metrics[f"anchored.phase{i}_s"] = (layer_s(f"anchored.phase{i}"), "s")
        metrics[f"anchored.phase{i}_supersteps"] = (phase[1], "count")
        metrics[f"anchored.phase{i}_messages"] = (phase[2], "count")
    metrics["skyline.init_s"] = (layer_s("skyline.init"), "s")
    metrics["skyline.dindex_s"] = (layer_s("engine:d-index"), "s")
    dindex = [p[1] for p in engine.get("skyline", []) if p[0] == "d-index"]
    metrics["skyline.dindex_supersteps"] = (sum(dindex), "count")
    metrics["skyline.pairs"] = (sum(map(len, bench.want["skyline"])), "count")
    for algo in ("anchored", "skyline"):
        p = f"engine.{algo}."
        updates = counts.get(p + "updates", 0)
        emitting = counts.get(p + "emitting", 0)
        steps = spanned.superstep_s.get(algo, [])
        metrics[p + "updates"] = (updates, "count")
        metrics[p + "emitting"] = (emitting, "count")
        metrics[p + "emit_ratio"] = (emitting / updates if updates else 0.0, "ratio")
        metrics[p + "deliveries"] = (counts.get(p + "deliveries", 0), "count")
        metrics[p + "payload_ints"] = (counts.get(p + "payload_ints", 0), "count")
        metrics[p + "intra_messages"] = (sum(ph[4] for ph in engine.get(algo, [])), "count")
        metrics[p + "superstep_s.p50"] = (statistics.median(steps) if steps else 0.0, "s")
        metrics[p + "superstep_s.max"] = (max(steps, default=0.0), "s")
    for name in ("h_index", "d_index_over_sets"):
        k = f"kernels.{name}."
        metrics[k + "calls"] = (counts.get(k + "calls", 0), "count")
        if name == "h_index":
            metrics[k + "values"] = (counts.get(k + "values", 0), "count")
        kernel_s = [r["kernel_s"].get(name, 0.0) for r in counted_reps]
        metrics[k + "s"] = (statistics.median(kernel_s), "s")
    for algo in ALGOS:
        metrics[f"trace.overhead.{algo}"] = (overhead(spanned_reps, algo), "ratio")
        metrics[f"trace.counting_overhead.{algo}"] = (overhead(counted_reps, algo), "ratio")
    return metrics


def traced_run(dcore, bench: Bench, spanned: Tracer, seconds: float) -> tuple[dict, list]:
    """Untraced, span-level and counting repetitions, a third of the time each.

    `spanned` already holds the set-up spans.
    """
    untraced = bench.repeat(seconds / 3)
    counted = Tracer(counting=True)
    reps = []
    for tracer in (spanned, counted):
        tracer.install(dcore.peel, dcore.anchored, dcore.skyline, dcore.engine)
        try:
            reps.append(bench.repeat(seconds / 3, tracer))
        finally:
            tracer.uninstall()
    metrics = per_layer(bench, untraced, spanned, *reps)
    return metrics, span_records("spans", spanned) + span_records("counting", counted)


def span_records(level: str, tracer: Tracer) -> list[dict]:
    return [
        {"level": level, "name": name, "start": start, "end": end, "parent": parent, "self_s": own}
        for (name, start, end, parent), own in zip(tracer.spans, tracer.self_times())
    ]


def stamp(args, workload, record: dict) -> dict:
    """Where and on what a result was measured."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.describe(),
        "graph": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    dcore = load_dcore()
    workload = WORKLOADS[args.workload]
    text = workload.edge_list(args.seed)
    bench = Bench(dcore, workload, text)

    reference = graph_record(dcore, workload.edge_list(REFERENCE_SEED))
    if tuple(reference.values()) != workload.reference:
        bench.wrong.append(
            f"workload generator changed: seed {REFERENCE_SEED} gives {reference}, "
            f"expected {workload.reference}"
        )

    if args.trace:
        tracer = Tracer(counting=False)
        bench.prepare(tracer)
        metrics, spans = traced_run(dcore, bench, tracer, args.seconds)
        extra, samples = {}, {}
    else:
        bench.prepare()
        metrics, extra, samples = end_to_end(bench, bench.repeat(args.seconds))
        spans = []
    record = graph_record(dcore, text)
    info = stamp(args, workload, record)
    correct = not bench.wrong

    print("# " + json.dumps(info, sort_keys=True))
    for problem in dict.fromkeys(bench.wrong):
        print(f"# problem: {problem}")
    for name, (value, unit) in (metrics | extra).items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:40s} {shown:>16} {unit}")

    def as_json(ms: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            info
            | {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "problems": bench.wrong,
                "metrics": as_json(metrics | extra),
                "samples": samples,
                "spans": spans,
            },
            fh,
        )
        fh.write("\n")

    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": as_json(metrics),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
