"""Command-line front end: decompose, verify, bench, gen.

Result files are line oriented (`label: (k0,l0) (k1,l1) ...`, sorted by
label) and depend only on the input and the algorithm family, never on the
execution mode, block count or partitioner.  Exit status 0 means success,
1 a failed verification, 2 a usage, I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from .anchored import anchored_decompose
from .engine import MODES, SuperstepLimitError
from .graph import (
    PARTITIONERS,
    DirectedGraph,
    EdgeListError,
    generate_random_digraph,
    make_partition,
    parse_edge_list_report,
    write_edge_list,
)
from .peel import anchored_to_skyline, peel_decompose
from .skyline import skyline_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage-level failure reported on stderr with exit status 2."""


def _load_graph(path: str) -> DirectedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            g, report = parse_edge_list_report(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    if report.self_loops_dropped or report.duplicates_dropped:
        print(
            f"# cleaned input: dropped {report.self_loops_dropped} self-loops, "
            f"{report.duplicates_dropped} duplicate arcs",
            file=sys.stderr,
        )
    return g


def _format_line(label: int, pairs) -> str:
    return f"{label}: " + " ".join(f"({k},{l})" for k, l in pairs)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_results(path: str, g: DirectedGraph, per_vertex_pairs) -> None:
    order = sorted(range(g.n), key=lambda v: g.labels[v])
    _write_text(
        path, "".join(_format_line(g.labels[v], per_vertex_pairs[v]) + "\n" for v in order)
    )


def _table_pairs(table) -> list:
    """Per-vertex anchored pair lists read off an AnchoredTable."""
    return [list(enumerate(row)) for row in table.rows]


def _run_peel(g, parts, mode):
    return peel_decompose(g), []


# name -> (run(g, parts, mode) -> (AnchoredTable, phase metrics),
#          the per-vertex pairs its result file lists, read off that table)
ALGOS = {
    "peel": (_run_peel, _table_pairs),
    "anchored": (anchored_decompose, _table_pairs),
    "skyline": (skyline_table, anchored_to_skyline),
}


def _placements(algo, modes, blocks, partitioner) -> list:
    """The (mode, blocks, partitioner) of every run of algo.

    peel takes no placement, so it runs once with all three None; vertex
    mode takes no partition, so it runs once whatever the block counts;
    block mode runs once per block count.
    """
    if algo == "peel":
        return [(None, None, None)]
    runs = []
    for mode in modes:
        if mode == "block":
            runs += [(mode, b, partitioner) for b in blocks]
        else:
            runs.append((mode, None, None))
    return runs


def _run_algo(g, algo, mode, blocks, partitioner):
    """The AnchoredTable, per-phase engine metrics and wall time of one run."""
    start = time.perf_counter()
    parts = make_partition(partitioner, g, blocks) if blocks else None
    table, phases = ALGOS[algo][0](g, parts, mode)
    return table, phases, time.perf_counter() - start


def _placement(args) -> tuple[str | None, int | None, str | None]:
    """The one run of decompose or verify; --blocks is checked even where unused."""
    if args.algo == "peel" and (args.mode or args.blocks or args.partitioner):
        raise CliError(f"--mode/--blocks/--partitioner do not apply to --algo {args.algo}")
    blocks = 1 if args.blocks is None else _positive_int(args.blocks, "--blocks")
    (run,) = _placements(args.algo, [args.mode or "vertex"], [blocks], args.partitioner or "hash")
    return run


def cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    mode, blocks, partitioner = _placement(args)
    table, phases, wall = _run_algo(g, args.algo, mode, blocks, partitioner)
    _write_results(args.out, g, ALGOS[args.algo][1](table))
    report = {
        "algorithm": args.algo,
        "mode": mode,
        "blocks": blocks,
        "partitioner": partitioner,
        "wall_time_s": wall,
        "output": args.out,
        "phases": [
            {**asdict(m), "supersteps": m.supersteps, "messages": m.messages_total}
            for m in phases
        ],
        "supersteps_total": sum(m.supersteps for m in phases),
        "messages_total": sum(m.messages_total for m in phases),
    }
    report_path = args.out + ".report"
    _write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} and {report_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.algo == "peel":
        raise CliError("verify compares a distributed algorithm against peel")
    g = _load_graph(args.input)
    mode, blocks, partitioner = _placement(args)
    got, _, _ = _run_algo(g, args.algo, mode, blocks, partitioner)
    want = peel_decompose(g)
    for v in range(g.n):
        if got.rows[v] != want.rows[v]:
            print(
                f"divergence at vertex {g.labels[v]}: l_max rows "
                f"{args.algo}={got.rows[v]} oracle={want.rows[v]}"
            )
            return EXIT_VERIFY_FAILED
    print(f"{args.algo}/{mode} matches the peeling oracle on {g.n} vertices")
    return EXIT_OK


def cmd_bench(args) -> int:
    g = _load_graph(args.input)
    algos = _parse_list(args.algos, ALGOS, "algo")
    modes = _parse_list(args.modes, MODES, "mode")
    blocks_list = _no_repeats(
        [_positive_int(b, "--blocks") for b in args.blocks.split(",")], "--blocks value"
    )
    repeat = _positive_int(args.repeat, "--repeat")
    rows = []
    for algo in algos:
        for mode, blocks, partitioner in _placements(algo, modes, blocks_list, args.partitioner):
            # (phases, wall) of every repeat
            runs = [_run_algo(g, algo, mode, blocks, partitioner)[1:] for _ in range(repeat)]
            phases = runs[0][0]
            if any(other != phases for other, _ in runs[1:]):
                raise CliError("nondeterministic metrics across repeats")
            rows.append(
                (
                    algo,
                    mode or "-",
                    str(blocks) if blocks else "-",
                    partitioner or "-",
                    "+".join(str(m.supersteps) for m in phases) or "-",
                    str(sum(m.supersteps for m in phases)) if phases else "-",
                    str(sum(m.messages_total for m in phases)) if phases else "-",
                    f"{min(wall for _, wall in runs):.3f}",
                )
            )
    header = ("algo", "mode", "blocks", "part", "steps/phase", "steps", "messages", "wall_s")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        g = generate_random_digraph(args.n, args.p, args.seed)
    except ValueError as exc:
        raise CliError(f"bad gen parameters: {exc}") from None
    try:
        write_edge_list(g, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}: n={g.n} arcs={g.num_arcs}")
    return EXIT_OK


def _parse_list(raw: str, allowed, kind: str) -> list[str]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    for item in items:
        if item not in allowed:
            raise CliError(f"unknown {kind} {item!r}")
    if not items:
        raise CliError(f"empty {kind} list")
    return _no_repeats(items, kind)


def _no_repeats(items: list, kind: str) -> list:
    """items unchanged; a repeated entry would print a duplicate bench row."""
    seen = set()
    for item in items:
        if item in seen:
            raise CliError(f"repeated {kind} {item!r}")
        seen.add(item)
    return items


def _positive_int(raw, flag: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"{flag} takes integers >= 1, got {raw!r}") from None
    if value < 1:
        raise CliError(f"{flag} takes integers >= 1, got {value}")
    return value


def _add_distributed_flags(p: argparse.ArgumentParser, with_out: bool) -> None:
    p.add_argument("input", help="edge-list file")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--blocks", default=None)
    p.add_argument("--partitioner", choices=PARTITIONERS, default=None)
    if with_out:
        p.add_argument("--out", required=True, help="result file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcore",
        description="D-core ((k,l)-core) decomposition of directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run one algorithm and write results")
    _add_distributed_flags(p, with_out=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a distributed run against the peel oracle")
    _add_distributed_flags(p, with_out=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="superstep/message/time table for configurations")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--algos", default="anchored,skyline")
    p.add_argument("--modes", default="vertex")
    p.add_argument("--blocks", default="1")
    p.add_argument("--partitioner", choices=PARTITIONERS, default="hash")
    p.add_argument("--repeat", default="1")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write a seeded random digraph as an edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SuperstepLimitError as exc:
        m = exc.metrics
        print(
            f"error: {exc}; stopped after {m.supersteps} supersteps "
            f"and {m.messages_total} messages",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except EdgeListError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
