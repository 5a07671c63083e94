"""CLI surface: flags, formats, exit codes, file stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcore
from dcore import cli, engine
from dcore.anchored import anchored_decompose, compute_kmax_lmax
from dcore.cli import main
from dcore.graph import make_partition, parse_edge_list, write_edge_list
from dcore.skyline import skyline_table

from conftest import REF8_ARCS


@pytest.fixture
def ref8_file(tmp_path):
    path = tmp_path / "ref8.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in REF8_ARCS), encoding="utf-8")
    return path


def test_decompose_skyline_ref8(ref8_file, tmp_path, capsys):
    out = tmp_path / "sky.txt"
    rc = main([
        "decompose", str(ref8_file), "--algo", "skyline", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[6] == "7: (0,2) (1,1)"
    assert lines[0] == "1: (2,2)"
    report = json.loads((tmp_path / "sky.txt.report").read_text())
    assert report["algorithm"] == "skyline"
    # vertex mode, the default, takes no partition
    assert (report["mode"], report["blocks"], report["partitioner"]) == ("vertex", None, None)
    assert [p["phase"] for p in report["phases"]] == ["init", "d-index"]
    assert report["supersteps_total"] == sum(p["supersteps"] for p in report["phases"])


def _library_runs(ref8_file):
    """Per placement, the engine metrics the library gives on the parsed file."""
    g = parse_edge_list(ref8_file.read_text())
    runs = {}
    for algo, run in [("anchored", anchored_decompose), ("skyline", skyline_table)]:
        for mode, blocks in [("vertex", None), ("block", 3)]:
            parts = make_partition("hash", g, blocks) if blocks else None
            runs[algo, mode, blocks] = run(g, parts, mode)[1]
    return runs


def test_report_phase_records_are_the_library_metrics(ref8_file, tmp_path):
    for (algo, mode, blocks), phases in _library_runs(ref8_file).items():
        out = tmp_path / f"{algo}-{mode}.txt"
        flags = ["--mode", mode] + (["--blocks", str(blocks)] if blocks else [])
        assert main(["decompose", str(ref8_file), "--algo", algo, *flags, "--out", str(out)]) == 0
        report = json.loads(Path(str(out) + ".report").read_text())
        assert report["phases"] == [
            {
                "phase": m.phase,
                "supersteps": m.supersteps,
                "messages": m.messages_total,
                "messages_per_step": m.messages_per_step,
                "intra_messages": m.intra_messages,
            }
            for m in phases
        ], (algo, mode)


def test_bench_count_columns_are_the_library_metrics(ref8_file, capsys):
    rc = main([
        "bench", str(ref8_file), "--algos", "anchored,skyline", "--modes", "vertex,block",
        "--blocks", "3",
    ])
    assert rc == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[1:]]
    want = [
        [
            algo, mode, str(blocks) if blocks else "-", "hash" if blocks else "-",
            "+".join(str(m.supersteps) for m in phases),
            str(sum(m.supersteps for m in phases)),
            str(sum(m.messages_total for m in phases)),
        ]
        for (algo, mode, blocks), phases in _library_runs(ref8_file).items()
    ]
    assert [r[:7] for r in rows] == want


def test_decompose_peel_and_anchored_byte_identical(ref8_file, tmp_path):
    out_a = tmp_path / "anchored.txt"
    out_p = tmp_path / "peel.txt"
    assert main(["decompose", str(ref8_file), "--algo", "anchored", "--out", str(out_a)]) == 0
    assert main(["decompose", str(ref8_file), "--algo", "peel", "--out", str(out_p)]) == 0
    assert out_a.read_bytes() == out_p.read_bytes()
    assert out_a.read_text().splitlines()[6] == "7: (0,2) (1,1)"


def test_result_files_stable_across_modes_blocks_partitioners(ref8_file, tmp_path):
    blobs = set()
    for mode, blocks, part in [
        ("vertex", 1, "hash"),
        ("block", 2, "hash"),
        ("block", 4, "seg"),
        ("vertex", 3, "seg"),
    ]:
        out = tmp_path / f"r-{mode}-{blocks}-{part}.txt"
        rc = main([
            "decompose", str(ref8_file), "--algo", "skyline",
            "--mode", mode, "--blocks", str(blocks), "--partitioner", part,
            "--out", str(out),
        ])
        assert rc == 0
        blobs.add(out.read_bytes())
        # the report records the partition only where the engine used one
        report = json.loads(Path(str(out) + ".report").read_text())
        used = (blocks, part) if mode == "block" else (None, None)
        assert (report["blocks"], report["partitioner"]) == used
    assert len(blobs) == 1


def test_decompose_empty_graph_lines(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("# n=3\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["decompose", str(src), "--algo", "peel", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["0: (0,0)", "1: (0,0)", "2: (0,0)"]


@pytest.mark.parametrize(
    "flag",
    [["--mode", "vertex"], ["--blocks", "2"], ["--partitioner", "seg"]],
    ids=["mode", "blocks", "partitioner"],
)
def test_decompose_rejects_mode_with_peel(flag, ref8_file, tmp_path, capsys):
    out = tmp_path / "x.txt"
    rc = main(["decompose", str(ref8_file), "--algo", "peel", *flag, "--out", str(out)])
    assert rc == 2
    assert "do not apply to --algo peel" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_missing_input(tmp_path, capsys):
    rc = main([
        "decompose", str(tmp_path / "nope.txt"), "--algo", "peel",
        "--out", str(tmp_path / "x.txt"),
    ])
    assert rc == 2


def test_decompose_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1 2\nfoo bar\n", encoding="utf-8")
    rc = main(["decompose", str(src), "--algo", "peel", "--out", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "verify", "bench"])
def test_non_utf8_input_is_a_usage_error(command, tmp_path, capsys):
    # exit 1 would read as a failed verification
    src = tmp_path / "latin1.txt"
    src.write_bytes(b"1 2\n2 \xff3\n")
    argv = [command, str(src)]
    if command != "bench":
        argv += ["--algo", "skyline"]
    if command == "decompose":
        argv += ["--out", str(tmp_path / "x.txt")]
    assert main(argv) == 2
    _one_line_error(capsys, str(src), "UTF-8")


@pytest.mark.parametrize("header", ["", "# ref8\n"])
def test_input_with_a_byte_order_mark_reads_as_without(header, ref8_file, tmp_path, capsys):
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + header.encode() + ref8_file.read_bytes())
    outs = []
    for src in (ref8_file, bom):
        out = tmp_path / f"{src.stem}-out.txt"
        assert main(["decompose", str(src), "--algo", "skyline", "--out", str(out)]) == 0
        outs.append(out.read_text())
        capsys.readouterr()
        assert main(["verify", str(src), "--algo", "anchored"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[:2] == outs[2:]


def test_decompose_unwritable_out_is_a_usage_error(ref8_file, tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        rc = main(["decompose", str(ref8_file), "--algo", "peel", "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, "cannot write", str(out))
    # the result file is writable but its .report sidecar is not
    out = tmp_path / "x.txt"
    (tmp_path / "x.txt.report").mkdir()
    assert main(["decompose", str(ref8_file), "--algo", "peel", "--out", str(out)]) == 2
    _one_line_error(capsys, "cannot write", str(out) + ".report")


def test_cleaned_input_is_reported_on_stderr(tmp_path, capsys):
    src = tmp_path / "dirty.txt"
    src.write_text("1 1\n1 2\n2 2\n1 2\n2 1\n2 1\n", encoding="utf-8")
    out = tmp_path / "x.txt"
    assert main(["decompose", str(src), "--algo", "peel", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == "# cleaned input: dropped 2 self-loops, 2 duplicate arcs\n"
    # one arc each way is left, so no vertex reaches k = 2
    assert out.read_text() == "1: (0,1) (1,1)\n2: (0,1) (1,1)\n"


def test_written_isolated_vertex_reads_back_without_a_note(tmp_path, capsys):
    # Labels [5, 6, 7] with 7 isolated take no `# n=` header, so the writer
    # puts 7 on the line "7 7": not a self-loop the parser dropped.
    src = tmp_path / "iso.txt"
    write_edge_list(parse_edge_list("5 6\n7 7\n"), src)
    assert src.read_text() == "5 6\n7 7\n"
    out = tmp_path / "x.txt"
    assert main(["decompose", str(src), "--algo", "peel", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text() == "5: (0,0)\n6: (0,0)\n7: (0,0)\n"


def test_verify_passes_on_fixture(ref8_file, capsys):
    assert main(["verify", str(ref8_file), "--algo", "skyline"]) == 0
    assert main([
        "verify", str(ref8_file), "--algo", "anchored", "--mode", "block", "--blocks", "3",
    ]) == 0


def test_verify_random_graph_block_mode(tmp_path):
    gen = tmp_path / "rand.txt"
    assert main(["gen", "--n", "120", "--p", "0.05", "--seed", "11", "--out", str(gen)]) == 0
    assert main([
        "verify", str(gen), "--algo", "anchored", "--mode", "block", "--blocks", "4",
    ]) == 0


def test_verify_detects_injected_corruption(ref8_file, capsys, monkeypatch):
    # Lower l_max(8, 0) from 1 to 0.  (0, 1) is dominated by (1, 1), so the
    # row still reads the oracle's skyline; only the full table shows it.
    run, to_pairs = cli.ALGOS["skyline"]

    def corrupted(g, parts, mode):
        table, phases = run(g, parts, mode)
        oracle = to_pairs(table)
        row = table.rows[g.labels.index(8)]
        assert row == [1, 1, 0]
        row[0] = 0
        assert to_pairs(table) == oracle
        return table, phases

    monkeypatch.setitem(cli.ALGOS, "skyline", (corrupted, to_pairs))
    rc = main(["verify", str(ref8_file), "--algo", "skyline"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "divergence at vertex 8" in out
    assert "skyline=[0, 1, 0] oracle=[1, 1, 0]" in out


def test_verify_rejects_peel(ref8_file, capsys):
    assert main(["verify", str(ref8_file), "--algo", "peel"]) == 2


def test_gen_deterministic_and_headers(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen", "--n", "3", "--p", "1.0", "--out", str(a)]) == 0
    assert main(["gen", "--n", "3", "--p", "1.0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 6  # complete digraph, no header needed
    iso = tmp_path / "iso.txt"
    assert main(["gen", "--n", "10", "--p", "0.0", "--out", str(iso)]) == 0
    assert iso.read_text() == "# n=10\n"


def test_gen_rejects_bad_p(tmp_path, capsys):
    assert main(["gen", "--n", "3", "--p", "1.5", "--out", str(tmp_path / "x.txt")]) == 2


def test_gen_rejects_negative_n(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["gen", "--n", "-3", "--p", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "-3" in err[0]
    assert not out.exists()


def test_gen_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "g.txt"
    assert main(["gen", "--n", "4", "--p", "0.5", "--out", str(out)]) == 2
    _one_line_error(capsys, "cannot write", str(out))
    assert not out.parent.exists()


def test_bench_table_and_repeat_determinism(ref8_file, capsys):
    rc = main([
        "bench", str(ref8_file), "--algos", "peel,anchored,skyline",
        "--modes", "vertex,block", "--blocks", "1,2", "--repeat", "3",
        "--partitioner", "seg",
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    header, rows = out[0], out[1:]
    assert header.split()[:4] == ["algo", "mode", "blocks", "part"]
    # peel row + (anchored, skyline) x (one vertex row + block rows for 1, 2)
    assert len(rows) == 1 + 2 * (1 + 2)
    # peel takes no partition, so its mode, blocks and part columns are all "-";
    # neither does vertex mode, so its blocks and part columns are "-"
    assert [r.split()[:4] for r in rows] == [
        ["peel", "-", "-", "-"],
        ["anchored", "vertex", "-", "-"],
        ["anchored", "block", "1", "seg"],
        ["anchored", "block", "2", "seg"],
        ["skyline", "vertex", "-", "-"],
        ["skyline", "block", "1", "seg"],
        ["skyline", "block", "2", "seg"],
    ]


def test_bench_vertex_mode_runs_once_whatever_the_blocks(ref8_file, capsys):
    rc = main([
        "bench", str(ref8_file), "--algos", "skyline", "--modes", "vertex",
        "--blocks", "1,2,4",
    ])
    assert rc == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[1:]]
    assert [r[:4] for r in rows] == [["skyline", "vertex", "-", "-"]]


def test_bench_rejects_unknown_algo(ref8_file, capsys):
    assert main(["bench", str(ref8_file), "--algos", "wat"]) == 2


def test_bench_rejects_empty_algo_list(ref8_file, capsys):
    assert main(["bench", str(ref8_file), "--algos", ","]) == 2
    _one_line_error(capsys, "error: empty algo list")


def _one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize(
    "flag, value, needle",
    [
        ("--algos", "anchored,anchored", "repeated algo 'anchored'"),
        ("--algos", "peel,skyline, peel", "repeated algo 'peel'"),
        ("--modes", "vertex,block,vertex", "repeated mode 'vertex'"),
        ("--blocks", "2,4,02", "repeated --blocks value 2"),
    ],
)
def test_bench_rejects_a_repeated_entry(ref8_file, capsys, flag, value, needle):
    # A repeated entry would print the same configuration's row twice.
    assert main(["bench", str(ref8_file), "--modes", "vertex,block", flag, value]) == 2
    _one_line_error(capsys, needle)


def test_bench_rejects_zero_repeat(ref8_file, capsys):
    assert main(["bench", str(ref8_file), "--repeat", "0"]) == 2
    _one_line_error(capsys, "--repeat")


def test_bench_rejects_non_integer_blocks(ref8_file, capsys):
    assert main(["bench", str(ref8_file), "--blocks", "abc"]) == 2
    _one_line_error(capsys, "--blocks", "'abc'")


def test_superstep_limit_is_reported_not_raised(
    ref8, ref8_file, tmp_path, capsys, monkeypatch
):
    reached = sum(compute_kmax_lmax(ref8)[1].messages_per_step[:2])
    assert reached == 48  # phase I runs the kmax and lmax fixpoints together
    monkeypatch.setattr(engine, "default_superstep_cap", lambda g: 2)
    rc = main([
        "decompose", str(ref8_file), "--algo", "anchored", "--out", str(tmp_path / "x.txt"),
    ])
    assert rc == 2
    _one_line_error(
        capsys,
        "no quiescence within 2 supersteps (in phase I)",
        f"after 2 supersteps and {reached} messages",
    )


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("decompose", "--blocks", "0", id="decompose-blocks-0"),
        pytest.param("decompose", "--blocks", "abc", id="decompose-blocks-abc"),
        pytest.param("verify", "--blocks", "0", id="verify-blocks-0"),
        pytest.param("bench", "--blocks", "0", id="bench-blocks-0"),
        pytest.param("bench", "--repeat", "abc", id="bench-repeat-abc"),
    ],
)
def test_bad_blocks_and_repeat_values_rejected(command, flag, value, ref8_file, tmp_path, capsys):
    argv = [command, str(ref8_file), flag, value]
    if command != "bench":
        argv += ["--algo", "anchored"]
    if command == "decompose":
        argv += ["--out", str(tmp_path / "x.txt")]
    assert main(argv) == 2
    _one_line_error(capsys, flag, value)


def test_console_script_runs(tmp_path):
    out = tmp_path / "g.txt"
    # the child imports dcore from where this process did, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(dcore.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dcore.cli", "gen", "--n", "4", "--p", "0.5", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--algo", "bogus"])
    assert exc.value.code == 2
