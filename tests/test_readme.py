"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from dcore import skyline_decompose
from dcore.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> str:
    """The first fenced block of the given language under a '## ' heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", body, re.S)
    assert match, (section, lang)
    return match.group(1)


def test_library_example_runs_and_its_comments_hold():
    ns = {}
    exec(_block("Library", "python"), ns)
    assert ns["table2"].rows == ns["table"].rows
    assert ns["sky"] == skyline_decompose(ns["g"])[0]


def test_cli_example_lines_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("CLI", "").splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "dcore", line
        assert main(argv[1:]) == 0, line
