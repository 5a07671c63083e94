"""Mutant catalogue: each entry breaks the package in one small way.

    python tests/mutants.py

Each entry of MUTANTS is a file, a text that must occur in it exactly
once, the text that replaces it, what the replacement breaks and the test
files that must catch it.  An entry is applied to a fresh temporary copy
of the checkout, and `python -m pytest -x -q -p no:cacheprovider <files>`
runs there; the mutant is killed when a test fails.  The copy's own src/
must be what `import dcore` finds, so an installed package cannot stand
in for it.  First the unmutated copy must pass all the named files, so a
kill is the mutant's doing.  Exit status 0 when every mutant is killed, 1
when one survives, when a text does not occur exactly once, or when a run
does not end in passed or failed tests.  Only the standard library is
used, and pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# version control, caches, datasets and benchmark output stay behind
IGNORE = shutil.ignore_patterns(".*", "__pycache__", "*.egg-info", "data", "out")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    text: str  # occurs exactly once in path
    replacement: str
    breaks: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "src/dcore/anchored.py",
        "if new <= top:",
        "if new < top:",
        "phase I ignores a delta that lands on the receiver's value",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "k * stride + b",
        "(k + 1) * stride + b",
        "phase II's exclusion starts one slot late",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "for k, a in enumerate(arr):",
        "for k, a in enumerate(arr[:-1]):",
        "phase II never lowers a vertex's last slot",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "                hist[base + h] = c\n",
        "",
        "phase II's walk leaves the new top bucket without the buckets it passed",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "h, c = a, hist[base + a]\n                while c < h:",
        "h, c = a, hist[base + a]\n                while c <= h and h:",
        "phase II's walk goes one bucket below the H-index",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "leaves = a >= t",
        "leaves = a > t",
        "RowProgram neither clips an old height at the row's bound nor checks the row",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "                if leaves:\n                    a = t\n",
        "",
        "RowProgram moves an old height above the row's bound out of a bucket it never filled",
        ("tests/test_skyline.py",),
    ),
    # The next five change only whom a fold wakes.  The three that wake too
    # few leave values too high; the two that wake too many change no
    # result or count, so only the test that every woken vertex emits
    # catches them.
    Mutant(
        "src/dcore/anchored.py",
        "hist[top] + hist[top + 1] < top:",
        "hist[top] + hist[top + 1] < top - 1:",
        "phase I wakes a vertex only when its support is below value - 1",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "st.hin[pos + t] < k or st.hout[pos + t] < t",
        "st.hin[pos + t] < k",
        "after init, RowProgram wakes a vertex only for a row short of in-neighbors",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "if new < top <= old and hist[top] + hist[top + 1] < top:",
        "if new < top <= old:",
        "phase I wakes every vertex whose top bucket loses a count, short or not",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "if hist[(width - 1) * stride + a] < a:",
        "if b == a:",
        "phase II wakes on every exclusion that takes a count from the top, short or not",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "(width - 1) * stride + a",
        "k * stride + a",
        "phase II checks the first slot an exclusion reaches, not the last and shortest",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "for k, t in enumerate(arr):\n            l = t\n",
        "for k, t in enumerate(arr[:-1]):\n            l = t\n",
        "RowProgram never lowers a vertex's last row",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "while l and (ci < k or co < l):",
        "while l and co < l:",
        "RowProgram lowers a row only while it is short of out-neighbors",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "for j in range(k + 1, last + 1):",
        "for j in range(k + 2, last + 1):",
        "the D-index exclusion starts one row late",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "if tables[-1] is st.hout:",
        "if tables[0] is st.hout:",
        "the D-index exclusion is not applied when the sender is also an in-neighbor",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "b if x else o",
        "o",
        "an excluding vertex sends its D-index init only to its out-neighbors",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "            hin[i] += hin[i + width]\n",
        "            hin[i] += hin[i + width]\n            self.hout[i] += self.hout[i + width]\n",
        "RowProgram's seed sums the inherited out-table's rows as if they were init counts",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "if not g.in_adj[v]:",
        "if False:",
        "a vertex with no in-neighbor, which no init may reach, never checks its row",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "st.hist = [0] * (st.value + 1) + [st.value]",
        "st.hist = [0] * st.value + [st.value, 0]",
        "phase I's init counts every neighbor at the vertex's value, not strictly above it",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "        del st.hist[st.value + 2 :]\n",
        "        st.hist[st.value + 1] += sum(st.hist[st.value + 2 :])\n"
        "        del st.hist[st.value + 2 :]\n",
        "phase I's extract folds the stale buckets past value + 1 into the state's own top",
        ("tests/test_anchored.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "hin[prev + b] -= 1",
        "hin[prev + new] -= 1",
        "the init fold takes a run back out at its unclipped height, past its row's last bucket",
        ("tests/test_skyline.py",),
    ),
    Mutant(
        "src/dcore/anchored.py",
        "            old = merged[k][1]\n",
        "            old = merged[k][2]\n",
        "a composed triple keeps then's old height, not first's",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "src/dcore/engine.py",
        "compose(held[v], payload)",
        "compose(payload, held[v])",
        "a sender's held payloads are composed in the reverse of their emission order",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "src/dcore/engine.py",
        "on_broadcast(states, rs, s, payload, wake)",
        "on_broadcast(states, rs[:-1], s, payload, wake)",
        "every payload misses its last recipient",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "src/dcore/engine.py",
        "inbox.append((v, payload, local_to[v]))",
        "held.append((v, payload, local_to[v]))",
        "block mode holds same-block mail for the next superstep",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "src/dcore/peel.py",
        "buckets[0 if indeg[v] < k else d + 1]",
        "buckets[d + 1]",
        "the peel no longer removes the vertices outside the (k, 0)-core",
        ("tests/test_peel.py",),
    ),
    Mutant(
        "src/dcore/graph.py",
        'body.startswith("n=") and declared_n is None',
        'body.startswith("n=")',
        "a later # n= header overrides the first",
        ("tests/test_graph.py",),
    ),
)


def _copy() -> tuple[tempfile.TemporaryDirectory, Path]:
    tmp = tempfile.TemporaryDirectory(prefix="dcore-mutant-")
    root = Path(tmp.name) / "checkout"
    shutil.copytree(ROOT, root, ignore=IGNORE)
    return tmp, root


def _pytest(root: Path, tests) -> int:
    """Run the tests in root against root's src/; return pytest's exit status."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    found = subprocess.run(
        [sys.executable, "-c", "import dcore; print(dcore.__file__)"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"import dcore finds {found}, not the copy under {root}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=TIMEOUT_S,
    ).returncode


def main() -> int:
    faults = 0
    for i, m in enumerate(MUTANTS, 1):
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.text)
        if count != 1:
            print(f"#{i} {m.path}: its text occurs {count} times, not once")
            faults += 1
    if faults:
        return 1
    tmp, root = _copy()
    with tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        status = _pytest(root, tests)
        if status != 0:
            print(f"unmutated copy: pytest exits {status} on {' '.join(tests)}")
            return 1
    for i, m in enumerate(MUTANTS, 1):
        tmp, root = _copy()
        with tmp:
            path = root / m.path
            path.write_text(
                path.read_text(encoding="utf-8").replace(m.text, m.replacement),
                encoding="utf-8",
            )
            start = time.perf_counter()
            status = _pytest(root, m.tests)
            took = time.perf_counter() - start
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
        faults += status != 1
        print(f"#{i} {verdict:<9} {took:5.1f}s  {m.path}: {m.breaks}")
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
