"""The byte-identity scripts and the memory probe run on the current tree.

scripts/report_digest.py and scripts/grid_memory.py call private solver
functions, so a change of their signatures shows here rather than at the next
comparison of two trees.  The digest's output must equal the committed
tests/report_digest.txt, written with one
BLAS thread under numpy 2.4.6 and scipy 1.17.1 (the versions CI pins): a
change that moves report bytes on purpose rewrites that file, so the move
shows in its diff.
"""

import os
import re
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPTS = os.path.join(HERE, "..", "scripts")

# <sha256>  <kind>  <label>
DIGEST_LINE = re.compile(r"[0-9a-f]{64}  (\S+)  \S.*")


def run_script(name, *args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_report_digest_and_diff_run(tmp_path):
    saved = str(tmp_path / "saved")
    digest = run_script("report_digest.py", "--save", saved, cwd=tmp_path)
    assert digest.returncode == 0, digest.stderr
    matches = [DIGEST_LINE.fullmatch(line) for line in digest.stdout.splitlines()]
    assert all(matches), digest.stdout
    assert Counter(m.group(1) for m in matches) == {
        "exit=0": 26,
        "jacobian_sha256": 38,
        "residual_sha256": 38,
        "state_sha256": 3,
        "csv_sha256": 2,
    }
    with open(os.path.join(HERE, "report_digest.txt")) as fh:
        assert digest.stdout == fh.read()
    diff = run_script("report_diff.py", saved, saved, cwd=tmp_path)
    assert diff.returncode == 0, diff.stdout + diff.stderr
    lines = diff.stdout.splitlines()
    assert len(lines) == 26 and all(line.endswith(": identical") for line in lines)


def test_grid_memory_prints_each_phase(tmp_path):
    out = run_script("grid_memory.py", "--N", "8", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    head, columns, *rows = out.stdout.splitlines()
    assert head.startswith("# heis-grid N=8 contact seed 0: J has 30208 nonzeros, compiled arrays ")
    assert head.endswith("bytes per nonzero; solve converged in 6 steps")
    assert columns.split() == ["phase", "traced", "traced_peak", "rss_delta", "rss", "peak_rss"]
    assert [row.split()[0] for row in rows] == ["compile", "preconditioner", "jacobian", "laplacian", "solve"]
    for row in rows:
        traced, traced_peak, _, rss, peak_rss = map(float, row.split()[1:])
        assert 0 < traced <= traced_peak and 0 < rss <= peak_rss
