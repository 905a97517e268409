"""Tier-1 gate: the repo's own sources must lint clean.

Runs ``nrmi-lint`` over ``src/`` and ``examples/`` and fails on ANY
finding — errors *and* warnings. New middleware code that trips a rule
must either be fixed or carry an inline ``# nrmi: disable=CODE --
reason`` suppression; naked suppressions are findings themselves, so
every exception stays justified.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import build_project
from repro.analysis.project import ROLE_READER, ROLE_WORKER, concurrency_model

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_repo_sources_lint_clean():
    # The gate runs with --jobs semantics (0 = one worker per CPU) so the
    # growing rule set doesn't slow the suite; output is merge-identical
    # to a serial run by construction.
    result = analyze_paths([str(ROOT / "src"), str(ROOT / "examples")], jobs=0)
    rendered = "\n".join(f.render() for f in result.findings)
    assert not result.findings, f"nrmi-lint findings in repo sources:\n{rendered}"
    assert result.files > 80  # the walk really covered the tree


CONCURRENCY_RULES = ["NRMI041", "NRMI042", "NRMI043", "NRMI044", "NRMI045", "NRMI046"]
STREAM = ROOT / "src" / "repro" / "transport" / "stream.py"
SHM = ROOT / "src" / "repro" / "transport" / "shm.py"


def test_concurrency_rules_engage_on_repo(tmp_path):
    """NRMI04x must actually run over the stream server and shm ring.

    Three proofs: role inference sees the server's per-connection reader
    and its workers (on the core and on its shm subclass); the repo is
    clean with no NRMI04x suppression at all, so the ring rule passes
    over the real producer/consumer split unaided; and NRMI041 fires on
    a copy of the server with one injected unguarded cross-role write.
    """
    result = analyze_paths(
        [str(ROOT / "src"), str(ROOT / "examples")], select=CONCURRENCY_RULES
    )
    assert result.findings == []
    assert not [f for f in result.suppressed if f.code in CONCURRENCY_RULES]

    project, _ = build_project([str(STREAM), str(SHM)])
    roles = {
        cc.cls.name: set().union(*cc.roles.values())
        for cc in concurrency_model(project).classes
    }
    for name in ("StreamServer", "ShmServer"):
        assert {ROLE_READER, ROLE_WORKER} <= roles[name], (name, roles[name])

    source = STREAM.read_text(encoding="utf-8")
    clean = tmp_path / "clean" / "stream.py"
    clean.parent.mkdir()
    clean.write_text(source, encoding="utf-8")
    assert analyze_paths([str(clean)], select=["NRMI041"]).findings == []

    # The worker loop rewrites a limit the reader threads read, unlocked.
    anchor = "            completed.add()\n"
    assert source.count(anchor) == 1
    injection = "            self._max_inflight = 1\n"
    bait = tmp_path / "bait" / "stream.py"
    bait.parent.mkdir()
    bait.write_text(source.replace(anchor, anchor + injection), encoding="utf-8")
    line = source[: source.index(anchor)].count("\n") + 2
    findings = analyze_paths([str(bait)], select=["NRMI041"]).findings
    assert [(f.code, f.line) for f in findings] == [("NRMI041", line)]


@pytest.mark.bench_smoke
def test_full_repo_lint_wall_time():
    """Full-repo lint stays under 10s with --jobs — the satellite gate
    that keeps the rule catalogue from slowing tier-1."""
    start = time.perf_counter()
    result = analyze_paths(
        [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "examples")],
        jobs=0,
    )
    elapsed = time.perf_counter() - start
    assert result.files > 100
    assert elapsed < 10.0, f"full-repo lint took {elapsed:.2f}s"


def test_protocol_invariants_actually_ran():
    """The cross-file rule must engage on the real protocol sources —
    a silent skip (e.g. after a file move) would hollow out the gate."""
    result = analyze_paths(
        [str(ROOT / "src" / "repro" / "rmi" / "protocol.py")]
    )
    assert result.findings == []
    # Counterparts are loaded from disk even when only protocol.py is
    # scanned; corrupting the magic must therefore surface here, which
    # proves the invariant checks ran (exercised via the fixture tree in
    # test_analysis.py::TestFixtureFindings::test_wire_drift_tree).


def test_cli_gate_over_repo(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "--json",
            str(ROOT / "src"),
            str(ROOT / "examples"),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["findings"] == 0
    assert payload["summary"]["exit_code"] == 0
