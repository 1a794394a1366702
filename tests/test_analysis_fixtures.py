"""The ``bad_protocols`` corpus and the self-host guarantee.

Each fixture is a minimal broken program asserted to produce exactly
its expected diagnostic — right check name, ranks, and source line —
purely from the AST, never by executing the program.  The companion
test pins the repo's own apps/examples/benchmarks to "analyzes clean",
which is what the CI ``analyze`` job enforces.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import analyze_file, analyze_paths

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "fixtures", "bad_protocols")


def _line_of(path: str, needle: str) -> int:
    with open(path, encoding="utf-8") as handle:
        for number, text in enumerate(handle, start=1):
            if needle in text:
                return number
    raise AssertionError(f"{needle!r} not found in {path}")


CASES = [
    ("starved_wait.py", "budget.starved-wait",
     "# starved", (0, 1), 2),
    ("threshold_overcount.py", "budget.threshold-overcount",
     "# only 2 of 3", (0,), 2),
    ("wait_cycle.py", "deadlock.wait-cycle",
     "# both ranks block", (0, 1), 2),
    ("missing_flush.py", "epoch.missing-flush",
     "# read too early", (), None),
    ("unblessed_raw.py", "epoch.raw-view",
     "# no san_acquire", (), None),
    ("overlapping_puts.py", "race.overlap-write",
     "# unordered", (1, 2), 3),
    ("read_before_notify.py", "race.unordered-read",
     "# racy put", (1, 2), 3),
    ("stale_view.py", "race.stale-view",
     "# in flight", (0, 1), 2),
    ("collective_free_cycle.py", "deadlock.wait-cycle",
     "# posted only after the peer's free", (0, 1), 2),
    ("collective_alloc_cycle.py", "deadlock.wait-cycle",
     "# posted only after the peer's allocate", (0, 1), 2),
]


@pytest.mark.parametrize("filename,check,marker,ranks,size", CASES,
                         ids=[c[0] for c in CASES])
def test_fixture_yields_exact_diagnostic(filename, check, marker,
                                         ranks, size):
    path = os.path.join(CORPUS, filename)
    findings = analyze_file(path)
    assert len(findings) == 1, [f.format() for f in findings]
    finding = findings[0]
    assert finding.check == check
    assert finding.line == _line_of(path, marker)
    assert finding.ranks == ranks
    assert finding.size == size
    assert finding.program == "program"


@pytest.mark.parametrize("filename,collective", [
    ("collective_free_cycle.py", "win_free"),
    ("collective_alloc_cycle.py", "win_allocate"),
])
def test_cycle_through_a_collective_names_it(filename, collective):
    (finding,) = analyze_file(os.path.join(CORPUS, filename))
    assert f"(na wait source=1 tag=0) -> rank 1 blocked at line " \
        in finding.message
    assert f"({collective}) -> rank 0" in finding.message
    assert "barrier" not in finding.message


def test_fixtures_never_execute(monkeypatch):
    """Analysis is purely syntactic: a program whose body would raise
    at runtime still analyzes, and the diagnostic still lands."""
    source = (
        "def program(ctx):\n"
        "    # analyze: nranks=2\n"
        "    raise RuntimeError('must never run')\n"
        "    win = yield from ctx.win_allocate(64)\n"
        "    if ctx.rank == 1:\n"
        "        req = yield from ctx.na.notify_init(win, source=0)\n"
        "        yield from ctx.na.start(req)\n"
        "        yield from ctx.na.wait(req)\n"
    )
    findings = analyze_file("<mem>", source)
    # the raise is an unmodelled statement: conservatively silent
    assert findings == []


def test_repo_trees_analyze_clean():
    trees = [os.path.join(ROOT, tree)
             for tree in ("src/repro/apps", "examples", "benchmarks")]
    findings = analyze_paths(trees)
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)
