"""Static protocol verifier for Notified Access programs.

Lifts generator rank programs into a per-rank IR over plain ``ast``
expressions (:mod:`repro.analysis.extract`), evaluates them for the
concrete communicator sizes they actually run at
(:mod:`repro.analysis.instantiate`), and checks the protocol graph
before a single simulated cycle:

* :mod:`repro.analysis.replay` — the one statement of ``<window,
  source, tag>`` matching: the wildcard lattice and the maximal-progress
  replay the cross-rank checkers share;
* :mod:`repro.analysis.budget` — notification-budget balance under that
  lattice;
* :mod:`repro.analysis.deadlock` — wait-for cycles in the replay's stuck
  state;
* :mod:`repro.analysis.epochs` — epoch/flush discipline lint;
* :mod:`repro.analysis.races` — data-race / buffer-overlap detection:
  :mod:`repro.sanitizer`'s tracker driven over the replayed
  linearization.

Entry points: ``python -m repro.analysis <paths>``, the ``--analyze``
pytest flag, and :func:`analyze_paths` for programmatic use.
"""

from __future__ import annotations

import os

from repro.analysis.budget import check_budget
from repro.analysis.deadlock import check_deadlock
from repro.analysis.epochs import lint_epochs
from repro.analysis.extract import extract_file
from repro.analysis.instantiate import instantiate
from repro.analysis.ir import Program
from repro.analysis.races import check_races
from repro.analysis.replay import replay
from repro.analysis.report import Finding, Report

__all__ = [
    "Finding",
    "Report",
    "analyze_file",
    "analyze_paths",
    "analyze_program",
    "extract_file",
]

#: instantiating a program for absurd sizes would only slow the tool
MAX_NRANKS = 256


def analyze_program(program: Program) -> list[Finding]:
    """All findings for one extracted program."""
    if program.skipped:
        return []
    findings = lint_epochs(program)
    for size in sorted(set(program.sizes)):
        if not 1 <= size <= MAX_NRANKS:
            continue
        traces = instantiate(program, size)
        replayed = replay(traces)
        findings.extend(check_budget(program, size, traces))
        findings.extend(check_deadlock(program, size, traces, replayed))
        findings.extend(check_races(program, size, traces, replayed))
    return findings


def analyze_file(path: str, source: str | None = None) -> list[Finding]:
    report = Report()
    for program in extract_file(path, source):
        report.extend(analyze_program(program))
    return report.sorted()


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames
                               if not d.startswith((".", "__pycache__"))]
                for name in filenames:
                    if name.endswith(".py"):
                        out.add(os.path.join(dirpath, name))
        elif path.endswith(".py") and os.path.isfile(path):
            out.add(path)
    return sorted(out)


def analyze_paths(paths: list[str]) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths``; the CLI entry."""
    report = Report()
    for path in collect_files(paths):
        report.extend(analyze_file(path))
    return report.sorted()
