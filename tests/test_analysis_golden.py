"""The analyzer's golden digest: every instantiated trace, every finding.

The simulator has byte-identical baselines; this is the analyzer's.  For
every rank program of the corpus (the repo's own apps, examples and
benchmark wrappers, plus the bad-protocol fixtures) the committed file
holds one SHA-256 over the concrete fields of every ``COp`` of every
``Trace`` at every communicator size the program runs at (at
:data:`PROBE_SIZES` when it declares none — most library programs get
their size from a caller), followed by every ``Finding.format()``.  A
refactor of the extractor, the evaluator or a checker that is meant to
change nothing must leave it unchanged; a change that is meant to move
it regenerates the file and explains the diff::

    PYTHONPATH=src python tests/test_analysis_golden.py --write
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

from repro.analysis import (MAX_NRANKS, analyze_program, collect_files,
                            extract_file)
from repro.analysis.instantiate import COp, Trace, instantiate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "fixtures", "analysis_golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_analysis_golden.py --write"

#: sizes a program with no ``run_ranks`` site / annotation is traced at
PROBE_SIZES = (2, 3)


def _corpus() -> list[str]:
    """Corpus files, relative to the repo root (findings print paths)."""
    paths = collect_files([os.path.join(ROOT, "src", "repro", "apps"),
                           os.path.join(ROOT, "examples"),
                           os.path.join(HERE, "fixtures", "bad_protocols")])
    paths += glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))
    return sorted(os.path.relpath(p, ROOT).replace(os.sep, "/")
                  for p in paths)


def _cop_fields(op: COp) -> tuple[object, ...]:
    # request uids come from a process-wide counter: identity, not content
    return (op.kind, op.mech, op.line,
            None if op.win is None else op.win.index,
            op.target, op.source, op.tag, op.expected,
            op.nbytes, op.disp, op.rma,
            None if op.buf is None else (op.buf.rank, op.buf.index,
                                         op.buf.nbytes),
            op.buf_off, op.local, op.req is not None)


def _trace_fields(trace: Trace) -> tuple[object, ...]:
    return (trace.rank, trace.size, trace.exact, trace.reason,
            trace.has_poll, trace.has_pscw, trace.race_exact,
            trace.race_reason, sorted(trace.win_meta.items()),
            [_cop_fields(op) for op in trace.ops])


def compute() -> dict[str, str]:
    """``path::qualname@line -> sha256`` for every corpus program."""
    out: dict[str, str] = {}
    for rel in _corpus():
        with open(os.path.join(ROOT, rel), encoding="utf-8") as handle:
            source = handle.read()
        for program in extract_file(rel, source):
            digest = hashlib.sha256()
            digest.update(repr((program.params, program.sizes,
                                program.skipped)).encode())
            for size in sorted(set(program.sizes)) or PROBE_SIZES:
                if not 1 <= size <= MAX_NRANKS:
                    continue
                for trace in instantiate(program, size):
                    digest.update(repr(_trace_fields(trace)).encode())
            for finding in analyze_program(program):
                digest.update(finding.format().encode())
            key = f"{rel}::{program.qualname}@{program.line}"
            assert key not in out, key
            out[key] = digest.hexdigest()
    return out


def test_traces_and_findings_match_the_committed_digest():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = compute()
    moved = [key for key in sorted(set(golden) | set(actual))
             if golden.get(key) != actual.get(key)]
    assert not moved, (
        f"{len(moved)} of {len(actual)} program(s) analyze differently "
        f"from {os.path.relpath(GOLDEN, ROOT)}; first: {moved[0]} "
        f"(committed {golden.get(moved[0])}, now {actual.get(moved[0])}). "
        f"If the move is intended, regenerate with `{REGENERATE}` and "
        f"explain the diff.")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
