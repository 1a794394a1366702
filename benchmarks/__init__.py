"""Benchmark tooling around the ``repro.bench`` registry.

``smoke.py`` is the byte-identity gate over every registered experiment
(tables and event counts against ``baselines/``); ``perf/`` is the speed
benchmark ``BENCHMARK.json`` runs; ``cost_ledger.json`` is the per-op
cost ledger tier-1 compares exactly.  Tables are regenerated with
``python -m repro.bench <id>``; the paper's shape claims are asserted in
tier-1 (``tests/``).
"""
