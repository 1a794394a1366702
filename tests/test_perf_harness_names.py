"""Refactor guard for the benchmark harness (read-only on benchmarks/perf).

``benchmarks/perf/`` resolves the simulator's callables *by name* at run
time — ``spans.SPEC`` for the traced pass, plain imports everywhere else
— and may not be edited alongside ``src/``.  A rename under ``src/``
therefore breaks the benchmark without breaking a single tier-1 test;
these checks say so, and say which name.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
import textwrap
import types

import numpy as np
import pytest

_PERF = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def _load_spans():
    """``spans.py`` by path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("_perf_spans",
                                                  _PERF / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolved_spec():
    """Every ``(modname, owner_name, attr, object)`` exactly as
    ``Recorder.install`` looks it up."""
    spans = _load_spans()
    for _layer, modname, owner_name, names in spans.SPEC:
        module = importlib.import_module(modname)
        owner = module if owner_name is None else getattr(module,
                                                          owner_name)
        for attr in names or spans._public_functions(owner, modname):
            yield modname, owner_name, attr, vars(owner)[attr]


def test_every_spec_entry_resolves():
    resolved = list(_resolved_spec())
    assert len(resolved) > 50
    for modname, owner_name, attr, fn in resolved:
        # the wrappers call ``fn(*args, **kwargs)``: a plain function
        assert isinstance(fn, types.FunctionType), (modname, owner_name,
                                                    attr)


def test_no_two_module_level_entries_share_a_function_object():
    """``_patch_everywhere`` rebinds by identity: an alias such as
    ``run_kv_ft = run_kv`` would be wrapped twice."""
    seen: dict[int, tuple] = {}
    for modname, owner_name, attr, fn in _resolved_spec():
        if owner_name is not None:
            continue
        assert id(fn) not in seen, ((modname, attr), seen[id(fn)])
        seen[id(fn)] = (modname, attr)


def _repro_imports():
    for path in sorted(_PERF.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "repro"
                    or node.module.startswith("repro.")):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_repro_import_of_the_harness_resolves():
    imports = list(_repro_imports())
    assert imports
    for fname, modname, name in imports:
        module = importlib.import_module(modname)
        if not hasattr(module, name):    # ``from pkg import submodule``
            try:
                importlib.import_module(f"{modname}.{name}")
            except ImportError:
                pytest.fail(f"{fname}: cannot import {name} "
                            f"from {modname}")


def test_analysis_probe_call_shapes():
    """``probes.analysis_probes`` calls the analyzer positionally, in
    exactly this sequence: a checker that starts to *require* a shared
    replay (or any other new argument) breaks the benchmark, not a test
    — except this one."""
    from repro.analysis import analyze_paths, collect_files, extract_file
    from repro.analysis.instantiate import instantiate
    from repro.analysis.races import check_races

    fixture = str(_PERF.parent.parent / "tests" / "fixtures"
                  / "bad_protocols" / "stale_view.py")
    found = []
    for path in collect_files([fixture]):
        for program in extract_file(path):
            for size in sorted(set(program.sizes)):
                traces = instantiate(program, size)
                found += check_races(program, size, traces)
    assert [f.check for f in found] == ["race.stale-view"]
    assert analyze_paths([fixture]) == found


def _reads(tree: ast.AST, name: str, node_type) -> set[str]:
    """What ``name[...]`` (``ast.Subscript``) or ``name.x``
    (``ast.Attribute``) reads under ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, node_type) and isinstance(
                node.value, ast.Name) and node.value.id == name:
            if node_type is ast.Attribute:
                out.add(node.attr)
            elif isinstance(node.slice, ast.Constant):
                out.add(node.slice.value)
    return out


def _ci_shard_split_script() -> str:
    """The Python heredoc of CI's informational shard-split step."""
    text = (_PERF.parent.parent / ".github" / "workflows"
            / "ci.yml").read_text()
    step = text[text.index("name: Shard split"):]
    body = step[step.index("\n", step.index("<<'EOF'")) + 1:]
    return textwrap.dedent(body[:body.index("EOF\n")])


def _tiny(ctx):
    win = yield from ctx.win_allocate(64)
    yield from win.lock_all()
    yield from win.put(np.ones(8), (ctx.rank + 1) % ctx.size, 0)
    yield from win.unlock_all()
    yield from ctx.barrier()


def test_stats_keys_and_run_attributes_the_harness_reads_exist():
    """``spans._fold_stats`` folds ``stats[...]`` of a serial ``Cluster``
    and of a ``ShardedRun`` alike; ``worker.py``, ``probes.py`` and CI's
    shard split read a ``ShardedRun``'s attributes.  Both sets are parsed
    from the readers, not copied, so a key or attribute dropped under
    ``src/`` fails here and not only in the benchmark."""
    from repro.cluster import ClusterConfig, run_ranks

    spans = ast.parse((_PERF / "spans.py").read_text())
    fold = next(node for node in ast.walk(spans)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_fold_stats")
    keys = _reads(fold, "stats", ast.Subscript)
    assert {"wire_transactions", "cache_misses", "time_us"} <= keys
    attrs = _reads(ast.parse(_ci_shard_split_script()), "run",
                   ast.Attribute)
    for fname in ("worker.py", "probes.py", "spans.py"):
        attrs |= _reads(ast.parse((_PERF / fname).read_text()), "run",
                        ast.Attribute)
    assert {"shards", "cpu_s", "windows", "exchanges", "critical_path_s",
            "link_packets", "link_bytes", "held_packets"} <= attrs

    cfg = dict(nranks=4, ranks_per_node=2)
    _, serial = run_ranks(4, _tiny, config=ClusterConfig(**cfg, shards=1))
    _, run = run_ranks(4, _tiny, config=ClusterConfig(**cfg, shards=2))
    for stats in (serial.stats(), run.stats()):
        assert keys <= set(stats), keys - set(stats)
    assert not [a for a in sorted(attrs) if not hasattr(run, a)]
