"""Table formatting and harness helpers."""

import pytest

from repro.bench.report import Table, format_table


def test_table_add_and_column():
    t = Table("demo", ["a", "b"])
    t.add(1, 2.5)
    t.add(3, 4.5)
    assert t.column("b") == [2.5, 4.5]


def test_table_row_arity_checked():
    t = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_format_contains_all_cells():
    t = Table("My Title", ["size", "lat"])
    t.add(8, 1.234)
    t.add(131072, 17.25)
    s = format_table(t)
    assert "My Title" in s
    assert "1.234" in s
    assert "131072" in s


def test_format_notes_appended():
    t = Table("x", ["c"], notes="shape note")
    t.add(1)
    assert "shape note" in str(t)


def test_experiment_registry_complete():
    from repro.bench.figures import ALL_EXPERIMENTS
    for eid in ("fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig4a",
                "fig4b", "fig4c", "fig5", "table1", "sec5", "sec7"):
        assert eid in ALL_EXPERIMENTS

