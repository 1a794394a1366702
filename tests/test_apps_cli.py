"""The ``python -m repro.apps`` command-line driver."""

import json

import pytest

from repro.apps.__main__ import build_parser, main


def test_every_subcommand_runs(capsys):
    cmds = [
        ["pingpong", "--mode", "na", "--size", "64", "--iters", "5"],
        ["overlap", "--mode", "na", "--size", "4096"],
        ["stencil", "--mode", "mp", "-P", "2", "--rows", "16",
         "--cols", "8", "--verify"],
        ["tree", "--mode", "na", "-P", "9", "--arity", "4", "--reps", "2"],
        ["cholesky", "--mode", "na", "-P", "2", "--ntiles", "4",
         "--tile", "8", "--verify"],
        ["particles", "--mode", "na", "-P", "3", "--steps", "4",
         "--verify"],
    ]
    for cmd in cmds:
        assert main(cmd) == 0, cmd
        out = capsys.readouterr().out
        assert "time_us" in out or "half_rtt_us" in out \
            or "overlap" in out, cmd


def test_json_output_parses(capsys):
    assert main(["pingpong", "--mode", "raw", "--size", "64",
                 "--iters", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "raw" and doc["half_rtt_us"] > 0


def test_shm_flag(capsys):
    assert main(["pingpong", "--mode", "na", "--size", "64",
                 "--iters", "3", "--shm", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["same_node"] is True


def test_left_variant_flag(capsys):
    assert main(["cholesky", "--mode", "mp", "-P", "2", "--ntiles", "4",
                 "--tile", "8", "--variant", "left", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "left"


def test_bad_mode_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stencil", "--mode", "bogus"])
