"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ICDCS 2018" in out
    assert "benchmarks" in out


def test_demo_reports_savings(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "ideal dedup ratio" in out
    assert "75.0%" in out


def test_status_snapshot(capsys):
    assert main(["status"]) == 0
    out = capsys.readouterr().out
    assert "dirty backlog" in out
    assert "dedup ratio" in out


def test_scrub_clean_exit_code(capsys):
    assert main(["scrub"]) == 0
    assert "CLEAN" in capsys.readouterr().out


def test_seed_changes_content(capsys):
    main(["--seed", "1", "demo"])
    first = capsys.readouterr().out
    main(["--seed", "2", "demo"])
    second = capsys.readouterr().out
    assert "dedup ratio" in first and "dedup ratio" in second


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["faults", "--objects", "0"], "--objects must be at least 1, got 0"),
        (["rebalance", "--no-faults", "--objects", "-3"],
         "--objects must be at least 1, got -3"),
        (["rebalance", "--rate", "-5"], "--rate must not be negative, got -5.0"),
        (["faults", "--horizon", "0"], "--horizon must be positive, got 0.0"),
        (["faults", "--kill-osd", "-1"], "--kill-osd must be an OSD id in 0..7, got -1"),
    ],
    ids=["objects-0", "objects-negative", "rate-negative", "horizon-0", "kill-osd-negative"],
)
def test_scenario_commands_reject_input_they_cannot_judge(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_kill_osd_range_follows_the_static_preset(capsys):
    from repro.faults import STATIC

    num_osds = STATIC.num_hosts * STATIC.osds_per_host
    assert main(["faults", "--kill-osd", str(num_osds)]) == 2
    assert f"0..{num_osds - 1}, got {num_osds}" in capsys.readouterr().err
    assert main(["faults", "--kill-osd", str(num_osds - 1), "--objects", "4",
                 "--horizon", "1"]) == 0
    out = capsys.readouterr().out
    assert f"osd_crash        {num_osds - 1}" in out
    assert "verdict:           CLEAN" in out
