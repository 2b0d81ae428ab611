"""Command line front end: subcommands, exit codes, output files."""

import json

import pytest

from socsim.cli import main

GOOD_CONFIG = """\
schema_version: 1
sim: {cycles: 400, seed: 3}
masters: {cores: 2}
l2: {enabled: false}
workloads:
  - master: 0
    profile: {pattern: periodic, count: 3, period: 60, base: 0x0,
              footprint: 256, stride: 8, size: 8}
  - master: 1
    profile: {pattern: periodic, count: 3, period: 60, base: 0x1000,
              footprint: 256, stride: 8, size: 8}
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_report_and_matrices(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 4
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "report-v1"
    assert report["cycles"] == 400 and report["seed"] == 3
    assert {p.name for p in out.iterdir()} == {
        "report.json", "contention_bus.csv", "contention_noc.mem.csv",
        "contention_mem.csv"}
    bus_csv = (out / "contention_bus.csv").read_text().splitlines()
    assert bus_csv[0] == "causer\\sufferer,m0,m1"
    assert len(bus_csv) == 3
    assert "verdicts" not in report


def test_run_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == 0
    files = {p.name for p in out.iterdir()}
    assert "report.csv" in files and "report.json" not in files
    text = (out / "report.csv").read_text()
    assert text.startswith("key,value\n")
    assert "resources.bus.grants," in text


def test_run_with_passing_checks(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--check"]) == 0
    stdout = capsys.readouterr().out
    for name in ("starvation", "deadline", "priority_inversion", "quota"):
        assert f"check {name}: pass" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["pass"] is True


def test_run_check_failure_exits_3(tmp_path, capsys):
    # a 10-cycle deadline is impossible: the memory alone takes 40
    cfg = write_config(tmp_path, GOOD_CONFIG +
                       "verify: {deadlines: {0: 10}}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--check"]) == 3
    stdout = capsys.readouterr().out
    assert "check deadline: FAIL" in stdout
    assert "'master': 0" in stdout          # evidence is printed


def test_run_config_error_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim: {cycles: 10}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "schema_version" in err


def test_run_runtime_error_exits_1(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("base: 0x1000", "base: 0x7000_0000")
    cfg = write_config(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "simulation error:" in err


def test_run_overrides_seed_and_cycles(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed", "7", "--cycles", "523"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7 and report["cycles"] == 523


@pytest.mark.parametrize("flag,value,low", [
    ("--cycles", "-5", 1), ("--cycles", "0", 1), ("--seed", "-3", 0)])
def test_run_overrides_below_the_schema_minimum_exit_2(tmp_path, capsys, flag,
                                                       value, low):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 flag, value]) == 2
    assert capsys.readouterr().err == f"{flag}: must be >= {low}, got {value}\n"
    assert not out.exists()


def test_run_log_events(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD_CONFIG +
                       "qos: {period: 100}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--log-events"]) == 0
    lines = (out / "events.log").read_text().splitlines()
    assert lines[0] == "# events-v1"
    assert any("period_rollover" in ln for ln in lines)


def test_validate_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    assert "ok" in capsys.readouterr().out
    bad = write_config(tmp_path, "schema_version: 1\njunk: 1\n", "bad.yaml")
    assert main(["validate", "--config", bad]) == 2
    assert "junk" in capsys.readouterr().err


def test_validate_refuses_a_master_with_a_trace_and_a_profile(tmp_path,
                                                              capsys):
    (tmp_path / "t.trace").write_text("# trace-format: v1\n0 0 R 0x0 8\n")
    cfg = write_config(tmp_path, GOOD_CONFIG + "trace: t.trace\n")
    assert main(["validate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cfg.yaml.trace: trace has records for master 0, "
                            "which cfg.yaml.workloads also profiles\n")


def test_trace_lint_command(tmp_path, capsys):
    good = tmp_path / "good.trace"
    good.write_text("# trace-format: v1\n0 0 R 0x0 8\n3 1 W 0x40 64\n")
    assert main(["trace-lint", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.trace"
    bad.write_text("# trace-format: v1\n5 0 R 0x0 8\n3 0 R 0x0 8\n"
                   "7 0 X 0x0 8\n")
    assert main(["trace-lint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.trace:3:" in err and "bad.trace:4:" in err

    assert main(["trace-lint", str(tmp_path / "none.trace")]) == 2


def test_trace_lint_reports_an_undecodable_file(tmp_path, capsys):
    path = tmp_path / "latin1.trace"
    path.write_bytes(b"# trace-format: v1\n0 0 R 0x0 8 \xe9\n")
    assert main(["trace-lint", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in "
        "position 31: invalid continuation byte\n")
