"""End-to-end command coverage: exit codes, outputs, idempotency."""

import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import orgsignals
from orgsignals.cli import main
from orgsignals.graph import TimeWindowConfig
from orgsignals.ingest import EXTERNAL_UNIT, read_unit_csv, write_event_csv
from orgsignals.signals import compute_signal_record, load_lexicon
from orgsignals.table import EventTable

from conftest import T0, mk_event
from oracles import loop_read_event_csv, loop_windows
from test_ingest import BASE_HEADERS, make_mbox, write_second_stamp


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "star",
        "n_actors": 5,
        "duration_days": 35,
        "topology": {"kind": "star"},
        "reply_delay_hours": {"kind": "constant", "value": 4.0},
        "lexicon_mix": {"mean": 0.5, "std": 0.25},
        "vocabulary": {"in_dictionary_fraction": 1.0},
        "seed": 9,
    }))
    return path


def simulate(tmp_path, scenario_file, name="run"):
    out = tmp_path / name
    assert run(["simulate", "--scenario", scenario_file, "--out-dir", out]) == 0
    return out


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_writes_events_and_report(tmp_path):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "hello world")])
    out = tmp_path / "out"
    assert run(["ingest", mbox, "--out-dir", out]) == 0
    assert (out / "events.csv").exists()
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["parsed"] == 1
    assert report["written"] == 1
    assert "generated_at" in report


def test_ingest_missing_file_exits_one(tmp_path, capsys):
    assert run(["ingest", tmp_path / "nope.mbox", "--out-dir", tmp_path / "o"]) == 1
    assert "error" in capsys.readouterr().err


def test_ingest_broadcast_threshold_flag(tmp_path):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [({**BASE_HEADERS, "To": "b@x.com, c@x.com, d@x.com"}, "x y")])
    out = tmp_path / "out"
    assert run(["ingest", mbox, "--out-dir", out, "--broadcast-threshold", 2]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["broadcast_dropped"] == 1
    assert report["written"] == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--cc-weight", "1.5", "cc_weight must be in (0, 1]"),
    ("--to-weight", "0", "to_weight must be in (0, 1]"),
    ("--to-weight", "nan", "to_weight must be in (0, 1]"),
    ("--broadcast-threshold", "0", "broadcast_threshold must be at least 1"),
], ids=["cc-weight-above-one", "to-weight-zero", "to-weight-nan", "threshold-zero"])
def test_ingest_bad_config_values_exit_one(tmp_path, capsys, flag, value, message):
    # analyze refuses a recipient weight outside (0, 1], so ingest must not write one
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [({**BASE_HEADERS, "Cc": "c@x.com"}, "x y")])
    out = tmp_path / "out"
    assert run(["ingest", mbox, "--out-dir", out, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "events.csv").exists()


def test_ingest_refuses_overwrite_without_force(tmp_path):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "x y")])
    out = tmp_path / "out"
    assert run(["ingest", mbox, "--out-dir", out]) == 0
    assert run(["ingest", mbox, "--out-dir", out]) == 1
    assert run(["ingest", mbox, "--out-dir", out, "--force"]) == 0


def fail_if_called(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return called


@pytest.mark.parametrize("existing", ["events.csv", "ingest_report.json"])
def test_ingest_refuses_overwrite_before_parsing(tmp_path, monkeypatch, capsys, existing):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "x y")])
    out = tmp_path / "out"
    out.mkdir()
    (out / existing).write_text("kept\n")
    monkeypatch.setattr(orgsignals.ingest, "parse_mbox", fail_if_called("parse_mbox"))
    assert run(["ingest", mbox, "--out-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: refusing to overwrite {out / existing} (use --force)\n")
    assert (out / existing).read_text() == "kept\n"


def test_ingest_idempotent_with_no_timestamps(tmp_path):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "x y")])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["ingest", mbox, "--out-dir", out1, "--no-timestamps"]) == 0
    assert run(["ingest", mbox, "--out-dir", out2, "--no-timestamps"]) == 0
    assert (out1 / "ingest_report.json").read_bytes() == (out2 / "ingest_report.json").read_bytes()
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()


@pytest.mark.parametrize("end", ["2024-01-01", "2023-06-01"])
def test_ingest_empty_or_inverted_date_range_exits_one(tmp_path, monkeypatch, capsys, end):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "x y")])

    def unread(*args, **kwargs):
        raise AssertionError("an archive was read")

    monkeypatch.setattr(orgsignals.ingest, "parse_mbox", unread)
    out = tmp_path / "o"
    assert run(["ingest", mbox, "--out-dir", out,
                "--date-start", "2024-01-01", "--date-end", end]) == 1
    assert capsys.readouterr().err == "error: --date-end must be after --date-start\n"
    assert not out.exists()


def test_ingest_fault_outside_one_message_exits_two(tmp_path, monkeypatch, capsys):
    mbox = tmp_path / "in.mbox"
    make_mbox(mbox, [(BASE_HEADERS, "x y"), ({**BASE_HEADERS, "Message-ID": "<m2@x.com>"}, "z")])
    real = orgsignals.ingest._mbox_messages

    def failing(*piece):
        messages = real(*piece)
        yield next(messages)
        raise RuntimeError("lost the archive")

    monkeypatch.setattr(orgsignals.ingest, "_mbox_messages", failing)
    out = tmp_path / "o"
    assert run(["ingest", mbox, "--out-dir", out]) == 2
    assert capsys.readouterr().err == "internal error: lost the archive\n"
    assert not (out / "ingest_report.json").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_bundle(tmp_path, scenario_file):
    out = simulate(tmp_path, scenario_file)
    for name in ("events.csv", "expected.json", "units.csv",
                 "positive.txt", "negative.txt", "reference_dictionary.csv"):
        assert (out / name).exists()
    expected = json.loads((out / "expected.json").read_text())
    assert expected["expected"]["central_leadership"] == 1.0


def test_simulate_rerun_byte_identical(tmp_path, scenario_file):
    out1 = simulate(tmp_path, scenario_file, "r1")
    out2 = simulate(tmp_path, scenario_file, "r2")
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
    assert (out1 / "expected.json").read_bytes() == (out2 / "expected.json").read_bytes()


def test_simulate_unknown_topology_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_actors": 4, "duration_days": 7,
                               "topology": {"kind": "hypercube"}}))
    assert run(["simulate", "--scenario", bad, "--out-dir", tmp_path / "o"]) == 1
    assert "topology.kind" in capsys.readouterr().err


def test_simulate_invalid_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--scenario", bad, "--out-dir", tmp_path / "o"]) == 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_args(bundle, out, extra=()):
    expected = json.loads((bundle / "expected.json").read_text())
    a = expected["analysis"]
    return [
        "analyze",
        "--events", bundle / "events.csv",
        "--units", bundle / "units.csv",
        "--positive", bundle / "positive.txt",
        "--negative", bundle / "negative.txt",
        "--reference", bundle / "reference_dictionary.csv",
        "--window-days", a["window_days"],
        "--step-days", a["step_days"],
        "--response-horizon-hours", a["response_horizon_hours"],
        "--corpus-start", "2024-01-01T00:00:00+00:00",
        "--corpus-end", "2024-02-05T00:00:00+00:00",
        "--out-dir", out,
        *extra,
    ]


def test_analyze_star_bundle(tmp_path, scenario_file):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "analysis"
    assert run(analyze_args(bundle, out)) == 0
    rows = (out / "signals.csv").read_text().splitlines()
    assert len(rows) == 2
    header = rows[0].split(",")
    values = dict(zip(header, rows[1].split(",")))
    assert values["unit"] == "team0"
    assert float(values["central_leadership"]) == pytest.approx(1.0, abs=1e-9)
    assert float(values["avg_response_time_hours"]) == pytest.approx(4.0, abs=0.01)


def test_analyze_debug_windows(tmp_path, scenario_file):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "analysis"
    assert run(analyze_args(bundle, out, ["--debug-windows"])) == 0
    debug = (out / "windows_team0.csv").read_text().splitlines()
    assert debug[0] == "window_index,src,dst,count,weight_sum"
    assert len(debug) > 1


def test_analyze_debug_windows_refuses_overwrite_before_computing(
        tmp_path, scenario_file, monkeypatch, capsys):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "analysis"
    out.mkdir()
    (out / "windows_team0.csv").write_text("kept\n")
    monkeypatch.setattr(orgsignals.signals, "compute_signal_record",
                        fail_if_called("compute_signal_record"))
    capsys.readouterr()
    assert run(analyze_args(bundle, out, ["--debug-windows"])) == 1
    assert capsys.readouterr().err == (
        f"error: refusing to overwrite {out / 'windows_team0.csv'} (use --force)\n")
    assert (out / "windows_team0.csv").read_text() == "kept\n"
    assert not (out / "signals.csv").exists()


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_analyze_debug_windows_refuses_one_file_for_two_units(
        tmp_path, monkeypatch, capsys, force):
    # "a b" and "a_b" both map to windows_a_b.csv
    events, units = tmp_path / "events.csv", tmp_path / "units.csv"
    write_event_csv([mk_event("a@x.com", ["b@x.com"], hours=0),
                     mk_event("b@x.com", ["a@x.com"], hours=1)], events)
    units.write_text("address,unit\na@x.com,a b\nb@x.com,a_b\n")
    monkeypatch.setattr(orgsignals.signals, "compute_signal_record",
                        fail_if_called("compute_signal_record"))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(["analyze", "--events", events, "--units", units, "--out-dir", out,
                "--debug-windows", *force]) == 1
    assert capsys.readouterr().err == (
        "error: --debug-windows: units 'a b' and 'a_b' share windows_a_b.csv\n")
    assert not list(out.iterdir())


def test_analyze_empty_events(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text(
        "message_id,timestamp_iso8601_utc,sender,recipients,in_reply_to,subject_key,tokens\n"
    )
    out = tmp_path / "o"
    assert run(["analyze", "--events", events, "--out-dir", out]) == 0
    assert (out / "signals.csv").read_text().count("\n") == 1


def test_analyze_bad_unit_row_exits_one(tmp_path, scenario_file, capsys):
    bundle = simulate(tmp_path, scenario_file)
    units = bundle / "units.csv"
    units.write_text("address,unit\nnot-an-address,u1\n")
    out = tmp_path / "o"
    assert run(["analyze", "--events", bundle / "events.csv",
                "--units", units, "--out-dir", out]) == 1
    assert "row 2" in capsys.readouterr().err


def test_analyze_bad_events_schema_exits_one(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("wrong,header\n")
    assert run(["analyze", "--events", events, "--out-dir", tmp_path / "o"]) == 1


def test_analyze_stamp_out_of_range_in_utc_exits_one(tmp_path, capsys):
    events = tmp_path / "events.csv"
    write_second_stamp(events, "0001-01-01T00:30:00+01:00")
    assert run(["analyze", "--events", events, "--out-dir", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "row 3, column timestamp_iso8601_utc: '0001-01-01T00:30:00+01:00'" in err


def test_analyze_refuses_overwrite_before_reading_events(tmp_path, monkeypatch, capsys):
    events = tmp_path / "events.csv"
    write_second_stamp(events, "2024-01-02T00:00:00+00:00")
    out = tmp_path / "o"
    out.mkdir()
    (out / "signals.csv").write_text("kept\n")
    monkeypatch.setattr(orgsignals.ingest, "read_event_csv", fail_if_called("read_event_csv"))
    assert run(["analyze", "--events", events, "--out-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: refusing to overwrite {out / 'signals.csv'} (use --force)\n")
    assert (out / "signals.csv").read_text() == "kept\n"


def test_analyze_internal_value_error_exits_two(tmp_path, scenario_file, monkeypatch, capsys):
    bundle = simulate(tmp_path, scenario_file)

    def broken(*args, **kwargs):
        raise ValueError("series length mismatch")

    monkeypatch.setattr(orgsignals.signals, "compute_signal_record", broken)
    assert run(analyze_args(bundle, tmp_path / "o")) == 2
    assert "internal error: series length mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["balanced_contribution", "honest_sentiment"])
def test_analyze_value_error_in_a_signal_stage_exits_two(
        tmp_path, scenario_file, monkeypatch, capsys, stage):
    # only a stage's own precondition leaves its cell blank; any other
    # ValueError is a fault
    bundle = simulate(tmp_path, scenario_file)

    def broken(*args, **kwargs):
        raise ValueError("count out of range")

    monkeypatch.setattr(orgsignals.signals, stage, broken)
    assert run(analyze_args(bundle, tmp_path / "o")) == 2
    assert "internal error: count out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["date", "window-nan", "window-inf", "lexicon", "reference", "config"]
)
def test_analyze_bad_input_values_exit_one(tmp_path, scenario_file, capsys, case):
    bundle = simulate(tmp_path, scenario_file)
    bad = tmp_path / "bad.txt"
    if case == "date":
        extra, message = ["--corpus-start", "last tuesday"], "last tuesday"
    elif case == "window-nan":
        extra, message = ["--window-days", "nan"], "NaN"
    elif case == "window-inf":
        extra, message = ["--step-days", "inf"], "infinity"
    elif case == "lexicon":
        word = (bundle / "positive.txt").read_text().split()[0]
        bad.write_text(word + "\n")
        extra, message = ["--negative", bad], "lexicons overlap"
    elif case == "reference":
        bad.write_text("word,relative_frequency\nhello,often\n")
        extra, message = ["--reference", bad], "bad frequency"
    else:
        bad.write_text("step-days = weekly\n")
        extra, message = ["--config", bad], "weekly"
    assert run(analyze_args(bundle, tmp_path / "o", extra)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("period", ["whole", "monthly"])
def test_analyze_inverted_corpus_range_exits_one(tmp_path, scenario_file, capsys, period):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "o"
    extra = ["--period", period, "--corpus-start", "2024-03-01", "--corpus-end", "2024-01-01"]
    assert run(analyze_args(bundle, out, extra)) == 1
    assert capsys.readouterr().err == "error: --corpus-end must be after --corpus-start\n"
    assert not (out / "signals.csv").exists()


@pytest.mark.parametrize("extra", [
    ["--corpus-end", "2023-06-01"],    # before the first event
    ["--corpus-start", "2025-06-01"],  # after the last event
])
def test_analyze_range_inverted_by_one_flag_exits_one(tmp_path, scenario_file, capsys, extra):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "o"
    assert run(["analyze", "--events", bundle / "events.csv", "--out-dir", out, *extra]) == 1
    assert capsys.readouterr().err == "error: --corpus-end must be after --corpus-start\n"
    assert not (out / "signals.csv").exists()


def test_analyze_monthly_periods(tmp_path, scenario_file):
    bundle = simulate(tmp_path, scenario_file)
    out = tmp_path / "analysis"
    assert run(analyze_args(bundle, out, ["--period", "monthly"])) == 0
    rows = (out / "signals.csv").read_text().splitlines()
    assert len(rows) == 3  # january and february slices


def test_analyze_idempotent(tmp_path, scenario_file):
    bundle = simulate(tmp_path, scenario_file)
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    assert run(analyze_args(bundle, out1)) == 0
    assert run(analyze_args(bundle, out2)) == 0
    assert (out1 / "signals.csv").read_bytes() == (out2 / "signals.csv").read_bytes()


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def write_signals_fixture(path, n=16, seed=0):
    import random
    rng = random.Random(seed)
    header = ("unit,period_start,period_end,central_leadership,balanced_contribution,"
              "rotating_leadership,rotating_leadership_ci,avg_response_time_hours,"
              "avg_nudges,responsiveness,honest_sentiment,innovative_language,oov_rate")
    lines = [header]
    perf_lines = ["unit,performance"]
    for i in range(n):
        e = rng.uniform(0, 0.5)
        r = rng.uniform(0.2, 1.0)
        s = rng.uniform(0, 1.0)
        lines.append(
            f"u{i},2024-01-01T00:00:00+00:00,2024-12-31T00:00:00+00:00,"
            f"{s!r},0.1,0.2,0.1,4.0,1.0,{r!r},{e!r},0.3,0.1"
        )
        y = 1.0 + 0.14 * e + 0.05 * r - 0.07 * s + rng.gauss(0, 0.002)
        perf_lines.append(f"u{i},{y!r}")
    path.joinpath("signals.csv").write_text("\n".join(lines) + "\n")
    path.joinpath("performance.csv").write_text("\n".join(perf_lines) + "\n")


def test_calibrate_default_models(tmp_path, capsys):
    write_signals_fixture(tmp_path)
    out = tmp_path / "cal"
    assert run(["calibrate", "--signals", tmp_path / "signals.csv",
                "--performance", tmp_path / "performance.csv", "--out-dir", out]) == 0
    stdout = capsys.readouterr().out
    assert "Model 3 Coeff." in stdout
    assert "Adj R2" in stdout
    assert (out / "calibration.csv").exists()
    assert (out / "calibration_table.txt").exists()


def test_calibrate_custom_models_flag(tmp_path):
    write_signals_fixture(tmp_path)
    out = tmp_path / "cal"
    assert run(["calibrate", "--signals", tmp_path / "signals.csv",
                "--performance", tmp_path / "performance.csv",
                "--models", "emotionality|emotionality,responsiveness",
                "--out-dir", out]) == 0
    text = (out / "calibration.csv").read_text()
    models = {line.split(",")[0] for line in text.splitlines()[1:]}
    assert models == {"1", "2"}


def test_calibrate_mismatched_units_exit_one(tmp_path, capsys):
    write_signals_fixture(tmp_path)
    (tmp_path / "performance.csv").write_text("unit,performance\nzz,1.0\n")
    assert run(["calibrate", "--signals", tmp_path / "signals.csv",
                "--performance", tmp_path / "performance.csv",
                "--out-dir", tmp_path / "cal"]) == 1
    assert "insufficient rows" in capsys.readouterr().err


def test_calibrate_zscore_flag(tmp_path):
    write_signals_fixture(tmp_path)
    out = tmp_path / "cal"
    assert run(["calibrate", "--signals", tmp_path / "signals.csv",
                "--performance", tmp_path / "performance.csv",
                "--zscore", "--out-dir", out]) == 0


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_provides_defaults_flags_win(tmp_path, scenario_file):
    bundle = simulate(tmp_path, scenario_file)
    config = tmp_path / "run.conf"
    config.write_text(
        "# analysis defaults\n"
        f"events = {bundle / 'events.csv'}\n"
        f"units = {bundle / 'units.csv'}\n"
        "window-days = 7\n"
        "step-days = 7\n"
        "response-horizon-hours = 8\n"
        "corpus-start = 2024-01-01T00:00:00+00:00\n"
        "corpus-end = 2024-02-05T00:00:00+00:00\n"
    )
    out = tmp_path / "viaconfig"
    assert run(["analyze", "--config", config, "--out-dir", out]) == 0
    rows = (out / "signals.csv").read_text().splitlines()
    assert len(rows) == 2

    # flag overrides config: corpus restricted to one week -> fewer windows, still works
    out2 = tmp_path / "flagwin"
    assert run(["analyze", "--config", config, "--out-dir", out2,
                "--corpus-end", "2024-01-15T00:00:00+00:00"]) == 0


def test_config_unknown_key_exits_one(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("nonsense-key = 5\n")
    assert run(["analyze", "--config", config, "--events", "x.csv",
                "--out-dir", tmp_path / "o"]) == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,extra,message", [
    ("analyze", None, ["--period", "weekly"], "invalid choice: 'weekly'"),
    ("analyze", None, ["--window-days", "abc"], "invalid float value: 'abc'"),
    ("analyze", "period = weekly\n", [], "invalid choice: 'weekly'"),
    ("ingest", "mbox = a.mbox\n", [], "unknown keys ['mbox']"),
], ids=["period-flag", "window-days-flag", "period-config", "positional-config"])
def test_option_values_are_checked_as_flags_exit_one(tmp_path, capsys, command, config,
                                                     extra, message):
    # a config value goes through the same argparse checks as its flag,
    # and a usage error is bad input
    args = [command, "--out-dir", tmp_path / "o", *extra]
    if config is not None:
        (tmp_path / "run.conf").write_text(config)
        args += ["--config", tmp_path / "run.conf"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_analyze_missing_input_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["analyze", "--events", tmp_path / "absent.csv", "--out-dir", out]) == 1
    assert "file not found" in capsys.readouterr().err
    assert not (out / "signals.csv").exists()


def test_analyze_rejects_nonpositive_durations(tmp_path, scenario_file, capsys):
    bundle = simulate(tmp_path, scenario_file)
    assert run(["analyze", "--events", bundle / "events.csv",
                "--window-days", "0", "--out-dir", tmp_path / "o"]) == 1
    assert "--window-days must be positive" in capsys.readouterr().err


def test_ingest_dedups_across_archives(tmp_path):
    first, second = tmp_path / "one.mbox", tmp_path / "two.mbox"
    make_mbox(first, [(BASE_HEADERS, "hello")])
    make_mbox(second, [(BASE_HEADERS, "hello")])
    out = tmp_path / "out"
    assert run(["ingest", first, second, "--out-dir", out]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert (report["written"], report["deduped"]) == (1, 1)
    assert (out / "events.csv").read_text().count("\n") == 2


# ---------------------------------------------------------------------------
# unit grouping, hash-seed independence, import footprint
# ---------------------------------------------------------------------------

@pytest.fixture
def mixed_bundle(tmp_path):
    """A random 12-actor corpus over 75 days with an interleaved unit map.

    Actors 0, 5 and 10 are unmapped and actors 3 and 8 are mapped to
    _external; the rest alternate between three units.
    """
    scenario = tmp_path / "random.json"
    scenario.write_text(json.dumps({
        "name": "mixed", "n_actors": 12, "duration_days": 75,
        "topology": {"kind": "random", "p": 0.08},
        "reply_delay_hours": {"kind": "uniform", "low": 1.0, "high": 30.0},
        "lexicon_mix": {"mean": 0.3, "std": 0.1},
        "vocabulary": {"in_dictionary_fraction": 0.8},
        "seed": 5,
    }))
    bundle = simulate(tmp_path, scenario, "mixed")
    rows = ["address,unit"]
    for i in range(12):
        if i % 5 == 0:
            continue
        rows.append(f"actor{i:03d}@example.org,{'_external' if i in (3, 8) else f'u{i % 3}'}")
    (bundle / "units.csv").write_text("\n".join(rows) + "\n")
    return bundle


def mixed_args(bundle, out):
    return [
        "analyze", "--events", bundle / "events.csv", "--units", bundle / "units.csv",
        "--positive", bundle / "positive.txt", "--negative", bundle / "negative.txt",
        "--reference", bundle / "reference_dictionary.csv",
        "--window-days", 7, "--step-days", 7, "--response-horizon-hours", 48,
        "--corpus-start", "2024-01-01T00:00:00+00:00",
        "--corpus-end", "2024-03-16T00:00:00+00:00",
        "--period", "monthly", "--include-external", "--out-dir", out, "--no-timestamps",
    ]


def test_analyze_interleaved_units_match_filtered_streams(tmp_path, mixed_bundle):
    out = tmp_path / "analysis"
    assert run(mixed_args(mixed_bundle, out)) == 0
    with open(out / "signals.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]

    # the records built one unit and one period at a time, by filtering
    events = sorted(loop_read_event_csv(mixed_bundle / "events.csv"),
                    key=lambda e: e.timestamp)
    mapping = read_unit_csv(mixed_bundle / "units.csv")
    lexicon = load_lexicon(mixed_bundle / "positive.txt", mixed_bundle / "negative.txt",
                           mixed_bundle / "reference_dictionary.csv")
    units = sorted(set(mapping.values()) - {EXTERNAL_UNIT})
    streams = {u: [e for e in events if mapping.get(e.sender) == u] for u in units}
    members = {u: {a for a, v in mapping.items() if v == u} for u in units}
    streams[EXTERNAL_UNIT] = [
        e for e in events if mapping.get(e.sender, EXTERNAL_UNIT) == EXTERNAL_UNIT
    ]
    members[EXTERNAL_UNIT] = None
    external_senders = {e.sender for e in streams[EXTERNAL_UNIT]}
    assert "actor003@example.org" in external_senders  # mapped to _external
    assert "actor005@example.org" in external_senders  # unmapped

    month = [datetime(2024, m, 1, tzinfo=timezone.utc) for m in (1, 2, 3)]
    periods = [(month[0], month[1]), (month[1], month[2]),
               (month[2], datetime(2024, 3, 16, tzinfo=timezone.utc))]
    cfg = TimeWindowConfig(timedelta(days=7), timedelta(days=7))
    expected = []
    for unit in sorted(streams):
        for start, end in periods:
            part = [e for e in streams[unit] if start <= e.timestamp < end]
            if part:
                expected.append(compute_signal_record(
                    unit, (start, end), EventTable.from_events(part), cfg, lexicon,
                    members=members[unit],
                    response_horizon=timedelta(hours=48),
                ).as_row())
    assert len(expected) == 4 * 3
    assert got == expected


def package_env(**extra):
    """The environment of a child interpreter that imports this orgsignals."""
    src = str(Path(orgsignals.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_analyze_output_independent_of_hash_seed(tmp_path, mixed_bundle):
    outputs = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        env = package_env(PYTHONHASHSEED=str(seed))
        subprocess.run([sys.executable, "-m", "orgsignals.cli",
                        *map(str, mixed_args(mixed_bundle, out))],
                       env=env, check=True, capture_output=True)
        outputs.append((out / "signals.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_stats_unloaded():
    env = package_env()
    probe = "import sys, orgsignals.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_ingest_import_leaves_scipy_and_graph_unloaded():
    # each ingest pool worker imports only this much of the package, and
    # unpickles the function it runs from there
    env = package_env()
    probe = ("import sys, orgsignals.ingest as ingest; "
             "print(ingest._parse_piece.__module__, 'numpy' in sys.modules, "
             "'scipy' in sys.modules, 'orgsignals.graph' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "orgsignals.ingest False False False"


def test_traced_targets_resolve_after_cli_import():
    # perfbench/tracer.py wraps these functions by name: a rename must fail here
    env = package_env()
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = (
        "import sys, orgsignals.cli\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import TARGETS\n"
        "for target, attribute, *_ in TARGETS:\n"
        "    module_name, _, inner = target.partition(':')\n"
        "    holder = sys.modules.get(module_name)\n"
        "    if holder is not None and inner:\n"
        "        holder = getattr(holder, inner, None)\n"
        "    if not callable(getattr(holder, attribute, None)):\n"
        "        print(target, attribute)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout == ""  # one line per target that does not resolve


def test_traced_analyze_counts_the_window_edges(tmp_path, scenario_file):
    # perfbench/run.py --trace 1 reads build_windows' result through these counters
    bundle = simulate(tmp_path, scenario_file)
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = (
        "import json, sys, orgsignals.cli\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import Tracer, layer_metrics\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "code = orgsignals.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, layer_metrics(tracer.dump())]))\n"
    )
    start, end = T0, T0 + timedelta(days=35)
    args = ["analyze", "--events", bundle / "events.csv", "--out-dir", tmp_path / "out",
            "--corpus-start", start.isoformat(), "--corpus-end", end.isoformat()]
    result = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                            env=package_env(), check=True, capture_output=True, text=True)
    code, metrics = json.loads(result.stdout.splitlines()[-1])
    events = sorted(loop_read_event_csv(bundle / "events.csv"), key=lambda e: e.timestamp)
    windows = loop_windows(events, TimeWindowConfig(corpus_start=start, corpus_end=end))
    assert code == 0
    assert metrics["graph.windows"] == len(windows) == 5
    assert metrics["graph.window_edges"] == sum(len(edges) for _, edges in windows) > 0
