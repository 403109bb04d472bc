"""Command-line pipeline: ingest -> analyze -> calibrate, plus simulate.

Every command takes a key = value config file whose entries act as flag
defaults (explicit flags win), writes only under --out-dir, and refuses
to overwrite existing outputs without --force.  Exit codes: 0 success,
1 user/input error, 2 internal invariant violation.  A ValueError counts
as bad input only where it comes from reading the user's inputs and
options; raised anywhere else, it is an internal fault.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import ingest as ing
from . import signals as sig
from . import synth
from .graph import TimeWindowConfig, build_windows, write_window_csv
from .table import stamp_datetime, stamp_us

log = logging.getLogger("orgsignals")


class CliError(Exception):
    """User/input error: message printed to stderr, exit code 1."""


@contextmanager
def _reading_input():
    """Report a value that cannot be read or is out of range as a CliError."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise CliError(str(exc)) from exc


def _parse_utc(text: str) -> datetime:
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise CliError(f"config {path} line {lineno}: expected key = value")
            key, _, value = text.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Install config values as typed parser defaults; flags still win."""
    converted = {}
    for action in parser._actions:
        if action.dest not in config:
            continue
        raw = config[action.dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            converted[action.dest] = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            converted[action.dest] = action.type(raw)
        else:
            converted[action.dest] = raw
    unknown = set(config) - {a.dest for a in parser._actions}
    if unknown:
        raise CliError(f"config: unknown keys {sorted(unknown)}")
    parser.set_defaults(**converted)


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) in (None, []):
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _check_input_paths(args, *names: str) -> None:
    """Fail fast on missing input files before any output is written."""
    for name in names:
        value = getattr(args, name, None)
        if value and not Path(value).is_file():
            raise CliError(f"--{name.replace('_', '-')}: file not found: {value}")


def _check_positive(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) <= 0:
            raise CliError(f"--{name.replace('_', '-')} must be positive")


def _check_range(start: datetime | None, end: datetime | None, flag: str) -> None:
    """Refuse an empty or inverted [start, end) range; `flag` names its options."""
    if start is not None and end is not None and end <= start:
        raise CliError(f"--{flag}-end must be after --{flag}-start")


def _out_path(out_dir: str, name: str, force: bool) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    if path.exists() and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)")
    return path


def _safe_name(unit: str) -> str:
    return re.sub(r"[^\w.-]", "_", unit)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    _require(args, "mbox", "out_dir")
    _check_input_paths(args, "aliases")
    with _reading_input():
        date_start = _parse_utc(args.date_start) if args.date_start else None
        date_end = _parse_utc(args.date_end) if args.date_end else None
        _check_range(date_start, date_end, "date")
        config = ing.IngestConfig(
            to_weight=args.to_weight,
            cc_weight=args.cc_weight,
            broadcast_threshold=args.broadcast_threshold,
            date_start=date_start,
            date_end=date_end,
            aliases=ing.read_alias_csv(args.aliases) if args.aliases else {},
        )
    for path in args.mbox:
        if not Path(path).is_file():
            raise CliError(f"mbox file not found: {path}")
    events_path = _out_path(args.out_dir, "events.csv", args.force)
    report_path = _out_path(args.out_dir, "ingest_report.json", args.force)
    report = ing.IngestReport()
    events = ing.parse_mbox(args.mbox, config, report)
    ing.write_event_csv(events, events_path)
    payload = report.as_dict()
    payload["written"] = len(events)
    if not args.no_timestamps:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("ingest: %d events written, %d skipped, %d deduped, %d broadcasts dropped",
             len(events), report.skipped, report.deduped, report.broadcast_dropped)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _month_periods(start: datetime, end: datetime) -> list[tuple[datetime, datetime]]:
    """Calendar-month slices of [start, end), clamped to the corpus range."""
    periods = []
    cursor = start.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
    while cursor < end:
        if cursor.month == 12:
            nxt = cursor.replace(year=cursor.year + 1, month=1)
        else:
            nxt = cursor.replace(month=cursor.month + 1)
        periods.append((max(cursor, start), min(nxt, end)))
        cursor = nxt
    return periods


def cmd_analyze(args) -> int:
    _require(args, "events", "out_dir")
    _check_input_paths(args, "events", "units", "positive", "negative", "reference")
    _check_positive(args, "window_days", "step_days", "response_horizon_hours")
    with _reading_input():
        corpus_start = _parse_utc(args.corpus_start) if args.corpus_start else None
        corpus_end = _parse_utc(args.corpus_end) if args.corpus_end else None
        _check_range(corpus_start, corpus_end, "corpus")
        signals_path = _out_path(args.out_dir, "signals.csv", args.force)
        events = ing.read_event_csv(args.events)
        mapping = ing.read_unit_csv(args.units) if args.units else None
        if args.positive or args.negative:
            if not (args.positive and args.negative):
                raise CliError("--positive and --negative must be given together")
            lexicon = sig.load_lexicon(args.positive, args.negative, args.reference)
        elif args.reference:
            lexicon = sig.LexiconConfig(
                reference_dictionary=sig.load_reference_csv(args.reference)
            )
        else:
            lexicon = sig.LexiconConfig()
    events = events.time_sorted()

    if not len(events):
        sig.write_signals_csv([], signals_path)
        log.info("analyze: no events; wrote header-only signals.csv")
        return 0

    with _reading_input():
        if corpus_start is None:
            corpus_start = stamp_datetime(events.stamp_us[0])
        if corpus_end is None:
            corpus_end = stamp_datetime(events.stamp_us[-1]) + timedelta(seconds=1)
        _check_range(corpus_start, corpus_end, "corpus")
        window_cfg = TimeWindowConfig(
            window_length=timedelta(days=args.window_days),
            step=timedelta(days=args.step_days),
            corpus_start=corpus_start,
            corpus_end=corpus_end,
        )
        horizon = timedelta(hours=args.response_horizon_hours)

    # one stable sort of the rows by sender unit; each stream stays time-sorted
    if mapping is None:
        streams = {"_all": events}
        members: dict[str, set[str] | None] = {"_all": None}
    else:
        members = {}
        for addr, unit in mapping.items():
            members.setdefault(unit, set()).add(addr)
        if args.include_external:
            # unmapped senders join the actors mapped to _external
            members[ing.EXTERNAL_UNIT] = None
        else:
            members.pop(ing.EXTERNAL_UNIT, None)
        units = sorted(members)
        index = {unit: i for i, unit in enumerate(units)}
        sender_unit = np.array(
            [index.get(mapping.get(a, ing.EXTERNAL_UNIT), len(units)) for a in events.actors],
            dtype=np.int64,
        )[events.sender]
        rows = np.argsort(sender_unit, kind="stable")
        bounds = np.searchsorted(sender_unit[rows], np.arange(len(units) + 1)).tolist()
        streams = {}
        for unit, first, last in zip(units, bounds, bounds[1:]):
            if last - first == len(events):
                streams[unit] = events  # every row, in order: no copy
            elif first < last:
                streams[unit] = events.take(rows[first:last])

    window_paths: dict[str, Path] = {}  # unit -> its --debug-windows file
    if args.debug_windows:  # refuse an existing or shared file before any record is computed
        owners: dict[str, str] = {}  # file name -> unit
        for unit in sorted(streams):
            name = f"windows_{_safe_name(unit)}.csv"
            if owners.setdefault(name, unit) != unit:
                raise CliError(f"--debug-windows: units {owners[name]!r} and {unit!r} share {name}")
            window_paths[unit] = _out_path(args.out_dir, name, args.force)

    if args.period == "monthly":
        periods = _month_periods(corpus_start, corpus_end)
    else:
        periods = [(corpus_start, corpus_end)]

    records = []
    for unit in sorted(streams):
        stream = streams[unit]
        for start, end in periods:
            first = np.searchsorted(stream.stamp_us, stamp_us(start))
            if first == len(stream) or stream.stamp_us[first] >= stamp_us(end):
                continue  # no events in this period
            records.append(sig.compute_signal_record(
                unit, (start, end), stream, window_cfg, lexicon,
                members=members[unit], response_horizon=horizon,
            ))
        if unit in window_paths:
            write_window_csv(build_windows(stream, window_cfg), window_paths[unit])

    sig.write_signals_csv(records, signals_path)
    log.info("analyze: wrote %d signal rows for %d units", len(records), len(members))
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    _require(args, "signals", "performance", "out_dir")
    _check_input_paths(args, "signals", "performance")
    with _reading_input():
        rows = sig.read_signals_csv(args.signals)
        performance = cal.read_performance_csv(args.performance)
        specs = cal.parse_model_specs(args.models) if args.models else None
    try:
        table = cal.nested_model_table(rows, performance, specs, zscore=args.zscore)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    for unit in table.dropped_units:
        log.warning("calibrate: unit %r dropped (missing performance or signal values)", unit)

    csv_path = _out_path(args.out_dir, "calibration.csv", args.force)
    txt_path = _out_path(args.out_dir, "calibration_table.txt", args.force)
    cal.write_calibration_csv(table.models, csv_path)
    rendered = cal.render_table(table.models)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(rendered + "\n")
    print(rendered)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    _require(args, "scenario", "out_dir")
    _check_input_paths(args, "scenario")
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario {args.scenario}: invalid JSON ({exc})") from exc
    try:
        spec = synth.ScenarioSpec.from_dict(data)
    except synth.ScenarioError as exc:
        raise CliError(f"scenario {args.scenario}: {exc}") from exc

    for name in ("events.csv", "expected.json", "units.csv",
                 "positive.txt", "negative.txt", "reference_dictionary.csv"):
        _out_path(args.out_dir, name, args.force)
    sidecar = synth.write_bundle(spec, args.out_dir)
    log.info("simulate: %s scenario written to %s (expected keys: %s)",
             spec.topology, args.out_dir, ", ".join(sorted(sidecar["expected"])))
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file; flags override")
    common.add_argument("--out-dir", help="run directory for all outputs")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")
    common.add_argument("--no-timestamps", action="store_true",
                        help="omit timestamps from reports for reproducible reruns")

    parser = argparse.ArgumentParser(
        prog="orgsignals",
        description="Communication-signal analytics over e-mail archives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ing = sub.add_parser("ingest", parents=[common],
                           help="parse mbox archives into the canonical event CSV")
    p_ing.add_argument("mbox", nargs="*", help="mbox files to parse")
    p_ing.add_argument("--aliases", help="alias map CSV (raw_address,canonical_address)")
    p_ing.add_argument("--broadcast-threshold", type=int, default=100,
                       help="drop messages with more recipients than this")
    p_ing.add_argument("--to-weight", type=float, default=1.0,
                       help="edge weight for To recipients")
    p_ing.add_argument("--cc-weight", type=float, default=0.5,
                       help="edge weight for Cc recipients")
    p_ing.add_argument("--date-start", help="inclusive UTC corpus bound")
    p_ing.add_argument("--date-end", help="exclusive UTC corpus bound")
    p_ing.set_defaults(func=cmd_ingest)

    p_ana = sub.add_parser("analyze", parents=[common],
                           help="compute per-unit signal records from events")
    p_ana.add_argument("--events", help="canonical event CSV")
    p_ana.add_argument("--units", help="unit map CSV (address,unit)")
    p_ana.add_argument("--positive", help="positive lexicon, one word per line")
    p_ana.add_argument("--negative", help="negative lexicon, one word per line")
    p_ana.add_argument("--reference", help="reference dictionary CSV (word,relative_frequency)")
    p_ana.add_argument("--window-days", type=float, default=7.0)
    p_ana.add_argument("--step-days", type=float, default=7.0)
    p_ana.add_argument("--period", choices=["whole", "monthly"], default="whole")
    p_ana.add_argument("--response-horizon-hours", type=float, default=14 * 24.0)
    p_ana.add_argument("--corpus-start", help="UTC corpus start (default: first event)")
    p_ana.add_argument("--corpus-end", help="UTC corpus end, exclusive (default: last event + 1s)")
    p_ana.add_argument("--include-external", action="store_true",
                       help="also report the reserved _external unit")
    p_ana.add_argument("--debug-windows", action="store_true",
                       help="emit per-window edge lists per unit")
    p_ana.set_defaults(func=cmd_analyze)

    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="regress performance on signal columns (nested models)")
    p_cal.add_argument("--signals", help="signals.csv from analyze")
    p_cal.add_argument("--performance", help="performance CSV (unit,performance)")
    p_cal.add_argument("--models",
                       help="model specs, e.g. 'emotionality|emotionality,responsiveness'")
    p_cal.add_argument("--zscore", action="store_true", help="standardize all columns")
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="generate a synthetic corpus from a scenario JSON")
    p_sim.add_argument("--scenario", help="scenario spec JSON")
    p_sim.set_defaults(func=cmd_simulate)

    return parser, {"ingest": p_ing, "analyze": p_ana, "calibrate": p_cal, "simulate": p_sim}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        # pre-scan for --config so its values become typed defaults
        config_path = None
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv):
                config_path = argv[i + 1]
            elif token.startswith("--config="):
                config_path = token.split("=", 1)[1]
        if config_path and argv and argv[0] in subparsers:
            with _reading_input():
                _apply_config(subparsers[argv[0]], _load_config(config_path))
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ing.EventSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violation: anything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
