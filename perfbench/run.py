#!/usr/bin/env python3
"""Pipeline benchmark of orgsignals: CLI workloads with checked outputs.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload c10-one-unit --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):

- c10-one-unit: `analyze` of the 100,100-message c10 corpus as one unit;
- mbox-ingest: `ingest` of two generated mbox archives of 20,000 messages;
- c10-per-actor: the c10 corpus with every actor a unit of its own;
- sparse-weeks: `analyze` of a 26,208-message corpus with sparse windows.

`BENCHMARK.json` lists the first two.  The last two run the same way
and are checked the same way, but their `wall_s` spread between runs
of the same code was too wide for a bound, so they are for runs by hand
(README.md, "Steadiness").

Inputs are made from `--seed` and cached under `.perfbench/inputs/`.  Each
round runs the workload's command in a fresh interpreter (`child.py`),
one process at a time, and rounds repeat until `--seconds` have passed.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: the median `wall_s` of the rounds, the median
`setup_s` (import of `orgsignals.cli`) over at least `SETUP_SAMPLES`
fresh interpreters, and the median `peak_rss_mb` of the processes that
ran the command.  With `--trace 1`, traced and untraced rounds alternate
and the object holds the per-layer metrics that `BENCHMARK.json` lists
instead.  Every round's outputs are checked (see checks.py); the exit
code is 0 only when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
HORIZON_HOURS = 336.0

WORKLOADS = ("c10-one-unit", "mbox-ingest", "c10-per-actor", "sparse-weeks")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(result_path: Path, log_path: Path, argv: list[str], trace: bool) -> dict:
    """Run child.py once and return the result it wrote."""
    command = [sys.executable, str(HERE / "child.py"), str(result_path),
               "trace" if trace else "plain", "--", *argv]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(argv[:1])}")
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        fail(f"child exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["orgsignals_file"]).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported orgsignals from {result['orgsignals_file']}, not from {SRC}")
    return result


def import_times() -> dict[str, float]:
    """Cumulative import times of two modules by `python -X importtime`."""
    samples: dict[str, list[float]] = {"orgsignals.calibrate": [], "orgsignals.graph": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import orgsignals.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            fail(f"import failed:\n{proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e6)
    return {f"import.{name}_s": statistics.median(values) for name, values in samples.items()}


class Workload:
    """Inputs, command line and output checks of one workload."""

    def __init__(self, name: str, seed: int):
        cache = STATE / "inputs"
        self.name = name
        if name == "mbox-ingest":
            self.bundle = inputs.mbox_bundle(cache, seed)
        elif name == "sparse-weeks":
            self.bundle = inputs.sparse_bundle(cache, seed)
        else:
            self.bundle = inputs.c10_bundle(cache, seed)
        self.units = self.bundle / ("units_per_actor.csv" if name == "c10-per-actor"
                                    else "units.csv")

    def argv(self, out_dir: Path) -> list[str]:
        b = self.bundle
        if self.name == "mbox-ingest":
            archives = json.loads((b / "expected.json").read_text(encoding="utf-8"))["archives"]
            return ["ingest", *(str(b / a) for a in archives), "--aliases", str(b / "aliases.csv"),
                    "--out-dir", str(out_dir), "--no-timestamps"]
        return ["analyze", "--events", str(b / "events.csv"), "--units", str(self.units),
                "--positive", str(b / "positive.txt"), "--negative", str(b / "negative.txt"),
                "--reference", str(b / "reference_dictionary.csv"),
                "--window-days", "7", "--step-days", "7",
                "--response-horizon-hours", str(HORIZON_HOURS),
                "--corpus-start", inputs.CORPUS_START, "--corpus-end", inputs.CORPUS_END,
                "--out-dir", str(out_dir), "--no-timestamps"]

    def checker(self):
        """(check of one round's output directory, errors of the run-wide checks)."""
        if self.name == "mbox-ingest":
            sidecar = json.loads((self.bundle / "expected.json").read_text(encoding="utf-8"))
            reference = checks.MboxReference(sidecar)
            return reference.check, []
        corpus = checks.Corpus(self.bundle)
        start = datetime.fromisoformat(inputs.CORPUS_START)
        end = datetime.fromisoformat(inputs.CORPUS_END)
        if self.name == "c10-per-actor":
            units = {}
            with open(self.units, encoding="utf-8") as fh:
                for line in fh.read().splitlines()[1:]:
                    address, unit = line.split(",")
                    units[address] = unit
            reference = checks.PerActorReference(corpus, units, start, end)
            return (lambda out: reference.check(out / "signals.csv")), []
        reference = checks.OneUnitReference(corpus, timedelta(hours=HORIZON_HOURS), start, end)
        return (lambda out: reference.check(out / "signals.csv")), reference.errors


def measure(workload: Workload, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Rounds of the workload's command until `seconds` have passed.

    With `trace`, untraced and traced rounds alternate, ending on a traced one.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        out = work / f"round{len(rounds)}"
        result = run_child(work / f"round{len(rounds)}.json", work / f"round{len(rounds)}.log",
                           workload.argv(out), traced)
        result["out"] = out
        result["traced"] = traced
        rounds.append(result)
        if result.get("exit_code") != 0:
            fail(f"{workload.name} exited with {result.get('exit_code')}; "
                 f"see {work / f'round{len(rounds) - 1}.log'}")
        if time.perf_counter() >= deadline and (not trace or len(rounds) % 2 == 0):
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "orgsignals" / "cli.py").is_file():
        fail(f"no orgsignals sources under {SRC}")
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = Workload(args.workload, args.seed)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds = measure(workload, args.seconds, bool(args.trace), work)
        setup = [r["import_s"] for r in rounds if not r["traced"]]
        if not args.trace:
            while len(setup) < SETUP_SAMPLES:
                path = work / f"setup{len(setup)}.json"
                setup.append(run_child(path, path.with_suffix(".log"), [], False)["import_s"])

        check_round, errors = workload.checker()
        attempted = failed = 0
        for r in rounds:
            operations, failures, round_errors = check_round(r["out"])
            attempted += operations
            failed += failures
            errors += round_errors
        for line in errors[:20]:
            print(f"check failed: {line}", file=sys.stderr)

        plain = [r for r in rounds if not r["traced"]]
        if args.trace:
            traced = [r for r in rounds if r["traced"]]
            layers = [tracer.layer_metrics(r["trace"]) for r in traced]
            values = {name: statistics.median(layer[name] for layer in layers)
                      for name in layers[0]}
            values.update(import_times())
            values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in plain))
            listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
            missing = [m["name"] for m in listed if m["name"] not in values]
            if missing:
                fail(f"the traced run gives no value for {missing}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
            keep = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
            keep.parent.mkdir(parents=True, exist_ok=True)
            keep.write_text(json.dumps(traced[-1]["trace"]), encoding="utf-8")
        else:
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                                "unit": "MB"},
            }
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
              f"kernel {rounds[0]['kernel_backend']}, "
              f"wall_s {[round(r['wall_s'], 3) for r in rounds]}", file=sys.stderr)
        correct = not errors
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
