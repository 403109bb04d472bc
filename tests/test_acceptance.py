"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 8 and 10 drive the full pipeline through the CLI.
"""

import json
import random
import time
from datetime import timedelta

import numpy as np
import pytest

import orgsignals
from orgsignals.calibrate import adjusted_r2, fit_ols, nested_model_table, DesignMatrix
from orgsignals.cli import main
from orgsignals.graph import betweenness_centrality, group_centralization
from orgsignals.signals import (
    extract_response_events,
    jensen_shannon_divergence,
    oscillation_count,
)
from orgsignals.table import EventTable

from conftest import T0, mk_event
from oracles import (
    brute_betweenness,
    brute_oscillations,
    brute_response_runs,
    make_graph,
    normal_equations_fit,
)


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_c01_adjusted_r2_anchor():
    value = adjusted_r2(0.7544, 16, 3)
    assert abs(value - 0.6930) <= 5e-5
    ok("01 adjusted-R2 anchor", f"(got {value:.5f})")


def test_c02_betweenness_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(20240801)
    for _ in range(200):
        n = rng.randint(3, 8)
        p = rng.choice([0.2, 0.4, 0.7])
        edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
        g = make_graph(n, edges)
        values = betweenness_centrality(g)
        expected = brute_betweenness(n, edges)
        for i, node in enumerate(g.nodes):
            assert abs(values[node] - float(expected[i])) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok("02 betweenness oracle", f"(200 graphs in {elapsed:.2f}s)")


def test_c03_centralization_extremes():
    for n in range(3, 13):
        star = make_graph(n, [(0, i) for i in range(1, n)])
        cycle = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert group_centralization(betweenness_centrality(star)) == pytest.approx(1.0, abs=1e-9)
        assert group_centralization(betweenness_centrality(cycle)) == pytest.approx(0.0, abs=1e-9)
    ok("03 centralization extremes", "(star=1, cycle=0 for n in 3..12)")


def test_c04_oscillation_oracle():
    rng = random.Random(77)
    for _ in range(1000):
        length = rng.randint(1, 50)
        series = [rng.choice([-2, -1, 0, 1, 2, 0.5]) for _ in range(length)]
        assert oscillation_count(series) == brute_oscillations(series)
    ok("04 oscillation oracle", "(1000 fuzzed series)")


def test_c05_response_extraction_oracle():
    rng = random.Random(555)
    for trial in range(100):
        horizon = timedelta(hours=rng.choice([6, 24, 72, 14 * 24]))
        events, a_times, b_times = [], [], []
        clock = 0
        for _ in range(rng.randint(1, 40)):
            clock += rng.choice([0, 1, 2, 4, 30, 90])
            if rng.random() < 0.5:
                a_times.append(T0 + timedelta(hours=clock))
                events.append(mk_event("a@x.com", ["b@x.com"], hours=clock,
                                       message_id=f"<a{trial}-{len(events)}>"))
            else:
                b_times.append(T0 + timedelta(hours=clock))
                events.append(mk_event("b@x.com", ["a@x.com"], hours=clock,
                                       message_id=f"<b{trial}-{len(events)}>"))
        got = sorted(
            (r.requester, r.run_start, r.run_last, r.response_at, r.nudges)
            for r in extract_response_events(EventTable.from_events(events), horizon)
        )
        expected = sorted(
            [("a@x.com", *run) for run in brute_response_runs(a_times, b_times, horizon)]
            + [("b@x.com", *run) for run in brute_response_runs(b_times, a_times, horizon)]
        )
        assert got == expected
        # censored runs never emit: every emitted close is within horizon
        for _, run_start, _, response_at, _ in got:
            assert response_at - run_start <= horizon
    ok("05 response extraction oracle", "(100 fuzzed timelines)")


def test_c06_jsd_properties():
    value = jensen_shannon_divergence({"a": 1.0}, {"a": 0.5, "b": 0.5})
    assert abs(value - 0.3113) <= 1e-4
    rng = random.Random(9)
    for _ in range(300):
        keys = "abcdefg"
        p = {k: rng.random() + 0.01 for k in rng.sample(keys, rng.randint(1, 6))}
        q = {k: rng.random() + 0.01 for k in rng.sample(keys, rng.randint(1, 6))}
        p = {k: v / sum(p.values()) for k, v in p.items()}
        q = {k: v / sum(q.values()) for k, v in q.items()}
        forward = jensen_shannon_divergence(p, q)
        assert forward == pytest.approx(jensen_shannon_divergence(q, p), abs=1e-12)
        assert 0.0 <= forward <= 1.0
        assert jensen_shannon_divergence(p, p) == 0.0
    assert jensen_shannon_divergence({"x": 1.0}, {"y": 1.0}) == pytest.approx(1.0)
    ok("06 JSD properties", f"(hand case {value:.4f})")


def test_c07_ols_oracle():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        p = int(rng.integers(1, 5))
        x = np.column_stack([np.ones(16), rng.normal(size=(16, p))])
        y = rng.normal(size=16)
        names = [f"x{i}" for i in range(p)]
        result = fit_ols(DesignMatrix(names, x, y, [f"u{i}" for i in range(16)]))
        beta = np.array(list(result.coefficients.values()))
        assert np.max(np.abs(beta - normal_equations_fit(x, y))) < 1e-9
        residuals = y - x @ beta
        scale = max(1.0, float(np.abs(x).max() * np.abs(y).max()))
        assert np.max(np.abs(x.T @ residuals)) < 1e-8 * scale
    ok("07 OLS oracle", "(100 random 16-row designs)")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end regime discrimination through the CLI
# ---------------------------------------------------------------------------

SCENARIOS = {
    "static_star": {"topology": {"kind": "star"},
                    "reply_delay_hours": {"kind": "constant", "value": 4.0}},
    "rotating_star": {"topology": {"kind": "rotating_star", "rotation_period_days": 7},
                      "reply_delay_hours": None},
    "ring": {"topology": {"kind": "ring"},
             "reply_delay_hours": {"kind": "constant", "value": 4.0}},
    "fast_replies": {"topology": {"kind": "star"},
                     "reply_delay_hours": {"kind": "constant", "value": 2.0}},
    "slow_replies": {"topology": {"kind": "star"},
                     "reply_delay_hours": {"kind": "constant", "value": 40.0}},
    "narrow_emotion": {"topology": {"kind": "star"},
                       "lexicon_mix": {"mean": 0.5, "std": 0.05}},
    "wide_emotion": {"topology": {"kind": "star"},
                     "lexicon_mix": {"mean": 0.5, "std": 0.25}},
}


def run_scenario(tmp_path, name, overrides):
    data = {
        "name": name, "n_actors": 8, "duration_days": 35,
        "lexicon_mix": {"mean": 0.5, "std": 0.25},
        "vocabulary": {"in_dictionary_fraction": 1.0},
        "seed": 31, **overrides,
    }
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(data))
    bundle = tmp_path / name
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(bundle)]) == 0
    sidecar = json.loads((bundle / "expected.json").read_text())
    analysis = sidecar["analysis"]
    out = tmp_path / f"{name}-analysis"
    assert main([
        "analyze",
        "--events", str(bundle / "events.csv"),
        "--units", str(bundle / "units.csv"),
        "--positive", str(bundle / "positive.txt"),
        "--negative", str(bundle / "negative.txt"),
        "--reference", str(bundle / "reference_dictionary.csv"),
        "--window-days", str(analysis["window_days"]),
        "--step-days", str(analysis["step_days"]),
        "--response-horizon-hours", str(analysis["response_horizon_hours"]),
        "--corpus-start", "2024-01-01T00:00:00+00:00",
        "--corpus-end", "2024-02-05T00:00:00+00:00",
        "--out-dir", str(out),
    ]) == 0
    header, row = (out / "signals.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    measured = {k: (float(v) if v else None) for k, v in values.items()
                if k not in ("unit", "period_start", "period_end")}
    return measured, sidecar["expected"]


def test_c08_regime_discrimination(tmp_path):
    started = time.perf_counter()
    measured = {}
    for name, overrides in SCENARIOS.items():
        measured[name], expected = run_scenario(tmp_path, name, overrides)
        for signal, value in expected.items():
            assert measured[name][signal] == pytest.approx(value, abs=1e-9), (
                f"{name}.{signal}: expected {value}, got {measured[name][signal]}"
            )

    assert measured["static_star"]["central_leadership"] == pytest.approx(1.0, abs=1e-9)
    assert measured["ring"]["central_leadership"] == pytest.approx(0.0, abs=1e-9)
    assert (measured["static_star"]["central_leadership"]
            - measured["ring"]["central_leadership"]) >= 0.5

    assert (measured["rotating_star"]["rotating_leadership"]
            - measured["static_star"]["rotating_leadership"]) >= 0.5

    assert measured["fast_replies"]["avg_response_time_hours"] == pytest.approx(2.0, abs=0.01)
    assert measured["slow_replies"]["avg_response_time_hours"] == pytest.approx(40.0, abs=0.01)
    assert measured["fast_replies"]["responsiveness"] > measured["slow_replies"]["responsiveness"]

    assert measured["wide_emotion"]["honest_sentiment"] > measured["narrow_emotion"]["honest_sentiment"]
    # planted dispersions (exactness against the sidecar tally is asserted above)
    assert measured["wide_emotion"]["honest_sentiment"] == pytest.approx(0.25, abs=1e-3)
    assert measured["narrow_emotion"]["honest_sentiment"] == pytest.approx(0.05, abs=1e-3)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok("08 regime discrimination", f"({len(SCENARIOS)} scenarios in {elapsed:.1f}s)")


def test_c09_generate_then_fit_shape():
    truth = {"intercept": 1.0, "honest_sentiment": 0.14,
             "responsiveness": 0.05, "central_leadership": -0.07}
    within = 0
    signs = 0
    for k in range(100):
        rng = random.Random(202000 + k)
        rows, perf = [], {}
        for i in range(16):
            e = rng.uniform(0.0, 0.5)
            r = rng.uniform(0.2, 1.0)
            s = rng.uniform(0.0, 1.0)
            rows.append({"unit": f"u{i}", "honest_sentiment": e,
                         "responsiveness": r, "central_leadership": s})
            perf[f"u{i}"] = (1.0 + 0.14 * e + 0.05 * r - 0.07 * s
                             + rng.gauss(0.0, 0.005))
        table = nested_model_table(rows, perf)
        assert len(table.models) == 3
        (_, m1), (_, m2), (_, m3) = table.models
        if all(abs(m3.coefficients[t] - v) <= 3 * m3.std_errors[t]
               for t, v in truth.items()):
            within += 1
        if (m1.coefficients["honest_sentiment"] > 0
                and m2.coefficients["responsiveness"] > 0
                and m3.coefficients["central_leadership"] < 0):
            signs += 1
    assert within >= 95, f"only {within}/100 trials recovered all coefficients"
    assert signs >= 95, f"only {signs}/100 trials matched the +,+,- sign shape"
    ok("09 generate-then-fit", f"(within 3SE: {within}/100, signs: {signs}/100)")


def test_c10_throughput_100k(tmp_path):
    scenario = tmp_path / "bulk.json"
    scenario.write_text(json.dumps({
        "name": "bulk", "n_actors": 500, "duration_days": 364,
        "topology": {"kind": "random", "p": 0.0011022},
        "reply_delay_hours": None,
        "lexicon_mix": {"mean": 0.3, "std": 0.1},
        "vocabulary": {"in_dictionary_fraction": 0.8},
        "seed": 1,
    }))
    bundle = tmp_path / "bulk"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(bundle)]) == 0
    n_messages = sum(1 for _ in open(bundle / "events.csv")) - 1
    assert n_messages >= 100_000

    started = time.perf_counter()
    assert main([
        "analyze",
        "--events", str(bundle / "events.csv"),
        "--units", str(bundle / "units.csv"),
        "--positive", str(bundle / "positive.txt"),
        "--negative", str(bundle / "negative.txt"),
        "--reference", str(bundle / "reference_dictionary.csv"),
        "--window-days", "7", "--step-days", "7",
        "--corpus-start", "2024-01-01T00:00:00+00:00",
        "--corpus-end", "2024-12-30T00:00:00+00:00",
        "--out-dir", str(tmp_path / "bulk-analysis"),
    ]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, (
        f"analyze took {elapsed:.1f}s on the {orgsignals.KERNEL_BACKEND} kernel"
    )
    rows = (tmp_path / "bulk-analysis/signals.csv").read_text().splitlines()
    assert len(rows) == 2
    ok("10 throughput", f"({n_messages} messages analyzed in {elapsed:.1f}s)")
