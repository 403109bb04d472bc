"""Scenario generator: determinism, validation, and regime monotonicity."""

import json
from datetime import timedelta

import pytest

from orgsignals.graph import TimeWindowConfig
from orgsignals.signals import LexiconConfig, compute_signal_record
from orgsignals.synth import (
    CORPUS_START,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    UNIT_NAME,
    ScenarioError,
    ScenarioSpec,
    generate,
    reference_dictionary,
    write_bundle,
)
from orgsignals.table import EventTable


def spec_dict(**overrides):
    base = {
        "name": "test",
        "n_actors": 5,
        "duration_days": 35,
        "topology": {"kind": "star"},
        "reply_delay_hours": {"kind": "constant", "value": 4.0},
        "nudge_profile": 1,
        "lexicon_mix": {"mean": 0.5, "std": 0.25},
        "vocabulary": {"in_dictionary_fraction": 1.0},
        "seed": 42,
    }
    base.update(overrides)
    return base


def analyze_scenario(data):
    """Run a generated scenario through the signal pipeline."""
    spec = ScenarioSpec.from_dict(data)
    events, sidecar = generate(spec)
    mapping = spec.unit_mapping()
    stream = [e for e in events if mapping.get(e.sender) == UNIT_NAME]
    members = {a for a, u in mapping.items() if u == UNIT_NAME}
    analysis = sidecar["analysis"]
    cfg = TimeWindowConfig(
        timedelta(days=analysis["window_days"]), timedelta(days=analysis["step_days"])
    )
    lexicon = LexiconConfig(set(POSITIVE_WORDS), set(NEGATIVE_WORDS), reference_dictionary())
    record = compute_signal_record(
        UNIT_NAME,
        (CORPUS_START, CORPUS_START + timedelta(days=spec.duration_days)),
        EventTable.from_events(stream), cfg, lexicon, members=members,
        response_horizon=timedelta(hours=analysis["response_horizon_hours"]),
    )
    return record, sidecar


# ---------------------------------------------------------------------------
# determinism and validation
# ---------------------------------------------------------------------------

def test_same_seed_byte_identical(tmp_path):
    spec = ScenarioSpec.from_dict(spec_dict())
    write_bundle(spec, tmp_path / "a")
    write_bundle(spec, tmp_path / "b")
    for name in ("events.csv", "expected.json", "units.csv",
                 "positive.txt", "negative.txt", "reference_dictionary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_changes_corpus(tmp_path):
    write_bundle(ScenarioSpec.from_dict(spec_dict(seed=1)), tmp_path / "a")
    write_bundle(ScenarioSpec.from_dict(spec_dict(seed=2)), tmp_path / "b")
    assert (tmp_path / "a/events.csv").read_bytes() != (tmp_path / "b/events.csv").read_bytes()


def test_generated_events_satisfy_invariants():
    events, _ = generate(ScenarioSpec.from_dict(spec_dict(n_actors=6)))
    assert events == sorted(events, key=lambda e: e.timestamp)
    ids = set()
    for e in events:
        e.validate()
        assert e.message_id not in ids
        ids.add(e.message_id)


@pytest.mark.parametrize("overrides,field", [
    ({"n_actors": 1}, "n_actors"),
    ({"duration_days": 0}, "duration_days"),
    ({"topology": {"kind": "mesh"}}, "topology.kind"),
    ({"topology": {"kind": "rotating_star", "rotation_period_days": 6}}, "duration_days"),
    ({"topology": {"kind": "random", "p": 0.0}}, "topology.p"),
    ({"nudge_profile": 0}, "nudge_profile"),
    ({"reply_delay_hours": {"kind": "constant", "value": -1}}, "reply_delay_hours"),
    ({"reply_delay_hours": {"kind": "constant", "value": 200}}, "reply_delay_hours"),
    ({"lexicon_mix": {"mean": 0.1, "std": 0.4}}, "lexicon_mix"),
    ({"vocabulary": {"in_dictionary_fraction": 1.5}}, "vocabulary.in_dictionary_fraction"),
])
def test_invalid_specs_name_the_field(overrides, field):
    with pytest.raises(ScenarioError, match=field.replace(".", "\\.")):
        ScenarioSpec.from_dict(spec_dict(**overrides))


def test_nudges_must_fit_before_reply():
    with pytest.raises(ScenarioError, match="nudge run"):
        ScenarioSpec.from_dict(
            spec_dict(nudge_profile=10, reply_delay_hours={"kind": "constant", "value": 2.0})
        )


# ---------------------------------------------------------------------------
# planted regimes measured through the pipeline
# ---------------------------------------------------------------------------

def test_star_scenario_measures_planted_values():
    record, sidecar = analyze_scenario(spec_dict())
    expected = sidecar["expected"]
    assert record.central_leadership == pytest.approx(1.0, abs=1e-9)
    assert record.avg_response_time_hours == pytest.approx(4.0, abs=0.01)
    assert record.rotating_leadership == pytest.approx(0.0, abs=1e-9)
    assert record.honest_sentiment == pytest.approx(expected["honest_sentiment"], abs=1e-9)
    assert record.balanced_contribution == pytest.approx(
        expected["balanced_contribution"], abs=1e-9
    )
    assert record.responsiveness == pytest.approx(expected["responsiveness"], abs=1e-9)


def test_rotating_star_measures_rate_one():
    record, sidecar = analyze_scenario(spec_dict(
        n_actors=6,
        topology={"kind": "rotating_star", "rotation_period_days": 7},
        reply_delay_hours=None,
    ))
    assert sidecar["expected"]["rotating_leadership"] == 1.0
    assert record.rotating_leadership == pytest.approx(1.0, abs=1e-9)
    assert record.rotating_leadership_ci == pytest.approx(1.0, abs=1e-9)
    assert record.central_leadership == pytest.approx(1.0, abs=1e-9)


def test_ring_scenario_is_egalitarian():
    record, _ = analyze_scenario(spec_dict(n_actors=8, topology={"kind": "ring"}))
    assert record.central_leadership == pytest.approx(0.0, abs=1e-9)
    assert record.rotating_leadership == pytest.approx(0.0, abs=1e-9)


def test_nudge_profile_measured():
    record, sidecar = analyze_scenario(spec_dict(
        nudge_profile=2, reply_delay_hours={"kind": "constant", "value": 4.0}
    ))
    assert record.avg_nudges == pytest.approx(2.0)
    assert record.avg_response_time_hours == pytest.approx(4.0, abs=0.01)


def test_uniform_delays_average_matches_tally():
    record, sidecar = analyze_scenario(spec_dict(
        reply_delay_hours={"kind": "uniform", "low": 2.0, "high": 6.0}
    ))
    assert record.avg_response_time_hours == pytest.approx(
        sidecar["expected"]["avg_response_time_hours"], abs=1e-9
    )
    assert 2.0 <= record.avg_response_time_hours <= 6.0


def test_random_topology_volume():
    events, _ = generate(ScenarioSpec.from_dict(spec_dict(
        n_actors=50, duration_days=10,
        topology={"kind": "random", "p": 0.02},
        reply_delay_hours=None,
    )))
    # round(0.02 * 50 * 49) = 49 messages per day
    assert len(events) == 490


# ---------------------------------------------------------------------------
# regime monotonicity
# ---------------------------------------------------------------------------

def test_longer_delays_decrease_responsiveness():
    fast, _ = analyze_scenario(spec_dict(reply_delay_hours={"kind": "constant", "value": 2.0}))
    slow, _ = analyze_scenario(spec_dict(reply_delay_hours={"kind": "constant", "value": 40.0}))
    assert fast.responsiveness > slow.responsiveness


def test_wider_emotional_mix_increases_sentiment_dispersion():
    narrow, _ = analyze_scenario(spec_dict(lexicon_mix={"mean": 0.5, "std": 0.05}))
    wide, _ = analyze_scenario(spec_dict(lexicon_mix={"mean": 0.5, "std": 0.25}))
    assert wide.honest_sentiment > narrow.honest_sentiment


def test_out_of_dictionary_tokens_increase_divergence():
    in_dict, _ = analyze_scenario(spec_dict(vocabulary={"in_dictionary_fraction": 1.0}))
    out_dict, _ = analyze_scenario(spec_dict(vocabulary={"in_dictionary_fraction": 0.3}))
    assert out_dict.innovative_language > in_dict.innovative_language
    assert out_dict.oov_rate > in_dict.oov_rate


def test_sidecar_lists_analysis_settings():
    _, sidecar = analyze_scenario(spec_dict())
    assert sidecar["analysis"]["window_days"] == 7
    assert sidecar["analysis"]["response_horizon_hours"] == pytest.approx(8.0)
    assert sidecar["unit"] == UNIT_NAME
