"""Inputs of the workloads, made from the seed and cached per seed.

Analysis corpora come from `orgsignals.synth` (which also writes the
construction-side `expected.json`); mail archives from `mailgen`.  Each
bundle is written to a temporary directory and renamed into place, so an
interrupted run never leaves half a bundle behind, and a cached bundle is
reused by every later run with the same seed.  Input generation is
therefore part of no metric.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import mailgen

# the test_c10_throughput_100k scenario: 500 actors, 364 days, 100,100 messages
C10 = {"n_actors": 500, "duration_days": 364, "p": 0.0011022}
# the same population at 72 messages a day (26,208 messages): deep, sparse windows
SPARSE = {"n_actors": 500, "duration_days": 364, "p": 0.000289}
CORPUS_START = "2024-01-01T00:00:00+00:00"
CORPUS_END = "2024-12-30T00:00:00+00:00"


def _cached(cache: Path, name: str, build) -> Path:
    final = cache / name
    if final.is_dir():
        return final
    tmp = cache / f".{name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        build(tmp)
        os.rename(tmp, final)
    except OSError:
        if not final.is_dir():
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def _synth_bundle(shape: dict, seed: int, out: Path) -> None:
    from orgsignals import synth

    spec = synth.ScenarioSpec(
        name="bench", n_actors=shape["n_actors"], duration_days=shape["duration_days"],
        topology="random", edge_probability=shape["p"], emotional_mean=0.3,
        emotional_std=0.1, in_dictionary_fraction=0.8, seed=seed,
    )
    synth.write_bundle(spec, out)
    # every actor a unit of its own, named after the address's local part
    with open(out / "units_per_actor.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("address,unit\n")
        for i in range(shape["n_actors"]):
            actor = spec.actor(i)
            fh.write(f"{actor},{actor.split('@')[0]}\n")


def c10_bundle(cache: Path, seed: int) -> Path:
    return _cached(cache, f"c10-seed{seed}", lambda out: _synth_bundle(C10, seed, out))


def sparse_bundle(cache: Path, seed: int) -> Path:
    return _cached(cache, f"sparse-seed{seed}", lambda out: _synth_bundle(SPARSE, seed, out))


def mbox_bundle(cache: Path, seed: int) -> Path:
    return _cached(cache, f"mbox-seed{seed}", lambda out: mailgen.write_archives(seed, out))
