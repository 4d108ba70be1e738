"""Emitted metric names follow BENCHMARK.json; the seed drives the inputs."""

import json
import re
from pathlib import Path

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_per_layer_names_match_the_spec():
    batch = workloads.Batch({"wall": 2.0}, [])
    emitted = run.per_layer([], [], [batch], workers=0, pools=0, untraced_wall=1.0)
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(emitted) == sorted(declared)
    assert all(NAME.match(name) for name in emitted)


def test_end_to_end_names_match_the_spec():
    batch = workloads.Batch({"wall": 2.0, "cold": 1.5, "warm": 0.5}, [])
    emitted = run.end_to_end([batch], [1.0, 2.0, 3.0], 100.0, 10)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in emitted.items()} == declared
    assert all(NAME.match(name) for name in emitted)
    assert all(value > 0 for value, _ in emitted.values())


def test_workload_names_match_the_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_seed_changes_the_campaign_inputs():
    one = [task.seed for task in workloads.campaign_manifest(1)]
    assert one == [task.seed for task in workloads.campaign_manifest(1)]
    two = [task.seed for task in workloads.campaign_manifest(2)]
    assert len(one) == len(two) == 396
    assert not set(one) & set(two)
    warm = [task.seed for task in workloads.campaign_manifest(workloads.warmup_seed(1))]
    assert not set(one) & set(warm)


def test_seed_changes_an_experiment():
    from repro.experiments import run_experiment

    first = run_experiment("fig02", seed=1, quick=True).render()
    assert first == run_experiment("fig02", seed=1, quick=True).render()
    assert first != run_experiment("fig02", seed=2, quick=True).render()
