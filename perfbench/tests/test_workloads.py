"""Tiny-size smoke runs of every workload, and agreement between
BENCHMARK.json and the code that reports its metrics."""

import json
import os
import time

import pytest

import run
import workloads
from tracing import METRICS, Tracer, layer_metrics
from worker import run_replicas

TINY = {
    "ascent": workloads.Ascent(n4=16, n2=520, delta=0.125, star=2, embed_delta=0.5),
    "parisi": workloads.Parisi(grid=(13.0, 0.13)),
    "ensemble": workloads.Ensemble(n=12, ga_steps=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = TINY[name]
    specs = [workload.inputs(7, i) for i in range(2)]
    assert specs == [workload.inputs(7, i) for i in range(2)]  # pure in (seed, index)
    records = run_replicas(workload, specs, str(tmp_path))
    for r in records:
        assert r["error"] is None, r["error"]
        assert r["checks"] and all(c["ok"] for c in r["checks"]), r["checks"]
    assert os.listdir(tmp_path) == []  # replica scratch directories are removed


def test_traced_tiny_run_attributes_time_to_layers(tmp_path):
    workload = TINY["ensemble"]
    tracer = Tracer()
    tracer.install()
    try:
        records = run_replicas(workload, [workload.inputs(3, 0)], str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert records[0]["ok"]
    wall = records[0]["seconds"]
    values = layer_metrics(tracer.spans, overhead_s=0.0)
    assert 0.0 < values["tracing.self_s_total"] <= wall
    assert values["ensembles.sample.calls"] == 2  # the round trip's and the branching's
    assert values["ensembles.leaf_hamiltonian.calls"] == 4
    assert values["optimizers.gradient_ascent.steps"] == 4 * 3
    assert values["hamiltonian.snapshot.bytes"] > 0
    assert sum(values[f"{layer}.errors"] for layer in ("hamiltonian", "ensembles", "ogp")) == 0


class _SlowCheck:
    def steps(self, spec, workdir):
        return [(lambda: time.sleep(0.05), lambda _out: time.sleep(0.3) or [])] * 2


def test_replica_time_leaves_the_checks_out(tmp_path):
    (record,) = run_replicas(_SlowCheck(), [None], str(tmp_path))
    assert record["ok"]
    assert 0.09 <= record["seconds"] < 0.5 <= record["check_s"]


def test_replica_count_follows_seconds_not_machine_speed():
    assert workloads.replica_count(workloads.Ensemble(), 1) == 1
    assert workloads.replica_count(workloads.Ensemble(), 22) == 5
    assert workloads.replica_count(workloads.Parisi(), 25) == 2


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    fake = {"replicas": [{"seconds": 2.0}], "peak_rss_mb": 1.0}
    e2e = run.end_to_end(fake, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_v, u) in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
