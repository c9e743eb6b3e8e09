"""Fast smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from evcoref import pair_model  # noqa: E402
from evcoref.model import Dims  # noqa: E402

TINY = workloads.Sizes(
    docs={"train": 6, "dev": 2, "test": 4}, epochs=1, setup_epochs=1, dims=Dims(d=8, l=4, p=8, w=1),
    long_tokens=(30, 40), long_clusters=(2, 4), predict_docs=3, predict_mentions=(4, 10),
    train_docs=2, train_mentions=(4, 10), train_epochs=1, heldout_docs=2)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def repetition(workload, trace):
    return workloads.run_child(workload, 1, trace, time.clock_gettime(time.CLOCK_MONOTONIC), TINY)


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_every_named_metric_is_reported_with_its_unit(workload):
    plain, traced = repetition(workload, False), repetition(workload, True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["attempted"] == workloads.planned_docs(workload, TINY) and plain["failed"] == 0

    e2e = run.aggregate([plain], trace=0)
    assert {n: m["unit"] for n, m in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in e2e.values())

    layers = run.aggregate([plain, traced], trace=1)
    assert {n: m["unit"] for n, m in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in layers.values())


def test_a_call_that_stops_firing_fails_the_repetition(monkeypatch):
    install = tracer.Tracer.install

    def install_then_bypass(self, ev):
        install(self, ev)
        # As if score_document_node no longer called cdgm under that name.
        # ``uninstall`` puts the original back afterwards.
        pair_model.cdgm = pair_model.cdgm.__wrapped__

    monkeypatch.setattr(tracer.Tracer, "install", install_then_bypass)
    record = repetition("long-predict", True)
    assert any("pair_model.cdgm" in f for f in record["failures"])


def test_a_renamed_function_stops_the_tracer_before_any_work():
    with pytest.raises(AttributeError):
        tracer.Tracer().wrap(pair_model, "cdgm_gate", "pair_model.cdgm")


RECORD = {"seed": 1, "failures": [], "wall_s": 1.0, "test_avg": 0.5, "test_conll": 0.5, "train_loss": 1.0}


def test_repetitions_of_one_draw_must_agree():
    assert run.failures([RECORD, dict(RECORD, wall_s=2.0), dict(RECORD, seed=1001, test_avg=0.6)]) == []
    assert run.failures([RECORD, dict(RECORD, test_avg=0.6)]) == [
        "test_avg differs between repetitions of seed 1"]


def test_grid_ordering_is_checked_on_the_mean_over_draws():
    def grid(seed, simple):
        return dict(RECORD, seed=seed, variant_avg={"cdgm+noise": 0.9, "simple": simple, "baseline": 0.7})

    assert run.failures([grid(1, 0.8), grid(1001, 0.69)]) == []
    assert len(run.failures([grid(1, 0.8), grid(1001, 0.5)])) == 1


def test_no_result_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
