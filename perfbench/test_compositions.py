"""Self-tests: each workload composes the program the commands run.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q

They run at small sizes: the campaign at SMOKE scale, the replay and
the city on a corpus a fraction of the benchmark's.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
import run
from repro import runtime
from repro.experiments.common import SMOKE
from repro.experiments.table3_lab import run_fingerprinting
from repro.lte.city import CityScenario, run_city
from repro.operators.profiles import LAB
from repro.runtime import ParallelMap
from tracer import Tracer
from workloads import City, Campaign, Replay

SMALL = corpus.CorpusSize(train_traces_per_app=2, train_duration_s=10.0,
                          n_trees=6, captures_per_app=1,
                          capture_duration_s=10.0,
                          train_conversations_per_app=2,
                          test_conversations_per_app=2, conversation_s=10.0)


@pytest.fixture(autouse=True)
def no_trace_cache():
    with runtime.overrides(cache_enabled=False, workers=1, fault_plan=None):
        yield


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    with runtime.overrides(cache_enabled=False, workers=1, fault_plan=None):
        for part in corpus.PARTS:
            corpus.generate(part, 7, out, size=SMALL)
    return out


def test_campaign_matches_table3_at_smoke():
    workload = Campaign(seed=3, scale=SMOKE)
    result = workload.run_pass(Tracer("test"))
    assert not result.errors
    assert workload.scores == run_fingerprinting(LAB, SMOKE, seed=3).scores


def test_replay_matches_batch_paths(small_corpus):
    workload = Replay(7, small_corpus / "model.json", small_corpus)
    workload.setup(Tracer("test"))
    result = workload.run_pass(Tracer("test"))
    batch = workload.model.classify_traces(
        [trace for _, trace in workload.sources])
    for (name, _), expected in zip(workload.sources, batch):
        assert workload.report.trace_verdicts[name] == expected
    for group, attack, scores in zip(workload.apps, workload.attacks,
                                     workload.scores):
        assert np.array_equal((scores >= 0.5).astype(np.int64),
                              attack.predict_pairs(group.candidates))
    workload.check(result)
    assert not result.errors


def test_city_traces_identical_at_one_and_two_shards():
    scenario = CityScenario(n_cells=3, ues_per_cell=4, epochs=2, seed=5)
    one = run_city(scenario, mapper=ParallelMap(workers=1), shards=1)
    two = run_city(scenario, mapper=ParallelMap(workers=2), shards=2)
    assert one.traces.keys() == two.traces.keys()
    for cell, trace in one.traces.items():
        other = two.traces[cell]
        for column in ("times_s", "rntis", "directions", "tbs_bytes"):
            assert np.array_equal(getattr(trace, column),
                                  getattr(other, column))


def test_city_outputs_identical_at_one_and_two_shards(small_corpus):
    guards = []
    for workers, shards in ((1, 1), (2, 2)):
        workload = City(5, small_corpus / "model.json", n_cells=3, ues_per_cell=4,
                        epochs=2, workers=workers, shards=shards)
        workload.setup(Tracer("test"))
        result = workload.run_pass(Tracer("test"))
        workload.check(result)
        assert not result.errors
        guards.append(result.guard)
    assert guards[0] == guards[1]


def test_guard_reports_every_changed_value():
    assert run._guard_mismatches({"a": 1, "b": 2}, {"a": 1, "b": 3,
                                                     "c": 4}) == [
        "b: 2 then 3"]


def test_exits_nonzero_without_a_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = Path(__file__).resolve().parent
    for path in here.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(
        (here.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") and "correct" in json.loads(line)
                   for line in done.stdout.splitlines())
