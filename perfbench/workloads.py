"""The benchmark's workloads, composed from the program's public calls.

Each workload has a ``setup`` (what a user pays once before work
starts) and a ``run_pass`` (one complete closed-loop pass: the next
call starts only when the previous one returned).  Every call into a
program layer sits inside a tracer span named after the layer, so a
traced pass splits its wall time by layer.

* ``campaign``: the Table III pipeline, Lab one-UE train and test
  campaigns at FAST sizing, three direction views, one worker.
* ``city``: a sharded multi-cell simulation with many UEs per cell on
  two process workers, its cell feeds drained through the stream
  service with a saved model (the ``serve --sim`` shape).
* ``replay``: a recorded corpus and saved model replayed through the
  stream service, then the correlation attack over every user pair.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps import app_names
from repro.core.correlation import CorrelationAttack
from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.features import N_FEATURES, WindowConfig
from repro.core.fingerprint import (HierarchicalFingerprinter,
                                    load_fingerprinter)
from repro.experiments.common import FAST, Scale
from repro.experiments.table3_lab import DIRECTION_VIEWS
from repro.lte.city import CityScenario, run_city
from repro.ml.metrics import per_class_scores
from repro.operators.profiles import LAB
from repro.runtime import ParallelMap
from repro.sniffer.trace import TraceSet
from repro.stream.service import ServiceReport, StreamService

from corpus import load_pairs
from tracer import Tracer

#: Decision threshold of the correlation verdict (the program default).
PAIR_THRESHOLD = 0.5

#: ``repro.obs`` counters of the simulator and sniffer layers.
SIM_COUNTERS = ("sim.grants", "sim.ttis", "sniffer.decoder.decoded",
                "sniffer.decoder.rejected", "sniffer.capture.lost",
                "sniffer.capture.captured")
PARALLEL_COUNTERS = ("runtime.parallel.items", "runtime.parallel.batches")


@dataclass
class PassResult:
    """What one pass did, for metrics, output checks and the guard."""

    attempted: int = 0
    failed: int = 0
    records: int = 0
    #: Host seconds of the stage that produced or consumed the records.
    record_s: float = 0.0
    app_accuracy: float = 1.0
    pair_f1: float = 1.0
    captures_ordered: int = 0
    #: Output-check failures (empty means the outputs are right).
    errors: List[str] = field(default_factory=list)
    #: Deterministic outputs the exact-repeat guard compares.
    guard: Dict[str, object] = field(default_factory=dict)
    #: Per-layer work counts measured from outside the program.
    counts: Dict[str, float] = field(default_factory=dict)


def digest(*parts) -> str:
    """Stable digest of arrays, floats (bit-exact) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _warm(model: HierarchicalFingerprinter) -> None:
    """First prediction compiles the forests' node tables; do it now."""
    model.predict_apps(np.zeros((1, N_FEATURES)))


def _verdict_key(verdict) -> Optional[tuple]:
    if verdict is None:
        return None
    return (verdict.app, verdict.category, float(verdict.confidence),
            verdict.window_count)


def _stream_outputs(report: ServiceReport, names: Sequence[str]):
    return [_verdict_key(report.trace_verdicts.get(name)) for name in names]


def _stream_counts(report: ServiceReport) -> Dict[str, float]:
    return {"stream.records": report.records,
            "stream.windows_closed": report.windows,
            "stream.ring_high_water": report.ring_high_water,
            "stream.close_lag_p99_s": report.lag_p99_s,
            "forest.predict_rows": report.windows}


def check_stream_against_batch(model: HierarchicalFingerprinter,
                               sources, report: ServiceReport) -> List[str]:
    """Stream verdicts must equal ``classify_traces`` on the same feeds."""
    batch = model.classify_traces([trace for _, trace in sources])
    errors = []
    for (name, _), expected in zip(sources, batch):
        got = _verdict_key(report.trace_verdicts.get(name))
        if got != _verdict_key(expected):
            errors.append(f"stream verdict of {name} {got} differs from "
                          f"classify_traces {_verdict_key(expected)}")
    return errors


class Campaign:
    """Table III: capture, window, fit and predict, all three views."""

    #: Program counters a traced pass must report.
    counters = SIM_COUNTERS + PARALLEL_COUNTERS + ("ml.forest.trees_fit",)

    def __init__(self, seed: int, scale: Scale = FAST) -> None:
        self.seed = seed
        self.scale = scale
        self.apps = list(app_names())

    def setup(self, tracer: Tracer) -> None:
        """Warm every layer once on a few seconds of one capture."""
        warm = collect_traces(self.apps[:1], operator=LAB, traces_per_app=1,
                              duration_s=2.0, seed=self.seed, workers=1)
        windows = windows_from_traces(warm)
        model = HierarchicalFingerprinter(n_trees=1, seed=self.seed)
        model.fit(windows)
        model.predict_apps(windows.X)

    def run_pass(self, tracer: Tracer) -> PassResult:
        result = PassResult()
        scale = self.scale
        campaigns = []
        for seed, per_app in ((self.seed, scale.traces_per_app),
                              (self.seed + 5000,
                               max(1, scale.traces_per_app // 2))):
            with tracer.span("lte.capture") as span:
                traces = collect_traces(
                    self.apps, operator=LAB, traces_per_app=per_app,
                    duration_s=scale.trace_duration_s, seed=seed,
                    workers=1)
            campaigns.append(traces)
            result.record_s += span.duration
            result.captures_ordered += len(self.apps) * per_app
        train, test = campaigns
        result.attempted = len(train) + len(test)
        result.failed = sum(1 for trace in list(train) + list(test)
                            if len(trace) == 0)
        result.records = sum(len(t) for t in list(train) + list(test))
        self.scores: Dict[str, Dict[str, tuple]] = {}
        parts = []
        correct = total = windows = fit_rows = 0
        for view_name, direction in DIRECTION_VIEWS:
            config = WindowConfig(direction=direction)
            with tracer.span("features"):
                w_train = windows_from_traces(train, config)
                w_test = windows_from_traces(
                    test, config, app_encoder=w_train.app_encoder,
                    category_encoder=w_train.category_encoder)
            windows += len(w_train) + len(w_test)
            fit_rows += len(w_train)
            model = HierarchicalFingerprinter(window_config=config,
                                              n_trees=scale.n_trees,
                                              seed=self.seed + 1)
            with tracer.span("forest.fit"):
                model.fit(w_train)
            with tracer.span("forest.predict"):
                predictions = model.predict_apps(w_test.X)
            per_class = per_class_scores(
                w_test.app_labels, predictions,
                n_classes=w_train.app_encoder.n_classes)
            self.scores[view_name] = {
                app: (per_class[i].f_score, per_class[i].precision,
                      per_class[i].recall)
                for i, app in enumerate(w_train.app_encoder.classes_)}
            correct += int(np.sum(predictions == w_test.app_labels))
            total += len(predictions)
            parts.append(predictions)
            if (len(predictions) != len(w_test)
                    or predictions.min() < 0
                    or predictions.max() >= w_train.app_encoder.n_classes):
                result.errors.append(f"{view_name}: predictions out of range")
        result.app_accuracy = correct / total if total else 0.0
        flat_scores = [value for view in self.scores.values()
                       for app in sorted(view) for value in view[app]]
        if not all(math.isfinite(value) for value in flat_scores):
            result.errors.append("non-finite per-class scores")
        result.guard = {
            "captures": result.attempted, "records": result.records,
            "features.windows": windows,
            "digest": digest(*parts, *map(float, flat_scores)),
            "app_accuracy": result.app_accuracy,
        }
        result.counts = {"features.windows": windows,
                         "forest.fit_rows": fit_rows,
                         "forest.predict_rows": total}
        return result

    def check(self, result: PassResult) -> None:
        """Every pass already checks its own predictions and scores."""


class _ServesModel:
    """Shared set-up of the workloads that serve a saved model."""

    def __init__(self, seed: int, model_path: Path) -> None:
        self.seed = seed
        self.model_path = model_path

    def _load_model(self, tracer: Tracer) -> None:
        with tracer.span("persistence.model_load"):
            self.model = load_fingerprinter(self.model_path)
        _warm(self.model)


class City(_ServesModel):
    """``run_city`` on two process workers, then the stream service."""

    counters = SIM_COUNTERS + PARALLEL_COUNTERS

    def __init__(self, seed: int, model_path: Path, n_cells: int = 4,
                 ues_per_cell: int = 64, epochs: int = 3,
                 workers: int = 2, shards: int = 2) -> None:
        super().__init__(seed, model_path)
        self.scenario = CityScenario(n_cells=n_cells,
                                     ues_per_cell=ues_per_cell,
                                     epochs=epochs, seed=seed)
        self.workers = workers
        self.shards = shards

    def setup(self, tracer: Tracer) -> None:
        self._load_model(tracer)

    def run_pass(self, tracer: Tracer) -> PassResult:
        result = PassResult()
        scenario = self.scenario
        with tracer.span("lte.capture") as span:
            city = run_city(scenario, mapper=ParallelMap(
                workers=self.workers), shards=self.shards)
        result.record_s = span.duration
        cells = scenario.cell_ids()
        result.attempted = len(cells) * scenario.epochs
        for cell in cells:
            times = (city.traces[cell].times_s if cell in city.traces
                     else np.empty(0))
            for epoch in range(scenario.epochs):
                lo = epoch * scenario.epoch_s
                hi = lo + scenario.epoch_s
                if not np.any((times >= lo) & (times < hi)):
                    result.failed += 1
        self.sources = [(cell, city.traces[cell]) for cell in cells
                        if cell in city.traces]
        result.records = city.total_records
        with tracer.span("stream"):
            self.report = StreamService(self.model, self.sources).run()
        names = [name for name, _ in self.sources]
        verdicts = _stream_outputs(self.report, names)
        result.attempted += len(names)
        result.failed += sum(1 for verdict in verdicts if verdict is None)
        record_digest = digest(*[trace.times_s for _, trace in self.sources],
                               *[trace.tbs_bytes for _, trace in self.sources])
        result.guard = {
            "cell_epochs": len(cells) * scenario.epochs,
            "records": result.records,
            "records.digest": record_digest,
            "stream.windows_closed": self.report.windows,
            "digest": digest(verdicts),
        }
        result.counts = {"city.spilled_bytes": city.spilled_bytes,
                         **_stream_counts(self.report)}
        return result

    def check(self, result: PassResult) -> None:
        """Compare the last pass's stream verdicts with the batch path.

        City traffic carries no app labels, so the city's app accuracy
        is the share of cell feeds whose stream verdict equals the
        batch verdict of ``classify_traces``.
        """
        errors = check_stream_against_batch(self.model, self.sources,
                                            self.report)
        result.app_accuracy = 1.0 - len(errors) / len(self.sources)
        result.errors.extend(errors)


@dataclass
class AppPairs:
    """One conversational app's correlation inputs."""

    app: str
    positives: list          # labelled communicating pairs
    negatives: list          # labelled non-communicating pairs
    candidates: list         # every pair of the app's test users
    truth: np.ndarray        # 1 where a candidate is a real conversation


def _by_app(conversations) -> Dict[str, list]:
    groups: Dict[str, list] = {}
    for pair in conversations:
        groups.setdefault(pair[0].label, []).append(pair)
    return groups


class Replay(_ServesModel):
    """Stream every recorded user, then correlate users of each app.

    As in Table VII, the correlation attack is trained per app: the
    attacker first names the app a user runs, then asks which users of
    that app talk to each other.
    """

    counters = ()

    def __init__(self, seed: int, model_path: Path,
                 recordings: Path) -> None:
        super().__init__(seed, model_path)
        self.recordings = recordings

    def setup(self, tracer: Tracer) -> None:
        self._load_model(tracer)
        with tracer.span("persistence.traces_load"):
            captures = TraceSet.from_npz(self.recordings / "captures.npz")
            train_legs = TraceSet.from_npz(
                self.recordings / "train_pairs.npz")
            test_legs = TraceSet.from_npz(self.recordings / "test_pairs.npz")
        users = list(captures) + list(test_legs)
        self.sources = [(trace.user, trace) for trace in users]
        test = _by_app(load_pairs(test_legs))
        self.apps: List[AppPairs] = []
        for app, train in _by_app(load_pairs(train_legs)).items():
            # Hard negatives: both users hold a real conversation on
            # the same app, just not with each other.
            negatives = [(first[0], second[1]) for first, second
                         in zip(train, train[1:] + train[:1])]
            legs = [leg for pair in test[app] for leg in pair]
            indices = list(combinations(range(len(legs)), 2))
            self.apps.append(AppPairs(
                app=app, positives=train, negatives=negatives,
                candidates=[(legs[i], legs[j]) for i, j in indices],
                truth=np.array([1 if j == i + 1 and i % 2 == 0 else 0
                                for i, j in indices])))
        self.n_pairs = sum(len(group.candidates) for group in self.apps)

    def run_pass(self, tracer: Tracer) -> PassResult:
        result = PassResult()
        with tracer.span("stream") as span:
            self.report = StreamService(self.model, self.sources).run()
        result.record_s = span.duration
        result.records = self.report.records
        names = [name for name, _ in self.sources]
        verdicts = _stream_outputs(self.report, names)
        labels = [trace.label for _, trace in self.sources]
        right = sum(1 for verdict, label in zip(verdicts, labels)
                    if verdict is not None and verdict[0] == label)
        result.app_accuracy = right / len(names)
        self.attacks, self.scores = [], []
        for group in self.apps:
            attack = CorrelationAttack(threshold=PAIR_THRESHOLD,
                                       seed=self.seed)
            with tracer.span("correlation.fit"):
                attack.fit(group.positives, group.negatives)
            with tracer.span("correlation.score"):
                scores = attack.decision_scores(group.candidates)
            self.attacks.append(attack)
            self.scores.append(scores)
        scores = np.concatenate(self.scores)
        truth = np.concatenate([group.truth for group in self.apps])
        result.pair_f1 = f1_score(
            truth, (scores >= PAIR_THRESHOLD).astype(np.int64))
        result.attempted = len(names) + self.n_pairs
        result.failed = (sum(1 for verdict in verdicts if verdict is None)
                         + int(np.sum(~np.isfinite(scores))))
        result.guard = {
            "records": result.records,
            "stream.windows_closed": self.report.windows,
            "correlation.pairs": self.n_pairs,
            "digest": digest(verdicts, scores),
            "app_accuracy": result.app_accuracy,
            "pair_f1": result.pair_f1,
        }
        result.counts = {"correlation.pairs": self.n_pairs,
                         **_stream_counts(self.report)}
        return result

    def check(self, result: PassResult, sample: int = 12) -> None:
        """Stream verdicts equal ``classify_traces``; pair verdicts equal
        ``predict_pairs`` on evenly spread pairs of every app."""
        result.errors.extend(check_stream_against_batch(
            self.model, self.sources, self.report))
        for group, attack, scores in zip(self.apps, self.attacks,
                                         self.scores):
            step = max(1, len(group.candidates) // sample)
            picked = list(range(0, len(group.candidates), step))
            expected = attack.predict_pairs(
                [group.candidates[index] for index in picked])
            got = (scores[picked] >= PAIR_THRESHOLD).astype(np.int64)
            if not np.array_equal(expected, got):
                result.errors.append(f"{group.app}: decision scores "
                                     "disagree with predict_pairs")


def f1_score(truth: np.ndarray, predicted: np.ndarray) -> float:
    tp = int(np.sum((truth == 1) & (predicted == 1)))
    fp = int(np.sum((truth == 0) & (predicted == 1)))
    fn = int(np.sum((truth == 1) & (predicted == 0)))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
