"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

The run pins every program knob (trace cache off, one default worker,
observability off unless traced, no fault plan), sets the workload up
several times, then runs closed-loop passes until ``--seconds`` have
passed (at least two, so every run repeats its own outputs).  With
``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` traced passes (program counters on, spans kept) alternate
with untraced ones and the last line holds the per-layer metrics,
including the tracing overhead.  The exit code is 1 when an output
check, the exact-repeat guard or the simulations count fails, 2 when
the checkout holds no program.  See ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Every run repeats at least this many passes (the in-run repeat check).
MIN_PASSES = 2
#: Reported for a program counter the workload should produce but the
#: program did not report (e.g. counters of process workers).
MISSING = -1.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "city", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_process() -> None:
    """Pin the program's knobs and keep temporary files in the checkout."""
    import corpus

    pinned = corpus.pinned_env()
    os.environ.clear()
    os.environ.update(pinned)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))


def _environment() -> Dict[str, object]:
    import numpy

    from repro import runtime

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "code_fingerprint": runtime.code_fingerprint()}


def _peak_rss_mb() -> float:
    """Peak resident set of this process (workers not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _guard_mismatches(reference: Dict, record: Dict) -> List[str]:
    return [f"{key}: {reference[key]!r} then {record[key]!r}"
            for key in sorted(set(reference) & set(record))
            if reference[key] != record[key]]


def _bench_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _file_guard(workload: str, seed: int, record: Dict) -> List[str]:
    """Compare with earlier runs of this workload and seed, then merge.

    The state is keyed by the benchmark's own code but survives program
    edits on purpose: a change that only makes the program faster must
    reproduce every guarded value.  Delete ``.perfbench-work/guard`` to
    accept a change of outputs.
    """
    path = WORK / "guard" / f"{workload}-seed{seed}-{_bench_digest()}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    mismatches = _guard_mismatches(earlier, record)
    if not mismatches:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**earlier, **record}, indent=1,
                                   sort_keys=True))
    return mismatches


def _layer_metrics(workload, tracer, root, result, snapshot,
                   simulations: int) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_s = tracer.self_times(root)
    counters = snapshot["counters"]
    spans = snapshot["spans"]
    expected = workload.counters

    def counter(name: str) -> float:
        if name in counters:
            return float(counters[name])
        return MISSING if name in expected else 0.0

    def rate(count: float, seconds: float) -> float:
        if count == MISSING:
            return MISSING
        return count / seconds if seconds > 0 else 0.0

    counts = result.counts
    capture_s = self_s.get("lte.capture", 0.0)
    grants = counter("sim.grants")
    decoded = counter("sniffer.decoder.decoded")
    captured = counter("sniffer.capture.captured")
    features_s = self_s.get("features", 0.0)
    windows = counts.get("features.windows", 0)
    predict = spans.get("fingerprint.predict", {"total_s": 0.0})
    score_s = self_s.get("correlation.score", 0.0)
    pairs = counts.get("correlation.pairs", 0)
    wall = root.duration
    return {
        "lte.capture_s": capture_s,
        "lte.grants": grants,
        "lte.ttis": counter("sim.ttis"),
        "lte.grants_per_s": rate(grants, capture_s),
        "sniffer.decoded": decoded,
        "sniffer.rejected": counter("sniffer.decoder.rejected"),
        "sniffer.lost": counter("sniffer.capture.lost"),
        "sniffer.decode_yield": (MISSING if MISSING in (decoded, captured)
                                 else rate(decoded, captured)),
        "features.s": features_s,
        "features.windows": windows,
        "features.windows_per_s": rate(windows, features_s),
        "forest.fit_s": self_s.get("forest.fit", 0.0),
        "forest.trees_fit": counter("ml.forest.trees_fit"),
        "forest.fit_rows": counts.get("forest.fit_rows", 0),
        "forest.predict_s": predict["total_s"],
        "forest.predict_rows_per_s": rate(
            counts.get("forest.predict_rows", 0), predict["total_s"]),
        "stream.s": self_s.get("stream", 0.0),
        "stream.records": counts.get("stream.records", 0),
        "stream.chunks": spans.get("stream.ingest", {"count": 0})["count"],
        "stream.windows_closed": counts.get("stream.windows_closed", 0),
        "stream.ring_high_water": counts.get("stream.ring_high_water", 0),
        "stream.close_lag_p99_s": counts.get("stream.close_lag_p99_s", 0.0),
        "correlation.fit_s": self_s.get("correlation.fit", 0.0),
        "correlation.score_s": score_s,
        "correlation.pairs": pairs,
        "correlation.pairs_per_s": rate(pairs, score_s),
        "parallel.items": counter("runtime.parallel.items"),
        "parallel.batches": counter("runtime.parallel.batches"),
        "city.spilled_bytes": counts.get("city.spilled_bytes", 0),
        "runtime.simulations": simulations,
        "trace.wall_s": wall,
        "trace.uncovered_s": self_s.get("pass", 0.0),
        "trace.coverage": 1.0 - self_s.get("pass", 0.0) / wall,
    }


def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit of one kind, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _workload(args: argparse.Namespace):
    import corpus
    from workloads import Campaign, City, Replay

    if args.workload == "campaign":
        return Campaign(args.seed)
    model = corpus.ensure("model", args.seed, WORK) / "model.json"
    if args.workload == "city":
        return City(args.seed, model)
    return Replay(args.seed, model,
                  corpus.ensure("recordings", args.seed, WORK))


class Passes:
    """The closed-loop passes of one run, with their checks."""

    def __init__(self) -> None:
        self.results = []
        self.walls = []           # root spans of untraced passes
        self.traced_walls = []    # root spans of traced passes
        self.layers: List[Dict[str, float]] = []
        self.guard: Dict[str, object] = {}
        self.counters: Dict[str, int] = {}
        self.errors: List[str] = []

    def run(self, workload, tracer, seconds: float, trace: bool) -> None:
        from repro import obs, runtime

        started = time.perf_counter()
        while True:
            # Start another pass only if it should end within --seconds.
            elapsed = time.perf_counter() - started
            pass_s = _median([span.duration
                              for span in self.walls + self.traced_walls])
            if (len(self.results) >= MIN_PASSES
                    and elapsed + pass_s > seconds):
                return
            traced = trace and len(self.results) % 2 == 1
            obs.enable(traced)
            obs.reset()
            runtime.reset_stats()
            with tracer.span("pass") as root:
                result = workload.run_pass(tracer)
            obs.enable(False)
            self._record(workload, tracer, root, result, traced,
                         runtime.stats().simulations, obs.snapshot())

    def _record(self, workload, tracer, root, result, traced: bool,
                simulations: int, snapshot: Dict) -> None:
        index = len(self.results)
        if simulations != result.captures_ordered:
            self.errors.append(
                f"pass {index}: {simulations} simulations for "
                f"{result.captures_ordered} captures ordered")
        if traced:
            self.counters = snapshot["counters"]
            for key, name in (("lte.grants", "sim.grants"),
                              ("lte.ttis", "sim.ttis"),
                              ("sniffer.decoded", "sniffer.decoder.decoded")):
                if name in self.counters:
                    result.guard[key] = self.counters[name]
            self.layers.append(_layer_metrics(workload, tracer, root, result,
                                              snapshot, simulations))
            self.traced_walls.append(root)
        else:
            self.walls.append(root)
        self.errors.extend(f"pass {index} differs: {mismatch}" for mismatch
                           in _guard_mismatches(self.guard, result.guard))
        self.guard.update(result.guard)
        self.results.append(result)


def _end_to_end(passes: Passes, setups) -> Dict[str, float]:
    results = passes.results
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    last = results[-1]
    return {
        "setup_s": _median([span.duration for span in setups]),
        "wall_s": _median([span.duration for span in passes.walls]),
        "records_per_s": _median([result.records / result.record_s
                                  for result in results
                                  if result.record_s > 0]),
        "peak_rss_mb": _peak_rss_mb(),
        "app_accuracy": last.app_accuracy,
        "pair_f1": last.pair_f1,
        "success_ratio": 1.0 - failed / attempted,
    }


def _per_layer(passes: Passes, tracer, setups) -> Dict[str, float]:
    metrics = {name: _median([layer[name] for layer in passes.layers])
               for name in passes.layers[0]}
    setup_self = [tracer.self_times(span) for span in setups]
    for layer in ("persistence.model_load", "persistence.traces_load"):
        metrics[layer + "_s"] = _median(
            [times.get(layer, 0.0) for times in setup_self])
    metrics["trace.overhead_ratio"] = (
        _median([span.duration for span in passes.traced_walls])
        / _median([span.duration for span in passes.walls]))
    return metrics


def run(args: argparse.Namespace) -> int:
    from repro import obs, runtime
    from tracer import Tracer

    runtime.configure(workers=1, cache_enabled=False, fault_plan=None)
    if runtime.trace_cache() is not None or runtime.fault_plan() is not None:
        raise RuntimeError("trace cache or fault plan still active")
    workload = _workload(args)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id)
    obs.enable(False)
    setups = []
    for _ in range(SETUPS):
        with tracer.span("setup") as span:
            workload.setup(tracer)
        setups.append(span)

    passes = Passes()
    passes.run(workload, tracer, args.seconds, bool(args.trace))
    last = passes.results[-1]
    workload.check(last)
    errors = passes.errors + [error for result in passes.results
                              for error in result.errors]
    errors.extend(f"differs from an earlier run: {mismatch}" for mismatch
                  in _file_guard(args.workload, args.seed, passes.guard))
    if args.trace:
        metrics = _per_layer(passes, tracer, setups)
        units = _declared("per_layer")
    else:
        metrics = _end_to_end(passes, setups)
        units = _declared("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not both measured and declared")
    missing = sorted(name for name, value in metrics.items()
                     if value == MISSING)

    record = {"run_id": run_id, "workload": args.workload,
              "seed": args.seed, "trace": args.trace,
              "passes": len(passes.results), "environment": _environment(),
              "pass_walls_s": [span.duration for span in passes.walls],
              "traced_pass_walls_s": [span.duration
                                      for span in passes.traced_walls],
              "missing": missing, "errors": errors, "guard": passes.guard,
              "obs_counters": passes.counters, "metrics": metrics}
    out_dir = WORK / "runs" / run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(out_dir / "spans.jsonl")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("run_id", "passes", "environment", "missing")}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(result.attempted for result in passes.results),
        "failed": sum(result.failed for result in passes.results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if not errors else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    _pin_process()
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
