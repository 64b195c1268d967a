#!/usr/bin/env python
"""Benchmark guard: the TTI engine vs the object oracle, plus the lane sweep.

Four measurements go into ``BENCH_simulator.json`` at the repo root:

* **saturated-cell guard** — a proportional-fair cell with 2048 UEs, each
  holding a large downlink and uplink backlog, so each TTI runs the full
  scheduler and grant path; timed once with the object oracle loop
  (``tests/oracle``) and once with the engine.  The engine must be at
  least ``MIN_SPEEDUP``× faster, and the speedup must not regress by more
  than ``REGRESSION_FACTOR``× against the committed file (loaded before
  it is overwritten).
* **UEs-per-cell sweep** — saturated cells of 1 to 2048 UEs with a
  sniffer attached, for every scheduler: captured records per second of
  the engine, of the oracle, and of the engine with each grant lane
  forced (the lane constant patched in this process only).  Where the
  forced lanes cross is what justifies ``SCALAR_LANE_MAX``.
* **one-UE Lab row** — a Lab capture campaign shaped like every
  experiment's (one UE per cell, ``collect_traces``); the engine's
  records per second must be at least the oracle's.
* **sharded city scaling sweep** — ``run_city`` over 1, 2 and 4 shards.

Run via ``make bench-sim``, ``python -m repro.cli bench sim``, or
``python benchmarks/bench_simulator.py``.
"""

import contextlib
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
OUT = REPO_ROOT / "BENCH_simulator.json"

MIN_SPEEDUP = 10.0
REGRESSION_FACTOR = 2.0
ROUNDS = 3

N_UES = 2048
TOTAL_PRB = 100
WARM_S = 0.5           # all UEs finish RRC setup before timing starts
TIMED_S = 0.5          # 500 TTIs

#: UEs per cell of the crossover sweep.
SWEEP_UES = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 256, 512, 1024, 2048)
SWEEP_SCHEDULERS = ("round-robin", "proportional-fair", "max-cqi")
SWEEP_WARM_S = 0.1     # uplink-first arrivals connect within 80 ms
SWEEP_TIMED_S = 0.2
SWEEP_ROUNDS = 3

#: The one-UE Lab campaign: one 40 s capture of every app.
LAB_DURATION_S = 40.0

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(REPO_ROOT))


@contextlib.contextmanager
def _oracle():
    """Route new cells and sniffers through the object oracle loop."""
    import pytest

    from tests.oracle.legacy_enb import install_oracle

    with pytest.MonkeyPatch.context() as patch:
        install_oracle(patch)
        yield


@contextlib.contextmanager
def _forced_lane(lane):
    """Pin every TTI to one grant lane by patching the crossover constant."""
    from repro.lte import enb, vecsched

    saved = enb.SCALAR_LANE_MAX, vecsched.SCALAR_LANE_MAX
    limit = 1 << 30 if lane == "scalar" else 0
    enb.SCALAR_LANE_MAX = vecsched.SCALAR_LANE_MAX = limit
    try:
        yield
    finally:
        enb.SCALAR_LANE_MAX, vecsched.SCALAR_LANE_MAX = saved


def _variant(name):
    if name == "oracle":
        return _oracle()
    if name in ("scalar", "array"):
        return _forced_lane(name)
    return contextlib.nullcontext()


def _build_network():
    from repro.lte.channel import ChannelProfile
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork

    net = LTENetwork(seed=7)
    net.add_cell("bench", scheduler_name="proportional-fair",
                 total_prb=TOTAL_PRB,
                 channel_profile=ChannelProfile(mean_cqi=12, cqi_span=2,
                                                cqi_step_prob=0.05))
    for index in range(N_UES):
        ue = net.add_ue(name=f"ue{index}")
        net.deliver_traffic(ue, Direction.DOWNLINK, 50_000_000)
        net.deliver_traffic(ue, Direction.UPLINK, 50_000_000)
    return net


def _time_guard(variant):
    best = float("inf")
    grants = 0
    for _ in range(ROUNDS):
        with _variant(variant):
            net = _build_network()
            net.run_for(WARM_S)            # connection setup + warm-up
            started = time.perf_counter()
            net.run_for(TIMED_S)
            best = min(best, time.perf_counter() - started)
        grants = net.cells["bench"].enb.grants_issued
    return best, grants


def _sweep_once(scheduler_name, n_ues, variant):
    """Captured records and records per second of one saturated cell."""
    from repro.lte.channel import ChannelProfile
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork
    from repro.sniffer.capture import CellSniffer

    with _variant(variant):
        net = LTENetwork(seed=11)
        net.add_cell("sweep", scheduler_name=scheduler_name,
                     total_prb=TOTAL_PRB,
                     channel_profile=ChannelProfile(
                         mean_cqi=12, cqi_span=2, cqi_step_prob=0.05))
        sniffer = CellSniffer("sweep", seed=3).attach(net)
        for index in range(n_ues):
            ue = net.add_ue(name=f"ue{index}")
            net.deliver_traffic(ue, Direction.UPLINK, 50_000_000)
            net.deliver_traffic(ue, Direction.DOWNLINK, 50_000_000)
        net.run_for(SWEEP_WARM_S)
        before = sniffer.total_records
        started = time.perf_counter()
        net.run_for(SWEEP_TIMED_S)
        elapsed = time.perf_counter() - started
    records = sniffer.total_records - before
    return records, records / elapsed


def _crossover_sweep():
    variants = ("engine", "oracle", "scalar", "array")
    rows = []
    crossovers = {}
    for scheduler_name in SWEEP_SCHEDULERS:
        scalar_wins = []
        for n_ues in SWEEP_UES:
            # Rounds interleave the variants so host drift hits them alike.
            best = dict.fromkeys(variants, 0.0)
            counts = set()
            for _ in range(SWEEP_ROUNDS):
                for variant in variants:
                    records, rate = _sweep_once(scheduler_name, n_ues,
                                                variant)
                    counts.add(records)
                    best[variant] = max(best[variant], rate)
            if len(counts) != 1:
                raise RuntimeError(f"variants captured different record "
                                   f"counts {sorted(counts)} "
                                   f"({scheduler_name}, {n_ues} UEs)")
            row = {"scheduler": scheduler_name, "ues": n_ues,
                   "records": counts.pop()}
            row.update({f"{variant}_rec_per_s": best[variant]
                        for variant in variants})
            if best["scalar"] >= best["array"]:
                scalar_wins.append(n_ues)
            rows.append(row)
            print(f"  {scheduler_name:17s} {n_ues:5d} UEs: engine "
                  f"{best['engine']:9.0f}  oracle {best['oracle']:9.0f}  "
                  f"scalar {best['scalar']:9.0f}  array "
                  f"{best['array']:9.0f} rec/s", flush=True)
        # Largest swept size up to which the scalar lane never lost.
        crossovers[scheduler_name] = max(
            (n for n in SWEEP_UES
             if all(m in scalar_wins for m in SWEEP_UES if m <= n)),
            default=0)
    return rows, crossovers


def _lab_rate(variant):
    from repro import runtime
    from repro.apps import app_names
    from repro.core.dataset import collect_traces
    from repro.operators import LAB

    best = 0.0
    records = 0
    for _ in range(ROUNDS):
        with _variant(variant), runtime.overrides(cache_enabled=False):
            started = time.perf_counter()
            traces = collect_traces(list(app_names()), operator=LAB,
                                    traces_per_app=1,
                                    duration_s=LAB_DURATION_S, seed=1,
                                    workers=1)
            elapsed = time.perf_counter() - started
        records = sum(len(trace) for trace in traces)
        best = max(best, records / elapsed)
    return best, records


def _shard_scaling():
    from repro.lte.city import CityScenario, run_city
    from repro.runtime.parallel import ParallelMap

    scenario = CityScenario(n_cells=8, ues_per_cell=12, epochs=1,
                            epoch_s=1.0, seed=3,
                            mean_request_bytes=800_000,
                            request_rate_hz=4.0)
    sweep = []
    for shards, workers in ((1, 1), (2, 2), (4, 4)):
        mapper = ParallelMap(workers=workers,
                             backend="process" if workers > 1 else "serial")
        started = time.perf_counter()
        result = run_city(scenario, mapper, shards=shards)
        sweep.append({"shards": shards, "workers": workers,
                      "wall_s": time.perf_counter() - started,
                      "records": result.total_records,
                      "spilled_bytes": result.spilled_bytes})
    return sweep


def main() -> int:
    from repro.lte.vecsched import SCALAR_LANE_MAX

    previous_speedup = None
    if OUT.exists():
        try:
            previous_speedup = json.loads(
                OUT.read_text())["results"]["speedup"]
        except (ValueError, KeyError):
            previous_speedup = None

    oracle_s, oracle_grants = _time_guard("oracle")
    engine_s, engine_grants = _time_guard("engine")
    if oracle_grants != engine_grants:
        print(f"FAIL: engine and oracle diverged ({engine_grants} vs "
              f"{oracle_grants} grants)", file=sys.stderr)
        return 1
    speedup = oracle_s / engine_s
    print(f"simulator guard: oracle {oracle_s:.3f} s, engine "
          f"{engine_s:.3f} s -> {speedup:.1f}x (target >= "
          f"{MIN_SPEEDUP:.0f}x)", flush=True)
    print("UEs-per-cell sweep (captured records per second):")
    rows, crossovers = _crossover_sweep()
    engine_lab, lab_records = _lab_rate("engine")
    oracle_lab, oracle_lab_records = _lab_rate("oracle")
    if lab_records != oracle_lab_records:
        print(f"FAIL: Lab campaign diverged ({lab_records} vs "
              f"{oracle_lab_records} records)", file=sys.stderr)
        return 1
    print(f"one-UE Lab campaign: engine {engine_lab:.0f} rec/s, oracle "
          f"{oracle_lab:.0f} rec/s")
    sweep = _shard_scaling()

    document = {
        "description": "Saturated single-cell TTI loop (proportional-fair"
                       f", {N_UES} UEs, {TOTAL_PRB} PRB, "
                       f"{int(TIMED_S * 1000)} TTIs timed): object oracle "
                       "loop vs the size-adaptive engine, best of "
                       f"{ROUNDS}; a UEs-per-cell sweep of captured "
                       "records per second for the engine, the oracle "
                       "and each forced grant lane; a one-UE Lab "
                       "campaign; plus a sharded city scaling sweep.",
        "workload": {
            "ues": N_UES,
            "total_prb": TOTAL_PRB,
            "timed_ttis": int(TIMED_S * 1000),
            "rounds": ROUNDS,
            "grants_per_engine": engine_grants,
            "sweep_timed_ttis": int(SWEEP_TIMED_S * 1000),
            "sweep_rounds": SWEEP_ROUNDS,
            "lab_duration_s": LAB_DURATION_S,
            # Shard scaling tracks available cores: per-(shard, epoch)
            # tasks are independent, so on k >= shards cores the sweep
            # approaches max per-shard time; on this host it is bounded
            # by cpu_count.
            "cpu_count": os.cpu_count(),
        },
        "results": {
            "oracle_wall_s": oracle_s,
            "engine_wall_s": engine_s,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "lane_sweep": rows,
            "crossover": {
                "scalar_lane_max": SCALAR_LANE_MAX,
                "measured_scalar_wins_up_to": crossovers,
            },
            "lab_one_ue": {
                "records": lab_records,
                "engine_rec_per_s": engine_lab,
                "oracle_rec_per_s": oracle_lab,
            },
            "shard_sweep": sweep,
        },
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"crossover: SCALAR_LANE_MAX = {SCALAR_LANE_MAX}; scalar lane "
          f"measured faster up to {crossovers} UEs -> {OUT.name}")
    for entry in sweep:
        print(f"  city shards={entry['shards']} workers={entry['workers']}: "
              f"{entry['wall_s']:.3f} s, {entry['records']} records")

    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.1f}x below the "
              f"{MIN_SPEEDUP:.0f}x floor", file=sys.stderr)
        return 1
    if (previous_speedup is not None
            and speedup < previous_speedup / REGRESSION_FACTOR):
        print(f"FAIL: speedup {speedup:.1f}x regressed more than "
              f"{REGRESSION_FACTOR:.0f}x against the recorded "
              f"{previous_speedup:.1f}x", file=sys.stderr)
        return 1
    if engine_lab < oracle_lab:
        print(f"FAIL: one-UE Lab capture at {engine_lab:.0f} rec/s is "
              f"slower than the oracle's {oracle_lab:.0f} rec/s",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
