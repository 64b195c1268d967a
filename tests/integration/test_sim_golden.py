"""Golden equivalence: the engine is bit-identical to the oracle loop.

The size-adaptive, array-backed :class:`~repro.lte.enb.ENodeB` replaced
the per-UE object loop, which survives only as a test oracle
(:mod:`tests.oracle.legacy_enb`).  The contract is not "statistically
similar" but **bit-identical**: same seeds in, same trace bytes out, for
every scheduler, every obfuscation knob, HARQ, capture loss/corruption,
and RNTI refresh — with the oracle's grants blind-decoded one encoded
DCI at a time and the engine's handed off as columnar batches.  These
goldens pin that contract:

* single-cell scenario sweep, engine vs oracle, comparing every trace
  column plus capture/tracker observability;
* the experiment driver path (``collect_trace``) with the oracle
  patched in, proving drivers need no changes;
* the sharded city simulator across shard counts {1, 2, 4} on both the
  serial and the process ``ParallelMap`` backends, and against the
  oracle.

The literal digests of the same output live in
``tests/integration/test_frozen_goldens.py``.
"""

import hashlib
import inspect

import pytest

from repro.core.dataset import collect_trace
from repro.lte.channel import ChannelProfile
from repro.lte.city import CityScenario, run_city
from repro.lte.dci import Direction
from repro.lte.enb import ENodeB
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.scheduler import CrossTraffic
from repro.operators import LAB
from repro.runtime.parallel import ParallelMap
from repro.sniffer.capture import CellSniffer
from tests.oracle.legacy_enb import (LegacyENodeB, add_oracle_cell,
                                     attach_oracle_sniffer, install_oracle)

#: Scenario sweep: (scheduler, cell kwargs, capture profile kwargs).
SCENARIOS = [
    ("round-robin", {}, {}),
    ("proportional-fair", {}, {}),
    ("max-cqi", {}, {}),
    ("proportional-fair",
     {"channel_profile": ChannelProfile(harq_bler=0.12),
      "cross_traffic": CrossTraffic(mean_load=0.3)},
     {"capture_loss": 0.05, "corruption_prob": 0.05}),
    ("round-robin",
     {"obfuscation": ObfuscationConfig(padding_quantum=8,
                                       chaff_probability=0.2,
                                       rnti_refresh_s=0.6)},
     {}),
]


def _simulate(oracle, scheduler_name, cell_kwargs, capture_kwargs,
              seed=42, duration_s=1.5):
    net = LTENetwork(seed=seed)
    profile = (ChannelProfile(**capture_kwargs) if capture_kwargs
               else None)
    sniffer = CellSniffer("golden", capture_profile=profile, seed=7)
    if oracle:
        add_oracle_cell(net, "golden", scheduler_name=scheduler_name,
                        total_prb=50, **cell_kwargs)
        attach_oracle_sniffer(net, sniffer)
    else:
        net.add_cell("golden", scheduler_name=scheduler_name, total_prb=50,
                     **cell_kwargs)
        sniffer.attach(net)
    ues = [net.add_ue(name=f"ue{i}") for i in range(4)]
    rng_schedule = [(0.01, 0, Direction.DOWNLINK, 400_000),
                    (0.02, 1, Direction.DOWNLINK, 90_000),
                    (0.05, 2, Direction.UPLINK, 30_000),
                    (0.30, 3, Direction.DOWNLINK, 1_500_000),
                    (0.70, 0, Direction.UPLINK, 250_000),
                    (0.90, 1, Direction.DOWNLINK, 12_000)]
    for at_s, index, direction, size in rng_schedule:
        net.clock.schedule(int(at_s * 1_000_000),
                           lambda u=ues[index], d=direction, s=size:
                           net.deliver_traffic(u, d, s))
    net.run_for(duration_s)
    return net, sniffer


def _trace_digest(sniffer):
    digest = hashlib.sha256()
    for rnti in sniffer.observed_rntis():
        trace = sniffer.trace_for_rnti(rnti)
        digest.update(rnti.to_bytes(4, "big"))
        digest.update(trace.times_s.tobytes())
        digest.update(trace.rntis.tobytes())
        digest.update(trace.directions.tobytes())
        digest.update(trace.tbs_bytes.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scheduler_name,cell_kwargs,capture_kwargs",
                         SCENARIOS)
def test_vector_engine_trace_golden(scheduler_name, cell_kwargs,
                                    capture_kwargs):
    oracle_net, oracle_sniffer = _simulate(True, scheduler_name,
                                           cell_kwargs, capture_kwargs)
    engine_net, engine_sniffer = _simulate(False, scheduler_name,
                                           cell_kwargs, capture_kwargs)
    assert _trace_digest(oracle_sniffer) == _trace_digest(engine_sniffer)
    assert (oracle_sniffer.total_records > 0
            or not capture_kwargs)  # lossy runs may drop, clean must see
    oracle_enb = oracle_net.cells["golden"].enb
    engine_enb = engine_net.cells["golden"].enb
    assert type(engine_enb) is ENodeB
    assert type(oracle_enb) is LegacyENodeB
    assert engine_enb.grants_issued == oracle_enb.grants_issued
    assert engine_enb.bytes_granted == oracle_enb.bytes_granted
    assert (engine_enb.harq_retransmissions
            == oracle_enb.harq_retransmissions)
    assert engine_enb.obfuscation_stats == oracle_enb.obfuscation_stats
    assert (engine_sniffer.tracker.active_rntis()
            == oracle_sniffer.tracker.active_rntis())
    assert (engine_sniffer.decoder.capture_stats
            == oracle_sniffer.decoder.capture_stats)


def _trace_bytes(trace):
    return hashlib.sha256(
        trace.times_s.tobytes() + trace.rntis.tobytes()
        + trace.directions.tobytes() + trace.tbs_bytes.tobytes()
    ).hexdigest()


def test_collect_trace_matches_oracle(monkeypatch):
    """``collect_trace`` runs unchanged on the engine and on the oracle."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    engine_trace = collect_trace("Netflix", operator=LAB, duration_s=6.0,
                                 seed=77)
    with monkeypatch.context() as patch:
        install_oracle(patch)
        oracle_trace = collect_trace("Netflix", operator=LAB,
                                     duration_s=6.0, seed=77)
    assert len(engine_trace) > 0
    assert _trace_bytes(engine_trace) == _trace_bytes(oracle_trace)


def test_no_engine_or_lane_knob(monkeypatch):
    """One engine: nothing selects an engine or a grant lane."""
    assert "engine" not in inspect.signature(LTENetwork.add_cell).parameters
    assert "engine" not in inspect.signature(run_city).parameters
    monkeypatch.setenv("REPRO_SIM_ENGINE", "legacy")
    net = LTENetwork(seed=1)
    assert type(net.add_cell("c").enb) is ENodeB


def _city_digest(result):
    digest = hashlib.sha256()
    for cell_id in sorted(result.traces):
        trace = result.traces[cell_id]
        digest.update(cell_id.encode())
        digest.update(trace.times_s.tobytes())
        digest.update(trace.rntis.tobytes())
        digest.update(trace.directions.tobytes())
        digest.update(trace.tbs_bytes.tobytes())
    return digest.hexdigest()


class TestShardedCityGoldens:
    SCENARIO = CityScenario(n_cells=4, ues_per_cell=3, epochs=2,
                            epoch_s=1.0, seed=11, migration_prob=0.4)

    @pytest.fixture(scope="class")
    def reference(self):
        result = run_city(self.SCENARIO, ParallelMap(workers=1), shards=1)
        assert result.total_records > 0
        assert result.spilled_bytes > 0
        return _city_digest(result)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_backend_bit_identical(self, reference, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=1, backend="serial"),
                          shards=shards)
        assert _city_digest(result) == reference
        assert result.shards == shards

    @pytest.mark.parametrize("shards", [2, 4])
    def test_process_backend_bit_identical(self, reference, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=2, backend="process"),
                          shards=shards)
        assert _city_digest(result) == reference

    def test_legacy_engine_city_matches(self, reference, monkeypatch):
        install_oracle(monkeypatch)
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=1, backend="serial"),
                          shards=2)
        assert _city_digest(result) == reference
