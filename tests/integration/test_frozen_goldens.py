"""Frozen simulator goldens: literal digests of the engine's output.

Each test runs a fixed, seeded scenario through the default simulator
and compares a sha256 of everything observable — every captured trace
column, the eNB grant counters, the obfuscation accounting, the capture
channel statistics and the tracker's active set — against a literal
recorded from the engine when these goldens were frozen.  Any change to
the TTI loop, the schedulers or the sniffer hand-off that alters a
single byte, a single random draw or a single counter fails here, so
performance work on the engine can prove it changed nothing.

Covered: the single-cell scenario sweep (three schedulers; HARQ, cross
traffic and capture loss/corruption; padding, chaff and RNTI refresh),
``collect_trace`` on Lab and on a lossy operator, one 5G ``GNodeB``
scenario, and the sharded city scenario.
"""

import hashlib

import pytest

from repro.apps import make_app
from repro.core.dataset import collect_trace
from repro.fiveg import add_nr_cell
from repro.lte.channel import ChannelProfile
from repro.lte.city import CityScenario, run_city
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.scheduler import CrossTraffic
from repro.operators import LAB, VERIZON
from repro.runtime.parallel import ParallelMap
from repro.sniffer.capture import CellSniffer

#: (scheduler, cell kwargs, capture profile kwargs, frozen digest).
SCENARIOS = [
    ("round-robin", {}, {},
     "6469d960033650038bfc81ff89f01266e79e56a54bf1b4cae8f788bb502e9ed6"),
    ("proportional-fair", {}, {},
     "394e77c21d2f53be6a76332d2a37823e6b4894a62807af733ee17a806ad4df19"),
    ("max-cqi", {}, {},
     "4346ea02a5945874aa1ad3446d105c52c5fdbfddc264dddf24bc346565d6264d"),
    ("proportional-fair",
     {"channel_profile": ChannelProfile(harq_bler=0.12),
      "cross_traffic": CrossTraffic(mean_load=0.3)},
     {"capture_loss": 0.05, "corruption_prob": 0.05},
     "75879be93513707e3207fa33ce5c0f340a57f6472f4c85d97672bc35e581975d"),
    ("round-robin",
     {"obfuscation": ObfuscationConfig(padding_quantum=8,
                                       chaff_probability=0.2,
                                       rnti_refresh_s=0.6)},
     {},
     "d5668776f169c3e530649e3cb531930ac3b0ec3c520ca050a360b1f28ad370cb"),
]

#: The same six-arrival schedule the engine differential tests use.
ARRIVALS = [(0.01, 0, Direction.DOWNLINK, 400_000),
            (0.02, 1, Direction.DOWNLINK, 90_000),
            (0.05, 2, Direction.UPLINK, 30_000),
            (0.30, 3, Direction.DOWNLINK, 1_500_000),
            (0.70, 0, Direction.UPLINK, 250_000),
            (0.90, 1, Direction.DOWNLINK, 12_000)]

COLLECT_TRACE_DIGESTS = {
    "Lab":
    "f43db5a2514c42a6dfaffa73f3dd1643527d054a94495a2d07b23c6cc14bc50b",
    "Verizon":
    "057e5ebbaa939667857af609b7f5a64d81b1b0d7ea6afa941e40df9e91c1fe7a",
}

FIVEG_DIGEST = (
    "053083ca8dbe448c542277c3d310717c6a5019603566972c9dd6b4f16891b53a")

CITY_DIGEST = (
    "21f04d4fe428ff636b0b53ea1bbc21650772a08dea0690eb4dcf23f3c71af1ce")


def _update_trace(digest, trace):
    digest.update(trace.times_s.tobytes())
    digest.update(trace.rntis.tobytes())
    digest.update(trace.directions.tobytes())
    digest.update(trace.tbs_bytes.tobytes())


def _cell_digest(enb, sniffer):
    """Every trace byte plus the counters of the eNB and the sniffer."""
    digest = hashlib.sha256()
    for rnti in sniffer.observed_rntis():
        digest.update(rnti.to_bytes(4, "big"))
        _update_trace(digest, sniffer.trace_for_rnti(rnti))
    stats = enb.obfuscation_stats
    digest.update(repr((
        enb.grants_issued, enb.bytes_granted, enb.harq_retransmissions,
        stats.useful_bytes, stats.padding_bytes, stats.chaff_bytes,
        stats.chaff_grants, stats.rnti_refreshes,
        sorted(sniffer.decoder.capture_stats.items()),
        sorted(sniffer.tracker.active_rntis()),
        [(a.rnti, a.confirmed_s, a.last_seen_s, a.records)
         for a in sniffer.tracker.history()],
        sniffer.mapper.mappings_learned,
        len(sniffer.control_log()))).encode())
    return digest.hexdigest()


def _simulate(scheduler_name, cell_kwargs, capture_kwargs, seed=42,
              duration_s=1.5):
    net = LTENetwork(seed=seed)
    net.add_cell("golden", scheduler_name=scheduler_name, total_prb=50,
                 **cell_kwargs)
    profile = ChannelProfile(**capture_kwargs) if capture_kwargs else None
    sniffer = CellSniffer("golden", capture_profile=profile,
                          seed=7).attach(net)
    ues = [net.add_ue(name=f"ue{i}") for i in range(4)]
    for at_s, index, direction, size in ARRIVALS:
        net.clock.schedule(int(at_s * 1_000_000),
                           lambda u=ues[index], d=direction, s=size:
                           net.deliver_traffic(u, d, s))
    net.run_for(duration_s)
    return net.cells["golden"].enb, sniffer


@pytest.mark.parametrize("scheduler_name,cell_kwargs,capture_kwargs,expected",
                         SCENARIOS)
def test_scenario_sweep_frozen(scheduler_name, cell_kwargs, capture_kwargs,
                               expected):
    enb, sniffer = _simulate(scheduler_name, cell_kwargs, capture_kwargs)
    assert sniffer.total_records > 0
    assert _cell_digest(enb, sniffer) == expected


@pytest.mark.parametrize("operator", [LAB, VERIZON],
                         ids=lambda operator: operator.name)
def test_collect_trace_frozen(monkeypatch, operator):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    trace = collect_trace("Netflix", operator=operator, duration_s=6.0,
                          seed=77)
    assert len(trace) > 0
    digest = hashlib.sha256()
    _update_trace(digest, trace)
    assert digest.hexdigest() == COLLECT_TRACE_DIGESTS[operator.name]


def test_fiveg_gnodeb_frozen():
    net = LTENetwork(seed=5)
    add_nr_cell(net, "nr-0", obfuscation=ObfuscationConfig(
        rnti_refresh_s=2.5))
    sniffer = CellSniffer("nr-0", seed=9).attach(net)
    victim = net.add_ue(name="victim")
    other = net.add_ue(name="other")
    net.start_app_session(victim, make_app("YouTube"), start_s=0.1,
                          duration_s=6.0, session_seed=3)
    net.start_app_session(other, make_app("Skype"), start_s=0.4,
                          duration_s=6.0, session_seed=4)
    net.run_for(8.0)
    assert sniffer.total_records > 0
    assert _cell_digest(net.cells["nr-0"].enb, sniffer) == FIVEG_DIGEST


def test_sharded_city_frozen():
    scenario = CityScenario(n_cells=4, ues_per_cell=3, epochs=2,
                            epoch_s=1.0, seed=11, migration_prob=0.4)
    result = run_city(scenario, ParallelMap(workers=1), shards=2)
    assert result.total_records > 0
    digest = hashlib.sha256()
    for cell_id in sorted(result.traces):
        digest.update(cell_id.encode())
        _update_trace(digest, result.traces[cell_id])
    assert digest.hexdigest() == CITY_DIGEST
