"""Property: both scheduler lanes equal the per-UE reference scheduler.

Hypothesis drives randomized cell loads through the oracle object
schedulers and the production schedulers' scalar and array lanes
simultaneously and asserts the grant streams are identical — positions,
PRB counts and TBS bytes.  Load sizes straddle the lane crossover
(``SCALAR_LANE_MAX`` - 1, itself and + 1).  The load generator
deliberately covers the paper-relevant corner cases:

* **RNTI collisions** — the same RNTI appearing twice in one batch
  (refresh races, reassignment faults), where PF's "last write wins"
  served-bytes semantics must match the dict implementation;
* **retransmission-shaped loads** — multiple consecutive rounds with the
  *same* demand set, the pattern HARQ retransmissions produce, where
  any drift in scheduler state (RR rotation pointer, PF averages)
  compounds round over round;
* degenerate budgets (1 PRB) and saturating backlogs (many MB against a
  handful of PRBs).

``derandomize=True`` pins the example stream to the test id so CI
failures replay locally without sharing a database.

The engine-level test runs whole cells on the engine and on the oracle
loop while UEs connect, release and refresh RNTIs, so the active sets
cross the crossover mid-run in both directions, for every scheduler
with and without HARQ: the trace bytes, the grant counters and the PF
averages (bitwise) must match.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.lte.channel import ChannelProfile
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.tbs import MAX_PRB
from repro.lte.vecsched import SCALAR_LANE_MAX, make_scheduler
from repro.sniffer.capture import CellSniffer
from tests.oracle.legacy_enb import add_oracle_cell, attach_oracle_sniffer
from tests.oracle.schedulers import Demand, run_lane
from tests.oracle.schedulers import make_scheduler as make_oracle

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

_BACKLOGS = st.one_of(st.integers(1, 300),            # sub-PRB dribble
                      st.integers(301, 50_000),       # typical bursts
                      st.integers(50_001, 8_000_000))  # saturating bulk

_DEMAND = st.tuples(st.integers(0x003D, 0xFFF3), _BACKLOGS,
                    st.integers(0, 28))

#: Demand counts around the lane crossover, plus small cells.
_SIZES = st.sampled_from([1, 2, 5, SCALAR_LANE_MAX - 1, SCALAR_LANE_MAX,
                          SCALAR_LANE_MAX + 1, 2 * SCALAR_LANE_MAX])

#: A cell load: demands, plus indices to duplicate (collisions).
_LOADS = _SIZES.flatmap(lambda size: st.tuples(
    st.lists(_DEMAND, min_size=size, max_size=size),
    st.lists(st.integers(0, size - 1), max_size=4),
))

_SCHEDULER_NAMES = st.sampled_from(["round-robin", "proportional-fair",
                                    "max-cqi"])


def _build_demands(load):
    entries, duplicates = load
    # Duplicate some entries under a shared RNTI: a collision batch.
    for index in duplicates:
        source = entries[index % len(entries)]
        entries = entries + [(source[0], max(1, source[1] // 2),
                              source[2])]
    return [Demand(rnti=rnti, direction=Direction.DOWNLINK,
                   backlog_bytes=backlog, mcs=mcs)
            for rnti, backlog, mcs in entries]


@SETTINGS
@given(name=_SCHEDULER_NAMES, load=_LOADS,
       total_prb=st.integers(1, MAX_PRB),
       rounds=st.integers(1, 4))
def test_vector_grants_equal_reference(name, load, total_prb, rounds):
    oracle = make_oracle(name)
    scalar = make_scheduler(name)
    array = make_scheduler(name)
    demands = _build_demands(load)
    # Re-presenting the same demand set for several rounds exercises the
    # retransmission pattern: stateful schedulers must stay in lockstep.
    for _ in range(rounds):
        allocations = oracle.allocate(demands, total_prb)
        assert sum(alloc.n_prb for alloc in allocations) <= total_prb
        assert run_lane(scalar, demands, total_prb, "scalar") == allocations
        assert run_lane(array, demands, total_prb, "array") == allocations


@SETTINGS
@given(load=_LOADS, total_prb=st.integers(1, MAX_PRB),
       forget_round=st.integers(0, 2))
def test_pf_averages_identical_across_rnti_release(load, total_prb,
                                                   forget_round):
    oracle = make_oracle("proportional-fair")
    lanes = {"scalar": make_scheduler("proportional-fair"),
             "array": make_scheduler("proportional-fair")}
    demands = _build_demands(load)
    for round_index in range(3):
        oracle.allocate(demands, total_prb)
        for lane, scheduler in lanes.items():
            run_lane(scheduler, demands, total_prb, lane)
        if round_index == forget_round:
            victim = demands[0].rnti
            oracle.forget(victim)
            for scheduler in lanes.values():
                scheduler.forget(victim)
    for demand in demands:
        expected = oracle._avg_rate.get(demand.rnti, 1.0)
        for scheduler in lanes.values():
            assert scheduler._avg[demand.rnti] == expected


# -- engine vs oracle across mid-run lane switches ------------------------------

#: UEs in the lane-switch cell: enough for a burst to cross the crossover.
_CELL_UES = SCALAR_LANE_MAX + 8


def _lane_switch_cell(oracle, scheduler_name, harq):
    """A cell whose active sets cross the crossover while UEs churn."""
    net = LTENetwork(seed=23)
    cell_kwargs = dict(
        scheduler_name=scheduler_name, total_prb=50,
        inactivity_timeout_s=0.25,
        channel_profile=ChannelProfile(harq_bler=0.15 if harq else 0.0),
        obfuscation=ObfuscationConfig(rnti_refresh_s=0.35))
    sniffer = CellSniffer("switch", seed=3)
    if oracle:
        add_oracle_cell(net, "switch", **cell_kwargs)
        attach_oracle_sniffer(net, sniffer)
    else:
        net.add_cell("switch", **cell_kwargs)
        sniffer.attach(net)
    ues = [net.add_ue(name=f"ue{index}") for index in range(_CELL_UES)]
    rng = random.Random(99)
    arrivals = []
    # A trickle on a few UEs keeps the scalar lane busy throughout ...
    for index in range(3):
        at_s = 0.002
        while at_s < 1.4:
            arrivals.append((at_s, index, rng.choice(list(Direction)),
                             rng.randint(200, 40_000)))
            at_s += rng.uniform(0.01, 0.12)
    # ... and two bursts on every UE push both directions over it; the
    # second comes after the inactivity releases, on fresh RNTIs.  A
    # small uplink packet connects each UE shortly before its burst.
    for burst_s in (0.3, 0.9):
        for index in range(_CELL_UES):
            arrivals.append((burst_s - 0.15, index, Direction.UPLINK, 100))
            arrivals.append((burst_s + rng.uniform(0.0, 0.003), index,
                             Direction.DOWNLINK, rng.randint(4_000, 20_000)))
            arrivals.append((burst_s + rng.uniform(0.0, 0.003), index,
                             Direction.UPLINK, rng.randint(1_000, 8_000)))
    for at_s, index, direction, size in arrivals:
        net.clock.schedule(int(at_s * 1_000_000),
                           lambda u=ues[index], d=direction, s=size:
                           net.deliver_traffic(u, d, s))
    net.run_for(2.0)
    return net.cells["switch"].enb, sniffer


def _traces_digest(sniffer):
    digest = hashlib.sha256()
    for rnti in sniffer.observed_rntis():
        trace = sniffer.trace_for_rnti(rnti)
        digest.update(rnti.to_bytes(4, "big"))
        for column in (trace.times_s, trace.rntis, trace.directions,
                       trace.tbs_bytes):
            digest.update(column.tobytes())
    return digest.hexdigest()


def _tracker_state(tracker):
    def row(activity):
        return (activity.rnti, activity.confirmed_s, activity.last_seen_s,
                activity.records)

    return ([row(activity) for activity in tracker.history()],
            sorted(row(tracker.activity(rnti))
                   for rnti in tracker.active_rntis()))


@pytest.mark.parametrize("harq", [False, True], ids=["no-harq", "harq"])
@pytest.mark.parametrize("scheduler_name", ["round-robin",
                                            "proportional-fair", "max-cqi"])
def test_engine_lane_switches_match_oracle(scheduler_name, harq):
    with obs.override(True):
        obs.reset()
        oracle_enb, oracle_sniffer = _lane_switch_cell(
            True, scheduler_name, harq)
        oracle_ttis = obs.snapshot()["counters"]["sim.ttis"]
        obs.reset()
        engine_enb, engine_sniffer = _lane_switch_cell(
            False, scheduler_name, harq)
        counters = obs.snapshot()["counters"]
        obs.reset()
    # Both lanes ran, and the lane counters partition the TTIs.
    scalar_ttis = counters["sim.ttis.scalar_lane"]
    array_ttis = counters["sim.ttis.array_lane"]
    assert scalar_ttis > 0 and array_ttis > 0
    assert scalar_ttis + array_ttis == counters["sim.ttis"] == oracle_ttis
    assert engine_enb.obfuscation_stats.rnti_refreshes > 0
    assert engine_enb.harq_retransmissions == oracle_enb.harq_retransmissions
    assert (engine_enb.harq_retransmissions > 0) == harq
    assert engine_enb.grants_issued == oracle_enb.grants_issued
    assert engine_enb.bytes_granted == oracle_enb.bytes_granted
    assert _traces_digest(engine_sniffer) == _traces_digest(oracle_sniffer)
    assert len(oracle_sniffer.mapper.history) > 0    # releases happened
    # The tracker sees grants and RRC events in the oracle's order.
    assert (_tracker_state(engine_sniffer.tracker)
            == _tracker_state(oracle_sniffer.tracker))
    if scheduler_name == "proportional-fair":
        for direction, oracle_scheduler in (
                (Direction.DOWNLINK, oracle_enb._dl_scheduler),
                (Direction.UPLINK, oracle_enb._ul_scheduler)):
            scheduler = engine_enb._schedulers[direction]
            assert set(scheduler._members) == set(oracle_scheduler._avg_rate)
            for rnti, average in oracle_scheduler._avg_rate.items():
                assert scheduler._avg[rnti] == average
