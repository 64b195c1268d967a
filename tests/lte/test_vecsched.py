"""Both scheduler lanes are grant-for-grant twins of the object oracle.

The production schedulers (:mod:`repro.lte.vecsched`) serve a TTI
through the scalar lane (``allocate_scalar``) or the array lane
(``allocate_batch``), picked by the engine from the active-set size.
These tests drive randomized loads whose sizes straddle the crossover
(``SCALAR_LANE_MAX`` - 1, itself and + 1) and compare every grant, and
proportional-fair's averages bitwise, against the object schedulers of
:mod:`tests.oracle.schedulers`.
"""

import random

import numpy as np
import pytest

from repro.lte.dci import Direction
from repro.lte.tbs import MAX_PRB
from repro.lte.vecsched import (SCALAR_LANE_MAX, ProportionalFairScheduler,
                                _sequential_grants, make_scheduler)
from tests.oracle.schedulers import Demand, run_lane
from tests.oracle.schedulers import make_scheduler as make_oracle

#: Demand-set sizes: small ones, and the crossover neighbourhood.
SIZES = [0, 1, 2, 3, SCALAR_LANE_MAX - 1, SCALAR_LANE_MAX,
         SCALAR_LANE_MAX + 1, 2 * SCALAR_LANE_MAX]


def _random_demands(rng, count, allow_collisions=False):
    rntis = []
    for _ in range(count):
        if allow_collisions and rntis and rng.random() < 0.3:
            rntis.append(rng.choice(rntis))
        else:
            rntis.append(rng.randint(0x003D, 0xFFF3))
    return [Demand(rnti=rnti, direction=Direction.DOWNLINK,
                   backlog_bytes=rng.choice(
                       [rng.randint(1, 300), rng.randint(301, 20_000),
                        rng.randint(20_001, 5_000_000)]),
                   mcs=rng.randint(0, 28))
            for rnti in rntis]


def _engine_lane(demands):
    return "scalar" if len(demands) <= SCALAR_LANE_MAX else "array"


def _other_lane(demands):
    return "array" if _engine_lane(demands) == "scalar" else "scalar"


def _assert_pf_state_identical(oracle, *schedulers, rntis=()):
    for rnti in sorted(rntis):
        expected = oracle._avg_rate.get(rnti, 1.0)
        for scheduler in schedulers:
            # Bitwise, not approximately: averages feed priorities, and
            # any drift eventually flips a sort order.
            assert scheduler._avg[rnti] == expected
            assert (rnti in scheduler._members) == (rnti in oracle._avg_rate)


@pytest.mark.parametrize("name", ["round-robin", "proportional-fair",
                                  "max-cqi"])
def test_vector_matches_object_scheduler_over_many_ttis(name):
    rng = random.Random(1234)
    oracle = make_oracle(name)
    # One instance follows the engine's lane rule, its twin always takes
    # the other lane: both must track the oracle through every switch.
    engine_rule = make_scheduler(name)
    swapped = make_scheduler(name)
    seen = set()
    for tti in range(200):
        demands = _random_demands(rng, rng.choice(SIZES),
                                  allow_collisions=True)
        seen.update(d.rnti for d in demands)
        total_prb = rng.randint(1, MAX_PRB)
        expected = oracle.allocate(demands, total_prb)
        if not demands:
            assert expected == []
            continue
        assert run_lane(engine_rule, demands, total_prb,
                        _engine_lane(demands)) == expected
        assert run_lane(swapped, demands, total_prb,
                        _other_lane(demands)) == expected
        if name == "proportional-fair":
            _assert_pf_state_identical(oracle, engine_rule, swapped,
                                       rntis=seen)


def test_pf_state_stays_float_identical_through_forget():
    rng = random.Random(9)
    oracle = make_oracle("proportional-fair")
    scheduler = ProportionalFairScheduler()
    seen = set()
    for _ in range(120):
        demands = _random_demands(rng, rng.choice(SIZES[1:]),
                                  allow_collisions=True)
        seen.update(d.rnti for d in demands)
        total_prb = rng.randint(1, MAX_PRB)
        lane = rng.choice(["scalar", "array"])
        assert (run_lane(scheduler, demands, total_prb, lane)
                == oracle.allocate(demands, total_prb))
        if seen and rng.random() < 0.2:
            victim = rng.choice(sorted(seen))
            oracle.forget(victim)
            scheduler.forget(victim)
        _assert_pf_state_identical(oracle, scheduler, rntis=seen)


def test_pf_decay_lanes_agree_across_member_counts():
    """The decay sweep switches lane with the member count, bitwise."""
    rng = random.Random(5)
    oracle = make_oracle("proportional-fair")
    scheduler = ProportionalFairScheduler()
    pool = [rng.randint(0x003D, 0xFFF3)
            for _ in range(3 * SCALAR_LANE_MAX)]
    members = []
    for round_index in range(60):
        # Membership grows past the crossover, then shrinks below it.
        live = pool[:min(len(pool), 2 + 4 * round_index)]
        if round_index >= 40:
            for rnti in live[:-5]:
                oracle.forget(rnti)
                scheduler.forget(rnti)
            live = live[-5:]
        demands = [Demand(rnti=rnti, direction=Direction.UPLINK,
                          backlog_bytes=rng.randint(1, 9_000),
                          mcs=rng.randint(0, 28))
                   for rnti in rng.sample(live, min(3, len(live)))]
        assert (run_lane(scheduler, demands, 25, "scalar")
                == oracle.allocate(demands, 25))
        members.append(len(scheduler._members))
        _assert_pf_state_identical(oracle, scheduler, rntis=pool)
    assert min(members) <= SCALAR_LANE_MAX < max(members)


def test_sequential_grants_saturation_takes_all_remaining_prbs():
    # One huge backlog: the scalar loop saturates and grants the whole
    # budget to the first demand.
    order = np.array([0], dtype=np.int64)
    pending = np.array([10_000_000], dtype=np.int64)
    i_tbs = np.array([10], dtype=np.int64)
    positions, n_prb, tbs = _sequential_grants(order, pending, i_tbs, 30)
    assert positions.tolist() == [0]
    assert n_prb.tolist() == [30]


def test_sequential_grants_rejects_bad_inputs():
    order = np.array([0], dtype=np.int64)
    i_tbs = np.array([5], dtype=np.int64)
    with pytest.raises(ValueError):
        _sequential_grants(order, np.array([100], dtype=np.int64), i_tbs, 0)
    with pytest.raises(ValueError):
        _sequential_grants(order, np.array([0], dtype=np.int64), i_tbs, 10)


def test_make_vector_scheduler_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_scheduler("strict-priority")
