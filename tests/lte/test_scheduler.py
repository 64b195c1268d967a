"""Tests for the MAC schedulers: conservation, fairness, cross traffic.

Each behavioural test runs the production scheduler through both lanes
(``allocate_scalar`` and ``allocate_batch``) via the oracle adapter.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.dci import Direction
from repro.lte.scheduler import CrossTraffic, make_scheduler, scheduler_names
from repro.lte.vecsched import (MaxCQIScheduler, ProportionalFairScheduler,
                                RoundRobinScheduler)
from tests.oracle.schedulers import Demand, run_lane

LANES = ["scalar", "array"]


def demand(rnti, backlog=10_000, mcs=15, direction=Direction.DOWNLINK):
    return Demand(rnti=rnti, direction=direction, backlog_bytes=backlog,
                  mcs=mcs)


demand_lists = st.lists(
    st.builds(demand,
              rnti=st.integers(min_value=0x100, max_value=0x1FF),
              backlog=st.integers(min_value=1, max_value=500_000),
              mcs=st.integers(min_value=0, max_value=28)),
    min_size=0, max_size=12,
    unique_by=lambda d: d.rnti)

all_schedulers = st.sampled_from(list(scheduler_names()))
all_lanes = st.sampled_from(LANES)


class TestDemandValidation:
    def test_positive_backlog_required(self):
        with pytest.raises(ValueError):
            Demand(rnti=1, direction=Direction.UPLINK, backlog_bytes=0,
                   mcs=10)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in scheduler_names():
            assert make_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("strict-priority")


class TestRoundRobin:
    def test_empty_demands(self):
        for lane in LANES:
            assert run_lane(RoundRobinScheduler(), [], 50, lane) == []

    def test_single_demand_served(self):
        for lane in LANES:
            grants = run_lane(RoundRobinScheduler(), [demand(1, 100)], 50,
                              lane)
            assert len(grants) == 1
            assert grants[0].tbs_bytes >= 100

    def test_rotation_changes_first_served(self):
        for lane in LANES:
            scheduler = RoundRobinScheduler()
            demands = [demand(1, 10**6), demand(2, 10**6),
                       demand(3, 10**6)]
            first_round = run_lane(scheduler, demands, 10, lane)
            second_round = run_lane(scheduler, demands, 10, lane)
            assert first_round[0].rnti != second_round[0].rnti

    def test_every_ue_eventually_served(self):
        for lane in LANES:
            scheduler = RoundRobinScheduler()
            demands = [demand(i, 10**7) for i in range(1, 6)]
            served = set()
            for _ in range(10):
                for grant in run_lane(scheduler, demands, 8, lane):
                    served.add(grant.rnti)
            assert served == {1, 2, 3, 4, 5}


class TestProportionalFair:
    def test_recently_served_ue_deprioritised(self):
        for lane in LANES:
            scheduler = ProportionalFairScheduler(averaging_window=5.0)
            hog = demand(1, 10**7, mcs=28)
            other = demand(2, 10**7, mcs=28)
            # Serve only the hog for a while (other absent).
            for _ in range(20):
                run_lane(scheduler, [hog], 10, lane)
            # When the other UE appears, it should be ranked first.
            grants = run_lane(scheduler, [hog, other], 10, lane)
            assert grants[0].rnti == 2

    def test_forget_clears_state(self):
        for lane in LANES:
            scheduler = ProportionalFairScheduler()
            run_lane(scheduler, [demand(7, 1_000)], 50, lane)
            assert 7 in scheduler._members and scheduler._avg[7] != 1.0
            scheduler.forget(7)
            assert 7 not in scheduler._members
            assert scheduler._avg[7] == 1.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(averaging_window=1.0)


class TestMaxCQI:
    def test_best_channel_first(self):
        for lane in LANES:
            scheduler = MaxCQIScheduler()
            demands = [demand(1, 10**7, mcs=5), demand(2, 10**7, mcs=25)]
            grants = run_lane(scheduler, demands, 5, lane)
            assert grants[0].rnti == 2


class TestSchedulerInvariants:
    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110), all_lanes)
    def test_property_prb_conservation(self, name, demands, total_prb,
                                       lane):
        grants = run_lane(make_scheduler(name), demands, total_prb, lane)
        assert sum(g.n_prb for g in grants) <= total_prb

    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110), all_lanes)
    def test_property_at_most_one_grant_per_rnti(self, name, demands,
                                                 total_prb, lane):
        grants = run_lane(make_scheduler(name), demands, total_prb, lane)
        rntis = [g.rnti for g in grants]
        assert len(rntis) == len(set(rntis))

    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110), all_lanes)
    def test_property_grants_only_for_demanding_ues(self, name, demands,
                                                    total_prb, lane):
        grants = run_lane(make_scheduler(name), demands, total_prb, lane)
        demanding = {d.rnti for d in demands}
        assert all(g.rnti in demanding for g in grants)

    @settings(max_examples=40)
    @given(all_schedulers, demand_lists, all_lanes)
    def test_property_ample_capacity_serves_everyone(self, name, demands,
                                                     lane):
        # With 110 PRB and few small demands, every UE gets a grant.
        small = [Demand(rnti=d.rnti, direction=d.direction,
                        backlog_bytes=min(d.backlog_bytes, 50), mcs=20)
                 for d in demands[:4]]
        grants = run_lane(make_scheduler(name), small, 110, lane)
        assert {g.rnti for g in grants} == {d.rnti for d in small}


class TestCrossTraffic:
    def test_zero_load(self):
        assert CrossTraffic(mean_load=0.0).occupied_prb(
            50, random.Random(0)) == 0

    def test_occupied_within_bounds(self):
        cross = CrossTraffic(mean_load=0.5, burstiness=0.5)
        rng = random.Random(1)
        for _ in range(500):
            occupied = cross.occupied_prb(100, rng)
            assert 0 <= occupied <= 95

    def test_mean_load_tracks_parameter(self):
        cross = CrossTraffic(mean_load=0.4, burstiness=0.2)
        rng = random.Random(2)
        samples = [cross.occupied_prb(100, rng) for _ in range(3_000)]
        assert 35 < sum(samples) / len(samples) < 45

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=1.0)
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=-0.1)

    def test_invalid_burstiness(self):
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=0.2, burstiness=-1.0)
