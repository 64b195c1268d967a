"""Tests for the eNodeB: RRC lifecycle, grants, inactivity, handover."""

import random

import pytest

from repro.lte.channel import ChannelProfile
from repro.lte.dci import Direction
from repro.lte.enb import ENodeB
from repro.lte.epc import EPC
from repro.lte.identifiers import is_crnti, make_imsi
from repro.lte.rrc import (PagingMessage, RACHPreamble,
                           RandomAccessResponse, RRCConnectionRelease,
                           RRCConnectionRequest, RRCConnectionSetup)
from repro.lte.sim import SECOND_US, SimClock
from repro.lte.ue import UE, RRCState


@pytest.fixture
def setup():
    clock = SimClock()
    enb = ENodeB("cell-x", clock, random.Random(1),
                 channel_profile=ChannelProfile(mean_cqi=12, cqi_span=0),
                 inactivity_timeout_s=10.0)
    epc = EPC(random.Random(2))
    ue = UE(make_imsi(random.Random(3)))
    epc.attach(ue)
    ue.serving_cell = "cell-x"
    return clock, enb, ue


class TestConnection:
    def test_connect_assigns_crnti(self, setup):
        _, enb, ue = setup
        rnti = enb.connect(ue)
        assert is_crnti(rnti)
        assert ue.is_connected
        assert ue.rnti == rnti
        assert enb.connected_count == 1

    def test_connect_emits_full_handshake(self, setup):
        _, enb, ue = setup
        messages = []
        enb.control_observers.append(messages.append)
        rnti = enb.connect(ue)
        kinds = [type(m) for m in messages]
        assert kinds == [RACHPreamble, RandomAccessResponse,
                         RRCConnectionRequest, RRCConnectionSetup]
        assert messages[1].temp_crnti == rnti
        assert messages[2].s_tmsi == ue.tmsi
        assert messages[3].contention_resolution_id == ue.tmsi

    def test_connect_twice_rejected(self, setup):
        _, enb, ue = setup
        enb.connect(ue)
        with pytest.raises(RuntimeError):
            enb.connect(ue)

    def test_connect_without_tmsi_rejected(self, setup):
        clock, enb, _ = setup
        stranger = UE(make_imsi(random.Random(9)))
        with pytest.raises(RuntimeError):
            enb.connect(stranger)

    def test_release_returns_rnti_and_announces(self, setup):
        _, enb, ue = setup
        messages = []
        rnti = enb.connect(ue)
        enb.control_observers.append(messages.append)
        enb.release(ue)
        assert not ue.is_connected
        assert ue.rnti is None
        assert any(isinstance(m, RRCConnectionRelease) and m.crnti == rnti
                   for m in messages)

    def test_release_unknown_ue_is_noop(self, setup):
        _, enb, ue = setup
        enb.release(ue)   # never connected
        assert enb.connected_count == 0

    def test_reconnect_gets_new_rnti_usually(self, setup):
        _, enb, ue = setup
        first = enb.connect(ue)
        enb.release(ue)
        second = enb.connect(ue)
        # Random allocation: a collision is possible but vanishingly
        # rare; assert distinctness for this seed.
        assert first != second


class TestTraffic:
    def test_enqueue_requires_connection(self, setup):
        _, enb, ue = setup
        with pytest.raises(RuntimeError):
            enb.enqueue(ue, Direction.DOWNLINK, 100)

    def test_enqueue_rejects_nonpositive(self, setup):
        _, enb, ue = setup
        enb.connect(ue)
        with pytest.raises(ValueError):
            enb.enqueue(ue, Direction.DOWNLINK, 0)

    def test_backlog_drains_via_grants(self, setup):
        clock, enb, ue = setup
        transmissions = []
        enb.pdcch_observers.append(transmissions.append)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 50_000)
        clock.run_until(2 * SECOND_US)
        context = enb.context_for(ue)
        assert context.dl_backlog == 0
        granted = sum(t.encoded.blind_decode().tbs_bytes
                      for t in transmissions)
        assert granted >= 50_000
        assert enb.grants_issued == len(transmissions)

    def test_uplink_and_downlink_grants_use_correct_formats(self, setup):
        clock, enb, ue = setup
        transmissions = []
        enb.pdcch_observers.append(transmissions.append)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 5_000)
        enb.enqueue(ue, Direction.UPLINK, 5_000)
        clock.run_until(SECOND_US)
        directions = {t.encoded.blind_decode().direction
                      for t in transmissions}
        assert directions == {Direction.DOWNLINK, Direction.UPLINK}

    def test_grants_address_the_ue_rnti(self, setup):
        clock, enb, ue = setup
        transmissions = []
        enb.pdcch_observers.append(transmissions.append)
        rnti = enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 10_000)
        clock.run_until(SECOND_US)
        assert all(t.encoded.blind_rnti() == rnti for t in transmissions)

    def test_tti_loop_stops_when_idle(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 1_000)
        clock.run_until(SECOND_US)
        assert not enb._tti_running


class TestInactivity:
    def test_idle_ue_released_after_timeout(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 1_000)
        clock.run_until(15 * SECOND_US)
        assert not ue.is_connected
        assert ue.rrc_state is RRCState.IDLE

    def test_active_ue_not_released(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        # Keep traffic flowing every 5 s — under the 10 s timeout.
        for step in range(6):
            clock.run_until((5 * step + 1) * SECOND_US)
            if ue.is_connected:
                enb.enqueue(ue, Direction.UPLINK, 500)
        assert ue.is_connected

    def test_release_happens_near_timeout(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 100)
        clock.run_until(int(9.5 * SECOND_US))
        assert ue.is_connected
        clock.run_until(25 * SECOND_US)
        assert not ue.is_connected

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ENodeB("c", SimClock(), random.Random(0),
                   inactivity_timeout_s=0.0)


class TestHandover:
    def test_detach_preserves_backlog(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 10**7)
        clock.run_until(5_000)   # a few TTIs only
        handover = enb.detach_for_handover(ue)
        assert handover.dl_backlog > 0
        assert not ue.is_connected

    def test_detach_not_connected_rejected(self, setup):
        _, enb, ue = setup
        with pytest.raises(RuntimeError):
            enb.detach_for_handover(ue)

    def test_admit_handover_assigns_new_rnti(self, setup):
        clock, enb, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        enb.connect(ue)
        old = enb.detach_for_handover(ue)
        new_rnti = target.admit_handover(ue)
        assert is_crnti(new_rnti)
        assert ue.serving_cell == "cell-y"
        assert ue.rnti == new_rnti
        assert new_rnti != old.rnti or True   # same value possible, rare

    def test_restore_backlog_resumes_grants(self, setup):
        clock, enb, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        transmissions = []
        target.pdcch_observers.append(transmissions.append)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 50_000)
        clock.run_until(3_000)
        handover = enb.detach_for_handover(ue)
        target.admit_handover(ue)
        target.restore_backlog(ue, handover.dl_backlog, handover.ul_backlog)
        clock.run_until(2 * SECOND_US)
        assert transmissions
        assert target.context_for(ue).dl_backlog == 0

    def test_restore_backlog_requires_connection(self, setup):
        clock, _, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        with pytest.raises(RuntimeError):
            target.restore_backlog(ue, 100, 0)


class TestPaging:
    def test_page_broadcasts_tmsi(self, setup):
        _, enb, ue = setup
        messages = []
        enb.control_observers.append(messages.append)
        enb.page(ue.tmsi)
        assert isinstance(messages[0], PagingMessage)
        assert messages[0].s_tmsi == ue.tmsi


class TestGrantHandOff:
    def test_buffer_is_bounded(self, setup, monkeypatch):
        from repro.lte import enb as enb_module

        monkeypatch.setattr(enb_module, "FLUSH_GRANTS", 8)
        clock, enb, ue = setup
        batches = []
        enb.grant_observers.append(batches.append)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 5_000_000)
        buffered = []
        for tti in range(1, 400):
            clock.schedule(tti * 1_000 + 500,
                           lambda: buffered.append(len(enb._rows)))
        clock.run_until(SECOND_US)
        assert enb.grants_issued > 100
        assert max(buffered) < 8 * 6
        assert max(len(batch) for batch in batches) <= 8
        assert sum(len(batch) for batch in batches) == enb.grants_issued
        assert not enb._rows               # flushed when the clock rests

    def test_grants_and_control_arrive_in_airing_order(self, setup):
        clock, enb, ue = setup
        feed = []
        enb.grant_observers.append(
            lambda batch: feed.extend(batch.time_us.tolist()))
        enb.control_observers.append(
            lambda message: feed.append(message.time_us))
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 80_000)
        clock.run_until(2 * SECOND_US)
        enb.enqueue(ue, Direction.UPLINK, 40_000)
        clock.run_until(20 * SECOND_US)      # inactivity release
        assert not ue.is_connected
        assert len(feed) > 6
        assert feed == sorted(feed)
