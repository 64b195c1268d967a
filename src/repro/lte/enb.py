"""The eNodeB: RRC lifecycle and the size-adaptive TTI grant engine.

This is the heart of the radio-layer substrate.  The eNB:

* allocates C-RNTIs and runs the (cleartext) RRC connection handshake
  whose Msg3/Msg4 pair leaks the C-RNTI <-> TMSI binding;
* queues downlink and uplink backlog per connected UE;
* runs a per-TTI scheduling loop that converts backlog into DCI grants
  and hands them to the PDCCH observers (the sniffers);
* enforces the RRC inactivity timer (default 10 s, as in the paper),
  releasing idle UEs and thereby forcing the RNTI churn that the
  attack's identity-mapping stage must cope with.

The TTI loop is demand-driven: it only runs while some UE has backlog,
so quiet air time costs nothing to simulate.

**State.**  Per-UE state lives in slot-indexed int64 columns
(``array('q')``): RNTI, downlink and uplink backlog, CQI and last
activity.  Scalar code indexes them as Python ints; the array lane
reads the same memory through zero-copy numpy views.  A
:class:`UEContext` is a connected UE's handle on its slot.  Each
direction also keeps its *active set* — the slots with backlog in that
direction — current on every enqueue and drain.

**Two grant lanes.**  Each TTI, each direction picks its lane from the
size of its active set.  With at most
:data:`~repro.lte.vecsched.SCALAR_LANE_MAX` active UEs the **scalar
lane** runs the grant loop on Python ints through ``grant_for_bytes``
(:meth:`allocate_scalar`), with no numpy call — the lane of every
one-UE capture.  Above it the **array lane** gathers the columns and
runs the batched ``_sequential_grants`` kernel (:meth:`allocate_batch`).
Both lanes share one scheduler state and produce identical grants, so
the crossover moves only time; ``sim.ttis.scalar_lane`` and
``sim.ttis.array_lane`` count TTIs by lane (a TTI is array-lane when
either direction took the array lane) and sum to ``sim.ttis``.

**Draw order.**  All of a cell's randomness comes from one shared
:class:`random.Random`, and it is consumed in exactly this order per
TTI:

1. ``CrossTraffic.occupied_prb`` (one ``gauss``, only when configured);
2. per direction (DL first): chaff draws, then one ``random()`` per
   allocation when ``harq_bler > 0`` (in allocation order);
3. one ``random()`` per UE for the CQI walk, plus a ``choice`` on step
   events, in RRC-connection order.

Step 3 cannot be batched: ``Random.choice`` consumes a variable number
of Mersenne-Twister words (rejection sampling), so no numpy generator
reproduces the stream.  Connection setup draws the UE's initial CQI
with one ``randint`` after its RACH draws.

**Sniffer hand-off.**  Grants leave the cell as columnar
:class:`GrantBatch` blocks with no DCI encoding.  The engine buffers
grant rows and flushes them before every control-plane emission, when
the buffer holds :data:`FLUSH_GRANTS` grants, and whenever the clock
comes to rest (the end of ``run_until``), so observers see grants and
RRC events in the order they were aired.  Plain ``pdcch_observers``
receive each grant as an encoded :class:`PDCCHTransmission`, built at
flush time.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from .. import obs
from .channel import ChannelProfile
from .dci import DCIFormat, DCIMessage, Direction, PDCCHTransmission
from .identifiers import RA_RNTI_MAX, RA_RNTI_MIN, RNTIAllocator
from .obfuscation import (NO_OBFUSCATION, ObfuscationConfig,
                          ObfuscationStats)
from .rrc import (ControlMessage, PagingMessage, RACHPreamble,
                  RandomAccessResponse, RRCConnectionRelease,
                  RRCConnectionRequest, RRCConnectionSetup)
from .scheduler import CrossTraffic
from .sim import SECOND_US, TTI_US, SimClock
from .tbs import CQI_TO_MCS, grant_for_bytes, mcs_of_cqi_array
from .ue import UE
from .vecsched import SCALAR_LANE_MAX, make_scheduler

#: Grants buffered for the sniffers before a forced flush; bounds the
#: hand-off buffer's memory whatever the run length.
FLUSH_GRANTS = 4096

#: Columns of one buffered grant row.
_ROW = ("time_us", "direction", "rntis", "mcs", "n_prb", "tbs_bytes")

#: Scheduling order of the directions within one TTI.
_DIRECTIONS = (Direction.DOWNLINK, Direction.UPLINK)

#: CQI random-walk steps — shared tuple so ``choice`` cost stays flat.
_CQI_STEPS = (-1, 1)


@dataclass(frozen=True)
class GrantBatch:
    """Grants in emission order, as equal-length int64 columns.

    ``direction`` holds :class:`Direction` values; one batch may span
    many TTIs and both directions.
    """

    time_us: np.ndarray
    direction: np.ndarray
    rntis: np.ndarray
    mcs: np.ndarray
    n_prb: np.ndarray
    tbs_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.rntis)

    def transmissions(self) -> Iterator[PDCCHTransmission]:
        """Each grant as the encoded DCI the PDCCH carries."""
        rows = zip(self.time_us.tolist(), self.direction.tolist(),
                   self.rntis.tolist(), self.mcs.tolist(),
                   self.n_prb.tolist())
        for time_us, direction, rnti, mcs, n_prb in rows:  # repro: noqa[PAR004] — one DCI per record
            fmt = (DCIFormat.FORMAT_1A if direction == Direction.DOWNLINK
                   else DCIFormat.FORMAT_0)
            dci = DCIMessage(fmt=fmt, rnti=rnti, mcs=mcs, n_prb=n_prb)
            yield PDCCHTransmission(time_us=time_us, encoded=dci.encode())


PDCCHObserver = Callable[[PDCCHTransmission], None]
GrantObserver = Callable[[GrantBatch], None]
ControlObserver = Callable[[ControlMessage], None]


@dataclass(frozen=True)
class HandoverContext:
    """What the source cell forwards to the target during X2 handover."""

    rnti: int
    dl_backlog: int
    ul_backlog: int


class UEContext:
    """An RRC-connected UE's handle on its slot in the engine columns."""

    __slots__ = ("_enb", "slot", "ue")

    def __init__(self, enb: "ENodeB", slot: int, ue: UE) -> None:
        self._enb = enb
        self.slot = slot
        self.ue = ue

    @property
    def rnti(self) -> int:
        return self._enb._rnti[self.slot]

    @property
    def dl_backlog(self) -> int:
        return self._enb._backlog[Direction.DOWNLINK][self.slot]

    @property
    def ul_backlog(self) -> int:
        return self._enb._backlog[Direction.UPLINK][self.slot]

    @property
    def last_activity_us(self) -> int:
        return self._enb._last[self.slot]

    @property
    def total_backlog(self) -> int:
        return self.dl_backlog + self.ul_backlog


def _column(capacity: int) -> array:
    return array("q", bytes(8 * capacity))


class ENodeB:
    """A base station serving one cell."""

    #: HARQ round-trip time in TTIs (FDD LTE: 8 ms).
    _HARQ_RTT_TTIS = 8
    #: Maximum HARQ transmission attempts (standard default: 4).
    _HARQ_MAX_ATTEMPTS = 4

    def __init__(
        self,
        cell_id: str,
        clock: SimClock,
        rng: random.Random,
        channel_profile: Optional[ChannelProfile] = None,
        scheduler_name: str = "round-robin",
        total_prb: int = 50,
        inactivity_timeout_s: float = 10.0,
        cross_traffic: Optional[CrossTraffic] = None,
        obfuscation: Optional[ObfuscationConfig] = None,
        tti_us: int = TTI_US,
    ) -> None:
        if inactivity_timeout_s <= 0:
            raise ValueError(
                f"inactivity_timeout_s must be positive: {inactivity_timeout_s}")
        if tti_us <= 0:
            raise ValueError(f"tti_us must be positive: {tti_us}")
        self.cell_id = cell_id
        self._tti_us = tti_us
        self._clock = clock
        self._rng = rng
        self._profile = channel_profile or ChannelProfile()
        # Indexed by Direction (UPLINK = 0, DOWNLINK = 1).
        self._schedulers = (make_scheduler(scheduler_name),
                            make_scheduler(scheduler_name))
        self._total_prb = total_prb
        self._inactivity_us = int(inactivity_timeout_s * SECOND_US)
        self._cross_traffic = cross_traffic or CrossTraffic(mean_load=0.0)
        self._rnti_pool = RNTIAllocator(rng)
        self._contexts: Dict[int, UEContext] = {}        # rnti -> context
        self._context_by_ue: Dict[UE, UEContext] = {}
        self._tti_running = False
        self.pdcch_observers: List[PDCCHObserver] = []
        self.grant_observers: List[GrantObserver] = []
        self.control_observers: List[ControlObserver] = []
        self.obfuscation = obfuscation or NO_OBFUSCATION
        self.obfuscation_stats = ObfuscationStats()
        self._obfuscating = (self.obfuscation.padding_quantum > 0
                             or self.obfuscation.chaff_probability > 0.0)
        self._cqi_walk = (self._profile.cqi_step_prob,
                          self._profile.cqi_floor, self._profile.cqi_ceiling)
        #: Counters for tests and capacity accounting.
        self.grants_issued = 0
        self.bytes_granted = 0
        self.harq_retransmissions = 0
        # Registry counters for the demand-driven TTI loop (how much
        # air time the simulator actually scheduled, and in which lane).
        self._ttis_obs = obs.counter("sim.ttis")
        self._scalar_ttis_obs = obs.counter("sim.ttis.scalar_lane")
        self._array_ttis_obs = obs.counter("sim.ttis.array_lane")
        self._grants_obs = obs.counter("sim.grants")
        # Slot-indexed columns and their active sets.
        self._capacity = 0
        self._free_slots: List[int] = []
        self._grow()
        self._active = ({}, {})        # per Direction: slot -> None
        self._order: Optional[List[int]] = None    # slots, connection order
        self._order_array: Optional[np.ndarray] = None
        self._rank: Dict[int, int] = {}
        # Sniffer hand-off: flat grant rows awaiting the next flush.
        self._rows: List[int] = []
        clock.on_rest(self.flush_grants)

    # -- slot columns ------------------------------------------------------------

    def _grow(self) -> None:
        """Double the slot columns (the numpy views are rebuilt)."""
        old = self._capacity
        new = max(16, 2 * old)
        columns = []
        for name in ("_rnti", "_dl", "_ul", "_cqi", "_last"):
            column = _column(new)
            if old:
                column[:old] = getattr(self, name)
            setattr(self, name, column)
            columns.append(column)
        self._backlog = (self._ul, self._dl)
        self._rnti_view, self._dl_view, self._ul_view, self._cqi_view, _ = (
            np.frombuffer(column, dtype=np.int64) for column in columns)
        self._backlog_views = (self._ul_view, self._dl_view)
        self._free_slots.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    def _ordered(self) -> List[int]:
        """Slots of the connected UEs in RRC-connection (dict) order."""
        if self._order is None:
            self._order = [context.slot
                           for context in self._contexts.values()]
            self._order_array = None
            self._rank = dict(zip(self._order, range(len(self._order))))
        return self._order

    def _ordered_array(self) -> np.ndarray:
        order = self._ordered()
        if self._order_array is None:
            self._order_array = np.array(order, dtype=np.int64)
        return self._order_array

    def _add_backlog(self, context: UEContext, direction: Direction,
                     size_bytes: int) -> None:
        column = self._backlog[direction]
        column[context.slot] += size_bytes
        if column[context.slot] > 0:
            self._active[direction][context.slot] = None

    # -- observer plumbing ----------------------------------------------------

    def flush_grants(self) -> None:
        """Hand every buffered grant to the observers, in emission order."""
        rows = self._rows
        if not rows:
            return
        columns = np.array(rows, dtype=np.int64).reshape(-1, len(_ROW))
        rows.clear()
        batch = GrantBatch(*columns.T.copy())
        for observer in self.grant_observers:
            observer(batch)
        if self.pdcch_observers:
            for transmission in batch.transmissions():
                for observer in self.pdcch_observers:
                    observer(transmission)

    def _air(self, time_us: int, direction: Direction, rnti: int, mcs: int,
             n_prb: int, tbs: int) -> None:
        """Buffer one grant for the observers."""
        self._rows += (time_us, direction, rnti, mcs, n_prb, tbs)
        if len(self._rows) >= FLUSH_GRANTS * len(_ROW):
            self.flush_grants()

    def _emit_control(self, message: ControlMessage) -> None:
        self.flush_grants()
        for observer in self.control_observers:
            observer(message)

    # -- RRC connection management ---------------------------------------------

    def connect(self, ue: UE) -> int:
        """Run the RRC connection establishment; returns the new C-RNTI.

        Emits the full Msg1-Msg4 handshake on the control feed so that a
        sniffer can perform passive identity mapping.
        """
        if ue in self._context_by_ue:
            raise RuntimeError(f"{ue.name} already connected to {self.cell_id}")
        if ue.tmsi is None:
            raise RuntimeError(f"{ue.name} has no TMSI (not attached)")
        now = self._clock.now_us
        rnti = self._rnti_pool.allocate()
        ra_rnti = self._rng.randint(RA_RNTI_MIN, RA_RNTI_MAX)
        preamble = self._rng.randrange(64)
        self._emit_control(RACHPreamble(now, ra_rnti, preamble))
        self._emit_control(RandomAccessResponse(now, ra_rnti, rnti))
        self._emit_control(RRCConnectionRequest(now, rnti, ue.tmsi))
        self._emit_control(RRCConnectionSetup(now, rnti, ue.tmsi))
        self._register(ue, rnti)
        return rnti

    def admit_handover(self, ue: UE) -> int:
        """Admit a UE arriving via X2 handover (no cleartext TMSI leak)."""
        if ue in self._context_by_ue:
            raise RuntimeError(f"{ue.name} already connected to {self.cell_id}")
        rnti = self._rnti_pool.allocate()
        self._register(ue, rnti)
        return rnti

    def _register(self, ue: UE, rnti: int) -> None:
        profile = self._profile
        initial_cqi = self._rng.randint(profile.cqi_floor,
                                        profile.cqi_ceiling)
        if not self._free_slots:
            self._grow()
        slot = self._free_slots.pop()
        now = self._clock.now_us
        self._rnti[slot] = rnti
        self._dl[slot] = 0
        self._ul[slot] = 0
        self._cqi[slot] = initial_cqi
        self._last[slot] = now
        context = UEContext(self, slot, ue)
        self._contexts[rnti] = context
        self._context_by_ue[ue] = context
        self._order = None
        ue.on_connected(now, self.cell_id, rnti)
        self._schedule_inactivity_check(context)
        if self.obfuscation.rnti_refresh_s is not None:
            self._schedule_rnti_refresh(context)

    def release(self, ue: UE, announce: bool = True) -> None:
        """Release a UE's RRC connection and return its RNTI to the pool."""
        context = self._context_by_ue.pop(ue, None)
        if context is None:
            return
        rnti = context.rnti
        del self._contexts[rnti]
        self._rnti_pool.release(rnti)
        for active in self._active:
            active.pop(context.slot, None)
        self._free_slots.append(context.slot)
        self._order = None
        if announce:
            self._emit_control(RRCConnectionRelease(self._clock.now_us, rnti))
        self._forget(rnti)
        ue.on_released()

    def _forget(self, rnti: int) -> None:
        # Only the downlink scheduler drops a retired RNTI's state.
        forget = getattr(self._schedulers[Direction.DOWNLINK], "forget",
                         None)
        if forget is not None:
            forget(rnti)

    def detach_for_handover(self, ue: UE) -> "HandoverContext":
        """Remove a UE that is handing over.

        Returns the RNTI it held plus any unserved backlog, which the
        target cell re-queues (X2 data forwarding).
        """
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        handover = HandoverContext(rnti=context.rnti,
                                   dl_backlog=context.dl_backlog,
                                   ul_backlog=context.ul_backlog)
        self.release(ue, announce=False)
        return handover

    def restore_backlog(self, ue: UE, dl_backlog: int, ul_backlog: int) -> None:
        """Re-queue forwarded backlog for a UE admitted via handover."""
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        self._add_backlog(context, Direction.DOWNLINK, dl_backlog)
        self._add_backlog(context, Direction.UPLINK, ul_backlog)
        if context.total_backlog > 0:
            self._ensure_tti_loop()

    def broadcast_control(self, message: ControlMessage) -> None:
        """Publish a control-plane event to this cell's observers."""
        self._emit_control(message)

    def page(self, tmsi: int) -> None:
        """Broadcast a paging message for a TMSI (EPC-originated)."""
        self._emit_control(PagingMessage(self._clock.now_us, tmsi))

    # -- traffic ingress ---------------------------------------------------------

    def enqueue(self, ue: UE, direction: Direction, size_bytes: int) -> None:
        """Queue application bytes for a connected UE."""
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {size_bytes}")
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        self._add_backlog(context, direction, size_bytes)
        self._last[context.slot] = self._clock.now_us
        self._ensure_tti_loop()

    def is_connected(self, ue: UE) -> bool:
        return ue in self._context_by_ue

    def context_for(self, ue: UE) -> Optional[UEContext]:
        return self._context_by_ue.get(ue)

    @property
    def connected_count(self) -> int:
        return len(self._contexts)

    # -- RNTI-refresh countermeasure (§VIII-B) -----------------------------------

    def _schedule_rnti_refresh(self, context: UEContext) -> None:
        interval = int(self.obfuscation.rnti_refresh_s * SECOND_US)
        self._clock.schedule(interval, lambda: self._refresh_rnti(context))

    def _refresh_rnti(self, context: UEContext) -> None:
        # Context may have been torn down since scheduling.
        if self._contexts.get(context.rnti) is not context:
            return
        old_rnti = context.rnti
        new_rnti = self._rnti_pool.allocate()
        del self._contexts[old_rnti]
        self._rnti_pool.release(old_rnti)
        self._rnti[context.slot] = new_rnti
        # Re-inserting moves the UE to the end of the connection order.
        self._contexts[new_rnti] = context
        self._order = None
        # The reassignment rides an *encrypted* RRC reconfiguration —
        # nothing is emitted on the cleartext control feed, which is
        # exactly why it disrupts the sniffer's identity tracking.
        context.ue.identity.rnti = new_rnti
        context.ue.rnti_history.append(
            (self._clock.now_us, self.cell_id, new_rnti))
        self._forget(old_rnti)
        self.obfuscation_stats.rnti_refreshes += 1
        self._schedule_rnti_refresh(context)

    # -- inactivity management ----------------------------------------------------

    def _schedule_inactivity_check(self, context: UEContext) -> None:
        deadline = context.last_activity_us + self._inactivity_us
        self._clock.schedule_at(deadline, lambda: self._inactivity_check(context))

    def _inactivity_check(self, context: UEContext) -> None:
        # Context may have been torn down (handover, explicit release).
        if self._contexts.get(context.rnti) is not context:
            return
        now = self._clock.now_us
        idle_for = now - context.last_activity_us
        if idle_for >= self._inactivity_us and context.total_backlog == 0:
            self.release(context.ue)
        else:
            self._schedule_inactivity_check(context)

    # -- the TTI grant loop ----------------------------------------------------------

    def _ensure_tti_loop(self) -> None:
        if not self._tti_running:
            self._tti_running = True
            self._clock.schedule(self._tti_us, self._on_tti)

    def _on_tti(self) -> None:
        now = self._clock.now_us
        self._ttis_obs.inc()
        occupied = self._cross_traffic.occupied_prb(self._total_prb,
                                                    self._rng)
        available = max(1, self._total_prb - occupied)
        array_lane = False
        for direction in _DIRECTIONS:
            active = self._active[direction]
            if len(active) > SCALAR_LANE_MAX:
                grants = self._array_grants(direction, available)
                array_lane = True
            elif active:
                grants = self._scalar_grants(direction, active, available)
            elif self._obfuscating:
                grants = []
            else:
                continue
            if self._obfuscating:
                grants = self._obfuscate(direction, grants, available)
            if grants:
                self._apply(direction, now, grants)
        if array_lane:
            self._array_ttis_obs.inc()
        else:
            self._scalar_ttis_obs.inc()
        self._walk_cqi()
        if self._active[0] or self._active[1]:
            self._clock.schedule(self._tti_us, self._on_tti)
        else:
            self._tti_running = False

    def _scalar_grants(self, direction: Direction, active: Dict[int, None],
                       available: int) -> list:
        """Scalar lane: the grant loop on Python ints, no numpy."""
        if len(active) == 1:
            slots = list(active)
        else:
            self._ordered()
            slots = sorted(active, key=self._rank.__getitem__)
        rnti_column = self._rnti
        backlog = self._backlog[direction]
        cqi = self._cqi
        rntis = [rnti_column[slot] for slot in slots]
        pending = [backlog[slot] for slot in slots]
        mcs = [CQI_TO_MCS[cqi[slot]] for slot in slots]
        return [(slots[position], rntis[position], mcs[position], n_prb, tbs)
                for position, n_prb, tbs
                in self._schedulers[direction].allocate_scalar(
                    rntis, pending, mcs, available)]

    def _array_grants(self, direction: Direction, available: int) -> list:
        """Array lane: gather the columns, run the batched kernel."""
        order = self._ordered_array()
        backlog = self._backlog_views[direction][order]
        demand = np.flatnonzero(backlog)
        slots = order[demand]
        rntis = self._rnti_view[slots]
        mcs = mcs_of_cqi_array()[self._cqi_view[slots]]
        positions, n_prb, tbs = self._schedulers[direction].allocate_batch(
            rntis, backlog[demand], mcs, available)
        return list(zip(slots[positions].tolist(), rntis[positions].tolist(),
                        mcs[positions].tolist(), n_prb.tolist(),
                        tbs.tolist()))

    def _apply(self, direction: Direction, now: int, grants: list) -> None:
        """Drain the granted backlog and air the grants, in grant order."""
        backlog = self._backlog[direction]
        active = self._active[direction]
        last = self._last
        rows = self._rows
        code = int(direction)
        granted = 0
        for slot, rnti, mcs, n_prb, tbs in grants:  # repro: noqa[PAR004] — at most one grant per PRB, not per UE
            left = backlog[slot] - tbs
            if left > 0:
                backlog[slot] = left
            else:
                backlog[slot] = 0
                active.pop(slot, None)
            last[slot] = now
            rows += (now, code, rnti, mcs, n_prb, tbs)
            granted += tbs
        self.grants_issued += len(grants)
        self._grants_obs.inc(len(grants))
        self.bytes_granted += granted
        if not self._obfuscating:
            self.obfuscation_stats.useful_bytes += granted
        if self._profile.harq_bler > 0.0:
            for _, rnti, mcs, n_prb, tbs in grants:  # repro: noqa[PAR004] — HARQ draws follow grant order
                self._maybe_retransmit(code, rnti, mcs, n_prb, tbs, 1)
        if len(rows) >= FLUSH_GRANTS * len(_ROW):
            self.flush_grants()

    def _walk_cqi(self) -> None:
        """Advance every connected UE's CQI walk, in connection order."""
        step_prob, floor, ceiling = self._cqi_walk
        draw = self._rng.random
        pick = self._rng.choice
        cqi = self._cqi
        for slot in self._ordered():  # repro: noqa[PAR004] — draw order
            if draw() < step_prob:
                stepped = cqi[slot] + pick(_CQI_STEPS)
                cqi[slot] = (floor if stepped < floor
                             else ceiling if stepped > ceiling else stepped)

    def _maybe_retransmit(self, direction: int, rnti: int, mcs: int,
                          n_prb: int, tbs: int, attempt: int) -> None:
        """Queue a HARQ retransmission of a failed transport block.

        A retransmission re-airs the *same grant* one HARQ RTT later —
        visible to the sniffer as a duplicate-size DCI, a real artefact
        of live captures that the classifier must tolerate.
        """
        if attempt >= self._HARQ_MAX_ATTEMPTS:
            return
        if self._rng.random() >= self._profile.harq_bler:
            return

        def retransmit() -> None:
            # The UE may have been released meanwhile; retransmissions
            # to a retired RNTI are simply not sent.
            if rnti not in self._contexts:
                return
            self._air(self._clock.now_us, direction, rnti, mcs, n_prb, tbs)
            self.harq_retransmissions += 1
            self.grants_issued += 1
            self._grants_obs.inc()
            self._maybe_retransmit(direction, rnti, mcs, n_prb, tbs,
                                   attempt + 1)

        self._clock.schedule(self._HARQ_RTT_TTIS * self._tti_us, retransmit)

    # -- morphing defences (§VIII-B) ------------------------------------------------

    def _obfuscate(self, direction: Direction, grants: list,
                   available: int) -> list:
        """Padding and chaff; useful bytes are counted before either."""
        self.obfuscation_stats.useful_bytes += sum(
            grant[4] for grant in grants)
        if self.obfuscation.padding_quantum > 0:
            grants = self._pad(grants, available)
        return grants + self._chaff(direction, available)

    def _pad(self, grants: list, available: int) -> list:
        """Round each grant up to the padding quantum."""
        quantum = self.obfuscation.padding_quantum
        leftover = available - sum(grant[3] for grant in grants)
        padded = []
        for slot, rnti, mcs, n_prb, tbs in grants:  # repro: noqa[PAR004] — budget is consumed in grant order
            target = -(-tbs // quantum) * quantum
            budget = n_prb + max(0, leftover)
            padded_prb, padded_tbs = grant_for_bytes(target, mcs, budget)
            if padded_tbs > tbs and padded_prb >= n_prb:
                leftover -= padded_prb - n_prb
                self.obfuscation_stats.padding_bytes += padded_tbs - tbs
                padded.append((slot, rnti, mcs, padded_prb, padded_tbs))
            else:
                padded.append((slot, rnti, mcs, n_prb, tbs))
        return padded

    def _chaff(self, direction: Direction, available: int) -> list:
        """A dummy grant for an idle UE, blurring interarrival structure."""
        probability = self.obfuscation.chaff_probability
        if probability <= 0.0 or not self._contexts:
            return []
        if self._rng.random() >= probability:
            return []
        backlog = self._backlog[direction]
        idle = [slot for slot in self._ordered() if backlog[slot] == 0]
        if not idle:
            return []
        slot = self._rng.choice(idle)
        size = self._rng.randint(64, self.obfuscation.chaff_max_bytes)
        mcs = CQI_TO_MCS[self._cqi[slot]]
        n_prb, tbs = grant_for_bytes(size, mcs, max(1, available // 4))
        self.obfuscation_stats.chaff_bytes += tbs
        self.obfuscation_stats.chaff_grants += 1
        return [(slot, self._rnti[slot], mcs, n_prb, tbs)]
