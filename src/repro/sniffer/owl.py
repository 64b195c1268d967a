"""OWL-style online RNTI tracker (Bui & Widmer, ATC'16; paper §III-E ❶).

The paper "collect[s] and maintain[s] a list of active RNTIs using
open-source software OWL which identifies UEs within a given cell".
The tracker consumes the blind-decoded record stream and decides which
RNTIs are *real* active users versus decode noise:

* a candidate RNTI is **confirmed** once it appears at least
  ``confirm_threshold`` times within ``confirm_window_s`` — corrupted
  captures produce uniformly random 16-bit values, so repeats at the
  same value are overwhelmingly genuine;
* a confirmed RNTI **expires** after ``expiry_s`` without traffic,
  reflecting RRC release (the eNB will reassign it eventually).

It also listens to the control feed: a ``RandomAccessResponse`` names a
just-assigned temporary C-RNTI, which is immediately trusted (this is
how OWL bootstraps quickly after connection setup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from .. import obs
from ..lte.identifiers import CRNTI_MAX, CRNTI_MIN, is_crnti
from ..lte.rrc import (ControlMessage, RandomAccessResponse,
                       RRCConnectionRelease)
from ..lte.sim import to_seconds
from .trace import TraceRecord


@dataclass
class _Candidate:
    first_seen_s: float
    last_seen_s: float
    hits: int = 1


@dataclass
class RNTIActivity:
    """Lifetime summary of one confirmed RNTI."""

    rnti: int
    confirmed_s: float
    last_seen_s: float
    records: int = 0
    expired: bool = field(default=False)


class OWLTracker:
    """Maintains the set of active (confirmed) C-RNTIs in a cell."""

    def __init__(self, confirm_threshold: int = 3,
                 confirm_window_s: float = 1.0,
                 expiry_s: float = 12.0) -> None:
        if confirm_threshold < 1:
            raise ValueError(
                f"confirm_threshold must be >= 1: {confirm_threshold}")
        self._threshold = confirm_threshold
        self._window_s = confirm_window_s
        self._expiry_s = expiry_s
        self._candidates: Dict[int, _Candidate] = {}
        self._active: Dict[int, RNTIActivity] = {}
        self._history: List[RNTIActivity] = []
        # Candidate sweeps are amortised: at most one dictionary scan
        # per confirm window, so the hot on_dci path stays O(1).
        self._last_sweep_s = float("-inf")
        self._ever_confirmed: Set[int] = set()
        self._confirmed_obs = obs.counter("sniffer.tracker.confirmed")
        self._retired_obs = obs.counter("sniffer.tracker.retired")
        self._pruned_obs = obs.counter("sniffer.tracker.candidates_pruned")
        self._reconfirmed = obs.attr_counter("sniffer.tracker.reconfirmed")

    # -- ingestion ---------------------------------------------------------------

    def on_record(self, record: TraceRecord) -> None:
        """Feed one blind-decoded DCI record (compatibility wrapper)."""
        self.on_dci(record.time_s, record.rnti)

    def on_dci(self, now: float, rnti: int) -> None:
        """Feed one blind-decoded DCI as primitives (the hot path)."""
        self._expire_stale(now)
        if not is_crnti(rnti):
            return
        activity = self._active.get(rnti)
        if activity is not None:
            # Chunked feeds may deliver records slightly out of time
            # order at chunk boundaries; liveness clocks only ever move
            # forward, so a late-arriving old record cannot shrink an
            # entry's lifetime or trigger a spurious expiry later.
            activity.last_seen_s = max(activity.last_seen_s, now)
            activity.records += 1
            return
        candidate = self._candidates.get(rnti)
        if candidate is None or now - candidate.first_seen_s > self._window_s:
            self._candidates[rnti] = _Candidate(first_seen_s=now,
                                                last_seen_s=now)
            candidate = self._candidates[rnti]
        else:
            candidate.hits += 1
            candidate.last_seen_s = max(candidate.last_seen_s, now)
        if candidate.hits >= self._threshold:
            self._confirm(rnti, now)

    def on_dci_batch(self, now: float, rntis) -> None:
        """Feed one grant batch (same-timestamp records) in one call.

        State-for-state equivalent to calling :meth:`on_dci` once per
        record: records of one batch share a timestamp, so the per-record
        expiry/sweep passes after the first are provably no-ops (every
        touched entry has ``last_seen_s == now``), and per-RNTI counts
        collapse analytically — ``h`` hits split into candidate hits up
        to the confirm threshold, a confirmation, and activity records
        for the remainder.  RNTI groups are mutually independent, so
        processing them in sorted rather than emission order changes no
        state.
        """
        self._expire_stale(now)
        unique, counts = np.unique(np.asarray(rntis), return_counts=True)
        for rnti, count in zip(unique.tolist(), counts.tolist()):
            if not is_crnti(rnti):
                continue
            activity = self._active.get(rnti)
            if activity is not None:
                activity.last_seen_s = max(activity.last_seen_s, now)
                activity.records += count
                continue
            candidate = self._candidates.get(rnti)
            if (candidate is None
                    or now - candidate.first_seen_s > self._window_s):
                candidate = _Candidate(first_seen_s=now, last_seen_s=now)
                self._candidates[rnti] = candidate
            else:
                candidate.hits += 1
                candidate.last_seen_s = max(candidate.last_seen_s, now)
            remaining = count - 1
            if candidate.hits < self._threshold:
                taken = min(remaining, self._threshold - candidate.hits)
                candidate.hits += taken
                if taken:
                    candidate.last_seen_s = max(candidate.last_seen_s, now)
                remaining -= taken
            if candidate.hits >= self._threshold:
                self._confirm(rnti, now)
                self._active[rnti].records += remaining

    def on_dci_columns(self, times_s, rntis) -> None:
        """Feed records spanning many instants, in non-decreasing time order.

        State-for-state equivalent to calling :meth:`on_dci` once per
        record.  With a confirm threshold of 1 and no pending candidate,
        only two time-driven effects exist: the expiry of an active RNTI
        and the candidate sweep, which with no candidates merely moves
        the sweep clock.  The records are therefore cut into segments
        within which no active RNTI can expire — every instant ``t``
        satisfies ``t - floor <= expiry_s``, ``floor`` being the
        segment's first instant or the oldest ``last_seen_s`` of the
        active set, whichever is earlier.  Each segment is ingested in
        bulk (the sweep clock advanced in closed form, per-RNTI hits
        collapsed), while a record at which something does expire, and
        any stream under other settings, goes through :meth:`on_dci`.
        """
        times_s = np.asarray(times_s, dtype=np.float64)
        rntis = np.asarray(rntis)
        n = len(times_s)
        start = 0
        while start < n:
            if self._threshold != 1 or self._candidates:
                for now, rnti in zip(times_s[start:].tolist(),
                                     rntis[start:].tolist()):
                    self.on_dci(now, rnti)
                return
            first_s = float(times_s[start])
            floor = min([first_s] + [activity.last_seen_s for activity
                                     in self._active.values()])
            if first_s - floor > self._expiry_s:
                self.on_dci(first_s, int(rntis[start]))
                start += 1
                continue
            end = self._segment_end(times_s, start, floor)
            self._ingest_segment(times_s[start:end], rntis[start:end])
            start = end

    def _segment_end(self, times_s: np.ndarray, start: int,
                     floor: float) -> int:
        """End of the longest run from ``start`` with ``t - floor <= expiry``."""
        expiry = self._expiry_s
        end = max(start + 1, int(np.searchsorted(times_s, floor + expiry,
                                                 side="right")))
        while end > start + 1 and not times_s[end - 1] - floor <= expiry:
            end -= 1
        while end < len(times_s) and times_s[end] - floor <= expiry:
            end += 1
        return end

    def _ingest_segment(self, times_s: np.ndarray, rntis: np.ndarray) -> None:
        """Bulk-ingest records among which nothing can expire."""
        # The sweep fires at each record at least one window after the
        # previous sweep; with no candidates it only moves the clock.
        last, window = self._last_sweep_s, self._window_s
        index = 0
        while index < len(times_s):
            at = max(index, int(np.searchsorted(times_s, last + window)))
            while at > index and times_s[at - 1] - last >= window:
                at -= 1
            while at < len(times_s) and not times_s[at] - last >= window:
                at += 1
            if at == len(times_s):
                break
            last = float(times_s[at])
            index = at + 1
        self._last_sweep_s = last
        valid = (rntis >= CRNTI_MIN) & (rntis <= CRNTI_MAX)
        if not valid.all():
            times_s, rntis = times_s[valid], rntis[valid]
        if not len(rntis):
            return
        unique, first, counts = np.unique(rntis, return_index=True,
                                          return_counts=True)
        last_index = len(rntis) - 1 - np.unique(rntis[::-1],
                                                return_index=True)[1]
        order = np.argsort(first, kind="stable")
        for rnti, first_s, last_s, count in zip(
                unique[order].tolist(), times_s[first[order]].tolist(),
                times_s[last_index[order]].tolist(),
                counts[order].tolist()):
            activity = self._active.get(rnti)
            if activity is None:
                # Threshold 1: the first hit confirms, the rest count.
                self._confirm(rnti, first_s)
                activity = self._active[rnti]
                count -= 1
            activity.last_seen_s = max(activity.last_seen_s, last_s)
            activity.records += count

    def on_control(self, message: ControlMessage) -> None:
        """Feed one control-plane message."""
        if isinstance(message, RandomAccessResponse):
            now = to_seconds(message.time_us)
            self._expire_stale(now)
            if is_crnti(message.temp_crnti):
                self._confirm(message.temp_crnti, now)
        elif isinstance(message, RRCConnectionRelease):
            self._retire(message.crnti, to_seconds(message.time_us))

    # -- internals ------------------------------------------------------------------

    def _confirm(self, rnti: int, now: float) -> None:
        if rnti in self._active:
            activity = self._active[rnti]
            activity.last_seen_s = max(activity.last_seen_s, now)
            return
        self._candidates.pop(rnti, None)
        self._active[rnti] = RNTIActivity(rnti=rnti, confirmed_s=now,
                                          last_seen_s=now)
        self._confirmed_obs.inc()
        # An RNTI confirmed, retired, then confirmed again is churn the
        # tracker absorbed (reassignment faults, RRC release/reconnect);
        # counted explicitly so degraded captures are distinguishable
        # from clean ones in the run manifest.
        if rnti in self._ever_confirmed:
            self._reconfirmed.inc()
        else:
            self._ever_confirmed.add(rnti)

    def _retire(self, rnti: int, now: float) -> None:
        activity = self._active.pop(rnti, None)
        if activity is not None:
            activity.expired = True
            activity.last_seen_s = max(activity.last_seen_s, now)
            self._history.append(activity)
            self._retired_obs.inc()

    def _expire_stale(self, now: float) -> None:
        stale = [rnti for rnti, activity in self._active.items()
                 if now - activity.last_seen_s > self._expiry_s]
        for rnti in stale:
            self._retire(rnti, now)
        # Corrupted captures yield uniformly random garbage RNTIs whose
        # one-hit candidate entries would otherwise accumulate forever
        # (a long-capture memory leak).  A candidate unseen for a full
        # confirm window can never confirm — on_dci restarts the window
        # for it anyway — so it is dropped.  Swept at most once per
        # window to keep the per-DCI cost amortised O(1).
        if now - self._last_sweep_s >= self._window_s:
            self._last_sweep_s = now
            dead = [rnti for rnti, candidate in self._candidates.items()
                    if now - candidate.last_seen_s > self._window_s]
            for rnti in dead:
                del self._candidates[rnti]
            if dead:
                self._pruned_obs.inc(len(dead))

    # -- queries ------------------------------------------------------------------------

    def active_rntis(self) -> Set[int]:
        """Currently-confirmed RNTIs."""
        return set(self._active)

    def is_active(self, rnti: int) -> bool:
        return rnti in self._active

    def activity(self, rnti: int) -> Optional[RNTIActivity]:
        return self._active.get(rnti)

    def history(self) -> List[RNTIActivity]:
        """Expired activities, in retirement order."""
        return list(self._history)

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    @property
    def reconfirmations(self) -> int:
        """Confirm events for RNTIs already confirmed once before."""
        return self._reconfirmed.value
