"""MAC schedulers: how backlogged bytes become per-TTI grants.

The scheduler translates application behaviour into the frame-size /
interarrival fingerprint the attack observes.  Real operators run
different (proprietary) disciplines, which the paper names as a key
reason models must be trained per carrier; three are implemented —
round-robin, proportional-fair and a greedy max-CQI — and operator
profiles choose.  Downlink and uplink are scheduled independently
(FDD), each over its own ``total_prb`` grid per TTI.

Every scheduler serves one TTI's demands through one of two **lanes**,
chosen by the engine (:mod:`repro.lte.enb`) from the size of the
direction's active set:

* :meth:`allocate_scalar` — Python lists in, ``(position, n_prb,
  tbs_bytes)`` tuples out, each grant from :func:`grant_for_bytes`.
  No numpy call runs per TTI; this is the lane of every small cell and
  of every one-UE capture.
* :meth:`allocate_batch` — parallel int64 arrays in, grant arrays out.
  The shared PRB budget is consumed **sequentially** in service order
  by the closed-form "terminal index" kernel :func:`_sequential_grants`,
  which matches the scalar loop including its saturation edge where the
  final grant absorbs *all* remaining PRBs.

Both lanes produce identical grants and share one scheduler state: the
round-robin pointer, and proportional-fair's per-RNTI float64 averages,
stored once in an ``array('d')`` that the scalar lane indexes as Python
floats and the array lane views zero-copy through numpy.  Service order
is the same in both (RR rotation, stable descending PF priority, stable
descending MCS), and every average is updated with the same
``(1 - a) * avg + a * served`` expression, so values stay IEEE-identical
whichever lane ran.  Nothing here draws randomness.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .tbs import (MAX_PRB, grant_for_bytes, itbs_of_mcs_array, mcs_to_itbs,
                  neg_pf_instantaneous_bytes_array, tbs_bytes_array,
                  transport_block_bytes)

#: Grants for one direction of one TTI: positions into the demand batch
#: (in service order), PRBs granted, and TBS bytes granted.
GrantArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Scalar-lane grants: ``(position, n_prb, tbs_bytes)`` in service order.
ScalarGrants = List[Tuple[int, int, int]]

_EMPTY_GRANTS: GrantArrays = (np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64))

#: Crossover between the lanes: a direction whose active set holds at
#: most this many UEs is scheduled by the scalar lane, a larger one by
#: the array lane.  Justified by the UEs-per-cell sweep recorded in
#: ``BENCH_simulator.json`` (``make bench-sim``).
SCALAR_LANE_MAX = 64

#: Size of the dense PF state arrays: the full 16-bit RNTI space.
_RNTI_SPACE = 1 << 16

#: Demands examined per chunk while hunting the budget's terminal index.
#: A saturating backlog ends the hunt inside the first chunk, so heavy
#: cells pay O(chunk) per TTI instead of O(n); dribble loads that grant
#: many small allocations degrade gracefully to the full sweep.
_CHUNK = 32

#: PF priority numerator per MCS: reference TBS bytes at 25 PRBs.
_PF_INSTANTANEOUS = tuple(transport_block_bytes(mcs_to_itbs(mcs), 25)
                          for mcs in range(len(itbs_of_mcs_array())))


def scalar_grants(order: Sequence[int], pending: Sequence[int],
                  mcs: Sequence[int], total_prb: int) -> ScalarGrants:
    """Consume a shared PRB budget over ``order`` one demand at a time."""
    grants = []
    remaining = total_prb
    for demand in order:  # repro: noqa[PAR004] — scalar lane: at most SCALAR_LANE_MAX demands
        if remaining <= 0:
            break
        n_prb, tbs = grant_for_bytes(pending[demand], mcs[demand],
                                     remaining)
        grants.append((demand, n_prb, tbs))
        remaining -= n_prb
    return grants


def _sequential_grants(order: np.ndarray, pending: np.ndarray,
                       i_tbs: np.ndarray, total_prb: int) -> GrantArrays:
    """Consume a shared PRB budget over ``order`` exactly like the scalar loop.

    :func:`scalar_grants` runs::

        remaining = total_prb
        for demand in ordered:
            if remaining <= 0: break
            n_prb, tbs = grant_for_bytes(backlog, mcs, remaining)
            remaining -= n_prb

    Because ``grant_for_bytes`` takes the *minimal* fitting PRB count
    unless the budget saturates, every grant before the first "event" is
    simply the demand's unbounded need.  Two events can end the loop:

    * **stop** — the running budget hits zero before a demand is served;
    * **saturation** — ``grant_for_bytes`` detects that the remaining
      budget cannot (or only exactly) carries the backlog
      (``table[i_tbs, remaining-1] <= pending``) and grants *all*
      remaining PRBs.  A saturated grant is always the last one.

    Both are found in closed form from the exclusive prefix sum of the
    per-demand needs, so no Python-level loop runs over demands.  The
    hunt proceeds in chunks of ``_CHUNK`` carrying the running budget
    across chunk boundaries: events depend only on the prefix sums, so
    stopping at the first event in the first chunk that contains one is
    exactly the global computation — while a cell whose first demand
    saturates (the common heavy-load case) touches one chunk, not all n.
    """
    if not 1 <= total_prb <= MAX_PRB:
        raise ValueError(
            f"max_prb out of range [1, {MAX_PRB}]: {total_prb}")
    if int(pending.min(initial=1)) <= 0:
        raise ValueError("demand backlog must be positive")
    n = len(order)
    if n == 0:
        return _EMPTY_GRANTS
    table = tbs_bytes_array()
    position_parts = []
    prb_parts = []
    budget = total_prb
    start = 0
    while start < n:
        chunk = order[start:start + _CHUNK]
        chunk_pending = pending[chunk]
        chunk_itbs = i_tbs[chunk]
        rows = table[chunk_itbs]
        # side="left" insertion point via broadcast: rows non-decreasing.
        need = (rows < chunk_pending[:, None]).sum(axis=1,
                                                   dtype=np.int64) + 1
        remaining = budget - (need.cumsum() - need)
        alive = remaining > 0
        clipped = remaining.clip(1, MAX_PRB)
        saturated = alive & (table[chunk_itbs, clipped - 1]
                             <= chunk_pending)
        size = len(chunk)
        stop_at = size if bool(alive.all()) else int((~alive).argmax())
        sat_at = int(saturated.argmax()) if bool(saturated.any()) else size
        if sat_at < stop_at:
            granted = sat_at + 1
            n_prb = need[:granted].copy()
            n_prb[sat_at] = remaining[sat_at]
            position_parts.append(chunk[:granted])
            prb_parts.append(n_prb)
            break
        if stop_at < size:
            position_parts.append(chunk[:stop_at])
            prb_parts.append(need[:stop_at])
            break
        position_parts.append(chunk)
        prb_parts.append(need)
        budget = int(remaining[-1]) - int(need[-1])
        if budget <= 0:
            break
        start += _CHUNK
    if len(position_parts) == 1:
        positions, n_prb = position_parts[0], prb_parts[0]
    else:
        positions = np.concatenate(position_parts)
        n_prb = np.concatenate(prb_parts)
    tbs = table[i_tbs[positions], n_prb - 1]
    return positions, n_prb, tbs


class RoundRobinScheduler:
    """Classic round-robin: serve demands cyclically, fair in turns."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next_index = 0

    def _rotate(self, count: int) -> int:
        start = self._next_index % count
        self._next_index = (start + 1) % count
        return start

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> ScalarGrants:
        count = len(rntis)
        if count == 0:
            return []
        start = self._rotate(count)
        order = [*range(start, count), *range(start)]
        return scalar_grants(order, pending, mcs, total_prb)

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        count = len(rntis)
        if count == 0:
            return _EMPTY_GRANTS
        start = self._rotate(count)
        order = np.concatenate((np.arange(start, count, dtype=np.int64),
                                np.arange(0, start, dtype=np.int64)))
        i_tbs = itbs_of_mcs_array()[mcs]
        return _sequential_grants(order, pending, i_tbs, total_prb)


class ProportionalFairScheduler:
    """Proportional fair: rank by instantaneous rate over average rate.

    Keeps an exponentially averaged throughput per RNTI; UEs recently
    served rank lower, producing the short-timescale interleaving
    visible in commercial captures.  The averages live in one dense
    ``array('d')`` over the whole 16-bit RNTI space, initialised to the
    default of 1.0, with a writable numpy view over the same memory for
    the array lane.  ``_members`` holds the RNTIs every TTI decays: all
    RNTIs seen since they were last forgotten.
    """

    name = "proportional-fair"

    def __init__(self, averaging_window: float = 100.0) -> None:
        if averaging_window <= 1.0:
            raise ValueError(
                f"averaging_window must exceed 1: {averaging_window}")
        self._alpha = 1.0 / averaging_window
        self._avg = array("d", [1.0]) * _RNTI_SPACE
        self._avg_view = np.frombuffer(self._avg, dtype=np.float64)
        self._served = np.zeros(_RNTI_SPACE, dtype=np.float64)
        self._members: Dict[int, None] = {}
        self._member_flags = array("B", bytes(_RNTI_SPACE))
        self._member_mask = np.frombuffer(self._member_flags, dtype=bool)
        self._member_array = None

    def _join(self, rntis) -> None:
        """Add RNTIs to the decay sweep (membership changes are rare)."""
        for rnti in rntis:  # repro: noqa[PAR004] — only when a demand RNTI is new
            if rnti not in self._members:
                self._members[rnti] = None
                self._member_flags[rnti] = 1
                self._member_array = None

    def _decay(self, rntis, tbs) -> None:
        """One averaging step over every member, crediting granted bytes.

        A repeated RNTI keeps its *last* grant's bytes, as a dict write
        would.  The sweep picks its own lane from the member count.
        """
        alpha = self._alpha
        if len(self._members) <= SCALAR_LANE_MAX:
            served = dict(zip(rntis, tbs))
            avg = self._avg
            for rnti in self._members:  # repro: noqa[PAR004] — at most SCALAR_LANE_MAX members
                avg[rnti] = ((1.0 - alpha) * avg[rnti]
                             + alpha * served.get(rnti, 0))
            return
        if self._member_array is None:
            self._member_array = np.fromiter(
                self._members, dtype=np.int64, count=len(self._members))
        members = self._member_array
        view = self._avg_view
        self._served[rntis] = tbs
        view[members] = ((1.0 - alpha) * view[members]
                         + alpha * self._served[members])
        self._served[rntis] = 0.0

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> ScalarGrants:
        if not rntis:
            return []
        avg = self._avg
        priority = [_PF_INSTANTANEOUS[mcs_i] / max(avg[rnti], 1e-9)
                    for rnti, mcs_i in zip(rntis, mcs)]
        order = sorted(range(len(rntis)), key=priority.__getitem__,
                       reverse=True)
        grants = scalar_grants(order, pending, mcs, total_prb)
        self._join(rntis)
        self._decay([rntis[position] for position, _, _ in grants],
                    [tbs for _, _, tbs in grants])
        return grants

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        if len(rntis) == 0:
            return _EMPTY_GRANTS
        rntis = np.asarray(rntis, dtype=np.int64)
        i_tbs = itbs_of_mcs_array()[mcs]
        # Negated priority, ascending stable sort == scalar descending
        # stable rank; same float divisions, one fewer array pass.
        neg_priority = (neg_pf_instantaneous_bytes_array()[i_tbs]
                        / np.maximum(self._avg_view[rntis], 1e-9))
        order = neg_priority.argsort(kind="stable")
        positions, n_prb, tbs = _sequential_grants(
            order, pending, i_tbs, total_prb)
        if not bool(self._member_mask[rntis].all()):
            self._join(rntis.tolist())
        self._decay(rntis[positions], tbs)
        return positions, n_prb, tbs

    def forget(self, rnti: int) -> None:
        """Drop a released RNTI's average and membership."""
        self._avg[rnti] = 1.0
        if rnti in self._members:
            del self._members[rnti]
            self._member_flags[rnti] = 0
            self._member_array = None


class MaxCQIScheduler:
    """Greedy: always serve the best-channel demand first (max throughput)."""

    name = "max-cqi"

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> ScalarGrants:
        order = sorted(range(len(rntis)), key=mcs.__getitem__,
                       reverse=True)
        return scalar_grants(order, pending, mcs, total_prb)

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        if len(rntis) == 0:
            return _EMPTY_GRANTS
        order = np.argsort(-np.asarray(mcs, dtype=np.int64), kind="stable")
        i_tbs = itbs_of_mcs_array()[mcs]
        return _sequential_grants(order, pending, i_tbs, total_prb)


_SCHEDULERS = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    ProportionalFairScheduler.name: ProportionalFairScheduler,
    MaxCQIScheduler.name: MaxCQIScheduler,
}


def make_scheduler(name: str):
    """Instantiate a scheduler by its registry name."""
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(_SCHEDULERS)}"
        ) from None


def scheduler_names() -> Tuple[str, ...]:
    """Names of all registered scheduling disciplines."""
    return tuple(sorted(_SCHEDULERS))
