"""OWL multi-instant ingest equals per-record ingest, state for state.

The engine hands grants to the sniffer in columnar batches spanning many
TTIs; :meth:`OWLTracker.on_dci_columns` ingests them in bulk segments.
These properties feed random record streams — idle gaps longer than the
expiry, garbage RNTIs outside the C-RNTI range, repeated RNTIs, confirm
thresholds above 1, and control messages between batches — once through
``on_dci_columns`` in random batch cuts and once record by record, and
compare every piece of tracker state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.lte.rrc import RandomAccessResponse, RRCConnectionRelease
from repro.sniffer.owl import OWLTracker

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

#: A small RNTI pool (so RNTIs repeat) plus out-of-range garbage values.
_RNTIS = st.sampled_from([0x0001, 0x0040, 0x1234, 0x2345, 0x3456, 0xFFF5])

#: Gaps between consecutive records: same TTI, short, and beyond expiry.
_GAPS = st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.3, 0.999, 1.0, 1.7,
                         11.999, 12.0, 12.5, 30.0])

_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("dci"), _GAPS, _RNTIS),
    st.tuples(st.just("rar"), _GAPS, _RNTIS),
    st.tuples(st.just("release"), _GAPS, _RNTIS),
    st.tuples(st.just("cut"), st.just(0.0), st.just(0)),
), max_size=80)


def _state(tracker):
    def activity(entry):
        return (entry.rnti, entry.confirmed_s, entry.last_seen_s,
                entry.records, entry.expired)

    return (
        [activity(entry) for entry in tracker._active.values()],
        [activity(entry) for entry in tracker._history],
        [(rnti, c.first_seen_s, c.last_seen_s, c.hits)
         for rnti, c in tracker._candidates.items()],
        tracker._last_sweep_s, sorted(tracker._ever_confirmed),
        tracker.reconfirmations,
    )


def _replay(events, threshold, columnar):
    tracker = OWLTracker(confirm_threshold=threshold)
    now = 0.0
    times, rntis = [], []

    def flush():
        if columnar and times:
            tracker.on_dci_columns(np.array(times), np.array(rntis))
        times.clear()
        rntis.clear()

    for kind, gap, rnti in events:
        now += gap
        if kind == "dci":
            if columnar:
                times.append(now)
                rntis.append(rnti)
            else:
                tracker.on_dci(now, rnti)
        elif kind == "cut":
            flush()
        else:
            flush()
            time_us = int(round(now * 1_000_000))
            tracker.on_control(
                RandomAccessResponse(time_us, 1, rnti) if kind == "rar"
                else RRCConnectionRelease(time_us, rnti))
            now = time_us / 1_000_000
    flush()
    return _state(tracker)


@SETTINGS
@given(events=_EVENTS, threshold=st.sampled_from([1, 1, 2, 3]))
def test_columnar_ingest_matches_per_record(events, threshold):
    with obs.override(True):
        obs.reset()
        expected = _replay(events, threshold, columnar=False)
        per_record = obs.snapshot()["counters"]
        obs.reset()
        got = _replay(events, threshold, columnar=True)
        columnar = obs.snapshot()["counters"]
        obs.reset()
    assert got == expected
    assert columnar == per_record


def test_long_idle_gap_expires_inside_a_batch():
    tracker = OWLTracker(confirm_threshold=1)
    times = np.array([0.0, 0.5, 13.0, 13.5, 30.0])
    rntis = np.array([0x1234, 0x1234, 0x2345, 0x1234, 0x2345])
    tracker.on_dci_columns(times, rntis)
    reference = OWLTracker(confirm_threshold=1)
    for now, rnti in zip(times.tolist(), rntis.tolist()):
        reference.on_dci(now, rnti)
    assert _state(tracker) == _state(reference)
    assert [entry.rnti for entry in tracker.history()] == [0x1234, 0x2345,
                                                           0x1234]
