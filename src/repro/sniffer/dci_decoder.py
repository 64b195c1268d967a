"""Passive PDCCH decoder: the attacker's ear on the air interface.

Mirrors the paper's customised srsLTE ``pdsch_ue`` (§VII "Data
collection"): every PDCCH transmission that survives the capture
channel is blind-decoded — the RNTI recovered from the CRC mask, the
grant parsed, and the transport block size computed — yielding the raw
``(timestamp, RNTI, direction, TBS)`` stream.  Corrupted captures
surface as garbage RNTIs or parse failures, which downstream RNTI
tracking (:mod:`repro.sniffer.owl`) must filter, exactly as a real
sniffer must.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..lte.channel import CaptureChannel, ChannelProfile
from ..lte.dci import DecodeError, Direction, EncodedDCI, PDCCHTransmission
from ..lte.identifiers import CRNTI_MAX, CRNTI_MIN, is_crnti
from ..lte.sim import SECOND_US, to_seconds
from .trace import TraceRecord

RecordSink = Callable[[TraceRecord], None]
#: Primitive sink: ``(time_s, rnti, direction, tbs_bytes)`` — the hot
#: path used by the sniffer's columnar builders (no per-DCI objects).
RawSink = Callable[[float, int, int, int], None]
#: Columnar sink: ``(times_s, rntis, directions, tbs_bytes)`` — one call
#: per grant batch, equal-length arrays in emission order.
RawBatchSink = Callable[[float, np.ndarray, np.ndarray, np.ndarray], None]


class DCIDecoder:
    """Decodes PDCCH transmissions into trace records.

    Attach :meth:`on_pdcch` to a cell via ``LTENetwork.observe``.
    Decoded DCIs flow to registered sinks; statistics are kept for the
    attack-cost accounting and for tests.  Two sink flavours exist:
    primitive *raw* sinks (the columnar emit path — no ``TraceRecord``
    allocation per DCI) and record sinks (compatibility; a record is
    built only if at least one is registered).
    """

    def __init__(self, capture_profile: Optional[ChannelProfile] = None,
                 rng: Optional[random.Random] = None,
                 drop_non_crnti: bool = True, seed: int = 0) -> None:
        self._capture = CaptureChannel(capture_profile or ChannelProfile(),
                                       rng if rng is not None
                                       else random.Random(seed))
        self._drop_non_crnti = drop_non_crnti
        self._sinks: List[RecordSink] = []
        self._raw_sinks: List[Tuple[RawSink, Optional[RawBatchSink]]] = []
        # Registry-backed counters behind the historical public
        # attributes (``decoded`` / ``rejected`` stay readable whether
        # or not observability is collecting).
        self._decoded = obs.attr_counter("sniffer.decoder.decoded")
        self._rejected = obs.attr_counter("sniffer.decoder.rejected")
        self._captured_obs = obs.counter("sniffer.capture.captured")
        self._lost_obs = obs.counter("sniffer.capture.lost")
        self._corrupted_obs = obs.counter("sniffer.capture.corrupted")

    @property
    def decoded(self) -> int:
        """DCIs successfully blind-decoded (and kept)."""
        return self._decoded.value

    @property
    def rejected(self) -> int:
        """DCIs dropped: CRC/parse failure or non-C-RNTI."""
        return self._rejected.value

    def add_sink(self, sink: RecordSink) -> None:
        """Register a consumer of decoded :class:`TraceRecord` objects."""
        self._sinks.append(sink)

    def add_raw_sink(self, sink: RawSink,
                     batch: Optional[RawBatchSink] = None) -> None:
        """Register a primitive consumer ``(time_s, rnti, dir, tbs)``.

        ``batch`` optionally pairs a columnar counterpart: when the
        decoder ingests a whole :class:`~repro.lte.enb.GrantBatch`
        (:meth:`on_pdcch_batch`), the batch sink receives the surviving
        records as arrays in one call *instead of* per-record calls to
        ``sink`` — never both, so no record is delivered twice.
        """
        self._raw_sinks.append((sink, batch))

    def on_pdcch(self, transmission: PDCCHTransmission) -> None:
        """Observer callback: capture, blind-decode, fan out."""
        if not self._capture.deliver():
            self._lost_obs.inc()
            return
        self._captured_obs.inc()
        payload = self._capture.corrupt(transmission.encoded.payload)
        if payload is transmission.encoded.payload:
            encoded = transmission.encoded
        else:
            self._corrupted_obs.inc()
            encoded = EncodedDCI(payload=payload,
                                 masked_crc=transmission.encoded.masked_crc)
        try:
            dci = encoded.blind_decode()
        except DecodeError:
            self._rejected.inc()
            return
        if self._drop_non_crnti and not is_crnti(dci.rnti):
            self._rejected.inc()
            return
        self._decoded.inc()
        time_s = to_seconds(transmission.time_us)
        for raw_sink, _ in self._raw_sinks:
            raw_sink(time_s, dci.rnti, int(dci.direction), dci.tbs_bytes)
        if self._sinks:
            record = TraceRecord(time_s=time_s, rnti=dci.rnti,
                                 direction=dci.direction,
                                 tbs_bytes=dci.tbs_bytes)
            for sink in self._sinks:
                sink(record)

    def on_pdcch_batch(self, batch) -> None:
        """Columnar observer: ingest a :class:`~repro.lte.enb.GrantBatch`.

        Two lanes, both record-for-record equivalent to feeding each
        grant through :meth:`on_pdcch`:

        * **clean channel** (no loss, no corruption): every grant is
          captured and decodes back to exactly the columns the engine
          emitted, so the batch is accepted with array ops and no DCI is
          encoded or decoded.  The per-record capture draws are skipped —
          they are outcome-free at zero loss/corruption, and the capture
          rng is private to this decoder, so no other component sees the
          stream move.
        * **lossy channel**: each grant is encoded and routed through
          :meth:`on_pdcch`, so the loss and corruption draws and the blind
          decode happen record by record, in emission order.
        """
        count = len(batch)
        if count == 0:
            return
        profile = self._capture._profile
        if profile.capture_loss > 0.0 or profile.corruption_prob > 0.0:
            for transmission in batch.transmissions():
                self.on_pdcch(transmission)
            return
        self._capture.captured += count
        self._captured_obs.inc(count)
        time_us, rntis = batch.time_us, batch.rntis
        directions, tbs = batch.direction, batch.tbs_bytes
        if self._drop_non_crnti:
            keep = (rntis >= CRNTI_MIN) & (rntis <= CRNTI_MAX)
            if not keep.all():
                self._rejected.inc(count - int(keep.sum()))
                time_us, rntis = time_us[keep], rntis[keep]
                directions, tbs = directions[keep], tbs[keep]
        kept = len(rntis)
        if kept == 0:
            return
        self._decoded.inc(kept)
        # Same IEEE division as to_seconds() on each record.
        times_s = time_us / SECOND_US
        for raw_sink, batch_sink in self._raw_sinks:
            if batch_sink is not None:
                batch_sink(times_s, rntis, directions, tbs)
                continue
            for record in zip(times_s.tolist(), rntis.tolist(),
                              directions.tolist(), tbs.tolist()):
                raw_sink(*record)
        if self._sinks:
            for time_s, rnti, direction, size in zip(
                    times_s.tolist(), rntis.tolist(), directions.tolist(),
                    tbs.tolist()):
                record = TraceRecord(time_s=time_s, rnti=rnti,
                                     direction=Direction(direction),
                                     tbs_bytes=size)
                for sink in self._sinks:
                    sink(record)

    @property
    def capture_stats(self) -> dict:
        """Capture-channel counters (captured / lost / corrupted)."""
        return {"captured": self._capture.captured,
                "lost": self._capture.lost,
                "corrupted": self._capture.corrupted,
                "decoded": self.decoded,
                "rejected": self.rejected}
