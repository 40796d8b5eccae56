"""Segment format: roundtrip, sealing, and truncation-tolerant recovery."""

import os

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import SegmentWriter, StreamRecord, StreamStore, read_segment, scan_records


def _record(n=0, data=b"payload", direction=0, priority=0, ts=None):
    return StreamRecord(
        five_tuple=FiveTuple(10 + n, 1000 + n, 20 + n, 80, IPProtocol.TCP),
        direction=direction,
        stream_offset=n * 100,
        timestamp=float(n) if ts is None else ts,
        data=data,
        priority=priority,
    )


class TestRoundtrip:
    def test_encode_decode(self):
        record = _record(3, data=b"hello world", direction=1, priority=7)
        decoded = StreamRecord.decode(record.encode())
        assert decoded == record

    def test_client_tuple_reverses_server_direction(self):
        record = _record(1, direction=1)
        assert record.client_tuple == record.five_tuple.reversed()
        assert _record(1, direction=0).client_tuple == record.five_tuple

    def test_sealed_segment_reads_back(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path, core=3)
        originals = [_record(n, data=bytes([n]) * (10 + n)) for n in range(5)]
        offsets = [writer.append(record) for record in originals]
        info = writer.seal()
        assert info.sealed and info.record_count == 5
        records, scanned = read_segment(path)
        assert records == originals
        assert scanned.sealed and scanned.torn_bytes == 0
        assert scanned.core == 3
        assert [offset for offset, _ in scan_records(path)] == offsets

    def test_compression_roundtrip(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path, compress=True)
        original = _record(0, data=b"A" * 5000)
        writer.append(original)
        info = writer.seal()
        assert writer.compressed_saved > 0
        assert info.disk_bytes < 5000  # zlib actually shrank the frame
        records, _ = read_segment(path)
        assert records == [original]

    def test_incompressible_body_stored_raw(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path, compress=True)
        original = _record(0, data=os.urandom(256))
        writer.append(original)
        writer.seal()
        records, _ = read_segment(path)
        assert records == [original]

    def test_append_after_seal_raises(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg.scap"))
        writer.append(_record(0))
        writer.seal()
        with pytest.raises(ValueError):
            writer.append(_record(1))


class TestRecovery:
    def test_unsealed_close_recovers_everything(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path)
        originals = [_record(n) for n in range(4)]
        for record in originals:
            writer.append(record)
        writer.close()  # crash before seal
        records, info = read_segment(path)
        assert records == originals
        assert not info.sealed
        assert info.torn_bytes == 0

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """The crash-safety contract: a segment truncated at ANY byte
        offset recovers exactly the records whose frames fully survive,
        and never raises."""
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path)
        originals = [_record(n, data=bytes([65 + n]) * (8 + 3 * n)) for n in range(5)]
        ends = []  # file size after each complete frame
        for record in originals:
            writer.append(record)
            ends.append(writer.disk_bytes)
        writer.seal()
        with open(path, "rb") as handle:
            blob = handle.read()
        torn = str(tmp_path / "torn.scap")
        for cut in range(len(blob) + 1):
            with open(torn, "wb") as handle:
                handle.write(blob[:cut])
            if cut < 16:  # header itself torn: nothing recoverable
                records, info = read_segment(torn)
                assert records == [] and not info.sealed
                continue
            records, info = read_segment(torn)
            expected = sum(1 for end in ends if end <= cut)
            assert len(records) == expected, f"cut at byte {cut}"
            assert records == originals[:expected]
            assert info.sealed == (cut == len(blob))
            if cut < len(blob):
                assert info.torn_bytes == cut - ([16] + ends)[expected]

    def test_corrupt_byte_ends_scan_at_tear(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path)
        writer.append(_record(0, data=b"x" * 50))
        first_end = writer.disk_bytes
        for n in range(1, 3):
            writer.append(_record(n, data=b"x" * 50))
        writer.seal()
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[first_end + 20] ^= 0xFF  # flip a byte inside record 2's body
        with open(path, "wb") as handle:
            handle.write(blob)
        records, info = read_segment(path)
        assert len(records) == 1  # CRC catches the flip; scan stops there
        assert not info.sealed and info.torn_bytes > 0

    def test_torn_header_counts_on_disk(self, tmp_path):
        """A segment whose 16-byte header is torn holds no record, but its
        bytes are on disk: the scan and the store's disk total count them."""
        path = tmp_path / "seg-0-000000.scap"
        path.write_bytes(b"SCAPSEG\x01\x00\x00")  # 10 bytes of a header
        records, info = read_segment(str(path))
        assert records == [] and not info.sealed
        assert info.disk_bytes == info.torn_bytes == 10
        store = StreamStore(str(tmp_path))
        stats = store.stats()
        assert (stats.record_count, stats.disk_bytes) == (0, 10)
        store.close(enforce_retention=False)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "seg.scap")
        with open(path, "wb") as handle:
            handle.write(b"NOTASEG!" + b"\x00" * 8)
        with pytest.raises(ValueError):
            read_segment(path)

    def test_footer_count_mismatch_treated_as_torn(self, tmp_path):
        """A footer whose record count disagrees with the frames before
        it (e.g. spliced from another file) must not mark sealed."""
        path = str(tmp_path / "seg.scap")
        writer = SegmentWriter(path)
        writer.append(_record(0))
        writer.append(_record(1))
        writer.seal()
        with open(path, "rb") as handle:
            blob = handle.read()
        one = str(tmp_path / "one.scap")
        short_writer = SegmentWriter(one)
        short_writer.append(_record(0))
        short_writer.close()
        with open(one, "ab") as handle:
            handle.write(blob[-40:])  # two-record footer after one record
        records, info = read_segment(one)
        assert len(records) == 1
        assert not info.sealed
