"""Tests for chunk assembly and stream memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import Chunk, ChunkAssembler, StreamMemory


@pytest.fixture
def memory():
    return StreamMemory(1 << 20)


class TestChunk:
    def test_lazy_join(self):
        chunk = Chunk(stream_offset=10)
        chunk.append(b"ab")
        chunk.append(b"cd")
        assert chunk.length == 4 and len(chunk) == 4
        assert chunk.data == b"abcd"
        assert chunk.end_offset == 14

    def test_join_cache_invalidation(self):
        chunk = Chunk(0)
        chunk.append(b"x")
        assert chunk.data == b"x"
        chunk.append(b"y")
        assert chunk.data == b"xy"


class TestChunkAssembler:
    def test_fills_and_completes(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=10)
        done = assembler.append(b"0123456789abc", now=1.0)
        assert len(done) == 1
        assert done[0].data == b"0123456789"
        assert done[0].stream_offset == 0
        assert assembler.pending_bytes == 3
        assert assembler.stream_offset == 13

    def test_multiple_chunks_one_append(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=4)
        done = assembler.append(b"x" * 10, now=0.0)
        assert [c.length for c in done] == [4, 4]
        assert assembler.pending_bytes == 2

    def test_flush_partial(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=100)
        assembler.append(b"partial", now=0.0)
        chunk = assembler.flush(now=1.0)
        assert chunk.data == b"partial"
        assert assembler.flush(now=2.0) is None  # nothing left

    def test_stream_offsets_continuous(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=5)
        first, second = assembler.append(b"a" * 10, now=0.0)
        assert first.stream_offset == 0 and second.stream_offset == 5
        third = assembler.append(b"b" * 5, now=0.0)[0]
        assert third.stream_offset == 10

    def test_overlap_repeats_tail(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=8, overlap=3)
        first = assembler.append(b"ABCDEFGH", now=0.0)[0]
        assert first.data == b"ABCDEFGH"
        second = assembler.append(b"IJKLMNOP", now=0.0)[0]
        # Next chunk starts with the last 3 bytes of the previous one.
        assert second.data.startswith(b"FGH")
        assert second.stream_offset == 5
        assert second.accounted_bytes == 8 - 3  # overlap not re-charged

    def test_hole_flag_propagates(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=4)
        done = assembler.append(b"abcd", now=0.0, had_hole=True)
        assert done[0].had_hole

    def test_keep_merges_into_next(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=4)
        first = assembler.append(b"abcd", now=0.0)[0]
        assembler.keep(first)
        second = assembler.append(b"efgh", now=0.0)[0]
        assert second.data == b"abcdefgh"
        assert second.stream_offset == 0
        # The kept chunk's pool charge moves to the merged chunk: the
        # worker skips the release for kept chunks, so the merged
        # delivery must cover both or the kept bytes leak forever.
        assert second.accounted_bytes == 8

    def test_final_flush_releases_pending_kept_chunk(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=4)
        assert memory.try_store(0.0, 4)
        first = assembler.append(b"abcd", now=0.0)[0]
        first.accounted_bytes = 4
        assembler.keep(first)
        used_before = memory.used
        assert assembler.flush(1.0, final=True) is None
        assert memory.used == used_before - 4

    def test_keep_with_overlap_does_not_duplicate_tail(self, memory):
        """Keeping a chunk that also seeded the overlap tail must not
        repeat that tail inside the merged delivery: the kept chunk
        already contains those bytes."""
        assembler = ChunkAssembler(memory, chunk_size=8, overlap=4)
        first = assembler.append(b"ABCDEFGH", now=0.0)[0]
        assembler.keep(first)
        merged = assembler.append(b"IJKLMNOPQRST", now=1.0)
        assert merged[0].data == b"ABCDEFGHIJKLMNOP"
        assert merged[0].stream_offset == 0
        # Overlap resumes normally on the chunk after the merge.
        assert merged[1].data == b"MNOPQRST"
        assert merged[1].stream_offset == 12

    def test_overlap_without_keep_unaffected(self, memory):
        assembler = ChunkAssembler(memory, chunk_size=8, overlap=4)
        chunks = assembler.append(b"ABCDEFGHIJKL", now=0.0)
        assert [c.data for c in chunks] == [b"ABCDEFGH", b"EFGHIJKL"]

    def test_invalid_parameters(self, memory):
        with pytest.raises(ValueError):
            ChunkAssembler(memory, chunk_size=0)
        with pytest.raises(ValueError):
            ChunkAssembler(memory, chunk_size=4, overlap=4)

    @settings(max_examples=50, deadline=None)
    @given(
        pieces=st.lists(st.binary(min_size=1, max_size=50), min_size=1, max_size=20),
        chunk_size=st.integers(1, 64),
    )
    def test_chunking_preserves_bytes(self, pieces, chunk_size):
        memory = StreamMemory(1 << 20)
        assembler = ChunkAssembler(memory, chunk_size=chunk_size)
        collected = b""
        for piece in pieces:
            for chunk in assembler.append(piece, now=0.0):
                collected += chunk.data
        final = assembler.flush(now=0.0)
        if final is not None:
            collected += final.data
        assert collected == b"".join(pieces)


class TestStreamMemory:
    def test_store_accounting(self, memory):
        assert memory.try_store(0.0, 1000)
        assert memory.fraction_used(0.0) == pytest.approx(1000 / (1 << 20))
        memory.schedule_release(1.0, 1000)
        assert memory.fraction_used(2.0) == 0.0

    def test_allocation_failure_counted(self):
        memory = StreamMemory(100)
        assert memory.try_store(0.0, 100)
        assert not memory.try_store(0.0, 1)
        assert memory.allocation_failures == 1
