import random
import statistics
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import clustered_mask

from pdsim.maskcodec import CompressedMask, MaskCodecError, pack, unpack
from pdsim.refiner import SelectionMask


def reference_unpack(container: bytes) -> list[int]:
    """Independent bit-by-bit decoder used as an oracle."""
    (bit_length,) = struct.unpack_from("<I", container)
    raw = zlib.decompress(container[4:])
    return [(raw[i // 8] >> (7 - i % 8)) & 1 for i in range(bit_length)]


def random_mask(rng: random.Random, length: int) -> SelectionMask:
    return SelectionMask([rng.randint(0, 1) for _ in range(length)])


class TestRoundTrip:
    def test_random_masks(self):
        rng = random.Random(0)
        for _ in range(500):
            mask = random_mask(rng, rng.randint(1, 4096))
            assert unpack(pack(mask)) == mask

    def test_empty_mask(self):
        mask = SelectionMask([])
        compressed = pack(mask)
        assert compressed.bit_length == 0
        assert unpack(compressed) == mask

    def test_non_byte_aligned_lengths(self):
        for length in (1, 7, 8, 9, 15, 17):
            mask = SelectionMask([1] * length)
            assert unpack(pack(mask)) == mask

    def test_reference_decoder_agrees(self):
        rng = random.Random(1)
        for _ in range(100):
            mask = random_mask(rng, rng.randint(1, 512))
            compressed = pack(mask)
            assert reference_unpack(compressed.payload) == mask.bits.tolist()


class TestSizes:
    def test_all_ones_eight_k_compresses_tiny(self):
        compressed = pack(SelectionMask(np.ones(8192, dtype=np.uint8)))
        assert len(compressed.payload) <= 64

    def test_clustered_masks_stay_in_the_hundreds_of_bytes(self):
        rng = random.Random(2)
        sizes = [len(pack(clustered_mask(rng, 8192)).payload) for _ in range(100)]
        assert statistics.median(sizes) <= 1024
        # the median should land in the "several hundred bytes" range
        assert 100 <= statistics.median(sizes) <= 1024

    def test_deterministic_bytes(self):
        rng = random.Random(3)
        mask = clustered_mask(rng, 4096)
        assert pack(mask).payload == pack(SelectionMask(mask.bits.copy())).payload


class TestErrors:
    def test_truncated_payload(self):
        compressed = pack(SelectionMask([1, 0, 1] * 100))
        broken = CompressedMask(compressed.payload[:-3])
        with pytest.raises(MaskCodecError):
            unpack(broken)

    def test_declared_length_exceeding_stream(self):
        container = struct.pack("<I", 100) + zlib.compress(b"\xff", 9)
        with pytest.raises(MaskCodecError, match="declared 100 bits but stream holds 8"):
            unpack(CompressedMask(container))

    def test_extra_decoded_bytes(self):
        container = struct.pack("<I", 4) + zlib.compress(b"\xf0\x00\x00", 9)
        with pytest.raises(MaskCodecError):
            unpack(CompressedMask(container))

    @pytest.mark.parametrize("junk", [b"\x00", b"junk", zlib.compress(b"\x00", 9)])
    def test_bytes_after_the_deflate_stream(self, junk):
        compressed = pack(SelectionMask([1, 0, 1] * 100))
        with pytest.raises(MaskCodecError, match="after the deflate stream"):
            unpack(CompressedMask(compressed.payload + junk))

    def test_inflation_is_bounded_by_the_declared_length(self):
        # 8 bits declared, 50 MB of zeros behind them
        deflate = zlib.compressobj(9)
        stream = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(50)) + deflate.flush()
        bomb = CompressedMask(struct.pack("<I", 8) + stream)
        tracemalloc.start()
        try:
            with pytest.raises(MaskCodecError):
                unpack(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_nonzero_padding_bits(self):
        container = struct.pack("<I", 4) + zlib.compress(b"\xff", 9)
        with pytest.raises(MaskCodecError):
            unpack(CompressedMask(container))

    def test_bit_length_is_read_from_the_header(self):
        compressed = pack(SelectionMask([1, 0, 1]))
        assert CompressedMask(compressed.payload).bit_length == 3
        assert CompressedMask(struct.pack("<I", 5) + compressed.payload[4:]).bit_length == 5

    def test_container_shorter_than_header(self):
        with pytest.raises(MaskCodecError):
            CompressedMask(b"\x01")


class TestLongestMask:
    """A mask holds at most one bit per token of the longest prompt, 2^24."""

    def test_the_longest_mask_round_trips(self):
        mask = SelectionMask(np.zeros(1 << 24, dtype=np.uint8))
        compressed = pack(mask)
        assert compressed.bit_length == 1 << 24
        assert unpack(compressed) == mask

    def test_pack_refuses_a_longer_mask(self):
        with pytest.raises(MaskCodecError, match="at most 16777216 bits, one per prompt token; got 16777217"):
            pack(SelectionMask(np.zeros((1 << 24) + 1, dtype=np.uint8)))

    @pytest.mark.parametrize("declared", [(1 << 24) + 1, 1 << 25, 0xFFFFFFFF])
    def test_a_longer_header_is_refused_before_anything_is_inflated(self, declared):
        # deflated zeros for every declared bit, which unpack would otherwise expand
        deflate = zlib.compressobj(9)
        body = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(4)) + deflate.flush()
        tracemalloc.start()
        try:
            with pytest.raises(MaskCodecError, match=f"got {declared}$"):
                CompressedMask(struct.pack("<I", declared) + body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestMutationFuzz:
    def test_mutated_containers_unpack_exactly_or_raise(self):
        """Flipped, cut, grown or re-declared containers end in MaskCodecError or the exact bits, in bounded memory."""
        rng = random.Random(2025)
        tracemalloc.start()
        try:
            for case in range(2000):
                mask = clustered_mask(rng, rng.randint(0, 4096))
                container = bytearray(pack(mask).payload)
                for _ in range(rng.randint(1, 3) if case % 4 else 0):
                    kind = rng.randrange(4)
                    pos = rng.randrange(len(container) + 1)
                    if kind == 0 and pos < len(container):
                        container[pos] ^= 1 << rng.randrange(8)
                    elif kind == 1:
                        del container[pos:]
                    elif kind == 2:
                        container[pos:pos] = rng.randbytes(rng.randint(1, 4))
                    else:
                        declared = rng.choice([0, len(mask) + 1, len(mask) + 8, rng.getrandbits(32), 0xFFFFFFFF])
                        container[:4] = struct.pack("<I", declared)
                try:
                    got = unpack(CompressedMask(bytes(container)))
                except MaskCodecError:
                    assert case % 4, "an unmutated container must unpack"
                    continue
                assert got.bits.tolist() == reference_unpack(bytes(container))
                if case % 4 == 0:
                    assert got == mask
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
