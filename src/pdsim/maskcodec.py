"""Selection-mask wire codec: MSB-first bit packing inside a deflate container.

Container layout: 4-byte little-endian unsigned bit count, then the
compressed byte stream. Compression level is pinned so identical masks
produce identical payload bytes. A ``CompressedMask`` is the container's
bytes, whatever their source (``pack``, a frame's base64 field, a file);
its bit count is read from the header: at most 2^24, one bit per token of
the longest prompt (``refiner.MAX_PROMPT_TOKENS``), so none inflates past 2 MiB.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .refiner import MAX_PROMPT_TOKENS, SelectionMask

_HEADER = struct.Struct("<I")
_LEVEL = 9  # pinned for byte determinism


class MaskCodecError(Exception):
    """Corrupt or malformed mask container."""


@dataclass(frozen=True)
class CompressedMask:
    """A mask container: its header's bit count, then the deflate stream."""

    payload: bytes

    def __post_init__(self) -> None:
        if len(self.payload) < _HEADER.size:
            raise MaskCodecError("container shorter than its header")
        if self.bit_length > MAX_PROMPT_TOKENS:
            raise MaskCodecError(
                f"a mask holds at most {MAX_PROMPT_TOKENS} bits, one per prompt token; got {self.bit_length}"
            )

    @property
    def bit_length(self) -> int:
        return _HEADER.unpack_from(self.payload)[0]


def pack(mask: SelectionMask) -> CompressedMask:
    """Pack bits MSB-first into bytes, zero-pad to a byte boundary, deflate."""
    raw = np.packbits(mask.bits).tobytes()
    payload = _HEADER.pack(len(mask)) + zlib.compress(raw, _LEVEL)
    return CompressedMask(payload)


def unpack(compressed: CompressedMask) -> SelectionMask:
    """Inverse of :func:`pack`; bit-exact or an error, never a partial mask."""
    bit_length = compressed.bit_length
    need = (bit_length + 7) // 8
    inflater = zlib.decompressobj()
    try:
        # inflate at most one byte past the declared length, so a stream that
        # inflates far beyond it is rejected without being expanded
        raw = inflater.decompress(compressed.payload[_HEADER.size :], need + 1)
    except zlib.error as exc:
        raise MaskCodecError(f"corrupt deflate stream: {exc}") from exc
    if len(raw) > need:
        raise MaskCodecError(f"container holds more than the {need} bytes declared")
    if not inflater.eof:
        raise MaskCodecError("corrupt deflate stream: incomplete or truncated stream")
    if inflater.unused_data:
        raise MaskCodecError(f"{len(inflater.unused_data)} bytes after the deflate stream")
    if len(raw) < need:
        raise MaskCodecError(f"declared {bit_length} bits but stream holds {len(raw) * 8}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[bit_length:].any():
        raise MaskCodecError("nonzero padding bits past the declared length")
    return SelectionMask(bits[:bit_length])
