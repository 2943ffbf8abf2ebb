"""Selection-mask wire codec: MSB-first bit packing inside a deflate container.

Container layout: 4-byte little-endian unsigned bit count, then the
compressed byte stream. Compression level is pinned so identical masks
produce identical payload bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .refiner import SelectionMask

_HEADER = struct.Struct("<I")
_LEVEL = 9  # pinned for byte determinism


class MaskCodecError(Exception):
    """Corrupt or malformed mask container."""


class MaskLengthError(MaskCodecError):
    """Declared bit count exceeds what the stream decodes to."""


@dataclass(frozen=True)
class CompressedMask:
    """Self-describing compressed mask: full container bytes plus the bit count."""

    payload: bytes
    bit_length: int

    def __post_init__(self) -> None:
        if self.bit_length < 0:
            raise ValueError("bit_length must be nonnegative")
        if len(self.payload) < _HEADER.size:
            raise ValueError("payload shorter than the container header")
        declared = _HEADER.unpack_from(self.payload)[0]
        if declared != self.bit_length:
            raise ValueError(f"bit_length {self.bit_length} disagrees with header {declared}")

    @classmethod
    def from_container(cls, data: bytes) -> "CompressedMask":
        if len(data) < _HEADER.size:
            raise MaskCodecError("container shorter than its header")
        return cls(payload=bytes(data), bit_length=_HEADER.unpack_from(data)[0])


def pack(mask: SelectionMask) -> CompressedMask:
    """Pack bits MSB-first into bytes, zero-pad to a byte boundary, deflate."""
    if len(mask) > 0xFFFFFFFF:
        raise ValueError("mask too long for a 32-bit container header")
    raw = np.packbits(mask.bits).tobytes()
    payload = _HEADER.pack(len(mask)) + zlib.compress(raw, _LEVEL)
    return CompressedMask(payload=payload, bit_length=len(mask))


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
        raise MaskLengthError(f"declared {bit_length} bits but stream holds {len(raw) * 8}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[bit_length:].any():
        raise MaskCodecError("nonzero padding bits past the declared length")
    return SelectionMask(bits[:bit_length])
