"""Wire formats between cloud and device.

Every payload rides in an SSE-style frame ``data: <body>\\n\\n``. The first
response frame piggybacks the selection mask and the assisted-token budget
next to the first token; each following frame carries one decode token; a
literal ``[DONE]`` frame closes the stream and is the only end-of-stream
marker. ``SseDecoder`` is the one decoder for response frames: it parses each
frame body once, whole or split across receive chunks.

Canonical bodies are compact JSON with pinned key order, so encoders are
byte-deterministic. The event and first-frame encoders format their frames
directly, yet give the same bytes as compact ``json.dumps(...,
ensure_ascii=False)`` of the same body (an oracle test checks this): strings
go through ``json.encoder.encode_basestring``, the routine ``json.dumps``
itself uses, and the constructors admit only plain ints (no bools), for
which ``%d`` and ``json.dumps`` agree. Decoding costs time linear in the
bytes fed, however they are chunked: ``SseDecoder`` resumes its boundary
search where the last feed stopped and trims its buffer once per feed.

A complete frame in the event form the encoder writes (``"i"`` of at
most 18 digits, so below 2**63, then ``"token"``, no whitespace) is decoded
by one precompiled bytes match; a token with escapes goes through
``json.decoder.scanstring``, the routine ``json.loads`` itself uses. First
frames, ``[DONE]``, every other body and every error take the general path,
so each error message comes from one place. The match runs only once a
frame's blank-line terminator has been found: matching a partial frame on
every feed would rescan it and make decoding quadratic.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring

from .maskcodec import CompressedMask, MaskCodecError

FRAME_PREFIX = b"data: "
FRAME_SUFFIX = b"\n\n"
DONE_BODY = b"[DONE]"

# a decoder buffer larger than this without a frame boundary is garbage
_MAX_BUFFER = 1 << 20

_FIRST_FRAME = FRAME_PREFIX + b'{"first_token":%b,"mask_b64":"%b","L":%d}' + FRAME_SUFFIX
_EVENT_FRAME = FRAME_PREFIX + b'{"i":%d,"token":%b}' + FRAME_SUFFIX
_DONE_FRAME = FRAME_PREFIX + DONE_BODY + FRAME_SUFFIX

# an event frame as _EVENT_FRAME writes it, without its terminator; the index
# has at most 18 digits (below 2**63) and the token is one JSON string body
_EVENT_RE = re.compile(
    rb'data: \{"i":([1-9][0-9]{0,17}),"token":"'
    rb'([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"\}'
)


class ProtocolError(Exception):
    """Malformed response frame; the message names the offending field."""


@dataclass(frozen=True)
class FirstTokenFrame:
    """First token plus piggybacked mask and budget.

    ``max_tokens`` mirrors the wire field ``L``: total tokens the cloud will
    produce at most, counting this one, so at least 1.
    """

    token: str
    mask: CompressedMask
    max_tokens: int

    def __post_init__(self) -> None:
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise ValueError("max_tokens must be an int >= 1")


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One decode token; index 1 is the first token after the piggyback frame."""

    index: int
    token: str

    def __post_init__(self) -> None:
        if type(self.index) is not int or self.index < 1:
            raise ValueError("stream event indices are ints starting at 1")


class DoneMarker:
    """Terminal stream marker; compares equal to itself only."""

    _instance: "DoneMarker | None" = None

    def __new__(cls) -> "DoneMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DONE"


DONE = DoneMarker()


def encode_first_frame(frame: FirstTokenFrame) -> bytes:
    # base64 text needs no JSON escaping
    token = encode_basestring(frame.token).encode("utf-8")
    return _FIRST_FRAME % (token, base64.b64encode(frame.mask.payload), frame.max_tokens)


def encode_stream_event(event: StreamEvent) -> bytes:
    return _EVENT_FRAME % (event.index, encode_basestring(event.token).encode("utf-8"))


def encode_done() -> bytes:
    return _DONE_FRAME


def _parse_json(data: bytes) -> dict:
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the int-digit
    # limit; deep nesting ends in RecursionError
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("body must be a JSON object")
    return obj


def _decode_mask_b64(text: str) -> CompressedMask:
    try:
        container = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise ProtocolError(f"field 'mask_b64' is not valid base64: {exc}") from exc
    try:
        return CompressedMask.from_container(container)
    except MaskCodecError as exc:
        raise ProtocolError(f"field 'mask_b64' is not a mask container: {exc}") from exc


def _parse_first_json(obj: dict) -> FirstTokenFrame:
    token = obj.get("first_token")
    if not isinstance(token, str):
        raise ProtocolError("field 'first_token' missing or not a string")
    mask_b64 = obj.get("mask_b64")
    if not isinstance(mask_b64, str):
        raise ProtocolError("field 'mask_b64' missing or not a string")
    budget = obj.get("L")
    if type(budget) is not int or budget < 1:
        raise ProtocolError("field 'L' missing or not a positive integer")
    return FirstTokenFrame(token=token, mask=_decode_mask_b64(mask_b64), max_tokens=budget)


def _parse_event_json(obj: dict) -> StreamEvent:
    index = obj.get("i")
    if type(index) is not int or index < 1:
        raise ProtocolError("field 'i' missing or not a positive integer")
    token = obj.get("token")
    if not isinstance(token, str):
        raise ProtocolError("field 'token' missing or not a string")
    return StreamEvent(index=index, token=token)


class SseDecoder:
    """Incremental frame decoder over a byte stream. Single-owner, stateful.

    ``feed`` returns the items completed so far. A complete frame in the
    encoder's event form is decoded by one match, any other frame
    through ``json.loads``. A malformed frame raises ProtocolError after the
    frame has been consumed, so feeding can simply continue; items parsed
    before the error are delivered by the next call.
    The boundary search resumes where the last feed stopped and the buffer
    is trimmed once per feed, so decoding costs time linear in the bytes fed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._scanned = 0  # leading bytes of _buf known to hold no frame boundary
        self._pending: list[FirstTokenFrame | StreamEvent | DoneMarker] = []

    def feed(self, data: bytes) -> list[FirstTokenFrame | StreamEvent | DoneMarker]:
        buf = self._buf
        buf += data
        items, self._pending = self._pending, []
        start = 0  # first byte of the next unconsumed frame
        idx = buf.find(FRAME_SUFFIX, self._scanned)
        while idx >= 0:
            frame_start, start = start, idx + len(FRAME_SUFFIX)
            try:
                items.append(self._parse_frame(buf, frame_start, idx))
            except ProtocolError:
                self._consume(start, scanned=0)
                self._pending = items
                raise
            idx = buf.find(FRAME_SUFFIX, start)
        if len(buf) - start > _MAX_BUFFER:
            self._consume(len(buf), scanned=0)
            self._pending = items
            raise ProtocolError("unbounded garbage without a frame boundary")
        # a boundary may straddle the next feed, so its first byte is searched again
        self._consume(start, scanned=max(len(buf) - start - len(FRAME_SUFFIX) + 1, 0))
        return items

    def _consume(self, end: int, *, scanned: int) -> None:
        """Drop ``_buf[:end]``; the first ``scanned`` bytes left hold no boundary."""
        del self._buf[:end]
        self._scanned = scanned

    @staticmethod
    def _parse_frame(buf: bytearray, start: int, end: int) -> FirstTokenFrame | StreamEvent | DoneMarker:
        """Parse the frame in ``buf[start:end]``, which stops just before its blank-line terminator."""
        event = _EVENT_RE.fullmatch(buf, start, end)
        if event is not None:
            raw = event[2]
            try:
                token = raw.decode("utf-8")
                if b"\\" in raw:
                    token = scanstring(f'"{token}"', 1)[0]
            except ValueError:
                pass  # the JSON path below raises the error for this body
            else:
                return StreamEvent(int(event[1]), token)
        if not buf.startswith(FRAME_PREFIX, start, end):
            raise ProtocolError("frame must start with 'data: '")
        body = buf[start + len(FRAME_PREFIX) : end]
        if body == DONE_BODY:
            return DONE
        obj = _parse_json(body)
        if "first_token" in obj:
            return _parse_first_json(obj)
        if "i" in obj:
            return _parse_event_json(obj)
        raise ProtocolError("frame body is neither a first frame, an event, nor [DONE]")
