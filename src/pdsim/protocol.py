"""Wire formats between cloud and device.

Every payload rides in an SSE-style frame ``data: <body>\\n\\n``. The first
response frame piggybacks the selection mask and the assisted-token budget
next to the first token; each following frame carries one decode token; a
literal ``[DONE]`` frame closes the stream and is the only end-of-stream
marker; ``devicesim.run_session`` refuses any item after it. Every count on
the wire (an event's ``"i"``, a first frame's ``"L"``) is an int in
[1, 10**18), so it has at most 18 digits.

Canonical bodies are compact JSON with pinned key order, so encoders are
byte-deterministic. The event and first-frame encoders format their frames
directly, yet give the same bytes as compact ``json.dumps(...,
ensure_ascii=False)`` of the same body (an oracle test checks this): strings
go through ``json.encoder.encode_basestring``, the routine ``json.dumps``
itself uses, and the constructors admit only plain ints (no bools), for
which ``%d`` and ``json.dumps`` agree.

``SseDecoder`` is the one decoder for response frames, whole or split across
receive chunks; it parses each frame body once and reads each frame kind one
way. An event is read only in the form ``encode_stream_event`` writes, a run
at a time: at each frame start one precompiled bytes match checks the longest
run of whole such frames whose tokens are well-formed UTF-8, up to the end of
the last terminator fed so far, so a partial frame is never scanned. Only a
checked run is taken apart: one ``findall`` yields its indices and token
bodies, the bodies are decoded as UTF-8 in one call, and a token with escapes
goes through ``json.decoder.scanstring``, the routine ``json.loads`` itself
uses. A first frame is read by ``json.loads``, so its errors name the field;
``[DONE]`` is read as its literal bytes; any other body raises. Decoding
costs time linear in the bytes fed, however they are chunked: each feed's
new bytes are searched once for the last frame terminator and the buffer is
trimmed once per feed.
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

# the longest run of whole event frames as _EVENT_FRAME writes them: an index of
# 1-18 digits (below 10**18, the bound on every count), and a token that is one
# JSON string body of well-formed UTF-8, the byte sequences bytes.decode("utf-8") accepts
_EVENT_RUN_RE = re.compile(
    rb'(?:data: \{"i":[1-9][0-9]{0,17},"token":"'
    rb'[^"\\\x00-\x1f\x80-\xff]*'
    rb'(?:(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})'
    rb'|[\xc2-\xdf][\x80-\xbf]|\xe0[\xa0-\xbf][\x80-\xbf]|[\xe1-\xec\xee\xef][\x80-\xbf]{2}|\xed[\x80-\x9f][\x80-\xbf]'
    rb'|\xf0[\x90-\xbf][\x80-\xbf]{2}|[\xf1-\xf3][\x80-\xbf]{3}|\xf4[\x80-\x8f][\x80-\xbf]{2})'
    rb'[^"\\\x00-\x1f\x80-\xff]*)*'
    rb'"\}\n\n)+'
)
# one event of a run _EVENT_RUN_RE has checked; its token holds no newline
_RUN_EVENT_RE = re.compile(rb'"i":([0-9]+),"token":"([^\n]*)"\}\n\n')


class ProtocolError(Exception):
    """Malformed response frame. A first frame's message names the offending field; an event is read
    only in the encoder's form, and a count on the wire has at most 18 digits."""


@dataclass(frozen=True)
class FirstTokenFrame:
    """First token plus piggybacked mask and budget.

    ``max_tokens`` mirrors the wire field ``L``: total tokens the cloud will
    produce at most, counting this one, so at least 1, and below 10**18 as
    every count on the wire.
    """

    token: str
    mask: CompressedMask
    max_tokens: int

    def __post_init__(self) -> None:
        if type(self.max_tokens) is not int or not 1 <= self.max_tokens < 10**18:
            raise ValueError("max_tokens must be an int in [1, 10**18)")


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One decode token; index 1 is the first token after the piggyback frame, and every index is below 10**18."""

    index: int
    token: str

    def __post_init__(self) -> None:
        if type(self.index) is not int or not 1 <= self.index < 10**18:
            raise ValueError("stream event indices are ints in [1, 10**18)")


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
        return CompressedMask(container)
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
    if type(budget) is not int or not 1 <= budget < 10**18:
        raise ProtocolError("field 'L' missing or not a positive integer below 10**18")
    return FirstTokenFrame(token=token, mask=_decode_mask_b64(mask_b64), max_tokens=budget)


class SseDecoder:
    """Incremental frame decoder over a byte stream. Single-owner, stateful.

    ``feed`` returns the items completed so far. An event is read only in
    the encoder's form, by the run match at a frame start, and a first frame
    by ``json.loads``, so its errors name the field; ``[DONE]`` is read as
    its bytes. Any other frame, and any count of 19 or more digits, raises
    ProtocolError after the frame has been consumed, so feeding can simply
    continue; items parsed before the error are delivered by the next call.
    Each feed's new bytes are searched once for the last terminator and the
    buffer is trimmed once per feed, so decoding costs time linear in the
    bytes fed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._last = 0  # where the last frame terminator in _buf ends; below 2 if there is none
        self._pending: list[FirstTokenFrame | StreamEvent | DoneMarker] = []

    def feed(self, data: bytes) -> list[FirstTokenFrame | StreamEvent | DoneMarker]:
        buf = self._buf
        # a terminator may straddle the previous feed, so its first byte is searched again
        searched = max(len(buf) - len(FRAME_SUFFIX) + 1, 0)
        buf += data
        found = buf.rfind(FRAME_SUFFIX, searched)
        last = found + len(FRAME_SUFFIX) if found >= 0 else self._last
        items, self._pending = self._pending, []
        start = 0  # first byte of the next unconsumed frame
        while start <= last - len(FRAME_SUFFIX):
            run = _EVENT_RUN_RE.match(buf, start, last)
            if run is not None:
                indices, bodies = zip(*_RUN_EVENT_RE.findall(buf, start, run.end()))
                # the checked tokens are well-formed UTF-8 and hold no newline
                text = b"\n".join(bodies).decode("utf-8")
                tokens = text.split("\n")
                if "\\" in text:
                    tokens = [scanstring(f'"{token}"', 1)[0] if "\\" in token else token for token in tokens]
                items.extend(map(StreamEvent, map(int, indices), tokens))
                start = run.end()
                continue
            frame_start, start = start, buf.find(FRAME_SUFFIX, start) + len(FRAME_SUFFIX)
            try:
                items.append(self._parse_frame(buf, frame_start, start - len(FRAME_SUFFIX)))
            except ProtocolError:
                self._consume(start, last)
                self._pending = items
                raise
        if len(buf) - start > _MAX_BUFFER:
            self._consume(len(buf), last)
            self._pending = items
            raise ProtocolError("unbounded garbage without a frame boundary")
        self._consume(start, last)
        return items

    def _consume(self, end: int, last: int) -> None:
        """Drop ``_buf[:end]``; the last frame terminator fed so far ends at index ``last`` of ``_buf``."""
        del self._buf[:end]
        self._last = max(last - end, 0)

    @staticmethod
    def _parse_frame(buf: bytearray, start: int, end: int) -> FirstTokenFrame | StreamEvent | DoneMarker:
        """Parse the frame in ``buf[start:end]``, which stops just before its blank-line terminator."""
        if not buf.startswith(FRAME_PREFIX, start, end):
            raise ProtocolError("frame must start with 'data: '")
        body = buf[start + len(FRAME_PREFIX) : end]
        if body == DONE_BODY:
            return DONE
        obj = _parse_json(body)
        if "first_token" in obj:
            return _parse_first_json(obj)
        raise ProtocolError("frame body is neither a first frame, an event as encode_stream_event writes it, nor [DONE]")
