import json
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ReferenceSseDecoder, reference_encode_first_frame, reference_encode_stream_event
from pdsim import protocol
from pdsim.maskcodec import MaskCodecError, pack
from pdsim.protocol import (
    DONE,
    FRAME_PREFIX,
    FRAME_SUFFIX,
    DoneMarker,
    FirstTokenFrame,
    ProtocolError,
    SseDecoder,
    StreamEvent,
    encode_done,
    encode_first_frame,
    encode_stream_event,
)
from pdsim.refiner import SelectionMask

GOLDEN = Path(__file__).parent / "golden"


def random_mask(rng: random.Random):
    return pack(SelectionMask([rng.randint(0, 1) for _ in range(rng.randint(0, 64))]))


def random_token(rng: random.Random) -> str:
    alphabet = "abcXYZ0189 #\"\\{}:,\u00e9\u4e16"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))


def sse_frame(body: bytes) -> bytes:
    return FRAME_PREFIX + body + FRAME_SUFFIX


class TestGoldenFrames:
    def test_first_frame_bytes(self):
        frame = FirstTokenFrame(token="The", mask=pack(SelectionMask([1, 1, 1])), max_tokens=5)
        data = encode_first_frame(frame)
        assert data == (GOLDEN / "first_frame.bin").read_bytes()
        assert data == b'data: {"first_token":"The","mask_b64":"AwAAAHjaewAAAOEA4Q==","L":5}\n\n'
        assert SseDecoder().feed(data) == [frame]

    def test_token_event_bytes(self):
        data = encode_stream_event(StreamEvent(index=1, token="quick"))
        assert data == (GOLDEN / "token_event.bin").read_bytes()
        assert data == b'data: {"i":1,"token":"quick"}\n\n'

    def test_done_bytes(self):
        assert encode_done() == (GOLDEN / "done_marker.bin").read_bytes() == b"data: [DONE]\n\n"


# quotes, backslashes, control characters, line separators and a non-BMP character
_HARD_TOKEN = '"\\\x00\x1f\x7f\u2028\u00e9\U0001f600'


class TestReferenceEncoders:
    """Direct frame formatting gives the bytes of compact ``json.dumps``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**63), st.text())
    @example(2**63, _HARD_TOKEN)
    def test_stream_event_matches_json_dumps(self, index, token):
        event = StreamEvent(index=index, token=token)
        data = encode_stream_event(event)
        assert data == reference_encode_stream_event(event)
        assert SseDecoder().feed(data) == [event]

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.lists(st.integers(0, 1), max_size=200), st.integers(1, 2**63))
    @example(_HARD_TOKEN, [1, 0, 1], 2**63)
    def test_first_frame_matches_json_dumps(self, token, bits, budget):
        frame = FirstTokenFrame(token=token, mask=pack(SelectionMask(bits)), max_tokens=budget)
        data = encode_first_frame(frame)
        assert data == reference_encode_first_frame(frame)
        assert SseDecoder().feed(data) == [frame]

    @pytest.mark.parametrize("token", ["\ud800", "a\udfffb", "\U0001f600\ud83d"])
    def test_lone_surrogate_raises_like_json_dumps(self, token):
        cases = [
            (encode_stream_event, reference_encode_stream_event, StreamEvent(index=1, token=token)),
            (
                encode_first_frame,
                reference_encode_first_frame,
                FirstTokenFrame(token=token, mask=pack(SelectionMask([1])), max_tokens=2),
            ),
        ]
        for encode, reference, item in cases:
            with pytest.raises(UnicodeEncodeError) as ours:
                encode(item)
            with pytest.raises(UnicodeEncodeError) as theirs:
                reference(item)
            for exc in (ours.value, theirs.value):
                assert (exc.encoding, exc.reason) == ("utf-8", "surrogates not allowed")
            assert ours.value.object[ours.value.start : ours.value.end] == theirs.value.object[
                theirs.value.start : theirs.value.end
            ]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StreamEvent(index=True, token="x"),
            lambda: StreamEvent(index=2.0, token="x"),
            lambda: FirstTokenFrame(token="x", mask=pack(SelectionMask([1])), max_tokens=True),
            lambda: FirstTokenFrame(token="x", mask=pack(SelectionMask([1])), max_tokens=False),
            lambda: FirstTokenFrame(token="x", mask=pack(SelectionMask([1])), max_tokens=3.0),
            lambda: FirstTokenFrame(token="x", mask=pack(SelectionMask([1])), max_tokens=0),
        ],
        ids=["index-true", "index-float", "budget-true", "budget-false", "budget-float", "budget-zero"],
    )
    def test_non_int_counts_are_rejected_at_construction(self, build):
        # the decoder rejects "i":true, "L":true and "L":0, so no frame that builds may encode to them
        with pytest.raises(ValueError):
            build()


class TestFirstFrameCodec:
    def test_round_trip_random_frames(self):
        rng = random.Random(0)
        for _ in range(1000):
            frame = FirstTokenFrame(
                token=random_token(rng), mask=random_mask(rng), max_tokens=rng.randint(1, 500)
            )
            assert SseDecoder().feed(encode_first_frame(frame)) == [frame]

    def test_single_token_budget_with_empty_content_mask(self):
        frame = FirstTokenFrame(token="fin", mask=pack(SelectionMask([1, 1])), max_tokens=1)
        assert SseDecoder().feed(encode_first_frame(frame)) == [frame]

    @pytest.mark.parametrize(
        "body,field",
        [
            # without "first_token" the body is not recognised as a first frame
            (b'data: {"mask_b64":"AAAAAHjaAwAAAAAB","L":5}\n\n', "neither a first frame"),
            (b'data: {"first_token":"x","L":5}\n\n', "mask_b64"),
            (b'data: {"first_token":"x","mask_b64":"AAAAAHjaAwAAAAAB"}\n\n', "L"),
            (b'data: {"first_token":"x","mask_b64":"AAAAAHjaAwAAAAAB","L":-1}\n\n', "L"),
            (b'data: {"first_token":"x","mask_b64":"AAAAAHjaAwAAAAAB","L":0}\n\n', "not a positive integer"),
            (b'data: {"first_token":"x","mask_b64":"AAAAAHjaAwAAAAAB","L":true}\n\n', "L"),
            (b'data: {"first_token":"x","mask_b64":"not base64!","L":5}\n\n', "mask_b64"),
            (b'data: {"first_token":"x","mask_b64":"AAA=","L":5}\n\n', "mask_b64"),  # 2-byte container
        ],
    )
    def test_malformed_fields_name_the_field(self, body, field):
        with pytest.raises(ProtocolError, match=field):
            SseDecoder().feed(body)

    def test_framing_errors(self):
        with pytest.raises(ProtocolError, match="data: "):
            SseDecoder().feed(b'{"first_token":"x"}\n\n')
        with pytest.raises(ProtocolError, match="JSON"):
            SseDecoder().feed(b"data: not json\n\n")


class TestStreamEventCodec:
    def test_round_trip_random_events(self):
        rng = random.Random(3)
        for _ in range(1000):
            event = StreamEvent(index=rng.randint(1, 4096), token=random_token(rng))
            assert SseDecoder().feed(encode_stream_event(event)) == [event]

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamEvent(index=0, token="x")
        with pytest.raises(ProtocolError, match="'i'"):
            SseDecoder().feed(b'data: {"i":0,"token":"x"}\n\n')

    def test_trailing_garbage_rejected(self):
        event = StreamEvent(index=1, token="x")
        decoder = SseDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(encode_stream_event(event) + b"data: junk\n\n")
        assert decoder.feed(b"") == [event]


# json.loads raises ValueError past the int-digit limit and RecursionError on deep nesting
_HOSTILE_BODIES = [b'{"i":' + b"7" * 5000 + b',"token":"x"}', b"[" * 200_000]
_HOSTILE_IDS = ["5000-digit-index", "200000-deep-nesting"]


class TestSseDecoder:
    def wire(self, rng: random.Random, events: int):
        frame = FirstTokenFrame(token=random_token(rng), mask=random_mask(rng), max_tokens=events + 1)
        data = encode_first_frame(frame)
        for i in range(1, events + 1):
            data += encode_stream_event(StreamEvent(index=i, token=random_token(rng)))
        return frame, data + encode_done()

    def test_whole_stream(self):
        rng = random.Random(4)
        frame, data = self.wire(rng, 5)
        items = SseDecoder().feed(data)
        assert items[0] == frame
        assert [e.index for e in items[1:-1]] == [1, 2, 3, 4, 5]
        assert items[-1] is DONE

    def test_byte_by_byte_reassembly(self):
        rng = random.Random(5)
        frame, data = self.wire(rng, 3)
        decoder = SseDecoder()
        items = []
        for i in range(len(data)):
            items.extend(decoder.feed(data[i : i + 1]))
        assert items[0] == frame
        assert len(items) == 5 and items[-1] is DONE

    def test_bad_frame_is_recoverable(self):
        rng = random.Random(6)
        _, data = self.wire(rng, 2)
        good = encode_stream_event(StreamEvent(index=9, token="after"))
        decoder = SseDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(data + b"garbage between frames\n\n" + good)
        # items parsed before the error are delivered next, then the stream resumes
        items = decoder.feed(b"")
        assert len(items) == 5
        assert decoder.feed(b"")== []
        assert decoder.feed(good)[0] == StreamEvent(index=9, token="after")

    def test_short_mask_container_keeps_parsed_items(self):
        event = encode_stream_event(StreamEvent(index=1, token="kept"))
        short_mask = b'data: {"first_token":"x","mask_b64":"AAA=","L":5}\n\n'
        decoder = SseDecoder()
        with pytest.raises(ProtocolError, match="mask_b64"):
            decoder.feed(event + short_mask)
        assert decoder.feed(b"") == [StreamEvent(index=1, token="kept")]

    def test_oversized_garbage_is_bounded(self):
        decoder = SseDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"x" * (2 << 20))
        assert decoder.feed(encode_done()) == [DONE]

    def test_each_frame_body_is_parsed_once(self, monkeypatch):
        calls = []
        loads = protocol.json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(protocol.json, "loads", counting_loads)
        frame, data = self.wire(random.Random(7), 6)
        items = SseDecoder().feed(data)
        assert items[0] == frame and items[-1] is DONE
        # the first frame is parsed as JSON; canonical events are matched and [DONE] is not JSON
        assert len(calls) == 1
        non_canonical = [
            (b'{"i": 1, "token": "x"}', StreamEvent(index=1, token="x")),
            (b'{"token":"x","i":1}', StreamEvent(index=1, token="x")),
            (b'{"i":%d,"token":"x"}' % 10**18, StreamEvent(index=10**18, token="x")),  # 19 digits
            (b'{"i":01,"token":"x"}', None),  # leading zero: not JSON
        ]
        for body, event in non_canonical:
            calls.clear()
            decoder = SseDecoder()
            if event is None:
                with pytest.raises(ProtocolError, match="JSON"):
                    decoder.feed(sse_frame(body))
            else:
                assert decoder.feed(sse_frame(body)) == [event]
            assert len(calls) == 1, body

    @pytest.mark.parametrize("body", _HOSTILE_BODIES, ids=_HOSTILE_IDS)
    def test_hostile_frame_is_consumed(self, body):
        good, after = StreamEvent(index=1, token="good"), StreamEvent(index=2, token="after")
        decoder = SseDecoder()
        with pytest.raises(ProtocolError, match="JSON"):
            decoder.feed(encode_stream_event(good) + sse_frame(body))
        assert decoder.feed(b"") == [good]
        assert decoder.feed(encode_stream_event(after)) == [after]

    def test_bytes_after_a_bad_frame_mid_buffer_still_decode(self):
        before = [StreamEvent(index=1, token="a"), StreamEvent(index=2, token="b")]
        after = [StreamEvent(index=3, token="c"), StreamEvent(index=4, token="d")]
        tail = encode_stream_event(StreamEvent(index=5, token="e"))
        data = b"".join(map(encode_stream_event, before)) + b"data: {bad}\n\n" + b"".join(map(encode_stream_event, after))
        decoder = SseDecoder()
        with pytest.raises(ProtocolError, match="JSON"):
            decoder.feed(data + tail[:-1])  # the last frame's boundary straddles the next feed
        assert decoder.feed(b"") == before + after
        assert decoder.feed(tail[-1:]) == [StreamEvent(index=5, token="e")]

    def test_done_singleton(self):
        assert DoneMarker() is DONE


def decode_outcomes(decoder, data: bytes, cuts: list[int]) -> list:
    """What each feed of ``data``, cut at ``cuts``, returns or raises, then what empty feeds return or raise."""
    bounds = [0, *sorted(cuts), len(data)]
    chunks = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    outcomes = []
    # after an error, the frames left in the buffer are parsed by the next feeds
    for chunk in chunks + [b""] * (data.count(FRAME_SUFFIX) + 1):
        try:
            outcomes.append(decoder.feed(chunk))
        except Exception as exc:  # any type: the two decoders must raise the same one
            outcomes.append((type(exc), str(exc)))
    return outcomes


def raised(outcomes: list) -> set:
    return {o[0] for o in outcomes if isinstance(o, tuple)}


def decoded(outcomes: list) -> list:
    return [item for o in outcomes if isinstance(o, list) for item in o]


_SURROGATES = st.integers(0xD800, 0xDFFF).map(chr)
# lone surrogates can only reach the wire as \u escapes, which json.dumps writes
_TOKENS = st.lists(st.one_of(st.text(max_size=8), _SURROGATES), max_size=4).map("".join)
_INDICES = st.one_of(st.integers(1, 2**63), st.integers(2**63, 10**40), st.integers(-2, 0))
_EVENT_TEMPLATES = (
    b'{"i":%(i)d,"token":%(t)b}',  # the canonical form
    b'{"i": %(i)d, "token": %(t)b}',
    b'{"token":%(t)b,"i":%(i)d}',
    b'{"i":0%(i)d,"token":%(t)b}',
    b'{"i":%(i)d,"token":%(t)b,"x":0}',
    b'{"i":%(i)d.0,"token":%(t)b}',
    b'{"i":"%(i)d","token":%(t)b}',
    b'{"i":%(i)d,"token":[%(t)b]}',
    b'{"i":%(i)d,"token":%(t)b} ',
)


def _token_json(token: str, ascii_escapes: bool) -> bytes:
    try:
        return json.dumps(token, ensure_ascii=ascii_escapes).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return json.dumps(token).encode("ascii")


@st.composite
def _event_frames(draw) -> bytes:
    index, token_json = draw(_INDICES), _token_json(draw(_TOKENS), draw(st.booleans()))
    template = _EVENT_TEMPLATES[0] if draw(st.booleans()) else draw(st.sampled_from(_EVENT_TEMPLATES))
    return sse_frame(template % {b"i": index, b"t": token_json})


_FIRST_FRAMES = st.builds(
    lambda token, bits, budget: encode_first_frame(
        FirstTokenFrame(token=token, mask=pack(SelectionMask(bits)), max_tokens=budget)
    ),
    st.text(max_size=8),
    st.lists(st.integers(0, 1), max_size=40),
    st.integers(1, 2**63),
)
_FRAMES = st.one_of(
    _event_frames(), _FIRST_FRAMES, st.just(encode_done()), st.binary(max_size=24).map(sse_frame), st.binary(max_size=24)
)


class TestReferenceDecoder:
    """SseDecoder returns what ReferenceSseDecoder returns and raises what it raises, however fed."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_items_and_errors_as_the_reference(self, data):
        stream = bytearray(b"".join(data.draw(st.lists(_FRAMES, max_size=8))))
        if stream:
            for pos, flip in data.draw(st.lists(st.tuples(st.integers(0, len(stream) - 1), st.integers(1, 255)), max_size=2)):
                stream[pos] ^= flip
        stream = bytes(stream)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=6))
        ours = decode_outcomes(SseDecoder(), stream, cuts)
        assert ours == decode_outcomes(ReferenceSseDecoder(), stream, cuts)
        assert raised(ours) <= {ProtocolError}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**63), _TOKENS, st.booleans())
    @example(2**63, "\ud83d\ude00\ud800", False)
    @example(10**18 - 1, _HARD_TOKEN, True)
    def test_event_in_canonical_key_order_decodes_exactly(self, index, token, ascii_escapes):
        token_json = _token_json(token, ascii_escapes)
        data = sse_frame(b'{"i":%d,"token":%b}' % (index, token_json))
        # json.loads reads an escaped high surrogate followed by an escaped low one back as one character
        expected = StreamEvent(index=index, token=json.loads(token_json))
        assert SseDecoder().feed(data) == ReferenceSseDecoder().feed(data) == [expected]


# tokens needing JSON escapes or multi-byte UTF-8
_FUZZ_TOKENS = ("plain", 'say "hi"', "back\\slash", "tab\tnl\n\x00\x1f", "na\u00efve", "\u65e5\u672c", "\U0001f600", "\u2028\x7f")
# escaped token bodies the encoder never writes: a surrogate pair, lone surrogates, \/ and \u0041
_SURROGATE_ESCAPES = (b"\\ud83d\\ude00", b"\\ud800", b"x\\udfffy", b"\\/\\u0041")
_SPLICED_BODIES = (
    b'{"i": 1, "token": "x"}',
    b'{"token":"x","i":1}',
    b'{"i":1,"token":"x","extra":0}',
    b'{"i":1.0,"token":"x"}',
    b'{"i":1,"token":"\\q"}',
    b'{"i":1,"token":"a\tb"}',
    b'{"first_token":"x","mask_b64":"AAA=","L":5}',
    b"[DONE] ",
    b"null",
)
_BAD_INDICES = (b"0", b"00", b"01", b"1" + b"0" * 18, b"9" * 25, b"7" * 5000, b"-1")


def _fuzz_session(rng: random.Random) -> tuple[list[bytes], list]:
    """The frames of one session, and the items they decode to."""
    mask = pack(SelectionMask([rng.randint(0, 1) for _ in range(rng.randint(0, 300))]))
    first = FirstTokenFrame(token=rng.choice(_FUZZ_TOKENS), mask=mask, max_tokens=rng.randint(1, 60))
    parts, items = [encode_first_frame(first)], [first]
    for i in range(1, rng.randint(1, 40)):
        if rng.random() < 0.2:
            escaped = rng.choice(_SURROGATE_ESCAPES)
            parts.append(sse_frame(b'{"i":%d,"token":"%b"}' % (i, escaped)))
            items.append(StreamEvent(index=i, token=json.loads(b'"%b"' % escaped)))
        else:
            event = StreamEvent(index=i, token=rng.choice(_FUZZ_TOKENS) + str(i))
            parts.append(encode_stream_event(event))
            items.append(event)
    parts.append(encode_done())
    return parts, items + [DONE]


def _mutate(rng: random.Random, parts: list[bytes]) -> bytes:
    """Splice non-canonical frames or bad indices into the frames, then flip, cut or insert bytes."""
    parts = list(parts)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5 or len(parts) < 3:
            parts.insert(rng.randrange(len(parts) + 1), sse_frame(rng.choice(_SPLICED_BODIES)))
        else:
            k = rng.randrange(1, len(parts) - 1)  # the first frame and [DONE] hold no "i"
            bad = b'"i":' + rng.choice(_BAD_INDICES)
            parts[k] = re.sub(rb'"i":[0-9]+', lambda _: bad, parts[k], count=1)
    data = bytearray(b"".join(parts))
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        pos = rng.randrange(len(data) + 1)
        if kind == 0 and pos < len(data):
            data[pos] ^= rng.randrange(1, 256)
        elif kind == 1:
            del data[pos:]
        else:
            data[pos:pos] = rng.randbytes(rng.randint(1, 6))
    return bytes(data)


class TestMutationFuzz:
    """Seeded mutations of encoded sessions end in ProtocolError or the exact items, in bounded memory."""

    def test_mutated_sessions_decode_like_the_reference(self):
        rng = random.Random(2025)
        tracemalloc.start()
        try:
            for case in range(1500):
                parts, items = _fuzz_session(rng)
                mutated = case % 4 != 0
                data = _mutate(rng, parts) if mutated else b"".join(parts)
                cuts = [rng.randrange(len(data) + 1) for _ in range(rng.randint(0, 12))]
                ours = decode_outcomes(SseDecoder(), data, cuts)
                assert ours == decode_outcomes(ReferenceSseDecoder(), data, cuts), (case, data)
                assert raised(ours) <= {ProtocolError}, (case, data)
                if not mutated:
                    assert decoded(ours) == items and not raised(ours)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _best_of_3(fn) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _feed_in_chunks(data: bytes, size: int) -> list:
    decoder = SseDecoder()
    items = []
    for pos in range(0, len(data), size):
        items.extend(decoder.feed(data[pos : pos + size]))
    return items


class TestLinearDecoding:
    """Decoding costs time linear in the bytes fed, however they are chunked."""

    def test_four_times_larger_frame_in_small_chunks_takes_under_eight_times_longer(self):
        small = encode_stream_event(StreamEvent(index=1, token="x" * (128 << 10)))
        large = encode_stream_event(StreamEvent(index=1, token="x" * (512 << 10)))
        assert len(_feed_in_chunks(large, 64)) == 1
        small_s = _best_of_3(lambda: _feed_in_chunks(small, 64))
        large_s = _best_of_3(lambda: _feed_in_chunks(large, 64))
        assert large_s < 8 * small_s

    def test_one_feed_of_many_events_costs_what_chunked_feeds_cost(self):
        events = [StreamEvent(index=i, token=f"token{i}_" + "y" * 300) for i in range(1, 4001)]
        data = b"".join(map(encode_stream_event, events))
        assert SseDecoder().feed(data) == events
        whole_s = _best_of_3(lambda: SseDecoder().feed(data))
        chunked_s = _best_of_3(lambda: _feed_in_chunks(data, 1460))
        assert whole_s < 2 * chunked_s
