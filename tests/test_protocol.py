import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_encode_first_frame, reference_encode_stream_event
from pdsim import protocol
from pdsim.maskcodec import MaskCodecError, pack
from pdsim.protocol import (
    DONE,
    AssistRequest,
    DoneMarker,
    FirstTokenFrame,
    ProtocolError,
    SseDecoder,
    StreamEvent,
    decode_request,
    encode_done,
    encode_first_frame,
    encode_request,
    encode_stream_event,
)
from pdsim.refiner import SelectionMask

GOLDEN = Path(__file__).parent / "golden"


def random_mask(rng: random.Random):
    return pack(SelectionMask([rng.randint(0, 1) for _ in range(rng.randint(0, 64))]))


def random_token(rng: random.Random) -> str:
    alphabet = "abcXYZ0189 #\"\\{}:,\u00e9\u4e16"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))


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
    @given(st.text(), st.lists(st.integers(0, 1), max_size=200), st.integers(0, 2**63))
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
        ],
        ids=["index-true", "index-float", "budget-true", "budget-false", "budget-float"],
    )
    def test_non_int_counts_are_rejected_at_construction(self, build):
        # the decoder rejects "i":true and "L":true, so no frame that builds may encode to them
        with pytest.raises(ValueError):
            build()


class TestFirstFrameCodec:
    def test_round_trip_random_frames(self):
        rng = random.Random(0)
        for _ in range(1000):
            frame = FirstTokenFrame(
                token=random_token(rng), mask=random_mask(rng), max_tokens=rng.randint(0, 500)
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


class TestRequestCodec:
    def test_round_trip(self):
        req = AssistRequest(
            scene="doc_qa",
            model_version_label="base-v1",
            device_class="phone",
            prefix="system text",
            content="body. text.",
            suffix="question?",
            request_id="r-1",
        )
        assert decode_request(encode_request(req)) == req

    def test_needs_content_or_suffix(self):
        with pytest.raises(ValueError):
            AssistRequest("s", "m", "d", "p", "", "", "id")
        with pytest.raises(ProtocolError):
            decode_request(b'{"scene":"s","model_version_label":"m","device_class":"d",'
                           b'"prefix":"p","content":"","suffix":"","request_id":"id"}')

    def test_missing_field_named(self):
        with pytest.raises(ProtocolError, match="request_id"):
            decode_request(b'{"scene":"s","model_version_label":"m","device_class":"d",'
                           b'"prefix":"p","content":"c","suffix":"q"}')


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
        assert len(calls) == len(items) - 1  # one per first frame or event; [DONE] is not JSON

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
