import random
from pathlib import Path

import pytest

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

    def test_done_singleton(self):
        assert DoneMarker() is DONE
