import random
import struct
import tracemalloc
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OBSERVED, Session, observed, reference_run_session, serve_at

from pdsim.cloudsim import EOT_TOKEN, TokenSource
from pdsim.devicesim import (
    CorrectionPolicy,
    DeviceTrace,
    ScrubRule,
    StallError,
    run_session,
    scrub,
)
from pdsim.eventloop import EventLoop
from pdsim.maskcodec import CompressedMask, pack
from pdsim.planner import PlanConstraints, solve_plan
from pdsim.protocol import (
    DONE,
    FirstTokenFrame,
    ProtocolError,
    SseDecoder,
    StreamEvent,
    encode_done,
    encode_first_frame,
    encode_stream_event,
)
from pdsim.refiner import SelectionMask, TokenizedPrompt
from pdsim.timing import AffineCost, RttClass, TimingModel


def content_prompt(sentences: int = 800, words: int = 10) -> TokenizedPrompt:
    """Content-only prompt of exactly sentences*words tokens: each sentence holds ``words`` tokens."""
    return TokenizedPrompt(0, (words,) * sentences, 0)


@pytest.fixture
def plan(calibrated_model):
    """The doc_qa plan for the 8000 tokens of ``content_prompt()``."""
    return solve_plan(calibrated_model, PlanConstraints(0.25, 100.0), 8000)


def serve(calibrated_model, ratio, max_tokens, *, n=60, divergence=frozenset(), policy=CorrectionPolicy.CLOUD_WINS):
    prompt = content_prompt()
    cloud_source = TokenSource(seed=77, total_tokens=n)
    device_source = TokenSource(seed=77, total_tokens=n, divergence=divergence)
    trace_c = serve_at(prompt, calibrated_model, cloud_source, ratio, max_tokens)
    trace_d = run_session(Session("req-1", prompt), trace_c.delivery(), calibrated_model, device_source, policy)
    return trace_c, trace_d


class TestHappyPath:
    def test_timeline_and_pacing(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens)
        # plan for doc_qa/phone/8000: quarter ratio, 24 assisted tokens
        assert trace_c.frame.max_tokens == 24
        assert trace_d.user_ttft_ms == pytest.approx(950.0)
        assert trace_d.refined_tokens == 2000  # 10-token sentences divide the budget exactly
        assert trace_d.ttft_device_ms == pytest.approx(3500.0)
        assert trace_d.tpot_smooth_ms == pytest.approx(30.0 + (2500.0 - 950.0) / 23.0)

        times = [t for t, _, _ in trace_d.displays]
        assert times == sorted(times)
        window = trace_d.displays[:24]
        gaps = [b[0] - a[0] for a, b in zip(window, window[1:])]
        assert max(gaps) == pytest.approx(trace_d.tpot_smooth_ms)
        assert trace_d.max_smoothed_gap_ms <= 100.0 + 1.0
        # user-perceived TTFT is the first display
        assert trace_d.displays[0][0] == pytest.approx(950.0)

    def test_output_is_cloud_prefix_plus_device_continuation(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens, n=60)
        cloud_tokens = [trace_c.frame.token] + [e.token for _, e in trace_c.events]
        shown = [token for _, _, token in trace_d.displays]
        assert shown[:24] == cloud_tokens
        assert len(shown) == 59  # device EOT at 60 is not displayed
        assert trace_d.common_prefix_len == 24
        assert trace_d.corrections == 0

    def test_stream_confined_to_device_prefill_phase(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens)
        assert trace_c.events[-1][0] <= trace_d.ttft_device_ms

    def test_decode_catches_display_within_feedback_and_recovery_lag(self, calibrated_model, plan):
        _, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens)
        window_last, first_own = trace_d.displays[23], trace_d.displays[24]
        assert first_own[1] == 25
        # decode 24 caught up with the display within the lag; decode 25 is one step on
        lag_budget = trace_d.user_ttft_ms + calibrated_model.decompress(8000) + 1.0
        assert first_own[0] <= window_last[0] + lag_budget + calibrated_model.tpot_device

    def test_handover_gap_is_the_prefill_phase_residue(self, calibrated_model, plan):
        _, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens)
        expected = trace_d.user_ttft_ms + calibrated_model.decompress(8000) + calibrated_model.tpot_device
        assert trace_d.handover_gap_ms == pytest.approx(expected)

    def test_events_buffered_until_their_display_slot(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens)
        arrivals = {e.index + 1: t for t, e in trace_c.events}
        for when, position, _ in trace_d.displays[:24]:
            if position > 1:
                assert when >= arrivals[position]

    def test_item_timed_before_the_frame_waits_for_it(self, calibrated_model, plan):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=12)
        trace_c = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens)
        stream = trace_c.delivery()
        stream[1] = (trace_c.frame_time_ms - 10.0, stream[1][1])
        trace_d = run_session(Session("req-1", prompt), stream, calibrated_model, source)
        positions = [position for _, position, _ in trace_d.displays]
        assert positions == list(range(1, 12))
        assert trace_d.displays[1][0] > trace_d.displays[0][0] == trace_c.frame_time_ms


class TestSingleAssistedToken:
    def test_no_display_branch(self, calibrated_model, plan):
        _, trace_d = serve(calibrated_model, 0.25, 1)
        assert trace_d.tpot_smooth_ms is None
        assert trace_d.displays[0][0] == pytest.approx(950.0)
        # next token comes from the device itself, one decode step after prefill
        assert trace_d.displays[1][0] == pytest.approx(trace_d.ttft_device_ms + 30.0)
        assert trace_d.max_smoothed_gap_ms is None


class TestEarlyNaturalFinish:
    def test_cloud_eot_ends_the_session(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens, n=10)
        assert len(trace_c.events) == 9
        assert trace_c.events[-1][1].token == EOT_TOKEN
        assert [position for _, position, _ in trace_d.displays] == list(range(1, 10))
        assert EOT_TOKEN not in [token for _, _, token in trace_d.displays]

    def test_an_eot_frame_reports_when_the_prefill_would_have_completed(self):
        # the frame, arriving at 0.7 ms for a session started at 0.1 ms, is the
        # cloud EOT, so the 0.3 ms recovery and the 1.05 ms prefill of the one
        # refined token never run
        model = TimingModel(k_device=1.05, decompress=AffineCost(0.3, 0.0))
        prompt = content_prompt(sentences=3)
        mask = pack(SelectionMask([1] + [0] * (prompt.total_tokens - 1)))
        args = (Session("req-1", prompt, 0.1), [(0.7, FirstTokenFrame(EOT_TOKEN, mask, 4)), (0.7, DONE)], model,
                TokenSource(seed=1, total_tokens=4))
        trace_d = run_session(*args)
        assert trace_d.window == () and trace_d.output_len == 0
        # the clock instant less the start, 1.9499999999999997; the frame's
        # TTFT plus recovery and prefill would round to 1.95
        assert trace_d.ttft_device_ms == 0.7 + 0.3 + 1.05 - 0.1 != 0.7 - 0.1 + 0.3 + 1.05
        assert observed(trace_d) == observed(reference_run_session(*args))


class TestCorrector:
    def test_cloud_wins_displays_cloud_stream_and_counts(self, calibrated_model, plan):
        trace_c, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens, divergence=frozenset({7}))
        cloud_tokens = [trace_c.frame.token] + [e.token for _, e in trace_c.events]
        assert [token for _, _, token in trace_d.displays[:24]] == cloud_tokens
        assert trace_d.corrections >= 1
        assert trace_d.common_prefix_len == 6

    def test_off_leaves_common_prefix_statistic(self, calibrated_model, plan):
        _, trace_d = serve(
            calibrated_model, plan.ratio, plan.max_tokens, divergence=frozenset({8}), policy=CorrectionPolicy.OFF
        )
        assert trace_d.corrections == 0
        assert trace_d.common_prefix_len == 7

    def test_divergence_beyond_window_is_out_of_scope(self, calibrated_model, plan):
        _, trace_d = serve(calibrated_model, plan.ratio, plan.max_tokens, divergence=frozenset({40}))
        assert trace_d.corrections == 0
        assert trace_d.common_prefix_len == 24

    def test_device_display_substitutes_when_ready(self, calibrated_model, plan):
        prompt = content_prompt()
        cloud_source = TokenSource(seed=77, total_tokens=60)
        device_source = TokenSource(seed=77, total_tokens=60, divergence=frozenset({3}))
        trace_c = serve_at(prompt, calibrated_model, cloud_source, plan.ratio, plan.max_tokens)
        # hold every event back until long after the device finished decoding
        late = [(6000.0 + 10.0 * i, event) for i, (_, event) in enumerate(trace_c.events, start=1)]
        late.append((late[-1][0], DONE))
        trace_d = run_session(
            Session("req-1", prompt), [(trace_c.frame_time_ms, trace_c.frame), *late], calibrated_model,
            device_source, CorrectionPolicy.DEVICE_DISPLAY,
        )
        assert trace_d.corrections >= 1
        shown = {position: token for _, position, token in trace_d.displays}
        assert shown[3] == device_source.token_at(3)
        # the display paused for the stalled stream instead of extrapolating
        assert trace_d.displays[2][0] >= 6000.0


class TestMatchesEventReference:
    @settings(max_examples=300, deadline=None)
    @given(
        # whole milliseconds make ties; tenths make rounding show
        tpots=st.tuples(*[st.integers(1, 60) | st.integers(10, 600).map(lambda t: t / 10)] * 2),
        k=st.tuples(st.sampled_from([0.05, 0.1, 0.25]), st.sampled_from([0.5, 1.0, 1.25, 2.0])),
        rtt=st.integers(0, 200),
        start=st.integers(0, 50),
        sentences=st.integers(3, 40),
        ratio=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
        # (n, budget, device_extra): a short output; a long output past a small
        # window; a device source longer than the cloud's, whose EOT show falls
        # inside the window, so that decodes meet that show
        shape=st.one_of(
            st.tuples(st.integers(1, 160), st.sampled_from([1, 2]) | st.integers(3, 80), st.integers(-20, 20)),
            st.tuples(st.integers(160, 2000), st.integers(1, 8), st.integers(-20, 20)),
            st.integers(2, 80).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(n, 80), st.integers(1, 2000))
            ),
        ),
        divergence=st.frozensets(st.integers(1, 170) | st.integers(1, 2100), max_size=10),
        delays=st.lists(st.integers(0, 400), max_size=30),
        cut=st.none() | st.integers(0, 160),
        done_after=st.none() | st.integers(0, 3000),
        policy=st.sampled_from(list(CorrectionPolicy)),
    )
    def test_every_field_equals_the_event_by_event_session(
        self, tpots, k, rtt, start, sentences, ratio, shape, divergence, delays, cut, done_after, policy
    ):
        n, budget, device_extra = shape
        model = TimingModel(
            k_cloud=k[0], k_device=k[1], tpot_cloud=float(tpots[0]), tpot_device=float(tpots[1]),
            rtt=RttClass(mean_ms=float(rtt), jitter_ms=0.0),
        )
        prompt = content_prompt(sentences=sentences)
        # n below the budget ends the stream with a cloud EOT inside the window
        trace_c = serve_at(prompt, model, TokenSource(seed=5, total_tokens=n), ratio, budget, start_ms=float(start))
        # late arrivals interleave the stream with the device's own decoding; a
        # stream cut short still ends in DONE, which may come at any time from
        # the frame on
        events = trace_c.events[:cut]
        stream = [(t + (delays[i] if i < len(delays) else 0), e) for i, (t, e) in enumerate(events)]
        if done_after is None:
            stream.append((max([trace_c.done_time_ms] + [t for t, _ in stream]), DONE))
        else:
            stream.append((trace_c.frame_time_ms + done_after, DONE))
        args = (Session("req-1", prompt, float(start)), [(trace_c.frame_time_ms, trace_c.frame), *stream], model)
        device_tokens = max(1, n + device_extra)
        got = run_session(*args, TokenSource(seed=5, total_tokens=device_tokens, divergence=divergence), policy)
        want = reference_run_session(
            *args, TokenSource(seed=5, total_tokens=device_tokens, divergence=divergence), policy
        )
        for name in OBSERVED:  # displays among them
            assert getattr(got, name) == getattr(want, name), name

    @settings(max_examples=300, deadline=None)
    @given(
        tpot=st.integers(1, 4),
        recover=st.integers(0, 4),
        refined=st.integers(0, 6),
        budget=st.integers(3, 8),
        device_extra=st.integers(1, 40),
        policy=st.sampled_from(list(CorrectionPolicy)),
        data=st.data(),
    )
    def test_decodes_meet_the_shows(self, tpot, recover, refined, budget, device_extra, policy, data):
        # whole milliseconds from a frame at 0 ms put decodes on the instants of
        # shows: of the cloud-EOT show, or, with no cloud EOT, of the window's
        # shows. The device source runs on past the cloud's last token
        eot = data.draw(st.none() | st.integers(2, budget), label="eot")
        last = budget if eot is None else eot
        arrivals = data.draw(st.lists(st.integers(0, 24), min_size=last - 1, max_size=last - 1), label="arrivals")
        divergence = data.draw(st.frozensets(st.integers(2, last + device_extra), max_size=3), label="divergence")
        # a tie position arrives at the instant of its own decode, where the
        # device's token differs: DEVICE_DISPLAY shows the device's token if
        # nothing held the show back
        tie = data.draw(st.none() | st.integers(2, last), label="tie")
        if tie is not None:
            arrivals[tie - 2] = recover + refined + (tie - 1) * tpot
            divergence |= {tie}
        done = max(arrivals) + data.draw(st.integers(0, 4), label="done_after")
        model = TimingModel(k_device=1.0, tpot_device=float(tpot), decompress=AffineCost(float(recover), 0.0))
        prompt = content_prompt(sentences=3)
        mask = pack(SelectionMask([1] * refined + [0] * (prompt.total_tokens - refined)))
        stream = [
            (float(t), StreamEvent(p - 1, EOT_TOKEN if p == eot else f"tok{p}"))
            for p, t in enumerate(arrivals, start=2)
        ]
        stream.append((float(done), DONE))
        args = (Session("req-1", prompt), [(0.0, FirstTokenFrame("tok1", mask, budget)), *stream], model)
        source = TokenSource(seed=5, total_tokens=last + device_extra, divergence=divergence)
        got = run_session(*args, source, policy)
        assert observed(got) == observed(reference_run_session(*args, source, policy))

    # the frame arrives at 0 ms; 0 refined tokens with no recovery cost put the
    # prefill on the frame's instant. At an equal instant a decode runs before
    # a show: each case puts a decode on the instant of a show
    @pytest.mark.parametrize(
        "tpot, recover, refined, budget, arrivals, eot, done, divergence, device_len, policy, corrections",
        [
            # decode 2 meets the cloud-EOT show 3 at 6 ms: it runs, and the cloud
            # token corrects its own EOT
            pytest.param(3, 3, 0, 3, [0, 0], 3, 35, (), 1, CorrectionPolicy.CLOUD_WINS, 1,
                         id="eot-show-at-decode-2"),
            # decode 2 meets show 2 at 1 ms, so show 2 displays the device's token
            pytest.param(1, 0, 0, 2, [0], None, 0, {2}, 3, CorrectionPolicy.DEVICE_DISPLAY, 1,
                         id="show-2-at-decode-2"),
            # decodes 2 and 3 meet shows 2 and 3, at 1 and 2 ms; only position 3 differs
            pytest.param(1, 0, 0, 3, [0, 0], None, 12, {3}, 4, CorrectionPolicy.DEVICE_DISPLAY, 1,
                         id="show-3-at-decode-3"),
            # decode 4 meets show 4 at 9 ms, after show 3 waited for its arrival at 6 ms
            pytest.param(3, 0, 0, 4, [0, 6, 3], None, 42, {4}, 5, CorrectionPolicy.DEVICE_DISPLAY, 1,
                         id="show-4-at-decode-4"),
            # decode 9 meets show 9 at 38 ms, after a 14 ms prefill and fractional paces
            pytest.param(3, 0, 14, 9, [0] * 6 + [33.25, 35], None, 55.75, {9}, 10,
                         CorrectionPolicy.DEVICE_DISPLAY, 1, id="show-9-at-decode-9"),
            # a device source longer than the cloud's. Decode 3 meets the cloud-EOT
            # show 3 at 4 ms: it runs and takes the cloud EOT
            pytest.param(2, 0, 0, 4, [0, 0], 3, 1, (), 9, CorrectionPolicy.CLOUD_WINS, 1,
                         id="eot-show-at-decode-3"),
            # the same, with the EOT arriving at 3 ms, before the show's slot
            pytest.param(2, 0, 0, 4, [0, 3], 3, 4, (), 9, CorrectionPolicy.CLOUD_WINS, 1,
                         id="eot-show-at-decode-3-arrived-late"),
            # the EOT arrives at 6 ms: decode 4, past the cloud's last position,
            # meets its show and runs, with no cloud token to take
            pytest.param(2, 0, 0, 4, [0, 6], 3, 7, (), 9, CorrectionPolicy.CLOUD_WINS, 0,
                         id="eot-show-at-decode-4"),
        ],
    )
    def test_a_decode_runs_before_a_show_at_its_instant(
        self, tpot, recover, refined, budget, arrivals, eot, done, divergence, device_len, policy, corrections
    ):
        model = TimingModel(k_device=1.0, tpot_device=float(tpot), decompress=AffineCost(float(recover), 0.0))
        prompt = content_prompt(sentences=3)
        mask = pack(SelectionMask([1] * refined + [0] * (prompt.total_tokens - refined)))
        stream = [
            (float(t), StreamEvent(p - 1, EOT_TOKEN if p == eot else f"tok{p}"))
            for p, t in enumerate(arrivals, start=2)
        ]
        stream.append((float(done), DONE))
        args = (Session("req-1", prompt), [(0.0, FirstTokenFrame("tok1", mask, budget)), *stream], model)
        source = TokenSource(seed=5, total_tokens=device_len, divergence=frozenset(divergence))
        got = run_session(*args, source, policy)
        assert observed(got) == observed(reference_run_session(*args, source, policy))
        assert got.corrections == corrections

    def test_a_session_builds_no_event_loop(self, calibrated_model, plan, monkeypatch):
        built = []
        original = EventLoop.__init__

        def counting(loop, *args, **kwargs):
            built.append(loop)
            original(loop, *args, **kwargs)

        monkeypatch.setattr(EventLoop, "__init__", counting)
        _, trace_d = serve(calibrated_model, plan.ratio, 40, n=1600)
        assert len(trace_d.displays) == 1599
        assert built == []

    def test_a_session_steps_only_its_cloud_window(self, calibrated_model, plan, monkeypatch):
        calls = []
        original = TokenSource.token_at

        def counting(source, position):
            calls.append(position)
            return original(source, position)

        monkeypatch.setattr(TokenSource, "token_at", counting)
        _, trace_d = serve(calibrated_model, plan.ratio, 40, n=1600)
        # the cloud's 40 tokens and the device's own within the window, each formatted once
        assert trace_d.output_len == 1599
        assert sorted(calls) == sorted([*range(1, 41), *range(1, 42)])
        calls.clear()
        assert len(trace_d.displays) == 1599
        assert calls == list(range(41, 1600))  # the continuation, expanded on demand


class TestWireStream:
    """The stream a session takes is the item sequence ``SseDecoder`` yields from the encoded frames."""

    @staticmethod
    def encode(item) -> bytes:
        if isinstance(item, FirstTokenFrame):
            return encode_first_frame(item)
        return encode_stream_event(item) if isinstance(item, StreamEvent) else encode_done()

    @pytest.mark.parametrize("seed", range(20))
    def test_the_decoded_stream_is_the_delivery_and_gives_its_trace(self, calibrated_model, seed):
        rng = random.Random(seed)
        prompt = content_prompt(sentences=rng.randint(3, 400))
        n, start = rng.randint(1, 200), rng.uniform(0.0, 1000.0)
        cloud = TokenSource(seed=seed, total_tokens=n)
        device = TokenSource(seed=seed, total_tokens=n, divergence=frozenset(rng.sample(range(2, 200), 5)))
        trace_c = serve_at(prompt, calibrated_model, cloud, rng.choice([0.1, 0.25, 0.5, 1.0]), rng.randint(1, 80),
                           request_id=f"req-{seed}", start_ms=start)
        delivered = trace_c.delivery()
        wire = b"".join(self.encode(item) for _, item in delivered)
        decoder, size = SseDecoder(), rng.randint(1, 64)
        decoded = [item for at in range(0, len(wire), size) for item in decoder.feed(wire[at : at + size])]
        assert decoded == [item for _, item in delivered]

        req, policy = Session(f"req-{seed}", prompt, start), rng.choice(list(CorrectionPolicy))
        stream = [(when, item) for (when, _), item in zip(delivered, decoded)]
        got = run_session(req, stream, calibrated_model, device, policy)
        assert observed(got) == observed(run_session(req, delivered, calibrated_model, device, policy))

    def test_a_stream_must_open_with_the_frame(self, calibrated_model, plan):
        # list order, not time: the frame comes first even when an item is timed before it
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=12)
        delivered = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens).delivery()
        for stream in ([], delivered[1:], [delivered[1], delivered[0], *delivered[2:]]):
            with pytest.raises(ProtocolError, match="stream must open with the first-token frame"):
                run_session(Session("req-1", prompt), stream, calibrated_model, source)

    def test_a_second_frame_is_refused(self, calibrated_model, plan):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=12)
        delivered = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens).delivery()
        with pytest.raises(ProtocolError, match="stream holds a second first-token frame"):
            run_session(Session("req-1", prompt), [*delivered[:-1], delivered[0], delivered[-1]], calibrated_model,
                        source)

    def test_a_stream_is_read_once_so_an_iterator_serves(self, calibrated_model, plan):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=60, divergence=frozenset({3, 9}))
        trace_c = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens)
        from_list, from_iterator = (
            run_session(Session("req-1", prompt), stream, calibrated_model, source)
            for stream in (trace_c.delivery(), iter(trace_c.delivery()))
        )
        for field in fields(DeviceTrace):
            got, want = getattr(from_iterator, field.name), getattr(from_list, field.name)
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, field.name

    @pytest.mark.parametrize(
        "tail",
        [
            lambda delivered: [delivered[-1], *delivered[1:-1]],  # DONE ahead of the events
            lambda delivered: [*delivered[1:], delivered[-1]],  # a second DONE
            lambda delivered: [*delivered[1:], delivered[1]],  # an event after DONE
        ],
        ids=["done-first", "second-done", "event-after-done"],
    )
    def test_done_ends_the_stream(self, calibrated_model, plan, tail):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=12)
        delivered = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens).delivery()
        with pytest.raises(ProtocolError, match="^stream continues after DONE$"):
            run_session(Session("req-1", prompt), [delivered[0], *tail(delivered)], calibrated_model, source)

    @pytest.mark.parametrize("stray, name", [(b"data: junk", "bytes"), (None, "NoneType")])
    def test_an_item_of_another_type_is_refused(self, calibrated_model, plan, stray, name):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=12)
        delivered = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens).delivery()
        stream = [delivered[0], (delivered[0][0], stray), *delivered[1:]]
        with pytest.raises(ProtocolError, match=f"^stream holds a {name} item, not a stream event or DONE$"):
            run_session(Session("req-1", prompt), stream, calibrated_model, source)


class TestFailureModes:
    def test_stalled_stream_raises(self, calibrated_model, plan):
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=60)
        trace_c = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens)
        truncated = trace_c.delivery()[:6]  # the frame and 5 events: no DONE, fewer than budget
        with pytest.raises(StallError):
            run_session(Session("req-1", prompt), truncated, calibrated_model, source)

    def test_full_window_without_done_is_not_a_stall(self, calibrated_model, plan):
        # budget - 1 events complete the window, so the missing DONE loses nothing
        prompt = content_prompt()
        source = TokenSource(seed=77, total_tokens=60)
        trace_c = serve_at(prompt, calibrated_model, source, plan.ratio, plan.max_tokens)
        assert len(trace_c.events) == plan.max_tokens - 1
        with_done, without_done = (
            run_session(Session("req-1", prompt), stream, calibrated_model, source)
            for stream in (trace_c.delivery(), trace_c.delivery()[:-1])
        )
        assert observed(without_done) == observed(with_done)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([1, 2, *range(4, 30)], "stream event index 3 missing"),
            ([1, 2, 3, 3, *range(4, 30)], "stream event index 3 repeated"),
            # the wire order is the index order, whatever the arrival times
            ([2, 1, *range(3, 30)], "stream event index 1 missing"),
        ],
    )
    def test_event_indices_must_run_one_to_k(self, calibrated_model, indices, message):
        prompt = content_prompt(sentences=3)
        frame = FirstTokenFrame("tok1", pack(SelectionMask([1] * prompt.total_tokens)), 10)
        stream = [(30.0 * index, StreamEvent(index, f"tok{index + 1}")) for index in indices]
        stream.append((900.0, DONE))
        with pytest.raises(ProtocolError, match=message):
            run_session(Session("req-1", prompt), [(0.0, frame), *stream], calibrated_model,
                        TokenSource(seed=1, total_tokens=30))

    def test_mask_prompt_mismatch_raises(self, calibrated_model, plan):
        source = TokenSource(seed=77, total_tokens=60)
        trace_c = serve_at(content_prompt(sentences=400), calibrated_model, source, plan.ratio, plan.max_tokens,
                           request_id="req-2")
        with pytest.raises(ProtocolError):
            run_session(Session("req-1", content_prompt()), trace_c.delivery(), calibrated_model, source)

    def test_mask_length_checked_before_inflating(self, calibrated_model):
        # 2^24 zero bits, the longest mask a container declares, deflate to about
        # 2 KB; decoding them would take 18 MB
        deflate = zlib.compressobj(9)
        body = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(2)) + deflate.flush()
        mask = CompressedMask(struct.pack("<I", 1 << 24) + body)
        frame = FirstTokenFrame("tok1", mask, 4)
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="mask carries 16777216 bits for a 30-token prompt"):
                run_session(Session("req-1", content_prompt(sentences=3)), [(0.0, frame), (1.0, DONE)],
                            calibrated_model, TokenSource(seed=1, total_tokens=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestScrub:
    def test_empty_rule_list_is_identity(self):
        assert scrub("call 12345678901 now", rules=()) == "call 12345678901 now"

    def test_phone_rule(self):
        assert scrub("call 12345678901 now", (ScrubRule(r"\d{11}", "[PHONE]"),)) == "call [PHONE] now"

    def test_idempotent(self):
        rules = (ScrubRule(r"\d{11}", "[PHONE]"), ScrubRule(r"secret\w*", "[REDACTED]"))
        text = "secret42 phone 98765432109 end"
        once = scrub(text, rules)
        assert scrub(once, rules) == once


class TestEventLoop:
    """The scheduler the reference session and the reference throughput simulator run on."""

    def test_an_event_loop_refuses_the_past(self):
        loop = EventLoop(start_ms=5.0)
        with pytest.raises(ValueError, match="cannot schedule in the past"):
            loop.schedule_at(4.0, lambda: None)
