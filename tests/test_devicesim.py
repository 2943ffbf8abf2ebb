import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_run_session, tokenized

from pdsim.cloudsim import EOT_TOKEN, TokenSource, serve_request
from pdsim.devicesim import (
    CorrectionPolicy,
    DeviceTrace,
    ScrubRule,
    StallError,
    run_session,
    scrub,
)
from pdsim.eventloop import EventLoop
from pdsim.planner import PlanConstraints, build_plan_table
from pdsim.protocol import DONE, AssistRequest, ProtocolError
from pdsim.timing import RttClass, build_model


def content_prompt_request(sentences: int = 800, words: int = 10, request_id: str = "req-1") -> AssistRequest:
    """Content-only prompt of exactly sentences*words tokens (last word is the period)."""
    content = " ".join(
        " ".join(f"w{s}x{w}" for w in range(words - 1)) + "." for s in range(sentences)
    )
    return AssistRequest(
        scene="doc_qa",
        model_version_label="base-v1",
        device_class="phone",
        prefix="",
        content=content,
        suffix="",
        request_id=request_id,
    )


@pytest.fixture
def plan_table(calibrated_model):
    return build_plan_table({"phone": calibrated_model}, {"doc_qa": PlanConstraints(0.25, 100.0)}, (8000,))


def serve(calibrated_model, plan_table, *, n=60, divergence=frozenset(), policy=CorrectionPolicy.CLOUD_WINS,
          request=None, **kwargs):
    req = request or content_prompt_request()
    cloud_source = TokenSource(seed=77, total_tokens=n)
    device_source = TokenSource(seed=77, total_tokens=n, divergence=divergence)
    prompt = tokenized(req)
    trace_c = serve_request(req, prompt, plan_table, calibrated_model, cloud_source, **kwargs)
    trace_d = run_session(
        req, prompt, trace_c.frame, trace_c.delivery(), calibrated_model, device_source, policy,
        start_ms=0.0, frame_time_ms=trace_c.frame_time_ms,
    )
    return trace_c, trace_d


class TestHappyPath:
    def test_timeline_and_pacing(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table)
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

    def test_output_is_cloud_prefix_plus_device_continuation(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table, n=60)
        cloud_tokens = [trace_c.frame.token] + [e.token for _, e in trace_c.events]
        assert list(trace_d.output_tokens[:24]) == cloud_tokens
        assert len(trace_d.output_tokens) == 59  # device EOT at 60 is not displayed
        assert trace_d.common_prefix_len == 24
        assert trace_d.corrections == 0

    def test_stream_confined_to_device_prefill_phase(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table)
        assert trace_d.stream_complete_ms <= trace_d.ttft_device_ms

    def test_decode_catches_display_within_feedback_and_recovery_lag(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table)
        window_last = trace_d.displays[23][0]
        lag_budget = trace_d.user_ttft_ms + calibrated_model.decompress_cost(8000) + 1.0
        assert trace_d.decode_caught_up_ms is not None
        assert trace_d.decode_caught_up_ms <= window_last + lag_budget

    def test_handover_gap_is_the_prefill_phase_residue(self, calibrated_model, plan_table):
        _, trace_d = serve(calibrated_model, plan_table)
        expected = trace_d.user_ttft_ms + calibrated_model.decompress_cost(8000) + calibrated_model.tpot_device
        assert trace_d.handover_gap_ms == pytest.approx(expected)

    def test_events_buffered_until_their_display_slot(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table)
        arrivals = {e.index + 1: t for t, e in trace_c.events}
        for when, position, _ in trace_d.displays[:24]:
            if position > 1:
                assert when >= arrivals[position]


class TestSingleAssistedToken:
    def test_no_display_branch(self, calibrated_model, plan_table):
        _, trace_d = serve(calibrated_model, plan_table, max_tokens_override=1, ratio_override=0.25)
        assert trace_d.tpot_smooth_ms is None
        assert trace_d.schedule is None
        assert trace_d.displays[0][0] == pytest.approx(950.0)
        # next token comes from the device itself, one decode step after prefill
        assert trace_d.displays[1][0] == pytest.approx(trace_d.ttft_device_ms + 30.0)
        assert trace_d.max_smoothed_gap_ms is None


class TestUnboundedStream:
    def test_planning_miss_displays_at_arrival_pace(self, calibrated_model):
        trace_c, trace_d = serve(calibrated_model, None, n=40)
        assert trace_c.frame.max_tokens == 0
        assert len(trace_d.output_tokens) == 39
        assert trace_d.cloud_eot
        arrivals = {e.index + 1: t for t, e in trace_c.events}
        for when, position, _ in trace_d.displays:
            if position > 1:
                assert when == pytest.approx(arrivals[position])


class TestEarlyNaturalFinish:
    def test_cloud_eot_ends_the_session(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table, n=10)
        assert trace_c.record.tokens_emitted == 10
        assert trace_d.cloud_eot
        assert len(trace_d.output_tokens) == 9
        assert trace_d.output_tokens[-1] != EOT_TOKEN


class TestCorrector:
    def test_cloud_wins_displays_cloud_stream_and_counts(self, calibrated_model, plan_table):
        trace_c, trace_d = serve(calibrated_model, plan_table, divergence=frozenset({7}))
        cloud_tokens = [trace_c.frame.token] + [e.token for _, e in trace_c.events]
        assert list(trace_d.output_tokens[:24]) == cloud_tokens
        assert trace_d.corrections >= 1
        assert trace_d.common_prefix_len == 6

    def test_off_leaves_common_prefix_statistic(self, calibrated_model, plan_table):
        _, trace_d = serve(calibrated_model, plan_table, divergence=frozenset({8}), policy=CorrectionPolicy.OFF)
        assert trace_d.corrections == 0
        assert trace_d.common_prefix_len == 7

    def test_divergence_beyond_window_is_out_of_scope(self, calibrated_model, plan_table):
        _, trace_d = serve(calibrated_model, plan_table, divergence=frozenset({40}))
        assert trace_d.corrections == 0
        assert trace_d.common_prefix_len == 24

    def test_device_display_substitutes_when_ready(self, calibrated_model, plan_table):
        req = content_prompt_request()
        cloud_source = TokenSource(seed=77, total_tokens=60)
        device_source = TokenSource(seed=77, total_tokens=60, divergence=frozenset({3}))
        prompt = tokenized(req)
        trace_c = serve_request(req, prompt, plan_table, calibrated_model, cloud_source)
        # hold every event back until long after the device finished decoding
        late = [(6000.0 + 10.0 * i, event) for i, (_, event) in enumerate(trace_c.events, start=1)]
        late.append((late[-1][0], DONE))
        trace_d = run_session(
            req, prompt, trace_c.frame, late, calibrated_model, device_source, CorrectionPolicy.DEVICE_DISPLAY,
            start_ms=0.0, frame_time_ms=trace_c.frame_time_ms,
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
        budget=st.one_of(st.sampled_from([None, 1, 2]), st.integers(3, 80)),
        n=st.integers(1, 160),
        divergence=st.frozensets(st.integers(1, 170), max_size=10),
        delays=st.lists(st.integers(0, 400), max_size=30),
        policy=st.sampled_from(list(CorrectionPolicy)),
    )
    def test_every_field_equals_the_event_by_event_session(
        self, tpots, k, rtt, start, sentences, ratio, budget, n, divergence, delays, policy
    ):
        model = build_model(
            k_cloud=k[0], k_device=k[1], tpot_cloud=float(tpots[0]), tpot_device=float(tpots[1]),
            rtt=RttClass("fixed", mean_ms=float(rtt), jitter_ms=0.0),
        )
        req = content_prompt_request(sentences=sentences)
        prompt = tokenized(req)
        # budget None streams until EOT (frame budget 0); n below the budget
        # ends the stream with a cloud EOT inside the window
        trace_c = serve_request(
            req, prompt, None, model, TokenSource(seed=5, total_tokens=n),
            start_ms=float(start), ratio_override=ratio, max_tokens_override=budget,
        )
        # late arrivals interleave the stream with the device's own decoding
        stream = [(t + (delays[i] if i < len(delays) else 0), e) for i, (t, e) in enumerate(trace_c.events)]
        stream.append((max([trace_c.done_time_ms] + [t for t, _ in stream]), DONE))
        args = (req, prompt, trace_c.frame, stream, model)
        kwargs = dict(start_ms=float(start), frame_time_ms=trace_c.frame_time_ms)
        got = run_session(*args, TokenSource(seed=5, total_tokens=n, divergence=divergence), policy, **kwargs)
        want = reference_run_session(
            *args, TokenSource(seed=5, total_tokens=n, divergence=divergence), policy, **kwargs
        )
        for f in dataclasses.fields(DeviceTrace):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_device_tail_runs_outside_the_loop(self, calibrated_model, plan_table, monkeypatch):
        scheduled = []
        original = EventLoop.schedule_at

        def counting(loop, when_ms, fn):
            scheduled.append(when_ms)
            original(loop, when_ms, fn)

        monkeypatch.setattr(EventLoop, "schedule_at", counting)
        _, trace_d = serve(calibrated_model, plan_table, n=1600, max_tokens_override=40)
        assert len(trace_d.output_tokens) == 1599
        assert len(scheduled) < 200


class TestFailureModes:
    def test_stalled_stream_raises(self, calibrated_model, plan_table):
        req = content_prompt_request()
        source = TokenSource(seed=77, total_tokens=60)
        prompt = tokenized(req)
        trace_c = serve_request(req, prompt, plan_table, calibrated_model, source)
        truncated = [(t, e) for t, e in trace_c.events[:5]]  # no DONE, fewer than budget
        with pytest.raises(StallError):
            run_session(req, prompt, trace_c.frame, truncated, calibrated_model, source,
                        start_ms=0.0, frame_time_ms=trace_c.frame_time_ms)

    def test_mask_prompt_mismatch_raises(self, calibrated_model, plan_table):
        req = content_prompt_request()
        other = content_prompt_request(sentences=400, request_id="req-2")
        source = TokenSource(seed=77, total_tokens=60)
        trace_c = serve_request(other, tokenized(other), plan_table, calibrated_model, source)
        with pytest.raises(ProtocolError):
            run_session(req, tokenized(req), trace_c.frame, trace_c.delivery(), calibrated_model, source,
                        start_ms=0.0, frame_time_ms=trace_c.frame_time_ms)


class TestScrub:
    def test_empty_rule_list_is_identity(self):
        assert scrub("call 12345678901 now", rules=()) == "call 12345678901 now"

    def test_phone_rule(self):
        assert scrub("call 12345678901 now") == "call [PHONE] now"

    def test_idempotent(self):
        rules = (ScrubRule(r"\d{11}", "[PHONE]"), ScrubRule(r"secret\w*", "[REDACTED]"))
        text = "secret42 phone 98765432109 end"
        once = scrub(text, rules)
        assert scrub(once, rules) == once
