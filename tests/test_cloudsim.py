import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_run_throughput, reference_uniform_scores, tokenized

from pdsim.cloudsim import (
    EOT_TOKEN,
    BatchModel,
    TokenSource,
    run_throughput,
    serve_request,
    uniform_scores,
)
from pdsim.planner import PlanConstraints, build_plan_table
from pdsim.protocol import DONE, AssistRequest, SseDecoder
from pdsim.refiner import TokenizedPrompt


def make_request(content_sentences: int = 40, words: int = 9, scene: str = "doc_qa") -> AssistRequest:
    content = " ".join(
        " ".join(f"w{s}x{w}" for w in range(words)) + "." for s in range(content_sentences)
    )
    return AssistRequest(
        scene=scene,
        model_version_label="base-v1",
        device_class="phone",
        prefix="setup tokens here",
        content=content,
        suffix="what happened ?",
        request_id="req-1",
    )


class TestTokenSource:
    def test_deterministic_and_eot_at_end(self):
        source = TokenSource(seed=9, total_tokens=6)
        again = TokenSource(seed=9, total_tokens=6)
        tokens = [source.token_at(i) for i in range(1, 7)]
        assert tokens == [again.token_at(i) for i in range(1, 7)]
        assert tokens[-1] == EOT_TOKEN
        assert EOT_TOKEN not in tokens[:-1]

    def test_divergence_changes_only_listed_positions(self):
        base = TokenSource(seed=9, total_tokens=10)
        diverged = TokenSource(seed=9, total_tokens=10, divergence=frozenset({4}))
        for position in range(1, 10):
            if position == 4:
                assert diverged.token_at(position) != base.token_at(position)
            else:
                assert diverged.token_at(position) == base.token_at(position)

    def test_one_generator_per_salt(self, monkeypatch):
        seeded = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                seeded.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", CountingRandom)
        source = TokenSource(seed=9, total_tokens=8, divergence=frozenset({3}))
        first = [source.token_at(p) for p in range(1, 9)]
        for _ in range(3):
            assert [source.token_at(p) for p in range(8, 0, -1)] == first[::-1]
        assert sorted(seeded) == ["9:alt", "9:tok"]
        # the cache is invisible to equality and hashing
        fresh = TokenSource(seed=9, total_tokens=8, divergence=frozenset({3}))
        assert source == fresh and hash(source) == hash(fresh)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 400),
        st.data(),
    )
    def test_same_seed_sources_differ_exactly_on_the_divergence_set(self, seed, total, data):
        divergence = data.draw(st.frozensets(st.integers(1, total + 5), max_size=12))
        base = TokenSource(seed=seed, total_tokens=total)
        diverged = TokenSource(seed=seed, total_tokens=total, divergence=divergence)
        for position in range(1, total + 1):
            same = diverged.token_at(position) == base.token_at(position)
            assert same == (position not in divergence or position == total), position

    def test_position_bounds(self):
        source = TokenSource(seed=1, total_tokens=3)
        with pytest.raises(ValueError):
            source.token_at(0)
        with pytest.raises(ValueError):
            source.token_at(4)
        with pytest.raises(ValueError):
            TokenSource(seed=1, total_tokens=0)


class TestUniformScores:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5000), st.one_of(st.integers(), st.text(max_size=12)))
    @example(0, "req-0000")
    @example(1, "req-0000")
    def test_bit_equal_to_the_draw_loop(self, n, seed):
        prompt = TokenizedPrompt(prefix=(), content=("w",) * n, sentence_ids=(0,) * n, suffix=("?",))
        got = uniform_scores(prompt, seed).scores
        want = reference_uniform_scores(prompt, seed).scores
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestServeRequest:
    def test_budget_cuts_stream_and_slot(self, calibrated_model):
        req = make_request()
        source = TokenSource(seed=3, total_tokens=500)
        trace = serve_request(
            req, tokenized(req), None, calibrated_model, source,
            ratio_override=0.5, max_tokens_override=21,
        )
        record = trace.record
        assert len(trace.events) == 20
        assert record.tokens_emitted == 21
        assert trace.events[-1][1].terminal
        assert record.occupancy_ms == pytest.approx(record.ttft_cloud_ms + 20 * calibrated_model.tpot_cloud)
        assert trace.done_time_ms == pytest.approx(record.slot_released_at_ms)
        # events tick at the cloud decode pace
        for j, (when, event) in enumerate(trace.events, start=1):
            assert event.index == j
            assert when == pytest.approx(trace.frame_time_ms + j * calibrated_model.tpot_cloud)

    def test_natural_finish_before_budget(self, calibrated_model):
        req = make_request()
        source = TokenSource(seed=3, total_tokens=3)
        trace = serve_request(req, tokenized(req), None, calibrated_model, source, ratio_override=0.5, max_tokens_override=21)
        assert len(trace.events) == 2
        assert trace.record.tokens_emitted == 3
        assert trace.events[-1][1].token == EOT_TOKEN

    def test_planning_miss_streams_until_eot(self, calibrated_model):
        req = make_request(scene="unplanned")
        table = build_plan_table({"phone": calibrated_model}, {"doc_qa": PlanConstraints(0.25, 100.0)}, (8000,))
        source = TokenSource(seed=4, total_tokens=40)
        trace = serve_request(req, tokenized(req), table, calibrated_model, source)
        assert trace.record.planning_miss
        assert trace.record.ratio == 1.0
        assert trace.frame.max_tokens == 0
        assert len(trace.events) == 39

    def test_planned_request_uses_table(self, calibrated_model):
        req = make_request()
        table = build_plan_table({"phone": calibrated_model}, {"doc_qa": PlanConstraints(0.25, 100.0)}, (8000,))
        prompt = tokenized(req)
        plan = table.lookup("doc_qa", "phone", prompt.total_tokens)
        source = TokenSource(seed=5, total_tokens=500)
        trace = serve_request(req, prompt, table, calibrated_model, source)
        assert not trace.record.planning_miss
        assert trace.record.ratio == plan.ratio
        assert trace.frame.max_tokens == plan.max_tokens
        assert trace.record.tokens_emitted == plan.max_tokens
        assert trace.frame.mask.bit_length == prompt.total_tokens

    def test_wire_bytes_decode_to_one_frame_then_events_then_done(self, calibrated_model):
        req = make_request()
        source = TokenSource(seed=6, total_tokens=100)
        trace = serve_request(req, tokenized(req), None, calibrated_model, source, ratio_override=0.5, max_tokens_override=12)
        items = SseDecoder().feed(trace.wire_bytes())
        assert items[0] == trace.frame
        assert len(items) == 1 + 11 + 1
        assert items[-1] is DONE

    def test_determinism(self, calibrated_model):
        req = make_request()
        source = TokenSource(seed=7, total_tokens=64)
        a = serve_request(req, tokenized(req), None, calibrated_model, source, ratio_override=0.5, max_tokens_override=9)
        b = serve_request(req, tokenized(req), None, calibrated_model, source, ratio_override=0.5, max_tokens_override=9)
        assert a.wire_bytes() == b.wire_bytes()
        assert a.events == b.events

    def test_rtt_sample_shifts_first_frame(self, calibrated_model):
        req = make_request()
        source = TokenSource(seed=8, total_tokens=30)
        base = serve_request(req, tokenized(req), None, calibrated_model, source, rtt_ms=50.0, ratio_override=1.0, max_tokens_override=5)
        slow = serve_request(req, tokenized(req), None, calibrated_model, source, rtt_ms=150.0, ratio_override=1.0, max_tokens_override=5)
        assert slow.frame_time_ms - base.frame_time_ms == pytest.approx(100.0)


class TestThroughput:
    def test_single_slot_single_occupancy(self):
        result = run_throughput(BatchModel(slots=1), [2000.0], completions=50)
        assert result.tps == pytest.approx(1000.0 / 2000.0)
        assert result.tps == pytest.approx(result.analytic_tps)

    def test_closed_loop_matches_analytic_rate(self):
        result = run_throughput(BatchModel(slots=64), [1100.0], completions=1024)
        assert result.tps == pytest.approx(result.analytic_tps, rel=0.02)

    def test_ratio_between_two_budgets(self):
        short = run_throughput(BatchModel(slots=64), [1100.0], completions=1024)
        long = run_throughput(BatchModel(slots=64), [6500.0], completions=1024)
        assert short.tps / long.tps == pytest.approx(6500.0 / 1100.0, rel=0.02)

    def test_mixed_occupancies(self):
        rng = random.Random(0)
        occupancies = [rng.uniform(500.0, 4000.0) for _ in range(200)]
        result = run_throughput(BatchModel(slots=16), occupancies, completions=3200)
        assert result.tps == pytest.approx(result.analytic_tps, rel=0.05)

    def test_poisson_underload_matches_arrival_rate(self):
        batch = BatchModel(slots=64, mode="poisson", arrival_rate_per_s=20.0)
        result = run_throughput(batch, [1000.0], completions=2000, seed=1)
        assert result.tps == pytest.approx(20.0, rel=0.1)

    # whole-millisecond occupancies make completion ties, and so tie-breaks, common
    occupancy = st.one_of(st.floats(0.5, 5000.0), st.sampled_from([1.0, 2.0, 3.0, 250.0, 1000.0]))

    @given(
        slots=st.integers(1, 12),
        occupancies=st.lists(occupancy, min_size=1, max_size=24),
        completions=st.integers(1, 300),
        seed=st.integers(0, 2**32),
        rate=st.one_of(st.none(), st.floats(0.05, 2000.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_the_reference_simulator(self, slots, occupancies, completions, seed, rate):
        batch = BatchModel(slots=slots) if rate is None else BatchModel(slots, "poisson", rate)
        result = run_throughput(batch, occupancies, completions, seed=seed)
        expected = reference_run_throughput(batch, occupancies, completions, seed=seed)
        assert (result.tps, result.analytic_tps) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_throughput(BatchModel(slots=1), [], completions=10)
        with pytest.raises(ValueError):
            run_throughput(BatchModel(slots=1), [0.0], completions=10)
        with pytest.raises(ValueError):
            BatchModel(slots=0)
        with pytest.raises(ValueError):
            BatchModel(slots=1, mode="poisson")
