import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import Session, reference_run_throughput, reference_uniform_scores, serve_at

from pdsim.cloudsim import (
    EOT_TOKEN,
    BatchModel,
    TokenSource,
    mt_uniform,
    refine,
    run_throughput,
    serve_request,
    uniform_scores,
)
from pdsim.maskcodec import pack
from pdsim.refiner import TokenizedPrompt, select_sentences
from pdsim.timing import ttft_cloud


def make_prompt(content_sentences: int = 40, words: int = 9) -> TokenizedPrompt:
    """A 3-token prefix, ``content_sentences`` sentences of ``words`` words and a '.', and a 3-token suffix."""
    return TokenizedPrompt(3, (words + 1,) * content_sentences, 3)


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

    def test_identity_tokens_without_a_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("token_at built a random.Random")

        monkeypatch.setattr(random, "Random", no_generator)
        source = TokenSource(seed=9, total_tokens=8, divergence=frozenset({3, 8}))
        assert [source.token_at(p) for p in range(1, 9)] == [
            "tok1", "tok2", "alt3", "tok4", "tok5", "tok6", "tok7", EOT_TOKEN,
        ]
        # the seed names the stream: it is part of equality and hashing
        fresh = TokenSource(seed=9, total_tokens=8, divergence=frozenset({3, 8}))
        assert source == fresh and hash(source) == hash(fresh)
        assert source != TokenSource(seed=10, total_tokens=8, divergence=frozenset({3, 8}))

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
        prompt = TokenizedPrompt(prefix_tokens=0, sentence_sizes=(n,) if n else (), suffix_tokens=1)
        got = uniform_scores(prompt, seed).scores
        want = reference_uniform_scores(prompt, seed).scores
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMtUniform:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 3000) | st.integers(0, 3), st.floats(0.0, 1.0))
    @example(0, 2, 0.5)  # positions 2..n-1: nothing to draw
    def test_bit_equal_to_random_calls(self, seed, n, rate):
        rng, ref = random.Random(seed), random.Random(seed)
        got = mt_uniform(rng, max(n - 2, 0))
        want = [ref.random() for _ in range(2, n)]
        assert got.tolist() == want
        # the divergence set generate_workload draws from it
        assert set((np.flatnonzero(got < rate) + 2).tolist()) == {p for p, u in enumerate(want, 2) if u < rate}
        assert rng.randrange(1 << 32) == ref.randrange(1 << 32)


class TestServeRequest:
    def test_budget_cuts_stream_and_slot(self, calibrated_model):
        source = TokenSource(seed=3, total_tokens=500)
        trace = serve_at(make_prompt(), calibrated_model, source, 0.5, 21)
        assert len(trace.events) == 20
        assert trace.frame.max_tokens == 21
        # served from 0 ms, the first token leaves at the cloud TTFT
        assert trace.occupancy_ms == pytest.approx(trace.frame_time_ms + 20 * calibrated_model.tpot_cloud)
        # the slot frees at start + occupancy, the DONE marker
        assert trace.done_time_ms == pytest.approx(trace.occupancy_ms)
        # events tick at the cloud decode pace
        for j, (when, event) in enumerate(trace.events, start=1):
            assert event.index == j
            assert when == pytest.approx(trace.frame_time_ms + j * calibrated_model.tpot_cloud)

    def test_natural_finish_before_budget(self, calibrated_model):
        trace = serve_at(make_prompt(), calibrated_model, TokenSource(seed=3, total_tokens=3), 0.5, 21)
        assert len(trace.events) == 2
        assert trace.events[-1][1].token == EOT_TOKEN

    def test_budget_below_one_is_rejected(self, calibrated_model):
        # the wire contract is L >= 1: no budget streams until EOT
        with pytest.raises(ValueError, match="max_tokens"):
            serve_at(make_prompt(), calibrated_model, TokenSource(seed=4, total_tokens=40), 1.0, 0)

    def test_served_at_the_given_point(self, calibrated_model):
        prompt = make_prompt()
        scores = uniform_scores(prompt, "other")
        mask = refine(prompt, scores, 0.25)
        assert mask == pack(select_sentences(prompt, scores, 0.25))
        trace = serve_request(Session("req-1", prompt, 100.0), calibrated_model, TokenSource(seed=5, total_tokens=500),
                              mask, max_tokens=7, rtt_ms=80.0)
        assert trace.frame.max_tokens == 7 and len(trace.events) == 6
        assert trace.frame.mask is mask
        ttft = ttft_cloud(calibrated_model, prompt.total_tokens, 80.0)
        assert trace.frame_time_ms == pytest.approx(100.0 + ttft)

    def test_determinism(self, calibrated_model):
        source = TokenSource(seed=7, total_tokens=64)
        a = serve_at(make_prompt(), calibrated_model, source, 0.5, 9)
        b = serve_at(make_prompt(), calibrated_model, source, 0.5, 9)
        assert a == b

    def test_rtt_sample_shifts_first_frame(self, calibrated_model):
        source = TokenSource(seed=8, total_tokens=30)
        base = serve_at(make_prompt(), calibrated_model, source, 1.0, 5, rtt_ms=50.0)
        slow = serve_at(make_prompt(), calibrated_model, source, 1.0, 5, rtt_ms=150.0)
        assert slow.frame_time_ms - base.frame_time_ms == pytest.approx(100.0)


class TestThroughput:
    def test_single_slot_single_occupancy(self):
        result = run_throughput(BatchModel(slots=1, completions=50), [2000.0])
        assert result.tps == pytest.approx(1000.0 / 2000.0)
        assert result.tps == pytest.approx(result.analytic_tps)

    def test_closed_loop_matches_analytic_rate(self):
        result = run_throughput(BatchModel(slots=64, completions=1024), [1100.0])
        assert result.tps == pytest.approx(result.analytic_tps, rel=0.02)

    def test_ratio_between_two_budgets(self):
        short = run_throughput(BatchModel(slots=64, completions=1024), [1100.0])
        long = run_throughput(BatchModel(slots=64, completions=1024), [6500.0])
        assert short.tps / long.tps == pytest.approx(6500.0 / 1100.0, rel=0.02)

    def test_mixed_occupancies(self):
        rng = random.Random(0)
        occupancies = [rng.uniform(500.0, 4000.0) for _ in range(200)]
        result = run_throughput(BatchModel(slots=16, completions=3200), occupancies)
        assert result.tps == pytest.approx(result.analytic_tps, rel=0.05)

    def test_poisson_underload_matches_arrival_rate(self):
        batch = BatchModel(slots=64, mode="poisson", arrival_rate_per_s=20.0, completions=2000)
        result = run_throughput(batch, [1000.0], seed=1)
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
        batch = BatchModel(slots, completions=completions)
        if rate is not None:
            batch = BatchModel(slots, "poisson", rate, completions)
        result = run_throughput(batch, occupancies, seed=seed)
        expected = reference_run_throughput(batch, occupancies, seed=seed)
        assert (result.tps, result.analytic_tps) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_throughput(BatchModel(slots=1, completions=10), [])
        with pytest.raises(ValueError):
            run_throughput(BatchModel(slots=1, completions=10), [0.0])
        with pytest.raises(ValueError):
            BatchModel(slots=0)
        with pytest.raises(ValueError, match="completions must be >= 1"):
            BatchModel(slots=1, completions=0)
        with pytest.raises(ValueError):
            BatchModel(slots=1, mode="poisson")
