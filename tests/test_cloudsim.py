import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import Session, reference_run_throughput, reference_uniform_scores, serve_at

from pdsim.cloudsim import (
    EOT_TOKEN,
    BatchModel,
    MtStream,
    TokenSource,
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


# one draw, by name and argument (the sizes of the bulk draws cross the 4,096-word refill)
_DRAWS = st.one_of(
    st.tuples(st.sampled_from(["random", "randint", "choices", "expovariate", "randrange"]), st.none()),
    st.tuples(st.just("getrandbits"), st.integers(0, 96)),
    st.tuples(st.sampled_from(["uniform", "peek"]), st.integers(0, 2500) | st.integers(4000, 5000)),
)


def draw(rng: random.Random, name: str, k: int | None):
    """One draw from ``rng``: an ``MtStream`` makes the bulk ones in bulk, a ``random.Random`` one output at a time."""
    bulk = isinstance(rng, MtStream)
    if name == "random":
        return rng.random()
    if name == "getrandbits":
        return rng.getrandbits(k)
    if name == "randint":
        return rng.randint(60, 320)
    if name == "choices":
        return rng.choices(["chat", "summary", "code"], [0.5, 0.3, 0.2])[0]
    if name == "expovariate":
        return rng.expovariate(0.002)
    if name == "randrange":
        return rng.randrange(1 << 32)
    if name == "uniform":
        return rng.uniform(k).tolist() if bulk else [rng.random() for _ in range(k)]
    assert name == "peek"
    if not bulk:
        return [rng.getrandbits(32) for _ in range(k)]
    words = rng.peek(k).tolist()
    rng.skip(k)
    return words


class TestMtStream:
    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=12), st.lists(_DRAWS, max_size=20))
    # draws that start at or cross the second twist (624 outputs in) and the third (1,248)
    @example("1:workload", [("peek", 623), ("random", None), ("getrandbits", 95)])
    @example("1:workload", [("peek", 624), ("getrandbits", 64), ("uniform", 2)])
    @example("scores:1:req-0000", [("uniform", 623), ("getrandbits", 96), ("randrange", None)])
    @example("", [("peek", 1247), ("random", None), ("peek", 1247), ("getrandbits", 96)])
    # a draw across the refill: 1, 2 or 0 outputs left of the first 4,096
    @example("0", [("peek", 4095), ("random", None)])
    @example("0", [("uniform", 2047), ("getrandbits", 96), ("peek", 4094), ("getrandbits", 33)])
    @example("0", [("peek", 4096), ("uniform", 2048), ("peek", 5000), ("expovariate", None)])
    def test_each_draw_equals_that_of_random_random(self, seed, draws):
        stream, ref = MtStream(seed), random.Random(seed)
        for name, k in draws:
            assert draw(stream, name, k) == draw(ref, name, k), (name, k)
        assert stream.getrandbits(32) == ref.getrandbits(32)

    def test_has_no_random_random_state(self):
        stream = MtStream("1")
        with pytest.raises(TypeError):
            stream.seed("2")
        with pytest.raises(TypeError):
            stream.getstate()
        with pytest.raises(TypeError):
            stream.setstate(random.Random("1").getstate())

    @pytest.mark.parametrize("lead", [0, 1, 623, 4095])  # outputs skipped first; at 4,095 the peek refills
    @pytest.mark.parametrize(
        "size, pos",
        [
            (4096, 1),
            (4096, 1247),  # pos one short of, at, and past the twist 1,248 outputs in
            (4096, 1248),
            (4096, 2000),
            (2010, 2000),  # the block ends just past pos
            (1248, 1248),  # the block ends where pos does
            (1249, 1248),
        ],
    )
    def test_peek_then_skip_leaves_the_stream_at_pos(self, lead, size, pos):
        # _draw_prompt peeks a block of ``size`` outputs, then skips the ``pos`` it consumed
        stream, ref = MtStream("7"), random.Random("7")
        outputs = [ref.getrandbits(32) for _ in range(lead + max(size, pos + 1300))]
        stream.skip(lead)
        assert stream.peek(size).tolist() == outputs[lead:lead + size]
        stream.skip(pos)
        assert stream.peek(1300).tolist() == outputs[lead + pos:lead + pos + 1300]


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
