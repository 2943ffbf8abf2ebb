import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_from_text,
    reference_select_sentences,
    reference_sentence_order,
    reference_split_sentences,
    sentence_labels,
    synthetic_prompt,
    synthetic_texts,
)

from pdsim.refiner import (
    SelectionMask,
    TokenScores,
    TokenizedPrompt,
    max_pool_1d,
    refined_text,
    score_tokens,
    select_sentences,
    sentence_order,
    split_sentences,
    tokenize,
)


class TestTokenizer:
    def test_punctuation_separates(self):
        assert tokenize("Hello, world. Bye!") == ["Hello", ",", "world", ".", "Bye", "!"]

    def test_sentence_split_keeps_terminators(self):
        assert split_sentences("One. Two! Three?") == ["One.", " Two!", " Three?"]

    def test_newline_breaks_sentences(self):
        assert split_sentences("alpha beta\ngamma") == ["alpha beta\n", "gamma"]

    def test_whitespace_segments_dropped(self):
        assert split_sentences("First.   \n  Second.") == ["First.", "  Second."]

    def test_prompt_structure(self):
        prompt = TokenizedPrompt.from_text("sys", "Aa bb. Cc dd!", "q?")
        assert prompt == TokenizedPrompt(prefix_tokens=1, sentence_sizes=(3, 3), suffix_tokens=2)
        assert prompt.content_tokens == 6
        assert prompt.total_tokens == 9
        assert prompt.content_span == slice(1, 7)

    @pytest.mark.parametrize("sizes", [(0, 2), (-1, 3), (1.0, 1.0), (True, True), ("2",)],
                             ids=["zero", "negative", "float", "bool", "str"])
    def test_sentence_sizes_must_be_ints_of_at_least_one(self, sizes):
        with pytest.raises(ValueError, match="sentence sizes must"):
            TokenizedPrompt(prefix_tokens=0, sentence_sizes=sizes, suffix_tokens=0)

    @pytest.mark.parametrize("count", [-1, 1.0, True, "2", None], ids=["negative", "float", "bool", "str", "none"])
    @pytest.mark.parametrize("part", ["prefix_tokens", "suffix_tokens"])
    def test_prefix_and_suffix_counts_must_be_ints_of_at_least_zero(self, part, count):
        with pytest.raises(ValueError, match="prefix and suffix token counts must"):
            TokenizedPrompt(**{"prefix_tokens": 0, "sentence_sizes": (2,), "suffix_tokens": 0, part: count})


def brute_pool(xs, kernel):
    half = kernel // 2
    return [max(xs[max(0, i - half) : i + half + 1]) for i in range(len(xs))]


class TestScoreTokens:
    def test_identity_pooling_single_head(self):
        row = np.array([[0.1, 0.5, 0.2, 0.2]])
        scores = score_tokens([row], window=1, kernel=1, content_span=slice(0, 4))
        assert np.allclose(scores.scores, row[0])

    def test_kernel_three_spreads_spike(self):
        xs = [0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0]
        pooled = max_pool_1d(np.array(xs), 3)
        assert pooled.tolist() == brute_pool(xs, 3)
        assert pooled[2] == pooled[3] == pooled[4] == 9.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=40))
    @example([])
    @example([2.5])
    def test_pooling_matches_brute_force(self, xs):
        # every odd kernel, up to two past 2 * len(xs) + 1, which already reaches both ends
        for kernel in range(1, 2 * len(xs) + 4, 2):
            assert max_pool_1d(np.array(xs), kernel).tolist() == brute_pool(xs, kernel)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=300),
        # half-widths near the row, and far past it up to --kernel 4611686018427387905
        st.integers(0, 320) | st.integers(0, 2**62),
    )
    def test_pooling_by_doubling_matches_a_sliding_max(self, xs, half):
        assert max_pool_1d(np.array(xs), 2 * half + 1).tolist() == brute_pool(xs, 2 * half + 1)

    def test_two_heads_with_disjoint_spikes(self):
        a = np.zeros((1, 8))
        b = np.zeros((1, 8))
        a[0, 1] = 5.0
        b[0, 6] = 4.0
        scores = score_tokens([a, b], window=1, kernel=1, content_span=slice(0, 8))
        order = np.argsort(-scores.scores)
        assert set(order[:2]) == {1, 6}

    def test_heads_are_summed(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.5, 0.25]])
        assert score_tokens([a, b], window=1, kernel=1, content_span=slice(0, 2)).scores.tolist() == [1.5, 0.25]

    def test_only_trailing_window_rows_count(self):
        m = np.array([[100.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        scores = score_tokens([m], window=2, kernel=1, content_span=slice(0, 2))
        assert scores.scores.tolist() == [0.0, 2.0]

    def test_content_span_restriction(self):
        m = np.array([[1.0, 2.0, 3.0, 4.0]])
        scores = score_tokens([m], window=1, kernel=1, content_span=slice(1, 3))
        assert scores.scores.tolist() == [2.0, 3.0]

    def test_empty_head_list_rejected(self):
        with pytest.raises(ValueError):
            score_tokens([], window=1, kernel=1, content_span=slice(0, 0))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: TokenScores(np.array([1.0, math.nan])), "finite 1-D"),
            (lambda: TokenScores(np.ones((2, 2))), "finite 1-D"),
            (lambda: score_tokens([np.ones((1, 2))], window=0, kernel=1, content_span=slice(0, 2)), "window must be >= 1"),
            (lambda: score_tokens([np.ones((1, 2)), np.ones((1, 3))], window=1, kernel=1, content_span=slice(0, 2)),
             "share the key dimension"),
        ],
        ids=["nan-score", "2d-scores", "window-zero", "heads-of-different-key-counts"],
    )
    def test_malformed_scores_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            max_pool_1d(np.ones(4), 2)


def equal_sentence_texts(n_sentences, tokens_per_sentence=5):
    content = " ".join(
        " ".join(f"s{i}w{j}" for j in range(tokens_per_sentence - 1)) + "." for i in range(n_sentences)
    )
    return "pre", content, "suf"


def equal_sentence_prompt(scores_by_sentence, tokens_per_sentence=5):
    prompt = TokenizedPrompt.from_text(*equal_sentence_texts(len(scores_by_sentence), tokens_per_sentence))
    per_token = []
    for sid, value in enumerate(scores_by_sentence):
        per_token.extend([float(value)] * tokens_per_sentence)
    return prompt, TokenScores(np.array(per_token))


class TestSelectSentences:
    def test_full_ratio_keeps_everything(self):
        prompt, scores = equal_sentence_prompt([9, 1, 5, 3])
        mask = select_sentences(prompt, scores, 1.0)
        assert mask.popcount() == prompt.total_tokens

    def test_greedy_picks_highest_mean_sentences(self):
        prompt, scores = equal_sentence_prompt([9, 1, 5, 3])
        mask = select_sentences(prompt, scores, 0.5)
        span = prompt.content_span
        ids = sentence_labels(prompt)
        kept = {int(s) for s in ids[mask.bits[span] == 1]}
        assert kept == {0, 2}
        prefix, content, suffix = equal_sentence_texts(4)
        kept_tokens = [t for t, sid in zip(tokenize(content), ids) if sid in (0, 2)]
        assert refined_text(prefix, content, suffix, mask) == ["pre"] + kept_tokens + ["suf"]

    def test_matches_best_subset_for_equal_lengths(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 12)
            sentence_scores = [rng.random() for _ in range(n)]
            prompt, scores = equal_sentence_prompt(sentence_scores)
            ratio = rng.randint(1, 100) / 100.0
            mask = select_sentences(prompt, scores, ratio)
            ids = sentence_labels(prompt)
            span = prompt.content_span
            kept = {int(s) for s in ids[mask.bits[span] == 1]}
            budget = math.ceil(ratio * prompt.content_tokens)
            per_sentence = prompt.content_tokens // n
            best = None
            for size in range(n + 1):
                if size * per_sentence >= budget:
                    best = max(
                        sum(sentence_scores[i] for i in combo)
                        for combo in itertools.combinations(range(n), size)
                    )
                    break
            got = sum(sentence_scores[i] for i in kept)
            assert got == pytest.approx(best)

    def test_budget_and_whole_sentence_properties(self):
        rng = random.Random(6)
        for _ in range(100):
            prompt = synthetic_prompt(rng, n_sentences=rng.randint(1, 20))
            scores = TokenScores(np.array([rng.random() for _ in range(prompt.content_tokens)]))
            ratio = rng.randint(1, 100) / 100.0
            mask = select_sentences(prompt, scores, ratio)
            span = prompt.content_span
            ids = sentence_labels(prompt)
            content_bits = mask.bits[span]
            # prefix/suffix always kept
            assert mask.bits[: span.start].all() and mask.bits[span.stop :].all()
            # no partially selected sentence
            for sid in set(ids.tolist()):
                sentence_bits = content_bits[ids == sid]
                assert sentence_bits.all() or not sentence_bits.any()
            # selected count lands in [budget, budget + longest sentence)
            budget = math.ceil(ratio * prompt.content_tokens)
            longest = max(np.bincount(ids))
            selected = int(content_bits.sum())
            assert budget <= selected < budget + longest

    def test_selection_nests_as_ratio_grows(self):
        rng = random.Random(7)
        for _ in range(50):
            prompt = synthetic_prompt(rng, n_sentences=rng.randint(2, 15))
            scores = TokenScores(np.array([rng.random() for _ in range(prompt.content_tokens)]))
            r1, r2 = sorted((rng.randint(1, 100) / 100.0, rng.randint(1, 100) / 100.0))
            small = select_sentences(prompt, scores, r1)
            large = select_sentences(prompt, scores, r2)
            assert np.all(small.bits <= large.bits)

    def test_empty_content_yields_all_ones(self):
        prompt = TokenizedPrompt.from_text("pre", "", "suf only")
        mask = select_sentences(prompt, TokenScores(np.array([])), 0.3)
        assert mask.popcount() == prompt.total_tokens

    def test_ratio_domain(self):
        prompt, scores = equal_sentence_prompt([1, 2])
        with pytest.raises(ValueError):
            select_sentences(prompt, scores, 0.0)

    def test_score_length_mismatch(self):
        prompt, _ = equal_sentence_prompt([1, 2])
        with pytest.raises(ValueError):
            select_sentences(prompt, TokenScores(np.array([1.0])), 0.5)


class TestRefinedText:
    def test_identity_mask(self):
        texts = ("a b", "c d. e f!", "g")
        mask = SelectionMask(np.ones(TokenizedPrompt.from_text(*texts).total_tokens, dtype=np.uint8))
        assert refined_text(*texts, mask) == ["a", "b", "c", "d", ".", "e", "f", "!", "g"]
        assert refined_text(*texts, mask) == tokenize("a b") + tokenize("c d. e f!") + tokenize("g")

    def test_applies_the_mask_token_by_token(self):
        texts = ("a b", "c d. e f!", "g")
        bits = np.array([1, 1, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
        assert refined_text(*texts, SelectionMask(bits)) == ["a", "b", "e", "f", "!", "g"]

    def test_device_side_reconstruction_matches(self):
        rng = random.Random(8)
        for _ in range(25):
            texts = synthetic_texts(rng, n_sentences=rng.randint(2, 10))
            prompt_cloud = TokenizedPrompt.from_text(*texts)
            scores = TokenScores(np.array([rng.random() for _ in range(prompt_cloud.content_tokens)]))
            mask = select_sentences(prompt_cloud, scores, 0.4)
            # tokenizing the text re-joined from its tokens yields the same prompt
            rejoined = tuple(" ".join(tokenize(text)) for text in texts)
            prompt_device = TokenizedPrompt.from_text(*rejoined)
            assert prompt_device == prompt_cloud
            assert refined_text(*rejoined, mask) == refined_text(*texts, mask)
            ids = sentence_labels(prompt_cloud)
            kept = set(ids[mask.bits[prompt_cloud.content_span] == 1].tolist())
            body = [t for t, sid in zip(tokenize(texts[1]), ids) if sid in kept]
            assert refined_text(*texts, mask) == tokenize(texts[0]) + body + tokenize(texts[2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask length 3 != prompt length 5"):
            refined_text("a", "b c.", "d", SelectionMask(np.ones(3, dtype=np.uint8)))

    @pytest.mark.parametrize("dropped", [0, 4], ids=["prefix", "suffix"])
    def test_dropped_prefix_or_suffix_bit_rejected(self, dropped):
        bits = np.ones(5, dtype=np.uint8)
        bits[dropped] = 0
        with pytest.raises(ValueError, match="prefix and suffix"):
            refined_text("a", "b c.", "d", SelectionMask(bits))


class TestSelectionMask:
    @pytest.mark.parametrize("bits", [
        [0.5, 1.0],  # fractional: the uint8 cast would truncate 0.5 to 0
        [1.9],  # the cast would truncate it to 1
        [2],
        [256],  # the cast would wrap it to 0
        [-1],  # the cast would wrap it to 255
        np.array([0, 3], dtype=np.int64),
        np.array([2], dtype=np.uint8),
        [float("nan")],
        ["1"],
        [[0, 1]],
        1,
    ])
    def test_rejected_bits(self, bits):
        with pytest.raises(ValueError):
            SelectionMask(bits)

    @pytest.mark.parametrize("bits, expected", [
        ([], []),  # numpy reads the empty list as float64
        ([0, 1, 1], [0, 1, 1]),
        ([True, False], [1, 0]),
        (np.array([1, 0], dtype=np.int64), [1, 0]),
        (np.array([False, True]), [0, 1]),
        ([0.0, 1.0], [0, 1]),
    ])
    def test_accepted_bits(self, bits, expected):
        mask = SelectionMask(bits)
        assert mask.bits.dtype == np.uint8
        assert mask.bits.tolist() == expected

    def test_uint8_bits_are_not_copied(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert SelectionMask(bits).bits is bits


# --- equivalence with the loop references in helpers ---------------------------

_PIECES = ["alpha", "b2", "w1234", "Ünï", "_x", " ", "   ", "\t", ",", ";", ":", ".", "!", "?", "\n", "\n\n\n", "..."]
# characters at the edges of the tokenizer's classes: digits, numerics and
# combining marks that \w takes, '_', and whitespace beyond ASCII that \s takes
_PIECES += ["²", "½", "٣", "e\u0301", "_", "a_b.", "\xa0", "\x85", "\x1c", "\u2028", "\u3000"]
prompt_text = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
    st.text(alphabet="ab1 \t,;:.!?\n", max_size=80),
    st.text(max_size=80),
)


@st.composite
def scored_prompts(draw):
    """A tokenized prompt with scores; half the draws force ties with exact per-sentence values."""
    prompt = TokenizedPrompt.from_text("sys tokens", draw(prompt_text), "q ?")
    if draw(st.booleans()):
        n_sentences = len(prompt.sentence_sizes)
        levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n_sentences, max_size=n_sentences))
        values = [levels[sid] for sid in sentence_labels(prompt).tolist()]
    else:
        n = prompt.content_tokens
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return prompt, TokenScores(np.array(values, dtype=np.float64))


class TestMatchesLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(prompt_text)
    def test_split_sentences(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    @settings(max_examples=1000, deadline=None)
    @given(prompt_text, prompt_text, prompt_text)
    def test_from_text(self, prefix, content, suffix):
        prompt = TokenizedPrompt.from_text(prefix, content, suffix)
        ref_prefix, ref_content, ref_ids, ref_suffix = reference_from_text(prefix, content, suffix)
        assert (prompt.prefix_tokens, prompt.content_tokens, prompt.suffix_tokens) == (
            len(ref_prefix), len(ref_content), len(ref_suffix)
        )
        assert tuple(sentence_labels(prompt).tolist()) == ref_ids

    @settings(max_examples=200, deadline=None)
    @given(scored_prompts(), st.floats(0.0, 1.0, exclude_min=True))
    @example((TokenizedPrompt.from_text("sys tokens", "Aa bb. Cc dd ee! Ff", "q ?"),
              TokenScores(np.array([0.5, 0.25, 0.0, 1.0, 0.5, 0.0, 0.75, 0.25]))), 1.0)
    @example((TokenizedPrompt.from_text("sys tokens", " \n ", "q ?"), TokenScores(np.array([]))), 0.5)
    def test_sentence_order_and_selection(self, scored, ratio):
        prompt, scores = scored
        assert sentence_order(prompt, scores) == reference_sentence_order(prompt, scores)
        got = select_sentences(prompt, scores, ratio)
        assert np.array_equal(got.bits, reference_select_sentences(prompt, scores, ratio).bits)
