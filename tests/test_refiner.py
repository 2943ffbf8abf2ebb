import itertools
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_from_text,
    reference_select_sentences,
    reference_sentence_order,
    reference_split_sentences,
    synthetic_prompt,
)

from pdsim.refiner import (
    AttentionInputs,
    SelectionMask,
    TokenScores,
    TokenizedPrompt,
    attention_weights,
    max_pool_1d,
    refined_text,
    score_tokens,
    select_sentences,
    sentence_order,
    split_sentences,
    tokenize,
)


def brute_force_attention(q, k, v, hidden):
    """Dense reference: explicit loops, no vectorized shortcuts."""
    w = [[0.0] * len(k) for _ in range(len(q))]
    for i, row in enumerate(q):
        logits = [sum(a * b for a, b in zip(row, key)) / math.sqrt(hidden) for key in k]
        peak = max(logits)
        exps = [math.exp(x - peak) for x in logits]
        total = sum(exps)
        w[i] = [x / total for x in exps]
    out = None
    if v is not None:
        out = [[sum(w[i][j] * v[j][d] for j in range(len(k))) for d in range(len(v[0]))] for i in range(len(q))]
    return w, out


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
        assert prompt.prefix == ("sys",)
        assert prompt.suffix == ("q", "?")
        assert prompt.content == ("Aa", "bb", ".", "Cc", "dd", "!")
        assert prompt.sentence_ids == (0, 0, 0, 1, 1, 1)
        assert prompt.total_tokens == 9

    def test_regex_classes_match_str_methods_on_every_code_point(self):
        # from_text takes an isalnum() chunk between str.split() separators as one
        # \w+ token; that is exact only while re and str share their Unicode tables
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\w", text)) == {c for c in text if c.isalnum() or c == "_"}
        assert set(re.findall(r"\s", text)) == set(text) - set("".join(text.split()))

    @pytest.mark.parametrize("sizes", [(0, 2), (-1, 3), (1,), (2, 1), (1.0, 1.0), (True, True), ("2",)],
                             ids=["zero", "negative", "short-sum", "long-sum", "float", "bool", "str"])
    def test_sentence_sizes_must_be_ints_of_at_least_one_summing_to_the_content(self, sizes):
        with pytest.raises(ValueError, match="sentence sizes must"):
            TokenizedPrompt(prefix=(), content=("a", "b"), sentence_sizes=sizes, suffix=())


class TestAttentionWeights:
    def test_matching_key_dominates(self):
        k = np.eye(3)
        q = np.array([[50.0, 0.0, 0.0]])
        weights, _ = attention_weights(AttentionInputs(q_window=q, k_full=k, hidden_size=3))
        expected, _ = brute_force_attention(q.tolist(), k.tolist(), None, 3)
        assert np.allclose(weights, expected, atol=1e-12)
        assert weights[0, 0] > 0.999

    def test_zero_query_is_uniform(self):
        rng = np.random.default_rng(0)
        k = rng.normal(size=(7, 4))
        weights, _ = attention_weights(AttentionInputs(q_window=np.zeros((2, 4)), k_full=k, hidden_size=4))
        assert np.allclose(weights, 1.0 / 7.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(3, 8))
        k = rng.normal(size=(10, 8))
        base, _ = attention_weights(AttentionInputs(q_window=q, k_full=k, hidden_size=8))
        c = 2.0
        scaled, _ = attention_weights(AttentionInputs(q_window=c * q, k_full=c * k, hidden_size=int(c**4 * 8)))
        assert np.allclose(base, scaled, atol=1e-12)

    def test_rows_sum_to_one_and_match_brute_force_with_values(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            w_rows = rng.integers(1, 17)
            keys = rng.integers(int(w_rows), 17)
            dim = rng.integers(1, 17)
            q = rng.normal(size=(w_rows, dim))
            k = rng.normal(size=(keys, dim))
            v = rng.normal(size=(keys, dim))
            weights, out = attention_weights(AttentionInputs(q_window=q, k_full=k, v_full=v, hidden_size=int(dim)))
            assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)
            ref_w, ref_out = brute_force_attention(q.tolist(), k.tolist(), v.tolist(), int(dim))
            assert np.allclose(weights, ref_w, atol=1e-9)
            assert np.allclose(out, ref_out, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AttentionInputs(q_window=np.zeros((2, 3)), k_full=np.zeros((4, 5)), hidden_size=3)
        with pytest.raises(ValueError):
            AttentionInputs(q_window=np.zeros((5, 3)), k_full=np.zeros((4, 3)), hidden_size=3)

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            AttentionInputs(q_window=bad, k_full=np.zeros((2, 2)), hidden_size=2)


class TestScoreTokens:
    def brute_pool(self, xs, kernel):
        half = kernel // 2
        return [max(xs[max(0, i - half) : i + half + 1]) for i in range(len(xs))]

    def test_identity_pooling_single_head(self):
        row = np.array([[0.1, 0.5, 0.2, 0.2]])
        scores = score_tokens([row], window=1, kernel=1)
        assert np.allclose(scores.scores, row[0])

    def test_kernel_three_spreads_spike(self):
        xs = [0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0]
        pooled = max_pool_1d(np.array(xs), 3)
        assert pooled.tolist() == self.brute_pool(xs, 3)
        assert pooled[2] == pooled[3] == pooled[4] == 9.0

    def test_pooling_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(50):
            xs = [rng.random() for _ in range(rng.randint(1, 40))]
            kernel = rng.choice([1, 3, 5, 7, 9])
            assert max_pool_1d(np.array(xs), kernel).tolist() == pytest.approx(self.brute_pool(xs, kernel))

    def test_two_heads_with_disjoint_spikes(self):
        a = np.zeros((1, 8))
        b = np.zeros((1, 8))
        a[0, 1] = 5.0
        b[0, 6] = 4.0
        scores = score_tokens([a, b], window=1, kernel=1)
        order = np.argsort(-scores.scores)
        assert set(order[:2]) == {1, 6}

    def test_max_aggregation(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.5, 0.25]])
        summed = score_tokens([a, b], window=1, kernel=1).scores
        peaked = score_tokens([a, b], window=1, kernel=1, head_aggregation="max").scores
        assert summed.tolist() == [1.5, 0.25]
        assert peaked.tolist() == [1.0, 0.25]

    def test_only_trailing_window_rows_count(self):
        m = np.array([[100.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        scores = score_tokens([m], window=2, kernel=1)
        assert scores.scores.tolist() == [0.0, 2.0]

    def test_content_span_restriction(self):
        m = np.array([[1.0, 2.0, 3.0, 4.0]])
        scores = score_tokens([m], window=1, kernel=1, content_span=slice(1, 3))
        assert scores.scores.tolist() == [2.0, 3.0]

    def test_empty_head_list_rejected(self):
        with pytest.raises(ValueError):
            score_tokens([], window=1, kernel=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            max_pool_1d(np.ones(4), 2)


def equal_sentence_prompt(scores_by_sentence, tokens_per_sentence=5):
    content = " ".join(
        " ".join(f"s{i}w{j}" for j in range(tokens_per_sentence - 1)) + "." for i in range(len(scores_by_sentence))
    )
    prompt = TokenizedPrompt.from_text("pre", content, "suf")
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
        ids = np.asarray(prompt.sentence_ids)
        kept = {int(s) for s in ids[mask.bits[span] == 1]}
        assert kept == {0, 2}
        assert refined_text(prompt, mask) == ["pre"] + [t for t, sid in zip(prompt.content, ids) if sid in (0, 2)] + ["suf"]

    def test_matches_best_subset_for_equal_lengths(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 12)
            sentence_scores = [rng.random() for _ in range(n)]
            prompt, scores = equal_sentence_prompt(sentence_scores)
            ratio = rng.randint(1, 100) / 100.0
            mask = select_sentences(prompt, scores, ratio)
            ids = np.asarray(prompt.sentence_ids)
            span = prompt.content_span
            kept = {int(s) for s in ids[mask.bits[span] == 1]}
            budget = math.ceil(ratio * len(prompt.content))
            per_sentence = len(prompt.content) // n
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
            scores = TokenScores(np.array([rng.random() for _ in prompt.content]))
            ratio = rng.randint(1, 100) / 100.0
            mask = select_sentences(prompt, scores, ratio)
            span = prompt.content_span
            ids = np.asarray(prompt.sentence_ids)
            content_bits = mask.bits[span]
            # prefix/suffix always kept
            assert mask.bits[: span.start].all() and mask.bits[span.stop :].all()
            # no partially selected sentence
            for sid in set(prompt.sentence_ids):
                sentence_bits = content_bits[ids == sid]
                assert sentence_bits.all() or not sentence_bits.any()
            # selected count lands in [budget, budget + longest sentence)
            budget = math.ceil(ratio * len(prompt.content))
            longest = max(np.bincount(ids))
            selected = int(content_bits.sum())
            assert budget <= selected < budget + longest

    def test_selection_nests_as_ratio_grows(self):
        rng = random.Random(7)
        for _ in range(50):
            prompt = synthetic_prompt(rng, n_sentences=rng.randint(2, 15))
            scores = TokenScores(np.array([rng.random() for _ in prompt.content]))
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
        prompt = TokenizedPrompt.from_text("a b", "c d. e f!", "g")
        mask = SelectionMask(np.ones(prompt.total_tokens, dtype=np.uint8))
        assert refined_text(prompt, mask) == list(prompt.prefix + prompt.content + prompt.suffix)

    def test_device_side_reconstruction_matches(self):
        rng = random.Random(8)
        for _ in range(25):
            prompt_cloud = synthetic_prompt(rng, n_sentences=rng.randint(2, 10))
            scores = TokenScores(np.array([rng.random() for _ in prompt_cloud.content]))
            mask = select_sentences(prompt_cloud, scores, 0.4)
            # tokenizing the same raw text again yields the same prompt
            text = (" ".join(prompt_cloud.prefix), " ".join(prompt_cloud.content), " ".join(prompt_cloud.suffix))
            prompt_device = TokenizedPrompt.from_text(*text)
            assert prompt_device.total_tokens == prompt_cloud.total_tokens
            assert refined_text(prompt_device, mask) == refined_text(prompt_cloud, mask)

    def test_length_mismatch_rejected(self):
        prompt = TokenizedPrompt.from_text("a", "b c.", "d")
        with pytest.raises(ValueError):
            refined_text(prompt, SelectionMask(np.ones(3, dtype=np.uint8)))

    def test_dropped_prefix_bit_rejected(self):
        prompt = TokenizedPrompt.from_text("a", "b c.", "d")
        bits = np.ones(prompt.total_tokens, dtype=np.uint8)
        bits[0] = 0
        with pytest.raises(ValueError):
            refined_text(prompt, SelectionMask(bits))


# --- equivalence with the loop references in helpers ---------------------------

_PIECES = ["alpha", "b2", "w1234", "Ünï", "_x", " ", "   ", "\t", ",", ";", ":", ".", "!", "?", "\n", "\n\n\n", "..."]
# characters on either side of from_text's isalnum() test: digits, numerics and
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
        n_sentences = prompt.sentence_ids[-1] + 1 if prompt.sentence_ids else 0
        levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n_sentences, max_size=n_sentences))
        values = [levels[sid] for sid in prompt.sentence_ids]
    else:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(prompt.content), max_size=len(prompt.content)))
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
        assert (prompt.prefix, prompt.content, prompt.sentence_ids, prompt.suffix) == reference_from_text(
            prefix, content, suffix
        )

    @settings(max_examples=500, deadline=None)
    @given(prompt_text)
    def test_from_text_agrees_with_tokenize_and_split_sentences(self, content):
        prompt = TokenizedPrompt.from_text("", content, "")
        assert prompt.content == tuple(tokenize(content))
        n_sentences = prompt.sentence_ids[-1] + 1 if prompt.sentence_ids else 0
        assert n_sentences == len(split_sentences(content))
        assert prompt.sentence_sizes == tuple(len(tokenize(s)) for s in split_sentences(content))
        assert np.bincount(prompt._ids).tolist() == list(prompt.sentence_sizes)

    @settings(max_examples=200, deadline=None)
    @given(scored_prompts(), st.floats(0.0, 1.0, exclude_min=True))
    def test_sentence_order_and_selection(self, scored, ratio):
        prompt, scores = scored
        assert sentence_order(prompt, scores) == reference_sentence_order(prompt, scores)
        got = select_sentences(prompt, scores, ratio)
        assert np.array_equal(got.bits, reference_select_sentences(prompt, scores, ratio).bits)
