"""Shared test utilities: independent oracles and synthetic data builders."""

from __future__ import annotations

import math
import random

import numpy as np

from pdsim.planner import PlanConstraints
from pdsim.protocol import AssistRequest
from pdsim.refiner import SelectionMask, TokenScores, TokenizedPrompt, tokenize
from pdsim.timing import RttClass, TimingModel, affine_cost, build_model, ttft_cloud, ttft_device


def brute_force_plan(model: TimingModel, constraints: PlanConstraints, prompt_tokens: int,
                     rtt_ms: float | None = None, max_budget: int = 4096):
    """Grid search over ratio (step 0.01) and budget, checking the raw
    inequalities by substitution. Returns (ratio, budget) or None.

    Deliberately independent of the closed form: the quality/efficiency
    check uses the un-reorganized inequality k_c*l + bound(l) + k_d*r*l <= k_d*l.
    """
    rtt = model.rtt_class.mean_ms if rtt_ms is None else rtt_ms
    budgets = np.arange(2, max_budget + 1)
    best = None
    for step in range(0, 101):
        ratio = step / 100.0
        if ratio == 0.0 or ratio < constraints.min_ratio:
            continue
        lhs = model.k_cloud * prompt_tokens + model.overhead_bound(prompt_tokens) + model.k_device * ratio * prompt_tokens
        if lhs > model.k_device * prompt_tokens:
            continue
        tc = ttft_cloud(model, prompt_tokens, ratio, rtt)
        td = ttft_device(model, prompt_tokens, ratio, tc)
        refined_prefill = model.k_device * ratio * prompt_tokens
        pace_ok = refined_prefill - tc <= (budgets - 1) * (constraints.max_tpot_ms - model.tpot_device)
        occupancy_ok = tc + (budgets - 1) * model.tpot_cloud <= td
        feasible = pace_ok & occupancy_ok
        if not feasible.any():
            continue
        budget = int(budgets[int(np.argmax(feasible))])
        candidate = (td, budget, ratio)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        return None
    return best[2], best[1]


def random_planner_instance(rng: random.Random):
    """One randomized planner instance with the quality floor on the 0.01 grid."""
    k_cloud = rng.uniform(0.05, 0.3)
    k_device = rng.uniform(k_cloud + 0.3, 2.0)
    tpot_device = rng.uniform(15.0, 50.0)
    model = build_model(
        k_cloud=k_cloud,
        k_device=k_device,
        tpot_cloud=rng.uniform(15.0, 50.0),
        tpot_device=tpot_device,
        rtt=RttClass("rand", mean_ms=rng.uniform(10.0, 150.0), jitter_ms=0.0),
        compress=(lambda c: (lambda tokens, ratio: c(tokens)))(affine_cost(rng.uniform(0.0, 30.0), rng.uniform(0.005, 0.03))),
        decompress=affine_cost(rng.uniform(0.0, 15.0), rng.uniform(0.002, 0.015)),
    )
    constraints = PlanConstraints(
        min_ratio=rng.randint(1, 95) / 100.0,
        max_tpot_ms=tpot_device + rng.uniform(20.0, 120.0),
    )
    prompt_tokens = rng.choice([1000, 2000, 4000, 8000, 16000, 32000])
    return model, constraints, prompt_tokens


def clustered_mask(rng: random.Random, length: int, mean_run: float = 24.0) -> SelectionMask:
    """Sentence-like mask: alternating 0/1 runs with geometric lengths."""
    bits = []
    value = rng.randint(0, 1)
    while len(bits) < length:
        run = max(1, round(rng.expovariate(1.0 / mean_run)))
        bits.extend([value] * run)
        value = 1 - value
    return SelectionMask(bits[:length])


def tokenized(req: AssistRequest) -> TokenizedPrompt:
    """The request's reference tokenization, as the harness builds it once per request."""
    return TokenizedPrompt.from_text(req.prefix, req.content, req.suffix)


def synthetic_prompt(rng: random.Random, n_sentences: int, prefix_tokens: int = 3, suffix_tokens: int = 2,
                     sentence_len: tuple[int, int] = (3, 9)) -> TokenizedPrompt:
    """Small prompt with explicit sentence structure for selection tests."""
    prefix = " ".join(f"p{i}" for i in range(prefix_tokens))
    suffix = " ".join(f"s{i}" for i in range(suffix_tokens))
    sentences = []
    for s in range(n_sentences):
        words = rng.randint(*sentence_len)
        sentences.append(" ".join(f"c{s}x{w}" for w in range(words)) + ".")
    return TokenizedPrompt.from_text(prefix, " ".join(sentences), suffix)


# --- reference refiner: the loop forms the vectorised refiner must match -------


def reference_split_sentences(text: str) -> list[str]:
    """Character loop: cut after every '.', '!', '?' and newline; drop token-free pieces."""
    pieces: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        if ch in ".!?\n":
            pieces.append(text[start : i + 1])
            start = i + 1
    pieces.append(text[start:])
    return [p for p in pieces if tokenize(p)]


def reference_from_text(prefix: str, content: str, suffix: str) -> tuple:
    """(prefix, content, sentence_ids, suffix) built sentence by sentence, token by token."""
    content_tokens: list[str] = []
    ids: list[int] = []
    for sid, sentence in enumerate(reference_split_sentences(content)):
        toks = tokenize(sentence)
        content_tokens.extend(toks)
        ids.extend([sid] * len(toks))
    return tuple(tokenize(prefix)), tuple(content_tokens), tuple(ids), tuple(tokenize(suffix))


def reference_sentence_order(prompt: TokenizedPrompt, scores: TokenScores) -> list[int]:
    """np.add.at sums per sentence, then a Python sort on (-mean, sentence id)."""
    n_sentences = prompt.sentence_ids[-1] + 1 if prompt.sentence_ids else 0
    ids = np.asarray(prompt.sentence_ids, dtype=np.int64)
    totals = np.zeros(n_sentences)
    counts = np.zeros(n_sentences)
    np.add.at(totals, ids, scores.scores)
    np.add.at(counts, ids, 1.0)
    means = totals / counts
    return sorted(range(n_sentences), key=lambda sid: (-means[sid], sid))


def reference_select_sentences(prompt: TokenizedPrompt, scores: TokenScores, ratio: float) -> SelectionMask:
    """Greedy loop that counts each chosen sentence's tokens with (ids == sid).sum()."""
    bits = np.ones(prompt.total_tokens, dtype=np.uint8)
    n_content = len(prompt.content)
    if n_content == 0 or ratio == 1.0:
        return SelectionMask(bits)
    budget = math.ceil(ratio * n_content)
    ids = np.asarray(prompt.sentence_ids)
    selected: set[int] = set()
    count = 0
    for sid in reference_sentence_order(prompt, scores):
        selected.add(sid)
        count += int((ids == sid).sum())
        if count >= budget:
            break
    bits[prompt.content_span] = np.isin(ids, list(selected)).astype(np.uint8)
    return SelectionMask(bits)


# --- reference draws: the per-draw loops the bulk Mersenne Twister replay must match ---


def reference_synthesize_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int,
                                suffix_tokens: int) -> tuple[str, str, str]:
    """One ``randrange(10000)`` per word and one ``randint(8, 32)`` per sentence length."""
    content_target = total_tokens - prefix_tokens - suffix_tokens
    if content_target < 2:
        raise ValueError("prompt too short for the requested prefix/suffix")

    def word() -> str:
        return f"w{rng.randrange(10000)}"

    prefix = " ".join(word() for _ in range(prefix_tokens))
    if suffix_tokens > 0:
        suffix = " ".join(word() for _ in range(suffix_tokens - 1)) + (" ?" if suffix_tokens > 1 else "?")
    else:
        suffix = ""

    sentences = []
    remaining = content_target
    while remaining > 0:
        words = rng.randint(8, 32)
        if remaining - (words + 1) < 10:
            words = remaining - 1
        if words <= 0:
            sentences.append(word())  # single-token tail without a terminator
            break
        sentences.append(" ".join(word() for _ in range(words)) + ".")
        remaining -= words + 1
    return prefix, " ".join(sentences), suffix


def reference_uniform_scores(prompt: TokenizedPrompt, seed: int | str) -> TokenScores:
    """One ``random()`` per content token."""
    rng = random.Random(f"scores:{seed}")
    return TokenScores(np.array([rng.random() for _ in prompt.content]))
