"""Prompt refinement: attention-window token scoring and sentence selection.

Both ends of the protocol share one deterministic reference tokenizer
(whitespace word split, punctuation as separate tokens), so a selection mask
computed on one side reconstructs the identical refined prompt on the other.
Selecting and checking a mask need only the prompt's shape, so a request's
prompt is built once into a ``TokenizedPrompt``: its prefix token count, the
token count of each content sentence and its suffix token count, from which
the per-token sentence labels are derived. The cloud uses it to select whole
sentences, and the device uses it to check the mask. A shape has two sources:
``from_text`` counts any text (``pd refine``'s prompt, a scrubbed workload
prompt) with ``tokenize`` over ``split_sentences``, and a prompt
``harness.synthesize_prompt`` drew is shaped from the sizes the synthesis
returned. Token strings are made only where a caller prints them:
``refined_text`` tokenizes the texts and applies the mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress
from math import ceil
from typing import Sequence

import numpy as np

# the most tokens a prompt holds: the config reader bounds every token count
# by it (``harness._RANGES``), and a mask container declares at most this
# many bits (``maskcodec``)
MAX_PROMPT_TOKENS = 1 << 24

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# a run up to and including a terminator; failing that, the terminator-free tail
_SENTENCE_RE = re.compile(r"[^.!?\n]*[.!?\n]|[^.!?\n]+")


def tokenize(text: str) -> list[str]:
    """Whitespace word split with punctuation characters as their own tokens."""
    return _TOKEN_RE.findall(text)


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!', '?' and newline, keeping terminators with their sentence.

    Segments that tokenize to nothing (stray whitespace) are dropped.
    """
    return [p for p in _SENTENCE_RE.findall(text) if _TOKEN_RE.search(p)]


@dataclass(frozen=True)
class TokenizedPrompt:
    """A prompt's shape: fixed prefix, refinable content and fixed suffix, as token counts.

    The content is a run of sentences: ``sentence_sizes`` holds each one's
    token count, in order, each a plain ``int`` of at least 1; the content
    holds their sum. ``prefix_tokens`` and ``suffix_tokens`` are plain
    ``int``s of at least 0. Selection reads the sizes, and each content
    token's sentence label derived from them, as arrays. The shape holds no
    token strings; ``refined_text`` makes them from the texts.
    """

    prefix_tokens: int
    sentence_sizes: tuple[int, ...]
    suffix_tokens: int
    _ids: np.ndarray = field(init=False, compare=False, repr=False)
    _sizes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for count in (self.prefix_tokens, self.suffix_tokens):
            if type(count) is not int or count < 0:
                raise ValueError(f"prefix and suffix token counts must be ints >= 0, got {count!r}")
        for size in self.sentence_sizes:
            if type(size) is not int or size < 1:
                raise ValueError(f"sentence sizes must be ints >= 1, got {size!r}")
        sizes = np.array(self.sentence_sizes, dtype=np.int64)
        ids = np.repeat(np.arange(sizes.size), sizes)
        ids.flags.writeable = sizes.flags.writeable = False
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def content_tokens(self) -> int:
        return self._ids.size

    @property
    def total_tokens(self) -> int:
        return self.prefix_tokens + self._ids.size + self.suffix_tokens

    @property
    def content_span(self) -> slice:
        return slice(self.prefix_tokens, self.prefix_tokens + self._ids.size)

    @classmethod
    def from_text(cls, prefix: str, content: str, suffix: str) -> "TokenizedPrompt":
        """Count the three parts' tokens and size the content's sentences as ``split_sentences`` splits them."""
        return cls(
            prefix_tokens=len(tokenize(prefix)),
            sentence_sizes=tuple(len(tokenize(s)) for s in split_sentences(content)),
            suffix_tokens=len(tokenize(suffix)),
        )


def max_pool_1d(values: np.ndarray, kernel: int) -> np.ndarray:
    """Same-length 1D max pooling, truncated at the edges, by doubling in O(n log kernel).

    ``run[i]`` is the maximum of the ``span`` values from i on; ``span``
    doubles while it fits the window, and two runs then cover each window.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")
    x = np.asarray(values, dtype=np.float64)
    half = min(kernel // 2, max(x.size - 1, 0))  # n - 1 already reaches both ends from every index
    width = 2 * half + 1
    edge = np.full(half, -np.inf)  # truncation: the pads never win a maximum
    run, span = np.concatenate((edge, x, edge)), 1
    while 2 * span <= width:
        run = np.maximum(run[:-span], run[span:])
        span *= 2
    return np.maximum(run[: x.size], run[width - span : width - span + x.size])


@dataclass(frozen=True, eq=False)
class TokenScores:
    """Nonnegative importance score per content token."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError("scores must be a finite 1-D vector")
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.size)


def score_tokens(
    weights_per_head: Sequence[np.ndarray],
    window: int,
    kernel: int,
    content_span: slice,
) -> TokenScores:
    """Collapse per-head attention weights, one key per prompt token, into one score per content token.

    Per head: sum the trailing ``window`` query rows, then max-pool with
    ``kernel``. Heads combine by summation, and the keys of ``content_span``
    (``TokenizedPrompt.content_span``) are the scores.
    """
    if not weights_per_head:
        raise ValueError("at least one head required")
    if window < 1:
        raise ValueError("window must be >= 1")
    n_keys = np.asarray(weights_per_head[0]).shape[1]
    combined = np.zeros(n_keys)
    for head in weights_per_head:
        w = np.asarray(head, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != n_keys:
            raise ValueError("all heads must share the key dimension")
        combined += max_pool_1d(w[-window:].sum(axis=0), kernel)
    return TokenScores(scores=combined[content_span])


class SelectionMask:
    """One bit per prompt token; 1 selects the token for the refined prompt.

    ``bits`` is any 1-D sequence of numbers or bools that each equal 0 or 1.
    A ``uint8`` array is kept as it is, without a copy; anything else is
    checked before it is cast, so that a cast cannot round or wrap a value
    into a bit.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError("mask bits must be 1-D")
        if arr.dtype == np.uint8:
            if arr.size and arr.max() > 1:
                raise ValueError("mask bits must be 0 or 1")
        elif arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        else:
            arr = arr.astype(np.uint8)
        self.bits = arr

    def __len__(self) -> int:
        return int(self.bits.size)

    def popcount(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionMask):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:
        return f"SelectionMask(len={len(self)}, selected={self.popcount()})"


def sentence_order(prompt: TokenizedPrompt, scores: TokenScores) -> list[int]:
    """Sentences sorted by descending mean token score, earlier position first on ties."""
    if len(scores) != prompt.content_tokens:
        raise ValueError(f"expected {prompt.content_tokens} scores, got {len(scores)}")
    means = np.bincount(prompt._ids, weights=scores.scores) / prompt._sizes
    return np.argsort(-means, kind="stable").tolist()


def select_sentences(prompt: TokenizedPrompt, scores: TokenScores, ratio: float) -> SelectionMask:
    """Greedy whole-sentence selection until the token budget ceil(ratio * |content|) is met.

    Prefix and suffix are always kept. The greedy order does not depend on
    the ratio, so selections nest as the ratio grows. Empty content or a
    ratio of 1 yields an all-ones mask.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    bits = np.ones(prompt.total_tokens, dtype=np.uint8)
    n_content = prompt.content_tokens
    order = np.asarray(sentence_order(prompt, scores), dtype=np.int64)
    ids = prompt._ids
    covered = np.cumsum(prompt._sizes[order])
    taken = int(np.searchsorted(covered, ceil(ratio * n_content))) + 1
    chosen = np.zeros(order.size, dtype=np.uint8)
    chosen[order[:taken]] = 1
    bits[prompt.content_span] = chosen[ids]
    return SelectionMask(bits)


def refined_text(prefix: str, content: str, suffix: str, mask: SelectionMask) -> list[str]:
    """Apply a selection mask to the texts' tokens: prefix, selected content sentences in order, suffix.

    The mask must hold one bit per token of the three texts, with every
    prefix and suffix bit set; otherwise ValueError.
    """
    head, body, tail = tokenize(prefix), tokenize(content), tokenize(suffix)
    total = len(head) + len(body) + len(tail)
    if len(mask) != total:
        raise ValueError(f"mask length {len(mask)} != prompt length {total}")
    span = slice(len(head), len(head) + len(body))
    if not mask.bits[: span.start].all() or not mask.bits[span.stop :].all():
        raise ValueError("prefix and suffix tokens must all be selected")
    return head + list(compress(body, mask.bits[span])) + tail
