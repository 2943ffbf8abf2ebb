r"""Prompt refinement: attention-window token scoring and sentence selection.

Both ends of the protocol share one deterministic reference tokenizer
(whitespace word split, punctuation as separate tokens), so a selection mask
computed on one side reconstructs the identical refined prompt on the other.
A request is tokenized once into a ``TokenizedPrompt``: its content tokens
and the token count of each content sentence, from which the per-token
sentence labels are derived. The cloud uses it to select whole sentences, and
the device uses it to check the mask and rebuild the prompt.

``tokenize`` and ``split_sentences`` are the public tokenization and
segmentation. ``TokenizedPrompt.from_text`` agrees with them token for token
and sentence for sentence, but builds the content in one whitespace pass that
runs the regex only on chunks holding punctuation or ``_``. That is exact
because ``\s`` matches exactly what ``str.split()`` splits on and ``\w``
exactly the characters with ``c.isalnum() or c == "_"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import ceil
from operator import sub
from typing import Sequence

import numpy as np

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# a run up to and including a terminator; failing that, the terminator-free tail
_SENTENCE_RE = re.compile(r"[^.!?\n]*[.!?\n]|[^.!?\n]+")
_TERMINATORS = frozenset(".!?")  # with the newline, what ends a sentence


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
    """Prompt split into fixed prefix, refinable content and fixed suffix.

    The content is a run of sentences: ``sentence_sizes`` holds each one's
    token count, in order, each a plain ``int`` of at least 1, summing to
    ``len(content)``. Selection reads the sizes and the per-token sentence
    labels derived from them (``sentence_ids``) as arrays.
    """

    prefix: tuple[str, ...]
    content: tuple[str, ...]
    sentence_sizes: tuple[int, ...]
    suffix: tuple[str, ...]
    _ids: np.ndarray = field(init=False, compare=False, repr=False)
    _sizes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for size in self.sentence_sizes:
            if type(size) is not int or size < 1:
                raise ValueError(f"sentence sizes must be ints >= 1, got {size!r}")
        if sum(self.sentence_sizes) != len(self.content):
            raise ValueError(f"sentence sizes must sum to the {len(self.content)} content tokens")
        sizes = np.array(self.sentence_sizes, dtype=np.int64)
        ids = np.repeat(np.arange(sizes.size), sizes)
        ids.flags.writeable = sizes.flags.writeable = False
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def sentence_ids(self) -> tuple[int, ...]:
        """Each content token's sentence: 0 for the first sentence's tokens, then 1, and so on."""
        return tuple(self._ids.tolist())

    @property
    def total_tokens(self) -> int:
        return len(self.prefix) + len(self.content) + len(self.suffix)

    @property
    def content_span(self) -> slice:
        return slice(len(self.prefix), len(self.prefix) + len(self.content))

    @classmethod
    def from_text(cls, prefix: str, content: str, suffix: str) -> "TokenizedPrompt":
        r"""Tokenize the three parts and size the content's sentences as ``split_sentences`` splits them.

        One pass over the content: split it on newlines, split each line with
        ``str.split()``, take a chunk for which ``chunk.isalnum()`` holds as one
        ``\w+`` token, and run ``_TOKEN_RE`` only on the other chunks (those
        holding punctuation or ``_``). This equals ``tokenize`` because tokens
        never span whitespace, ``\s`` matches exactly the separators
        ``str.split()`` uses, and ``\w`` matches exactly the characters with
        ``c.isalnum() or c == "_"`` (the tests check both over every code
        point). A sentence ends at a '.', '!' or '?' token and at the last
        token of each line, so a segment without tokens yields no sentence,
        as in ``split_sentences``; one size is kept per sentence.
        """
        tokens: list[str] = []
        ends = [0]  # 0, then one past each sentence's last token
        append = tokens.append
        for line in content.split("\n"):
            for chunk in line.split():
                if chunk.isalnum():
                    append(chunk)
                    continue
                for token in _TOKEN_RE.findall(chunk):
                    append(token)
                    if token in _TERMINATORS:
                        ends.append(len(tokens))
            if ends[-1] != len(tokens):
                ends.append(len(tokens))
        return cls(
            prefix=tuple(tokenize(prefix)),
            content=tuple(tokens),
            sentence_sizes=tuple(map(sub, ends[1:], ends)),
            suffix=tuple(tokenize(suffix)),
        )


@dataclass(frozen=True)
class AttentionInputs:
    """Observation-window queries against the full key (and optional value) set.

    One instance per attention head. ``hidden_size`` feeds the score scale
    and is carried separately from the matrix width so callers control it.
    """

    q_window: np.ndarray  # [w, dim]
    k_full: np.ndarray    # [n_keys, dim]
    hidden_size: int
    v_full: np.ndarray | None = None

    def __post_init__(self) -> None:
        q, k = np.asarray(self.q_window), np.asarray(self.k_full)
        if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
            raise ValueError(f"query/key shape mismatch: {q.shape} vs {k.shape}")
        if q.shape[0] > k.shape[0]:
            raise ValueError("observation window cannot exceed the key count")
        if self.hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if not (np.isfinite(q).all() and np.isfinite(k).all()):
            raise ValueError("non-finite attention inputs")
        if self.v_full is not None:
            v = np.asarray(self.v_full)
            if v.ndim != 2 or v.shape[0] != k.shape[0]:
                raise ValueError(f"value shape mismatch: {v.shape} vs keys {k.shape}")
            if not np.isfinite(v).all():
                raise ValueError("non-finite attention inputs")


def attention_weights(inputs: AttentionInputs) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled dot-product weights softmax(Q K^T / sqrt(hidden)) for one head.

    Returns (weights [w, n_keys], weights @ V or None). Each weight row is a
    probability vector.
    """
    q = np.asarray(inputs.q_window, dtype=np.float64)
    k = np.asarray(inputs.k_full, dtype=np.float64)
    logits = q @ k.T / np.sqrt(float(inputs.hidden_size))
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    if inputs.v_full is None:
        return weights, None
    return weights, weights @ np.asarray(inputs.v_full, dtype=np.float64)


def max_pool_1d(values: np.ndarray, kernel: int) -> np.ndarray:
    """Same-length 1D max pooling, truncated at the edges."""
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")
    x = np.asarray(values, dtype=np.float64)
    if kernel == 1 or x.size == 0:
        return x.copy()
    half = kernel // 2
    padded = np.full(x.size + 2 * half, -np.inf)
    padded[half : half + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel)
    return windows.max(axis=1)


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
    content_span: slice | None = None,
    head_aggregation: str = "sum",
) -> TokenScores:
    """Collapse per-head attention weights into one score per content token.

    Per head: sum the trailing ``window`` query rows, then max-pool with
    ``kernel``. Heads combine by summation (default) or elementwise max,
    selectable because per-head top-k voting has no canonical conflict rule.
    """
    if not weights_per_head:
        raise ValueError("at least one head required")
    if window < 1:
        raise ValueError("window must be >= 1")
    if head_aggregation not in ("sum", "max"):
        raise ValueError(f"unknown head aggregation {head_aggregation!r}")
    n_keys = np.asarray(weights_per_head[0]).shape[1]
    combined: np.ndarray | None = None
    for head in weights_per_head:
        w = np.asarray(head, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != n_keys:
            raise ValueError("all heads must share the key dimension")
        rows = w[-window:] if w.shape[0] > window else w
        pooled = max_pool_1d(rows.sum(axis=0), kernel)
        if combined is None:
            combined = pooled
        elif head_aggregation == "sum":
            combined += pooled
        else:
            combined = np.maximum(combined, pooled)
    assert combined is not None
    if content_span is not None:
        combined = combined[content_span]
    return TokenScores(scores=combined)


class SelectionMask:
    """One bit per prompt token; 1 selects the token for the refined prompt."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("mask bits must be 1-D")
        if arr.size and arr.max() > 1:
            raise ValueError("mask bits must be 0 or 1")
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
    if len(scores) != len(prompt.content):
        raise ValueError(f"expected {len(prompt.content)} scores, got {len(scores)}")
    means = np.bincount(prompt._ids, weights=scores.scores) / prompt._sizes
    return np.argsort(-means, kind="stable").tolist()


def select_sentences(prompt: TokenizedPrompt, scores: TokenScores, ratio: float) -> SelectionMask:
    """Greedy whole-sentence selection until the token budget ceil(ratio * |content|) is met.

    Prefix and suffix are always kept. The greedy order does not depend on
    the ratio, so selections nest as the ratio grows. Empty content yields an
    all-ones mask (nothing to refine).
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    bits = np.ones(prompt.total_tokens, dtype=np.uint8)
    n_content = len(prompt.content)
    if n_content == 0 or ratio == 1.0:
        return SelectionMask(bits)
    order = np.asarray(sentence_order(prompt, scores), dtype=np.int64)
    ids = prompt._ids
    covered = np.cumsum(prompt._sizes[order])
    taken = int(np.searchsorted(covered, ceil(ratio * n_content))) + 1
    chosen = np.zeros(order.size, dtype=np.uint8)
    chosen[order[:taken]] = 1
    bits[prompt.content_span] = chosen[ids]
    return SelectionMask(bits)


def refined_text(prompt: TokenizedPrompt, mask: SelectionMask) -> list[str]:
    """Apply a selection mask: prefix, selected content sentences in order, suffix."""
    if len(mask) != prompt.total_tokens:
        raise ValueError(f"mask length {len(mask)} != prompt length {prompt.total_tokens}")
    span = prompt.content_span
    if not mask.bits[: span.start].all() or not mask.bits[span.stop :].all():
        raise ValueError("prefix and suffix tokens must all be selected")
    content_bits = mask.bits[span]
    body = [tok for tok, bit in zip(prompt.content, content_bits) if bit]
    return list(prompt.prefix) + body + list(prompt.suffix)
