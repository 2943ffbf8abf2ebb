r"""Prompt refinement: attention-window token scoring and sentence selection.

Both ends of the protocol share one deterministic reference tokenizer
(whitespace word split, punctuation as separate tokens), so a selection mask
computed on one side reconstructs the identical refined prompt on the other.
Selecting and checking a mask need only the prompt's shape, so a request's
prompt is built once into a ``TokenizedPrompt``: its prefix token count, the
token count of each content sentence and its suffix token count, from which
the per-token sentence labels are derived. The cloud uses it to select whole
sentences, and the device uses it to check the mask. ``from_text`` counts
any text; a prompt that ``harness.synthesize_prompt`` wrote and scrubbing
left unchanged is shaped from the synthesis's own sentence sizes
(``harness.synthesized_shape``), with the same result. Token strings are made
only where a caller prints them: ``refined_text`` tokenizes the texts and
applies the mask.

``tokenize`` and ``split_sentences`` are the public tokenization and
segmentation. ``TokenizedPrompt.from_text`` agrees with them token for token
and sentence for sentence, but counts the content in one whitespace pass
that runs the regex only on chunks holding punctuation or ``_``. That is
exact because ``\s`` matches exactly what ``str.split()`` splits on and
``\w`` exactly the characters with ``c.isalnum() or c == "_"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress
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
    """A prompt's shape: fixed prefix, refinable content and fixed suffix, as token counts.

    The content is a run of sentences: ``sentence_sizes`` holds each one's
    token count, in order, each a plain ``int`` of at least 1; the content
    holds their sum. ``prefix_tokens`` and ``suffix_tokens`` are plain
    ``int``s of at least 0. Selection reads the sizes and the per-token
    sentence labels derived from them (``sentence_ids``) as arrays. The
    shape holds no token strings; ``refined_text`` makes them from the texts.
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
    def sentence_ids(self) -> tuple[int, ...]:
        """Each content token's sentence: 0 for the first sentence's tokens, then 1, and so on."""
        return tuple(self._ids.tolist())

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
        r"""Count the three parts' tokens and size the content's sentences as ``split_sentences`` splits them.

        One pass over the content: split it on newlines, split each line with
        ``str.split()``, count a chunk for which ``chunk.isalnum()`` holds as one
        ``\w+`` token, and run ``_TOKEN_RE`` only on the other chunks (those
        holding punctuation or ``_``). This counts what ``tokenize`` returns
        because tokens never span whitespace, ``\s`` matches exactly the
        separators ``str.split()`` uses, and ``\w`` matches exactly the
        characters with ``c.isalnum() or c == "_"`` (the tests check both over
        every code point). A sentence ends at a '.', '!' or '?' token and at
        the last token of each line, so a segment without tokens yields no
        sentence, as in ``split_sentences``; one size is kept per sentence.
        """
        count = 0
        ends = [0]  # 0, then one past each sentence's last token
        for line in content.split("\n"):
            for chunk in line.split():
                if chunk.isalnum():
                    count += 1
                    continue
                for token in _TOKEN_RE.findall(chunk):
                    count += 1
                    if token in _TERMINATORS:
                        ends.append(count)
            if ends[-1] != count:
                ends.append(count)
        return cls(
            prefix_tokens=len(tokenize(prefix)),
            sentence_sizes=tuple(map(sub, ends[1:], ends)),
            suffix_tokens=len(tokenize(suffix)),
        )


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
    the ratio, so selections nest as the ratio grows. Empty content yields an
    all-ones mask (nothing to refine).
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    bits = np.ones(prompt.total_tokens, dtype=np.uint8)
    n_content = prompt.content_tokens
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
