"""Cloud-side request serving in simulated time.

Prefill and refinement are timed delays from the calibrated model rather
than modeled compute. Each request is served at the (ratio, budget) the
planner decided: it yields the piggyback first frame, a periodic decode
stream cut off at the budget (or at EOT, whichever comes first) and the time
it holds a decode slot, which the batch throughput simulator consumes. The
refinement the frame carries (``refine``) depends only on the prompt, its
scores and the ratio, so a caller makes it once per request and ratio.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .maskcodec import CompressedMask, pack
from .protocol import DONE, DoneMarker, FirstTokenFrame, StreamEvent
from .refiner import TokenScores, TokenizedPrompt, select_sentences
from .timing import TimingModel, request_occupancy, ttft_cloud

EOT_TOKEN = "<eot>"


def _mt_key(seed: str) -> np.ndarray:
    """The key ``random.Random(seed)`` passes to ``init_by_array`` for a str seed.

    CPython reads the seed's UTF-8 bytes followed by their SHA-512 digest as
    one big-endian integer and splits it into 32-bit words, least significant
    first. numpy's legacy ``RandomState`` seeded with these words draws the
    same 32-bit outputs.
    """
    data = seed.encode()
    key = int.from_bytes(data + hashlib.sha512(data).digest(), "big")
    return np.frombuffer(key.to_bytes(4 * ((key.bit_length() + 31) // 32), "little"), dtype="<u4")


class MtStream(random.Random):
    """``random.Random(seed)`` for a str seed, its outputs drawn in bulk by numpy's MT19937.

    A uint32 buffer holds the generator's next outputs, at least 4,096 fresh
    ones per refill. ``random`` and ``getrandbits``, the two primitives the
    stdlib's other methods (``choices``, ``randint``, ``expovariate``,
    ``randrange`` ...) build on, read it the way CPython's C code reads its
    generator, so every draw equals the same draw on ``random.Random(seed)``.
    ``peek``, ``skip`` and ``uniform`` read it in bulk. The base class's C
    state is never used, so ``seed``, ``getstate`` and ``setstate`` raise
    ``TypeError``.
    """

    _REFILL_WORDS = 4096  # the fewest fresh outputs one refill draws

    def __init__(self, seed: str) -> None:
        self._source = np.random.RandomState(_mt_key(seed))
        self._buffer = np.empty(0, dtype=np.uint32)
        self._words = memoryview(self._buffer)  # indexing it gives Python ints
        self._pos = 0  # the buffer index of the next output
        self.gauss_next = None  # set by random.Random.seed, read by gauss

    def seed(self, *args, **kwargs):
        raise TypeError("an MtStream is seeded once, by its constructor")

    def getstate(self):
        raise TypeError("an MtStream has no random.Random state")

    def setstate(self, state):
        raise TypeError("an MtStream has no random.Random state")

    def _unread(self, k: int) -> int:
        """The buffer index of the next output, with at least ``k`` outputs buffered from it."""
        if k < 0:
            raise ValueError("cannot draw a negative number of outputs")
        if len(self._buffer) - self._pos < k:
            self._refill(k)
        return self._pos

    def _refill(self, k: int) -> None:
        left = self._buffer[self._pos:]
        fresh = self._source.randint(0, 1 << 32, size=max(self._REFILL_WORDS, k - len(left)), dtype=np.uint32)
        # a new array, so views that peek handed out keep their outputs
        self._buffer = np.concatenate((left, fresh))
        self._buffer.flags.writeable = False
        self._words = memoryview(self._buffer)
        self._pos = 0

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` 32-bit outputs, in draw order, without consuming them (a read-only view)."""
        pos = self._unread(k)
        return self._buffer[pos:pos + k]

    def skip(self, k: int) -> None:
        """Consume the next ``k`` outputs."""
        self._pos = self._unread(k) + k

    def uniform(self, k: int) -> np.ndarray:
        """The next ``k`` values of ``random()``, bit-equal, as one float64 array.

        Shadows ``random.Random.uniform(a, b)``, which nothing here calls.
        """
        pos = self._unread(2 * k)
        self._pos = pos + 2 * k
        words = self._buffer[pos:pos + 2 * k]
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)

    def random(self) -> float:
        """Two outputs ``w0, w1`` give ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53``, exact in float64."""
        pos = self._unread(2)
        self._pos = pos + 2
        words = self._words
        return ((words[pos] >> 5) * 67108864.0 + (words[pos + 1] >> 6)) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        """``k`` bits from ``ceil(k / 32)`` outputs: the first is the least significant word, the last keeps its top bits."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        n = (k + 31) // 32
        pos = self._unread(n)
        self._pos = pos + n
        if n == 1:
            return self._words[pos] >> (32 - k)
        words = self._buffer[pos:pos + n].astype("<u4")  # a copy, little-endian
        words[-1] >>= 32 * n - k
        return int.from_bytes(words.tobytes(), "little")


@dataclass(frozen=True)
class TokenSource:
    """Deterministic token stream; position ``total_tokens`` is the EOT label.

    The token at position p is ``f"{salt}{p}"``, with salt ``tok``, or ``alt``
    inside the ``divergence`` set, which models a paired device generating a
    different token there. Tokens carry identity only: two sources of the same
    length agree at p exactly when p is the EOT position or lies in both
    divergence sets or in neither. ``seed`` names the stream; it takes part in
    equality, hashing and the repr, but not in the tokens.
    """

    seed: int
    total_tokens: int
    divergence: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.total_tokens < 1:
            raise ValueError("total_tokens must be >= 1")

    def token_at(self, position: int) -> str:
        if not 1 <= position <= self.total_tokens:
            raise ValueError(f"position {position} outside 1..{self.total_tokens}")
        if position == self.total_tokens:
            return EOT_TOKEN
        return f"alt{position}" if position in self.divergence else f"tok{position}"


@dataclass(frozen=True)
class CloudTrace:
    """Timed emissions of one session plus the time it holds a decode slot."""

    frame_time_ms: float
    frame: FirstTokenFrame
    events: tuple[tuple[float, StreamEvent], ...]
    done_time_ms: float
    occupancy_ms: float

    def delivery(self) -> list[tuple[float, FirstTokenFrame | StreamEvent | DoneMarker]]:
        """Timed stream as the device sees it: the frame, the events, then DONE, as ``SseDecoder`` yields them."""
        return [(self.frame_time_ms, self.frame), *self.events, (self.done_time_ms, DONE)]


# One generator, reseeded at the start of every score draw, so no state
# carries from one draw to the next. Constructing a RandomState costs about
# 120 µs (it first seeds itself through SeedSequence.generate_state(624)),
# more than a whole 2k-token draw; reseeding costs about 17 µs.
_SCORES = np.random.RandomState()


def uniform_scores(prompt: TokenizedPrompt, seed: int | str) -> TokenScores:
    """Synthetic stand-in for attention-derived scores, deterministic per seed.

    Score i is bit-equal to the i-th ``random()`` of ``random.Random(f"scores:{seed}")``:
    numpy's legacy MT19937, seeded with that generator's key, draws them in one call.
    """
    _SCORES.seed(_mt_key(f"scores:{seed}"))
    return TokenScores(_SCORES.random_sample(prompt.content_tokens))


def refine(prompt: TokenizedPrompt, scores: TokenScores, ratio: float) -> CompressedMask:
    """The cloud's refinement of ``prompt`` at ``ratio``: the sentences ``scores`` select, packed for the wire.

    A pure function of its arguments, so one container serves every session
    of a request that runs at the same ratio.
    """
    return pack(select_sentences(prompt, scores, ratio))


def serve_request(
    req,
    model: TimingModel,
    source: TokenSource,
    mask: CompressedMask,
    *,
    max_tokens: int,
    rtt_ms: float,
) -> CloudTrace:
    """Serve request ``req`` at a given point: piggyback the refinement on the first token, then stream.

    ``planner.solve_plan`` decides the point: a ratio and the budget
    ``max_tokens``, the tokens the cloud produces counting the first one.
    ``mask`` is ``refine(req.prompt, scores, ratio)``, the selection over
    the shape shared with the device, made once per request and ratio by
    the caller; the ratio reaches the cloud only through it. The first token
    leaves ``ttft_cloud`` after ``req.arrival_ms`` at round trip ``rtt_ms``.
    """
    first_token_at = req.arrival_ms + ttft_cloud(model, req.prompt.total_tokens, rtt_ms)
    emit_total = min(max_tokens, source.total_tokens)
    frame = FirstTokenFrame(token=source.token_at(1), mask=mask, max_tokens=max_tokens)
    events = tuple(
        (
            first_token_at + i * model.tpot_cloud,
            StreamEvent(index=i, token=source.token_at(i + 1)),
        )
        for i in range(1, emit_total)
    )
    return CloudTrace(
        frame_time_ms=first_token_at,
        frame=frame,
        events=events,
        done_time_ms=events[-1][0] if events else first_token_at,
        occupancy_ms=request_occupancy(first_token_at - req.arrival_ms, model.tpot_cloud, emit_total),
    )


@dataclass(frozen=True)
class BatchModel:
    """Decode-slot pool with a FIFO queue; closed-loop or Poisson arrivals."""

    slots: int
    mode: str = "closed"  # "closed" | "poisson"
    arrival_rate_per_s: float | None = None
    completions: int = 1024  # measured after the warmup

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.completions < 1:
            raise ValueError("completions must be >= 1")
        if self.mode not in ("closed", "poisson"):
            raise ValueError(f"unknown batch mode {self.mode!r}")
        if self.mode == "poisson" and (self.arrival_rate_per_s is None or self.arrival_rate_per_s <= 0):
            raise ValueError("poisson mode needs a positive arrival rate")


@dataclass(frozen=True)
class ThroughputResult:
    tps: float
    analytic_tps: float


def run_throughput(batch: BatchModel, occupancies_ms: Sequence[float], *, seed: int = 0) -> ThroughputResult:
    """Measure steady-state completions per second over the occupancy population.

    Requests cycle through ``occupancies_ms`` and are served first come,
    first served: request i ends at ``max(a_i, earliest slot release) +
    occupancy`` (the Kiefer-Wolfowitz recursion for the FIFO G/G/c queue).
    Closed mode, where each completion admits the next request, has every
    arrival ``a_i`` at 0; Poisson mode draws the gaps between arrivals
    from ``random.Random(f"throughput:{seed}")``. All ``completions + slots``
    requests of ``batch`` complete; the first ``slots`` completions are warmup,
    so the measurement window holds exactly ``completions``. The returned
    analytic rate is slots / mean occupancy for cross-checks.
    """
    if not occupancies_ms:
        raise ValueError("need at least one occupancy sample")
    if any(t <= 0 for t in occupancies_ms):
        raise ValueError("occupancies must be positive")

    target = batch.completions + batch.slots  # warmup + measured
    if batch.mode == "closed":
        arrivals: Iterable[float] = itertools.repeat(0.0, target)
    else:
        rng = random.Random(f"throughput:{seed}")
        rate_per_ms = batch.arrival_rate_per_s / 1000.0
        arrivals = itertools.accumulate(rng.expovariate(rate_per_ms) for _ in range(target))
    released = [0.0] * batch.slots  # heap of slot release times
    ends = []
    for arrival, occupancy in zip(arrivals, itertools.cycle(occupancies_ms)):
        end = max(arrival, released[0]) + occupancy
        heapq.heapreplace(released, end)
        ends.append(end)
    ends.sort()
    window = ends[-1] - ends[batch.slots - 1]
    mean_occ = sum(occupancies_ms) / len(occupancies_ms)
    return ThroughputResult(
        tps=batch.completions / (window / 1000.0) if window > 0 else 0.0,
        analytic_tps=batch.slots / (mean_occ / 1000.0),
    )
