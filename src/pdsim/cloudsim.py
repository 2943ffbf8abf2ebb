"""Cloud-side request serving in simulated time.

Prefill and refinement are timed delays from the calibrated model rather
than modeled compute. Each request yields the piggyback first frame, a
periodic decode stream cut off at the assisted-token budget (or at EOT,
whichever comes first), and a slot-occupancy record that feeds the batch
throughput simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .eventloop import EventLoop
from .maskcodec import pack
from .planner import Plan, PlanTable
from .protocol import DONE, AssistRequest, DoneMarker, FirstTokenFrame, StreamEvent, encode_done, encode_first_frame, encode_stream_event
from .refiner import TokenScores, TokenizedPrompt, select_sentences
from .timing import TimingModel, request_occupancy, ttft_cloud

EOT_TOKEN = "<eot>"


def mt_words(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` 32-bit Mersenne Twister outputs of ``rng``, in draw order.

    ``getrandbits(32 * k)`` consumes exactly ``k`` outputs and puts the first
    in the least significant word, so the generator ends where ``k`` single
    draws would leave it.
    """
    return np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")


@dataclass(frozen=True)
class TokenSource:
    """Seeded deterministic token stream; position ``total_tokens`` is the EOT label.

    Two sources with the same seed agree everywhere except at positions in
    ``divergence``, which model a paired device generating a different token.
    A position's token is ``f"{salt}{position}_{draw:04x}"`` with salt ``tok``,
    or ``alt`` inside the divergence set, so equality between sources is fixed
    by the salt. Each salt's draws come from one generator seeded
    ``f"{seed}:{salt}"``: one bulk draw of ``total_tokens`` outputs on the
    salt's first use, and position p takes the top 16 bits of output p.
    """

    seed: int
    total_tokens: int
    divergence: frozenset[int] = frozenset()
    _drawn: dict[str, list[int]] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.total_tokens < 1:
            raise ValueError("total_tokens must be >= 1")

    def token_at(self, position: int) -> str:
        if not 1 <= position <= self.total_tokens:
            raise ValueError(f"position {position} outside 1..{self.total_tokens}")
        if position == self.total_tokens:
            return EOT_TOKEN
        salt = "alt" if position in self.divergence else "tok"
        draws = self._drawn.get(salt)
        if draws is None:
            words = mt_words(random.Random(f"{self.seed}:{salt}"), self.total_tokens)
            draws = self._drawn[salt] = (words >> 16).tolist()
        return f"{salt}{position}_{draws[position - 1]:04x}"


@dataclass(frozen=True)
class SessionRecord:
    """Slot accounting for one served request."""

    request_id: str
    plan: Plan | None
    prompt_tokens: int
    ratio: float
    max_tokens: int | None  # None = stream until EOT
    tokens_emitted: int
    ttft_cloud_ms: float
    occupancy_ms: float
    slot_released_at_ms: float
    mask_payload_bytes: int
    planning_miss: bool


@dataclass(frozen=True)
class CloudTrace:
    """Timed emissions of one session plus its slot record."""

    frame_time_ms: float
    frame: FirstTokenFrame
    events: tuple[tuple[float, StreamEvent], ...]
    done_time_ms: float
    record: SessionRecord
    rtt_ms: float

    def delivery(self) -> list[tuple[float, StreamEvent | DoneMarker]]:
        """Timed stream as the device sees it (events then the DONE marker)."""
        timed: list[tuple[float, StreamEvent | DoneMarker]] = list(self.events)
        timed.append((self.done_time_ms, DONE))
        return timed

    def wire_bytes(self) -> bytes:
        """Exact bytes of the whole response stream."""
        out = encode_first_frame(self.frame)
        for _, event in self.events:
            out += encode_stream_event(StreamEvent(event.index, event.token))
        return out + encode_done()


def uniform_scores(prompt: TokenizedPrompt, seed: int | str) -> TokenScores:
    """Synthetic stand-in for attention-derived scores, deterministic per seed.

    Score i is bit-equal to the i-th ``random()`` of ``random.Random(f"scores:{seed}")``:
    each ``random()`` takes two 32-bit outputs ``w0, w1`` and returns
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53``, which is exact in float64,
    so all scores come from one bulk draw.
    """
    words = mt_words(random.Random(f"scores:{seed}"), 2 * len(prompt.content)).reshape(-1, 2)
    return TokenScores(((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * (1.0 / 9007199254740992.0))


def serve_request(
    req: AssistRequest,
    prompt: TokenizedPrompt,
    plan_table: PlanTable | None,
    model: TimingModel,
    source: TokenSource,
    *,
    start_ms: float = 0.0,
    rtt_ms: float | None = None,
    ratio_override: float | None = None,
    max_tokens_override: int | None = None,
    scores: TokenScores | None = None,
) -> CloudTrace:
    """Serve one request: refine, piggyback the first token, stream, terminate.

    ``prompt`` is the request's reference tokenization, shared with the
    device; the mask is computed over it. ``scores`` are the content scores
    to select by; when absent they are ``uniform_scores(prompt, request_id)``.
    A missing plan serves with ratio 1 and no budget (stream until EOT) and is
    flagged as a planning miss. Overrides pin the sweep variant's ratio or
    budget regardless of the plan.
    """
    plan = plan_table.lookup(req.scene, req.device_class, prompt.total_tokens) if plan_table else None
    miss = plan is None
    if ratio_override is not None:
        ratio = ratio_override
    else:
        ratio = 1.0 if miss else plan.ratio
    budget: int | None
    if max_tokens_override is not None:
        budget = max_tokens_override
    else:
        budget = None if miss else plan.max_tokens

    rtt = model.rtt_class.mean_ms if rtt_ms is None else rtt_ms
    first_token_at = start_ms + ttft_cloud(model, prompt.total_tokens, ratio, rtt)

    if ratio >= 1.0:
        scores = TokenScores(np.zeros(len(prompt.content)))
    elif scores is None:
        scores = uniform_scores(prompt, req.request_id)
    mask = select_sentences(prompt, scores, ratio)
    compressed = pack(mask)

    emit_total = source.total_tokens if budget is None else min(budget, source.total_tokens)
    frame = FirstTokenFrame(
        token=source.token_at(1),
        mask=compressed,
        max_tokens=0 if budget is None else budget,
    )
    events = tuple(
        (
            first_token_at + i * model.tpot_cloud,
            StreamEvent(index=i, token=source.token_at(i + 1), terminal=(i == emit_total - 1)),
        )
        for i in range(1, emit_total)
    )
    done_time = events[-1][0] if events else first_token_at
    occupancy = request_occupancy(first_token_at - start_ms, model.tpot_cloud, emit_total)
    record = SessionRecord(
        request_id=req.request_id,
        plan=plan,
        prompt_tokens=prompt.total_tokens,
        ratio=ratio,
        max_tokens=budget,
        tokens_emitted=emit_total,
        ttft_cloud_ms=first_token_at - start_ms,
        occupancy_ms=occupancy,
        slot_released_at_ms=start_ms + occupancy,
        mask_payload_bytes=len(compressed.payload),
        planning_miss=miss,
    )
    return CloudTrace(
        frame_time_ms=first_token_at,
        frame=frame,
        events=events,
        done_time_ms=done_time,
        record=record,
        rtt_ms=rtt,
    )


@dataclass(frozen=True)
class BatchModel:
    """Decode-slot pool with a FIFO queue; closed-loop or Poisson arrivals."""

    slots: int
    mode: str = "closed"  # "closed" | "poisson"
    arrival_rate_per_s: float | None = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.mode not in ("closed", "poisson"):
            raise ValueError(f"unknown batch mode {self.mode!r}")
        if self.mode == "poisson" and (self.arrival_rate_per_s is None or self.arrival_rate_per_s <= 0):
            raise ValueError("poisson mode needs a positive arrival rate")


@dataclass(frozen=True)
class ThroughputResult:
    tps: float
    analytic_tps: float


def run_throughput(
    batch: BatchModel,
    occupancies_ms: Sequence[float],
    completions: int,
    *,
    seed: int = 0,
) -> ThroughputResult:
    """Measure steady-state completions per second over the occupancy population.

    Requests cycle through ``occupancies_ms``. All ``completions + slots``
    admitted requests complete; the first ``slots`` completions are warmup,
    so the measurement window holds exactly ``completions``. The returned
    analytic rate is slots / mean occupancy for cross-checks.
    """
    if not occupancies_ms:
        raise ValueError("need at least one occupancy sample")
    if any(t <= 0 for t in occupancies_ms):
        raise ValueError("occupancies must be positive")
    if completions < 1:
        raise ValueError("completions must be >= 1")

    loop = EventLoop()
    rng = random.Random(f"throughput:{seed}")
    target = completions + batch.slots  # warmup + measured
    admitted = in_flight = queued = done = started = 0
    window_start = last_done = 0.0

    def start() -> None:
        nonlocal in_flight, started
        occupancy = occupancies_ms[started % len(occupancies_ms)]
        started += 1
        in_flight += 1
        loop.schedule_after(occupancy, complete)

    def complete() -> None:
        nonlocal in_flight, queued, done, admitted, window_start, last_done
        in_flight -= 1
        done += 1
        assert admitted == done + in_flight + queued
        last_done = loop.now
        if done == batch.slots:
            window_start = loop.now
        if batch.mode == "closed":
            if done + in_flight < target:
                admitted += 1
                start()
        elif queued:
            queued -= 1
            start()

    if batch.mode == "closed":
        admitted = batch.slots
        for _ in range(batch.slots):
            start()
    else:
        rate_per_ms = batch.arrival_rate_per_s / 1000.0

        def arrive() -> None:
            nonlocal admitted, queued
            if admitted >= target:
                return
            admitted += 1
            if in_flight < batch.slots:
                start()
            else:
                queued += 1
            loop.schedule_after(rng.expovariate(rate_per_ms), arrive)

        loop.schedule_after(rng.expovariate(rate_per_ms), arrive)

    loop.run()
    window = last_done - window_start
    mean_occ = sum(occupancies_ms) / len(occupancies_ms)
    return ThroughputResult(
        tps=completions / (window / 1000.0) if window > 0 else 0.0,
        analytic_tps=batch.slots / (mean_occ / 1000.0),
    )
