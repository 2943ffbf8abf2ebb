"""Shared test utilities: independent oracles and synthetic data builders."""

from __future__ import annotations

import base64
import json
import math
import random
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from pdsim import protocol
from pdsim.cli import _WEIGHT_HEADER
from pdsim.cloudsim import EOT_TOKEN, CloudTrace, TokenSource, refine, serve_request, uniform_scores
from pdsim.devicesim import CorrectionPolicy, StallError
from pdsim.eventloop import EventLoop
from pdsim.maskcodec import unpack
from pdsim.planner import PlanConstraints
from pdsim.protocol import DoneMarker, FirstTokenFrame, ProtocolError, StreamEvent
from pdsim.refiner import SelectionMask, TokenScores, TokenizedPrompt, tokenize
from pdsim.timing import AffineCost, RttClass, TimingModel, prefill_device, smoothed_tpot, ttft_cloud, ttft_device


def feasible_by_substitution(model: TimingModel, constraints: PlanConstraints, prompt_tokens: int,
                             ratio: float, budget):
    """Whether (ratio, budget) meets every planning constraint at the mean RTT,
    checked by substitution into the raw inequalities. ``budget`` may be an
    integer array; the answer is then one bool per budget.

    Deliberately independent of the closed form: the ratio pays off when, at
    the p95 RTT, the assisted device is ready no later than the device alone.
    """
    steps = np.asarray(budget) - 1
    refined_prefill = model.k_device * ratio * prompt_tokens
    ready_p95 = ttft_device(model, prompt_tokens, refined_prefill, ttft_cloud(model, prompt_tokens, model.rtt.p95_ms))
    ratio_ok = constraints.min_ratio <= ratio and ready_p95 <= model.k_device * prompt_tokens
    tc = ttft_cloud(model, prompt_tokens, model.rtt.mean_ms)
    td = ttft_device(model, prompt_tokens, refined_prefill, tc)
    pace_ok = refined_prefill - tc <= steps * (constraints.max_tpot_ms - model.tpot_device)
    occupancy_ok = tc + steps * model.tpot_cloud <= td
    stream_ok = model.tpot_cloud <= constraints.max_tpot_ms  # each shown position waits for its arrival
    feasible = ratio_ok & (steps >= 1) & pace_ok & occupancy_ok & stream_ok
    return feasible if np.ndim(feasible) else bool(feasible)


def brute_force_plan(model: TimingModel, constraints: PlanConstraints, prompt_tokens: int, max_budget: int = 4096):
    """Grid search over ratio (step 0.01) and budget by ``feasible_by_substitution``.
    Returns the (ratio, budget) of least device TTFT, then least budget, or None."""
    budgets = np.arange(2, max_budget + 1)
    best = None
    for step in range(1, 101):
        ratio = step / 100.0
        feasible = feasible_by_substitution(model, constraints, prompt_tokens, ratio, budgets)
        if not feasible.any():
            continue
        tc = ttft_cloud(model, prompt_tokens, model.rtt.mean_ms)
        td = ttft_device(model, prompt_tokens, prefill_device(model, prompt_tokens, ratio), tc)
        candidate = (td, int(budgets[int(np.argmax(feasible))]), ratio)
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
    model = TimingModel(
        k_cloud=k_cloud,
        k_device=k_device,
        tpot_cloud=rng.uniform(15.0, 50.0),
        tpot_device=tpot_device,
        rtt=RttClass(mean_ms=rng.uniform(10.0, 150.0), jitter_ms=0.0),
        compress=AffineCost(rng.uniform(0.0, 30.0), rng.uniform(0.005, 0.03)),
        decompress=AffineCost(rng.uniform(0.0, 15.0), rng.uniform(0.002, 0.015)),
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


@dataclass(frozen=True)
class Session:
    """A request as ``serve_request`` and ``run_session`` read it, as the harness's ``GeneratedRequest`` holds it."""

    request_id: str
    prompt: TokenizedPrompt
    arrival_ms: float = 0.0


def serve_at(prompt: TokenizedPrompt, model: TimingModel, source: TokenSource, ratio: float, max_tokens: int, *,
             request_id: str = "req-1", start_ms: float = 0.0, rtt_ms: float | None = None) -> CloudTrace:
    """``serve_request`` of ``Session(request_id, prompt, start_ms)`` at (ratio, max_tokens).

    It selects by ``uniform_scores(prompt, request_id)``; ``rtt_ms`` defaults to the model's mean RTT.
    """
    mask = refine(prompt, uniform_scores(prompt, request_id), ratio)
    return serve_request(
        Session(request_id, prompt, start_ms), model, source, mask, max_tokens=max_tokens,
        rtt_ms=model.rtt.mean_ms if rtt_ms is None else rtt_ms,
    )


def write_weight_dump(path: str | Path, weights: list[np.ndarray], hidden: int) -> None:
    """Write per-head (window, keys) weight matrices in the ``pd refine`` dump format."""
    heads = len(weights)
    window, keys = weights[0].shape
    blob = _WEIGHT_HEADER.pack(heads, window, keys, hidden)
    blob += np.stack(weights).astype("<f4").tobytes()
    Path(path).write_bytes(blob)


def synthetic_texts(rng: random.Random, n_sentences: int, prefix_tokens: int = 3, suffix_tokens: int = 2,
                    sentence_len: tuple[int, int] = (3, 9)) -> tuple[str, str, str]:
    """Small prompt texts (prefix, content, suffix) with explicit sentence structure for selection tests."""
    prefix = " ".join(f"p{i}" for i in range(prefix_tokens))
    suffix = " ".join(f"s{i}" for i in range(suffix_tokens))
    sentences = []
    for s in range(n_sentences):
        words = rng.randint(*sentence_len)
        sentences.append(" ".join(f"c{s}x{w}" for w in range(words)) + ".")
    return prefix, " ".join(sentences), suffix


def synthetic_prompt(rng: random.Random, n_sentences: int) -> TokenizedPrompt:
    """The shape of ``synthetic_texts``."""
    return TokenizedPrompt.from_text(*synthetic_texts(rng, n_sentences))


# --- reference frame encoders: compact json.dumps, the bytes the direct formatting must match ---


def _reference_frame(body: dict) -> bytes:
    return b"data: " + json.dumps(body, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n\n"


def reference_encode_stream_event(event: StreamEvent) -> bytes:
    return _reference_frame({"i": event.index, "token": event.token})


def reference_encode_first_frame(frame: FirstTokenFrame) -> bytes:
    mask_b64 = base64.b64encode(frame.mask.payload).decode("ascii")
    return _reference_frame({"first_token": frame.token, "mask_b64": mask_b64, "L": frame.max_tokens})


# --- reference frame decoder: every frame body through json.loads ---------------

# an event body as encode_stream_event writes it: an index of 1-18 digits without a leading zero, then one
# JSON string, which json.loads judges
_EVENT_BODY = re.compile(rb'\{"i":[1-9][0-9]{0,17},"token":"(?:[^"\\]|\\.)*"\}', re.DOTALL)


class ReferenceSseDecoder:
    """The per-frame JSON reference for SseDecoder, without its run path: each frame is found on its own and
    each non-[DONE] body goes through ``protocol._parse_json``. A body is an event when it fullmatches
    ``_EVENT_BODY`` and ``json.loads`` reads it; its index and token are then the ones json.loads reads. Any
    other body must be a first frame, which ``protocol._parse_first_json`` judges."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._scanned = 0  # leading bytes of _buf known to hold no frame boundary
        self._pending: list[FirstTokenFrame | StreamEvent | DoneMarker] = []

    def feed(self, data: bytes) -> list[FirstTokenFrame | StreamEvent | DoneMarker]:
        buf = self._buf
        buf += data
        items, self._pending = self._pending, []
        start = 0  # first byte of the next unconsumed frame
        idx = buf.find(protocol.FRAME_SUFFIX, self._scanned)
        while idx >= 0:
            frame_start, start = start, idx + len(protocol.FRAME_SUFFIX)
            try:
                items.append(self._parse_frame(buf, frame_start, idx))
            except ProtocolError:
                self._consume(start, scanned=0)
                self._pending = items
                raise
            idx = buf.find(protocol.FRAME_SUFFIX, start)
        if len(buf) - start > protocol._MAX_BUFFER:
            self._consume(len(buf), scanned=0)
            self._pending = items
            raise ProtocolError("unbounded garbage without a frame boundary")
        # a boundary may straddle the next feed, so its first byte is searched again
        self._consume(start, scanned=max(len(buf) - start - len(protocol.FRAME_SUFFIX) + 1, 0))
        return items

    def _consume(self, end: int, *, scanned: int) -> None:
        del self._buf[:end]
        self._scanned = scanned

    @staticmethod
    def _parse_frame(buf: bytearray, start: int, end: int) -> FirstTokenFrame | StreamEvent | DoneMarker:
        if not buf.startswith(protocol.FRAME_PREFIX, start, end):
            raise ProtocolError("frame must start with 'data: '")
        body = buf[start + len(protocol.FRAME_PREFIX) : end]
        if body == protocol.DONE_BODY:
            return protocol.DONE
        obj = protocol._parse_json(body)
        if _EVENT_BODY.fullmatch(body):
            return StreamEvent(index=obj["i"], token=obj["token"])
        if "first_token" in obj:
            return protocol._parse_first_json(obj)
        raise ProtocolError("frame body is neither a first frame, an event as encode_stream_event writes it, nor [DONE]")


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
    """(prefix, content, sentence labels, suffix) built sentence by sentence, token by token."""
    content_tokens: list[str] = []
    ids: list[int] = []
    for sid, sentence in enumerate(reference_split_sentences(content)):
        toks = tokenize(sentence)
        content_tokens.extend(toks)
        ids.extend([sid] * len(toks))
    return tuple(tokenize(prefix)), tuple(content_tokens), tuple(ids), tuple(tokenize(suffix))


def sentence_labels(prompt: TokenizedPrompt) -> np.ndarray:
    """Each content token's sentence, from ``sentence_sizes``: 0 for the first sentence's tokens, then 1, and so on."""
    return np.repeat(np.arange(len(prompt.sentence_sizes)), np.asarray(prompt.sentence_sizes, dtype=np.int64))


def reference_sentence_order(prompt: TokenizedPrompt, scores: TokenScores) -> list[int]:
    """np.add.at sums per sentence, then a Python sort on (-mean, sentence id)."""
    n_sentences = len(prompt.sentence_sizes)
    ids = sentence_labels(prompt)
    totals = np.zeros(n_sentences)
    counts = np.zeros(n_sentences)
    np.add.at(totals, ids, scores.scores)
    np.add.at(counts, ids, 1.0)
    means = totals / counts
    return sorted(range(n_sentences), key=lambda sid: (-means[sid], sid))


def reference_select_sentences(prompt: TokenizedPrompt, scores: TokenScores, ratio: float) -> SelectionMask:
    """Greedy loop that counts each chosen sentence's tokens with (ids == sid).sum()."""
    bits = np.ones(prompt.total_tokens, dtype=np.uint8)
    n_content = prompt.content_tokens
    if n_content == 0 or ratio == 1.0:
        return SelectionMask(bits)
    budget = math.ceil(ratio * n_content)
    ids = sentence_labels(prompt)
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
                                suffix_tokens: int) -> tuple[str, str, str, tuple[int, ...]]:
    """One ``randrange(10000)`` per word and one ``randint(8, 32)`` per sentence length.

    Also returns each content sentence's token count.
    """
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

    sentences, sizes = [], []
    remaining = content_target
    while remaining > 0:
        words = rng.randint(8, 32)
        if remaining - (words + 1) < 10:
            words = remaining - 1
        if words <= 0:
            sentences.append(word())  # single-token tail without a terminator
            sizes.append(1)
            break
        sentences.append(" ".join(word() for _ in range(words)) + ".")
        sizes.append(words + 1)
        remaining -= words + 1
    return prefix, " ".join(sentences), suffix, tuple(sizes)


def reference_uniform_scores(prompt: TokenizedPrompt, seed: int | str) -> TokenScores:
    """One ``random()`` per content token."""
    rng = random.Random(f"scores:{seed}")
    return TokenScores(np.array([rng.random() for _ in range(prompt.content_tokens)]))


# --- reference device session: every decode step is its own loop event ---------


@dataclass(frozen=True)
class ReferenceTrace:
    """What a device session shows and counts, every display listed."""

    user_ttft_ms: float
    ttft_device_ms: float
    tpot_smooth_ms: float | None
    displays: tuple[tuple[float, int, str], ...]  # (time, position, token shown)
    corrections: int
    common_prefix_len: int
    max_smoothed_gap_ms: float | None
    handover_gap_ms: float | None
    refined_tokens: int

    @property
    def output_len(self) -> int:
        return len(self.displays)


OBSERVED = (*(f.name for f in fields(ReferenceTrace)), "output_len")


def observed(trace) -> dict:
    """A device trace or a ``ReferenceTrace`` as its observed values, by name."""
    return {name: getattr(trace, name) for name in OBSERVED}


class ReferenceSession:
    """The device session one event per decode step, the form run_session must match.

    At an equal instant a decode runs before a show.
    """

    def __init__(
        self,
        req: object,
        prompt: TokenizedPrompt,
        frame: FirstTokenFrame,
        timed_stream: list[tuple[float, StreamEvent | DoneMarker]],
        model: TimingModel,
        source: TokenSource,
        policy: CorrectionPolicy,
        start_ms: float,
        frame_time_ms: float,
    ) -> None:
        self.model = model
        self.source = source
        self.policy = policy
        self.start = start_ms
        self.frame_time = frame_time_ms
        self.frame = frame
        self.budget = frame.max_tokens

        self.prompt_tokens = prompt.total_tokens
        mask = unpack(frame.mask)
        if len(mask) != prompt.total_tokens:
            raise ProtocolError(
                f"mask carries {len(mask)} bits for a {prompt.total_tokens}-token prompt"
            )
        self.refined_tokens = mask.popcount()
        self.prefill_est = model.k_device * mask.popcount()

        self.user_ttft = frame_time_ms - start_ms
        self.tpot_smooth: float | None = None
        if self.budget >= 2:
            self.tpot_smooth = smoothed_tpot(model, self.prefill_est, self.user_ttft, self.budget)

        self.events = sorted(
            ((t, item) for t, item in timed_stream if isinstance(item, StreamEvent)),
            key=lambda pair: pair[0],
        )
        self.done_time = max(
            (t for t, item in timed_stream if isinstance(item, DoneMarker)), default=None
        )

        # arrival buffer shared by the two branches
        self.cloud: dict[int, str] = {1: frame.token}
        self.arrivals: dict[int, float] = {1: frame_time_ms}
        self.cloud_done = False
        self.cloud_last = 1 + len(self.events)

        self.device_tokens: dict[int, str] = {}
        self.decode_time: dict[int, float] = {}
        self.displays: list[tuple[float, int, str]] = []
        self.corrections = 0
        self.pos_next = 1
        self.display_pending = False
        self.finished = False
        self.ttft_device: float | None = None

        self.loop = EventLoop(start_ms=min(start_ms, frame_time_ms))

    # --- wiring -----------------------------------------------------------

    def run(self) -> ReferenceTrace:
        self._check_conformance()
        self.loop.schedule_at(self.frame_time, self._on_frame)
        for when, event in self.events:
            self.loop.schedule_at(when, lambda e=event: self._on_arrival(e))
        if self.done_time is not None:
            self.loop.schedule_at(self.done_time, self._on_done)
        self.loop.run()
        return self._trace()

    def _check_conformance(self) -> None:
        if self.done_time is None and len(self.events) < self.budget - 1:
            raise StallError(f"stream ended after {len(self.events)} events without [DONE]")

    # --- branch 2: display -------------------------------------------------

    def _on_frame(self) -> None:
        if self.frame.token == EOT_TOKEN:
            self._finish()
            return
        self.displays.append((self.loop.now, 1, self.frame.token))
        self.pos_next = 2
        self._start_decode_branch()
        self._advance_display()

    def _advance_display(self) -> None:
        if self.finished or self.display_pending:
            return
        p = self.pos_next
        if p <= self.budget:
            if p in self.cloud:
                due = self.frame_time + (p - 1) * (self.tpot_smooth or 0.0)
                when = max(due, self.arrivals[p], self.loop.now)
                if self.displays:
                    when = max(when, self.displays[-1][0])
                self.display_pending = True
                self.loop.schedule_at(when, lambda pos=p: self._show_cloud(pos))
            elif self.cloud_done and p > self.cloud_last:
                self._advance_device_display()
            # else: the arrival callback resumes the chain
        else:
            self._advance_device_display()

    def _show_cloud(self, position: int, requeued: bool = False) -> None:
        if not requeued:
            # a decode at this instant was queued one tpot_device ago: going
            # back in the queue once lets it run first
            self.loop.schedule_at(self.loop.now, lambda: self._show_cloud(position, requeued=True))
            return
        self.display_pending = False
        if self.finished:
            return
        token = self.cloud[position]
        if token == EOT_TOKEN:
            self._finish()
            return
        shown = token
        if self.policy is CorrectionPolicy.DEVICE_DISPLAY:
            own = self.device_tokens.get(position)
            ready = self.decode_time.get(position, math.inf) <= self.loop.now
            if own is not None and ready and own != token and own != EOT_TOKEN:
                shown = own  # no retroactive edits: only this position changes
                self.corrections += 1
        self.displays.append((self.loop.now, position, shown))
        self.pos_next = position + 1
        self._advance_display()

    def _advance_device_display(self) -> None:
        while True:
            p = self.pos_next
            token = self.device_tokens.get(p)
            if token is None:
                return  # decode callback resumes the chain
            if token == EOT_TOKEN:
                self._finish()
                return
            when = max(self.loop.now, self.displays[-1][0] if self.displays else self.loop.now)
            self.displays.append((when, p, token))
            self.pos_next = p + 1

    def _on_arrival(self, event: StreamEvent) -> None:
        position = event.index + 1
        self.cloud[position] = event.token
        self.arrivals[position] = self.loop.now
        if not self.finished:
            self._advance_display()

    def _on_done(self) -> None:
        self.cloud_done = True
        if not self.finished:
            self._advance_display()

    # --- branch 1: prefill + decode with correction -------------------------

    def _start_decode_branch(self) -> None:
        recover = self.model.decompress(self.prompt_tokens)
        self.loop.schedule_at(self.frame_time + recover + self.prefill_est, self._on_prefill_done)

    def _on_prefill_done(self) -> None:
        self.ttft_device = self.loop.now - self.start
        if self.finished:
            return
        self.loop.schedule_after(self.model.tpot_device, lambda: self._on_decode(2))

    def _on_decode(self, position: int) -> None:
        if self.finished:
            return
        if position <= self.source.total_tokens:
            raw = self.source.token_at(position)
        else:
            raw = EOT_TOKEN  # own stream exhausted past a corrected EOT
        self.device_tokens[position] = raw
        self.decode_time[position] = self.loop.now

        effective = raw
        cloud_token = self.cloud.get(position)
        in_scope = cloud_token is not None and position <= self.budget
        if in_scope and raw != cloud_token and self.policy is CorrectionPolicy.CLOUD_WINS:
            self.corrections += 1
            effective = cloud_token
        if not self.display_pending:
            self._advance_display()
        if effective == EOT_TOKEN:
            self._advance_display()
            return
        self.loop.schedule_after(self.model.tpot_device, lambda: self._on_decode(position + 1))

    def _finish(self) -> None:
        self.finished = True

    # --- assembly -----------------------------------------------------------

    def _trace(self) -> ReferenceTrace:
        window_end = min(self.budget, self.cloud_last)
        window_times = [t for t, p, _ in self.displays if p <= window_end]
        gaps = [b - a for a, b in zip(window_times, window_times[1:])]
        device_times = [t for t, p, _ in self.displays if p > window_end]
        handover = device_times[0] - window_times[-1] if device_times and window_times else None

        common = 0
        for position in range(1, min(self.cloud_last, self.source.total_tokens) + 1):
            if position not in self.cloud or self.cloud[position] != self.source.token_at(position):
                break
            common += 1

        if self.ttft_device is None:
            # a cloud EOT in the frame: the prefill never ran; the instant _on_prefill_done would have seen
            recover = self.model.decompress(self.prompt_tokens)
            self.ttft_device = self.frame_time + recover + self.prefill_est - self.start
        return ReferenceTrace(
            user_ttft_ms=self.user_ttft,
            ttft_device_ms=self.ttft_device,
            tpot_smooth_ms=self.tpot_smooth,
            displays=tuple(self.displays),
            corrections=self.corrections,
            common_prefix_len=common,
            max_smoothed_gap_ms=max(gaps) if gaps else None,
            handover_gap_ms=handover,
            refined_tokens=self.refined_tokens,
        )


def reference_run_session(req, stream, model, device_source, policy=CorrectionPolicy.CLOUD_WINS) -> ReferenceTrace:
    """run_session's contract, simulated by ReferenceSession; the stream opens with the timed frame."""
    (frame_time_ms, frame), *rest = stream
    return ReferenceSession(req, req.prompt, frame, rest, model, device_source, policy,
                            req.arrival_ms, frame_time_ms).run()


# --- reference throughput simulator: a state dict, a queue list and every completion time ---


def reference_run_throughput(batch, occupancies_ms, *, seed: int = 0) -> tuple[float, float]:
    """(tps, analytic_tps) of the slot-pool simulation, with each admit path written out.

    Closed mode admits on completion; Poisson mode admits on arrival and
    starts a queued request on completion. The first ``slots`` completions
    are warmup; the window runs from the last of them to the final one.
    """
    loop = EventLoop()
    rng = random.Random(f"throughput:{seed}")
    state = {"admitted": 0, "in_flight": 0, "done": 0, "next": 0, "window_start": None, "window_done": 0}
    queue: list[int] = []
    target = batch.completions + batch.slots
    done_times: list[float] = []

    def occupancy_of(index: int) -> float:
        return occupancies_ms[index % len(occupancies_ms)]

    def admit() -> None:
        index = state["next"]
        state["next"] += 1
        state["admitted"] += 1
        state["in_flight"] += 1
        loop.schedule_after(occupancy_of(index), complete)

    def complete() -> None:
        state["in_flight"] -= 1
        state["done"] += 1
        assert state["admitted"] == state["done"] + state["in_flight"] + len(queue)
        done_times.append(loop.now)
        if state["done"] == batch.slots:
            state["window_start"] = loop.now
        elif state["window_start"] is not None and state["done"] <= target:
            state["window_done"] += 1
        if batch.mode == "closed":
            if state["done"] + state["in_flight"] < target:
                admit()
        elif queue and state["in_flight"] < batch.slots:
            queue.pop(0)
            state["in_flight"] += 1
            index = state["next"]
            state["next"] += 1
            loop.schedule_after(occupancy_of(index), complete)

    if batch.mode == "closed":
        for _ in range(min(batch.slots, target)):
            admit()
    else:
        rate_per_ms = batch.arrival_rate_per_s / 1000.0

        def arrive() -> None:
            if state["admitted"] >= target:
                return
            state["admitted"] += 1
            if state["in_flight"] < batch.slots:
                state["in_flight"] += 1
                index = state["next"]
                state["next"] += 1
                loop.schedule_after(occupancy_of(index), complete)
            else:
                queue.append(1)
            loop.schedule_after(rng.expovariate(rate_per_ms), arrive)

        loop.schedule_after(rng.expovariate(rate_per_ms), arrive)

    loop.run()
    window_start = state["window_start"] if state["window_start"] is not None else 0.0
    window = done_times[-1] - window_start if done_times else 0.0
    tps = state["window_done"] / (window / 1000.0) if window > 0 else 0.0
    mean_occ = sum(occupancy_of(i) for i in range(len(occupancies_ms))) / len(occupancies_ms)
    return tps, batch.slots / (mean_occ / 1000.0)
