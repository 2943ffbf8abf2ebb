"""Device-side session: request, first-token response, then two parallel branches.

Branch 2 displays the cloud-assisted tokens at the smoothed pace computed
once at first-frame arrival (stream events that arrive early are buffered;
a late token pauses the display rather than extrapolating). Branch 1 runs
the postponed prefill over the refined prompt and then decodes at device
speed, with the token corrector comparing against received cloud tokens.
Both branches are callbacks on one deterministic event loop; the only state
they share is the arrival buffer.

Once the display has passed the cloud window, caught up with decoding and
nothing else is pending, every later step is fixed: no stream item can
arrive and no correction applies. The decode callback then finishes the
device tail in one pass instead of one loop event per token.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .cloudsim import EOT_TOKEN, TokenSource
from .eventloop import EventLoop
from .maskcodec import unpack
from .protocol import AssistRequest, DoneMarker, FirstTokenFrame, ProtocolError, StreamEvent
from .refiner import TokenizedPrompt
from .timing import TimingModel, prefill_device, smoothed_tpot


class StallError(Exception):
    """The cloud stream ended short of its budget without a terminal marker."""


class CorrectionPolicy(Enum):
    OFF = "off"
    CLOUD_WINS = "cloud_wins"
    DEVICE_DISPLAY = "device_display"


@dataclass(frozen=True)
class DisplaySchedule:
    """Pacing of the assisted window; anchored at first-token arrival."""

    start_ms: float
    count: int  # decode tokens paced by the schedule
    tpot_smooth_ms: float


@dataclass(frozen=True)
class ScrubRule:
    pattern: str
    replacement: str


DEFAULT_SCRUB_RULES: tuple[ScrubRule, ...] = (ScrubRule(r"\d{11}", "[PHONE]"),)


def scrub(text: str, rules: Sequence[ScrubRule] = DEFAULT_SCRUB_RULES) -> str:
    """Pattern-substitution hook applied before a prompt leaves the device."""
    for rule in rules:
        text = re.sub(rule.pattern, rule.replacement, text)
    return text


@dataclass(frozen=True)
class DeviceTrace:
    """Everything observed on the device for one session."""

    request_id: str
    user_ttft_ms: float          # first-frame arrival; what the user perceives
    ttft_device_ms: float        # mask recovery + refined prefill completed
    tpot_smooth_ms: float | None
    schedule: DisplaySchedule | None
    displays: tuple[tuple[float, int, str], ...]  # (time, position, token shown)
    output_tokens: tuple[str, ...]
    corrections: int
    common_prefix_len: int
    max_smoothed_gap_ms: float | None
    handover_gap_ms: float | None
    cloud_tokens_received: int
    cloud_eot: bool
    device_eot_position: int | None
    decode_caught_up_ms: float | None
    stream_complete_ms: float
    refined_tokens: int


class _Session:
    """One device session wired onto an event loop; see run_session.

    The mask is checked against the request's shared tokenization, and only
    the prompt length and the refined length are kept from it.
    """

    def __init__(
        self,
        req: AssistRequest,
        prompt: TokenizedPrompt,
        frame: FirstTokenFrame,
        timed_stream: list[tuple[float, StreamEvent | DoneMarker]],
        model: TimingModel,
        source: TokenSource,
        policy: CorrectionPolicy,
        start_ms: float,
        frame_time_ms: float,
    ) -> None:
        self.request_id = req.request_id
        self.model = model
        self.source = source
        self.policy = policy
        self.start = start_ms
        self.frame_time = frame_time_ms
        self.frame = frame
        self.budget = frame.max_tokens  # 0 = until EOT

        self.prompt_tokens = prompt.total_tokens
        mask = unpack(frame.mask)
        if len(mask) != prompt.total_tokens:
            raise ProtocolError(
                f"mask carries {len(mask)} bits for a {prompt.total_tokens}-token prompt"
            )
        self.refined_tokens = mask.popcount()
        self.prefill_est = prefill_device(model, self.refined_tokens)

        self.user_ttft = frame_time_ms - start_ms
        if self.budget >= 2:
            self.tpot_smooth: float | None = smoothed_tpot(
                model, self.prefill_est, self.user_ttft, self.budget
            )
            self.schedule: DisplaySchedule | None = DisplaySchedule(
                start_ms=frame_time_ms, count=self.budget - 1, tpot_smooth_ms=self.tpot_smooth
            )
        else:
            self.tpot_smooth = None
            self.schedule = None

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
        self.cloud_eot = False
        self.device_eot_position: int | None = None
        self.ttft_device: float | None = None

        self.loop = EventLoop(start_ms=min(start_ms, frame_time_ms))

    # --- wiring -----------------------------------------------------------

    def run(self) -> DeviceTrace:
        self._check_conformance()
        self.loop.schedule_at(self.frame_time, self._on_frame)
        for when, event in self.events:
            self.loop.schedule_at(when, lambda e=event: self._on_arrival(e))
        if self.done_time is not None:
            self.loop.schedule_at(self.done_time, self._on_done)
        self.loop.run()
        return self._trace()

    def _check_conformance(self) -> None:
        if self.done_time is None:
            short = self.budget >= 2 and len(self.events) < self.budget - 1
            if short or self.budget == 0:
                last = self.events[-1][0] if self.events else self.frame_time
                wait = 5 * (self.tpot_smooth or self.model.tpot_device)
                raise StallError(
                    f"stream ended after {len(self.events)} events without [DONE]; "
                    f"display branch gave up at {last + wait:.1f} ms"
                )

    # --- branch 2: display -------------------------------------------------

    def _on_frame(self) -> None:
        if self.frame.token == EOT_TOKEN:
            self.cloud_eot = True
            self._finish()
            return
        self.displays.append((self.loop.now, 1, self.frame.token))
        self.pos_next = 2
        self._start_decode_branch()
        self._advance_display()

    def _in_cloud_window(self, position: int) -> bool:
        if self.budget == 0:
            return not self.cloud_done or position <= self.cloud_last
        return position <= self.budget

    def _advance_display(self) -> None:
        if self.finished or self.display_pending:
            return
        p = self.pos_next
        if self._in_cloud_window(p):
            if p in self.cloud:
                due = self.frame_time + (p - 1) * (self.tpot_smooth or 0.0)
                when = max(due, self.arrivals[p], self.loop.now)
                if self.displays:
                    when = max(when, self.displays[-1][0])
                self.display_pending = True
                self.loop.schedule_at(when, lambda pos=p: self._show_cloud(pos))
            elif self.cloud_done and p > self.cloud_last:
                self._advance_device_display(self.loop.now)
            # else: the arrival callback resumes the chain
        else:
            self._advance_device_display(self.loop.now)

    def _show_cloud(self, position: int) -> None:
        self.display_pending = False
        if self.finished:
            return
        token = self.cloud[position]
        if token == EOT_TOKEN:
            self.cloud_eot = True
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

    def _past_cloud_window(self, position: int) -> bool:
        return not self._in_cloud_window(position) or (self.cloud_done and position > self.cloud_last)

    def _advance_device_display(self, now: float) -> None:
        while True:
            p = self.pos_next
            token = self.device_tokens.get(p)
            if token is None:
                return  # decode callback resumes the chain
            if token == EOT_TOKEN:
                self._finish()
                return
            when = max(now, self.displays[-1][0] if self.displays else now)
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
        recover = self.model.decompress_cost(self.prompt_tokens)
        self.loop.schedule_at(self.frame_time + recover + self.prefill_est, self._on_prefill_done)

    def _on_prefill_done(self) -> None:
        self.ttft_device = self.loop.now - self.start
        if self.finished:
            return
        self.loop.schedule_after(self.model.tpot_device, lambda: self._on_decode(2))

    def _decode(self, position: int, now: float) -> str:
        if position <= self.source.total_tokens:
            raw = self.source.token_at(position)
        else:
            raw = EOT_TOKEN  # own stream exhausted past a corrected EOT
        self.device_tokens[position] = raw
        self.decode_time[position] = now
        return raw

    def _on_decode(self, position: int) -> None:
        if self.finished:
            return
        raw = self._decode(position, self.loop.now)
        effective = raw
        cloud_token = self.cloud.get(position)
        in_scope = cloud_token is not None and (self.budget == 0 or position <= self.budget)
        if in_scope and raw != cloud_token and self.policy is CorrectionPolicy.CLOUD_WINS:
            self.corrections += 1
            effective = cloud_token
        if not self.display_pending:
            self._advance_display()
        if effective == EOT_TOKEN:
            self.device_eot_position = position
            self._advance_display()
            return
        if len(self.loop) == 0 and self.pos_next == position + 1 and self._past_cloud_window(position + 1):
            self._decode_tail(position + 1)
        else:
            self.loop.schedule_after(self.model.tpot_device, lambda: self._on_decode(position + 1))

    def _decode_tail(self, position: int) -> None:
        """Decode and display from ``position`` to the device EOT in one pass.

        Called with the loop empty and the display caught up past the cloud
        window, so nothing can interleave: each step is one ``tpot_device``
        after the previous one, summed as ``schedule_after`` would, and shown
        by the usual device display rule. Every position here is out of the
        corrector's scope, so no correction can happen.
        """
        now = self.loop.now
        while True:
            now += self.model.tpot_device
            raw = self._decode(position, now)
            self._advance_device_display(now)
            if raw == EOT_TOKEN:
                self.device_eot_position = position
                return
            position += 1

    def _finish(self) -> None:
        self.finished = True

    # --- assembly -----------------------------------------------------------

    def _trace(self) -> DeviceTrace:
        window_end = self.cloud_last if self.budget == 0 else min(self.budget, self.cloud_last)
        window_times = [t for t, p, _ in self.displays if p <= window_end]
        gaps = [b - a for a, b in zip(window_times, window_times[1:])]
        device_times = [t for t, p, _ in self.displays if p > window_end]
        handover = device_times[0] - window_times[-1] if device_times and window_times else None

        common = 0
        for position in range(1, min(self.cloud_last, self.source.total_tokens) + 1):
            if position not in self.cloud or self.cloud[position] != self.source.token_at(position):
                break
            common += 1

        stream_complete = self.events[-1][0] if self.events else self.frame_time
        if self.ttft_device is None:
            # session ended before prefill completed (e.g. instant cloud EOT)
            recover = self.model.decompress_cost(self.prompt_tokens)
            self.ttft_device = self.user_ttft + recover + self.prefill_est
        return DeviceTrace(
            request_id=self.request_id,
            user_ttft_ms=self.user_ttft,
            ttft_device_ms=self.ttft_device,
            tpot_smooth_ms=self.tpot_smooth,
            schedule=self.schedule,
            displays=tuple(self.displays),
            output_tokens=tuple(token for _, _, token in self.displays),
            corrections=self.corrections,
            common_prefix_len=common,
            max_smoothed_gap_ms=max(gaps) if gaps else None,
            handover_gap_ms=handover,
            cloud_tokens_received=self.cloud_last,
            cloud_eot=self.cloud_eot,
            device_eot_position=self.device_eot_position,
            decode_caught_up_ms=self.decode_time.get(self.cloud_last),
            stream_complete_ms=stream_complete,
            refined_tokens=self.refined_tokens,
        )


def run_session(
    req: AssistRequest,
    prompt: TokenizedPrompt,
    frame: FirstTokenFrame,
    stream: Iterable[tuple[float, StreamEvent | DoneMarker]],
    model: TimingModel,
    device_source: TokenSource,
    policy: CorrectionPolicy = CorrectionPolicy.CLOUD_WINS,
    *,
    start_ms: float = 0.0,
    frame_time_ms: float,
) -> DeviceTrace:
    """Simulate one device session and return its trace.

    ``prompt`` is the request's reference tokenization, the same one the
    cloud selected over; the device validates the mask length against it.
    ``stream`` holds (arrival time, event-or-DONE) pairs as produced by the
    cloud simulator. Raises ProtocolError on a mask/prompt mismatch and
    StallError when the stream is short without a terminal marker.
    """
    session = _Session(
        req=req,
        prompt=prompt,
        frame=frame,
        timed_stream=list(stream),
        model=model,
        source=device_source,
        policy=policy,
        start_ms=start_ms,
        frame_time_ms=frame_time_ms,
    )
    return session.run()
