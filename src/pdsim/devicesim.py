"""Device-side session: request, first-token response, then two parallel branches.

Branch 2 displays the cloud-assisted tokens at the smoothed pace computed
once at first-frame arrival; branch 1 runs the postponed prefill over the
refined prompt and then decodes at device speed, with the token corrector
comparing against the cloud tokens received so far. A session is a pure
function of its request (prompt shape and arrival time) and its timed
stream, the items ``protocol.SseDecoder`` yields in their order (the
first-token frame, the events, DONE), each with its arrival time, read
once in that order: each event carries the next index, and DONE ends the
stream. Arrival times need not increase. It is computed as three timelines:

- Cloud shows. The frame shows position 1 at its arrival F; position p is
  shown at ``w_p = max(F + (p - 1)·pace, a_p, w_{p-1})``, with ``a_p`` its
  arrival: an early stream item waits for its slot, a late one pauses the
  display. Shows cover the window, positions up to ``min(L, cloud_last)``,
  and stop at the cloud EOT, which ends the session. Under DEVICE_DISPLAY a
  show displays the device's own token instead when decode p ran by then and
  differs.
- Decodes. The prefill completes at ``F + recover + prefill``
  (``timing.ttft_device``); decode k runs at ``t_k``, one ``tpot_device``
  after decode k - 1 (after the prefill for k = 2). Under CLOUD_WINS,
  position k takes the cloud token when that token arrived at or before
  ``t_k`` and k is within L. Decoding stops at the effective EOT, or at the
  cloud-EOT show.
- Device display. Once the window is shown in full, position q is shown at
  ``max(t_q, begin)`` with its own token, up to the device EOT. ``begin``
  is the last window show, or ``max(last show, DONE)`` when the stream is
  shorter than L, since then only DONE says no more tokens come.

A session costs its cloud window, not its output length. The decode
instants are one array, accumulated in order (``np.add.accumulate``, bit-equal
to adding ``tpot_device`` once per decode). Only positions 2..cloud_last + 1
are stepped one at a time, in one decode loop that applies either policy's
correction and finds the effective EOT; it stops at the first decode after a
cloud-EOT show. Past those positions no cloud token is in scope, so the
device EOT is its own. The device display is described, not listed: the
trace keeps its first position, its slice of the timeline, ``begin`` and the
device source, and ``DeviceTrace.displays`` expands it on demand.

When a decode and a show fall on the same instant, the decode runs first, as
the prefill does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .cloudsim import EOT_TOKEN, TokenSource
from .maskcodec import unpack
from .protocol import DoneMarker, FirstTokenFrame, ProtocolError, StreamEvent
from .timing import TimingModel, prefill_device, smoothed_tpot, ttft_device


class StallError(Exception):
    """The cloud stream ended short of its budget without the DONE marker."""


class CorrectionPolicy(Enum):
    OFF = "off"
    CLOUD_WINS = "cloud_wins"
    DEVICE_DISPLAY = "device_display"


@dataclass(frozen=True)
class ScrubRule:
    pattern: str
    replacement: str


def scrub(text: str, rules: Sequence[ScrubRule]) -> str:
    """Pattern-substitution hook applied before a prompt leaves the device: each rule is one ``re.sub``, in order."""
    for rule in rules:
        text = re.sub(rule.pattern, rule.replacement, text)
    return text


@dataclass(frozen=True, eq=False)
class DeviceTrace:
    """Everything observed on the device for one session.

    The cloud-window displays are listed in ``window``. The device's own
    continuation is described, not listed: the positions after the window,
    decoded at the instants in
    ``continuation_decode_ms``, each shown at ``max(decode,
    continuation_begin_ms)`` with ``device_source``'s token. The instants
    are a slice of the session's one accumulated decode timeline, of which
    ``run_session`` steps only the window positions one at a time.
    ``displays`` expands the continuation on demand; ``output_len`` and
    ``handover_gap_ms`` read the description.
    """

    user_ttft_ms: float          # first-frame arrival; what the user perceives
    ttft_device_ms: float        # mask recovery + refined prefill completed
    tpot_smooth_ms: float | None
    window: tuple[tuple[float, int, str], ...]  # cloud-window shows: (time, position, token shown)
    continuation_decode_ms: np.ndarray
    continuation_begin_ms: float | None  # None when the window was not shown in full
    device_source: TokenSource
    corrections: int
    common_prefix_len: int
    max_smoothed_gap_ms: float | None
    refined_tokens: int

    @property
    def output_len(self) -> int:
        return len(self.window) + len(self.continuation_decode_ms)

    @property
    def handover_gap_ms(self) -> float | None:
        if not len(self.continuation_decode_ms):
            return None
        return max(float(self.continuation_decode_ms[0]), self.continuation_begin_ms) - self.window[-1][0]

    @property
    def displays(self) -> tuple[tuple[float, int, str], ...]:
        """Every shown token as (time, position, token), window then continuation."""
        if not len(self.continuation_decode_ms):
            return self.window
        times = np.maximum(self.continuation_decode_ms, self.continuation_begin_ms).tolist()
        positions = range(len(self.window) + 1, self.output_len + 1)  # it follows a window shown in full
        return self.window + tuple(zip(times, positions, map(self.device_source.token_at, positions)))


def run_session(
    req,
    stream: Iterable[tuple[float, FirstTokenFrame | StreamEvent | DoneMarker]],
    model: TimingModel,
    device_source: TokenSource,
    policy: CorrectionPolicy = CorrectionPolicy.CLOUD_WINS,
) -> DeviceTrace:
    """Simulate one device session and return its trace.

    The session starts at ``req.arrival_ms`` and checks the mask length
    against ``req.prompt``, the shape the cloud selected over (``req`` is a
    ``harness.GeneratedRequest`` in experiments). ``stream`` is
    ``CloudTrace.delivery()``: (arrival time, item) pairs in the order
    ``protocol.SseDecoder`` yields the items, read once in that order, so any
    iterable serves. Raises ProtocolError on a stream that does not open
    with the frame, holds a second frame or an item other than a
    ``StreamEvent`` or DONE, skips or repeats an event index, or continues
    after DONE, and on a mask/prompt mismatch; StallError when the stream is
    short without DONE.
    """
    items = iter(stream)
    frame_time_ms, frame = next(items, (None, None))
    if not isinstance(frame, FirstTokenFrame):
        raise ProtocolError("stream must open with the first-token frame")
    # cloud[p - 1] and arrival[p - 1] are position p's token and arrival
    cloud, arrival, done = [frame.token], [frame_time_ms], None
    for when, item in items:
        if done is not None:
            raise ProtocolError("stream continues after DONE")
        if isinstance(item, StreamEvent):
            if item.index != len(cloud):
                index, fault = (item.index, "repeated") if item.index < len(cloud) else (len(cloud), "missing")
                raise ProtocolError(f"stream event index {index} {fault}")
            cloud.append(item.token)
            arrival.append(when)
        elif isinstance(item, DoneMarker):
            done = when
        elif isinstance(item, FirstTokenFrame):
            raise ProtocolError("stream holds a second first-token frame")
        else:
            raise ProtocolError(f"stream holds a {type(item).__name__} item, not a stream event or DONE")

    prompt, start_ms, budget = req.prompt, req.arrival_ms, frame.max_tokens
    # checked before inflating, so a declared length never costs memory
    if frame.mask.bit_length != prompt.total_tokens:
        raise ProtocolError(
            f"mask carries {frame.mask.bit_length} bits for a {prompt.total_tokens}-token prompt"
        )
    refined_tokens = unpack(frame.mask).popcount()
    prefill = prefill_device(model, refined_tokens)
    user_ttft = frame_time_ms - start_ms
    tpot_smooth = smoothed_tpot(model, prefill, user_ttft, budget) if budget >= 2 else None

    cloud_last = len(cloud)
    if done is None and cloud_last < budget:
        raise StallError(f"stream ended after {cloud_last - 1} events without [DONE]")
    window_end = min(budget, cloud_last)

    # cloud shows: shows[p - 1] is position p
    pace = tpot_smooth or 0.0
    shows: list[tuple[float, int, str]] = []
    eot_at: float | None = None  # instant of the show that met the cloud EOT
    shown = frame_time_ms
    for p in range(1, window_end + 1):
        shown = max(frame_time_ms + (p - 1) * pace, arrival[p - 1], shown)
        if cloud[p - 1] == EOT_TOKEN:
            eot_at = shown
            break
        shows.append((shown, p, cloud[p - 1]))

    # decode k runs at timeline[k - 1]; timeline[0] is the prefill. Past
    # cloud_last + 1 no position is in scope and the raw EOT ends decoding,
    # so no decode runs past max(total_tokens, cloud_last + 1).
    prefill_done = ttft_device(model, prompt.total_tokens, prefill, frame_time_ms)
    decodes = max(device_source.total_tokens, cloud_last + 1)
    steps = np.full(decodes, model.tpot_device, dtype=float)
    steps[0] = prefill_done
    timeline = np.add.accumulate(steps)  # sequential: bit-equal to adding one step at a time
    timeline.setflags(write=False)  # the trace keeps a view of it

    # decodes within the window, one position at a time, each deciding its
    # correction under either policy; a cloud-EOT show, the frame's included,
    # stops the first decode after its instant, and an effective EOT stops
    # decoding. Without such a show the continuation ends at the device's EOT.
    corrections = 0
    own: dict[int, str] = {}
    at = timeline[: cloud_last + 1].tolist()
    for k in range(2, cloud_last + 2):
        if eot_at is not None and at[k - 1] > eot_at:
            break
        raw = device_source.token_at(k) if k <= device_source.total_tokens else EOT_TOKEN
        own[k] = raw
        effective = raw
        in_scope = k <= window_end and arrival[k - 1] <= at[k - 1]
        if in_scope and raw != cloud[k - 1] and policy is CorrectionPolicy.CLOUD_WINS:
            corrections += 1
            effective = cloud[k - 1]
        if policy is CorrectionPolicy.DEVICE_DISPLAY and k <= len(shows):
            when, _, token = shows[k - 1]
            if raw not in (token, EOT_TOKEN) and at[k - 1] <= when:
                shows[k - 1] = (when, k, raw)  # no retroactive edits: only this position changes
                corrections += 1
        if effective == EOT_TOKEN:
            break

    # once the window is shown in full, the device shows its own tokens up to its EOT
    begin = None
    continuation = timeline[:0]
    if eot_at is None:
        begin = shows[-1][0]
        if cloud_last < budget:
            begin = max(begin, done)
        continuation = timeline[window_end : device_source.total_tokens - 1]

    common = 0
    for position in range(1, min(cloud_last, device_source.total_tokens) + 1):
        mine = own[position] if position in own else device_source.token_at(position)
        if cloud[position - 1] != mine:
            break
        common += 1

    gaps = [b[0] - a[0] for a, b in zip(shows, shows[1:])]
    return DeviceTrace(
        user_ttft_ms=user_ttft,
        ttft_device_ms=prefill_done - start_ms,  # with a cloud EOT in the frame, the instant it would have completed
        tpot_smooth_ms=tpot_smooth,
        window=tuple(shows),
        continuation_decode_ms=continuation,
        continuation_begin_ms=begin,
        device_source=device_source,
        corrections=corrections,
        common_prefix_len=common,
        max_smoothed_gap_ms=max(gaps) if gaps else None,
        refined_tokens=refined_tokens,
    )
