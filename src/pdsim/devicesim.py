"""Device-side session: request, first-token response, then two parallel branches.

Branch 2 displays the cloud-assisted tokens at the smoothed pace computed
once at first-frame arrival; branch 1 runs the postponed prefill over the
refined prompt and then decodes at device speed, with the token corrector
comparing against the cloud tokens received so far. A session is a pure
function of its timed stream, computed as three timelines:

- Cloud shows. The frame shows position 1 at its arrival F; position p is
  shown at ``w_p = max(F + (p - 1)·pace, a_p, w_{p-1})``, with ``a_p`` its
  arrival: an early stream item waits for its slot, a late one pauses the
  display. Shows cover the window, positions up to ``min(L, cloud_last)``,
  and stop at the cloud EOT, which ends the session. Under DEVICE_DISPLAY a
  show displays the device's own token instead when decode p ran first and
  differs.
- Decodes. The prefill completes at ``F + recover + prefill``; decode k runs
  at ``t_k``, one ``tpot_device`` after decode k - 1 (after the prefill for
  k = 2). Under CLOUD_WINS, position k takes the cloud token when that token
  arrived at or before ``t_k`` and k is within L. Decoding stops at the
  effective EOT, or at a cloud-EOT show that runs first.
- Device display. Once the window is shown in full, position q is shown at
  ``max(t_q, begin)`` with its own token, up to the device EOT. ``begin``
  is the last window show, or ``max(last show, DONE)`` when the stream is
  shorter than L, since then only DONE says no more tokens come.

A session costs its cloud window, not its output length. The decode
instants are one array, accumulated in order (``np.add.accumulate``, bit-equal
to adding ``tpot_device`` once per decode). Only positions 2..cloud_last + 1
are stepped one at a time, for corrections, the effective EOT and the tie
rule; past them no cloud token is in scope, so the device EOT is its own. A
cloud-EOT show cuts the timeline at the first decode at or after its instant,
with one tie check on an equal instant. The device display is described, not
listed: the trace keeps its first position, its slice of the timeline,
``begin`` and the device source, and ``DeviceTrace.displays`` expands it on
demand.

Tie rule. Two outputs depend on the order of a decode and a show that fall
on the same instant: a DEVICE_DISPLAY substitution at show p, and whether a
decode at the instant of the cloud-EOT show still runs. Events at one
instant run in the order they were scheduled. The frame, the arrivals and
DONE come before anything scheduled; the frame schedules the prefill before
show 2, so the prefill runs before every show. Decode k is scheduled at
``t_{k-1}`` (decode 2 at the prefill). Show p is scheduled at
``max(a_p, w_{p-1})``: by show p - 1 (the frame for p = 2) when
``a_p <= w_{p-1}``, otherwise by its arrival. When a decode's and a show's
scheduling instants are equal, their schedulers are compared by the same
rule, one step back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .cloudsim import EOT_TOKEN, TokenSource
from .maskcodec import unpack
from .protocol import AssistRequest, DoneMarker, FirstTokenFrame, ProtocolError, StreamEvent
from .refiner import TokenizedPrompt
from .timing import TimingModel, prefill_device, smoothed_tpot


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


# the fields that together make DeviceTrace.displays
_DISPLAY_FIELDS = ("window", "continuation_from", "continuation_decode_ms", "continuation_begin_ms", "device_source")


@dataclass(frozen=True, eq=False)
class DeviceTrace:
    """Everything observed on the device for one session.

    The cloud-window displays are listed in ``window``. The device's own
    continuation is described, not listed: positions from
    ``continuation_from`` on, decoded at the instants in
    ``continuation_decode_ms``, each shown at ``max(decode,
    continuation_begin_ms)`` with ``device_source``'s token. The instants
    are a slice of the session's one accumulated decode timeline, of which
    ``run_session`` steps only the window positions one at a time.
    ``displays`` expands the continuation on demand; ``output_len`` and
    ``handover_gap_ms`` read the description. Two traces are equal when
    their displays and every other observed field are.
    """

    user_ttft_ms: float          # first-frame arrival; what the user perceives
    ttft_device_ms: float        # mask recovery + refined prefill completed
    tpot_smooth_ms: float | None
    window: tuple[tuple[float, int, str], ...]  # cloud-window shows: (time, position, token shown)
    continuation_from: int
    continuation_decode_ms: np.ndarray
    continuation_begin_ms: float | None  # None when the window was not shown in full
    device_source: TokenSource
    corrections: int
    common_prefix_len: int
    max_smoothed_gap_ms: float | None
    device_eot_position: int | None
    decode_caught_up_ms: float | None
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
        positions = range(self.continuation_from, self.continuation_from + len(times))
        return self.window + tuple(zip(times, positions, map(self.device_source.token_at, positions)))

    def _observed(self) -> tuple:
        return (self.displays, *(getattr(self, f.name) for f in fields(self) if f.name not in _DISPLAY_FIELDS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceTrace):
            return NotImplemented
        return self._observed() == other._observed()

    def __hash__(self) -> int:
        return hash(self._observed())


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

    ``req`` is not read; it names the session for callers and for wrappers
    that attribute time per request. ``prompt`` is the shape of the request's
    reference tokenization, the same one the cloud selected over; the device
    validates the mask length against it.
    ``stream`` holds (arrival time, event-or-DONE) pairs as produced by the
    cloud simulator. Raises ProtocolError on a mask/prompt mismatch or on
    event indices other than exactly 1..k, and StallError when the stream
    is short without the DONE marker.
    """
    budget = frame.max_tokens
    # checked before inflating, so a declared length never costs memory
    if frame.mask.bit_length != prompt.total_tokens:
        raise ProtocolError(
            f"mask carries {frame.mask.bit_length} bits for a {prompt.total_tokens}-token prompt"
        )
    refined_tokens = unpack(frame.mask).popcount()
    prefill = prefill_device(model, refined_tokens)
    recover = model.decompress(prompt.total_tokens)
    user_ttft = frame_time_ms - start_ms
    tpot_smooth = smoothed_tpot(model, prefill, user_ttft, budget) if budget >= 2 else None

    timed = list(stream)
    events = sorted(
        ((t, item) for t, item in timed if isinstance(item, StreamEvent)), key=lambda pair: pair[0]
    )
    done = max((t for t, item in timed if isinstance(item, DoneMarker)), default=None)
    cloud = {1: frame.token}
    arrival = {1: frame_time_ms}
    for when, event in events:
        cloud[event.index + 1] = event.token
        arrival[event.index + 1] = when
    cloud_last = 1 + len(events)
    if len(cloud) != cloud_last or max(cloud) != cloud_last:  # indices are not exactly 1..k
        indices = sorted(event.index for _, event in events)
        i, index = next((i, index) for i, index in enumerate(indices, 1) if index != i)
        raise ProtocolError(
            f"stream event index {index} repeated" if index < i else f"stream event index {i} missing"
        )
    if done is None and len(events) < budget - 1:
        last = events[-1][0] if events else frame_time_ms
        wait = 5 * (tpot_smooth or model.tpot_device)
        raise StallError(
            f"stream ended after {len(events)} events without [DONE]; "
            f"display branch gave up at {last + wait:.1f} ms"
        )
    window_end = min(budget, cloud_last)

    # cloud shows: shows[p - 1] is position p
    pace = tpot_smooth or 0.0
    shows: list[tuple[float, int, str]] = []
    eot_at: float | None = None  # instant of the show that met the cloud EOT
    shown = frame_time_ms
    for p in range(1, window_end + 1):
        shown = max(frame_time_ms + (p - 1) * pace, arrival[p], shown)
        if cloud[p] == EOT_TOKEN:
            eot_at = shown
            break
        shows.append((shown, p, cloud[p]))

    # decode k runs at timeline[k - 1]; timeline[0] is the prefill. Past
    # cloud_last + 1 no position is in scope and the raw EOT ends decoding,
    # so no decode runs past max(total_tokens, cloud_last + 1).
    prefill_done = frame_time_ms + recover + prefill
    decodes = max(device_source.total_tokens, cloud_last + 1)
    steps = np.full(decodes, model.tpot_device, dtype=float)
    steps[0] = prefill_done
    timeline = np.add.accumulate(steps)  # sequential: bit-equal to adding one step at a time
    timeline.setflags(write=False)  # the trace keeps a view of it

    def decode_first(k: int, p: int) -> bool:
        """Whether decode k runs before show p on their common instant (the tie rule)."""
        while True:
            decode_by = timeline[k - 2]  # decode k - 1, or the prefill for k = 2
            previous = shows[p - 2][0]
            show_by = max(arrival[p], previous)
            if decode_by != show_by:
                return decode_by < show_by
            if arrival[p] > previous or p == 2:
                return False  # scheduled by its arrival or by the frame
            if k == 2:
                return True  # the prefill runs before every show
            k, p = k - 1, p - 1

    # the first decode that does not run: a cloud EOT in the frame ends the
    # session before the prefill starts, and a later cloud-EOT show stops
    # the first decode at or after its instant (unless it wins the tie)
    cut = decodes + 1
    if frame.token == EOT_TOKEN:
        cut = 2
    elif eot_at is not None:
        k = max(int(np.searchsorted(timeline, eot_at)), 1) + 1
        if k <= decodes:
            cut = k + 1 if timeline[k - 1] == eot_at and decode_first(k, len(shows) + 1) else k

    # decodes within the window, one position at a time
    corrections = 0
    device_eot_position = None
    own: dict[int, str] = {}
    stepped = min(cloud_last + 1, cut - 1)
    at = timeline[:stepped].tolist()
    for k in range(2, stepped + 1):
        raw = device_source.token_at(k) if k <= device_source.total_tokens else EOT_TOKEN
        own[k] = raw
        effective = raw
        in_scope = arrival.get(k, math.inf) <= at[k - 1] and k <= budget
        if in_scope and raw != cloud[k] and policy is CorrectionPolicy.CLOUD_WINS:
            corrections += 1
            effective = cloud[k]
        if effective == EOT_TOKEN:
            device_eot_position = k
            break
    else:
        if stepped == cloud_last + 1 and device_source.total_tokens < cut:
            device_eot_position = device_source.total_tokens  # the device's own EOT, past the window
    decoded = device_eot_position or cut - 1  # the last position decoded

    if policy is CorrectionPolicy.DEVICE_DISPLAY:
        for i, (when, p, token) in enumerate(shows):
            mine = own.get(p)
            if mine is None or mine == token or mine == EOT_TOKEN:
                continue
            if at[p - 1] < when or at[p - 1] == when and decode_first(p, p):
                shows[i] = (when, p, mine)  # no retroactive edits: only this position changes
                corrections += 1

    # once the window is shown in full, the device shows its own tokens up to its EOT
    begin = None
    continuation = timeline[:0]
    if eot_at is None:
        begin = shows[-1][0]
        if cloud_last < budget:
            begin = max(begin, done)
        continuation = timeline[window_end : device_eot_position - 1]

    common = 0
    for position in range(1, min(cloud_last, device_source.total_tokens) + 1):
        mine = own[position] if position in own else device_source.token_at(position)
        if cloud[position] != mine:
            break
        common += 1

    gaps = [b[0] - a[0] for a, b in zip(shows, shows[1:])]
    return DeviceTrace(
        user_ttft_ms=user_ttft,
        # with a cloud EOT in the frame the prefill never ran; report its estimate
        ttft_device_ms=user_ttft + recover + prefill if frame.token == EOT_TOKEN else prefill_done - start_ms,
        tpot_smooth_ms=tpot_smooth,
        window=tuple(shows),
        continuation_from=window_end + 1,
        continuation_decode_ms=continuation,
        continuation_begin_ms=begin,
        device_source=device_source,
        corrections=corrections,
        common_prefix_len=common,
        max_smoothed_gap_ms=max(gaps) if gaps else None,
        device_eot_position=device_eot_position,
        decode_caught_up_ms=float(timeline[cloud_last - 1]) if 2 <= cloud_last <= decoded else None,
        refined_tokens=refined_tokens,
    )
