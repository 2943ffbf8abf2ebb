"""Latency and throughput models for cloud-assisted on-device inference.

All durations are milliseconds (float); token counts are nonnegative
integers. Within the config reader's ranges (``harness._RANGES``) no
session's clock reaches 1e14 ms and the slot pool's stays below 2e19 ms,
far inside a float. ``TimingModel`` is a plain value: it declares the
calibrated defaults once, as its field defaults, and holds its codec costs as
``AffineCost`` coefficients, so two models with the same numbers compare
equal and print as numbers. Each formula is a pure function defined once
here. Its callers:

- ``ttft_cloud(model, prompt_tokens, rtt_ms)``: planner (``solve_plan``, at the
  mean RTT, and at the p95 RTT to judge the ratio), ``cloudsim.serve_request``
  (at the sampled RTT).
- ``prefill_device``, the refined prefill: planner (``l_bounds``,
  ``solve_plan``), ``devicesim.run_session`` with the refined length of the mask.
- ``ttft_device``, the device's ready instant (frame + recovery + refined
  prefill): planner (``solve_plan``, from the planned and the p95 TTFT),
  ``devicesim.run_session`` (from the frame's arrival).
- ``smoothed_tpot``: planner (achieved pace), ``devicesim`` (display schedule).
- ``request_occupancy``: ``cloudsim.serve_request``, whose ``CloudTrace.occupancy_ms``
  becomes the trace's ``occupancy`` column and feeds ``cloudsim.run_throughput``.

``harness.run_experiment`` calls ``planner.solve_plan`` once per session, at
its prompt length and with whatever a sweep variant pins; ``build_plan_table``
calls it once per bucket for ``plans.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RttClass:
    """Coarse network class: mean round trip plus a jitter spread; ``RTT_CLASSES`` names the built-in ones."""

    mean_ms: float
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_ms < 0.0 or self.jitter_ms < 0.0:
            raise ValueError("RTT mean and jitter must be nonnegative")

    @property
    def p95_ms(self) -> float:
        # normal approximation; only used as a conservative planning bound
        return self.mean_ms + 1.645 * self.jitter_ms

    def sample(self, rng) -> float:
        """Draw one RTT sample, truncated at zero."""
        if self.jitter_ms == 0.0:
            return self.mean_ms
        return max(0.0, rng.gauss(self.mean_ms, self.jitter_ms))


RTT_CLASSES: dict[str, RttClass] = {
    "wifi": RttClass(mean_ms=50.0, jitter_ms=10.0),
    "lte": RttClass(mean_ms=100.0, jitter_ms=30.0),
}


@dataclass(frozen=True)
class AffineCost:
    """A cost linear in the prompt token count (compression, decompression)."""

    base_ms: float
    per_token_ms: float

    def __call__(self, tokens: int) -> float:
        return self.base_ms + self.per_token_ms * tokens


@dataclass(frozen=True)
class TimingModel:
    """Calibrated per-token coefficients for one device class + network class.

    The defaults put an 8k-token prompt at 800 ms cloud prefill, 10 s device
    prefill, ~100 ms mask compression and ~50 ms recovery. ``compress``
    covers mask build + compression on the cloud side, ``decompress`` the
    device-side recovery. The planner judges a ratio at the 95th-percentile
    RTT of the class, deliberately conservative; no overhead is configured.
    """

    k_cloud: float = 0.1        # cloud prefill, ms per prompt token
    k_device: float = 1.25      # device prefill, ms per prompt token
    tpot_cloud: float = 30.0    # cloud time per output token, ms
    tpot_device: float = 30.0   # device time per output token, ms
    rtt: RttClass = RTT_CLASSES["wifi"]
    compress: AffineCost = AffineCost(20.0, 0.01)
    decompress: AffineCost = AffineCost(10.0, 0.005)

    def __post_init__(self) -> None:
        for name in ("k_cloud", "k_device", "tpot_cloud", "tpot_device"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.k_device <= self.k_cloud:
            raise ValueError("device prefill must be slower than cloud (k_device > k_cloud)")


def prefill_device(model: TimingModel, tokens: int, ratio: float = 1.0) -> float:
    """Device prefill of ``ratio`` of ``tokens`` prompt tokens.

    Evaluated as (coefficient times ratio) times tokens, so every caller gets
    the same float; the device's default ratio 1 is exact.
    """
    if tokens < 0:
        raise ValueError(f"tokens must be nonnegative, got {tokens}")
    return model.k_device * ratio * tokens


def ttft_cloud(model: TimingModel, prompt_tokens: int, rtt_ms: float) -> float:
    """Time until the device holds the first token: prefill and mask compression of the whole prompt, then RTT."""
    if prompt_tokens <= 0:
        raise ValueError(f"prompt_tokens must be positive, got {prompt_tokens}")
    if rtt_ms < 0.0:
        raise ValueError(f"rtt_ms must be nonnegative, got {rtt_ms}")
    return model.k_cloud * prompt_tokens + model.compress(prompt_tokens) + rtt_ms


def ttft_device(model: TimingModel, prompt_tokens: int, prefill_ms: float, frame_ms: float) -> float:
    """The device's ready instant: the frame at ``frame_ms``, then mask recovery, then the refined prefill.

    From the planned cloud TTFT it is the device TTFT; from the frame's arrival, the instant the prefill completes.
    """
    return frame_ms + model.decompress(prompt_tokens) + prefill_ms


def smoothed_tpot(model: TimingModel, prefill_device_ms: float, ttft_cloud_ms: float, total_tokens: int) -> float:
    """Display pace that spreads the device prefill surplus over the assisted decode tokens.

    ``total_tokens`` counts the first token plus the decode tokens, so at
    least 2 are required; callers with a single assisted token must take the
    no-display-branch path in the device simulator.
    """
    if total_tokens < 2:
        raise ValueError(f"need at least 2 assisted tokens, got {total_tokens}")
    if prefill_device_ms < 0.0 or ttft_cloud_ms < 0.0:
        raise ValueError("latencies must be nonnegative")
    return model.tpot_device + (prefill_device_ms - ttft_cloud_ms) / (total_tokens - 1)


def request_occupancy(ttft_ms: float, tpot_ms: float, total_tokens: int) -> float:
    """Wall-clock a serving slot is held: TTFT plus one TPOT per decode token."""
    if total_tokens < 1:
        raise ValueError(f"total_tokens must be >= 1, got {total_tokens}")
    return ttft_ms + tpot_ms * (total_tokens - 1)
