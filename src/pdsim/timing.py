"""Latency and throughput models for cloud-assisted on-device inference.

All durations are milliseconds (float); token counts are nonnegative
integers. Within the config reader's ranges (``harness._RANGES``) no
session's clock reaches 1e14 ms and the slot pool's stays below 2e19 ms,
far inside a float. ``TimingModel`` is a plain value: it declares the
calibrated defaults once, as its field defaults, and holds its codec costs as
``AffineCost`` coefficients, so two models with the same numbers compare
equal and print as numbers. Each formula is a pure function defined once
here. Its callers:

- ``ttft_cloud``: planner (``solve_plan``), ``cloudsim.serve_request``.
- ``prefill_device``, the refined prefill: ``ttft_device``, planner (``l_bounds``,
  ``solve_plan``), ``devicesim`` with the refined length of the mask.
- ``ttft_device``: planner (``solve_plan``).
- ``smoothed_tpot``: planner (achieved pace), ``devicesim`` (display schedule).
- ``TimingModel.overhead_ms``, the collaboration overhead (compress + decompress
  + p95 RTT, derived, never configured): planner (``r_bounds``).
- ``request_occupancy``: ``cloudsim.serve_request``, whose ``CloudTrace.occupancy_ms``
  becomes the trace's ``occupancy`` column and feeds ``cloudsim.run_throughput``.

``harness.run_experiment`` calls ``planner.solve_plan`` once per session, at
its prompt length and with whatever a sweep variant pins; ``build_plan_table``
calls it once per bucket for ``plans.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass


class AmortizationUndefined(ValueError):
    """Smoothed TPOT needs at least one decode token to amortize over."""


@dataclass(frozen=True)
class RttClass:
    """Coarse network class: mean round trip plus a jitter spread."""

    name: str
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
    "wifi": RttClass("wifi", mean_ms=50.0, jitter_ms=10.0),
    "lte": RttClass("lte", mean_ms=100.0, jitter_ms=30.0),
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
    device-side recovery. The planner's collaboration overhead is derived
    from them, not configured: compress + decompress + the 95th-percentile
    RTT of the class (``overhead_ms``), deliberately conservative.
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

    def overhead_ms(self, tokens: int) -> float:
        """The collaboration overhead at ``tokens`` prompt tokens: compress + decompress + p95 RTT."""
        return self.compress(tokens) + self.decompress(tokens) + self.rtt.p95_ms


def _check_domain(prompt_tokens: int, ratio: float, rtt_ms: float) -> None:
    if prompt_tokens <= 0:
        raise ValueError(f"prompt_tokens must be positive, got {prompt_tokens}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if rtt_ms < 0.0:
        raise ValueError(f"rtt_ms must be nonnegative, got {rtt_ms}")


def prefill_device(model: TimingModel, tokens: int, ratio: float = 1.0) -> float:
    """Device prefill of ``ratio`` of ``tokens`` prompt tokens.

    Evaluated as (coefficient times ratio) times tokens, so every caller gets
    the same float; the device's default ratio 1 is exact.
    """
    if tokens < 0:
        raise ValueError(f"tokens must be nonnegative, got {tokens}")
    return model.k_device * ratio * tokens


def ttft_cloud(model: TimingModel, prompt_tokens: int, ratio: float, rtt_ms: float) -> float:
    """Time until the device holds the first token: cloud prefill + mask compression + RTT."""
    _check_domain(prompt_tokens, ratio, rtt_ms)
    return model.k_cloud * prompt_tokens + model.compress(prompt_tokens) + rtt_ms


def ttft_device(model: TimingModel, prompt_tokens: int, ratio: float, ttft_cloud_ms: float) -> float:
    """On-device TTFT: cloud feedback, mask recovery, then prefill of the refined prompt."""
    _check_domain(prompt_tokens, ratio, 0.0)
    if ttft_cloud_ms < 0.0:
        raise ValueError(f"ttft_cloud_ms must be nonnegative, got {ttft_cloud_ms}")
    return ttft_cloud_ms + model.decompress(prompt_tokens) + prefill_device(model, prompt_tokens, ratio)


def smoothed_tpot(model: TimingModel, prefill_device_ms: float, ttft_cloud_ms: float, total_tokens: int) -> float:
    """Display pace that spreads the device prefill surplus over the assisted decode tokens.

    ``total_tokens`` counts the first token plus the decode tokens, so at
    least 2 are required; callers with a single assisted token must take the
    no-display-branch path in the device simulator.
    """
    if total_tokens < 2:
        raise AmortizationUndefined(f"need at least 2 assisted tokens, got {total_tokens}")
    if prefill_device_ms < 0.0 or ttft_cloud_ms < 0.0:
        raise ValueError("latencies must be nonnegative")
    return model.tpot_device + (prefill_device_ms - ttft_cloud_ms) / (total_tokens - 1)


def request_occupancy(ttft_ms: float, tpot_ms: float, total_tokens: int) -> float:
    """Wall-clock a serving slot is held: TTFT plus one TPOT per decode token."""
    if total_tokens < 1:
        raise ValueError(f"total_tokens must be >= 1, got {total_tokens}")
    return ttft_ms + tpot_ms * (total_tokens - 1)
