"""Latency and throughput models for cloud-assisted on-device inference.

All durations are milliseconds (float); token counts are nonnegative
integers. ``TimingModel`` is a plain value: it declares the calibrated
defaults once, as its field defaults, and holds its codec costs as
``AffineCost`` coefficients, so two models with the same numbers compare
equal and print as numbers. Each formula is a pure function defined once
here. Its callers:

- ``ttft_cloud``: planner (``solve_plan``, ``check_plan``), ``cloudsim.serve_request``.
- ``prefill_device``, the refined prefill: ``ttft_device``, planner (``l_bounds``,
  ``solve_plan``, ``check_plan``), ``devicesim`` with the refined length of the mask.
- ``ttft_device``: planner (``solve_plan``, ``check_plan``).
- ``smoothed_tpot``: planner (achieved pace), ``devicesim`` (display schedule).
- ``TimingModel.overhead_ms``, the overhead bound: planner (``r_bounds``).
- ``request_occupancy``: ``cloudsim.serve_request``, whose ``CloudTrace.occupancy_ms``
  becomes the trace's ``occupancy`` column and feeds ``cloudsim.run_throughput``.

``planner.operating_point`` reaches ``solve_plan`` and ``check_plan`` for the
points that sweep variants pin; ``build_plan_table`` reaches ``solve_plan`` once
per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


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
    """A cost linear in the prompt token count (compression, decompression, overhead bound)."""

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
    device-side recovery, and the overhead bound must dominate compress +
    decompress + mean RTT for every supported prompt length (checked by
    :meth:`check_overhead_bound`). ``overhead_bound=None`` bounds it by
    compress + decompress + the 95th-percentile RTT of the class,
    deliberately conservative.
    """

    k_cloud: float = 0.1        # cloud prefill, ms per prompt token
    k_device: float = 1.25      # device prefill, ms per prompt token
    tpot_cloud: float = 30.0    # cloud time per output token, ms
    tpot_device: float = 30.0   # device time per output token, ms
    rtt: RttClass = RTT_CLASSES["wifi"]
    compress: AffineCost = AffineCost(20.0, 0.01)
    decompress: AffineCost = AffineCost(10.0, 0.005)
    overhead_bound: AffineCost | None = None

    def __post_init__(self) -> None:
        for name in ("k_cloud", "k_device", "tpot_cloud", "tpot_device"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.k_device <= self.k_cloud:
            raise ValueError("device prefill must be slower than cloud (k_device > k_cloud)")

    def overhead_ms(self, tokens: int) -> float:
        """The overhead bound at ``tokens`` prompt tokens."""
        if self.overhead_bound is None:
            return self.compress(tokens) + self.decompress(tokens) + self.rtt.p95_ms
        return self.overhead_bound(tokens)

    def check_overhead_bound(self, lengths: Iterable[int]) -> None:
        """Verify overhead_ms(l) >= compress(l) + decompress(l) + mean RTT."""
        for l in lengths:
            bound = self.overhead_ms(l)
            need = self.compress(l) + self.decompress(l) + self.rtt.mean_ms
            if bound < need - 1e-9:
                raise ValueError(
                    f"overhead_bound({l}) = {bound:.3f} ms does not cover "
                    f"compress+decompress+RTT = {need:.3f} ms"
                )


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
