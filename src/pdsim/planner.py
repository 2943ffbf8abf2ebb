"""Offline decision of (refinement ratio, assisted-token budget) per scenario.

The objective is the lowest on-device TTFT subject to a per-scene quality
floor on the ratio and two budget constraints: the display pace of assisted
tokens must stay under the tolerable TPOT, and the cloud must finish its
stream before the device finishes prefill. A shown token waits for its
arrival, so the cloud must also stream at the tolerable TPOT or faster. The
structure admits a closed form (smallest feasible ratio, then smallest
feasible budget), so no MILP library is involved. ``solve_plan`` is the one
place a session's (ratio, budget) is decided, at the prompt's own length or
from what a sweep variant pins: its ratio judged by substitution into the
TTFT formulas, its budget by the bounds it solves with (``l_bounds``) and
the stream pace. ``build_plan_table`` tabulates the same solve over a grid
of prompt lengths for ``plans.csv``; no session reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .timing import TimingModel, prefill_device, smoothed_tpot, ttft_cloud, ttft_device

# refinement is planned at one-percent granularity; a ratio of exactly zero
# would leave the device nothing to prefill from
_RATIO_FLOOR = 0.01


@dataclass(frozen=True)
class PlanConstraints:
    """Per-scene knobs: quality floor on the ratio and tolerable display TPOT."""

    min_ratio: float
    max_tpot_ms: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_ratio <= 1.0:
            raise ValueError(f"min_ratio must be in [0, 1], got {self.min_ratio}")
        if self.max_tpot_ms <= 0.0:
            raise ValueError(f"max_tpot_ms must be positive, got {self.max_tpot_ms}")


@dataclass(frozen=True)
class Plan:
    """One planned operating point. ``max_tokens`` counts the first token too."""

    ratio: float
    max_tokens: int
    feasible: bool
    achieved_tpot_smooth: float  # inf when max_tokens == 1 (nothing to pace)

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {self.ratio}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


def l_bounds(
    model: TimingModel,
    constraints: PlanConstraints,
    prompt_tokens: int,
    ratio: float,
    ttft_cloud_ms: float,
    ttft_device_ms: float,
) -> tuple[int, int]:
    """Feasible assisted-token interval [lo, hi]; may be empty.

    The lower bound keeps the smoothed display pace under max_tpot_ms; the
    upper bound keeps the cloud stream inside the device prefill window.
    Each quotient rounds and may land one budget off, so each bound is then
    settled on its own inequality, evaluated in floats at the budgets beside it.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if constraints.max_tpot_ms <= model.tpot_device:
        raise ValueError("max_tpot_ms must exceed the device TPOT")
    slack = constraints.max_tpot_ms - model.tpot_device
    surplus = prefill_device(model, prompt_tokens, ratio) - ttft_cloud_ms
    lo = 1 + math.ceil(surplus / slack)
    lo += surplus > (lo - 1) * slack  # budget lo is still too slow
    lo -= surplus <= (lo - 2) * slack  # budget lo - 1 already keeps the pace
    hi = 1 + math.floor((ttft_device_ms - ttft_cloud_ms) / model.tpot_cloud)
    hi += ttft_cloud_ms + hi * model.tpot_cloud <= ttft_device_ms  # budget hi + 1 still fits
    hi -= ttft_cloud_ms + (hi - 1) * model.tpot_cloud > ttft_device_ms  # budget hi does not
    return max(2, lo), hi


def solve_plan(
    model: TimingModel,
    constraints: PlanConstraints,
    prompt_tokens: int,
    *,
    ratio: float | None = None,
    max_tokens: int | None = None,
) -> Plan:
    """Decide one operating point for a prompt of ``prompt_tokens`` at the mean RTT.

    On-device TTFT grows with the ratio and does not depend on the budget,
    so the solution is the smallest feasible ratio followed by the smallest
    feasible budget (which also minimizes cloud occupancy). ``ratio`` and
    ``max_tokens`` pin a sweep variant's point: an unpinned ratio is solved
    as above, and an unpinned budget is solved at the ratio served (a budget
    sized for another ratio would skew the display pace). A plan is
    ``feasible`` when its ratio is at least ``min_ratio`` and pays off (at
    the p95 RTT the assisted device is ready no later than the device
    alone), its budget lies in ``l_bounds`` and ``tpot_cloud`` is at most
    ``max_tpot_ms``; infeasibility is encoded in the plan, never raised:

    - the smallest ratio (``min_ratio``, at least 0.01) does not pay off ->
      refinement disabled (ratio 1), token-level assist still planned;
    - empty budget interval -> clamp to the occupancy cap (the hard bound)
      and record the resulting over-target pace.
    """
    pinned = ratio is not None
    if not pinned:
        ratio = max(constraints.min_ratio, _RATIO_FLOOR)
    elif not 0.0 < ratio <= 1.0:
        raise ValueError(f"pinned ratio must be in (0, 1], got {ratio}")
    # assistance pays when, at the p95 RTT, the assisted device is ready no later than the device alone
    ttft_p95 = ttft_cloud(model, prompt_tokens, model.rtt.p95_ms)
    ready_p95 = ttft_device(model, prompt_tokens, prefill_device(model, prompt_tokens, ratio), ttft_p95)
    ratio_ok = constraints.min_ratio <= ratio and ready_p95 <= prefill_device(model, prompt_tokens)
    if not (ratio_ok or pinned):
        ratio = 1.0

    ttft_c = ttft_cloud(model, prompt_tokens, model.rtt.mean_ms)
    prefill = prefill_device(model, prompt_tokens, ratio)
    ttft_d = ttft_device(model, prompt_tokens, prefill, ttft_c)
    b_lo, b_hi = l_bounds(model, constraints, prompt_tokens, ratio, ttft_c, ttft_d)
    if max_tokens is None:
        max_tokens = b_lo if b_lo <= b_hi else max(b_hi, 1)

    achieved = smoothed_tpot(model, prefill, ttft_c, max_tokens) if max_tokens >= 2 else math.inf
    return Plan(
        ratio=ratio,
        max_tokens=max_tokens,
        feasible=ratio_ok and b_lo <= max_tokens <= b_hi and model.tpot_cloud <= constraints.max_tpot_ms,
        achieved_tpot_smooth=achieved,
    )


def build_plan_table(
    models: Mapping[str, TimingModel],
    constraints_by_scene: Mapping[str, PlanConstraints],
    buckets: Sequence[int],
) -> dict[tuple[str, str, int], Plan]:
    """Solve every <scene, device class, prompt-length bucket> combination."""
    if not buckets:
        raise ValueError("bucket list must be nonempty")
    if list(buckets) != sorted(set(buckets)):
        raise ValueError("buckets must be strictly increasing")
    return {
        (scene, device_class, bucket): solve_plan(model, constraints, bucket)
        for scene, constraints in constraints_by_scene.items()
        for device_class, model in models.items()
        for bucket in buckets
    }
