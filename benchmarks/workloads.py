"""Workload definitions for the pdsim host-time benchmark.

A workload is a fixed list of members. A member is one fresh-process run:
one ``harness.run_experiment`` call for the simulation workloads, or one
batch of wire round trips for ``wire_replay``. Every member's inputs come
from a sub-seed derived from the benchmark seed. One round runs each member
once; the benchmark repeats rounds and takes the median of each member's
calibrated run times (see run.py), so the seed-to-seed change in input size
averages over all members of a round.

This module imports nothing from pdsim: run.py uses it to plan runs, and
only the worker processes pay for importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

# Device classes and scenes as in harness.default_config(), so that the three
# simulation workloads differ only in the shape of their requests.
_TIMING = {
    "device_classes": {
        "phone": {},
        "tablet": {"k_device": 0.8, "tpot_device": 25.0},
    }
}
_SCENES = {
    "doc_qa": {"min_ratio": 0.25, "max_tpot_ms": 100.0},
    "summary": {"min_ratio": 0.125, "max_tpot_ms": 100.0},
}
_BUCKETS = [1000, 2000, 4000, 8000, 16000, 32000]


@dataclass(frozen=True)
class Member:
    """One fresh-process run of a workload; ``params`` is what the worker builds from."""

    label: str
    seed: int
    operations: int  # sessions (request x variant), or wire round trips
    requests: int
    params: dict


def sub_seed(seed: int, k: int) -> int:
    return (seed * 7919 + k * 104729) % (1 << 31)


def _sim_config(seed: int, requests: int, workload: dict, batch: dict, variants: list, policy: str) -> dict:
    return {
        "seed": seed,
        "timing": _TIMING,
        "scenes": _SCENES,
        "buckets": _BUCKETS,
        "workload": {
            "requests": requests,
            "scene_mix": {"doc_qa": 0.6, "summary": 0.4},
            "device_mix": {"phone": 0.7, "tablet": 0.3},
            **workload,
        },
        "batch": batch,
        "variants": variants,
        "policy": policy,
    }


# default: `pd simulate` without a config (harness.default_config(): 3
# variants, 2k-8k-token prompts, 60-320 output tokens, closed batch). Its 60
# requests are split by prompt length into members that hold the config's
# exact mix (30% 2k, 30% 4k, 40% 8k) instead of a random draw of it: a random
# mix of 60 requests changes the prompt tokens, and so the work, by about 7%
# from one seed to the next. Each member is short enough to sit inside one
# phase of the host's speed, as its calibration passes do. It is the anchor
# that end-to-end speed-up targets are stated against, and its host time is
# spread over every simulation layer.
_DEFAULT_SPLIT = ((2000, 18), (4000, 18), (8000, 12), (8000, 12))


def _default(seed: int, tiny: bool) -> list[Member]:
    split = ((2000, 2), (8000, 2)) if tiny else _DEFAULT_SPLIT
    return [
        Member(f"{length // 1000}k-{k}", sub_seed(seed, k), requests * 3, requests,
               {"kind": "default", "requests": requests, "prompt_length": length})
        for k, (length, requests) in enumerate(split)
    ]


# long_prompt: 16k- and 32k-token prompts with 16-48 output tokens, variants
# `planned` and a pinned ratio of 0.5. Tokenizing, splitting, scoring and
# selecting sentences plus prompt synthesis take most of the host time and the
# event loop almost none, so tokenizer and selection changes show here and
# token or event-loop changes should not. Each member has one of the two prompt
# lengths rather than a random mix, because a random mix of two lengths this
# far apart swings the work per run by tens of percent from one seed to the
# next.
def _long_prompt(seed: int, tiny: bool) -> list[Member]:
    requests = 1 if tiny else 4
    variants = [{"name": "planned"}, {"name": "r50", "ratio": 0.5}]
    members = []
    for k, length in enumerate((16000, 32000) * (1 if tiny else 2)):
        config = _sim_config(
            sub_seed(seed, k),
            requests,
            {"prompt_lengths": {str(length): 1.0}, "output_min": 16, "output_max": 48},
            {"slots": 64, "mode": "closed", "completions": 1024},
            variants,
            "cloud_wins",
        )
        members.append(Member(f"{length // 1000}k-{k}", config["seed"], requests * 2, requests, {"kind": "config", "config": config}))
    return members


# long_decode: 1k/2k-token prompts with 800-1600 output tokens, 10%
# divergence, the `device_display` correction policy and Poisson batch
# arrivals, variants `planned` and `L40`. Token generation, the device session
# and the event loop take most of the host time and the refiner little, so
# token caching and event-loop changes show here and tokenizer changes should
# not. It also runs the correction policy and batch mode that `default` never
# uses.
def _long_decode(seed: int, tiny: bool) -> list[Member]:
    requests = 2 if tiny else 16
    if tiny:
        output = {"output_min": 40, "output_max": 80}
    else:
        output = {"output_min": 800, "output_max": 1600}
    variants = [{"name": "planned"}, {"name": "L40", "max_tokens": 40}]
    members = []
    for k in range(3 if tiny else 6):
        config = _sim_config(
            sub_seed(seed, k),
            requests,
            {"prompt_lengths": {"1000": 0.5, "2000": 0.5}, "divergence_rate": 0.1, **output},
            {"slots": 64, "mode": "poisson", "arrival_rate_per_s": 50.0, "completions": 1024},
            variants,
            "device_display",
        )
        members.append(Member(f"s{k}", config["seed"], requests * 2, requests, {"kind": "config", "config": config}))
    return members


# wire_replay: seeded sessions of a sentence-like selection mask (2k-32k
# bits), a first token with its budget L, and a few hundred stream events,
# each packed, framed, decoded from 64-1460-byte chunks, unpacked and compared.
# `pd simulate` never serialises frames, so this is the only workload that
# runs the protocol module; decoder changes must show no slowdown here. All
# streams are valid: hostile input is the fuzz tests' job.
def _wire_replay(seed: int, tiny: bool) -> list[Member]:
    sessions = 3 if tiny else 200
    return [Member(f"s{k}", sub_seed(seed, k), sessions, sessions, {"kind": "wire", "sessions": sessions}) for k in range(3)]


WORKLOADS = {
    "default": _default,
    "long_prompt": _long_prompt,
    "long_decode": _long_decode,
    "wire_replay": _wire_replay,
}


def members(workload: str, seed: int, tiny: bool = False) -> list[Member]:
    return WORKLOADS[workload](seed, tiny)
