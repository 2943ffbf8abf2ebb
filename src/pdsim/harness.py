"""End-to-end experiment runner: config, synthetic workload, metrics, reports.

One experiment is fully determined by its config and seed: reruns produce
byte-identical CSV outputs. Each sweep variant replays the same workload
with a ratio and/or token-budget override, producing one trace CSV per
variant plus a cross-variant summary.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cloudsim
from .cloudsim import BatchModel, TokenSource, mt_words, run_throughput, serve_request
from .devicesim import DEFAULT_SCRUB_RULES, CorrectionPolicy, ScrubRule, run_session, scrub
from .planner import PlanConstraints, build_plan_table, check_plan, solve_plan
from .protocol import AssistRequest
from .refiner import TokenizedPrompt
from .timing import RttClass, TimingModel, affine_cost, build_model


class ConfigError(Exception):
    """Invalid experiment configuration; the message carries the key path."""


class ReportError(Exception):
    """Trace files are missing columns the report needs."""


@dataclass(frozen=True)
class VariantSpec:
    """One sweep point; None fields fall back to the planned value."""

    name: str
    ratio: float | None = None
    max_tokens: int | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    requests: int
    scene_mix: dict[str, float]
    device_mix: dict[str, float]
    prompt_lengths: dict[int, float]
    output_min: int
    output_max: int
    prefix_tokens: int = 12
    suffix_tokens: int = 8
    divergence_rate: float = 0.04
    arrival_rate_per_s: float = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    models: dict[str, TimingModel]
    scenes: dict[str, PlanConstraints]
    buckets: tuple[int, ...]
    workload: WorkloadSpec
    batch: BatchModel
    batch_completions: int
    variants: tuple[VariantSpec, ...]
    policy: CorrectionPolicy = CorrectionPolicy.CLOUD_WINS
    scrub_rules: tuple[ScrubRule, ...] = DEFAULT_SCRUB_RULES


def default_config() -> ExperimentConfig:
    """Calibrated two-device, two-scene setup used by the CLI when no config is given."""
    return ExperimentConfig(
        seed=1307,
        models={
            "phone": build_model(),
            "tablet": build_model(k_device=0.8, tpot_device=25.0),
        },
        scenes={
            "doc_qa": PlanConstraints(min_ratio=0.25, max_tpot_ms=100.0),
            "summary": PlanConstraints(min_ratio=0.125, max_tpot_ms=100.0),
        },
        buckets=(1000, 2000, 4000, 8000, 16000, 32000),
        workload=WorkloadSpec(
            requests=60,
            scene_mix={"doc_qa": 0.6, "summary": 0.4},
            device_mix={"phone": 0.7, "tablet": 0.3},
            prompt_lengths={2000: 0.3, 4000: 0.3, 8000: 0.4},
            output_min=60,
            output_max=320,
        ),
        batch=BatchModel(slots=64, mode="closed"),
        batch_completions=1024,
        variants=(
            VariantSpec("planned"),
            VariantSpec("L20", max_tokens=20),
            VariantSpec("r50", ratio=0.5),
        ),
    )


# --- config parsing ---------------------------------------------------------


def _require(mapping: Mapping, key: str, kind, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(mapping: Mapping, key: str, kind, path: str, default):
    return _require(mapping, key, kind, path) if key in mapping else default


def _parse_rtt(obj, path: str) -> RttClass | str:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return RttClass(
            name=_require(obj, "name", str, path),
            mean_ms=_require(obj, "mean_ms", float, path),
            jitter_ms=_optional(obj, "jitter_ms", float, path, 0.0),
        )
    raise ConfigError(f"{path}: expected an RTT class name or object")


def _parse_cost(obj, path: str):
    base = _require(obj, "base_ms", float, path)
    per = _require(obj, "per_token_ms", float, path)
    return affine_cost(base, per)


def _parse_model(obj: dict, path: str) -> TimingModel:
    kwargs = {}
    for key, name in (("k_cloud", "k_cloud"), ("k_device", "k_device"), ("tpot_cloud", "tpot_cloud"), ("tpot_device", "tpot_device")):
        if key in obj:
            kwargs[name] = _require(obj, key, float, path)
    if "rtt" in obj:
        kwargs["rtt"] = _parse_rtt(obj["rtt"], f"{path}.rtt")
    if "compress" in obj:
        cost = _parse_cost(obj["compress"], f"{path}.compress")
        kwargs["compress"] = lambda tokens, ratio: cost(tokens)
    if "decompress" in obj:
        kwargs["decompress"] = _parse_cost(obj["decompress"], f"{path}.decompress")
    if "overhead_bound" in obj and obj["overhead_bound"] != "auto":
        kwargs["overhead_bound"] = _parse_cost(obj["overhead_bound"], f"{path}.overhead_bound")
    try:
        return build_model(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_scrub_rule(obj, path: str) -> ScrubRule:
    rule = ScrubRule(pattern=_require(obj, "pattern", str, path), replacement=_require(obj, "replacement", str, path))
    try:
        re.sub(rule.pattern, rule.replacement, "")  # compiles the pattern and the replacement template
    except re.error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return rule


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    seed = _require(data, "seed", int, "config")

    models_obj = _require(data, "timing", dict, "config")
    device_classes = _require(models_obj, "device_classes", dict, "config.timing")
    if not device_classes:
        raise ConfigError("config.timing.device_classes: must not be empty")
    models = {name: _parse_model(obj, f"config.timing.device_classes.{name}") for name, obj in device_classes.items()}

    scenes_obj = _require(data, "scenes", dict, "config")
    scenes = {}
    for name, obj in scenes_obj.items():
        path = f"config.scenes.{name}"
        try:
            scenes[name] = PlanConstraints(
                min_ratio=_require(obj, "min_ratio", float, path),
                max_tpot_ms=_require(obj, "max_tpot_ms", float, path),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not scenes:
        raise ConfigError("config.scenes: must not be empty")

    buckets = tuple(_require(data, "buckets", list, "config"))
    if not buckets or any(not isinstance(b, int) or b <= 0 for b in buckets):
        raise ConfigError("config.buckets: expected positive integers")
    if list(buckets) != sorted(set(buckets)):
        raise ConfigError("config.buckets: must be strictly increasing")

    w = _require(data, "workload", dict, "config")
    workload = WorkloadSpec(
        requests=_require(w, "requests", int, "config.workload"),
        scene_mix=dict(_require(w, "scene_mix", dict, "config.workload")),
        device_mix=dict(_require(w, "device_mix", dict, "config.workload")),
        prompt_lengths={int(k): float(v) for k, v in _require(w, "prompt_lengths", dict, "config.workload").items()},
        output_min=_require(w, "output_min", int, "config.workload"),
        output_max=_require(w, "output_max", int, "config.workload"),
        prefix_tokens=_optional(w, "prefix_tokens", int, "config.workload", 12),
        suffix_tokens=_optional(w, "suffix_tokens", int, "config.workload", 8),
        divergence_rate=_optional(w, "divergence_rate", float, "config.workload", 0.04),
        arrival_rate_per_s=_optional(w, "arrival_rate_per_s", float, "config.workload", 2.0),
    )

    b = _require(data, "batch", dict, "config")
    try:
        batch = BatchModel(
            slots=_require(b, "slots", int, "config.batch"),
            mode=_optional(b, "mode", str, "config.batch", "closed"),
            arrival_rate_per_s=_optional(b, "arrival_rate_per_s", float, "config.batch", None),
        )
    except ValueError as exc:
        raise ConfigError(f"config.batch: {exc}") from exc
    completions = _optional(b, "completions", int, "config.batch", 1024)
    if completions < 1:
        raise ConfigError("config.batch.completions: must be >= 1")

    variants = []
    for i, obj in enumerate(_require(data, "variants", list, "config")):
        path = f"config.variants[{i}]"
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected an object")
        ratio = _optional(obj, "ratio", float, path, None)
        if ratio is not None and not 0.0 < ratio <= 1.0:
            raise ConfigError(f"{path}.ratio: must be in (0, 1]")
        max_tokens = _optional(obj, "max_tokens", int, path, None)
        if max_tokens is not None and max_tokens < 1:
            raise ConfigError(f"{path}.max_tokens: must be >= 1")
        name = _require(obj, "name", str, path)
        if name in {v.name for v in variants}:
            raise ConfigError(f"{path}.name: duplicate variant {name!r} would overwrite trace_{name}.csv")
        variants.append(VariantSpec(name=name, ratio=ratio, max_tokens=max_tokens))
    if not variants:
        raise ConfigError("config.variants: must not be empty")

    try:
        policy = CorrectionPolicy(_optional(data, "policy", str, "config", "cloud_wins"))
    except ValueError as exc:
        raise ConfigError(f"config.policy: {exc}") from exc
    rules = tuple(
        _parse_scrub_rule(obj, f"config.scrub_rules[{i}]")
        for i, obj in enumerate(_optional(data, "scrub_rules", list, "config", []))
    ) or DEFAULT_SCRUB_RULES

    config = ExperimentConfig(
        seed=seed,
        models=models,
        scenes=scenes,
        buckets=buckets,
        workload=workload,
        batch=batch,
        batch_completions=completions,
        variants=tuple(variants),
        policy=policy,
        scrub_rules=rules,
    )
    _validate_config(config)
    return config


def _validate_config(config: ExperimentConfig) -> None:
    for scene in config.workload.scene_mix:
        if scene not in config.scenes:
            raise ConfigError(f"config.workload.scene_mix.{scene}: unknown scene")
    for device in config.workload.device_mix:
        if device not in config.models:
            raise ConfigError(f"config.workload.device_mix.{device}: unknown device class")
    w = config.workload
    if w.requests < 0:
        raise ConfigError("config.workload.requests: must be nonnegative")
    if w.output_min < 2 or w.output_max < w.output_min:
        raise ConfigError("config.workload.output_min/max: need 2 <= min <= max")
    for key in ("prefix_tokens", "suffix_tokens"):
        if getattr(w, key) < 0:
            raise ConfigError(f"config.workload.{key}: must be nonnegative")
    if w.arrival_rate_per_s <= 0:
        raise ConfigError("config.workload.arrival_rate_per_s: must be positive")
    floor = w.prefix_tokens + w.suffix_tokens + 16
    for length in w.prompt_lengths:
        if length < floor:
            raise ConfigError(f"config.workload.prompt_lengths.{length}: shorter than prefix+suffix+16")
    for name, model in config.models.items():
        try:
            model.check_overhead_bound(config.buckets)
        except ValueError as exc:
            raise ConfigError(f"config.timing.device_classes.{name}: {exc}") from exc
        for scene, constraints in config.scenes.items():
            if constraints.max_tpot_ms <= model.tpot_device:
                raise ConfigError(
                    f"config.scenes.{scene}.max_tpot_ms: must exceed the device TPOT of {name}"
                )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


# --- workload synthesis -------------------------------------------------------


def _choice(rng: random.Random, weights: Mapping):
    total = sum(weights.values())
    if total <= 0:
        raise ConfigError("mix weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for key, weight in weights.items():
        acc += weight
        if point <= acc:
            return key
    return key  # float rounding: fall through to the last key


# Mersenne Twister outputs in a prompt's first bulk draw; each further draw
# doubles the block. A prompt consumes about 1.7 outputs per token.
_DRAW_BLOCK_WORDS = 4096
_WORD_LIMIT = 10000 << 18  # randrange(10000) keeps w >> 18 and rejects values >= 10000
_LENGTH_LIMIT = 25 << 27  # randint(8, 32) keeps 8 + (w >> 27) and rejects w >> 27 >= 25


class _DrawReplay:
    """Replays ``rng.randrange(10000)`` and ``rng.randint(8, 32)`` from bulk Mersenne Twister outputs.

    CPython draws both from one 32-bit output at a time, rejecting outputs
    out of range, so each draw maps to the first acceptable output at or after
    the current stream position. Outputs are drawn in blocks on demand;
    ``finish`` rewinds ``rng`` and advances it by exactly the outputs consumed.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._state = rng.getstate()
        self._block = np.empty(0, dtype=np.uint32)
        self._pos = 0  # stream index of the next unconsumed output
        self._word_at: list[int] = []  # stream index of each acceptable word output
        self._values = np.empty(0, dtype=np.uint32)  # its drawn value

    def _extend(self) -> None:
        drawn = self._block.size
        block = mt_words(self._rng, max(_DRAW_BLOCK_WORDS, drawn))
        ok = block < _WORD_LIMIT
        self._word_at += (np.flatnonzero(ok) + drawn).tolist()
        self._values = np.concatenate((self._values, block[ok] >> 18))
        self._block = np.concatenate((self._block, block))

    def words(self, n: int) -> np.ndarray:
        """Values of the next ``n`` word draws."""
        if n <= 0:
            return self._values[:0]
        i = bisect_left(self._word_at, self._pos)
        while i + n > len(self._word_at):
            self._extend()
        self._pos = self._word_at[i + n - 1] + 1
        return self._values[i : i + n]

    def length(self) -> int:
        """The next sentence-length draw."""
        while True:
            if self._pos == self._block.size:
                self._extend()
            w = self._block.item(self._pos)
            self._pos += 1
            if w < _LENGTH_LIMIT:
                return 8 + (w >> 27)

    def finish(self) -> None:
        self._rng.setstate(self._state)
        self._rng.getrandbits(32 * self._pos)


def _word_text(values: np.ndarray, periods: Sequence[int] = ()) -> str:
    """``" ".join(f"w{v}" for v in values)`` for values below 10000, with a '.' after the words at ``periods``."""
    # one row of characters per word: "w", four digit places, ".", " ";
    # leading zero places and unflagged periods are dropped
    chars = np.empty((values.size, 7), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:, 0] = ord("w")
    for col, place in enumerate((1000, 100, 10, 1), start=1):
        chars[:, col] = values // place % 10 + ord("0")
        if place > 1:
            keep[:, col] = values >= place
    chars[:, 5] = ord(".")
    keep[:, 5] = False
    keep[periods, 5] = True
    chars[:, 6] = ord(" ")
    return chars[keep].tobytes()[:-1].decode("ascii")


def synthesize_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int, suffix_tokens: int) -> tuple[str, str, str]:
    """Build prompt text whose reference tokenization has exactly total_tokens tokens.

    Exact replay: the text, and the state ``rng`` is left in, equal those of
    drawing one by one with ``rng`` the prefix words, the suffix words, then
    per sentence a length ``randint(8, 32)`` and its words, each word
    ``f"w{rng.randrange(10000)}"``. The draws are replayed from bulk
    Mersenne Twister outputs (see ``_DrawReplay``).
    """
    content_target = total_tokens - prefix_tokens - suffix_tokens
    if content_target < 2:
        raise ValueError("prompt too short for the requested prefix/suffix")

    draws = _DrawReplay(rng)
    prefix = _word_text(draws.words(prefix_tokens))
    if suffix_tokens > 0:
        suffix = _word_text(draws.words(suffix_tokens - 1)) + (" ?" if suffix_tokens > 1 else "?")
    else:
        suffix = ""

    # each sentence is its words plus a '.'; the last one takes what is left,
    # so ``remaining`` is never 1 and every sentence has at least one word
    sentences = []
    remaining = content_target
    while remaining > 0:
        words = draws.length()
        if remaining - (words + 1) < 10:
            words = remaining - 1
        sentences.append(draws.words(words))
        remaining -= words + 1
    draws.finish()
    periods = np.cumsum([s.size for s in sentences]) - 1
    return prefix, _word_text(np.concatenate(sentences), periods), suffix


@dataclass(frozen=True)
class GeneratedRequest:
    request: AssistRequest
    prompt_tokens: int
    output_tokens: int
    arrival_ms: float
    source_seed: int
    divergence: frozenset[int]


def generate_workload(config: ExperimentConfig, seed: int) -> list[GeneratedRequest]:
    rng = random.Random(f"{seed}:workload")
    w = config.workload
    out: list[GeneratedRequest] = []
    arrival = 0.0
    for i in range(w.requests):
        scene = _choice(rng, w.scene_mix)
        device = _choice(rng, w.device_mix)
        length = _choice(rng, w.prompt_lengths)
        n = rng.randint(w.output_min, w.output_max)
        arrival += rng.expovariate(w.arrival_rate_per_s / 1000.0)
        prefix, content, suffix = synthesize_prompt(rng, length, w.prefix_tokens, w.suffix_tokens)
        req = AssistRequest(
            scene=scene,
            model_version_label="base-v1",
            device_class=device,
            prefix=scrub(prefix, config.scrub_rules),
            content=scrub(content, config.scrub_rules),
            suffix=scrub(suffix, config.scrub_rules),
            request_id=f"req-{i:04d}",
        )
        divergence = frozenset(p for p in range(2, n) if rng.random() < w.divergence_rate)
        out.append(
            GeneratedRequest(
                request=req,
                prompt_tokens=length,
                output_tokens=n,
                arrival_ms=arrival,
                source_seed=rng.randrange(1 << 32),
                divergence=divergence,
            )
        )
    return out


# --- experiment ---------------------------------------------------------------


_TRACE_COLUMNS = [
    "variant", "request_id", "scene", "device_class", "l", "r", "L", "n", "rtt_ms",
    "ttft_c", "user_ttft", "ttft_d", "tpot_smooth", "max_smoothed_gap", "handover_gap",
    "occupancy", "tokens_emitted", "corrections", "common_prefix_len", "output_len",
    "mask_bytes", "refined_tokens", "planning_miss", "feasible",
]

_SUMMARY_COLUMNS = [
    "variant", "requests", "mean_user_ttft", "p50_user_ttft", "p95_user_ttft",
    "mean_ttft_d", "p95_ttft_d", "max_display_tpot", "mean_display_tpot",
    "tps", "analytic_tps", "mean_occupancy_ms", "corrections", "mean_mask_bytes",
    "median_mask_bytes", "planning_misses", "above_tau_requests",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class VariantMetrics:
    name: str
    requests: int
    mean_user_ttft: float
    p50_user_ttft: float
    p95_user_ttft: float
    mean_ttft_d: float
    p95_ttft_d: float
    max_display_tpot: float
    mean_display_tpot: float
    tps: float
    analytic_tps: float
    mean_occupancy_ms: float
    corrections: int
    mean_mask_bytes: float
    median_mask_bytes: float
    planning_misses: int
    above_tau_requests: int

    def row(self) -> list[str]:
        return [_fmt(getattr(self, col if col != "variant" else "name")) for col in _SUMMARY_COLUMNS]


@dataclass(frozen=True)
class MetricsReport:
    variants: tuple[VariantMetrics, ...]
    summary_text: str
    trace_files: tuple[str, ...]


def _variant_metrics(name: str, rows: list[dict], tps: float, analytic_tps: float) -> VariantMetrics:
    user = [r["user_ttft"] for r in rows]
    ttft_d = [r["ttft_d"] for r in rows]
    gaps = [r["max_smoothed_gap"] for r in rows if r["max_smoothed_gap"] is not None]
    masks = [r["mask_bytes"] for r in rows]
    return VariantMetrics(
        name=name,
        requests=len(rows),
        mean_user_ttft=statistics.fmean(user) if user else 0.0,
        p50_user_ttft=nearest_rank_percentile(user, 50),
        p95_user_ttft=nearest_rank_percentile(user, 95),
        mean_ttft_d=statistics.fmean(ttft_d) if ttft_d else 0.0,
        p95_ttft_d=nearest_rank_percentile(ttft_d, 95),
        max_display_tpot=max(gaps) if gaps else 0.0,
        mean_display_tpot=statistics.fmean(gaps) if gaps else 0.0,
        tps=tps,
        analytic_tps=analytic_tps,
        mean_occupancy_ms=statistics.fmean([r["occupancy"] for r in rows]) if rows else 0.0,
        corrections=sum(r["corrections"] for r in rows),
        mean_mask_bytes=statistics.fmean(masks) if masks else 0.0,
        median_mask_bytes=statistics.median(masks) if masks else 0.0,
        planning_misses=sum(1 for r in rows if r["planning_miss"]),
        above_tau_requests=sum(1 for r in rows if r["above_tau"]),
    )


def run_experiment(config: ExperimentConfig, out_dir: str | Path, seed: int | None = None) -> MetricsReport:
    """Run every variant over the shared workload; write traces, plans and summaries."""
    seed = config.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = build_plan_table(config.models, config.scenes, config.buckets)
    table.write_csv(out / "plans.csv")

    workload = generate_workload(config, seed)
    metrics: list[VariantMetrics] = []
    trace_files: list[str] = []

    # requests outer, variants inner: each prompt is tokenized and scored once
    # per request, each token source is built once per request, and only one
    # request's prompt is alive at a time; each variant keeps its own RTT
    # stream, drawn in request order
    rtt_rngs = [random.Random(f"{seed}:{variant.name}:rtt") for variant in config.variants]
    variant_rows: list[list[dict]] = [[] for _ in config.variants]
    for gen in workload:
        req = gen.request
        model = config.models[req.device_class]
        constraints = config.scenes[req.scene]
        prompt = TokenizedPrompt.from_text(req.prefix, req.content, req.suffix)
        # every variant selects by the same scores; called through the module
        # so that a wrapper installed on pdsim.cloudsim sees the call
        scores = cloudsim.uniform_scores(prompt, f"{seed}:{req.request_id}")
        cloud_source = TokenSource(seed=gen.source_seed, total_tokens=gen.output_tokens)
        device_source = TokenSource(
            seed=gen.source_seed, total_tokens=gen.output_tokens, divergence=gen.divergence
        )
        for variant, rng_rtt, rows in zip(config.variants, rtt_rngs, variant_rows):
            rtt = model.rtt_class.sample(rng_rtt)
            max_override = variant.max_tokens
            if variant.ratio is not None and variant.max_tokens is None:
                # pinning the ratio re-solves the budget; inheriting a budget
                # sized for a different ratio would skew the display pace
                pinned = solve_plan(model, constraints, gen.prompt_tokens, ratio=variant.ratio)
                max_override = pinned.max_tokens
            trace_c = serve_request(
                req, prompt, table, model, cloud_source,
                start_ms=gen.arrival_ms,
                rtt_ms=rtt,
                ratio_override=variant.ratio,
                max_tokens_override=max_override,
                scores=scores,
            )
            trace_d = run_session(
                req, prompt, trace_c.frame, trace_c.delivery(), model, device_source, config.policy,
                start_ms=gen.arrival_ms, frame_time_ms=trace_c.frame_time_ms,
            )
            record = trace_c.record
            if record.max_tokens is None:
                feasible = False
            elif variant.ratio is None and variant.max_tokens is None and record.plan is not None:
                feasible = record.plan.feasible
            else:
                feasible = check_plan(
                    model, constraints, record.prompt_tokens, record.ratio, record.max_tokens, rtt_ms=None
                )
            above_tau = (
                trace_d.max_smoothed_gap_ms is not None
                and trace_d.max_smoothed_gap_ms > constraints.max_tpot_ms
            )
            rows.append(
                {
                    "variant": variant.name,
                    "request_id": req.request_id,
                    "scene": req.scene,
                    "device_class": req.device_class,
                    "l": record.prompt_tokens,
                    "r": record.ratio,
                    "L": 0 if record.max_tokens is None else record.max_tokens,
                    "n": gen.output_tokens,
                    "rtt_ms": rtt,
                    "ttft_c": record.ttft_cloud_ms,
                    "user_ttft": trace_d.user_ttft_ms,
                    "ttft_d": trace_d.ttft_device_ms,
                    "tpot_smooth": trace_d.tpot_smooth_ms,
                    "max_smoothed_gap": trace_d.max_smoothed_gap_ms,
                    "handover_gap": trace_d.handover_gap_ms,
                    "occupancy": record.occupancy_ms,
                    "tokens_emitted": record.tokens_emitted,
                    "corrections": trace_d.corrections,
                    "common_prefix_len": trace_d.common_prefix_len,
                    "output_len": len(trace_d.output_tokens),
                    "mask_bytes": record.mask_payload_bytes,
                    "refined_tokens": trace_d.refined_tokens,
                    "planning_miss": record.planning_miss,
                    "above_tau": above_tau,
                    "feasible": feasible,
                }
            )

    for variant, rows in zip(config.variants, variant_rows):
        if rows:
            occupancies = [row["occupancy"] for row in rows]
            result = run_throughput(config.batch, occupancies, config.batch_completions, seed=seed)
            tps, analytic = result.tps, result.analytic_tps
        else:
            tps, analytic = 0.0, 0.0

        path = out / f"trace_{variant.name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_TRACE_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[col]) for col in _TRACE_COLUMNS])
        trace_files.append(str(path))
        metrics.append(_variant_metrics(variant.name, rows, tps, analytic))

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        for m in metrics:
            writer.writerow(m.row())

    text = render_summary(metrics)
    (out / "summary.txt").write_text(text)
    return MetricsReport(variants=tuple(metrics), summary_text=text, trace_files=tuple(trace_files))


def render_summary(metrics: Sequence[VariantMetrics]) -> str:
    lines = ["experiment summary", "=================="]
    for m in metrics:
        lines.append(
            f"{m.name}: requests={m.requests} user_ttft(mean/p95)={m.mean_user_ttft:.1f}/{m.p95_user_ttft:.1f} ms "
            f"ttft_d(mean)={m.mean_ttft_d:.1f} ms display_tpot(max)={m.max_display_tpot:.1f} ms "
            f"tps={m.tps:.2f} occupancy(mean)={m.mean_occupancy_ms:.1f} ms mask_bytes(median)={m.median_mask_bytes:.0f}"
        )
        if m.planning_misses:
            lines.append(f"  note: {m.planning_misses} planning misses served with ratio 1 until EOT")
        if m.above_tau_requests:
            lines.append(
                f"  flag: smoothed TPOT slightly above the tolerable target for "
                f"{m.above_tau_requests} requests"
            )
    return "\n".join(lines) + "\n"


# --- report over existing traces -----------------------------------------------


def read_trace(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _TRACE_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ReportError(f"{path}: missing columns {missing}")
        rows = []
        for raw in reader:
            rows.append(
                {
                    "variant": raw["variant"],
                    "user_ttft": float(raw["user_ttft"]),
                    "ttft_d": float(raw["ttft_d"]),
                    "max_smoothed_gap": float(raw["max_smoothed_gap"]) if raw["max_smoothed_gap"] else None,
                    "occupancy": float(raw["occupancy"]),
                    "corrections": int(raw["corrections"]),
                    "mask_bytes": int(raw["mask_bytes"]),
                    "planning_miss": raw["planning_miss"] == "true",
                    "above_tau": False,
                    "feasible": raw["feasible"] == "true",
                }
            )
        return rows


def report(trace_paths: Sequence[str | Path], out_dir: str | Path) -> MetricsReport:
    """Aggregate existing trace CSVs into a summary table and text.

    Throughput is reported analytically (per decode slot) since the traces
    carry occupancy but not the batch configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_variant: dict[str, list[dict]] = {}
    for path in trace_paths:
        for row in read_trace(path):
            by_variant.setdefault(row["variant"], []).append(row)

    metrics = []
    for name in sorted(by_variant):
        rows = by_variant[name]
        mean_occ = statistics.fmean([r["occupancy"] for r in rows]) if rows else 0.0
        per_slot = 1000.0 / mean_occ if mean_occ else 0.0
        metrics.append(_variant_metrics(name, rows, tps=0.0, analytic_tps=per_slot))

    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        for m in metrics:
            writer.writerow(m.row())
    text = render_summary(metrics)
    (out / "report.txt").write_text(text)
    return MetricsReport(variants=tuple(metrics), summary_text=text, trace_files=tuple(str(p) for p in trace_paths))
