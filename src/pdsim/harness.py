"""End-to-end experiment runner: config, synthetic workload, metrics, reports.

One experiment is fully determined by its config and seed: reruns produce
byte-identical CSV outputs. Each sweep variant replays the same workload,
pinning the ratio and/or the token budget or leaving both to the planner,
which solves them at each prompt's own length (``planner.solve_plan``
decides), and writes one trace CSV; a cross-variant summary follows.
``plans.csv`` tabulates the planner over the config's prompt-length buckets.

``TraceRow`` is the one schema of a trace row: ``run_experiment`` writes
its fields as the columns, ``read_trace`` parses them back, and both
``summary.csv`` and ``report.csv`` aggregate ``TraceRow``s through
``_variant_metrics``.

A config object is read into the dataclass it configures (``TimingModel``,
``RttClass``, ``AffineCost``, ``PlanConstraints``, ``WorkloadSpec``,
``BatchModel``, ``VariantSpec``, ``ScrubRule``): its keys are the field
names, an absent key takes the field's default, and an unknown key is an
error.

Every numeric key has one physical range, a closed interval in ``_RANGES``,
checked on the raw JSON number before it is converted (an int of any size
compares exactly; NaN fails). Within them a prompt holds at most 2^24 tokens
and a per-token cost is at most 1e4 ms, so ``ttft_c`` stays below 3.5e11 ms
(a drawn RTT is at most 8.6 jitters above its mean), a session ends within
2e13 ms of its arrival, and no session's clock reaches 1e14 ms; the slot
pool's clock stays below 2e19 ms. The budget ``L`` is at most
max(1 + (ttft_d - ttft_c) / tpot_cloud, 2^24) < 3.4e14, set by the lower end
of ``tpot_cloud``, 1e-3 ms. No sum or mean of such values overflows a float,
and ``read_trace`` rejects a numeric cell beyond 1e15 in magnitude.
``_validate_config`` then checks only how keys relate to each other.

Scrubbing runs exactly the config's ``scrub_rules`` (absent or empty: none),
each one ``re.sub`` over prefix, content and suffix in order; a rule may not
grow a prompt past 2^24 tokens. Synthesized words (``w`` plus at most four
digits) cannot hold a real-text pattern such as a phone number.

The simulated path needs only each prompt's shape (``TokenizedPrompt``:
prefix, sentence and suffix token counts) and makes no text: the workload
draws a prompt as its sentence sizes (``synthesize_prompt``) between the
workload's prefix and suffix token counts. Only scrub rules read text, so
only a config that names one renders each prompt's text from the same draws
(``render_prompt``), scrubs it and counts the scrubbed text with
``TokenizedPrompt.from_text``; a text no rule changed counts to the drawn shape.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cloudsim
from .cloudsim import BatchModel, TokenSource, mt_uniform, mt_words, run_throughput, serve_request
from .devicesim import CorrectionPolicy, ScrubRule, run_session, scrub
from .planner import Plan, PlanConstraints, build_plan_table, solve_plan
from .refiner import MAX_PROMPT_TOKENS, TokenizedPrompt
from .timing import RTT_CLASSES, AffineCost, RttClass, TimingModel


class ConfigError(Exception):
    """Invalid experiment configuration; the message carries the key path."""


class ReportError(Exception):
    """Trace files are missing columns or hold values the report cannot parse."""


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
    variants: tuple[VariantSpec, ...]
    policy: CorrectionPolicy = CorrectionPolicy.CLOUD_WINS
    scrub_rules: tuple[ScrubRule, ...] = ()


def default_config() -> ExperimentConfig:
    """Calibrated two-device, two-scene setup used by the CLI when no config is given."""
    return ExperimentConfig(
        seed=1307,
        models={
            "phone": TimingModel(),
            "tablet": TimingModel(k_device=0.8, tpot_device=25.0),
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
        batch=BatchModel(slots=64),
        variants=(
            VariantSpec("planned"),
            VariantSpec("L20", max_tokens=20),
            VariantSpec("r50", ratio=0.5),
        ),
    )


# --- config parsing ---------------------------------------------------------


# the JSON type of a dataclass field, by its annotation (annotations are
# strings here); a field of any other type is read by its own parser
_KINDS = {"int": int, "float": float, "str": str, "int | None": int, "float | None": float,
          "dict[str, float]": dict, "dict[int, float]": dict}
_TOP_LEVEL_KEYS = ("seed", "timing", "scenes", "buckets", "workload", "batch", "variants", "policy", "scrub_rules")

_COUNT = 1 << 20  # the most requests, completions or decode slots

# the physical range of each numeric config key, a closed interval, by key;
# ``buckets`` and ``prompt_lengths`` range their token counts and ``weight``
# each weight of a workload mix (the module docstring derives what they bound)
_RANGES = {
    "seed": (-math.inf, math.inf),  # a label, not a quantity
    # ms per prompt token
    "k_cloud": (1e-6, 10**4), "k_device": (1e-6, 10**4), "per_token_ms": (0, 10**4),
    # ms per output token, and the tolerable display pace tau
    "tpot_cloud": (1e-3, 10**6), "tpot_device": (1e-3, 10**6), "max_tpot_ms": (1e-3, 10**6),
    # fixed costs and round trips, ms
    "base_ms": (0, 10**9), "mean_ms": (0, 10**9), "jitter_ms": (0, 10**9),
    # token counts: a prompt, an output or a budget holds at most MAX_PROMPT_TOKENS
    "buckets": (1, MAX_PROMPT_TOKENS), "prompt_lengths": (1, MAX_PROMPT_TOKENS), "max_tokens": (1, MAX_PROMPT_TOKENS),
    "output_min": (2, MAX_PROMPT_TOKENS), "output_max": (2, MAX_PROMPT_TOKENS),
    "prefix_tokens": (0, MAX_PROMPT_TOKENS), "suffix_tokens": (0, MAX_PROMPT_TOKENS),
    "requests": (0, _COUNT), "completions": (1, _COUNT), "slots": (1, _COUNT),
    "min_ratio": (0, 1), "ratio": (1e-6, 1), "divergence_rate": (0, 1), "weight": (0, 10**9),
    "arrival_rate_per_s": (1e-3, 10**6),  # per second
}


def _number(value, kind, key: str, path: str):
    """The JSON number ``value`` as ``kind`` (an int, or a float that an int also gives) in the range of ``key``."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    lo, hi = _RANGES[key]
    if not lo <= value <= hi:  # exact for an int of any size; false for NaN
        raise ConfigError(f"{path}: must be in [{lo}, {hi}], got {value!r}")
    return kind(value)


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing")
    value = mapping[key]
    if kind in (int, float):
        return _number(value, kind, key, f"{path}.{key}")
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _only(obj, keys: Sequence[str], path: str) -> None:
    """``obj`` is an object and each of its keys is one of ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key")


def _fields(cls, obj, path: str, parsers: Mapping) -> dict:
    """The keyword arguments of dataclass ``cls`` that the config object ``obj`` gives.

    Each key fills the field of the same name, an absent key leaves the field
    to its default, and a key that names no field is an error. A field's
    parser, ``parsers[name](value, path)``, checks or converts its value.
    """
    _only(obj, [f.name for f in fields(cls)], path)
    kwargs = {}
    for f in fields(cls):
        if f.name in obj or f.default is MISSING:
            kind = _KINDS.get(f.type)
            value = obj[f.name] if kind is None else _require(obj, f.name, kind, path)
            kwargs[f.name] = parsers[f.name](value, f"{path}.{f.name}") if f.name in parsers else value
    return kwargs


def _read(cls, obj, path: str, **parsers):
    """Read the config object ``obj`` into ``cls``; a ``ValueError`` building it is reported at ``path``."""
    try:
        return cls(**_fields(cls, obj, path, parsers))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_rtt(obj, path: str) -> RttClass:
    if isinstance(obj, str) and obj in RTT_CLASSES:
        return RTT_CLASSES[obj]
    if isinstance(obj, dict):
        return _read(RttClass, obj, path)
    raise ConfigError(f"{path}: expected an RTT class name ({', '.join(RTT_CLASSES)}) or object, got {obj!r}")


def _parse_cost(obj, path: str) -> AffineCost:
    return _read(AffineCost, obj, path)


def _parse_scrub_rule(obj, path: str) -> ScrubRule:
    rule = _read(ScrubRule, obj, path)
    try:
        re.sub(rule.pattern, rule.replacement, "")  # compiles the pattern and the replacement template
    except re.error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return rule


def _parse_mix(mix: dict, path: str) -> dict:
    """A workload mix: each weight in the range of ``weight``, with a positive sum."""
    weights = {name: _number(weight, float, "weight", f"{path}.{name}") for name, weight in mix.items()}
    if sum(weights.values()) <= 0:
        raise ConfigError(f"{path}: weights must sum to a positive value")
    return weights


def _parse_prompt_lengths(mix: dict, path: str) -> dict[int, float]:
    """Token count -> weight; ``_validate_config`` checks that each count is long enough."""
    lengths: dict[int, float] = {}
    for key, weight in _parse_mix(mix, path).items():
        try:
            length = int(key)
        except ValueError:
            raise ConfigError(f"{path}.{key}: expected an integer token count") from None
        _number(length, int, "prompt_lengths", f"{path}.{key}")
        if length in lengths:
            raise ConfigError(f"{path}.{key}: repeats the token count {length}")
        lengths[length] = weight
    return lengths


def _parse_variant(obj, path: str, earlier: Sequence[VariantSpec]) -> VariantSpec:
    variant = _read(VariantSpec, obj, path)
    name = variant.name
    if not name or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{path}.name: must be nonempty and hold no '/', '\\' or NUL (it names a file), got {name!r}")
    if name in {v.name for v in earlier}:
        raise ConfigError(f"{path}.name: duplicate variant {name!r} would overwrite trace_{name}.csv")
    return variant


def config_from_dict(data: dict) -> ExperimentConfig:
    """Read a config object: its keys are the field names of the dataclasses it fills; an unknown key is an error."""
    _only(data, _TOP_LEVEL_KEYS, "config")
    options = {}  # the optional ExperimentConfig fields the config sets; the others keep their defaults
    seed = _require(data, "seed", int, "config")

    timing = _require(data, "timing", dict, "config")
    _only(timing, ("device_classes",), "config.timing")
    device_classes = _require(timing, "device_classes", dict, "config.timing")
    if not device_classes:
        raise ConfigError("config.timing.device_classes: must not be empty")
    models = {
        name: _read(TimingModel, obj, f"config.timing.device_classes.{name}",
                    rtt=_parse_rtt, compress=_parse_cost, decompress=_parse_cost)
        for name, obj in device_classes.items()
    }

    scenes = {name: _read(PlanConstraints, obj, f"config.scenes.{name}")
              for name, obj in _require(data, "scenes", dict, "config").items()}
    if not scenes:
        raise ConfigError("config.scenes: must not be empty")

    buckets = tuple(_number(b, int, "buckets", "config.buckets") for b in _require(data, "buckets", list, "config"))
    if not buckets:
        raise ConfigError("config.buckets: must not be empty")
    if list(buckets) != sorted(set(buckets)):
        raise ConfigError("config.buckets: must be strictly increasing")

    workload = _read(WorkloadSpec, _require(data, "workload", dict, "config"), "config.workload",
                     scene_mix=_parse_mix, device_mix=_parse_mix, prompt_lengths=_parse_prompt_lengths)

    batch = _read(BatchModel, _require(data, "batch", dict, "config"), "config.batch")

    variants: list[VariantSpec] = []
    for i, obj in enumerate(_require(data, "variants", list, "config")):
        variants.append(_parse_variant(obj, f"config.variants[{i}]", variants))
    if not variants:
        raise ConfigError("config.variants: must not be empty")

    if "policy" in data:
        try:
            options["policy"] = CorrectionPolicy(_require(data, "policy", str, "config"))
        except ValueError as exc:
            raise ConfigError(f"config.policy: {exc}") from exc
    if "scrub_rules" in data:
        options["scrub_rules"] = tuple(_parse_scrub_rule(obj, f"config.scrub_rules[{i}]")
                                       for i, obj in enumerate(_require(data, "scrub_rules", list, "config")))

    config = ExperimentConfig(
        seed=seed,
        models=models,
        scenes=scenes,
        buckets=buckets,
        workload=workload,
        batch=batch,
        variants=tuple(variants),
        **options,
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
    if w.output_max < w.output_min:
        raise ConfigError("config.workload.output_max: must be >= output_min")
    floor = w.prefix_tokens + w.suffix_tokens + 16
    for length in w.prompt_lengths:
        if length < floor:
            raise ConfigError(f"config.workload.prompt_lengths.{length}: shorter than prefix+suffix+16")
    for name, model in config.models.items():
        for scene, constraints in config.scenes.items():
            if constraints.max_tpot_ms <= model.tpot_device:
                raise ConfigError(
                    f"config.scenes.{scene}.max_tpot_ms: must exceed the device TPOT of {name}"
                )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


# --- workload synthesis -------------------------------------------------------


def _choice(rng: random.Random, weights: Mapping):
    point = rng.random() * sum(weights.values())  # the config reader checks the sum is positive
    acc = 0.0
    for key, weight in weights.items():
        acc += weight
        if point <= acc:
            return key
    return key  # float rounding: fall through to the last key


# Mersenne Twister outputs per prompt token in the first bulk draw: a prompt
# consumes about 1.62 (1.64 per word, 1.28 per sentence length), so one block
# almost always suffices; a block that runs short is redrawn twice as long.
_DRAW_OUTPUTS_PER_TOKEN = 1.7
_DRAW_BLOCK_WORDS = 4096  # the smallest block
_WORD_LIMIT = 10000 << 18  # randrange(10000) keeps w >> 18 and rejects values >= 10000
_LENGTH_LIMIT = 25 << 27  # randint(8, 32) keeps 8 + (w >> 27) and rejects w >> 27 >= 25


def _draw_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int,
                 suffix_tokens: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Replay ``synthesize_prompt``'s draws over one bulk block of ``rng``'s outputs.

    Returns the block and each sentence's first word rank (the block's word
    outputs ranked from 0) and word count. CPython draws words and lengths
    from one 32-bit Mersenne Twister output at a time, rejecting outputs out
    of range, so each draw takes the first acceptable output at or after the
    current stream position. numpy marks the word outputs and ranks them
    once, so a sentence's words are consecutive ranks, and a loop hops from
    sentence to sentence: it skips to the next length output, takes the word
    count from it and continues one past the output of the sentence's last
    word. A block that runs short is redrawn twice as long from the same
    state. Finally ``rng`` is rewound and advanced by exactly the outputs consumed.
    """
    content_target = total_tokens - prefix_tokens - suffix_tokens
    if content_target < 2:
        raise ValueError("prompt too short for the requested prefix/suffix")
    head_words = prefix_tokens + max(suffix_tokens - 1, 0)
    state = rng.getstate()
    size = max(_DRAW_BLOCK_WORDS, math.ceil(_DRAW_OUTPUTS_PER_TOKEN * total_tokens))
    while True:
        block = mt_words(rng, size)
        is_word = block < _WORD_LIMIT
        word_at = np.flatnonzero(is_word)  # word_at[r]: the output of the word of rank r
        # rank[q]: the rank of the first word output after q (int32 sums run about 3x faster than int64)
        rank = np.cumsum(is_word, dtype=np.int32)
        # memoryview indexing returns Python ints faster than ndarray.item
        output, word_output, first_after = memoryview(block), memoryview(word_at), memoryview(rank)
        starts, sizes = [], []
        remaining = content_target
        try:  # an index past the block's end means the block ran short
            pos = word_output[head_words - 1] + 1 if head_words else 0
            # each sentence is its words plus a '.'; the last one takes what is left,
            # so ``remaining`` is never 1 and every sentence has at least one word
            while remaining > 0:
                while (w := output[pos]) >= _LENGTH_LIMIT:  # a rejected length draw
                    pos += 1
                words = 8 + (w >> 27)
                if remaining - (words + 1) < 10:
                    words = remaining - 1
                first = first_after[pos]
                pos = word_output[first + words - 1] + 1
                starts.append(first)
                sizes.append(words)
                remaining -= words + 1
            break
        except IndexError:
            rng.setstate(state)
            size *= 2
    rng.setstate(state)
    rng.getrandbits(32 * pos)
    return block, starts, sizes


def synthesize_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int,
                      suffix_tokens: int) -> tuple[int, ...]:
    """Draw a prompt of exactly total_tokens tokens as its shape: each content sentence's size.

    A size is a sentence's token count, its words plus its '.'. Between
    ``prefix_tokens`` and ``suffix_tokens`` they are the shape
    ``TokenizedPrompt.from_text`` counts in the text ``render_prompt``
    writes from the same draws; no word value or text is made here.

    Exact replay: the sizes, and the state ``rng`` is left in, equal those of
    drawing one by one with ``rng`` the prefix words, the suffix words, then
    per sentence a length ``randint(8, 32)`` and its words, each word
    ``f"w{rng.randrange(10000)}"``.
    """
    return tuple(n + 1 for n in _draw_prompt(rng, total_tokens, prefix_tokens, suffix_tokens)[2])


def render_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int,
                  suffix_tokens: int) -> tuple[str, str, str]:
    """The prompt ``synthesize_prompt`` draws as its prefix, content and suffix texts.

    The same draws, replayed the same way: ``rng`` ends where
    ``synthesize_prompt`` leaves it, and ``TokenizedPrompt.from_text`` of the
    texts is the shape it returns.
    """
    block, starts, words = _draw_prompt(rng, total_tokens, prefix_tokens, suffix_tokens)
    text = [f"w{v}" for v in (block[block < _WORD_LIMIT] >> 18).tolist()]  # the words, by rank
    # sentence i's words are the ranks starts[i] .. starts[i] + words[i] - 1
    content = " ".join(" ".join(text[first:first + n]) + "." for first, n in zip(starts, words))
    suffix = " ".join(text[prefix_tokens:prefix_tokens + suffix_tokens - 1] + ["?"]) if suffix_tokens else ""
    return " ".join(text[:prefix_tokens]), content, suffix


@dataclass(frozen=True)
class GeneratedRequest:
    """One synthesized request: ``serve_request`` and ``run_session`` read its ``prompt`` and ``arrival_ms``.

    ``prompt`` is the synthesized shape, or ``TokenizedPrompt.from_text`` of
    the scrubbed text when the config names a scrub rule. ``request_id``
    names the session for wrappers that attribute time per request.
    """

    request_id: str
    scene: str
    device_class: str
    prompt: TokenizedPrompt
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
        request_id = f"req-{i:04d}"
        scene = _choice(rng, w.scene_mix)
        device = _choice(rng, w.device_mix)
        length = _choice(rng, w.prompt_lengths)
        n = rng.randint(w.output_min, w.output_max)
        arrival += rng.expovariate(w.arrival_rate_per_s / 1000.0)
        if not config.scrub_rules:  # only scrub rules read the prompt's text
            prompt = TokenizedPrompt(w.prefix_tokens, synthesize_prompt(rng, length, w.prefix_tokens, w.suffix_tokens),
                                     w.suffix_tokens)
        else:
            texts = render_prompt(rng, length, w.prefix_tokens, w.suffix_tokens)
            scrubbed = [scrub(text, config.scrub_rules) for text in texts]
            if not scrubbed[1].strip() and not scrubbed[2].strip():
                raise ConfigError(f"config.scrub_rules: {request_id} keeps no content or suffix token")
            prompt = TokenizedPrompt.from_text(*scrubbed)
            if prompt.total_tokens > MAX_PROMPT_TOKENS:
                raise ConfigError(f"config.scrub_rules: {request_id} grows past {MAX_PROMPT_TOKENS} tokens")
        # position p in 2..n-1 diverges when the next random() falls below the rate
        flips = mt_uniform(rng, max(n - 2, 0))
        divergence = frozenset((np.flatnonzero(flips < w.divergence_rate) + 2).tolist())
        out.append(
            GeneratedRequest(
                request_id=request_id,
                scene=scene,
                device_class=device,
                prompt=prompt,
                output_tokens=n,
                arrival_ms=arrival,
                source_seed=rng.randrange(1 << 32),
                divergence=divergence,
            )
        )
    return out


# --- experiment ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One request of one variant: a line of ``trace_<variant>.csv``.

    The field order is the column order: ``write_trace`` formats the fields
    and ``read_trace`` parses them back by their types.
    """

    variant: str
    request_id: str
    scene: str
    device_class: str
    l: int  # prompt tokens
    r: float
    L: int  # assisted-token budget, the first token included
    n: int
    rtt_ms: float
    ttft_c: float
    user_ttft: float
    ttft_d: float
    tpot_smooth: float | None
    max_smoothed_gap: float | None
    handover_gap: float | None
    occupancy: float
    tokens_emitted: int
    corrections: int
    common_prefix_len: int
    output_len: int
    mask_bytes: int
    refined_tokens: int
    planning_miss: bool  # always false; the column stays until the benchmark digests are re-recorded
    feasible: bool


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# no trace value that a config in range can make comes near this (see the module docstring)
_CELL_BOUND = 1e15


def _bounded(parse):
    """``parse``, whose value must be at most ``_CELL_BOUND`` in magnitude (float() reads nan and inf, which fail)."""
    def parse_bounded(text: str):
        value = parse(text)
        if not -_CELL_BOUND <= value <= _CELL_BOUND:
            raise ValueError(f"must be a finite number of magnitude at most {_CELL_BOUND:g}, got {text!r}")
        return value
    return parse_bounded


_parse_float = _bounded(float)
# the inverse of ``_fmt``, by annotation (annotations are strings here)
_PARSERS = {"str": str, "int": _bounded(int), "float": _parse_float, "bool": _parse_bool,
            "float | None": lambda text: _parse_float(text) if text else None}
_TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))
_TRACE_PARSERS = tuple(_PARSERS[f.type] for f in fields(TraceRow))


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trace(path: str | Path, rows: Sequence[TraceRow]) -> None:
    _write_csv(path, _TRACE_FIELDS, ([_fmt(getattr(row, name)) for name in _TRACE_FIELDS] for row in rows))


def write_plans(path: str | Path, plans: Mapping[tuple[str, str, int], Plan]) -> None:
    """``plans.csv``: one line per <scene, device class, bucket>, in key order."""
    header = ("scene", "device_class", "bucket", "r", "L", "feasible", "achieved_tpot_smooth")
    rows = ((*key, plan.ratio, plan.max_tokens, plan.feasible, plan.achieved_tpot_smooth)
            for key, plan in sorted(plans.items()))
    _write_csv(path, header, ([_fmt(value) for value in row] for row in rows))


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class VariantMetrics:
    """One line of ``summary.csv`` or ``report.csv``; None is a value the traces cannot give."""

    name: str
    requests: int
    mean_user_ttft: float
    p50_user_ttft: float
    p95_user_ttft: float
    mean_ttft_d: float
    p95_ttft_d: float
    max_display_tpot: float
    mean_display_tpot: float
    tps: float | None
    analytic_tps: float | None
    mean_occupancy_ms: float
    corrections: int
    mean_mask_bytes: float
    median_mask_bytes: float
    planning_misses: int  # always 0; the column stays until the benchmark digests are re-recorded
    above_tau_requests: int | None

    def row(self) -> list[str]:
        return [_fmt(getattr(self, f.name)) for f in fields(self)]


# the summary columns, with the variant's name under "variant"
_SUMMARY_HEADER = ["variant", *(f.name for f in fields(VariantMetrics)[1:])]


@dataclass(frozen=True)
class MetricsReport:
    variants: tuple[VariantMetrics, ...]
    summary_text: str


def _mean(values: Sequence[float]) -> float:
    """``statistics.fmean``, 0 for no values."""
    return statistics.fmean(values) if values else 0.0


def _variant_metrics(name: str, rows: Sequence[TraceRow], tps: float | None = None, analytic_tps: float | None = None,
                     tau_ms: Mapping[str, float] | None = None) -> VariantMetrics:
    """Aggregate one variant's rows; ``tau_ms`` (scene -> tolerable pace) or a throughput left None stays blank."""
    user = [r.user_ttft for r in rows]
    ttft_d = [r.ttft_d for r in rows]
    gaps = [r.max_smoothed_gap for r in rows if r.max_smoothed_gap is not None]
    masks = [r.mask_bytes for r in rows]
    above_tau = None if tau_ms is None else sum(
        1 for r in rows if r.max_smoothed_gap is not None and r.max_smoothed_gap > tau_ms[r.scene]
    )
    return VariantMetrics(
        name=name,
        requests=len(rows),
        mean_user_ttft=_mean(user),
        p50_user_ttft=nearest_rank_percentile(user, 50),
        p95_user_ttft=nearest_rank_percentile(user, 95),
        mean_ttft_d=_mean(ttft_d),
        p95_ttft_d=nearest_rank_percentile(ttft_d, 95),
        max_display_tpot=max(gaps) if gaps else 0.0,
        mean_display_tpot=_mean(gaps),
        tps=tps,
        analytic_tps=analytic_tps,
        mean_occupancy_ms=_mean([r.occupancy for r in rows]),
        corrections=sum(r.corrections for r in rows),
        mean_mask_bytes=_mean(masks),
        median_mask_bytes=statistics.median(masks) if masks else 0.0,
        planning_misses=sum(1 for r in rows if r.planning_miss),
        above_tau_requests=above_tau,
    )


def run_experiment(config: ExperimentConfig, out_dir: str | Path, seed: int | None = None) -> MetricsReport:
    """Run every variant over the shared workload; write plans, traces and summaries (none if the workload is invalid)."""
    seed = config.seed if seed is None else seed
    workload = generate_workload(config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_plans(out / "plans.csv", build_plan_table(config.models, config.scenes, config.buckets))
    metrics: list[VariantMetrics] = []

    # requests outer, variants inner: generate_workload built every prompt
    # above, so a bad scrub rule fails before a file is written; the scores,
    # masks (one per ratio) and token sources live for one request, and each
    # variant keeps its own RTT stream, drawn in request order
    rtt_rngs = [random.Random(f"{seed}:{variant.name}:rtt") for variant in config.variants]
    variant_rows: list[list[TraceRow]] = [[] for _ in config.variants]
    for gen in workload:
        model = config.models[gen.device_class]
        constraints = config.scenes[gen.scene]
        prompt = gen.prompt
        # every variant selects by the same scores; called through the module
        # so that a wrapper installed on pdsim.cloudsim sees the call
        scores = cloudsim.uniform_scores(prompt, f"{seed}:{gen.request_id}")
        masks = {}  # solved ratio -> cloudsim.refine(prompt, scores, ratio)
        cloud_source = TokenSource(seed=gen.source_seed, total_tokens=gen.output_tokens)
        device_source = TokenSource(
            seed=gen.source_seed, total_tokens=gen.output_tokens, divergence=gen.divergence
        )
        for variant, rng_rtt, rows in zip(config.variants, rtt_rngs, variant_rows):
            rtt = model.rtt.sample(rng_rtt)
            point = solve_plan(
                model, constraints, prompt.total_tokens, ratio=variant.ratio, max_tokens=variant.max_tokens
            )
            if point.ratio not in masks:
                masks[point.ratio] = cloudsim.refine(prompt, scores, point.ratio)
            trace_c = serve_request(
                gen, model, cloud_source, masks[point.ratio], max_tokens=point.max_tokens, rtt_ms=rtt
            )
            trace_d = run_session(gen, trace_c.delivery(), model, device_source, config.policy)
            rows.append(
                TraceRow(
                    variant=variant.name, request_id=gen.request_id, scene=gen.scene, device_class=gen.device_class,
                    l=prompt.total_tokens, r=point.ratio, L=trace_c.frame.max_tokens,
                    n=gen.output_tokens, rtt_ms=rtt, ttft_c=trace_d.user_ttft_ms,
                    user_ttft=trace_d.user_ttft_ms, ttft_d=trace_d.ttft_device_ms, tpot_smooth=trace_d.tpot_smooth_ms,
                    max_smoothed_gap=trace_d.max_smoothed_gap_ms, handover_gap=trace_d.handover_gap_ms,
                    occupancy=trace_c.occupancy_ms, tokens_emitted=len(trace_c.events) + 1,
                    corrections=trace_d.corrections, common_prefix_len=trace_d.common_prefix_len,
                    output_len=trace_d.output_len, mask_bytes=len(trace_c.frame.mask.payload),
                    refined_tokens=trace_d.refined_tokens, planning_miss=False, feasible=point.feasible,
                )
            )

    tau_ms = {name: constraints.max_tpot_ms for name, constraints in config.scenes.items()}
    for variant, rows in zip(config.variants, variant_rows):
        if rows:
            occupancies = [row.occupancy for row in rows]
            result = run_throughput(config.batch, occupancies, seed=seed)
            tps, analytic = result.tps, result.analytic_tps
        else:
            tps, analytic = 0.0, 0.0

        write_trace(out / f"trace_{variant.name}.csv", rows)
        metrics.append(_variant_metrics(variant.name, rows, tps, analytic, tau_ms))

    _write_csv(out / "summary.csv", _SUMMARY_HEADER, (m.row() for m in metrics))
    text = render_summary(metrics)
    (out / "summary.txt").write_text(text)
    return MetricsReport(variants=tuple(metrics), summary_text=text)


def render_summary(metrics: Sequence[VariantMetrics]) -> str:
    lines = ["experiment summary", "=================="]
    for m in metrics:
        tps = "n/a" if m.tps is None else f"{m.tps:.2f}"
        lines.append(
            f"{m.name}: requests={m.requests} user_ttft(mean/p95)={m.mean_user_ttft:.1f}/{m.p95_user_ttft:.1f} ms "
            f"ttft_d(mean)={m.mean_ttft_d:.1f} ms display_tpot(max)={m.max_display_tpot:.1f} ms "
            f"tps={tps} occupancy(mean)={m.mean_occupancy_ms:.1f} ms mask_bytes(median)={m.median_mask_bytes:.0f}"
        )
        if m.above_tau_requests:
            lines.append(
                f"  flag: smoothed TPOT slightly above the tolerable target for "
                f"{m.above_tau_requests} requests"
            )
        blank = [f.name for f in fields(m) if getattr(m, f.name) is None]
        if blank:
            lines.append(f"  n/a: {', '.join(blank)} (the traces carry no batch config and no tau)")
    return "\n".join(lines) + "\n"


# --- report over existing traces -----------------------------------------------


def read_trace(path: str | Path) -> list[TraceRow]:
    """Parse a trace CSV; raises ReportError naming the file, and the line and column of a bad value."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in _TRACE_FIELDS if name not in header]
            if missing:
                raise ReportError(f"{path}: missing columns {missing}")
            at = [header.index(name) for name in _TRACE_FIELDS]
            rows = []
            for raw in reader:
                if len(raw) != len(header):
                    raise ReportError(f"{path}: line {reader.line_num}: {len(raw)} values for {len(header)} columns")
                values = []
                for name, parse, i in zip(_TRACE_FIELDS, _TRACE_PARSERS, at):
                    try:
                        values.append(parse(raw[i]))
                    except ValueError as exc:
                        raise ReportError(f"{path}: line {reader.line_num}: column {name}: {exc}") from None
                rows.append(TraceRow(*values))
        except UnicodeDecodeError as exc:  # the file is decoded a block ahead of the parser, so no line is known
            raise ReportError(f"{path}: cannot decode byte {exc.object[exc.start]:#04x} as {exc.encoding}") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ReportError(f"{path}: line {reader.line_num}: {exc}") from None
        return rows


def report(trace_paths: Sequence[str | Path], out_dir: str | Path) -> MetricsReport:
    """Aggregate existing trace CSVs into ``report.csv`` and ``report.txt``.

    The metrics are those of ``summary.csv``, computed by the same function
    over the 6-decimal values the traces hold. ``tps``, ``analytic_tps`` and
    ``above_tau_requests`` are left blank (``n/a`` in the text): the traces
    carry neither the batch config nor the scenes' tolerable pace tau.
    Variants are listed by name, not in the config's order, since the traces
    carry no config order.
    """
    by_variant: dict[str, list[TraceRow]] = {}
    for path in trace_paths:
        for row in read_trace(path):
            by_variant.setdefault(row.variant, []).append(row)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    metrics = [_variant_metrics(name, rows) for name, rows in sorted(by_variant.items())]
    _write_csv(out / "report.csv", _SUMMARY_HEADER, (m.row() for m in metrics))
    text = render_summary(metrics)
    (out / "report.txt").write_text(text)
    return MetricsReport(variants=tuple(metrics), summary_text=text)
