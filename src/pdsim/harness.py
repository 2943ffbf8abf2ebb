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
error. ``batch.completions`` sits beside ``BatchModel``'s keys and fills
``ExperimentConfig.batch_completions``. Scrubbing runs exactly the config's
``scrub_rules`` (absent or empty: none), each one ``re.sub`` over prefix,
content and suffix in order. Synthesized words (``w`` plus at most four
digits) cannot hold a real-text pattern such as a phone number.

The simulated path needs only each prompt's shape (``TokenizedPrompt``:
prefix, sentence and suffix token counts) and makes no token strings. A
prompt that scrubbing left as synthesized is shaped from the synthesis's
sentence sizes by ``synthesized_shape``, which checks them against the text
with ``str.count`` over the synthesized format; a prompt a rule changes is
counted by ``TokenizedPrompt.from_text``.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cloudsim
from .cloudsim import BatchModel, TokenSource, mt_uniform, mt_words, run_throughput, serve_request
from .devicesim import CorrectionPolicy, ScrubRule, run_session, scrub
from .planner import Plan, PlanConstraints, build_plan_table, solve_plan
from .protocol import AssistRequest
from .refiner import TokenizedPrompt
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
    batch_completions: int = 1024  # the config key is batch.completions
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


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):  # json.loads reads NaN and Infinity
        raise ConfigError(f"{path}.{key}: must be a finite number, got {value!r}")
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
    if isinstance(obj, dict):  # an out-of-range value is reported at the device class
        return RttClass(**_fields(RttClass, obj, path, {}))
    raise ConfigError(f"{path}: expected an RTT class name ({', '.join(RTT_CLASSES)}) or object, got {obj!r}")


def _nonnegative(value: float, path: str) -> float:
    if value < 0:
        raise ConfigError(f"{path}: must be >= 0, got {value!r}")
    return value


def _parse_cost(obj, path: str) -> AffineCost:
    return _read(AffineCost, obj, path, base_ms=_nonnegative, per_token_ms=_nonnegative)


def _parse_scrub_rule(obj, path: str) -> ScrubRule:
    rule = _read(ScrubRule, obj, path)
    try:
        re.sub(rule.pattern, rule.replacement, "")  # compiles the pattern and the replacement template
    except re.error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return rule


def _parse_mix(mix: dict, path: str) -> dict:
    """A workload mix: weights are finite numbers >= 0 with a positive sum."""
    for name, weight in mix.items():
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not 0 <= weight < math.inf:
            raise ConfigError(f"{path}.{name}: weight must be a finite number >= 0, got {weight!r}")
    if sum(mix.values()) <= 0:
        raise ConfigError(f"{path}: weights must sum to a positive value")
    return dict(mix)


def _parse_prompt_lengths(mix: dict, path: str) -> dict[int, float]:
    """Token count -> weight; ``_validate_config`` checks that each count is long enough."""
    lengths: dict[int, float] = {}
    for key, weight in _parse_mix(mix, path).items():
        try:
            length = int(key)
        except ValueError:
            raise ConfigError(f"{path}.{key}: expected an integer token count") from None
        if length in lengths:
            raise ConfigError(f"{path}.{key}: repeats the token count {length}")
        lengths[length] = float(weight)
    return lengths


def _parse_variant(obj, path: str, earlier: Sequence[VariantSpec]) -> VariantSpec:
    variant = _read(VariantSpec, obj, path)
    if variant.ratio is not None and not 0.0 < variant.ratio <= 1.0:
        raise ConfigError(f"{path}.ratio: must be in (0, 1]")
    if variant.max_tokens is not None and variant.max_tokens < 1:
        raise ConfigError(f"{path}.max_tokens: must be >= 1")
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
                    rtt=_parse_rtt, compress=_parse_cost, decompress=_parse_cost, overhead_bound=_parse_cost)
        for name, obj in device_classes.items()
    }

    scenes = {name: _read(PlanConstraints, obj, f"config.scenes.{name}")
              for name, obj in _require(data, "scenes", dict, "config").items()}
    if not scenes:
        raise ConfigError("config.scenes: must not be empty")

    buckets = tuple(_require(data, "buckets", list, "config"))
    if not buckets or any(not isinstance(b, int) or isinstance(b, bool) or b <= 0 for b in buckets):
        raise ConfigError("config.buckets: expected positive integers")
    if list(buckets) != sorted(set(buckets)):
        raise ConfigError("config.buckets: must be strictly increasing")

    workload = _read(WorkloadSpec, _require(data, "workload", dict, "config"), "config.workload",
                     scene_mix=_parse_mix, device_mix=_parse_mix, prompt_lengths=_parse_prompt_lengths)

    batch_obj = dict(_require(data, "batch", dict, "config"))
    if "completions" in batch_obj:  # read beside BatchModel's keys
        options["batch_completions"] = _require(batch_obj, "completions", int, "config.batch")
        if options["batch_completions"] < 1:
            raise ConfigError("config.batch.completions: must be >= 1")
        del batch_obj["completions"]
    batch = _read(BatchModel, batch_obj, "config.batch")

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
    if w.requests < 0:
        raise ConfigError("config.workload.requests: must be nonnegative")
    if w.output_min < 2 or w.output_max < w.output_min:
        raise ConfigError("config.workload.output_min/max: need 2 <= min <= max")
    for key in ("prefix_tokens", "suffix_tokens"):
        if getattr(w, key) < 0:
            raise ConfigError(f"config.workload.{key}: must be nonnegative")
    if not 0 <= w.divergence_rate <= 1:
        raise ConfigError(f"config.workload.divergence_rate: must be in [0, 1], got {w.divergence_rate!r}")
    if w.arrival_rate_per_s <= 0:
        raise ConfigError("config.workload.arrival_rate_per_s: must be positive")
    floor = w.prefix_tokens + w.suffix_tokens + 16
    for length in w.prompt_lengths:
        if length < floor:
            raise ConfigError(f"config.workload.prompt_lengths.{length}: shorter than prefix+suffix+16")
    for name, model in config.models.items():
        try:  # planning reads the bound at every bucket and at every prompt length served
            model.check_overhead_bound((*config.buckets, *w.prompt_lengths))
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


def _replay_draws(block: np.ndarray, head_words: int,
                  content_target: int) -> tuple[np.ndarray, np.ndarray, list[int], int] | None:
    """The prompt's draws replayed over the outputs ``block``, or None if the block runs short.

    Returns the head word values (prefix, then suffix), the content word
    values, each sentence's word count and the number of outputs consumed.
    """
    is_word = block < _WORD_LIMIT
    word_at = np.flatnonzero(is_word)  # word_at[r]: the output of the word of rank r
    # rank[q]: the rank of the first word output after q (int32 sums run about 3x faster than int64)
    rank = np.cumsum(is_word, dtype=np.int32)
    output, word_output, first_after = block.item, word_at.item, rank.item
    starts, sizes = [], []
    remaining = content_target
    try:  # an index past the block's end means the block ran short
        pos = word_output(head_words - 1) + 1 if head_words else 0
        # each sentence is its words plus a '.'; the last one takes what is left,
        # so ``remaining`` is never 1 and every sentence has at least one word
        while remaining > 0:
            while (w := output(pos)) >= _LENGTH_LIMIT:  # a rejected length draw
                pos += 1
            words = 8 + (w >> 27)
            if remaining - (words + 1) < 10:
                words = remaining - 1
            first = first_after(pos)
            pos = word_output(first + words - 1) + 1
            starts.append(first)
            sizes.append(words)
            remaining -= words + 1
    except IndexError:
        return None
    # sentence i's words are the ranks starts[i] .. starts[i] + sizes[i] - 1
    offsets = np.cumsum(sizes) - sizes
    content_ranks = np.repeat(np.asarray(starts) - offsets, sizes) + np.arange(content_target - len(sizes))
    values = block[word_at] >> 18
    return values[:head_words], values[content_ranks], sizes, pos


def synthesize_prompt(rng: random.Random, total_tokens: int, prefix_tokens: int,
                      suffix_tokens: int) -> tuple[str, str, str, tuple[int, ...]]:
    """Build prompt text whose reference tokenization has exactly total_tokens tokens.

    Returns the prefix, content and suffix texts and the content's sentence
    sizes: each sentence's token count, its words plus its '.', as
    ``TokenizedPrompt.from_text`` counts them (``synthesized_shape`` builds
    the prompt's shape from these four without tokenizing).

    Exact replay: the text, and the state ``rng`` is left in, equal those of
    drawing one by one with ``rng`` the prefix words, the suffix words, then
    per sentence a length ``randint(8, 32)`` and its words, each word
    ``f"w{rng.randrange(10000)}"``.

    CPython draws both from one 32-bit Mersenne Twister output at a time,
    rejecting outputs out of range, so each draw takes the first acceptable
    output at or after the current stream position. The outputs come from one
    bulk ``mt_words`` block. numpy marks the word outputs and ranks them once,
    so a sentence's words are consecutive ranks, and a loop hops from sentence
    to sentence: it skips to the next length output, takes the word count
    from it and continues one past the output of the sentence's last word. A
    block that runs short is redrawn twice as long from the same state.
    Finally ``rng`` is rewound and advanced by exactly the outputs consumed.
    """
    content_target = total_tokens - prefix_tokens - suffix_tokens
    if content_target < 2:
        raise ValueError("prompt too short for the requested prefix/suffix")

    head_words = prefix_tokens + max(suffix_tokens - 1, 0)
    state = rng.getstate()
    size = max(_DRAW_BLOCK_WORDS, math.ceil(_DRAW_OUTPUTS_PER_TOKEN * total_tokens))
    while (replay := _replay_draws(mt_words(rng, size), head_words, content_target)) is None:
        rng.setstate(state)
        size *= 2
    head, content, sizes, consumed = replay
    rng.setstate(state)
    rng.getrandbits(32 * consumed)

    prefix = _word_text(head[:prefix_tokens])
    if suffix_tokens > 0:
        suffix = _word_text(head[prefix_tokens:]) + (" ?" if suffix_tokens > 1 else "?")
    else:
        suffix = ""
    return prefix, _word_text(content, np.cumsum(sizes) - 1), suffix, tuple(words + 1 for words in sizes)


def _synthesized_tokens(text: str) -> int:
    """Tokens of a synthesized prefix or suffix: one more than its spaces, none when empty."""
    return text.count(" ") + 1 if text else 0


def synthesized_shape(prefix: str, content: str, suffix: str, sentence_sizes: tuple[int, ...]) -> TokenizedPrompt:
    """The ``TokenizedPrompt`` of texts that ``synthesize_prompt`` wrote, which equals their ``from_text``.

    Counted by the synthesized format rather than tokenized: words are
    ``w<digits>`` separated by single spaces, a '.' follows each sentence's
    last word, and a suffix ends in a '?', set apart by a space when words
    precede it. So a part holds one token more than it has spaces, and the
    content one more per '.'. ``sentence_sizes`` comes from the synthesis;
    content whose count of sentences or of tokens disagrees with it raises
    ValueError.
    """
    sentences = content.count(".")
    tokens = content.count(" ") + 1 + sentences
    if sentences != len(sentence_sizes) or tokens != sum(sentence_sizes):
        raise ValueError(
            f"synthesized content holds {tokens} tokens in {sentences} sentences, "
            f"its sizes {sum(sentence_sizes)} in {len(sentence_sizes)}"
        )
    return TokenizedPrompt(
        prefix_tokens=_synthesized_tokens(prefix),
        sentence_sizes=sentence_sizes,
        suffix_tokens=_synthesized_tokens(suffix),
    )


@dataclass(frozen=True)
class GeneratedRequest:
    """One synthesized request; ``sentence_sizes`` holds the token count of each
    synthesized content sentence when scrubbing left every part of its text
    unchanged, and None otherwise: the prompt's shape is then built from it
    (``synthesized_shape``), or else counted from the scrubbed text."""

    request: AssistRequest
    output_tokens: int
    arrival_ms: float
    source_seed: int
    divergence: frozenset[int]
    sentence_sizes: tuple[int, ...] | None


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
        *texts, sizes = synthesize_prompt(rng, length, w.prefix_tokens, w.suffix_tokens)
        scrubbed = [scrub(text, config.scrub_rules) for text in texts]
        prefix, content, suffix = scrubbed
        if not content.strip() and not suffix.strip():
            raise ConfigError(f"config.scrub_rules: req-{i:04d} keeps no content or suffix token")
        req = AssistRequest(
            scene=scene,
            model_version_label="base-v1",
            device_class=device,
            prefix=prefix,
            content=content,
            suffix=suffix,
            request_id=f"req-{i:04d}",
        )
        # position p in 2..n-1 diverges when the next random() falls below the rate
        flips = mt_uniform(rng, max(n - 2, 0))
        divergence = frozenset((np.flatnonzero(flips < w.divergence_rate) + 2).tolist())
        out.append(
            GeneratedRequest(
                request=req,
                output_tokens=n,
                arrival_ms=arrival,
                source_seed=rng.randrange(1 << 32),
                divergence=divergence,
                # compared, not counted: a rule may rewrite text to itself, and
                # scrub returns an unmatched text as the same object
                sentence_sizes=sizes if scrubbed == texts else None,
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


# the inverse of ``_fmt``, by annotation (annotations are strings here)
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "float | None": lambda text: float(text) if text else None}
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
        mean_user_ttft=statistics.fmean(user) if user else 0.0,
        p50_user_ttft=nearest_rank_percentile(user, 50),
        p95_user_ttft=nearest_rank_percentile(user, 95),
        mean_ttft_d=statistics.fmean(ttft_d) if ttft_d else 0.0,
        p95_ttft_d=nearest_rank_percentile(ttft_d, 95),
        max_display_tpot=max(gaps) if gaps else 0.0,
        mean_display_tpot=statistics.fmean(gaps) if gaps else 0.0,
        tps=tps,
        analytic_tps=analytic_tps,
        mean_occupancy_ms=statistics.fmean([r.occupancy for r in rows]) if rows else 0.0,
        corrections=sum(r.corrections for r in rows),
        mean_mask_bytes=statistics.fmean(masks) if masks else 0.0,
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

    # requests outer, variants inner: each prompt is built and scored once per
    # request, each token source is built once per request, and only one
    # request's prompt is alive at a time; each variant keeps its own RTT
    # stream, drawn in request order
    rtt_rngs = [random.Random(f"{seed}:{variant.name}:rtt") for variant in config.variants]
    variant_rows: list[list[TraceRow]] = [[] for _ in config.variants]
    for gen in workload:
        req = gen.request
        model = config.models[req.device_class]
        constraints = config.scenes[req.scene]
        if gen.sentence_sizes is None:
            prompt = TokenizedPrompt.from_text(req.prefix, req.content, req.suffix)
        else:
            prompt = synthesized_shape(req.prefix, req.content, req.suffix, gen.sentence_sizes)
        # every variant selects by the same scores; called through the module
        # so that a wrapper installed on pdsim.cloudsim sees the call
        scores = cloudsim.uniform_scores(prompt, f"{seed}:{req.request_id}")
        cloud_source = TokenSource(seed=gen.source_seed, total_tokens=gen.output_tokens)
        device_source = TokenSource(
            seed=gen.source_seed, total_tokens=gen.output_tokens, divergence=gen.divergence
        )
        for variant, rng_rtt, rows in zip(config.variants, rtt_rngs, variant_rows):
            rtt = model.rtt.sample(rng_rtt)
            point = solve_plan(
                model, constraints, prompt.total_tokens, ratio=variant.ratio, max_tokens=variant.max_tokens
            )
            trace_c = serve_request(
                req, prompt, model, cloud_source, scores,
                ratio=point.ratio, max_tokens=point.max_tokens, start_ms=gen.arrival_ms, rtt_ms=rtt,
            )
            trace_d = run_session(
                req, prompt, trace_c.frame, trace_c.delivery(), model, device_source, config.policy,
                start_ms=gen.arrival_ms, frame_time_ms=trace_c.frame_time_ms,
            )
            rows.append(
                TraceRow(
                    variant=variant.name, request_id=req.request_id, scene=req.scene, device_class=req.device_class,
                    l=prompt.total_tokens, r=point.ratio, L=trace_c.frame.max_tokens,
                    n=gen.output_tokens, rtt_ms=rtt, ttft_c=trace_c.frame_time_ms - gen.arrival_ms,
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
            result = run_throughput(config.batch, occupancies, config.batch_completions, seed=seed)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_variant: dict[str, list[TraceRow]] = {}
    for path in trace_paths:
        for row in read_trace(path):
            by_variant.setdefault(row.variant, []).append(row)

    metrics = [_variant_metrics(name, rows) for name, rows in sorted(by_variant.items())]
    _write_csv(out / "report.csv", _SUMMARY_HEADER, (m.row() for m in metrics))
    text = render_summary(metrics)
    (out / "report.txt").write_text(text)
    return MetricsReport(variants=tuple(metrics), summary_text=text)
