import csv
import json
import random
import re
import statistics
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import feasible_by_substitution, reference_synthesize_prompt

from pdsim import cloudsim, harness
from pdsim.cloudsim import BatchModel, MtStream
from pdsim.devicesim import ScrubRule, scrub
from pdsim.eventloop import EventLoop
from pdsim.harness import (
    ConfigError,
    ReportError,
    VariantSpec,
    WorkloadSpec,
    config_from_dict,
    default_config,
    generate_workload,
    load_config,
    nearest_rank_percentile,
    read_trace,
    render_prompt,
    report,
    run_experiment,
    synthesize_prompt,
    write_trace,
)
from pdsim.planner import PlanConstraints, solve_plan
from pdsim.refiner import TokenizedPrompt, tokenize
from pdsim.timing import AffineCost, RttClass, TimingModel, ttft_cloud

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def base_config_dict(**overrides) -> dict:
    data = {
        "seed": 42,
        "timing": {
            "device_classes": {
                "phone": {
                    "rtt": {"mean_ms": 50.0, "jitter_ms": 0.0},
                }
            }
        },
        "scenes": {"doc_qa": {"min_ratio": 0.25, "max_tpot_ms": 100.0}},
        "buckets": [2000, 4000, 8000],
        "workload": {
            "requests": 12,
            "scene_mix": {"doc_qa": 1.0},
            "device_mix": {"phone": 1.0},
            "prompt_lengths": {"4000": 1.0},
            "output_min": 60,
            "output_max": 120,
            "prefix_tokens": 6,
            "suffix_tokens": 4,
            "divergence_rate": 0.0,
        },
        "batch": {"slots": 8, "mode": "closed", "completions": 64},
        "variants": [{"name": "planned"}],
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_round_trip_through_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config_dict()))
        config = load_config(path)
        assert config.seed == 42
        assert set(config.models) == {"phone"}
        assert config.buckets == (2000, 4000, 8000)
        assert config.workload.prompt_lengths == {4000: 1.0}

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("seed"), "config.seed"),
            (lambda d: d["workload"]["scene_mix"].update({"ghost": 1.0}), "scene_mix.ghost"),
            (lambda d: d["workload"].update({"prompt_lengths": {"12": 1.0}}), "prompt_lengths.12"),
            (lambda d: d["variants"].append({"name": "bad", "ratio": 1.5}), "ratio"),
            (lambda d: d["scenes"].update({"doc_qa": {"min_ratio": 0.25, "max_tpot_ms": 10.0}}), "max_tpot_ms"),
            (lambda d: d.update({"variants": []}), "variants"),
        ],
    )
    def test_validation_errors_carry_key_paths(self, mutate, needle):
        data = base_config_dict()
        mutate(data)
        with pytest.raises(ConfigError, match=needle):
            config_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_default_config_is_valid(self):
        config = default_config()
        assert config.workload.requests > 0
        assert {"planned"} <= {v.name for v in config.variants}

    def test_defaults_are_declared_once_on_the_dataclasses(self):
        # absent keys take the dataclass defaults, which are those of default_config()
        data = base_config_dict(batch={"slots": 64})
        data["timing"]["device_classes"] = {"phone": {}, "tablet": {"k_device": 0.8, "tpot_device": 25.0}}
        data["workload"] = {key: data["workload"][key] for key in
                            ("requests", "scene_mix", "device_mix", "prompt_lengths", "output_min", "output_max")}
        config, default = config_from_dict(data), default_config()
        assert config.models == default.models
        assert config.batch == default.batch
        assert (config.policy, config.scrub_rules) == (default.policy, default.scrub_rules)
        assert config.workload.prefix_tokens == default.workload.prefix_tokens
        assert config.workload.divergence_rate == default.workload.divergence_rate

    def test_every_numeric_key_has_one_range(self):
        # the dataclass fields the reader fills, plus the keys it reads beside them
        classes = (TimingModel, RttClass, AffineCost, PlanConstraints, WorkloadSpec, BatchModel, VariantSpec)
        numeric = {f.name for cls in classes for f in fields(cls) if harness._KINDS.get(f.type) in (int, float)}
        assert numeric | {"seed", "buckets", "prompt_lengths", "weight"} == set(harness._RANGES)
        for key, (lo, hi) in harness._RANGES.items():
            assert lo < hi, key


@st.composite
def prompt_shapes(draw) -> tuple[int, int, int]:
    """Prefix tokens, suffix tokens and a total of 2 to 32,000 tokens that leaves room for content."""
    prefix_tokens, suffix_tokens = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    return prefix_tokens, suffix_tokens, draw(st.integers(prefix_tokens + suffix_tokens + 2, 32000))


class RefillCountingStream(MtStream):
    """An ``MtStream`` that counts its buffer refills."""

    refills = 0

    def _refill(self, k):
        self.refills += 1
        super()._refill(k)


def assert_matches_the_draw_loop(seed: int, total: int, prefix_tokens: int, suffix_tokens: int) -> int:
    """The shape and the rendered text each equal the per-draw loop's, and the stream goes on as it does.

    The stream's next 1,300 outputs, past the next twist, equal the loop's
    ``random.Random`` after it. Returns how often drawing the shape refilled
    the stream's buffer.
    """
    ref = random.Random(str(seed))
    want = reference_synthesize_prompt(ref, total, prefix_tokens, suffix_tokens)
    after = [ref.getrandbits(32) for _ in range(1300)]
    shaped, rendered = RefillCountingStream(str(seed)), MtStream(str(seed))
    assert synthesize_prompt(shaped, total, prefix_tokens, suffix_tokens) == want[3]
    refills = shaped.refills
    assert shaped.peek(1300).tolist() == after
    assert render_prompt(rendered, total, prefix_tokens, suffix_tokens) == want[:3]
    assert rendered.peek(1300).tolist() == after
    return refills


def record_renders(monkeypatch) -> list:
    """Patch ``harness.render_prompt`` to record the three texts of each prompt it renders."""
    rendered = []
    original = harness.render_prompt

    def recording(*args):
        result = original(*args)
        rendered.append(result)
        return result

    monkeypatch.setattr(harness, "render_prompt", recording)
    return rendered


def record_from_text(monkeypatch) -> list:
    """Patch ``TokenizedPrompt.from_text`` to record the texts of each call."""
    tokenized = []
    original = TokenizedPrompt.from_text.__func__

    def recording(cls, *args):
        tokenized.append(args)
        return original(cls, *args)

    monkeypatch.setattr(TokenizedPrompt, "from_text", classmethod(recording))
    return tokenized


class TestWorkloadSynthesis:
    def test_prompt_token_counts_are_exact(self):
        rng = MtStream("0")
        for _ in range(40):
            total = rng.randint(64, 4000)
            prefix, content, suffix = render_prompt(rng, total, 6, 4)
            count = len(tokenize(prefix)) + len(tokenize(content)) + len(tokenize(suffix))
            assert count == total

    @pytest.mark.parametrize("total", [4, 5], ids=["no-content", "one-content-token"])
    def test_a_prompt_needs_two_content_tokens(self, total):
        with pytest.raises(ValueError, match="prompt too short"):
            synthesize_prompt(MtStream("0"), total, 2, 2)

    def test_no_prefix_or_suffix(self):
        prefix, content, suffix = render_prompt(MtStream("1"), 500, 0, 0)
        assert prefix == "" and suffix == ""
        assert len(tokenize(content)) == 500

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.one_of(st.integers(2, 40), st.integers(2, 4000), st.sampled_from([8000, 16000, 32000])),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @example(0, 2, 0, 0)  # smallest content: one one-word sentence
    @example(0, 3, 1, 1)
    @example(1, 32000, 2, 2)
    def test_matches_the_draw_loop(self, seed, content_tokens, prefix_tokens, suffix_tokens):
        total = content_tokens + prefix_tokens + suffix_tokens
        assert_matches_the_draw_loop(seed, total, prefix_tokens, suffix_tokens)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_extended_blocks_match_the_draw_loop(self, monkeypatch, block):
        # a first block of ``block`` outputs, whatever the prompt's length, and
        # refills as small, so most prompts run it short and peek past the buffer
        monkeypatch.setattr(harness, "_DRAW_BLOCK_WORDS", block)
        monkeypatch.setattr(harness, "_DRAW_OUTPUTS_PER_TOKEN", 0)
        monkeypatch.setattr(MtStream, "_REFILL_WORDS", block)
        cases = random.Random(block)
        extended = 0
        for _ in range(40):
            seed = cases.getrandbits(32)
            prefix_tokens, suffix_tokens = cases.randint(0, 12), cases.randint(0, 12)
            total = prefix_tokens + suffix_tokens + cases.choice([2, 3, cases.randint(2, 300), cases.randint(2, 3000)])
            extended += assert_matches_the_draw_loop(seed, total, prefix_tokens, suffix_tokens) > 1  # past the first block
        assert extended >= 10  # 40, 40 and 16 of the 40 cases at blocks 1, 7 and 64

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.one_of(st.integers(2, 40), st.integers(2, 4000), st.sampled_from([8000, 16000, 32000])),
        st.one_of(st.integers(0, 2), st.integers(3, 24)),
        st.one_of(st.integers(0, 2), st.integers(3, 24)),
    )
    @example(0, 2, 0, 0)  # smallest content: one one-word sentence
    @example(0, 2, 0, 1)  # a suffix of just '?'
    @example(1, 32000, 6, 4)
    def test_synthesized_tokens_equal_from_text(self, seed, content_tokens, prefix_tokens, suffix_tokens):
        total = content_tokens + prefix_tokens + suffix_tokens
        texts = render_prompt(MtStream(str(seed)), total, prefix_tokens, suffix_tokens)
        sizes = synthesize_prompt(MtStream(str(seed)), total, prefix_tokens, suffix_tokens)
        prompt = TokenizedPrompt(prefix_tokens, sizes, suffix_tokens)  # the shape generate_workload builds
        assert prompt == TokenizedPrompt.from_text(*texts)  # sentence_sizes included
        assert prompt.total_tokens == total
        counts = (prompt.prefix_tokens, prompt.content_tokens, prompt.suffix_tokens)
        assert counts == tuple(len(tokenize(text)) for text in texts) == (prefix_tokens, content_tokens, suffix_tokens)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), prompt_shapes())
    @example(0, (0, 0, 2))
    @example(1, (24, 24, 32000))
    def test_synthesized_text_holds_no_phone_number(self, seed, shape):
        # words are ``w`` plus at most four digits, so a real-text rule such as
        # an 11-digit phone number never fires on a synthesized prompt
        prefix_tokens, suffix_tokens, total = shape
        phone = (ScrubRule(r"\d{11}", "[PHONE]"),)
        for text in render_prompt(MtStream(str(seed)), total, prefix_tokens, suffix_tokens):
            assert re.search(r"\d{5}", text) is None
            assert scrub(text, phone) is text

    @pytest.mark.parametrize("draw", [synthesize_prompt, render_prompt])
    def test_words_are_drawn_in_bulk(self, draw):
        rng = RefillCountingStream("5")
        draw(rng, 8192, 16, 24)
        assert rng.refills == 1  # one block; skipping what was consumed stays inside it

    @pytest.mark.parametrize("lead", [0, 1, 623, 624])  # outputs drawn before the prompt
    @pytest.mark.parametrize("block", [None, 7])  # the default first block, or one every prompt runs short
    def test_a_drawn_prompt_leaves_the_stream_at_its_next_output(self, monkeypatch, lead, block):
        if block is not None:
            monkeypatch.setattr(harness, "_DRAW_BLOCK_WORDS", block)
            monkeypatch.setattr(harness, "_DRAW_OUTPUTS_PER_TOKEN", 0)
        cases = random.Random(lead)
        for total in (30, 700, 3000, 8000):
            seed = str(cases.getrandbits(32))
            rng, ref = MtStream(seed), random.Random(seed)
            rng.skip(lead)
            drawn, starts, words = harness._draw_prompt(rng, total, 12, 8)
            assert block is None or len(drawn) > block
            # one past the output of the last sentence's last word
            pos = int(np.flatnonzero(drawn < harness._WORD_LIMIT)[starts[-1] + words[-1] - 1]) + 1
            outputs = [ref.getrandbits(32) for _ in range(lead + pos + 1300)]
            assert drawn[:pos].tolist() == outputs[lead:lead + pos]
            assert rng.peek(1300).tolist() == outputs[lead + pos:]

    def test_workload_is_deterministic(self):
        config = config_from_dict(base_config_dict())
        a = generate_workload(config, seed=7)
        b = generate_workload(config, seed=7)
        assert a == b
        assert len({g.source_seed for g in a}) == len(a)

    def test_a_rule_that_rewrites_text_to_itself_keeps_the_synthesized_sizes(self, monkeypatch):
        data = base_config_dict()
        identity = [{"pattern": r"w(\d)", "replacement": r"w\1"}]
        plain = generate_workload(config_from_dict({**data, "scrub_rules": []}), seed=7)
        rendered = record_renders(monkeypatch)
        tokenized = record_from_text(monkeypatch)
        rewritten = generate_workload(config_from_dict({**data, "scrub_rules": identity}), seed=7)
        # each scrubbed prompt is counted once, and the rule rewrote each rendered text to itself
        assert len(rendered) == len(plain) and tokenized == rendered
        assert rewritten == plain
        # the synthesized sizes, between the workload's prefix and suffix counts, shape the text
        for g, texts in zip(plain, rendered):
            assert g.prompt == TokenizedPrompt.from_text(*texts)

    def test_a_rule_may_not_grow_a_prompt_past_the_token_range(self, monkeypatch):
        # the rule splits each word ``w1234`` into ``w1, 234``; a range of 2100
        # tokens admits the 1000- and 2000-token prompts, not what the rule makes of them
        config = load_config(DATA / "scrub_config.json")
        monkeypatch.setattr(harness, "MAX_PROMPT_TOKENS", 2100)
        with pytest.raises(ConfigError, match=r"^config\.scrub_rules: req-\d{4} grows past 2100 tokens$"):
            generate_workload(config, config.seed)

    def test_custom_scrub_rules_parse_from_config(self):
        data = base_config_dict()
        data["scrub_rules"] = [{"pattern": r"\d{10}", "replacement": "[NUM]"}]
        config = config_from_dict(data)
        assert config.scrub_rules[0].pattern == r"\d{10}"
        with pytest.raises(ConfigError, match="pattern"):
            config_from_dict({**base_config_dict(), "scrub_rules": [{"replacement": "x"}]})

    def test_empty_scrub_rules_turn_scrubbing_off(self):
        config = config_from_dict({**base_config_dict(), "scrub_rules": []})
        assert config.scrub_rules == ()

    def test_absent_scrub_rules_mean_no_rules(self):
        assert config_from_dict(base_config_dict()).scrub_rules == ()


def trace_with_cell(tmp_path, column: str, value: str) -> Path:
    """The golden report trace with the ``column`` cell of its line 4 set to ``value``."""
    lines = (GOLDEN / "report" / "trace_planned.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[header.index(column)] = value
    lines[3] = ",".join(cells)
    bad = tmp_path / "trace_bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_budget_sweep_paces_down_as_budget_grows(self, tmp_path):
        data = base_config_dict()
        data["variants"] = [
            {"name": f"L{budget}", "ratio": 1.0, "max_tokens": budget} for budget in (2, 5, 10, 20)
        ]
        data["workload"]["output_min"] = 200
        data["workload"]["output_max"] = 250
        config = config_from_dict(data)
        result = run_experiment(config, tmp_path)

        paces = []
        for budget in (2, 5, 10, 20):
            rows = read_rows(tmp_path / f"trace_L{budget}.csv")
            values = {float(r["tpot_smooth"]) for r in rows}
            assert len(values) == 1  # full-ratio masks leave no per-request slack
            paces.append(values.pop())
        assert all(a > b for a, b in zip(paces, paces[1:]))
        # the amortized surplus spreads over 19x more tokens at 20 than at 2
        # (tolerance covers the 6-decimal CSV rounding)
        surplus_ratio = (paces[0] - 30.0) / (paces[-1] - 30.0)
        assert surplus_ratio == pytest.approx(19.0, rel=1e-6)
        # the headline pace ratio sits below that because the device pace floors it
        assert 5.0 <= paces[0] / paces[-1] <= 19.0

    def test_ratio_sweep_is_monotone_in_device_ttft_and_nested_masks(self, tmp_path):
        data = base_config_dict()
        data["workload"]["prompt_lengths"] = {"8000": 1.0}
        data["workload"]["requests"] = 8
        data["variants"] = [
            {"name": "r25", "ratio": 0.25},
            {"name": "r50", "ratio": 0.5},
            {"name": "r75", "ratio": 0.75},
            {"name": "r100", "ratio": 1.0},
        ]
        config = config_from_dict(data)
        run_experiment(config, tmp_path)

        by_variant = {}
        for name in ("r25", "r50", "r75", "r100"):
            rows = read_rows(tmp_path / f"trace_{name}.csv")
            by_variant[name] = rows
        for a, b in (("r25", "r50"), ("r50", "r75"), ("r75", "r100")):
            for row_a, row_b in zip(by_variant[a], by_variant[b]):
                assert float(row_a["ttft_d"]) < float(row_b["ttft_d"])
                assert int(row_a["refined_tokens"]) <= int(row_b["refined_tokens"])
        # half-selected sentence masks cost more wire bytes than quarter-selected ones
        median = lambda name: statistics.median(int(r["mask_bytes"]) for r in by_variant[name])
        assert median("r25") <= median("r50")
        assert median("r100") < median("r50")

    def test_measured_cloud_ttft_matches_model_prediction(self, tmp_path, calibrated_model):
        config = config_from_dict(base_config_dict())
        run_experiment(config, tmp_path)
        rows = read_rows(tmp_path / "trace_planned.csv")
        assert rows
        model = config.models["phone"]
        for row in rows:
            # user-perceived TTFT is the cloud TTFT, recorded from the same float
            assert row["user_ttft"] == row["ttft_c"]
            predicted = ttft_cloud(model, int(row["l"]), float(row["rtt_ms"]))
            assert float(row["ttft_c"]) == pytest.approx(predicted, abs=1e-5)

    def test_empty_workload_reports_cleanly(self, tmp_path):
        data = base_config_dict()
        data["workload"]["requests"] = 0
        config = config_from_dict(data)
        result = run_experiment(config, tmp_path)
        assert result.variants[0].requests == 0
        assert (tmp_path / "trace_planned.csv").read_text().count("\n") == 1
        assert (tmp_path / "summary.csv").exists()

    @staticmethod
    def record_prompt_builds(monkeypatch) -> tuple[list, list]:
        """Patch ``TokenizedPrompt`` to record each ``from_text`` call's texts and each prompt built."""
        built = []
        original_post_init = TokenizedPrompt.__post_init__

        def counting_post_init(prompt):
            built.append(prompt)
            original_post_init(prompt)

        tokenized = record_from_text(monkeypatch)
        monkeypatch.setattr(TokenizedPrompt, "__post_init__", counting_post_init)
        return tokenized, built

    def test_synthesized_prompts_are_built_once_without_tokenizing(self, tmp_path, monkeypatch):
        data = base_config_dict()
        data["workload"]["requests"] = 5
        data["variants"] = [{"name": "planned"}, {"name": "L8", "max_tokens": 8}, {"name": "r40", "ratio": 0.4}]
        config = config_from_dict(data)
        # a rule that never matches has generate_workload render the same prompts' text
        rendered = record_renders(monkeypatch)
        generate_workload(config_from_dict({**data, "scrub_rules": [{"pattern": "z", "replacement": "y"}]}), config.seed)
        shapes = [TokenizedPrompt.from_text(*texts) for texts in rendered]
        tokenized, built = self.record_prompt_builds(monkeypatch)
        run_experiment(config, tmp_path)
        assert tokenized == []
        assert built == shapes
        assert len(rendered) == 5  # the run rendered none

    def test_scrubbed_prompts_are_tokenized_once(self, tmp_path, monkeypatch):
        # a rule that rewrites one word value: some requests' text holds it
        data = base_config_dict()
        data["workload"]["requests"] = 8
        data["variants"] = [{"name": "planned"}, {"name": "L8", "max_tokens": 8}, {"name": "r40", "ratio": 0.4}]
        data["scrub_rules"] = [{"pattern": r"\bw7777\b", "replacement": "w7, 777"}]
        config = config_from_dict(data)
        rendered = record_renders(monkeypatch)
        tokenized, built = self.record_prompt_builds(monkeypatch)
        run_experiment(config, tmp_path)
        tokenized, built = list(tokenized), list(built)  # before the shapes below are built
        scrubbed = [tuple(scrub(text, config.scrub_rules) for text in texts) for texts in rendered]
        changed = [after for after, before in zip(scrubbed, rendered) if after != before]
        assert len(rendered) == 8 and 0 < len(changed) < 8
        assert tokenized == scrubbed  # changed or not, each scrubbed prompt is counted once
        assert built == [TokenizedPrompt.from_text(*texts) for texts in scrubbed]

    @pytest.mark.parametrize("config_file", ["report_config.json", "scrub_config.json"])
    def test_prompt_text_is_rendered_only_for_scrub_rules(self, tmp_path, monkeypatch, config_file):
        # without rules nothing reads a prompt's text; with them each request's is rendered once
        config = load_config(DATA / config_file)
        rendered = record_renders(monkeypatch)
        run_experiment(config, tmp_path)
        assert len(rendered) == (config.workload.requests if config.scrub_rules else 0)

    def test_each_request_is_scored_once(self, tmp_path, monkeypatch):
        data = base_config_dict()
        data["workload"]["requests"] = 5
        data["variants"] = [{"name": "planned"}, {"name": "L8", "max_tokens": 8}, {"name": "r40", "ratio": 0.4}]
        calls = []
        original = cloudsim.uniform_scores

        def counting(prompt, seed):
            calls.append(seed)
            return original(prompt, seed)

        monkeypatch.setattr(cloudsim, "uniform_scores", counting)
        run_experiment(config_from_dict(data), tmp_path)
        assert len(calls) == 5 and len(set(calls)) == 5

    def test_each_request_is_refined_once_per_ratio(self, tmp_path, monkeypatch):
        # on the built-in config ``L20`` and ``planned`` solve to the same
        # ratio for a third of the 180 sessions
        counts = {"select_sentences": 0, "pack": 0}
        for name in counts:
            original = getattr(cloudsim, name)

            def counting(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(cloudsim, name, counting)
        served, solved = {}, []
        original_solve, original_serve = harness.solve_plan, harness.serve_request

        def solving(*args, **kwargs):
            solved.append(original_solve(*args, **kwargs))
            return solved[-1]

        def recording(gen, model, source, mask, **point):
            # each session is served at the point solved just before it
            served.setdefault((gen.request_id, solved[-1].ratio), []).append(mask)
            return original_serve(gen, model, source, mask, **point)

        monkeypatch.setattr(harness, "solve_plan", solving)
        monkeypatch.setattr(harness, "serve_request", recording)
        run_experiment(default_config(), tmp_path)
        assert sum(map(len, served.values())) == 180
        assert counts == {"select_sentences": 120, "pack": 120} and len(served) == 120
        assert all(mask is masks[0] for masks in served.values() for mask in masks)

    def test_an_experiment_builds_no_event_loop(self, tmp_path, monkeypatch):
        built = []
        original = EventLoop.__init__

        def counting(loop, *args, **kwargs):
            built.append(loop)
            original(loop, *args, **kwargs)

        monkeypatch.setattr(EventLoop, "__init__", counting)
        result = run_experiment(default_config(), tmp_path)
        assert all(variant.tps > 0 for variant in result.variants)
        assert built == []

    def test_seed_override_changes_outputs(self, tmp_path):
        config = config_from_dict(base_config_dict())
        run_experiment(config, tmp_path / "a", seed=1)
        run_experiment(config, tmp_path / "b", seed=2)
        assert (tmp_path / "a" / "trace_planned.csv").read_text() != (tmp_path / "b" / "trace_planned.csv").read_text()

    def test_pinned_ratio_budget_is_solved_for_the_served_prompt(self, tmp_path):
        # the rule splits w1000..w1999 into two tokens, so every served prompt
        # is longer than the length the workload asked for
        data = json.loads((DATA / "report_config.json").read_text())
        data["scrub_rules"] = [{"pattern": r"\bw1(\d\d\d)\b", "replacement": r"x \1"}]
        data["variants"] = [{"name": "r40", "ratio": 0.4}]
        config = config_from_dict(data)
        run_experiment(config, tmp_path)
        rows = read_trace(tmp_path / "trace_r40.csv")
        assert len(rows) == 10 and all(row.l not in (2000, 4000) for row in rows)
        for row in rows:
            model, constraints = config.models[row.device_class], config.scenes[row.scene]
            assert row.L == solve_plan(model, constraints, row.l, ratio=0.4).max_tokens, row.request_id
            assert row.feasible == feasible_by_substitution(model, constraints, row.l, 0.4, row.L)

    def test_pinned_budget_rows_are_judged_at_the_served_prompt(self, tmp_path):
        data = json.loads((DATA / "report_config.json").read_text())
        data["variants"] = [{"name": "L12", "max_tokens": 12}, {"name": "r40L30", "ratio": 0.4, "max_tokens": 30}]
        config = config_from_dict(data)
        run_experiment(config, tmp_path)
        for name, budget in (("L12", 12), ("r40L30", 30)):
            rows = read_trace(tmp_path / f"trace_{name}.csv")
            assert len(rows) == 10 and {row.L for row in rows} == {budget}
            for row in rows:
                model, constraints = config.models[row.device_class], config.scenes[row.scene]
                ratio = 0.4 if name == "r40L30" else solve_plan(model, constraints, row.l).ratio
                assert row.r == ratio, row.request_id
                assert row.feasible == feasible_by_substitution(model, constraints, row.l, ratio, budget)


class TestReport:
    def test_report_over_traces(self, tmp_path):
        config = config_from_dict(base_config_dict())
        run_experiment(config, tmp_path / "run")
        result = report([tmp_path / "run" / "trace_planned.csv"], tmp_path / "rep")
        assert (tmp_path / "rep" / "report.csv").exists()
        assert (tmp_path / "rep" / "report.txt").exists()
        assert result.variants[0].requests == 12

    def test_median_mask_bytes_is_a_float_for_an_odd_row_count(self, tmp_path):
        data = base_config_dict()
        data["workload"]["requests"] = 5
        run_experiment(config_from_dict(data), tmp_path / "run")
        report([tmp_path / "run" / "trace_planned.csv"], tmp_path / "rep")
        for path in (tmp_path / "run" / "summary.csv", tmp_path / "rep" / "report.csv"):
            (row,) = read_rows(path)
            assert row["requests"] == "5"
            assert re.fullmatch(r"[0-9]+\.0{6}", row["median_mask_bytes"]), path

    def test_missing_columns_raise(self, tmp_path):
        bad = tmp_path / "trace_bad.csv"
        bad.write_text("variant,request_id\nplanned,x\n")
        with pytest.raises(ReportError, match="missing columns"):
            report([bad], tmp_path / "rep")

    @pytest.mark.parametrize(
        "column,value,needle",
        [
            ("user_ttft", "abc", "column user_ttft: could not convert"),
            ("corrections", "1.5", "column corrections: invalid literal"),
            ("occupancy", "", "column occupancy: could not convert"),
            ("planning_miss", "yes", "column planning_miss: expected true or false, got 'yes'"),
            ("feasible", "True", "column feasible: expected true or false"),
            ("user_ttft", "nan", "column user_ttft: must be a finite number of magnitude at most 1e+15, got 'nan'"),
            ("occupancy", "inf", "column occupancy: must be a finite number of magnitude at most 1e+15, got 'inf'"),
            ("tpot_smooth", "-inf",
             "column tpot_smooth: must be a finite number of magnitude at most 1e+15, got '-inf'"),
            # beyond what any config in range writes: a 401-digit int is too large for a float mean
            pytest.param("mask_bytes", "1" + "0" * 400,
                         "column mask_bytes: must be a finite number of magnitude at most 1e+15",
                         id="mask_bytes-401-digits"),
            ("L", "-1000000000000001", "column L: must be a finite number of magnitude at most 1e+15"),
            ("user_ttft", "1.7e308", "column user_ttft: must be a finite number of magnitude at most 1e+15"),
        ],
    )
    def test_bad_values_name_file_line_and_column(self, tmp_path, column, value, needle):
        bad = trace_with_cell(tmp_path, column, value)
        with pytest.raises(ReportError, match=f"^{re.escape(str(bad))}: line 4: {re.escape(needle)}"):
            report([bad], tmp_path / "rep")

    def test_undecodable_byte_names_file(self, tmp_path):
        bad = tmp_path / "trace_bad.csv"
        bad.write_bytes((GOLDEN / "report" / "trace_planned.csv").read_bytes() + b"planned,\xff\n")
        with pytest.raises(ReportError, match=f"^{re.escape(str(bad))}: cannot decode byte 0xff"):
            report([bad], tmp_path / "rep")

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        lines = (GOLDEN / "report" / "trace_planned.csv").read_text().splitlines()
        bad = tmp_path / "trace_bad.csv"
        bad.write_text("\n".join([*lines[:3], "x" * (csv.field_size_limit() + 1) + lines[3]]) + "\n")
        with pytest.raises(ReportError, match=f"^{re.escape(str(bad))}: line 4: field larger than field limit"):
            report([bad], tmp_path / "rep")

    def test_short_row_raises(self, tmp_path):
        lines = (GOLDEN / "report" / "trace_planned.csv").read_text().splitlines()
        bad = tmp_path / "trace_bad.csv"
        bad.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]]) + "\n")
        with pytest.raises(ReportError, match=f"^{re.escape(str(bad))}: line 3: 23 values for 24 columns"):
            report([bad], tmp_path / "rep")

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/trace_*.csv")), ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_golden_traces_round_trip(self, tmp_path, path):
        write_trace(tmp_path / "again.csv", read_trace(path))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("config_file", [None, "sweep_config.json", "long_decode_config.json"])
    def test_report_reproduces_simulate(self, tmp_path, config_file):
        config = default_config() if config_file is None else load_config(DATA / config_file)
        run_experiment(config, tmp_path / "run")
        report(sorted((tmp_path / "run").glob("trace_*.csv")), tmp_path / "rep")
        summary = {row["variant"]: row for row in read_rows(tmp_path / "run" / "summary.csv")}
        reported = {row["variant"]: row for row in read_rows(tmp_path / "rep" / "report.csv")}
        assert reported.keys() == summary.keys()
        blank = {"tps", "analytic_tps", "above_tau_requests"}
        for name, row in reported.items():
            assert row.keys() == summary[name].keys()
            assert {column for column, value in row.items() if value == ""} == blank
            for column in row.keys() - blank - {"variant"}:
                assert float(row[column]) == pytest.approx(float(summary[name][column]), abs=1e-6), (name, column)
        text = (tmp_path / "rep" / "report.txt").read_text()
        assert "tps=n/a" in text and "n/a: tps, analytic_tps, above_tau_requests" in text

    def test_latencies_whose_sum_would_overflow_are_out_of_range(self, tmp_path):
        # each latency of this config would be finite, but the compression cost
        # puts the phone's near 1e308 ms, so their sum would overflow a float
        data = json.loads((DATA / "report_config.json").read_text())
        data["timing"]["device_classes"]["phone"].update(
            k_device=1.1e304, tpot_device=99.4997, compress={"base_ms": 0.9e308, "per_token_ms": 0.01}
        )
        with pytest.raises(ConfigError, match=r"^config\.timing\.device_classes\.phone\.k_device: must be in \["):
            config_from_dict(data)
        # nor can a trace hold such a latency
        bad = trace_with_cell(tmp_path, "user_ttft", "0.9e308")
        with pytest.raises(ReportError, match=f"^{re.escape(str(bad))}: line 4: column user_ttft: must be a finite"):
            report([bad], tmp_path / "rep")
        assert not (tmp_path / "rep").exists()

    def test_percentile_is_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert nearest_rank_percentile(values, 50) == 20.0
        assert nearest_rank_percentile(values, 95) == 40.0
        assert nearest_rank_percentile(values, 1) == 10.0
        assert nearest_rank_percentile([], 50) == 0.0


class TestGoldenReport:
    @staticmethod
    def assert_every_file_matches(golden: str, config: harness.ExperimentConfig, out: Path) -> None:
        golden_dir = GOLDEN / golden
        run_experiment(config, out)
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in golden_dir.iterdir())
        for name in written:
            assert (out / name).read_bytes() == (golden_dir / name).read_bytes(), name

    @staticmethod
    def data_config(name: str) -> harness.ExperimentConfig:
        return load_config(DATA / name)

    def test_fixed_seed_outputs_match_frozen_files(self, tmp_path):
        self.assert_every_file_matches("report", self.data_config("report_config.json"), tmp_path)

    def test_default_config_outputs_match_frozen_files(self, tmp_path):
        # what `pd simulate` writes without a config: closed batch, three variants
        self.assert_every_file_matches("default", default_config(), tmp_path)

    def test_sweep_outputs_match_frozen_files(self, tmp_path):
        # jittered and truncated RTT draws, pinned-ratio and budget variants,
        # device_display corrections and a Poisson batch: every written file
        self.assert_every_file_matches("sweep", self.data_config("sweep_config.json"), tmp_path)

    def test_long_decode_outputs_match_frozen_files(self, tmp_path):
        # 400-1200 output tokens, so most of each session is the device tail
        # after the cloud window; correction policy off
        self.assert_every_file_matches("long_decode", self.data_config("long_decode_config.json"), tmp_path)

    def test_scrubbed_outputs_match_frozen_files(self, tmp_path):
        # a scrub rule that rewrites most synthesized words and adds commas, so
        # every prompt goes through from_text rather than its synthesized sizes
        self.assert_every_file_matches("scrub", self.data_config("scrub_config.json"), tmp_path)
