import contextlib
import copy
import io
import json
import math
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_weight_dump

from pdsim.cli import main, read_weight_dump
from pdsim.maskcodec import CompressedMask, unpack
from pdsim.refiner import TokenizedPrompt


@pytest.fixture
def config_path() -> str:
    return str(Path(__file__).parent / "data" / "report_config.json")


class TestPlanCommand:
    def test_writes_plan_table(self, tmp_path, config_path, capsys):
        assert main(["plan", "--config", config_path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "plans.csv").read_text().splitlines()
        # 2 scenes x 2 device classes x 3 buckets
        assert len(lines) == 1 + 12
        assert "plans" in capsys.readouterr().out

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


def _set(*path_and_value):
    """Mutation that sets the nested key ``path`` of a config dict to ``value``."""
    *path, key, value = path_and_value

    def mutate(data: dict) -> None:
        for part in path:
            data = data[part]
        data[key] = value

    return mutate


def _all(*mutations):
    """Mutation that applies each of ``mutations`` in turn."""

    def mutate(data: dict) -> None:
        for each in mutations:
            each(data)

    return mutate


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "mutate,key_path",
        [
            (_set("workload", "arrival_rate_per_s", 0.0), "config.workload.arrival_rate_per_s"),
            (_set("workload", "arrival_rate_per_s", -2.0), "config.workload.arrival_rate_per_s"),
            (_set("batch", "mode", "burst"), "config.batch"),
            (_set("batch", "slots", 0), "config.batch.slots"),
            (_set("batch", "mode", "poisson"), "config.batch"),
            (_set("buckets", [4000, 2000, 8000]), "config.buckets"),
            (_set("buckets", [2000, 2000, 8000]), "config.buckets"),
            (_set("policy", "majority"), "config.policy"),
            (_set("scrub_rules", [{"pattern": "(", "replacement": "x"}]), "config.scrub_rules[0]"),
            (_set("scrub_rules", [{"pattern": "a", "replacement": "\\9"}]), "config.scrub_rules[0]"),
            (_set("workload", "prefix_tokens", -5), "config.workload.prefix_tokens"),
            (_set("workload", "suffix_tokens", -1), "config.workload.suffix_tokens"),
            (_set("variants", [{"name": "planned"}, {"name": "planned", "max_tokens": 12}]), "config.variants[1].name"),
            (_set("scenes", "doc_qa", 5), "config.scenes.doc_qa"),
            (_set("workload", "prefix_tokens", "x"), "config.workload.prefix_tokens"),
            (_set("workload", "divergence_rate", None), "config.workload.divergence_rate"),
            (_set("batch", "arrival_rate_per_s", "fast"), "config.batch.arrival_rate_per_s"),
            (_set("batch", "completions", 0), "config.batch.completions"),
            (_set("variants", [{"name": "r", "ratio": "half"}]), "config.variants[0].ratio"),
            (_set("scrub_rules", 5), "config.scrub_rules"),
            # rules that empty every prompt, or leave only whitespace, leave no request to send
            (_set("scrub_rules", [{"pattern": "[\\s\\S]+", "replacement": ""}]), "config.scrub_rules"),
            (_set("scrub_rules", [{"pattern": "\\S+", "replacement": ""}]), "config.scrub_rules"),
            (_set("workload", "prompt_lengths", {"2k": 1.0}), "config.workload.prompt_lengths.2k"),
            (_set("workload", "prompt_lengths", {"0": 1.0}), "config.workload.prompt_lengths.0"),
            (_set("workload", "prompt_lengths", {"2000": "a"}), "config.workload.prompt_lengths.2000"),
            (_set("workload", "prompt_lengths", {"2000": 0.9, "02000": 0.1}), "config.workload.prompt_lengths.02000"),
            (_set("workload", "scene_mix", {"doc_qa": "a", "summary": 0.5}), "config.workload.scene_mix.doc_qa"),
            (_set("workload", "scene_mix", {"doc_qa": True}), "config.workload.scene_mix.doc_qa"),
            (_set("workload", "scene_mix", {"doc_qa": -1.0, "summary": -0.5}), "config.workload.scene_mix.doc_qa"),
            (_set("workload", "device_mix", {"phone": 0, "tablet": 0.0}), "config.workload.device_mix"),
            (_set("workload", "device_mix", {"phone": float("nan")}), "config.workload.device_mix.phone"),
            (_set("workload", "divergence_rate", 2.0), "config.workload.divergence_rate"),
            (_set("workload", "divergence_rate", -0.5), "config.workload.divergence_rate"),
            (_set("timing", "device_classes", "phone", "compress", {"base_ms": -50.0, "per_token_ms": 0.01}),
             "config.timing.device_classes.phone.compress.base_ms"),
            (_set("timing", "device_classes", "phone", "compress", {"base_ms": 50.0, "per_token_ms": -0.01}),
             "config.timing.device_classes.phone.compress.per_token_ms"),
            (_set("timing", "device_classes", "tablet", "decompress", {"base_ms": -50.0, "per_token_ms": -0.01}),
             "config.timing.device_classes.tablet.decompress.base_ms"),
            (_set("timing", "device_classes", "tablet", 5), "config.timing.device_classes.tablet"),
            (_set("timing", "device_classes", "phone", "rtt", "5g"), "config.timing.device_classes.phone.rtt"),
            (_set("timing", "device_classes", "phone", "rtt", {"mean_ms": -5.0}),
             "config.timing.device_classes.phone.rtt.mean_ms"),
            # json.loads reads NaN and Infinity as floats
            (_set("timing", "device_classes", "tablet", "k_device", float("nan")),
             "config.timing.device_classes.tablet.k_device"),
            (_set("timing", "device_classes", "tablet", "k_device", float("inf")),
             "config.timing.device_classes.tablet.k_device"),
            (_set("timing", "device_classes", "tablet", "k_device", 10**400),
             "config.timing.device_classes.tablet.k_device"),
            (_set("timing", "device_classes", "phone", "rtt", "mean_ms", float("nan")),
             "config.timing.device_classes.phone.rtt.mean_ms"),
            (_set("timing", "device_classes", "phone", "rtt", "jitter_ms", float("inf")),
             "config.timing.device_classes.phone.rtt.jitter_ms"),
            (_set("scenes", "doc_qa", "max_tpot_ms", float("nan")), "config.scenes.doc_qa.max_tpot_ms"),
            (_set("scenes", "summary", "min_ratio", float("-inf")), "config.scenes.summary.min_ratio"),
            (_set("workload", "arrival_rate_per_s", float("nan")), "config.workload.arrival_rate_per_s"),
            (_set("workload", "divergence_rate", float("nan")), "config.workload.divergence_rate"),
            (_set("variants", [{"name": "r", "ratio": float("nan")}]), "config.variants[0].ratio"),
            # a bool is an int to isinstance, and plans.csv would write the bucket `true`
            (_set("buckets", [True, 2000, 4000]), "config.buckets"),
            # a variant name is part of the file name trace_<name>.csv
            (_set("variants", [{"name": "planned"}, {"name": "a/b"}]), "config.variants[1].name"),
            (_set("variants", [{"name": "a\\b"}]), "config.variants[0].name"),
            (_set("variants", [{"name": "a\0b"}]), "config.variants[0].name"),
            (_set("variants", [{"name": ""}]), "config.variants[0].name"),
            # a misspelt key at any level names itself
            (_set("polcy", "off"), "config.polcy"),
            (_set("timing", "device_class", {}), "config.timing.device_class"),
            (_set("timing", "device_classes", "tablet", "k_devise", 0.9),
             "config.timing.device_classes.tablet.k_devise"),
            (_set("timing", "device_classes", "phone", "rtt", "jiter_ms", 5.0),
             "config.timing.device_classes.phone.rtt.jiter_ms"),
            (_set("timing", "device_classes", "phone", "compress", {"base_ms": 20.0, "per_tokens_ms": 0.01}),
             "config.timing.device_classes.phone.compress.per_tokens_ms"),
            (_set("scenes", "summary", "max_tpot", 100.0), "config.scenes.summary.max_tpot"),
            (_set("workload", "divergence", 0.1), "config.workload.divergence"),
            (_set("batch", "complet", 64), "config.batch.complet"),
            (_set("variants", [{"name": "r50", "ratoi": 0.5}]), "config.variants[0].ratoi"),
            (_set("scrub_rules", [{"pattern": "a", "replacement": "b", "flags": "i"}]), "config.scrub_rules[0].flags"),
            # the planner judges a ratio from compress, decompress and the p95 RTT; no overhead is configured
            (_set("timing", "device_classes", "phone", "overhead_bound", "auto"),
             "config.timing.device_classes.phone.overhead_bound"),
            # an RTT class is its numbers; the built-in ones are named by their RTT_CLASSES key
            (_set("timing", "device_classes", "phone", "rtt", {"name": "fixed", "mean_ms": 50.0}),
             "config.timing.device_classes.phone.rtt.name"),
            # finite values whose token budget bounds would overflow a float lie outside their ranges
            (_set("timing", "device_classes", "phone", "k_device", 1e306),
             "config.timing.device_classes.phone.k_device"),
            (_set("timing", "device_classes", "phone", "tpot_cloud", 1e-320),
             "config.timing.device_classes.phone.tpot_cloud"),
            (_set("timing", "device_classes", "phone", "compress", {"base_ms": 1.7e308, "per_token_ms": 1e305}),
             "config.timing.device_classes.phone.compress.base_ms"),
            # about -0.9e308 ms of prefill surplus over a 0.5003 ms pace margin at the pinned ratio
            (_all(_set("timing", "device_classes", "phone", "k_device", 1.1e304),
                  _set("timing", "device_classes", "phone", "tpot_device", 99.4997),
                  _set("timing", "device_classes", "phone", "compress", {"base_ms": 0.9e308, "per_token_ms": 0.01}),
                  _set("variants", [{"name": "planned"}, {"name": "tiny", "ratio": 0.0001}])),
             "config.timing.device_classes.phone.k_device"),
            # counts whose allocation or draw would fail after the config was read
            (_set("batch", "slots", 10**20), "config.batch.slots"),
            (_set("workload", "output_max", 10**20), "config.workload.output_max"),
            (_set("workload", "prompt_lengths", {str(10**20): 1.0}), f"config.workload.prompt_lengths.{10**20}"),
            # empty tables, a mix key that names no device class, and an empty output range
            (_set("timing", "device_classes", {}), "config.timing.device_classes"),
            (_set("scenes", {}), "config.scenes"),
            (_set("buckets", []), "config.buckets"),
            (_set("workload", "device_mix", {"phone": 0.5, "watch": 0.5}), "config.workload.device_mix.watch"),
            (_set("workload", "output_max", 59), "config.workload.output_max"),
        ],
    )
    def test_ends_in_one_error_line_with_exit_code_2(self, tmp_path, config_path, capsys, mutate, key_path):
        data = json.loads(Path(config_path).read_text())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key_path}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "plan"])
    @pytest.mark.parametrize("content", [b'{"seed": 1\xff}', b"[" * 100000 + b"]" * 100000], ids=["not-utf-8", "deep"])
    def test_unreadable_config_ends_in_one_error_line(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {bad}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


def _numeric_leaves(node, path: tuple = ()) -> list[tuple]:
    """The key path of every number in a parsed JSON document, in document order (a bool is no number)."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in children for leaf in _numeric_leaves(child, (*path, key))]


_REPORT_CONFIG = json.loads((Path(__file__).parent / "data" / "report_config.json").read_text())
# extreme finite floats, the smallest subnormal, a negative, a 401-digit int,
# the non-finite floats json.loads reads, and a number's text
_EXTREMES = [1e308, -1e308, 5e-324, -1, 10**400, math.nan, math.inf, -math.inf, "1"]


class TestConfigFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(st.sampled_from(_numeric_leaves(_REPORT_CONFIG)), st.sampled_from(_EXTREMES),
                           min_size=1, max_size=2))
    def test_extreme_numbers_run_or_end_in_one_error_line(self, edits):
        data = copy.deepcopy(_REPORT_CONFIG)
        for path, value in edits.items():
            _set(*path, value)(data)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.json", Path(tmp) / "out"
            config.write_text(json.dumps(data))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(config), "--out", str(out)])
            message = err.getvalue()
            if code != 0:
                assert code == 2 and message.startswith("error: config.") and message.count("\n") == 1, (edits, message)
                assert "Traceback" not in message and not out.exists(), (edits, message)


class TestRefineCommand:
    def test_end_to_end(self, tmp_path, capsys):
        prompt_file = tmp_path / "prompt.json"
        prompt_file.write_text(json.dumps({
            "prefix": "sys",
            "content": "alpha beta gamma. delta epsilon zeta. eta theta iota.",
            "suffix": "q",
        }))
        prompt = TokenizedPrompt.from_text("sys", "alpha beta gamma. delta epsilon zeta. eta theta iota.", "q")

        # two heads of four strictly positive probability rows over the prompt
        rng = np.random.default_rng(0)
        heads = []
        for _ in range(2):
            weights = rng.uniform(0.1, 1.0, size=(4, prompt.total_tokens))
            heads.append(weights / weights.sum(axis=1, keepdims=True))
        dump = tmp_path / "weights.bin"
        write_weight_dump(dump, heads, hidden=8)
        assert [w.shape for w in read_weight_dump(dump)] == [(4, prompt.total_tokens)] * 2

        out = tmp_path / "out"
        code = main([
            "refine", "--prompt", str(prompt_file), "--weights", str(dump),
            "--ratio", "0.5", "--kernel", "3", "--window", "4", "--out", str(out),
        ])
        assert code == 0
        mask = unpack(CompressedMask((out / "mask.bin").read_bytes()))
        assert len(mask) == prompt.total_tokens
        refined = (out / "refined.txt").read_text().split()
        assert refined[0] == "sys" and refined[-1] == "q"
        assert len(refined) == mask.popcount()
        assert "selected" in capsys.readouterr().out

    def test_writes_the_golden_mask_and_refined_text(self, tmp_path):
        # the one command that turns content tokens back into text (refined_text)
        data, golden = Path(__file__).parent / "data", Path(__file__).parent / "golden" / "refine"
        assert main([
            "refine", "--prompt", str(data / "refine_prompt.json"), "--weights", str(data / "refine_weights.bin"),
            "--ratio", "0.5", "--kernel", "3", "--window", "4", "--out", str(tmp_path),
        ]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
        for name in ("mask.bin", "refined.txt"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name

    def test_a_kernel_wider_than_the_prompt_pools_as_the_widest_one(self, tmp_path):
        # the golden prompt has 67 tokens, so kernel 135 already reaches both ends
        # from every key; a wider one must pool the same in the same memory
        data = Path(__file__).parent / "data"
        masks = []
        for kernel in ("135", str(2**62 + 1)):
            out = tmp_path / kernel
            assert main([
                "refine", "--prompt", str(data / "refine_prompt.json"), "--weights", str(data / "refine_weights.bin"),
                "--ratio", "0.5", "--kernel", kernel, "--window", "4", "--out", str(out),
            ]) == 0
            masks.append((out / "mask.bin").read_bytes())
        assert masks[0] == masks[1]

    def test_weight_dump_validation(self, tmp_path):
        bad = tmp_path / "weights.bin"
        bad.write_bytes(b"\x01\x00\x00\x00")
        with pytest.raises(ValueError):
            read_weight_dump(bad)

    @staticmethod
    def refine_exit(tmp_path, prompt_text: str, weights: bytes, ratio: str = "0.5", flags: tuple = ()) -> str:
        """Run ``pd refine`` on the given inputs and extra flags; return the message it exits with."""
        prompt_file = tmp_path / "prompt.json"
        prompt_file.write_text(prompt_text)
        dump = tmp_path / "weights.bin"
        dump.write_bytes(weights)
        with pytest.raises(SystemExit) as exit_info:
            main(["refine", "--prompt", str(prompt_file), "--weights", str(dump),
                  "--ratio", ratio, *flags, "--out", str(tmp_path / "out")])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message  # printed as one line, exit status 1
        assert not (tmp_path / "out").exists()
        return message

    @pytest.mark.parametrize(
        "prompt_text,needle",
        [
            ("{not json", "cannot read prompt"),
            pytest.param("[" * 100000 + "]" * 100000, "cannot read prompt", id="deep"),
            ('["sys", "content", "q"]', "expected a JSON object"),
            ('{"prefix": "sys", "content": 42}', "must be strings"),
            ('{"content": ["a", "b"]}', "must be strings"),
        ],
    )
    def test_malformed_prompt_file(self, tmp_path, prompt_text, needle):
        assert needle in self.refine_exit(tmp_path, prompt_text, b"")

    @pytest.mark.parametrize("weights", [
        b"", b"\x01\x00\x00\x00", bytes(16), bytes(20),
        # one head, one row, four keys, one of them not finite
        *(struct.pack("<IIII", 1, 1, 4, 8) + np.array([0.25, bad, 0.25, 0.25], "<f4").tobytes()
          for bad in (np.nan, np.inf, -np.inf)),
    ])
    def test_malformed_weight_dump(self, tmp_path, weights):
        prompt_text = json.dumps({"prefix": "sys", "content": "alpha beta. gamma.", "suffix": "q"})
        assert "cannot read weight dump" in self.refine_exit(tmp_path, prompt_text, weights)

    def test_a_dump_needs_one_key_per_prompt_token(self, tmp_path):
        # prefix, content and suffix: a dump of the 5 content keys alone is refused
        prompt_text = json.dumps({"prefix": "sys", "content": "alpha beta. gamma.", "suffix": "q"})
        prompt = TokenizedPrompt.from_text("sys", "alpha beta. gamma.", "q")
        dump = tmp_path / "dump.bin"
        write_weight_dump(dump, [np.full((4, prompt.content_tokens), 0.25)], hidden=8)
        message = self.refine_exit(tmp_path, prompt_text, dump.read_bytes())
        assert message == "weight dump covers 5 keys; prompt has 7 tokens"

    @pytest.mark.parametrize("extra", [-4, 4], ids=["short", "long"])
    def test_a_dump_whose_length_disagrees_with_its_header(self, tmp_path, extra):
        prompt_text = json.dumps({"prefix": "sys", "content": "alpha beta. gamma.", "suffix": "q"})
        prompt = TokenizedPrompt.from_text("sys", "alpha beta. gamma.", "q")
        dump = tmp_path / "dump.bin"
        write_weight_dump(dump, [np.full((4, prompt.total_tokens), 0.25)], hidden=8)
        whole = dump.read_bytes()
        weights = whole[:extra] if extra < 0 else whole + bytes(extra)
        message = self.refine_exit(tmp_path, prompt_text, weights)
        assert message.endswith(f": weight dump is {len(weights)} bytes, expected {len(whole)}")

    @pytest.mark.parametrize("ratio", ["0", "-0.5", "1.5", "nan"])
    def test_ratio_outside_unit_interval(self, tmp_path, ratio):
        prompt_text = json.dumps({"content": "alpha beta. gamma."})
        assert "--ratio" in self.refine_exit(tmp_path, prompt_text, b"", ratio=ratio)

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (("--kernel", "4"), "--kernel"),
            (("--kernel", "-1"), "--kernel"),
            (("--kernel", "0"), "--kernel"),
            (("--window", "0"), "--window"),
            (("--window", "-3"), "--window"),
        ],
    )
    def test_kernel_and_window_out_of_range(self, tmp_path, flags, needle):
        # a well-formed prompt and weight dump, so only the flag can be at fault
        prompt_text = json.dumps({"prefix": "sys", "content": "alpha beta. gamma.", "suffix": "q"})
        prompt = TokenizedPrompt.from_text("sys", "alpha beta. gamma.", "q")
        dump = tmp_path / "dump.bin"
        write_weight_dump(dump, [np.full((4, prompt.total_tokens), 0.25)], hidden=8)
        assert needle in self.refine_exit(tmp_path, prompt_text, dump.read_bytes(), flags=flags)


class TestMaskCommand:
    @pytest.mark.parametrize(
        "content", [b"1101 0011 1\n", b" 1\t101\r\n0011\x0b1\x0c\n"], ids=["spaces", "ascii-whitespace"]
    )
    def test_pack_unpack_round_trip(self, tmp_path, capsys, content):
        bits_file = tmp_path / "bits.txt"
        bits_file.write_bytes(content)
        packed = tmp_path / "mask.bin"
        assert main(["mask", "pack", str(bits_file), str(packed)]) == 0
        restored = tmp_path / "restored.txt"
        assert main(["mask", "unpack", str(packed), str(restored)]) == 0
        assert restored.read_text().strip() == "110100111"

    @pytest.mark.parametrize("action", ["pack", "unpack"])
    @pytest.mark.parametrize("infile", ["missing.txt", "."])  # a missing file, and tmp_path itself
    def test_unreadable_input_exits_with_one_line(self, tmp_path, action, infile):
        with pytest.raises(SystemExit) as exit_info:
            main(["mask", action, str(tmp_path / infile), str(tmp_path / "out.bin")])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message  # printed as one line, exit status 1
        assert message.startswith(f"cannot read {tmp_path / infile}: ")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize(
        "content, offset, byte",
        [
            (b"0120x1", 2, b"2"),
            (b"01 x", 3, b"x"),
            (b"1\xff0", 1, b"\xff"),
            (b"10\x001", 2, b"\x00"),
            (b"1,0", 1, b","),
        ],
    )
    def test_pack_names_the_first_byte_that_is_not_a_bit(self, tmp_path, content, offset, byte):
        bits_file = tmp_path / "bits.txt"
        bits_file.write_bytes(content)
        with pytest.raises(SystemExit) as exit_info:
            main(["mask", "pack", str(bits_file), str(tmp_path / "out.bin")])
        message = exit_info.value.code
        assert message == f"cannot read {bits_file}: byte {offset} is {byte!r}, not 0, 1 or whitespace"
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("container", [b"\x09\x00\x00\x00notdeflate", b"abc"], ids=["not-deflate", "short"])
    def test_corrupt_container_exits_nonzero(self, tmp_path, capsys, container):
        broken = tmp_path / "broken.bin"
        broken.write_bytes(container)
        assert main(["mask", "unpack", str(broken), str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out.txt").exists()


    def test_the_longest_mask_unpacks_in_bounded_memory(self, tmp_path):
        # 2^24 bits; one Python string per bit took about 1.2 GB
        container = tmp_path / "longest.bin"
        container.write_bytes(struct.pack("<I", 1 << 24) + zlib.compress(bytes(1 << 21), 9))
        tracemalloc.start()
        try:
            assert main(["mask", "unpack", str(container), str(tmp_path / "bits.txt")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "bits.txt").read_bytes() == b"0" * (1 << 24) + b"\n"
        assert peak < 96 << 20

    def test_a_mask_longer_than_the_longest_prompt_ends_in_one_error_line(self, tmp_path, capsys):
        # 2^24 + 1 bits to pack, and a container declaring 2^25 bits of deflated zeros to unpack
        bits_file = tmp_path / "bits.txt"
        bits_file.write_bytes(b"0" * ((1 << 24) + 1))
        deflate = zlib.compressobj(9)
        container = tmp_path / "long.bin"
        container.write_bytes(struct.pack("<I", 1 << 25) + deflate.compress(bytes(1 << 22)) + deflate.flush())
        for action, infile, declared in (("pack", bits_file, (1 << 24) + 1), ("unpack", container, 1 << 25)):
            assert main(["mask", action, str(infile), str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err == f"error: a mask holds at most {1 << 24} bits, one per prompt token; got {declared}\n"
            assert not (tmp_path / "out").exists()


class TestSimulateAndReport:
    def test_simulate_then_report(self, tmp_path, config_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", config_path, "--seed", "5", "--out", str(run_dir)]) == 0
        assert (run_dir / "summary.txt").exists()
        assert (run_dir / "trace_planned.csv").exists()
        out = capsys.readouterr().out
        assert "experiment summary" in out

        rep_dir = tmp_path / "rep"
        assert main(["report", "--traces", str(run_dir), "--out", str(rep_dir)]) == 0
        assert (rep_dir / "report.csv").exists()

    def test_report_without_traces_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--traces", str(tmp_path), "--out", str(tmp_path / "rep")])

    def test_unreadable_trace_is_named(self, tmp_path, capsys):
        (tmp_path / "trace_x.csv").mkdir()  # a directory where a trace file should be
        assert main(["report", "--traces", str(tmp_path), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path / 'trace_x.csv'}: ") and err.count("\n") == 1, err


    def test_trace_cell_beyond_the_bound_ends_in_one_error_line(self, tmp_path, capsys):
        # a 401-digit count parses as an int, but no float mean can take it
        lines = (Path(__file__).parent / "golden" / "report" / "trace_planned.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("mask_bytes")] = "1" + "0" * 400
        trace = tmp_path / "traces" / "trace_planned.csv"
        trace.parent.mkdir()
        trace.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        assert main(["report", "--traces", str(trace.parent), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: line 2: column mask_bytes: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output path that cannot be written ends in one ``error:`` line naming it, with exit code 2."""

    @staticmethod
    def assert_one_error_line(capsys, path) -> None:
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err

    @pytest.fixture
    def a_file(self, tmp_path) -> Path:
        path = tmp_path / "F"
        path.write_text("not a directory\n")
        return path

    @pytest.mark.parametrize("action", ["pack", "unpack"])
    def test_mask_into_a_missing_directory(self, tmp_path, capsys, action):
        infile = tmp_path / "in"
        if action == "pack":
            infile.write_text("1101\n")
        else:
            (tmp_path / "bits.txt").write_text("1101\n")
            assert main(["mask", "pack", str(tmp_path / "bits.txt"), str(infile)]) == 0
            capsys.readouterr()
        outfile = tmp_path / "nodir" / "x.bin"
        assert main(["mask", action, str(infile), str(outfile)]) == 2
        self.assert_one_error_line(capsys, outfile)

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_out_is_a_file(self, capsys, config_path, a_file, command):
        assert main([command, "--config", config_path, "--out", str(a_file)]) == 2
        self.assert_one_error_line(capsys, a_file)
        assert a_file.read_text() == "not a directory\n"

    def test_report_out_is_a_file(self, tmp_path, capsys, config_path, a_file):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", config_path, "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--traces", str(run_dir), "--out", str(a_file)]) == 2
        self.assert_one_error_line(capsys, a_file)

    def test_refine_out_is_a_file(self, capsys, a_file):
        data = Path(__file__).parent / "data"
        assert main([
            "refine", "--prompt", str(data / "refine_prompt.json"), "--weights", str(data / "refine_weights.bin"),
            "--ratio", "0.5", "--kernel", "3", "--window", "4", "--out", str(a_file),
        ]) == 2
        self.assert_one_error_line(capsys, a_file)

    def test_out_below_a_file(self, capsys, config_path, a_file):
        assert main(["plan", "--config", config_path, "--out", str(a_file / "sub")]) == 2
        self.assert_one_error_line(capsys, a_file / "sub")
