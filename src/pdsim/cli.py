"""``pd`` command line: plan, refine, mask pack/unpack, simulate, report.

Attention-weight dumps for ``pd refine`` are little-endian binary: four
uint32 header fields (heads, window, keys, hidden) followed by
heads * window * keys float32 weights. Prompt files are JSON objects with
"prefix", "content" and "suffix" strings.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

from . import harness, maskcodec
from .planner import build_plan_table
from .refiner import SelectionMask, TokenizedPrompt, refined_text, score_tokens, select_sentences

_WEIGHT_HEADER = struct.Struct("<IIII")


def _load_config(path: str | None) -> harness.ExperimentConfig:
    if path is None:
        return harness.default_config()
    return harness.load_config(path)


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plans = build_plan_table(config.models, config.scenes, config.buckets)
    harness.write_plans(out / "plans.csv", plans)
    print(f"wrote {out / 'plans.csv'} ({len(plans)} plans)")
    return 0


def read_weight_dump(path: str | Path) -> list[np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < _WEIGHT_HEADER.size:
        raise ValueError("weight dump shorter than its header")
    heads, window, keys, hidden = _WEIGHT_HEADER.unpack_from(data)
    if heads < 1 or window < 1 or keys < 1:
        raise ValueError("weight dump header fields must be positive")
    expect = _WEIGHT_HEADER.size + 4 * heads * window * keys
    if len(data) != expect:
        raise ValueError(f"weight dump is {len(data)} bytes, expected {expect}")
    flat = np.frombuffer(data, dtype="<f4", offset=_WEIGHT_HEADER.size)
    return [m.astype(np.float64) for m in flat.reshape(heads, window, keys)]


def _read_prompt(path: str) -> tuple[str, str, str]:
    """The prefix, content and suffix texts of a prompt file."""
    try:
        prompt_obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read prompt {path}: {exc}") from exc
    if not isinstance(prompt_obj, dict):
        raise SystemExit(f"prompt {path}: expected a JSON object")
    prefix, content, suffix = (prompt_obj.get(key, "") for key in ("prefix", "content", "suffix"))
    if not all(isinstance(text, str) for text in (prefix, content, suffix)):
        raise SystemExit(f"prompt {path}: prefix, content and suffix must be strings")
    return prefix, content, suffix


def _cmd_refine(args: argparse.Namespace) -> int:
    if not 0.0 < args.ratio <= 1.0:
        raise SystemExit(f"--ratio must be in (0, 1], got {args.ratio}")
    if args.window < 1:
        raise SystemExit(f"--window must be >= 1, got {args.window}")
    if args.kernel < 1 or args.kernel % 2 == 0:
        raise SystemExit(f"--kernel must be odd and >= 1, got {args.kernel}")
    texts = _read_prompt(args.prompt)
    prompt = TokenizedPrompt.from_text(*texts)
    try:
        weights = read_weight_dump(args.weights)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read weight dump {args.weights}: {exc}") from exc
    keys = weights[0].shape[1]
    if keys == prompt.total_tokens:
        span = prompt.content_span
    elif keys == prompt.content_tokens:
        span = None
    else:
        raise SystemExit(f"weight dump covers {keys} keys; prompt has {prompt.total_tokens} tokens "
                         f"({prompt.content_tokens} content)")
    scores = score_tokens(weights, window=args.window, kernel=args.kernel,
                          content_span=span, head_aggregation=args.aggregation)
    mask = select_sentences(prompt, scores, args.ratio)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    compressed = maskcodec.pack(mask)
    (out / "mask.bin").write_bytes(compressed.payload)
    (out / "refined.txt").write_text(" ".join(refined_text(*texts, mask)) + "\n")
    print(f"selected {mask.popcount()}/{len(mask)} tokens; mask container {len(compressed.payload)} bytes")
    return 0


def _cmd_mask(args: argparse.Namespace) -> int:
    try:
        data = Path(args.infile).read_bytes()
    except OSError as exc:
        raise SystemExit(f"cannot read {args.infile}: {exc.strerror}") from exc
    if args.action == "pack":
        compressed = maskcodec.pack(SelectionMask([byte - 48 for byte in data if byte in b"01"]))  # '0' and '1'
        Path(args.outfile).write_bytes(compressed.payload)
        print(f"packed {compressed.bit_length} bits into {len(compressed.payload)} bytes")
    else:
        mask = maskcodec.unpack(maskcodec.CompressedMask.from_container(data))
        Path(args.outfile).write_text("".join(str(b) for b in mask.bits) + "\n")
        print(f"unpacked {len(mask)} bits ({mask.popcount()} selected)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    result = harness.run_experiment(config, args.out, seed=args.seed)
    print(result.summary_text, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    traces = sorted(str(p) for p in Path(args.traces).glob("trace_*.csv"))
    if not traces:
        raise SystemExit(f"no trace_*.csv files under {args.traces}")
    result = harness.report(traces, args.out)
    print(result.summary_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve the offline plan table and write plans.csv")
    p_plan.add_argument("--config", help="experiment config JSON (defaults to the built-in setup)")
    p_plan.add_argument("--out", required=True, help="output directory")
    p_plan.set_defaults(fn=_cmd_plan)

    p_refine = sub.add_parser("refine", help="score a prompt from an attention dump and write mask + refined text")
    p_refine.add_argument("--prompt", required=True, help="prompt JSON with prefix/content/suffix")
    p_refine.add_argument("--weights", required=True, help="attention weight dump (binary)")
    p_refine.add_argument("--ratio", type=float, required=True, help="target refinement ratio in (0, 1]")
    p_refine.add_argument("--window", type=int, default=32, help="observation window (trailing query rows)")
    p_refine.add_argument("--kernel", type=int, default=7, help="odd 1D max-pooling kernel")
    p_refine.add_argument("--aggregation", choices=("sum", "max"), default="sum", help="cross-head score aggregation")
    p_refine.add_argument("--out", required=True, help="output directory")
    p_refine.set_defaults(fn=_cmd_refine)

    p_mask = sub.add_parser("mask", help="pack or unpack a selection mask container")
    p_mask.add_argument("action", choices=("pack", "unpack"))
    p_mask.add_argument("infile")
    p_mask.add_argument("outfile")
    p_mask.set_defaults(fn=_cmd_mask)

    p_sim = sub.add_parser("simulate", help="run the experiment and write traces + summaries")
    p_sim.add_argument("--config", help="experiment config JSON (defaults to the built-in setup)")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_rep = sub.add_parser("report", help="aggregate existing trace CSVs", description=(
        "Aggregate trace_*.csv files into report.csv and report.txt: the metrics of summary.csv over the 6-decimal "
        "values the traces hold. tps, analytic_tps and above_tau_requests stay blank (n/a): the traces carry no "
        "batch config and no tau. Variants are listed by name: the traces carry no config order."))
    p_rep.add_argument("--traces", required=True, help="directory holding trace_*.csv files")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, harness.ReportError, maskcodec.MaskCodecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # each command reports its unreadable inputs, so this is an output write
        path = exc.filename if exc.filename is not None else getattr(args, "out", None) or args.outfile
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
