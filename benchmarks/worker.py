"""One benchmark run in a fresh process: set up, time one workload member, check it.

run.py starts one worker per run, one at a time, and reads the JSON object it
prints as its last line. The argument is a JSON object with the workload
name, the member (see workloads.Member), ``spawned_ns`` (the parent's
``time.monotonic_ns()`` just before starting this process, so that set-up time
includes interpreter start-up), ``trace``, ``setup_only`` and ``spans_out``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import struct
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from workloads import SRC, WORK_DIR

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pdsim  # noqa: E402
from pdsim import harness, maskcodec, protocol  # noqa: E402
from pdsim.refiner import SelectionMask  # noqa: E402

# --- simulation workloads -----------------------------------------------------------


def build_config(params: dict, work: Path) -> harness.ExperimentConfig:
    """The config a `pd simulate` user would run: the built-in default, at one
    of its prompt lengths, or a JSON file."""
    if params["kind"] == "default":
        config = harness.default_config()
        workload = replace(config.workload, requests=params["requests"], prompt_lengths={params["prompt_length"]: 1.0})
        return replace(config, workload=workload)
    path = work / "config.json"
    path.write_text(json.dumps(params["config"]))
    return harness.load_config(path)


def digest_outputs(out_dir: Path) -> str:
    """SHA-256 over every file the run wrote: relative path, length and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_outputs(out_dir: Path, requests: int, variants: list[str]) -> list[str]:
    """Problems with the files of one experiment: missing files or wrong row counts."""
    problems = []
    expected_rows = {f"trace_{v}.csv": requests for v in variants}
    expected_rows["summary.csv"] = len(variants)
    for name, rows in expected_rows.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        found = len(path.read_text().splitlines()) - 1  # minus the header
        if found != rows:
            problems.append(f"{name}: {found} rows, expected {rows}")
    for name in ("plans.csv", "summary.txt"):
        if not (out_dir / name).is_file():
            problems.append(f"{name}: missing")
    return problems


def model_outputs(report: harness.MetricsReport) -> dict:
    return {
        v.name: {
            "p50_user_ttft_ms": v.p50_user_ttft,
            "p95_user_ttft_ms": v.p95_user_ttft,
            "above_tau_requests": v.above_tau_requests,
            "tps": v.tps,
        }
        for v in report.variants
    }


def run_simulation(member: dict, config: harness.ExperimentConfig, work: Path) -> dict:
    out = work / "out"
    error = None
    start = time.perf_counter()
    try:
        report = harness.run_experiment(config, out, seed=member["seed"])
    except Exception as exc:  # every session of a run that raises counts as failed
        report, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    variants = [v.name for v in config.variants]
    problems = [error] if error else check_outputs(out, config.workload.requests, variants)
    return {
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "failed": member["operations"] if problems else 0,
        "problems": problems,
        "digest": digest_outputs(out) if out.is_dir() else None,
        "model_outputs": model_outputs(report) if report else None,
    }


# --- wire workload ----------------------------------------------------------------

# token texts that exercise JSON escaping and multi-byte UTF-8 on the wire
_SPECIAL_TOKENS = ("naïve", '"quoted"', "back\\slash", "tab\there", "日本語", "\n")


@dataclass(frozen=True)
class WireSession:
    mask: SelectionMask
    first_token: str
    budget: int  # L: tokens the cloud sends, the first one included
    events: tuple[protocol.StreamEvent, ...]
    chunks: tuple[int, ...]  # receive chunk sizes, cycled


def make_sessions(seed: int, count: int) -> list[WireSession]:
    rng = np.random.default_rng(seed)
    sessions = []
    for _ in range(count):
        bits = int(rng.integers(2048, 32769))
        content = bits - 20  # 12 prefix and 8 suffix tokens are always kept
        lengths = rng.integers(8, 33, size=content // 8 + 1)
        keep = rng.random(lengths.size) < rng.uniform(0.2, 0.6)
        body = np.repeat(keep, lengths)[:content].astype(np.uint8)
        mask = SelectionMask(np.concatenate([np.ones(12, np.uint8), body, np.ones(8, np.uint8)]))
        n_events = int(rng.integers(200, 401))
        tokens = []
        for position, draw in enumerate(rng.integers(0, 1 << 16, size=n_events + 1).tolist(), start=1):
            special = draw % 13 == 0
            tokens.append(_SPECIAL_TOKENS[draw % len(_SPECIAL_TOKENS)] if special else f"tok{position}_{draw:04x}")
        events = tuple(protocol.StreamEvent(index=i, token=tokens[i]) for i in range(1, n_events + 1))
        chunks = tuple(rng.integers(64, 1461, size=64).tolist())
        sessions.append(WireSession(mask, tokens[0], n_events + 1, events, chunks))
    return sessions


def encode_session(session: WireSession) -> tuple[maskcodec.CompressedMask, bytes]:
    compressed = maskcodec.pack(session.mask)
    frame = protocol.FirstTokenFrame(token=session.first_token, mask=compressed, max_tokens=session.budget)
    parts = [protocol.encode_first_frame(frame)]
    parts.extend(protocol.encode_stream_event(event) for event in session.events)
    parts.append(protocol.encode_done())
    return compressed, b"".join(parts)


def decode_stream(stream: bytes, chunks: tuple[int, ...]) -> list:
    decoder = protocol.SseDecoder()
    items: list = []
    pos = k = 0
    while pos < len(stream):
        size = chunks[k % len(chunks)]
        items.extend(decoder.feed(stream[pos : pos + size]))
        pos += size
        k += 1
    return items


def round_trip_matches(session: WireSession, compressed: maskcodec.CompressedMask, items: list) -> bool:
    """Exact round trip: first frame, every event in order, DONE last, and the mask bits."""
    if len(items) != len(session.events) + 2 or items[-1] is not protocol.DONE:
        return False
    first = items[0]
    if not isinstance(first, protocol.FirstTokenFrame):
        return False
    mask = maskcodec.unpack(first.mask)
    return (
        first.token == session.first_token
        and first.max_tokens == session.budget
        and first.mask.payload == compressed.payload
        and items[1:-1] == list(session.events)
        and mask == session.mask
    )


def round_trip(session: WireSession) -> tuple[bytes, bool]:
    compressed, stream = encode_session(session)
    return stream, round_trip_matches(session, compressed, decode_stream(stream, session.chunks))


def run_wire(sessions: list[WireSession], tracer) -> dict:
    streams, problems = [], []
    failed = 0
    start = time.perf_counter()
    for i, session in enumerate(sessions):
        problem = "round trip differs"
        try:
            if tracer is None:
                stream, ok = round_trip(session)
            else:
                stream, ok = tracer.root("bench.round_trip", i, round_trip, session)
        except Exception as exc:  # a raising round trip is one failed operation
            stream, ok, problem = b"", False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            problems.append(f"session {i}: {problem}")
        streams.append(stream)
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    h = hashlib.sha256()
    for stream in streams:
        h.update(len(stream).to_bytes(8, "little"))
        h.update(stream)
    return {
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "failed": failed,
        "problems": problems[:5],
        "digest": h.hexdigest(),
        "model_outputs": None,
    }


# --- calibration ------------------------------------------------------------------


def _calibration_work() -> int:
    """A fixed mix of the kinds of work pdsim does: building many small Python
    objects, string formatting, JSON encoding and decoding, a bytes join and
    numpy array passes. Its working set of about 20 MB is larger than the
    CPU caches, as pdsim's is, so that when neighbours contend for the cache
    and memory it slows down about as much as the program does, where a pass
    over a sub-megabyte working set swings almost twice as far. It uses
    nothing from pdsim, so a change to the package cannot change its time."""
    table = {f"key{i}": (i, f"tok{i}_{i * 7919 % 65536:04x}") for i in range(25_000)}
    blob = b"".join(f"{key}:{token}\n".encode() for key, (_, token) in table.items())
    rows = json.loads(json.dumps([{"index": i, "token": token} for i, token in table.values()]))
    a = np.sqrt(np.arange(1_000_000, dtype=np.float64) * 1.0001 + 0.5)
    b = np.sort(a[::-1][:250_000])
    return len(rows) + len(blob) + int(b[0])


def calibrate() -> float:
    """Host seconds of one calibration pass. It runs in a forked child, so that
    its memory never counts toward the worker's peak RSS; the worker waits for
    the child to end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            start = time.perf_counter()
            _calibration_work()
            os.write(write_fd, struct.pack("d", time.perf_counter() - start))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("calibration pass failed")
    return struct.unpack("d", data)[0]


# --- entry point --------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    member = args["member"]
    params = member["params"]
    if Path(pdsim.__file__).resolve().parent != (SRC / "pdsim").resolve():
        print(f"pdsim imported from {pdsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if params["kind"] == "wire":
            inputs = make_sessions(member["seed"], params["sessions"])
        else:
            inputs = build_config(params, work)
        setup_s = (time.monotonic_ns() - args["spawned_ns"]) / 1e9
        cal_before = calibrate()
        result = {
            "setup_s": setup_s,
            "setup_calibration_s": cal_before,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if not args["setup_only"]:
            tracer = None
            if args["trace"]:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            if params["kind"] == "wire":
                result.update(run_wire(inputs, tracer))
            else:
                result.update(run_simulation(member, inputs, work))
            result["calibration_passes_s"] = [cal_before, calibrate()]
            result["calibration_s"] = sum(result["calibration_passes_s"]) / 2
            if tracer is not None:
                tracer.uninstall()
                result["trace"] = tracer.summary()
                if args.get("spans_out"):
                    tracer.write(Path(args["spans_out"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
