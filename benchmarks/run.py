"""Host-time benchmark of pdsim.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every timed run is a fresh Python process
(worker.py), started one at a time: `pd simulate` pays every cost once per
process, so no in-process cache may make repeated runs look faster. The
benchmark measures host time only; the simulated milliseconds pdsim reports
are model outputs and are kept apart, under "model_outputs" in the results
file, never among the metrics. Host times are calibrated: each worker also
times a fixed pass of code that is not pdsim's (worker.calibrate), and a
run's time is reported in units of that pass, so that the host's drifting
speed cancels out (see README.md).

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced runs and reports per-layer metrics from the
traced ones. The last line of standard output is the result object; the full
record (machine, load, runs, digests, model outputs) goes to
benchmarks/results/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, RESULTS_DIR, ROOT, SRC, WORKLOADS, Member, members

SETUP_PROBES = 5  # extra set-up-only processes per benchmark run, besides the timed runs
TIME_LIMIT_S = 170  # a benchmark run gives up, without a result, when a worker would end later
# About the seconds that worker.calibrate() takes on an unloaded 2-vCPU Intel Xeon VM:
# the machine speed that sessions_per_s is stated at.
CALIBRATION_REF_S = 0.120

# Layers are pdsim's modules; "bench" is the benchmark's own code around the
# wire round trips. The program is single-threaded and no layer waits on
# another, so a layer can save at most its self-time share of a run.
LAYERS = ("harness", "planner", "refiner", "cloudsim", "maskcodec", "protocol", "devicesim", "eventloop", "bench")

# Span-name prefixes of the layers each workload is built to load most.
INTENDED = {
    "long_prompt": ("refiner.", "harness.synthesize_prompt", "harness.generate_workload"),
    "long_decode": ("devicesim.", "eventloop.", "cloudsim.token_at"),
    "wire_replay": ("protocol.", "maskcodec."),
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, member: Member, deadline: float, *, trace: bool = False, setup_only: bool = False,
          spans_out: Path | None = None) -> dict:
    """Run one worker process to completion and return the JSON object it printed.

    The worker is killed, and WorkerError raised, if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    payload = {
        "workload": workload,
        "member": member.__dict__,
        "trace": trace,
        "setup_only": setup_only,
        "spans_out": str(spans_out) if spans_out else None,
    }
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    payload["spawned_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(payload)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}/{member.label}: worker still running at the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}/{member.label}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu}


def layer_metrics(traces: list[dict], requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round: each value is a mean over the round's member runs."""
    runs = len(traces)
    calls: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    counters: dict[str, float] = {}
    for t in traces:
        for src, dst in ((t["calls"], calls), (t["self_ms"], self_ms), (t["counters"], counters)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    root_ms = sum(t["root_ms"] for t in traces)

    def ms(name: str) -> tuple[float, str]:
        return self_ms.get(name, 0.0) / runs, "ms"

    def count(value: float) -> tuple[float, str]:
        return value / runs, "count"

    positions = counters.get("cloudsim.token_at.positions", 0)
    m = {
        "harness.run_experiment.self_ms": ms("harness.run_experiment"),
        "harness.generate_workload.self_ms": ms("harness.generate_workload"),
        "harness.synthesize_prompt.self_ms": ms("harness.synthesize_prompt"),
        "planner.build_plan_table.self_ms": ms("planner.build_plan_table"),
        "planner.solve_plan.calls": count(calls.get("planner.solve_plan", 0)),
        "planner.solve_plan.self_ms": ms("planner.solve_plan"),
        "refiner.from_text.calls": count(calls.get("refiner.from_text", 0)),
        "refiner.from_text.calls_per_request": (calls.get("refiner.from_text", 0) / requests, "ratio"),
        "refiner.from_text.self_ms": ms("refiner.from_text"),
        "refiner.split_sentences.self_ms": ms("refiner.split_sentences"),
        "refiner.tokenize.calls": count(calls.get("refiner.tokenize", 0)),
        "refiner.tokenize.self_ms": ms("refiner.tokenize"),
        "refiner.select_sentences.self_ms": ms("refiner.select_sentences"),
        "cloudsim.serve_request.calls": count(calls.get("cloudsim.serve_request", 0)),
        "cloudsim.serve_request.self_ms": ms("cloudsim.serve_request"),
        "cloudsim.uniform_scores.self_ms": ms("cloudsim.uniform_scores"),
        "cloudsim.token_at.calls": count(calls.get("cloudsim.token_at", 0)),
        "cloudsim.token_at.calls_per_position": (calls.get("cloudsim.token_at", 0) / positions if positions else 0.0, "ratio"),
        "cloudsim.token_at.self_ms": ms("cloudsim.token_at"),
        "cloudsim.run_throughput.self_ms": ms("cloudsim.run_throughput"),
        "maskcodec.pack.self_ms": ms("maskcodec.pack"),
        "maskcodec.pack.bytes_out": (counters.get("maskcodec.pack.bytes_out", 0) / runs, "bytes"),
        "maskcodec.unpack.self_ms": ms("maskcodec.unpack"),
        "protocol.encode.self_ms": ms("protocol.encode"),
        "protocol.decode.self_ms": ms("protocol.decode"),
        "protocol.frames": count(counters.get("protocol.frames", 0)),
        "protocol.bytes": (counters.get("protocol.bytes", 0) / runs, "bytes"),
        "devicesim.run_session.calls": count(calls.get("devicesim.run_session", 0)),
        "devicesim.run_session.self_ms": ms("devicesim.run_session"),
        "devicesim.scrub.self_ms": ms("devicesim.scrub"),
        "eventloop.run.calls": count(calls.get("eventloop.run", 0)),
        "eventloop.events": count(counters.get("eventloop.events", 0)),
        "eventloop.run.self_ms": ms("eventloop.run"),
    }
    for layer in LAYERS:
        layer_ms = sum(v for k, v in self_ms.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = (layer_ms / root_ms if root_ms else 0.0, "share")
    return m


def intended_share(workload: str, traces: list[dict]) -> float | None:
    prefixes = INTENDED.get(workload)
    if not prefixes:
        return None
    root_ms = sum(t["root_ms"] for t in traces)
    hit = sum(v for t in traces for k, v in t["self_ms"].items() if k.startswith(prefixes))
    return hit / root_ms if root_ms else 0.0


def load_digest_record() -> dict:
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run the benchmark; returns (result object, full record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    plan = members(workload, seed, tiny)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    # Workers inherit this process's CPU: a worker and its calibration passes
    # then run on the same vCPU, whose speed can differ from the other's.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # one discarded process fills the bytecode and file caches, which users
    # of `pd simulate` do not pay for on every run
    spawn(workload, plan[0], deadline, setup_only=True)
    setups = [spawn(workload, plan[0], deadline, setup_only=True) for _ in range(SETUP_PROBES)]

    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = 1 if trace else 2
    runs: dict[tuple[str, str], list[dict]] = {(m.label, mode): [] for m in plan for mode in modes}
    round_traces: list[list[dict]] = []
    start = time.monotonic()
    while True:
        traces = []
        for member in plan:
            for mode in modes:
                spans_out = RESULTS_DIR / f"spans-{workload}-{member.label}.csv" if mode == "traced" else None
                result = spawn(workload, member, deadline, trace=mode == "traced", spans_out=spans_out)
                runs[(member.label, mode)].append(result)
                if mode == "traced":
                    traces.append(result["trace"])
        if trace:
            round_traces.append(traces)
        done = len(round_traces) if trace else len(runs[(plan[0].label, "plain")])
        elapsed = time.monotonic() - start
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            break
    load_after = os.getloadavg()

    # output check: every run of a member must write the same bytes as its first run
    attempted = failed = 0
    problems: list[str] = []
    member_digests = {}
    for member in plan:
        reference = runs[(member.label, "plain")][0]["digest"]
        member_digests[member.label] = reference
        for mode in modes:
            for r in runs[(member.label, mode)]:
                attempted += member.operations
                bad = r["failed"]
                if r["digest"] != reference:
                    bad = member.operations
                    problems.append(f"{member.label}/{mode}: output digest differs from the first run")
                failed += bad
                problems.extend(f"{member.label}/{mode}: {p}" for p in r["problems"])
    digest = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in member_digests.items()).encode()).hexdigest()
    recorded = load_digest_record().get(workload, {}).get(str(seed)) if not tiny else None
    digest_status = "unrecorded" if recorded is None else ("same" if recorded == digest else "changed")

    # A run's calibrated time is its time divided by the calibration passes the
    # same worker timed around it, scaled by CALIBRATION_REF_S. The host's
    # speed drifts by tens of percent in phases of seconds to minutes and moves
    # the program and the passes together, so the ratio follows the program
    # and not the neighbours. A member's time is the median over its runs.
    def calibrated(r: dict) -> float:
        return r["elapsed_s"] / r["calibration_s"] * CALIBRATION_REF_S

    def member_times(mode: str, key=calibrated) -> dict[str, float]:
        return {m.label: statistics.median(key(r) for r in runs[(m.label, mode)]) for m in plan}

    operations = sum(m.operations for m in plan)
    plain_times = member_times("plain")
    sessions_per_s = operations / sum(plain_times.values())
    all_plain = [r for m in plan for r in runs[(m.label, "plain")]]
    setup_samples = setups + all_plain
    setup_times = [r["setup_s"] / r["setup_calibration_s"] * CALIBRATION_REF_S for r in setup_samples]

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "tiny": tiny,
        "machine": {**machine_info(), "python": all_plain[0]["python"], "numpy": all_plain[0]["numpy"]},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "members": [m.__dict__ for m in plan],
        "runs_per_member": {f"{label}/{mode}": len(rs) for (label, mode), rs in runs.items()},
        "elapsed_s": {f"{label}/{mode}": [r["elapsed_s"] for r in rs] for (label, mode), rs in runs.items()},
        "calibration_s": {f"{label}/{mode}": [r["calibration_passes_s"] for r in rs] for (label, mode), rs in runs.items()},
        "sessions_per_wall_s": {
            "median_runs": operations / sum(member_times("plain", lambda r: r["elapsed_s"]).values()),
            "fastest_runs": operations / sum(min(r["elapsed_s"] for r in runs[(m.label, "plain")]) for m in plan),
        },
        "setup_samples_s": [r["setup_s"] for r in setup_samples],
        "setup_calibration_s": [r["setup_calibration_s"] for r in setup_samples],
        "digest": digest,
        "member_digests": member_digests,
        "digest_vs_record": digest_status,
        "problems": problems[:20],
        "model_outputs": {
            "note": "simulated milliseconds and counts from an unvalidated model; not performance",
            **{m.label: runs[(m.label, "plain")][0]["model_outputs"] for m in plan},
        },
    }

    if trace:
        traced_times = member_times("traced")
        requests = sum(m.requests for m in plan)
        per_round = [layer_metrics(ts, requests) for ts in round_traces]
        metrics = {
            name: {"value": statistics.median(r[name][0] for r in per_round), "unit": unit}
            for name, (_, unit) in per_round[0].items()
        }
        metrics["trace.overhead_share"] = {
            "value": sum(traced_times.values()) / sum(plain_times.values()) - 1.0,
            "unit": "share",
        }
        absent = sorted({a for ts in round_traces for t in ts for a in t["absent"]})
        metrics["trace.absent_hooks"] = {"value": len(absent), "unit": "count"}
        record["absent_hooks"] = absent
        record["intended_layer_share"] = intended_share(workload, round_traces[-1])
        record["rounds"] = len(round_traces)
    else:
        metrics = {
            "sessions_per_s": {"value": sessions_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in all_plain), "unit": "MB"},
            "correct_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
        record["rounds"] = len(runs[(plan[0].label, "plain")])
    record["failed_share"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def print_layer_table(record: dict) -> None:
    metrics = record["result"]["metrics"]
    print(f"{'layer':<10} {'self share':>10}   (single-threaded: a layer can save at most its self-time share)")
    for layer in LAYERS:
        print(f"{layer:<10} {metrics[layer + '.self_share']['value']:>10.3f}")
    if record.get("intended_layer_share") is not None:
        print(f"intended layers of {record['workload']}: {record['intended_layer_share']:.3f} of traced time")
    if record["absent_hooks"]:
        print("absent hooks: " + ", ".join(record["absent_hooks"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdsim" / "__init__.py").is_file():
        print(f"pdsim sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"output check: {problem}", file=sys.stderr)
    if args.trace:
        print_layer_table(record)
    print(f"digest {record['digest']} ({record['digest_vs_record']} against digests.json); record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
