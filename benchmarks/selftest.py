"""Fast self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names is emitted and that no operation fails. Then
checks that a tampered output file and a tampered wire stream fail the output
check. Exits non-zero on the first failed check. Takes well under a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import ROOT, WORKLOADS, members


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_workloads(spec: dict) -> None:
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = run.run_benchmark(workload, seed=3, seconds=0, trace=bool(trace), tiny=True)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
            check(set(result["metrics"]) == wanted[trace], f"{workload}/trace{trace}: metrics differ: "
                  f"{sorted(set(result['metrics']) ^ wanted[trace])}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload}/trace{trace}: {result['failed']} of {result['attempted']} failed: {record['problems']}")
            if trace:
                check(record["absent_hooks"] == [], f"{workload}: absent hooks {record['absent_hooks']}")
            print(f"ok  {workload} trace={trace}: {result['attempted']} operations, {len(result['metrics'])} metrics")


def check_tampered_outputs() -> None:
    import worker

    member = members("default", seed=3, tiny=True)[0]
    with tempfile.TemporaryDirectory(dir=ROOT / "benchmarks") as tmp:
        work = Path(tmp)
        config = worker.build_config(member.params, work)
        result = worker.run_simulation(member.__dict__, config, work)
        check(result["failed"] == 0, f"clean run failed: {result['problems']}")
        out = work / "out"
        trace_file = out / "trace_planned.csv"
        text = trace_file.read_text()
        trace_file.write_text(text.replace("req-0000", "req-000X", 1))
        check(worker.digest_outputs(out) != result["digest"], "a changed byte left the output digest unchanged")
        trace_file.write_text(text.rsplit("\n", 2)[0] + "\n")  # drop the last row
        check(worker.check_outputs(out, config.workload.requests, ["planned", "L20", "r50"]) != [],
              "a dropped trace row passed the row-count check")
    print("ok  a tampered output file fails the output check")

    session = worker.make_sessions(seed=3, count=1)[0]
    compressed, stream = worker.encode_session(session)

    def passes(data: bytes) -> bool:
        try:
            return worker.round_trip_matches(session, compressed, worker.decode_stream(data, session.chunks))
        except (worker.protocol.ProtocolError, worker.maskcodec.MaskCodecError):
            return False

    check(passes(stream), "an untouched stream failed the round trip")
    middle = len(stream) // 2
    for what, tampered in (
        ("a changed token", stream.replace(b'"token":"tok', b'"token":"tak', 1)),
        ("a dropped byte", stream[:middle] + stream[middle + 1 :]),
        ("a missing DONE", stream[: -len(worker.protocol.encode_done())]),
    ):
        check(tampered != stream and not passes(tampered), f"a stream with {what} passed the round trip")
    print("ok  a tampered wire stream fails the output check")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_workloads(spec)
        check_tampered_outputs()
    except (AssertionError, run.WorkerError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
