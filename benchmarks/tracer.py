"""In-memory span tracing for the benchmark's traced runs.

Wrappers are installed around pdsim names from the outside, only on traced
runs. Each wrapper patches a name where the caller looks it up: a function
imported into another module is patched in that importing module, and a
class attribute is patched on its class. A hooked name that no longer exists
is recorded as absent instead of failing the run, so that refactors which
move these calls leave the traced run working.

A span records its name, start, end, parent span and request id. A layer's
self time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _request_id(tracer: "Tracer", args: tuple):
    return args[0].request_id


def _note_position(tracer: "Tracer", args: tuple) -> None:
    source, position = args[0], args[1]
    tracer.positions.add((source.seed, position))


def _pack_bytes(tracer: "Tracer", result) -> None:
    tracer.counters["maskcodec.pack.bytes_out"] += len(result.payload)


def _fed_bytes(tracer: "Tracer", args: tuple) -> None:
    tracer.counters["protocol.bytes"] += len(args[1])


def _decoded_frames(tracer: "Tracer", result) -> None:
    tracer.counters["protocol.frames"] += len(result)


@dataclass(frozen=True)
class Hook:
    name: str  # span name: "<layer>.<operation>"
    module: str
    attr: str  # "function" or "Class.method"
    request: Callable | None = None
    on_call: Callable | None = None
    on_result: Callable | None = None
    count_only: bool = False


HOOKS: tuple[Hook, ...] = (
    Hook("harness.run_experiment", "pdsim.harness", "run_experiment"),
    Hook("harness.generate_workload", "pdsim.harness", "generate_workload"),
    Hook("harness.synthesize_prompt", "pdsim.harness", "synthesize_prompt"),
    Hook("planner.build_plan_table", "pdsim.harness", "build_plan_table"),
    Hook("planner.solve_plan", "pdsim.harness", "solve_plan"),
    Hook("planner.solve_plan", "pdsim.planner", "solve_plan"),
    Hook("refiner.from_text", "pdsim.refiner", "TokenizedPrompt.from_text"),
    Hook("refiner.split_sentences", "pdsim.refiner", "split_sentences"),
    Hook("refiner.tokenize", "pdsim.refiner", "tokenize"),
    Hook("refiner.select_sentences", "pdsim.cloudsim", "select_sentences"),
    Hook("cloudsim.serve_request", "pdsim.harness", "serve_request", request=_request_id),
    Hook("cloudsim.uniform_scores", "pdsim.cloudsim", "uniform_scores"),
    Hook("cloudsim.token_at", "pdsim.cloudsim", "TokenSource.token_at", on_call=_note_position),
    Hook("cloudsim.run_throughput", "pdsim.harness", "run_throughput"),
    Hook("maskcodec.pack", "pdsim.cloudsim", "pack", on_result=_pack_bytes),
    Hook("maskcodec.pack", "pdsim.maskcodec", "pack", on_result=_pack_bytes),
    Hook("maskcodec.unpack", "pdsim.devicesim", "unpack"),
    Hook("maskcodec.unpack", "pdsim.maskcodec", "unpack"),
    Hook("protocol.encode", "pdsim.protocol", "encode_first_frame"),
    Hook("protocol.encode", "pdsim.protocol", "encode_stream_event"),
    Hook("protocol.encode", "pdsim.protocol", "encode_done"),
    Hook("protocol.decode", "pdsim.protocol", "SseDecoder.feed", on_call=_fed_bytes, on_result=_decoded_frames),
    Hook("devicesim.run_session", "pdsim.harness", "run_session", request=_request_id),
    Hook("devicesim.scrub", "pdsim.harness", "scrub"),
    Hook("eventloop.run", "pdsim.eventloop", "EventLoop.run"),
    Hook("eventloop.events", "pdsim.eventloop", "EventLoop.schedule_at", count_only=True),
)


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, inspect.getattr_static(owner, leaf)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or -1, request id]
        self.counters: collections.Counter = collections.Counter()
        self.positions: set = set()
        self.absent: list[str] = []
        self.broken: set[str] = set()  # hooks whose observer no longer fits the call
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- installation ---------------------------------------------------------

    def install(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        for hook in hooks:
            where = f"{hook.module}.{hook.attr}"
            try:
                owner, leaf, raw = _resolve(hook.module, hook.attr)
            except (ImportError, AttributeError):
                self.absent.append(where)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not callable(fn):
                self.absent.append(where)
                continue
            wrapped = self._count(hook, fn) if hook.count_only else self._span(hook, fn)
            setattr(owner, leaf, kind(wrapped) if kind else wrapped)
            self._restore.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, raw = self._restore.pop()
            setattr(owner, leaf, raw)

    def _observe(self, observer: Callable, name: str, value):
        # an observer that no longer fits the hooked call marks its counter
        # absent; the traced run itself goes on
        try:
            return observer(self, value)
        except (AttributeError, IndexError, TypeError):
            if name not in self.broken:
                self.broken.add(name)
                self.absent.append(f"{name} (observer)")
            return None

    def _count(self, hook: Hook, fn: Callable) -> Callable:
        counters, name = self.counters, hook.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack, clock, name = self.spans, self._stack, time.perf_counter, hook.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rid = self._observe(hook.request, hook.name, args) if hook.request else None
            if rid is None and parent >= 0:
                rid = spans[parent][4]
            if hook.on_call:
                self._observe(hook.on_call, hook.name, args)
            span = [name, 0.0, 0.0, parent, rid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook.on_result:
                self._observe(hook.on_result, hook.name, result)
            return result

        return wrapper

    def root(self, name: str, request_id, fn: Callable, *args):
        """Run ``fn(*args)`` under a top-level span owned by the benchmark itself."""
        return self._span(Hook(name, "", "", request=lambda tracer, _: request_id), fn)(*args)

    # --- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, counters, and total root time."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: collections.Counter = collections.Counter()
        self_ms: collections.Counter = collections.Counter()
        root_ms = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - covered[i]) * 1000.0
            if parent < 0:
                root_ms += (end - start) * 1000.0
        counters = dict(self.counters)
        if "cloudsim.token_at" not in self.broken:
            counters["cloudsim.token_at.positions"] = len(self.positions)
        return {
            "calls": dict(calls),
            "self_ms": dict(self_ms),
            "counters": counters,
            "root_ms": root_ms,
            "absent": list(self.absent),
        }

    def write(self, path: Path) -> None:
        """Write every span as CSV: name, start and end in microseconds, parent, request id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent,request_id\n")
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent},{'' if rid is None else rid}\n")
