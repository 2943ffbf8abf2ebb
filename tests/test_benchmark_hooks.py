"""The benchmark tracer's hooks name pdsim functions that still exist.

``benchmarks/tracer.py`` records a hooked name it cannot find as absent and
lets the traced run go on, so a refactor that drops or moves a hooked name
(such as ``harness.solve_plan``) would otherwise pass every test. A name
that is still defined but no longer called installs too, so one small run
of each path must reach every hook site.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_hook_resolves_to_a_callable(tracer):
    assert tracer.HOOKS
    for hook in tracer.HOOKS:
        _, _, raw = tracer._resolve(hook.module, hook.attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert callable(fn), f"{hook.module}.{hook.attr}"


def test_a_name_hooked_at_two_import_sites_is_one_function(tracer):
    # the tracer counts a call once per wrapper it passes through; two sites
    # of one name must hold the same function, or every call would count twice
    by_name = {}
    for hook in tracer.HOOKS:
        _, _, raw = tracer._resolve(hook.module, hook.attr)
        by_name.setdefault((hook.name, hook.attr), []).append(raw)
    shared = {key: fns for key, fns in by_name.items() if len(fns) > 1}
    assert ("planner.solve_plan", "solve_plan") in shared
    for key, fns in shared.items():
        assert all(fn is fns[0] for fn in fns), key


def test_install_finds_every_hook_and_uninstall_restores_it(tracer):
    from pdsim import harness, planner
    from pdsim.harness import default_config

    original = planner.solve_plan
    traced = tracer.Tracer()
    traced.install()
    try:
        assert traced.absent == []
        config = default_config()
        harness.solve_plan(config.models["phone"], config.scenes["doc_qa"], 8000)
        assert [span[0] for span in traced.spans] == ["planner.solve_plan"]
        assert harness.solve_plan is not original
    finally:
        traced.uninstall()
    assert harness.solve_plan is original and planner.solve_plan is original


def test_every_hook_site_is_called(tracer, tmp_path):
    # a hooked name that is still defined but no longer called resolves and
    # installs, so only a run that reaches each site can tell
    from pdsim import harness, maskcodec, protocol
    from pdsim.refiner import SelectionMask

    def shortened(config, requests):
        return dataclasses.replace(config, workload=dataclasses.replace(config.workload, requests=requests))

    sites = tuple(dataclasses.replace(h, name=f"{h.module}.{h.attr}") for h in tracer.HOOKS)
    traced = tracer.Tracer()
    traced.install(sites)
    try:
        # through the module, where the hook is installed
        harness.run_experiment(shortened(harness.default_config(), 2), tmp_path / "default")
        data = Path(__file__).parent / "data"
        harness.run_experiment(shortened(harness.load_config(data / "scrub_config.json"), 1), tmp_path / "scrub")
        # one wire round trip, the way benchmarks/worker.py makes it
        compressed = maskcodec.pack(SelectionMask(np.array([1, 0, 1], dtype=np.uint8)))
        frame = protocol.FirstTokenFrame(token="a", mask=compressed, max_tokens=2)
        stream = b"".join([
            protocol.encode_first_frame(frame),
            protocol.encode_stream_event(protocol.StreamEvent(index=1, token="b")),
            protocol.encode_done(),
        ])
        items = protocol.SseDecoder().feed(stream)
        maskcodec.unpack(items[0].mask)
    finally:
        traced.uninstall()
    assert traced.absent == []
    fired = {span[0] for span in traced.spans} | set(traced.counters)
    never = {h.name for h in sites} - fired
    # EventLoop has no caller: the simulated path runs no scheduler
    assert never == {"pdsim.eventloop.EventLoop.run", "pdsim.eventloop.EventLoop.schedule_at"}
