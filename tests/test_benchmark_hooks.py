"""The benchmark tracer's hooks name pdsim functions that still exist.

``benchmarks/tracer.py`` records a hooked name it cannot find as absent and
lets the traced run go on, so a refactor that drops or moves a hooked name
(such as ``harness.solve_plan``) would otherwise pass every test.
"""

import importlib.util
import sys
from pathlib import Path

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
