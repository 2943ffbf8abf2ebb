import os

import pytest
from hypothesis import settings

from pdsim.timing import AffineCost, RttClass, TimingModel


@pytest.fixture
def calibrated_model():
    """Worked-example calibration: 8k prompt -> 800 ms cloud prefill, 10 s device
    prefill, 100 ms compress, 50 ms decompress, 50 ms RTT, so 200 ms of derived overhead."""
    return TimingModel(
        rtt=RttClass(mean_ms=50.0, jitter_ms=0.0),
        compress=AffineCost(0.0, 0.0125),
        decompress=AffineCost(0.0, 0.00625),
    )


# ``HYPOTHESIS_PROFILE=deep`` draws deeper: each property test runs ten times
# its own ``max_examples`` and a failure prints its reproduction blob. Without
# it, tests keep the counts they declare.
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"
settings.register_profile("deep", print_blob=True)
if DEEP:
    settings.load_profile("deep")


def pytest_collection_modifyitems(items):
    if not DEEP:
        return
    # parametrized items share one function, so scale each function once
    for test in {getattr(item, "function", None) for item in items}:
        if getattr(test, "is_hypothesis_test", False):
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(own, max_examples=10 * own.max_examples)
