import pytest

from pdsim.timing import RttClass, build_model


@pytest.fixture
def calibrated_model():
    """Worked-example calibration: 8k prompt -> 800 ms cloud prefill, 10 s device
    prefill, 100 ms compress, 50 ms decompress, 400 ms overhead bound, 50 ms RTT."""
    return build_model(
        rtt=RttClass("wifi-fixed", mean_ms=50.0, jitter_ms=0.0),
        compress=lambda tokens: 0.0125 * tokens,
        decompress=lambda tokens: 0.00625 * tokens,
        overhead_bound=lambda tokens: 0.05 * tokens,
    )
