import pytest

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
