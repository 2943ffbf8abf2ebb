import math
import random

import pytest

from pdsim.timing import (
    AmortizationUndefined,
    RttClass,
    build_model,
    prefill_device,
    request_occupancy,
    smoothed_tpot,
    ttft_cloud,
    ttft_device,
)


class TestPrefillDevice:
    def test_eight_k_prompt_needs_ten_seconds(self, calibrated_model):
        assert prefill_device(calibrated_model, 8000) == 10000.0

    def test_zero_tokens(self, calibrated_model):
        assert prefill_device(calibrated_model, 0) == 0.0

    def test_quarter_ratio_of_eight_k(self, calibrated_model):
        assert prefill_device(calibrated_model, 2000) == 2500.0
        assert prefill_device(calibrated_model, 8000, 0.25) == 2500.0

    def test_default_ratio_is_the_bare_coefficient(self, calibrated_model):
        # the device passes its realised refined length with ratio 1
        rng = random.Random(3)
        model = build_model(k_device=rng.uniform(0.2, 3.0))
        for _ in range(200):
            tokens = rng.randint(0, 32000)
            assert prefill_device(model, tokens) == model.k_device * tokens

    def test_negative_tokens_rejected(self, calibrated_model):
        with pytest.raises(ValueError):
            prefill_device(calibrated_model, -1)


class TestTtftCloud:
    def test_eight_k_stays_under_a_second(self, calibrated_model):
        assert ttft_cloud(calibrated_model, 8000, 0.25, 50.0) == pytest.approx(950.0)

    def test_unit_length(self):
        model = build_model(compress=lambda tokens, ratio: 0.0)
        assert ttft_cloud(model, 1, 1.0, 0.0) == pytest.approx(0.1)

    def test_thirty_two_k(self, calibrated_model):
        # compress(32000) = 400 under the calibrated model
        assert ttft_cloud(calibrated_model, 32000, 0.25, 50.0) == pytest.approx(3650.0)

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.01])
    def test_ratio_domain(self, calibrated_model, ratio):
        with pytest.raises(ValueError):
            ttft_cloud(calibrated_model, 8000, ratio, 50.0)

    def test_rejects_nonpositive_length(self, calibrated_model):
        with pytest.raises(ValueError):
            ttft_cloud(calibrated_model, 0, 0.5, 50.0)


class TestTtftDevice:
    def test_worked_example(self, calibrated_model):
        assert ttft_device(calibrated_model, 8000, 0.6, 950.0) == pytest.approx(7000.0)

    def test_degenerate_no_cloud_case(self):
        model = build_model(decompress=lambda tokens: 0.0)
        assert ttft_device(model, 4096, 1.0, 0.0) == pytest.approx(prefill_device(model, 4096))

    def test_sixty_percent_reduction_at_quarter_ratio(self, calibrated_model):
        collaborative = ttft_device(calibrated_model, 8000, 0.25, 950.0)
        assert collaborative == pytest.approx(3500.0)
        device_only = prefill_device(calibrated_model, 8000)
        assert 1.0 - collaborative / device_only >= 0.60


class TestSmoothedTpot:
    def test_worked_example(self, calibrated_model):
        assert smoothed_tpot(calibrated_model, 2000.0, 500.0, 21) == pytest.approx(105.0)

    def test_zero_surplus_returns_device_pace(self, calibrated_model):
        assert smoothed_tpot(calibrated_model, 1234.0, 1234.0, 9) == pytest.approx(30.0)

    def test_planner_lower_bound_point(self, calibrated_model):
        pace = smoothed_tpot(calibrated_model, 6000.0, 950.0, 74)
        assert pace == pytest.approx(30.0 + 5050.0 / 73.0)
        assert pace <= 100.0

    def test_single_token_is_undefined(self, calibrated_model):
        with pytest.raises(AmortizationUndefined):
            smoothed_tpot(calibrated_model, 2000.0, 500.0, 1)

    def test_strictly_decreasing_toward_device_pace(self, calibrated_model):
        paces = [smoothed_tpot(calibrated_model, 5000.0, 800.0, budget) for budget in range(2, 200)]
        assert all(a > b for a, b in zip(paces, paces[1:]))
        assert all(p > calibrated_model.tpot_device for p in paces)
        assert smoothed_tpot(calibrated_model, 5000.0, 800.0, 100000) == pytest.approx(30.0, abs=0.1)


class TestSmoothedPaceIdentity:
    """Device-paced and smoothed-display completion of the window coincide:
    prefill + tpot_d * (n - 1) == ttft_c + pace * (n - 1)."""

    @staticmethod
    def gap(model, prefill, ttft_c, total):
        pace = smoothed_tpot(model, prefill, ttft_c, total)
        steps = total - 1
        return (prefill + model.tpot_device * steps) - (ttft_c + pace * steps)

    def test_identity_with_smoothed_pace(self, calibrated_model):
        assert self.gap(calibrated_model, 2000.0, 500.0, 21) == pytest.approx(0.0, abs=1e-9)

    def test_smallest_valid_budget(self, calibrated_model):
        assert self.gap(calibrated_model, 700.0, 300.0, 2) == pytest.approx(0.0, abs=1e-9)

    def test_randomized_identity(self, calibrated_model):
        rng = random.Random(1)
        for _ in range(500):
            prefill = rng.uniform(0.0, 60000.0)
            ttft_c = rng.uniform(0.0, 5000.0)
            budget = rng.randint(2, 4096)
            assert abs(self.gap(calibrated_model, prefill, ttft_c, budget)) <= 1e-9


class TestRequestOccupancy:
    def test_long_sequence(self):
        assert request_occupancy(500.0, 30.0, 201) == pytest.approx(6500.0)

    def test_first_token_only(self):
        assert request_occupancy(500.0, 30.0, 1) == pytest.approx(500.0)

    def test_ratio_between_budgets_inside_reported_envelope(self):
        ratio = request_occupancy(500.0, 30.0, 201) / request_occupancy(500.0, 30.0, 21)
        assert ratio == pytest.approx(6500.0 / 1100.0)
        assert 1.6 <= ratio <= 15.0

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            request_occupancy(500.0, 30.0, 0)


class TestComposition:
    def test_device_minus_cloud_is_recovery_plus_prefill(self, calibrated_model):
        rng = random.Random(2)
        for _ in range(200):
            tokens = rng.randint(100, 32000)
            ratio = rng.uniform(0.05, 1.0)
            tc = ttft_cloud(calibrated_model, tokens, ratio, rng.uniform(0.0, 200.0))
            td = ttft_device(calibrated_model, tokens, ratio, tc)
            assert td == tc + calibrated_model.decompress_cost(tokens) + prefill_device(calibrated_model, tokens, ratio)


class TestModelValidation:
    def test_device_must_be_slower_than_cloud(self):
        with pytest.raises(ValueError):
            build_model(k_cloud=1.25, k_device=1.0)

    def test_coefficients_strictly_positive(self):
        with pytest.raises(ValueError):
            build_model(tpot_cloud=0.0)

    def test_overhead_bound_dominance(self, calibrated_model):
        calibrated_model.check_overhead_bound([2000, 4000, 8000, 16000, 32000])
        with pytest.raises(ValueError):
            calibrated_model.check_overhead_bound([100])  # 5 ms bound < RTT alone

    def test_rtt_class(self):
        wifi = RttClass("wifi", 50.0, 10.0)
        assert wifi.p95_ms == pytest.approx(50.0 + 16.45)
        assert RttClass("fixed", 50.0, 0.0).sample(random.Random(0)) == 50.0
        samples = [wifi.sample(random.Random(i)) for i in range(50)]
        assert all(s >= 0.0 for s in samples)
        assert len(set(samples)) > 1
        with pytest.raises(ValueError):
            RttClass("bad", -1.0)
