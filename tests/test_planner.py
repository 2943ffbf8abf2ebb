import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_force_plan, random_planner_instance

from pdsim.harness import default_config, write_plans
from pdsim.planner import (
    PlanConstraints,
    build_plan_table,
    check_plan,
    l_bounds,
    operating_point,
    r_bounds,
    solve_plan,
)
from pdsim.timing import AffineCost, RttClass, TimingModel, smoothed_tpot, ttft_cloud, ttft_device


class TestRatioBounds:
    def test_worked_example(self, calibrated_model):
        lo, hi = r_bounds(calibrated_model, PlanConstraints(0.6, 100.0), 8000)
        assert lo == 0.6
        assert hi == pytest.approx(0.88)

    def test_interval_empty_when_collaboration_cannot_pay_off(self):
        model = TimingModel(k_cloud=1.2, k_device=1.25, overhead_bound=AffineCost(0.0, 0.1))
        lo, hi = r_bounds(model, PlanConstraints(0.25, 100.0), 8000)
        assert hi <= 0.0
        assert lo > hi

    def test_rejects_nonpositive_length(self, calibrated_model):
        with pytest.raises(ValueError):
            r_bounds(calibrated_model, PlanConstraints(0.6, 100.0), 0)


class TestBudgetBounds:
    def test_worked_example(self, calibrated_model):
        lo, hi = l_bounds(calibrated_model, PlanConstraints(0.6, 100.0), 8000, 0.6, 950.0, 7000.0)
        assert (lo, hi) == (74, 202)

    def test_clamped_at_two_without_amortization_pressure(self, calibrated_model):
        # refined prefill below cloud TTFT leaves nothing to amortize
        lo, _ = l_bounds(calibrated_model, PlanConstraints(0.05, 100.0), 2000, 0.05, 950.0, 1100.0)
        assert lo == 2

    def test_pace_target_must_exceed_device_tpot(self, calibrated_model):
        with pytest.raises(ValueError):
            l_bounds(calibrated_model, PlanConstraints(0.6, 30.0), 8000, 0.6, 950.0, 7000.0)

    def test_moderate_budgets_fall_inside_intervals(self, calibrated_model):
        # 8k prompts want ~40 assisted tokens, 32k ~50, under the long-context calibration
        constraints = PlanConstraints(0.125, 100.0)
        for tokens, moderate in ((8000, 40), (32000, 50)):
            plan = solve_plan(calibrated_model, constraints, tokens)
            tc = ttft_cloud(calibrated_model, tokens, plan.ratio, 50.0)
            td = ttft_device(calibrated_model, tokens, plan.ratio, tc)
            lo, hi = l_bounds(calibrated_model, constraints, tokens, plan.ratio, tc, td)
            assert lo <= moderate <= hi


class TestSolvePlan:
    def test_worked_example(self, calibrated_model):
        plan = solve_plan(calibrated_model, PlanConstraints(0.6, 100.0), 8000)
        assert plan.feasible
        assert plan.ratio == 0.6
        assert plan.max_tokens == 74
        assert plan.achieved_tpot_smooth <= 100.0
        ttft_c = ttft_cloud(calibrated_model, 8000, plan.ratio, calibrated_model.rtt.mean_ms)
        assert ttft_device(calibrated_model, 8000, plan.ratio, ttft_c) == pytest.approx(7000.0)
        assert brute_force_plan(calibrated_model, PlanConstraints(0.6, 100.0), 8000) == (0.6, 74)

    def test_refinement_forbidden_still_plans_token_assist(self, calibrated_model):
        plan = solve_plan(calibrated_model, PlanConstraints(1.0, 100.0), 8000)
        assert plan.ratio == 1.0
        assert not plan.feasible
        assert plan.max_tokens >= 2
        assert plan.achieved_tpot_smooth <= 100.0

    def test_empty_budget_interval_clamps_to_occupancy_cap(self, calibrated_model):
        constraints = PlanConstraints(0.25, 31.0)
        plan = solve_plan(calibrated_model, constraints, 8000)
        assert not plan.feasible
        assert plan.max_tokens >= 1
        assert plan.achieved_tpot_smooth > constraints.max_tpot_ms
        assert brute_force_plan(calibrated_model, constraints, 8000) is None

    def test_pinned_ratio(self, calibrated_model):
        plan = solve_plan(calibrated_model, PlanConstraints(0.25, 100.0), 8000, ratio=0.5)
        assert plan.ratio == 0.5
        assert plan.feasible
        tc = ttft_cloud(calibrated_model, 8000, 0.5, 50.0)
        expected = smoothed_tpot(calibrated_model, 0.5 * 8000 * 1.25, tc, plan.max_tokens)
        assert plan.achieved_tpot_smooth == pytest.approx(expected)
        with pytest.raises(ValueError):
            solve_plan(calibrated_model, PlanConstraints(0.25, 100.0), 8000, ratio=0.0)

    def test_feasible_plans_satisfy_constraints_by_substitution(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            model, constraints, tokens = random_planner_instance(rng)
            plan = solve_plan(model, constraints, tokens)
            if not plan.feasible:
                continue
            checked += 1
            ratio, budget = plan.ratio, plan.max_tokens
            bound = model.overhead_ms(tokens)
            assert constraints.min_ratio <= ratio
            assert model.k_cloud * tokens + bound + model.k_device * ratio * tokens <= model.k_device * tokens + 1e-9
            tc = ttft_cloud(model, tokens, ratio, model.rtt.mean_ms)
            td = ttft_device(model, tokens, ratio, tc)
            surplus = model.k_device * ratio * tokens - tc
            assert surplus <= (budget - 1) * (constraints.max_tpot_ms - model.tpot_device) + 1e-9
            assert tc + (budget - 1) * model.tpot_cloud <= td + 1e-9
            assert check_plan(model, constraints, tokens, ratio, budget)
        assert checked >= 20

    def test_oracle_equivalence_sample(self):
        rng = random.Random(11)
        agreements = 0
        for _ in range(30):
            model, constraints, tokens = random_planner_instance(rng)
            plan = solve_plan(model, constraints, tokens)
            oracle = brute_force_plan(model, constraints, tokens)
            if plan.feasible and oracle is not None:
                assert (plan.ratio, plan.max_tokens) == oracle
                agreements += 1
        assert agreements >= 10

    def test_monotone_response(self, calibrated_model):
        budgets = []
        for tau in (60.0, 80.0, 100.0, 150.0, 300.0):
            budgets.append(solve_plan(calibrated_model, PlanConstraints(0.25, tau), 8000).max_tokens)
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

        estimates = []
        for floor in (0.8, 0.6, 0.4, 0.25, 0.125):
            ratio = solve_plan(calibrated_model, PlanConstraints(floor, 100.0), 8000).ratio
            ttft_c = ttft_cloud(calibrated_model, 8000, ratio, calibrated_model.rtt.mean_ms)
            estimates.append(ttft_device(calibrated_model, 8000, ratio, ttft_c))
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))


class TestPlanTable:
    def test_cardinality(self, calibrated_model):
        models = {"phone": calibrated_model, "tablet": TimingModel(k_device=0.8)}
        scenes = {name: PlanConstraints(0.25, 100.0) for name in ("a", "b", "c")}
        plans = build_plan_table(models, scenes, (2000, 4000, 8000, 16000))
        assert len(plans) == 24
        assert plans["b", "tablet", 4000] == solve_plan(models["tablet"], scenes["b"], 4000)

    def test_default_collaboration_scene_plans_quarter_ratio(self):
        config = default_config()
        plans = build_plan_table(config.models, config.scenes, config.buckets)
        plan = plans["doc_qa", "phone", 8000]
        assert plan.feasible
        assert plan.ratio == 0.25

    def test_rejects_bad_buckets(self, calibrated_model):
        scenes = {"qa": PlanConstraints(0.25, 100.0)}
        with pytest.raises(ValueError):
            build_plan_table({"phone": calibrated_model}, scenes, ())
        with pytest.raises(ValueError):
            build_plan_table({"phone": calibrated_model}, scenes, (4000, 2000))

    def test_csv_round_trip_columns(self, calibrated_model, tmp_path):
        plans = build_plan_table({"phone": calibrated_model}, {"qa": PlanConstraints(0.25, 100.0)}, (2000, 8000))
        path = tmp_path / "plans.csv"
        write_plans(path, plans)
        lines = path.read_text().splitlines()
        assert lines[0] == "scene,device_class,bucket,r,L,feasible,achieved_tpot_smooth"
        assert len(lines) == 3


class TestOperatingPoint:
    """``operating_point`` for doc_qa prompts of 8000 tokens, or off the default config's bucket grid."""

    CONSTRAINTS = PlanConstraints(0.25, 100.0)

    def point(self, model, **pinned):
        return operating_point(model, self.CONSTRAINTS, 8000, **pinned)

    def test_unpinned_point_is_the_plan_at_the_prompt_length(self, calibrated_model):
        plan = solve_plan(calibrated_model, self.CONSTRAINTS, 8000)
        point = self.point(calibrated_model)
        assert (point.ratio, point.max_tokens, point.feasible) == (plan.ratio, plan.max_tokens, plan.feasible)
        assert plan.feasible and plan.ratio == 0.25

    def test_off_grid_lengths_are_planned_at_their_own_length(self):
        # the default buckets are 1k..32k; neither length is one of them
        config = default_config()
        model, constraints = config.models["phone"], config.scenes["doc_qa"]
        short = operating_point(model, constraints, 4100)
        assert short.max_tokens == solve_plan(model, constraints, 4100).max_tokens == 12
        assert short.max_tokens < solve_plan(model, constraints, 8000).max_tokens
        # past the largest bucket its point no longer meets the pace target
        assert not check_plan(model, constraints, 40000, 0.25, solve_plan(model, constraints, 32000).max_tokens)
        long = operating_point(model, constraints, 40000)
        assert (long.ratio, long.max_tokens, long.feasible) == (0.25, 116, True)
        assert check_plan(model, constraints, 40000, long.ratio, long.max_tokens)

    def test_pinned_ratio_solves_the_budget_at_that_ratio(self, calibrated_model):
        point = self.point(calibrated_model, ratio=0.5)
        pinned = solve_plan(calibrated_model, self.CONSTRAINTS, 8000, ratio=0.5)
        assert (point.ratio, point.max_tokens) == (0.5, pinned.max_tokens)
        assert pinned.max_tokens != solve_plan(calibrated_model, self.CONSTRAINTS, 8000).max_tokens
        assert point.feasible == check_plan(calibrated_model, self.CONSTRAINTS, 8000, 0.5, pinned.max_tokens) is True

    def test_pinned_budget_keeps_the_planned_ratio(self, calibrated_model):
        plan = solve_plan(calibrated_model, self.CONSTRAINTS, 8000)
        short = self.point(calibrated_model, max_tokens=3)
        assert (short.ratio, short.max_tokens) == (plan.ratio, 3)
        # 3 tokens cannot amortize the device prefill under 100 ms
        assert not short.feasible
        assert self.point(calibrated_model, max_tokens=plan.max_tokens).feasible

    def test_both_pinned_is_checked_as_given(self, calibrated_model):
        for ratio, budget in ((0.5, 20), (0.5, 1), (0.95, 20)):
            point = self.point(calibrated_model, ratio=ratio, max_tokens=budget)
            assert (point.ratio, point.max_tokens) == (ratio, budget)
            assert point.feasible == check_plan(calibrated_model, self.CONSTRAINTS, 8000, ratio, budget)
        # one token leaves nothing to pace; 0.95 is above the ratio interval
        assert not self.point(calibrated_model, ratio=0.5, max_tokens=1).feasible
        assert not self.point(calibrated_model, ratio=0.95, max_tokens=20).feasible


_COSTS = st.builds(AffineCost, st.floats(0.0, 100.0), st.floats(0.0, 0.05))


@st.composite
def _timing_models(draw) -> TimingModel:
    k_cloud = draw(st.floats(0.01, 1.0))
    return TimingModel(
        k_cloud=k_cloud,
        k_device=draw(st.floats(k_cloud, 5.0, exclude_min=True)),
        tpot_cloud=draw(st.floats(1.0, 100.0)),
        tpot_device=draw(st.floats(1.0, 100.0)),
        rtt=RttClass("drawn", mean_ms=draw(st.floats(0.0, 300.0))),
        compress=draw(_COSTS),
        decompress=draw(_COSTS),
        overhead_bound=draw(st.none() | st.builds(AffineCost, st.floats(0.0, 1000.0), st.floats(0.0, 0.2))),
    )


class TestFeasibleMeansCheckPlan:
    @settings(max_examples=400, deadline=None)
    @given(
        model=_timing_models(),
        min_ratio=st.floats(0.0, 1.0),
        slack_ms=st.floats(0.0, 200.0, exclude_min=True),
        prompt_tokens=st.integers(40, 60000),
        ratio=st.none() | st.floats(0.0, 1.0, exclude_min=True),
        max_tokens=st.none() | st.integers(1, 500),
    )
    def test_operating_point_is_feasible_exactly_when_check_plan_holds(
        self, model, min_ratio, slack_ms, prompt_tokens, ratio, max_tokens
    ):
        constraints = PlanConstraints(min_ratio, model.tpot_device + slack_ms)
        assume(constraints.max_tpot_ms > model.tpot_device)
        point = operating_point(model, constraints, prompt_tokens, ratio=ratio, max_tokens=max_tokens)
        assert point.feasible == check_plan(model, constraints, prompt_tokens, point.ratio, point.max_tokens)
