import math
import random

import pytest

from helpers import brute_force_plan, random_planner_instance

from pdsim.harness import default_config, write_plans
from pdsim.planner import (
    PlanConstraints,
    PlanKey,
    build_plan_table,
    check_plan,
    l_bounds,
    operating_point,
    r_bounds,
    solve_plan,
)
from pdsim.timing import RttClass, build_model, smoothed_tpot, ttft_cloud, ttft_device


class TestRatioBounds:
    def test_worked_example(self, calibrated_model):
        lo, hi = r_bounds(calibrated_model, PlanConstraints(0.6, 100.0), 8000)
        assert lo == 0.6
        assert hi == pytest.approx(0.88)

    def test_interval_empty_when_collaboration_cannot_pay_off(self):
        model = build_model(k_cloud=1.2, k_device=1.25, overhead_bound=lambda tokens: 0.1 * tokens)
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
        assert plan.ttft_device_estimate == pytest.approx(7000.0)
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
            bound = model.overhead_bound(tokens)
            assert constraints.min_ratio <= ratio
            assert model.k_cloud * tokens + bound + model.k_device * ratio * tokens <= model.k_device * tokens + 1e-9
            tc = ttft_cloud(model, tokens, ratio, model.rtt_class.mean_ms)
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
            estimates.append(solve_plan(calibrated_model, PlanConstraints(floor, 100.0), 8000).ttft_device_estimate)
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))


class TestPlanTable:
    def test_cardinality(self, calibrated_model):
        models = {"phone": calibrated_model, "tablet": build_model(k_device=0.8)}
        scenes = {name: PlanConstraints(0.25, 100.0) for name in ("a", "b", "c")}
        table = build_plan_table(models, scenes, (2000, 4000, 8000, 16000))
        assert len(table.plans) == 24

    def test_lookup_uses_nearest_bucket_at_or_above(self, calibrated_model):
        constraints = PlanConstraints(0.25, 100.0)
        table = build_plan_table({"phone": calibrated_model}, {"qa": constraints}, (2000, 4000, 8000))
        direct = solve_plan(calibrated_model, constraints, 4000)
        assert table.lookup("qa", "phone", 4000) == direct
        assert table.lookup("qa", "phone", 2001) == direct
        assert table.lookup("qa", "phone", 123456) == table.plans[PlanKey("qa", "phone", 8000)]
        assert table.lookup("unknown", "phone", 4000) is None
        assert table.lookup("qa", "watch", 4000) is None

    def test_default_collaboration_scene_plans_quarter_ratio(self):
        config = default_config()
        table = build_plan_table(config.models, config.scenes, config.buckets)
        plan = table.lookup("doc_qa", "phone", 8000)
        assert plan is not None and plan.feasible
        assert plan.ratio == 0.25

    def test_rejects_bad_buckets(self, calibrated_model):
        scenes = {"qa": PlanConstraints(0.25, 100.0)}
        with pytest.raises(ValueError):
            build_plan_table({"phone": calibrated_model}, scenes, ())
        with pytest.raises(ValueError):
            build_plan_table({"phone": calibrated_model}, scenes, (4000, 2000))

    def test_csv_round_trip_columns(self, calibrated_model, tmp_path):
        table = build_plan_table({"phone": calibrated_model}, {"qa": PlanConstraints(0.25, 100.0)}, (2000, 8000))
        path = tmp_path / "plans.csv"
        write_plans(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "scene,device_class,bucket,r,L,feasible,achieved_tpot_smooth"
        assert len(lines) == 3


class TestOperatingPoint:
    """``operating_point`` over an 8000-token doc_qa/phone table, for prompts of 8000 tokens."""

    CONSTRAINTS = PlanConstraints(0.25, 100.0)

    @pytest.fixture
    def table(self, calibrated_model):
        return build_plan_table({"phone": calibrated_model}, {"doc_qa": self.CONSTRAINTS}, (8000,))

    def point(self, table, model, scene="doc_qa", device_class="phone", **pinned):
        return operating_point(table, model, self.CONSTRAINTS, scene, device_class, 8000, **pinned)

    def test_planned_request_uses_table(self, calibrated_model, table):
        plan = table.lookup("doc_qa", "phone", 8000)
        point = self.point(table, calibrated_model)
        assert (point.ratio, point.max_tokens, point.feasible, point.planning_miss) == (
            plan.ratio, plan.max_tokens, plan.feasible, False
        )
        assert plan.feasible and plan.ratio == 0.25

    @pytest.mark.parametrize("scene, device_class", [("unplanned", "phone"), ("doc_qa", "watch")])
    def test_planning_miss_streams_until_eot(self, calibrated_model, table, scene, device_class):
        point = self.point(table, calibrated_model, scene, device_class)
        assert (point.ratio, point.max_tokens, point.feasible, point.planning_miss) == (1.0, None, False, True)

    def test_pinned_ratio_solves_the_budget_at_that_ratio(self, calibrated_model, table):
        point = self.point(table, calibrated_model, ratio=0.5)
        pinned = solve_plan(calibrated_model, self.CONSTRAINTS, 8000, ratio=0.5)
        assert (point.ratio, point.max_tokens, point.planning_miss) == (0.5, pinned.max_tokens, False)
        assert pinned.max_tokens != table.lookup("doc_qa", "phone", 8000).max_tokens
        assert point.feasible == check_plan(calibrated_model, self.CONSTRAINTS, 8000, 0.5, pinned.max_tokens) is True

    def test_pinned_budget_keeps_the_planned_ratio(self, calibrated_model, table):
        plan = table.lookup("doc_qa", "phone", 8000)
        short = self.point(table, calibrated_model, max_tokens=3)
        assert (short.ratio, short.max_tokens, short.planning_miss) == (plan.ratio, 3, False)
        # 3 tokens cannot amortize the device prefill under 100 ms
        assert not short.feasible
        assert self.point(table, calibrated_model, max_tokens=plan.max_tokens).feasible

    def test_both_pinned_is_checked_as_given(self, calibrated_model, table):
        for ratio, budget in ((0.5, 20), (0.5, 1), (0.95, 20)):
            point = self.point(table, calibrated_model, ratio=ratio, max_tokens=budget)
            assert (point.ratio, point.max_tokens, point.planning_miss) == (ratio, budget, False)
            assert point.feasible == check_plan(calibrated_model, self.CONSTRAINTS, 8000, ratio, budget)
        # one token leaves nothing to pace; 0.95 is above the ratio interval
        assert not self.point(table, calibrated_model, ratio=0.5, max_tokens=1).feasible
        assert not self.point(table, calibrated_model, ratio=0.95, max_tokens=20).feasible

    def test_pinned_point_on_a_miss_serves_ratio_one(self, calibrated_model, table):
        budget_only = self.point(table, calibrated_model, "unplanned", max_tokens=12)
        assert (budget_only.ratio, budget_only.max_tokens, budget_only.planning_miss) == (1.0, 12, True)
        ratio_only = self.point(table, calibrated_model, "unplanned", ratio=0.5)
        assert ratio_only.max_tokens == solve_plan(calibrated_model, self.CONSTRAINTS, 8000, ratio=0.5).max_tokens
        assert ratio_only.planning_miss
