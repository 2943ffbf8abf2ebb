import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_force_plan, feasible_by_substitution, random_planner_instance

from pdsim.harness import default_config, write_plans
from pdsim.planner import Plan, PlanConstraints, build_plan_table, l_bounds, solve_plan
from pdsim.timing import RTT_CLASSES, AffineCost, RttClass, TimingModel, prefill_device, smoothed_tpot, ttft_cloud, ttft_device


class TestRatioJudgedBySubstitution:
    def test_worked_example(self, calibrated_model):
        # 950 ms p95 TTFT + 50 ms recovery + 1.25 * 0.9 * 8000 ms = 10 s, the device alone
        constraints = PlanConstraints(0.6, 100.0)
        assert solve_plan(calibrated_model, constraints, 8000, ratio=0.9).feasible
        assert not solve_plan(calibrated_model, constraints, 8000, ratio=0.901).feasible

    def test_refinement_disabled_when_collaboration_cannot_pay_off(self):
        plan = solve_plan(TimingModel(k_cloud=1.24, k_device=1.25), PlanConstraints(0.25, 100.0), 8000)
        assert plan.ratio == 1.0
        assert not plan.feasible

    def test_rejects_nonpositive_length(self, calibrated_model):
        with pytest.raises(ValueError):
            solve_plan(calibrated_model, PlanConstraints(0.6, 100.0), 0)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda model: PlanConstraints(-0.01, 100.0), r"min_ratio must be in \[0, 1\]"),
            (lambda model: PlanConstraints(1.01, 100.0), r"min_ratio must be in \[0, 1\]"),
            (lambda model: PlanConstraints(0.25, 0.0), "max_tpot_ms must be positive"),
            (lambda model: solve_plan(model, PlanConstraints(0.25, 100.0), 8000, max_tokens=0), "max_tokens must be >= 1"),
            (lambda model: Plan(ratio=1.5, max_tokens=5, feasible=True, achieved_tpot_smooth=50.0),
             r"ratio must be in \[0, 1\]"),
            (lambda model: l_bounds(model, PlanConstraints(0.25, 100.0), 8000, 0.0, 950.0, 7000.0),
             r"ratio must be in \(0, 1\]"),
        ],
        ids=["min-ratio-negative", "min-ratio-above-one", "max-tpot-zero", "pinned-budget-zero", "plan-ratio-above-one",
             "bounds-ratio-zero"],
    )
    def test_out_of_range_inputs_are_rejected(self, calibrated_model, build, match):
        with pytest.raises(ValueError, match=match):
            build(calibrated_model)

    def test_a_ratio_on_the_boundary_is_judged_as_by_substitution(self):
        # 10 + 80 + 10 <= 100 holds with equality; a quotient bound, 1 - (0.1 + 80 / 100) / 1.0, rounds below 0.1
        model = TimingModel(k_cloud=0.1, k_device=1.0, tpot_cloud=0.7, tpot_device=1.0, rtt=RttClass(50.0),
                            compress=AffineCost(20.0, 0.0), decompress=AffineCost(10.0, 0.0))
        constraints = PlanConstraints(0.0, 1.1)
        plan = solve_plan(model, constraints, 100, ratio=0.1, max_tokens=2)
        assert plan.feasible
        assert plan.feasible == feasible_by_substitution(model, constraints, 100, 0.1, 2)

    def test_the_ratio_is_judged_at_the_p95_rtt_and_the_budget_at_the_mean(self, calibrated_model):
        # ratio 0.897 leaves 30 ms to spare at 50 ms; 30 ms of jitter adds 49.35 ms at the p95
        constraints = PlanConstraints(0.6, 100.0)
        steady = solve_plan(calibrated_model, constraints, 8000, ratio=0.897)
        jittery_model = dataclasses.replace(calibrated_model, rtt=RttClass(mean_ms=50.0, jitter_ms=30.0))
        jittery = solve_plan(jittery_model, constraints, 8000, ratio=0.897)
        assert steady.feasible and not jittery.feasible
        assert steady.max_tokens == jittery.max_tokens

    @pytest.mark.parametrize("rtt", [*RTT_CLASSES.values(), RttClass(mean_ms=60.0, jitter_ms=25.0)])
    def test_each_rtt_class_judges_the_ratio_at_its_p95(self, rtt):
        # a ratio whose saving covers the RTT halfway between mean and p95 pays at the mean only
        constraints = PlanConstraints(0.0, 100.0)
        jittery = TimingModel(rtt=rtt)
        steady = dataclasses.replace(jittery, rtt=RttClass(mean_ms=rtt.mean_ms))
        for l in (1000, 8000, 32000):
            alone = prefill_device(jittery, l)
            fixed = jittery.k_cloud * l + jittery.compress(l) + jittery.decompress(l)
            halfway = 1.0 - (fixed + (rtt.mean_ms + rtt.p95_ms) / 2) / alone
            safe = 1.0 - (fixed + rtt.p95_ms + 1.0) / alone
            assert 0.0 < safe < halfway < 1.0
            paid = solve_plan(steady, constraints, l, ratio=halfway)
            unpaid = solve_plan(jittery, constraints, l, ratio=halfway)
            assert paid.feasible and not unpaid.feasible
            assert paid.max_tokens == unpaid.max_tokens
            assert not feasible_by_substitution(jittery, constraints, l, halfway, unpaid.max_tokens)
            assert solve_plan(jittery, constraints, l, ratio=safe).feasible


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
            tc = ttft_cloud(calibrated_model, tokens, 50.0)
            td = ttft_device(calibrated_model, tokens, prefill_device(calibrated_model, tokens, plan.ratio), tc)
            lo, hi = l_bounds(calibrated_model, constraints, tokens, plan.ratio, tc, td)
            assert lo <= moderate <= hi


class TestSolvePlan:
    def test_worked_example(self, calibrated_model):
        plan = solve_plan(calibrated_model, PlanConstraints(0.6, 100.0), 8000)
        assert plan.feasible
        assert plan.ratio == 0.6
        assert plan.max_tokens == 74
        assert plan.achieved_tpot_smooth <= 100.0
        ttft_c = ttft_cloud(calibrated_model, 8000, calibrated_model.rtt.mean_ms)
        prefill = prefill_device(calibrated_model, 8000, plan.ratio)
        assert ttft_device(calibrated_model, 8000, prefill, ttft_c) == pytest.approx(7000.0)
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
        tc = ttft_cloud(calibrated_model, 8000, 50.0)
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
            assert feasible_by_substitution(model, constraints, tokens, plan.ratio, plan.max_tokens)
        assert checked >= 20

    def test_unpinned_budget_is_the_lower_bound_or_the_occupancy_clamp(self, calibrated_model):
        for constraints in (PlanConstraints(0.25, 100.0), PlanConstraints(0.25, 31.0)):
            plan = solve_plan(calibrated_model, constraints, 8000)
            tc = ttft_cloud(calibrated_model, 8000, calibrated_model.rtt.mean_ms)
            td = ttft_device(calibrated_model, 8000, prefill_device(calibrated_model, 8000, plan.ratio), tc)
            lo, hi = l_bounds(calibrated_model, constraints, 8000, plan.ratio, tc, td)
            if lo <= hi:
                assert (plan.max_tokens, plan.feasible) == (lo, True)
            else:
                # a 31 ms pace target leaves the budget interval empty
                assert constraints.max_tpot_ms == 31.0
                assert (plan.max_tokens, plan.feasible) == (max(hi, 1), False)

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

    def test_a_cloud_streaming_slower_than_tau_is_infeasible(self, calibrated_model):
        # each shown position waits for its arrival, so every window gap is at
        # least tpot_cloud whatever the pace; both budget bounds hold here
        constraints = PlanConstraints(0.1, 100.0)
        assert solve_plan(dataclasses.replace(calibrated_model, tpot_cloud=100.0), constraints, 8000).feasible
        slow = dataclasses.replace(calibrated_model, tpot_cloud=150.0)
        plan = solve_plan(slow, constraints, 8000)
        tc = ttft_cloud(slow, 8000, slow.rtt.mean_ms)
        td = ttft_device(slow, 8000, prefill_device(slow, 8000, plan.ratio), tc)
        lo, hi = l_bounds(slow, constraints, 8000, plan.ratio, tc, td)
        assert (plan.ratio, plan.max_tokens, lo, hi) == (0.1, 2, 2, 8)
        assert not plan.feasible
        assert not feasible_by_substitution(slow, constraints, 8000, plan.ratio, plan.max_tokens)
        assert brute_force_plan(slow, constraints, 8000) is None

    def test_monotone_response(self, calibrated_model):
        budgets = []
        for tau in (60.0, 80.0, 100.0, 150.0, 300.0):
            budgets.append(solve_plan(calibrated_model, PlanConstraints(0.25, tau), 8000).max_tokens)
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

        estimates = []
        for floor in (0.8, 0.6, 0.4, 0.25, 0.125):
            ratio = solve_plan(calibrated_model, PlanConstraints(floor, 100.0), 8000).ratio
            ttft_c = ttft_cloud(calibrated_model, 8000, calibrated_model.rtt.mean_ms)
            prefill = prefill_device(calibrated_model, 8000, ratio)
            estimates.append(ttft_device(calibrated_model, 8000, prefill, ttft_c))
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


class TestPinnedPoints:
    """``solve_plan`` with pins, for doc_qa prompts of 8000 tokens or off the default config's bucket grid."""

    CONSTRAINTS = PlanConstraints(0.25, 100.0)

    def point(self, model, **pinned):
        return solve_plan(model, self.CONSTRAINTS, 8000, **pinned)

    def test_unpinned_point_is_the_plan_at_the_prompt_length(self, calibrated_model):
        plan = self.point(calibrated_model)
        assert plan.feasible and plan.ratio == 0.25
        # pinning a plan's own point judges it as solved
        assert self.point(calibrated_model, ratio=plan.ratio, max_tokens=plan.max_tokens) == plan
        assert self.point(calibrated_model, ratio=plan.ratio) == plan
        assert self.point(calibrated_model, max_tokens=plan.max_tokens) == plan

    def test_off_grid_lengths_are_planned_at_their_own_length(self):
        # the default buckets are 1k..32k; neither length is one of them
        config = default_config()
        model, constraints = config.models["phone"], config.scenes["doc_qa"]
        assert solve_plan(model, constraints, 4100).max_tokens == 12
        assert solve_plan(model, constraints, 4100).max_tokens < solve_plan(model, constraints, 8000).max_tokens
        # past the largest bucket its point no longer meets the pace target
        bucket_budget = solve_plan(model, constraints, 32000).max_tokens
        assert not solve_plan(model, constraints, 40000, ratio=0.25, max_tokens=bucket_budget).feasible
        assert not feasible_by_substitution(model, constraints, 40000, 0.25, bucket_budget)
        long = solve_plan(model, constraints, 40000)
        assert (long.ratio, long.max_tokens, long.feasible) == (0.25, 116, True)
        assert feasible_by_substitution(model, constraints, 40000, long.ratio, long.max_tokens)

    def test_pinned_ratio_solves_the_budget_at_that_ratio(self, calibrated_model):
        pinned = self.point(calibrated_model, ratio=0.5)
        assert pinned.ratio == 0.5
        assert pinned.max_tokens != self.point(calibrated_model).max_tokens
        assert pinned.feasible
        assert feasible_by_substitution(calibrated_model, self.CONSTRAINTS, 8000, 0.5, pinned.max_tokens)

    def test_pinned_budget_keeps_the_planned_ratio(self, calibrated_model):
        plan = self.point(calibrated_model)
        short = self.point(calibrated_model, max_tokens=3)
        assert (short.ratio, short.max_tokens) == (plan.ratio, 3)
        # 3 tokens cannot amortize the device prefill under 100 ms
        assert not short.feasible
        assert self.point(calibrated_model, max_tokens=plan.max_tokens).feasible

    def test_both_pinned_is_checked_as_given(self, calibrated_model):
        for ratio, budget in ((0.5, 20), (0.5, 1), (0.95, 20)):
            point = self.point(calibrated_model, ratio=ratio, max_tokens=budget)
            assert (point.ratio, point.max_tokens) == (ratio, budget)
            assert point.feasible == feasible_by_substitution(calibrated_model, self.CONSTRAINTS, 8000, ratio, budget)
        # one token leaves nothing to pace; 0.95 is above the ratio interval
        assert not self.point(calibrated_model, ratio=0.5, max_tokens=1).feasible
        assert not self.point(calibrated_model, ratio=0.95, max_tokens=20).feasible

    def test_pinned_ratio_outside_the_ratio_interval_is_infeasible_at_any_budget(self, calibrated_model):
        # below the 0.25 floor, and past 0.9, where assistance no longer pays
        for ratio in (0.125, 0.95):
            solved = self.point(calibrated_model, ratio=ratio)
            assert solved.ratio == ratio and not solved.feasible
            for budget in (2, solved.max_tokens, 200):
                assert not self.point(calibrated_model, ratio=ratio, max_tokens=budget).feasible
                assert not feasible_by_substitution(calibrated_model, self.CONSTRAINTS, 8000, ratio, budget)


_COSTS = st.builds(AffineCost, st.floats(0.0, 100.0), st.floats(0.0, 0.05))


@st.composite
def _timing_models(draw) -> TimingModel:
    k_cloud = draw(st.floats(0.01, 1.0))
    return TimingModel(
        k_cloud=k_cloud,
        k_device=draw(st.floats(k_cloud, 5.0, exclude_min=True)),
        tpot_cloud=draw(st.floats(1.0, 100.0)),
        tpot_device=draw(st.floats(1.0, 100.0)),
        rtt=RttClass(mean_ms=draw(st.floats(0.0, 300.0))),
        compress=draw(_COSTS),
        decompress=draw(_COSTS),
    )


class TestFeasibleMeansSubstitution:
    @settings(max_examples=400, deadline=None)
    @given(
        model=_timing_models(),
        min_ratio=st.floats(0.0, 1.0),
        slack_ms=st.floats(0.0, 200.0, exclude_min=True),
        prompt_tokens=st.integers(40, 60000),
        ratio=st.none() | st.floats(0.0, 1.0, exclude_min=True),
        max_tokens=st.none() | st.integers(1, 500),
    )
    def test_plan_is_feasible_exactly_when_its_point_holds_by_substitution(
        self, model, min_ratio, slack_ms, prompt_tokens, ratio, max_tokens
    ):
        constraints = PlanConstraints(min_ratio, model.tpot_device + slack_ms)
        assume(constraints.max_tpot_ms > model.tpot_device)
        plan = solve_plan(model, constraints, prompt_tokens, ratio=ratio, max_tokens=max_tokens)
        assert plan.feasible == feasible_by_substitution(model, constraints, prompt_tokens, plan.ratio, plan.max_tokens)

    @settings(max_examples=400, deadline=None)
    @given(
        model=_timing_models(),
        min_ratio=st.floats(0.0, 1.0),
        slack_ms=st.floats(0.0, 200.0, exclude_min=True),
        prompt_tokens=st.integers(40, 60000),
        ratio=st.none() | st.floats(0.0, 1.0, exclude_min=True),
        data=st.data(),
    )
    def test_budgets_at_the_interval_edges_are_judged_as_by_substitution(
        self, model, min_ratio, slack_ms, prompt_tokens, ratio, data
    ):
        # budgets drawn at random seldom land on an edge of l_bounds; these do
        constraints = PlanConstraints(min_ratio, model.tpot_device + slack_ms)
        assume(constraints.max_tpot_ms > model.tpot_device)
        served = solve_plan(model, constraints, prompt_tokens, ratio=ratio).ratio
        tc = ttft_cloud(model, prompt_tokens, model.rtt.mean_ms)
        td = ttft_device(model, prompt_tokens, prefill_device(model, prompt_tokens, served), tc)
        lo, hi = l_bounds(model, constraints, prompt_tokens, served, tc, td)
        edges = sorted({1, 2, lo - 1, lo, hi, hi + 1} - {b for b in (lo - 1, hi, hi + 1) if b < 1})
        budget = data.draw(st.sampled_from(edges), label="budget")
        plan = solve_plan(model, constraints, prompt_tokens, ratio=served, max_tokens=budget)
        assert plan.feasible == feasible_by_substitution(model, constraints, prompt_tokens, served, budget)

    @pytest.mark.parametrize(
        "model, constraints, prompt_tokens, ratio, budget, feasible",
        [
            # drawn under the deep profile: the decompression base equals
            # tpot_cloud, and ttft_d - ttft_c rounds to just below it
            (TimingModel(k_cloud=0.125, k_device=1.0, tpot_cloud=14.952055753462666, tpot_device=1.0,
                         rtt=RttClass(0.0), compress=AffineCost(0.0, 0.0024208805010626174),
                         decompress=AffineCost(14.952055753462666, 0.0)),
             PlanConstraints(0.0, 15.0), 140, 1.9077547507909104e-65, 2, True),
            # the window quotient rounds up to a budget whose last token arrives late
            (TimingModel(k_cloud=0.01, k_device=1.0, tpot_cloud=0.1, tpot_device=19.817225712897315,
                         rtt=RttClass(0.1), compress=AffineCost(0.0, 0.01), decompress=AffineCost(0.7, 0.0)),
             PlanConstraints(0.0, 26.917225712897313), 2633, 0.7, 18439, False),
            # the pace quotient rounds up past a budget that keeps the pace
            (TimingModel(k_cloud=0.01, k_device=1.25, tpot_cloud=1.0, tpot_device=1.0, rtt=RttClass(0.0),
                         compress=AffineCost(0.0, 0.01), decompress=AffineCost(10.0, 0.0)),
             PlanConstraints(0.0, 1.7), 100, 0.1, 16, True),
            # and down to a budget that does not
            (TimingModel(k_cloud=0.01, k_device=1.0, tpot_cloud=0.1, tpot_device=1.0, rtt=RttClass(0.0),
                         compress=AffineCost(0.0, 0.0), decompress=AffineCost(0.0, 0.0)),
             PlanConstraints(0.0, 1.7), 8000, 0.5, 5601, False),
        ],
    )
    def test_a_rounded_budget_bound_is_judged_as_by_substitution(
        self, model, constraints, prompt_tokens, ratio, budget, feasible
    ):
        plan = solve_plan(model, constraints, prompt_tokens, ratio=ratio, max_tokens=budget)
        assert plan.feasible == feasible_by_substitution(model, constraints, prompt_tokens, ratio, budget) == feasible

    def test_budgets_past_two_to_the_64_are_judged_as_by_substitution(self):
        # a budget of 2^64 or more is no numpy integer; the edges property drew
        # budgets at this lower bound and crashed the oracle
        model = TimingModel(k_cloud=0.01, k_device=1.0, tpot_cloud=1.0, tpot_device=1.0, rtt=RttClass(0.0),
                            compress=AffineCost(0.0, 0.0), decompress=AffineCost(0.0, 0.0))
        constraints = PlanConstraints(0.5, 1.0 + 2**-52)
        plan = solve_plan(model, constraints, 9000)
        tc = ttft_cloud(model, 9000, 0.0)
        td = ttft_device(model, 9000, prefill_device(model, 9000, plan.ratio), tc)
        lo, hi = l_bounds(model, constraints, 9000, plan.ratio, tc, td)
        assert lo - 1 >= 2**64 and hi == 4501
        for budget in (lo - 1, lo):
            pinned = solve_plan(model, constraints, 9000, ratio=plan.ratio, max_tokens=budget)
            assert not pinned.feasible
            assert feasible_by_substitution(model, constraints, 9000, plan.ratio, budget) is False
