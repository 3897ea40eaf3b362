"""Reachability solvers cross-checked against a policy-enumeration oracle."""

import sys
import threading
import time

import numpy as np
import pytest
import scipy.optimize

from conftest import (
    make_mdp,
    mask_of,
    members,
    oracle_max_reach,
    policy_actions,
    random_environment,
    random_mdp,
    sequential_mission,
    state_rows,
    toy_chain,
)
from hostilemdp import synth
from hostilemdp.envmodel import scale_rates
from hostilemdp.mdpbuild import build_mdp
from hostilemdp.synth import (
    ConvergenceError,
    extract_policy,
    max_reach_lp,
    max_reach_vi,
    qualitative_reach,
    solve_reachability,
    synthesize_mission,
)


def everything(mdp):
    return np.ones(mdp.n_states, dtype=bool)


def model_bytes(mdp):
    """Every array and label mask of ``mdp`` as (dtype, bytes) pairs."""
    arrays = [mdp.state_ptr, mdp.choice_action, mdp.choice_ptr, mdp.succ, mdp.prob]
    arrays += [mdp.labels[name] for name in sorted(mdp.labels)]
    return [(str(a.dtype), a.tobytes()) for a in arrays]


class TestThreeWayAgreement:
    """Value iteration, the LP, and brute-force policy enumeration must agree."""

    def test_fifty_random_models(self):
        for i in range(50):
            mdp, target = random_mdp(np.random.default_rng([846251, i]))
            allowed = everything(mdp)
            vi = max_reach_vi(mdp, target, allowed, tol=1e-12)
            lp = max_reach_lp(mdp, target, allowed)
            oracle_values, oracle_support = oracle_max_reach(mdp, target)
            assert float(np.max(np.abs(vi.values - oracle_values))) < 1e-9
            assert float(np.max(np.abs(lp.values - oracle_values))) < 1e-9
            assert np.array_equal(qualitative_reach(mdp, target, allowed), oracle_support)
            assert np.array_equal(vi.positive, oracle_support)
            assert np.array_equal(lp.positive, oracle_support)

    def test_lp_values_stay_in_the_unit_interval(self):
        # HiGHS returns some free-state values a few ulps above 1.0 on these models
        for i in range(300):
            mdp, target = random_mdp(np.random.default_rng([77, i]), max_actions=3)
            values = max_reach_lp(mdp, target, everything(mdp)).values
            assert 0.0 <= values.min() and values.max() <= 1.0, (i, values.max())

    def test_known_small_model(self):
        mdp, _ = toy_chain()
        res = max_reach_vi(mdp, mdp.label("goal"), everything(mdp), tol=1e-12)
        assert res.values == pytest.approx([0.3125, 0.625, 0.0, 1.0], abs=1e-9)
        assert members(res.positive) == {0, 1, 3}

    def test_solver_bookkeeping(self):
        mdp, _ = toy_chain()
        target = mdp.label("goal")
        vi = max_reach_vi(mdp, target, everything(mdp))
        lp = max_reach_lp(mdp, target, everything(mdp))
        assert vi.method == "vi" and lp.method == "lp"
        assert vi.iterations >= 1
        assert vi.residual <= 1e-9


def bellman_sweeps(mdp, target, positive, sweeps):
    """``sweeps`` value-iteration sweeps as a plain per-state loop over the rows.

    Each backup is the choice's target mass (summed left to right) plus its
    free terms p * x (summed left to right from 0.0), the rounding
    ``max_reach_vi`` promises; returns the free-state vector after each sweep.
    """
    free = [s for s in range(mdp.n_states) if positive[s] and not target[s]]
    at = {s: i for i, s in enumerate(free)}
    x = [0.0] * len(free)
    out = []
    for _ in range(sweeps):
        new = []
        for i, s in enumerate(free):
            best = x[i]
            for _, row in state_rows(mdp, s):
                const = 0.0
                for t, p in row:
                    if target[t]:
                        const += p
                total = 0.0
                for t, p in row:
                    if t in at:
                        total += p * x[at[t]]
                best = max(best, const + total)
            new.append(best)
        x = new
        out.append(np.array(x))
    return out


class TestValueIteration:
    def test_sweeps_match_the_per_state_loop_bit_for_bit(self):
        for i in range(40):
            mdp, target = random_mdp(np.random.default_rng([3301, i]), max_actions=1 + i % 5)
            snaps = []
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12, sweep_hook=snaps.append)
            assert len(snaps) == res.iterations
            expected = bellman_sweeps(mdp, target, res.positive, len(snaps))
            assert [a.tobytes() for a in snaps] == [b.tobytes() for b in expected]

    def test_budget_error_holds_the_last_sweep(self):
        # odd and even budgets end on either of the two swapped buffers
        for i in range(10):
            mdp, target = random_mdp(np.random.default_rng([3302, i]), max_actions=5)
            for budget in (1, 2, 3):
                snaps = []
                try:
                    max_reach_vi(mdp, target, everything(mdp), tol=-1.0, max_iter=budget,
                                 sweep_hook=snaps.append)
                except ConvergenceError as err:
                    assert len(snaps) == budget
                    res = max_reach_vi(mdp, target, everything(mdp))
                    free = res.positive & ~target
                    assert err.values[free].tobytes() == snaps[-1].tobytes()
                    assert np.all(err.values[target] == 1.0)
                    assert np.all(err.values[~res.positive] == 0.0)
                else:
                    # nothing to iterate: every positive state is a target
                    assert not snaps

    def test_sweeps_are_monotone(self):
        for i in range(5):
            mdp, target = random_mdp(np.random.default_rng([99, i]))
            snaps = []
            max_reach_vi(mdp, target, everything(mdp), tol=1e-12, sweep_hook=snaps.append)
            for a, b in zip(snaps, snaps[1:]):
                assert np.all(b >= a)

    def test_positive_set_matches_value_support(self):
        for i in range(20):
            mdp, target = random_mdp(np.random.default_rng([53, i]))
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
            for s in range(mdp.n_states):
                if res.positive[s]:
                    assert res.values[s] > 0.0
                else:
                    assert res.values[s] == 0.0

    def test_iteration_budget_raises_with_state(self):
        mdp, _ = toy_chain()
        with pytest.raises(ConvergenceError) as err:
            max_reach_vi(mdp, mdp.label("goal"), everything(mdp),
                         tol=1e-15, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 0.0
        assert err.value.values.shape == (mdp.n_states,)

    def test_all_target_needs_no_sweeps(self):
        mdp, _ = toy_chain()
        res = max_reach_vi(mdp, everything(mdp), everything(mdp))
        assert list(res.values) == [1.0] * mdp.n_states
        assert res.iterations == 0

    def test_unknown_method_rejected(self):
        mdp, _ = toy_chain()
        with pytest.raises(ValueError, match="unknown method"):
            solve_reachability(mdp, mdp.label("goal"), everything(mdp),
                               method="newton")


class TestConstrainedReach:
    def test_forbidden_waypoint_kills_the_route(self):
        mdp = make_mdp(
            {
                0: {"step": [(1, 1.0)]},
                1: {"step": [(2, 1.0)]},
                2: {"step": [(2, 1.0)]},
            },
            labels={"goal": {2}},
        )
        target = mask_of(3, {2})
        assert members(qualitative_reach(mdp, target, mask_of(3, {0, 2}))) == {2}
        res = max_reach_vi(mdp, target, mask_of(3, {0, 2}), tol=1e-12)
        assert res.values[0] == 0.0
        res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
        assert res.values[0] == 1.0


class TestPolicyExtraction:
    def test_escapes_value_tied_loops(self):
        # staying put backs up to the same value as moving, so a plain
        # argmax could return the non-progressing self-loop
        mdp = make_mdp(
            {
                0: {"loop": [(0, 1.0)], "go": [(1, 1.0)]},
                1: {"loop": [(1, 1.0)]},
            },
            labels={"goal": {1}},
        )
        target = mask_of(2, {1})
        res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
        policy = extract_policy(mdp, res, target)
        assert mdp.action_names[policy_actions(mdp, policy)[0]] == "go"

    def test_defined_exactly_on_positive_nontarget(self):
        for i in range(10):
            mdp, target = random_mdp(np.random.default_rng([17, i]))
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
            policy = extract_policy(mdp, res, target)
            assert policy.dtype == np.int64 and np.all(np.diff(policy) > 0)
            actions = policy_actions(mdp, policy)
            assert set(actions) == members(res.positive & ~target)
            for s, a in actions.items():
                assert a in [b for b, _ in state_rows(mdp, s)]

    def test_policy_attains_the_values(self):
        # restrict each state to its chosen action and re-solve: same values
        for i in range(10):
            mdp, target = random_mdp(np.random.default_rng([29, i]))
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
            policy = extract_policy(mdp, res, target)
            actions = policy_actions(mdp, policy)
            table = {}
            for s in range(mdp.n_states):
                if s in actions:
                    row = dict(state_rows(mdp, s))[actions[s]]
                    rows = {mdp.action_names[actions[s]]: row}
                else:
                    rows = {mdp.action_names[a]: row for a, row in state_rows(mdp, s)}
                table[s] = rows
            fixed = make_mdp(table, labels={"goal": members(target)})
            again = max_reach_vi(fixed, target, everything(fixed), tol=1e-12)
            assert float(np.max(np.abs(again.values - res.values))) < 1e-9


class TestMission:
    def test_corridor_value_regression(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        assert strat.value == pytest.approx(0.9728657289, abs=1e-7)
        assert strat.values_second[corridor_mdp.init] == pytest.approx(0.9728657289, abs=1e-7)
        assert strat.switch.any()
        assert corridor_mdp.init in policy_actions(corridor_mdp, strat.first)

    def test_methods_agree_on_corridor(self, corridor_mdp):
        vi = synthesize_mission(corridor_mdp, method="vi", tol=1e-12)
        lp = synthesize_mission(corridor_mdp, method="lp")
        assert vi.value == pytest.approx(lp.value, abs=1e-7)
        assert float(np.max(np.abs(vi.values_first - lp.values_first))) < 1e-6
        assert float(np.max(np.abs(vi.values_second - lp.values_second))) < 1e-6
        assert np.array_equal(vi.switch, lp.switch)

    def test_lp_matches_vi_on_built_missions(self):
        rng = np.random.default_rng(20261018)
        solved = 0
        for _ in range(20):
            mdp = build_mdp(random_environment(rng))
            try:
                vi = synthesize_mission(mdp, "vi", tol=1e-12)
            except ValueError as err:
                assert "pickup and dropoff" in str(err)
                continue
            lp = synthesize_mission(mdp, "lp")
            assert float(np.max(np.abs(vi.values_first - lp.values_first))) < 1e-9
            assert float(np.max(np.abs(vi.values_second - lp.values_second))) < 1e-9
            assert np.array_equal(vi.switch, lp.switch)
            assert np.array_equal(vi.sat_deliverable, lp.sat_deliverable)
            solved += 1
        assert solved >= 10

    def test_pickup_must_keep_delivery_possible(self):
        # two pickup states: from one the dropoff is unreachable, so the
        # switch set keeps only the viable one and the first stage aims there
        mdp = make_mdp(
            {
                0: {"a": [(1, 0.5), (2, 0.5)]},
                1: {"a": [(1, 1.0)]},
                2: {"a": [(3, 1.0)]},
                3: {"a": [(3, 1.0)]},
            },
            labels={"alive": {0, 1, 2, 3}, "pickup": {1, 2}, "dropoff": {3}},
        )
        strat = synthesize_mission(mdp, tol=1e-12)
        assert members(strat.switch) == {2}
        assert strat.value == pytest.approx(0.5, abs=1e-12)
        assert not strat.sat_deliverable[1]

    def test_trivial_when_pickup_is_dropoff(self):
        mdp = make_mdp(
            {0: {"m": [(1, 1.0)]}, 1: {"m": [(1, 1.0)]}},
            labels={"alive": {0, 1}, "pickup": {1}, "dropoff": {1}},
        )
        strat = synthesize_mission(mdp, tol=1e-12)
        assert strat.value == 1.0
        assert members(strat.switch) == {1}
        assert policy_actions(mdp, strat.first) == {0: 0}

    def test_missing_labels_rejected(self):
        mdp = make_mdp({0: {"a": [(0, 1.0)]}}, labels={"alive": {0}})
        with pytest.raises(ValueError, match="pickup and dropoff"):
            synthesize_mission(mdp)

    def test_rate_scaling_preserves_strategy(self, corridor_env):
        base = synthesize_mission(build_mdp(corridor_env), tol=1e-12)
        for factor in (0.5, 2.0, 10.0):
            scaled_env = scale_rates(corridor_env, factor)
            scaled = synthesize_mission(build_mdp(scaled_env), tol=1e-12)
            assert np.array_equal(scaled.first, base.first)
            assert np.array_equal(scaled.second, base.second)
            assert scaled.value == pytest.approx(base.value, abs=1e-9)


class TestModelUntouched:
    """The solvers' sparse matrix shares the model's arrays, so an in-place
    ``sort_indices``, ``sum_duplicates`` or ``eliminate_zeros`` on it would
    rewrite the model.  Corridor's rows list their successors out of order,
    and the random model gets a zero-probability entry."""

    def test_mission_solves_leave_corridor_untouched(self, corridor_env):
        mdp = build_mdp(corridor_env)
        before = model_bytes(mdp)
        for method in ("vi", "lp"):
            strategy = synthesize_mission(mdp, method=method)
        alive = mdp.label("alive")
        target = alive & mdp.label("dropoff")
        extract_policy(mdp, max_reach_vi(mdp, target, alive), target)
        assert strategy.value > 0.0
        assert model_bytes(mdp) == before

    def test_solves_leave_a_model_with_a_zero_entry_untouched(self):
        mdp, target = random_mdp(np.random.default_rng([1717, 3]), max_actions=3)
        mdp.prob[mdp.choice_ptr[np.flatnonzero(np.diff(mdp.choice_ptr) > 1)[0]]] = 0.0
        before = model_bytes(mdp)
        for method in ("vi", "lp"):
            result = solve_reachability(mdp, target, everything(mdp), method=method)
        extract_policy(mdp, result, target)
        assert model_bytes(mdp) == before


def mission_fields(strategy):
    """The arrays of a mission strategy that must match bit for bit, as (dtype, bytes)."""
    return [(str(a.dtype), a.tobytes()) for a in (
        strategy.first, strategy.second, strategy.switch, strategy.sat_deliverable,
        strategy.values_first, strategy.values_second)]


@pytest.fixture
def stray_threads(monkeypatch):
    """Fails the test if a thread outlives the call or an exception reaches ``threading.excepthook``."""
    baseline = threading.active_count()
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    yield
    assert threading.active_count() == baseline
    assert not escaped


class TestConcurrentStages:
    """``synthesize_mission`` solves its two stages at once; what it returns
    and raises must be what the stages solved one after the other give."""

    @pytest.mark.parametrize("method", ["vi", "lp"])
    @pytest.mark.parametrize("name", ["corridor", "A", "B"])
    def test_bundled_missions_match_the_sequential_order(self, corridor_env, case_envs,
                                                         stray_threads, name, method):
        mdp = build_mdp(corridor_env if name == "corridor" else case_envs[name])
        expected = mission_fields(sequential_mission(mdp, method))
        assert mission_fields(synthesize_mission(mdp, method)) == expected

    @pytest.mark.parametrize("method", ["vi", "lp"])
    def test_corridor_is_the_same_on_every_repeat(self, corridor_mdp, stray_threads, method):
        expected = mission_fields(sequential_mission(corridor_mdp, method))
        # a short switch interval interleaves the two stages more often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert mission_fields(synthesize_mission(corridor_mdp, method)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_built_missions_match_the_sequential_order(self, stray_threads):
        # the 20 models of TestMission.test_lp_matches_vi_on_built_missions
        rng = np.random.default_rng(20261018)
        solved = 0
        for _ in range(20):
            mdp = build_mdp(random_environment(rng))
            for method, kw in (("vi", {"tol": 1e-12}), ("lp", {})):
                try:
                    got = synthesize_mission(mdp, method, **kw)
                except ValueError as err:
                    assert "pickup and dropoff" in str(err)
                    break
                assert mission_fields(got) == mission_fields(sequential_mission(mdp, method, **kw))
            else:
                solved += 1
        assert solved >= 10

    def test_deliver_convergence_error_wins(self, corridor_mdp, stray_threads):
        # both stages run out of sweeps; the raised error is the deliver stage's
        alive = corridor_mdp.label("alive")
        with pytest.raises(ConvergenceError) as deliver:
            max_reach_vi(corridor_mdp, alive & corridor_mdp.label("dropoff"), alive, max_iter=3)
        with pytest.raises(ConvergenceError) as raised:
            synthesize_mission(corridor_mdp, max_iter=3)
        assert raised.value.values.tobytes() == deliver.value.values.tobytes()
        assert (raised.value.iterations, raised.value.residual) == (
            deliver.value.iterations, deliver.value.residual)

    @pytest.mark.parametrize("failing, reported", [
        ({"deliver"}, "deliver"),
        ({"pickup"}, "pickup"),
        ({"deliver", "pickup"}, "deliver"),
    ])
    def test_failed_lp_stage_is_reported_after_the_join(self, corridor_mdp, monkeypatch,
                                                        stray_threads, failing, reported):
        alive = corridor_mdp.label("alive")
        deliver = alive & corridor_mdp.label("dropoff")
        # the two corridor stages have different numbers of free states
        n_deliver = int(np.count_nonzero(qualitative_reach(corridor_mdp, deliver, alive) & ~deliver))
        solve, finished = scipy.optimize.linprog, []

        def stub(c, **kw):
            stage = "deliver" if len(c) == n_deliver else "pickup"
            if stage in failing:
                return scipy.optimize.OptimizeResult(success=False, status=1,
                                                     message=f"{stage} stalled")
            # a stage that succeeds is slow, so a failure elsewhere raises first
            time.sleep(0.2)
            res = solve(c=c, **kw)
            finished.append(stage)
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", stub)
        with pytest.raises(RuntimeError, match=f"^LP solve failed: {reported} stalled$"):
            synthesize_mission(corridor_mdp, "lp")
        assert sorted(finished) == sorted({"deliver", "pickup"} - failing)

    def test_no_progressing_action_error_is_the_sequential_one(self, corridor_mdp, monkeypatch,
                                                               stray_threads):
        monkeypatch.setattr(synth, "TIE_TOL", -1.0)
        with pytest.raises(RuntimeError, match="no progressing action") as expected:
            sequential_mission(corridor_mdp)
        with pytest.raises(RuntimeError, match="no progressing action") as raised:
            synthesize_mission(corridor_mdp)
        assert str(raised.value) == str(expected.value)
