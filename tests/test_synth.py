"""Reachability solvers cross-checked against a policy-enumeration oracle."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from conftest import (
    as_csr,
    choice_owner,
    make_mdp,
    mask_of,
    members,
    model_matrix,
    oracle_levels,
    oracle_max_reach,
    policy_actions,
    random_environment,
    random_mdp,
    recorded_mission,
    reference_policy,
    sequential_mission,
    state_rows,
    toy_chain,
)
from hostilemdp import synth
from hostilemdp.envmodel import load_environment, scale_rates
from hostilemdp.mdpbuild import build_mdp, dump_mdp, load_mdp, ranges
from hostilemdp.synth import (
    ConvergenceError,
    extract_policy,
    max_reach_lp,
    max_reach_vi,
    qualitative_reach,
    synthesize_mission,
)


def everything(mdp):
    return np.ones(mdp.n_states, dtype=bool)


def after_sweeps(mdp, target, k):
    """The values after exactly ``k`` sweeps, read from the error of a run held to ``k``."""
    with pytest.raises(ConvergenceError) as err:
        max_reach_vi(mdp, target, everything(mdp), tol=-1.0, max_iter=k)
    assert err.value.iterations == k
    return err.value.values


def model_bytes(mdp):
    """Every array and label mask of ``mdp``, and of its solver view, as (dtype, bytes) pairs."""
    arrays = [mdp.state_ptr, mdp.choice_action, mdp.choice_ptr, mdp.succ, mdp.prob]
    arrays += [mdp.labels[name] for name in sorted(mdp.labels)]
    arrays += [mdp.owner, *mdp.predecessors]
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
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
            free = res.positive & ~target
            got = [after_sweeps(mdp, target, k)[free] for k in range(1, res.iterations + 1)]
            expected = bellman_sweeps(mdp, target, res.positive, res.iterations)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
            if res.iterations:
                assert res.values[free].tobytes() == expected[-1].tobytes()

    def test_budget_error_holds_the_last_sweep(self):
        # odd and even budgets end on either of the two swapped buffers
        for i in range(10):
            mdp, target = random_mdp(np.random.default_rng([3302, i]), max_actions=5)
            res = max_reach_vi(mdp, target, everything(mdp))
            free = res.positive & ~target
            for budget in (1, 2, 3):
                if not free.any():
                    # nothing to iterate: every positive state is a target
                    assert max_reach_vi(mdp, target, everything(mdp), tol=-1.0,
                                        max_iter=budget).iterations == 0
                    continue
                values = after_sweeps(mdp, target, budget)
                expected = bellman_sweeps(mdp, target, res.positive, budget)[-1]
                assert values[free].tobytes() == expected.tobytes()
                assert np.all(values[target] == 1.0)
                assert np.all(values[~res.positive] == 0.0)

    def test_sweeps_are_monotone(self):
        for i in range(5):
            mdp, target = random_mdp(np.random.default_rng([99, i]))
            res = max_reach_vi(mdp, target, everything(mdp), tol=1e-12)
            sweeps = [after_sweeps(mdp, target, k) for k in range(1, res.iterations + 1)]
            for a, b in zip(sweeps, sweeps[1:]):
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
        target = mdp.label("goal")
        plain = plain_sweeps(mdp, target, everything(mdp), 3)
        for budget in (1, 2, 3):
            with pytest.raises(ConvergenceError) as err:
                max_reach_vi(mdp, target, everything(mdp), tol=1e-15, max_iter=budget)
            values, step = plain[budget - 1]
            assert err.value.iterations == budget
            assert err.value.residual.hex() == step.hex() and step > 0.0
            assert bits(err.value.values) == bits(values)

    def test_needs_a_sweep(self):
        mdp, _ = toy_chain()
        target = mdp.label("goal")
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"^max_iter must be at least 1, got {budget}$"):
                max_reach_vi(mdp, target, everything(mdp), max_iter=budget)
            # refused before the mission's labels are looked at: toy_chain has none
            with pytest.raises(ValueError, match=f"^max_iter must be at least 1, got {budget}$"):
                synthesize_mission(mdp, max_iter=budget)

    def test_all_target_needs_no_sweeps(self):
        mdp, _ = toy_chain()
        res = max_reach_vi(mdp, everything(mdp), everything(mdp))
        assert list(res.values) == [1.0] * mdp.n_states
        assert res.iterations == 0


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

    def test_a_zero_probability_entry_is_no_progress(self):
        # "a" lists the goal with probability 0: it ties "go" and comes first, but never
        # gets closer
        mdp = make_mdp(
            {
                0: {"a": [(1, 0.0), (0, 1.0)], "go": [(1, 1.0)]},
                1: {"a": [(1, 1.0)]},
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


def extracted_as_the_reference(mdp, result, target):
    """``extract_policy`` gives the reference's policy bit for bit, or both refuse.

    Returns how many states play a progressing choice that is not their
    first near-maximal one, or -1 where both refuse.
    """
    try:
        want = reference_policy(mdp, result, target)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no progressing action"):
            extract_policy(mdp, result, target)
        return -1
    got = extract_policy(mdp, result, target)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    backups = model_matrix(mdp) @ result.values
    owner = choice_owner(mdp)
    best = np.full(mdp.n_states, -np.inf)
    np.maximum.at(best, owner, backups)
    first = np.flatnonzero(backups >= best[owner] - synth.TIE_TOL)
    first = first[np.diff(owner[first], prepend=-1) != 0]
    return int(np.count_nonzero(~np.isin(got, first)))


def coarse(result, digits):
    """``result`` with its values rounded, so more choices tie within ``TIE_TOL``."""
    return dataclasses.replace(result, values=np.round(result.values, digits))


class TestProgressInsideTheSearch:
    """``extract_policy`` picks each state's progressing choice during its
    backward search; it must pick what a forward progress test over every
    transition after a one-state-at-a-time search picks."""

    def test_tie_within_the_tolerance_that_progresses(self):
        # "b" attains the value 1 but only moves to state 1; "c" falls short by
        # 5e-10 and enters the goal; "d" enters the goal too, but comes later
        mdp = make_mdp({
            0: {"a": [(0, 1.0)], "b": [(1, 1.0)], "c": [(3, 1 - 5e-10), (2, 5e-10)],
                "d": [(3, 1.0)]},
            1: {"go": [(3, 1.0)]}, 2: {"a": [(2, 1.0)]}, 3: {"a": [(3, 1.0)]},
        }, labels={"goal": {3}})
        target = mdp.label("goal")
        for result in (max_reach_vi(mdp, target, everything(mdp), tol=1e-12),
                       max_reach_lp(mdp, target, everything(mdp))):
            assert result.values[0] >= 1.0 - synth.TIE_TOL  # HiGHS stops a little short
            assert extracted_as_the_reference(mdp, result, target) == 1
            actions = policy_actions(mdp, extract_policy(mdp, result, target))
            assert mdp.action_names[actions[0]] == "c"

    @pytest.mark.parametrize("name", ["corridor", "A", "B"])
    def test_bundled_stages(self, corridor_env, case_envs, name):
        mdp = build_mdp(corridor_env if name == "corridor" else case_envs[name])
        strategy = sequential_mission(mdp)
        alive = mdp.label("alive")
        stages = [(strategy.values_second, alive & mdp.label("dropoff"), strategy.sat_deliverable),
                  (strategy.values_first, strategy.switch, None)]
        if name == "corridor":
            lp = sequential_mission(mdp, "lp")
            stages += [(lp.values_second, stages[0][1], lp.sat_deliverable),
                       (lp.values_first, strategy.switch, None)]
        moved = 0
        for values, target, positive in stages:
            if positive is None:
                positive = qualitative_reach(mdp, target, alive)
            result = synth.ValueResult(values, positive, "vi")
            assert extracted_as_the_reference(mdp, result, target) >= 0
            for digits in (1, 2, 3):
                moved += max(0, extracted_as_the_reference(mdp, coarse(result, digits), target))
        # on the city models, rounded values make the first near-maximal choice stall
        assert moved > 0 or name == "corridor"

    def test_random_models(self):
        rng = np.random.default_rng(20261029)
        compared = refused = moved = 0
        for i in range(150):
            mdp, target = random_mdp(rng, max_actions=1 + i % 4)
            for _ in range(int(rng.integers(0, 3))):  # a zero-probability entry
                mdp.prob[rng.integers(mdp.n_transitions())] = 0.0
            # states outside ``allowed`` have value 0 and play nothing
            allowed = rng.random(mdp.n_states) < (1.0 if i % 3 else 0.7)
            results = [max_reach_vi(mdp, target, allowed, tol=1e-12)]
            if i % 2:
                results.append(max_reach_lp(mdp, target, allowed))
            for result in results:
                for found in (result, coarse(result, 1), coarse(result, 3)):
                    got = extracted_as_the_reference(mdp, found, target)
                    compared += 1
                    refused += got < 0
                    moved += max(0, got)
        assert compared >= 500 and refused > 0 and moved > 0

    def test_built_missions(self):
        rng = np.random.default_rng(20261030)
        moved = 0
        for _ in range(12):
            mdp = build_mdp(random_environment(rng))
            alive = mdp.label("alive")
            for target in (alive & mdp.label("dropoff"), alive & mdp.label("pickup")):
                for result in (max_reach_vi(mdp, target, alive), max_reach_lp(mdp, target, alive)):
                    for found in (result, coarse(result, 2)):
                        moved += max(0, extracted_as_the_reference(mdp, found, target))
        assert moved > 0


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
    """The solvers hand the model's own arrays to scipy's kernels and keep its
    owner and predecessor index for the model's life, so a kernel that sorted,
    summed or dropped entries in place would rewrite the model and every
    later solve of it.  Corridor's rows list their successors out of order,
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
        max_reach_vi(mdp, target, everything(mdp))
        extract_policy(mdp, max_reach_lp(mdp, target, everything(mdp)), target)
        assert model_bytes(mdp) == before


def coin(p):
    """One choice that reaches the goal, state 1, with probability ``p`` and the sink otherwise."""
    return make_mdp({0: {"go": [(1, p), (2, 1.0 - p)]}, 1: {"stay": [(1, 1.0)]},
                     2: {"stay": [(2, 1.0)]}}, labels={"goal": [1]})


class TestSolverView:
    """``Mdp.owner`` and ``Mdp.predecessors`` are int64, as the model's own
    arrays are, built once per model and kept; a changed model is a new
    ``Mdp`` with views of its own."""

    def test_the_view_is_int64(self, corridor_env):
        mdp = build_mdp(corridor_env)
        preds = mdp.predecessors
        assert mdp.owner.dtype == preds.ptr.dtype == preds.choice.dtype == np.int64
        assert len(mdp.owner) == mdp.n_choices() and len(preds.ptr) == mdp.n_states + 1

    def test_missions_reuse_the_view(self, corridor_env):
        mdp = build_mdp(corridor_env)
        owner, preds = mdp.owner, mdp.predecessors
        synthesize_mission(mdp, "vi")
        synthesize_mission(mdp, "lp")
        assert mdp.owner is owner and mdp.predecessors is preds

    def test_owner_counts_off_the_state_pointer(self, corridor_env):
        for mdp in (build_mdp(corridor_env), coin(0.5)):
            assert bits(mdp.owner) == bits(choice_owner(mdp).astype(np.int64))

    def test_replaced_probabilities_get_a_fresh_view(self):
        mdp = coin(0.5)
        goal = mdp.label("goal")
        assert max_reach_vi(mdp, goal, everything(mdp)).values[0] == 0.5
        likely = dataclasses.replace(mdp, prob=coin(0.9).prob)
        assert max_reach_vi(likely, goal, everything(likely)).values[0] == 0.9
        assert likely.predecessors is not mdp.predecessors
        never = dataclasses.replace(mdp, prob=coin(0.0).prob)
        assert not qualitative_reach(never, goal, everything(never))[0]
        assert qualitative_reach(mdp, goal, everything(mdp))[0]

    def test_a_loaded_model_gets_a_fresh_view(self, corridor_env, tmp_path):
        mdp = build_mdp(corridor_env)
        expected = mission_fields(synthesize_mission(mdp))
        dump_mdp(mdp, tmp_path / "corridor.mdp.npz")
        loaded = load_mdp(tmp_path / "corridor.mdp.npz")
        assert "owner" not in vars(loaded) and "predecessors" not in vars(loaded)
        assert mission_fields(synthesize_mission(loaded)) == expected
        assert loaded.owner.dtype == loaded.predecessors.choice.dtype == np.int64
        assert not np.shares_memory(loaded.predecessors.choice, mdp.predecessors.choice)
        assert loaded.predecessors is not mdp.predecessors


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

    # caseB's LP mission takes about three times caseA's, on the same code path, and
    # caseA's two LP stages already overlap, so caseB is checked by VI only
    @pytest.mark.parametrize("name, method", [("corridor", "vi"), ("corridor", "lp"),
                                              ("A", "vi"), ("A", "lp"), ("B", "vi")])
    def test_bundled_missions_match_the_sequential_order(self, corridor_env, case_envs, request,
                                                         stray_threads, name, method):
        if (name, method) == ("A", "lp"):
            shared = request.getfixturevalue("case_a_lp")
            assert shared.leaked == 0 and not shared.escaped
            mdp, got = shared.mdp, shared.strategy
        else:
            mdp = build_mdp(corridor_env if name == "corridor" else case_envs[name])
            got = synthesize_mission(mdp, method)
        assert mission_fields(got) == mission_fields(sequential_mission(mdp, method))

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

    def test_the_view_is_built_before_the_worker_starts(self, corridor_env, monkeypatch,
                                                        stray_threads):
        # cached_property takes no lock, so the calling thread alone may build the view
        mdp = build_mdp(corridor_env)
        submit, built = ThreadPoolExecutor.submit, []

        def checked(pool, *args, **kw):
            built.append({"_array_problem", "owner", "predecessors"} <= vars(mdp).keys())
            return submit(pool, *args, **kw)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", checked)
        synthesize_mission(mdp)
        assert built == [True]

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
        solve, finished = synth._highs_ipm, []

        def stub(A_ub, b_ub):
            stage = "deliver" if A_ub.shape[1] == n_deliver else "pickup"
            if stage in failing:
                raise RuntimeError(f"LP solve failed: {stage} stalled")
            # a stage that succeeds is slow, so a failure elsewhere raises first
            time.sleep(0.2)
            res = solve(A_ub, b_ub)
            finished.append(stage)
            return res

        monkeypatch.setattr(synth, "_highs_ipm", stub)
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


def failing_stages(mdp, monkeypatch, fail_solve, slow):
    """Make every policy extraction of ``mdp`` fail and ``fail_solve``'s solve fail too.

    Each error names its stage and step.  ``slow``'s stage waits 0.2 s before
    its solve and its extraction, so the other stage fails first.  Returns the
    list of stages whose extraction runs.
    """
    alive = mdp.label("alive")
    deliver = alive & mdp.label("dropoff")
    solve, extract, extracted = synth.max_reach_vi, synth.extract_policy, []

    def stage_of(target):
        return "deliver" if np.array_equal(target, deliver) else "pickup"

    def solving(mdp, target, allowed, **kw):
        stage = stage_of(target)
        if stage == slow:
            time.sleep(0.2)
        if stage == fail_solve:
            raise ConvergenceError(f"{stage} solve failed", np.zeros(mdp.n_states), 0, 1.0)
        return solve(mdp, target, allowed, **kw)

    def extracting(mdp, result, target):
        stage = stage_of(target)
        extracted.append(stage)
        if stage == slow:
            time.sleep(0.2)
        try:
            return extract(mdp, result, target)
        except RuntimeError as err:
            raise RuntimeError(f"{stage} extraction failed: {err}") from err

    monkeypatch.setattr(synth, "max_reach_vi", solving)
    monkeypatch.setattr(synth, "extract_policy", extracting)
    # no action passes the tie test, so every extraction that runs fails
    monkeypatch.setattr(synth, "TIE_TOL", -1.0)
    return extracted


class TestErrorOrder:
    """Each stage fails on its own thread.  After the join the mission raises the
    first failure in the order deliver solve, pickup solve, pickup extraction,
    deliver extraction, whichever thread failed first."""

    @pytest.mark.parametrize("fail_solve, slow, raised, extracted", [
        # a stage whose solve fails never extracts
        ("deliver", "deliver", "deliver solve", ["pickup"]),
        ("pickup", "pickup", "pickup solve", ["deliver"]),
        (None, "pickup", "pickup extraction", ["deliver", "pickup"]),
    ])
    def test_the_sequential_order_wins(self, corridor_mdp, monkeypatch, stray_threads,
                                       fail_solve, slow, raised, extracted):
        ran = failing_stages(corridor_mdp, monkeypatch, fail_solve, slow)
        with pytest.raises(RuntimeError, match=f"^{raised} failed"):
            synthesize_mission(corridor_mdp)
        assert sorted(ran) == extracted

    def test_a_failed_deliver_extraction_is_raised_after_the_join(self, corridor_mdp, monkeypatch,
                                                                   stray_threads):
        """Only the deliver extraction fails, before the slower pickup stage has extracted;
        the mission waits for that extraction and then raises the deliver error."""
        deliver = corridor_mdp.label("alive") & corridor_mdp.label("dropoff")
        extract, extracted = synth.extract_policy, []

        def extracting(mdp, result, target):
            if np.array_equal(target, deliver):
                raise RuntimeError("deliver extraction failed")
            time.sleep(0.2)
            policy = extract(mdp, result, target)
            extracted.append("pickup")
            return policy

        monkeypatch.setattr(synth, "extract_policy", extracting)
        with pytest.raises(RuntimeError, match="^deliver extraction failed$"):
            synthesize_mission(corridor_mdp)
        assert extracted == ["pickup"]


def bits(a):
    return str(a.dtype), a.tobytes()


class TestStageAssembly:
    """The mission makes two graph passes and each solver assembles its stage on that
    stage's own thread; ``_free_rows`` gives the rows of the sparse selection it replaced,
    each ended by its target mass."""

    @pytest.mark.parametrize("method", ["vi", "lp"])
    def test_two_graph_passes_per_mission(self, corridor_mdp, monkeypatch, method):
        calls = []
        reach = synth.qualitative_reach

        def counted(*args):
            calls.append(args)
            return reach(*args)

        monkeypatch.setattr(synth, "qualitative_reach", counted)
        synthesize_mission(corridor_mdp, method)
        assert len(calls) == 2

    @pytest.mark.parametrize("solver", ["max_reach_vi", "max_reach_lp"])
    def test_a_given_graph_pass_is_not_made_again(self, order_cases, monkeypatch, solver):
        solve, reach = getattr(synth, solver), synth.qualitative_reach
        for name, mdp, target, allowed in order_cases:
            if solver == "max_reach_lp" and name.startswith(("A-", "B-")):
                continue  # a city LP takes seconds and covers no case the corridor lacks
            own = solve(mdp, target, allowed)
            positive = reach(mdp, target, allowed)
            calls = []
            with monkeypatch.context() as patched:
                patched.setattr(synth, "qualitative_reach", lambda *args: calls.append(args))
                given = solve(mdp, target, allowed, positive=positive)
            assert calls == [], name
            assert given.positive is positive, name
            assert bits(given.values) == bits(own.values), name
            assert (given.iterations, given.residual) == (own.iterations, own.residual), name

    @pytest.mark.parametrize("method", ["vi", "lp"])
    def test_each_stage_runs_on_one_thread_of_two(self, case_envs, request, stray_threads,
                                                  method):
        if method == "lp":
            shared = request.getfixturevalue("case_a_lp")
            mdp, steps = shared.mdp, shared.steps
        else:
            mdp = build_mdp(case_envs["A"])
            steps = recorded_mission(mdp, method)[1]
        deliver = mdp.label("alive") & mdp.label("dropoff")
        solver = f"max_reach_{method}"
        assert len(steps) == 2
        for seen in steps.values():
            assert [name for name, _ in seen] == [solver, "_free_rows", "extract_policy"]
            assert len({thread for _, thread in seen}) == 1
        threads = {seen[0][1] for seen in steps.values()}
        assert len(threads) == 2
        # the deliver stage is the calling thread's
        assert steps[deliver.tobytes()][0][1] is threading.current_thread()

    def test_mission_refuses_an_unknown_method(self, corridor_mdp):
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            synthesize_mission(corridor_mdp, "newton")

    @pytest.mark.parametrize("method", ["vi", "lp"])
    def test_solvers_are_called_by_module_attribute(self, corridor_mdp, monkeypatch,
                                                    stray_threads, method):
        # a wrapper set on the module, as the bench tracer sets one, sees both stages
        calls = []

        def recording(name):
            solve = getattr(synth, name)

            def recorded(*args, **kw):
                calls.append((name, threading.current_thread(), kw))
                return solve(*args, **kw)
            return recorded

        for name in ("max_reach_vi", "max_reach_lp"):
            monkeypatch.setattr(synth, name, recording(name))
        synthesize_mission(corridor_mdp, method, tol=1e-11, max_iter=12345)
        assert [name for name, _, _ in calls] == [f"max_reach_{method}"] * 2
        threads = [thread for _, thread, _ in calls]
        assert threading.current_thread() in threads and len(set(threads)) == 2
        if method == "vi":
            assert all((kw["tol"], kw["max_iter"]) == (1e-11, 12345) for _, _, kw in calls)

    @pytest.mark.parametrize("chunk", [1, 3, synth.CHUNK])
    def test_rows_match_the_sparse_selection(self, monkeypatch, chunk):
        monkeypatch.setattr(synth, "CHUNK", chunk)
        rng = np.random.default_rng(20261019)
        # a row that repeats a successor can hold two target entries
        repeated = make_mdp({0: {"a": [(1, 0.25), (2, 0.25), (1, 0.5)], "b": [(0, 1.0)]},
                             1: {"a": [(1, 1.0)]}, 2: {"a": [(0, 0.5), (2, 0.5)]}},
                            labels={"goal": {1}})
        models = [(repeated, repeated.label("goal"))]
        for _ in range(40):
            mdp, goal = random_mdp(rng, max_actions=3)
            if rng.random() < 0.5:  # a zero-probability entry, kept by both selections
                mdp.prob[rng.integers(len(mdp.prob))] = 0.0
            models.append((mdp, goal))
        for mdp, goal in models:
            free = np.flatnonzero(~goal & (rng.random(mdp.n_states) < 0.8))
            choices = rng.permutation(np.flatnonzero(np.isin(choice_owner(mdp), free)))
            picked = model_matrix(mdp)[choices]
            want = picked[:, free]
            mass = picked[:, np.flatnonzero(goal)] @ np.ones(int(goal.sum()))
            # each nonzero mass ends its row, in one more column
            folded = as_csr(synth._free_rows(mdp, goal, free, choices), len(free) + 1)
            at = want.indptr[1:][mass > 0.0]
            assert folded.shape == (len(choices), len(free) + 1)
            assert [bits(a) for a in (folded.data, folded.indices)] == [
                bits(np.insert(want.data, at, mass[mass > 0.0])),
                bits(np.insert(want.indices, at, len(free)))]
            assert np.array_equal(np.diff(folded.indptr), np.diff(want.indptr) + (mass > 0.0))

    def test_lp_inputs_match_the_csr_subtraction(self):
        rng = np.random.default_rng(20261021)
        merged = 0
        for i in range(240):
            mdp, goal = random_mdp(rng, max_actions=3)
            c = int(rng.integers(mdp.n_choices()))
            lo, hi, owner = mdp.choice_ptr[c], mdp.choice_ptr[c + 1], choice_owner(mdp)[c]
            if i % 5 == 1:  # a self-loop, where the row's -1 meets a probability
                mdp.succ[lo] = owner
            elif i % 5 == 2:  # every entry one successor, summed before the -1
                mdp.succ[lo:hi] = mdp.succ[lo]
            elif i % 5 == 3:  # a whole row of self-loops, which may cancel to zero
                mdp.succ[lo:hi] = owner
            elif i % 5 == 4:  # a zero-probability entry, which the subtraction drops
                mdp.prob[lo] = 0.0
            free = np.flatnonzero(~goal & (rng.random(mdp.n_states) < 0.8))
            if not free.size:
                continue
            first, stop = mdp.state_ptr[free], mdp.state_ptr[free + 1]
            picked = model_matrix(mdp)[ranges(first, stop)]
            rows = picked[:, free]
            mass = picked[:, np.flatnonzero(goal)] @ np.ones(int(goal.sum()))
            picker = scipy.sparse.csr_matrix(
                (np.ones(len(mass)), (np.arange(len(mass)), np.repeat(np.arange(len(free)),
                                                                      stop - first))),
                shape=rows.shape)
            want = (rows - picker).tocsc()
            got, b_ub = synth._lp_inputs(mdp, goal, free)
            assert got.shape == want.shape
            assert [bits(a) for a in (got.data, got.indices, got.indptr, b_ub)] == [
                bits(a) for a in (want.data, want.indices, want.indptr, -mass)], i
            merged += want.nnz < rows.nnz + len(mass)
        # entries must be summed or dropped on many models, or this compares little
        assert merged >= 60

def ascending_sweep(mdp, target, free):
    """``_sweep_matrix`` with ``free`` kept in ascending order, slot-major as before sweep order.

    Row ``j * nf + i`` holds free state ``i``'s ``j``-th choice, folded by
    ``_free_rows``, or nothing when the state has fewer choices.
    """
    counts = np.diff(mdp.state_ptr)[free].tolist()
    slots = [(j, s) for j in range(max(counts)) for s, n in zip(free.tolist(), counts)]
    real = np.array([j < n for (j, _), n in zip(slots, counts * max(counts))])
    choices = np.array([mdp.state_ptr[s] + j for j, s in slots], dtype=np.int64)[real]
    ptr, indices, data = synth._free_rows(mdp, target, free, choices)
    sizes = np.zeros(len(slots), dtype=np.int64)
    sizes[real] = np.diff(ptr)
    return free, (np.concatenate(([0], np.cumsum(sizes)), dtype=ptr.dtype), indices, data)


def sweep_order(mdp, free):
    """``free`` sorted by its states' row lengths, slot by slot (0 past the last choice), then by state."""
    def lengths(s):
        return tuple(mdp.choice_ptr[c + 1] - mdp.choice_ptr[c]
                     for c in range(mdp.state_ptr[s], mdp.state_ptr[s + 1]))

    width = max(len(lengths(s)) for s in free)
    return sorted(free.tolist(), key=lambda s: (lengths(s) + (0,) * (width - len(lengths(s))), s))


def order_models(case_envs):
    """(name, model, target, allowed) for both stages of corridor, caseA and caseB,
    and for random models, some with zero entries or repeated successors."""
    for name, env in [("corridor", case_envs["corridor"]), ("A", case_envs["A"]),
                      ("B", case_envs["B"])]:
        mdp = build_mdp(env)
        alive = mdp.label("alive")
        deliver = alive & mdp.label("dropoff")
        switch = alive & mdp.label("pickup") & qualitative_reach(mdp, deliver, alive)
        yield f"{name}-pickup", mdp, switch, alive
        yield f"{name}-deliver", mdp, deliver, alive
    rng = np.random.default_rng(20261020)
    for i in range(48):
        mdp, goal = random_mdp(rng, max_actions=1 + i % 5)
        wide = np.flatnonzero(np.diff(mdp.choice_ptr) > 1)
        if i % 3 == 1 and wide.size:  # a zero-probability entry
            mdp.prob[mdp.choice_ptr[rng.choice(wide)]] = 0.0
        if i % 3 == 2 and wide.size:  # a successor listed twice in one row
            k = mdp.choice_ptr[rng.choice(wide)]
            mdp.succ[k + 1] = mdp.succ[k]
        yield f"random-{i}", mdp, goal, everything(mdp)


@pytest.fixture(scope="module")
def order_cases(corridor_env, case_envs):
    return list(order_models(dict(case_envs, corridor=corridor_env)))


class TestSweepOrder:
    """Value iteration sweeps each stage's free states in row-length order; that
    renumbering must change no value, sweep count, residual or budget error."""

    def test_values_match_the_ascending_layout_bit_for_bit(self, order_cases, monkeypatch):
        reordered = 0
        for name, mdp, target, allowed in order_cases:
            free = np.flatnonzero(qualitative_reach(mdp, target, allowed) & ~target)
            reordered += bool(free.size) and not np.array_equal(
                synth._sweep_matrix(mdp, target, free)[0], free)
            got = max_reach_vi(mdp, target, allowed, tol=1e-12)
            with monkeypatch.context() as patched:
                patched.setattr(synth, "_sweep_matrix", ascending_sweep)
                want = max_reach_vi(mdp, target, allowed, tol=1e-12)
            assert bits(got.values) == bits(want.values), name
            assert (got.iterations, got.residual) == (want.iterations, want.residual), name
            assert np.array_equal(got.positive, want.positive), name
            for budget in sorted({1, 2, 3, max(got.iterations // 2, 1)}):
                if not free.size:
                    break
                errors = []
                for sweep in (synth._sweep_matrix, ascending_sweep):
                    with monkeypatch.context() as patched, pytest.raises(ConvergenceError) as err:
                        patched.setattr(synth, "_sweep_matrix", sweep)
                        max_reach_vi(mdp, target, allowed, tol=-1.0, max_iter=budget)
                    errors.append(err.value)
                assert bits(errors[0].values) == bits(errors[1].values), (name, budget)
                assert errors[0].residual == errors[1].residual, (name, budget)
        # the order must move rows on most models, or this compares nothing
        assert reordered >= 20

    def test_rows_are_grouped_by_length_in_every_slot_block(self, order_cases):
        for name, mdp, target, allowed in order_cases:
            free = np.flatnonzero(qualitative_reach(mdp, target, allowed) & ~target)
            if not free.size:
                continue
            order = synth._sweep_matrix(mdp, target, free)[0]
            assert order.tolist() == sweep_order(mdp, free), name
            assert np.array_equal(np.sort(order), free), name

    def test_a_solve_alone_sweeps_in_the_mission_order(self, case_envs, monkeypatch):
        orders = {}
        assemble = synth._sweep_matrix

        def recorded(*args):
            free, matrix = assemble(*args)
            # the two stages assemble at once, so their orders are kept by target
            orders.setdefault(args[1].tobytes(), []).append(free)
            return free, matrix

        monkeypatch.setattr(synth, "_sweep_matrix", recorded)
        mdp = build_mdp(case_envs["A"])
        alive = mdp.label("alive")
        deliver = alive & mdp.label("dropoff")
        synthesize_mission(mdp)
        max_reach_vi(mdp, deliver, alive)
        assert len(orders) == 2
        mission, alone = orders[deliver.tobytes()]
        assert bits(alone) == bits(mission)
        assert alone.tolist() == sweep_order(mdp, alone)
        assert not np.array_equal(alone, np.sort(alone))


def plain_sweeps(mdp, target, allowed, sweeps):
    """``sweeps`` value-iteration sweeps with ``matrix @ x`` and the full sup-norm step each time.

    Sweeps the stage's own ``_sweep_matrix``; returns one ``(values, step)``
    pair per sweep, the values over all states as ``max_reach_vi`` gives them.
    """
    positive = qualitative_reach(mdp, target, allowed)
    free, arrays = synth._sweep_matrix(mdp, target, np.flatnonzero(positive & ~target))
    nf = len(free)
    matrix = as_csr(arrays, nf + 1)
    x = np.zeros(nf)
    out = []
    for _ in range(sweeps):
        y = matrix @ np.append(x, 1.0)
        new = np.maximum(y.reshape(-1, nf).max(axis=0), x)
        values = np.zeros(mdp.n_states)
        values[target], values[free] = 1.0, new
        out.append((values, float(np.max(new - x))))
        x = new
    return out


def assert_runs_as_the_plain_loop(mdp, target, allowed, tol, max_iter, plain, name=""):
    """``max_reach_vi`` stops, or fails, at the sweep where ``plain`` first steps by at most ``tol``.

    ``plain`` must hold at least ``max_iter`` sweeps or a step of at most ``tol``.
    """
    steps = [step for _, step in plain[:max_iter]]
    stop = next((k for k, step in enumerate(steps, 1) if step <= tol), None)
    if stop is None:
        assert len(steps) == max_iter, name
        with pytest.raises(ConvergenceError) as err:
            max_reach_vi(mdp, target, allowed, tol=tol, max_iter=max_iter)
        got, sweeps = err.value, err.value.iterations
        assert sweeps == max_iter, (name, tol, max_iter)
    else:
        got = max_reach_vi(mdp, target, allowed, tol=tol, max_iter=max_iter)
        sweeps = got.iterations
        assert sweeps == stop, (name, tol, max_iter)
    values, step = plain[sweeps - 1]
    assert got.residual.hex() == step.hex(), (name, tol, max_iter)
    assert bits(got.values) == bits(values), (name, tol, max_iter)


def sweep_cases(order_cases):
    """The bundled stages of ``order_cases`` and 60 fuzzed models that have a free state."""
    rng = np.random.default_rng(20261022)
    models = [case for case in order_cases if not case[0].startswith("random")]
    for i in range(60):
        mdp, goal = random_mdp(rng, max_actions=1 + i % 5)
        models.append((f"random-{i}", mdp, goal, everything(mdp)))
    for name, mdp, target, allowed in models:
        if (qualitative_reach(mdp, target, allowed) & ~target).any():
            yield name, mdp, target, allowed


class TestProbedStop:
    """``max_reach_vi`` looks at one state's step before it computes the sup norm; it
    must stop at the sweep, with the residual and values, of a full check every sweep."""

    def test_stops_where_a_full_check_every_sweep_stops(self, order_cases):
        rng = np.random.default_rng(20261023)
        checked = 0
        for name, mdp, target, allowed in sweep_cases(order_cases):
            plain = plain_sweeps(mdp, target, allowed,
                                 max_reach_vi(mdp, target, allowed, tol=1e-12).iterations)
            # every step and every tolerance between two sorted consecutive ones
            steps = np.unique([step for _, step in plain])
            tols = np.concatenate((steps, (steps[:-1] + steps[1:]) / 2))
            if len(tols) > 12:  # the bundled stages take tens of ms a solve
                tols = rng.choice(tols, size=12, replace=False)
            for tol in tols:
                assert_runs_as_the_plain_loop(mdp, target, allowed, float(tol), 10**6, plain,
                                              name)
            checked += len(tols)
        assert checked >= 300

    def test_budget_errors_match_a_full_check_every_sweep(self, order_cases):
        failed = 0
        for name, mdp, target, allowed in sweep_cases(order_cases):
            plain = plain_sweeps(mdp, target, allowed, 3)
            middle = float(np.median([step for _, step in plain]))
            for tol in (-1.0, 0.0, 1e-15, middle):
                for budget in (1, 2, 3):
                    assert_runs_as_the_plain_loop(mdp, target, allowed, tol, budget, plain,
                                                  name)
                    failed += all(step > tol for _, step in plain[:budget])
        assert failed >= 300

    def test_a_settled_probe_does_not_stop_a_moving_state(self):
        # state 0 takes its value in one sweep; state 1 creeps up by a tenth of what is left
        mdp = make_mdp({0: {"a": [(2, 0.5), (3, 0.5)]}, 1: {"a": [(2, 0.1), (1, 0.9)]},
                        2: {"a": [(2, 1.0)]}, 3: {"a": [(3, 1.0)]}}, labels={"goal": {2}})
        target, allowed = mdp.label("goal"), everything(mdp)
        order, _ = synth._sweep_matrix(mdp, target, np.array([0, 1]))
        assert order.tolist() == [0, 1]  # the probe starts on state 0
        res = max_reach_vi(mdp, target, allowed, tol=1e-6)
        plain = plain_sweeps(mdp, target, allowed, res.iterations)
        assert res.iterations > 100
        assert plain[1][0][0] == plain[0][0][0] == 0.5
        assert_runs_as_the_plain_loop(mdp, target, allowed, 1e-6, 10**6, plain)
        for budget in (1, 2, 3, 50):
            assert_runs_as_the_plain_loop(mdp, target, allowed, 1e-6, budget, plain)


class TestRawMatvec:
    def test_matches_the_sparse_product_bit_for_bit(self, order_cases):
        # max_reach_vi calls scipy's private csr_matvec into a zeroed buffer itself
        from scipy.sparse._sparsetools import csr_matvec

        rng = np.random.default_rng(20261024)
        seen = set()
        for name, mdp, target, allowed in order_cases:
            free = np.flatnonzero(qualitative_reach(mdp, target, allowed) & ~target)
            if not free.size:
                continue
            _, (indptr, indices, data) = synth._sweep_matrix(mdp, target, free)
            # the one narrowing on the solve path: value iteration reads these every sweep
            assert indptr.dtype == indices.dtype == np.int32, name
            matrix = as_csr((indptr, indices, data), len(free) + 1)
            rows, cols = matrix.shape
            for _ in range(3):
                x = np.append(rng.random(cols - 1), 1.0)
                y = np.zeros(rows)
                csr_matvec(rows, cols, indptr, indices, data, x, y)
                assert bits(y) == bits(matrix @ x), name
            seen.add(name.partition("-")[0])
        assert {"corridor", "A", "B", "random"} <= seen

    def test_model_backups_match_the_sparse_product_bit_for_bit(self, order_cases):
        # extract_policy's backups and _free_rows' target masses call csr_matvec on the model
        rng = np.random.default_rng(20261031)
        for name, mdp, target, _ in order_cases:
            for x in (rng.random(mdp.n_states), target.astype(float)):
                assert bits(synth._matvec(mdp, x)) == bits(model_matrix(mdp) @ x), name
        with pytest.raises(ValueError, match=r"^\(2,\) values for 3 states$"):
            synth._matvec(coin(0.5), np.zeros(2))


def with_index(matrix, dtype):
    """A copy of the CSR ``matrix`` whose index arrays have type ``dtype``."""
    out = matrix.copy()
    out.indices, out.indptr = matrix.indices.astype(dtype), matrix.indptr.astype(dtype)
    return out


def kernel_cases(order_cases):
    """(name, matrix, rows, columns) for each stage of ``order_cases``, in int32 and int64.

    ``rows`` repeats some choices and leaves others out; ``columns`` are the
    stage's free states in a shuffled order, as sweep order shuffles them.
    """
    rng = np.random.default_rng(20261025)
    for name, mdp, target, allowed in order_cases:
        free = np.flatnonzero(qualitative_reach(mdp, target, allowed) & ~target)
        if not free.size:
            continue
        rows = rng.integers(mdp.n_choices(), size=mdp.n_choices() + 3)
        columns = rng.permutation(free)
        for dtype in (np.int32, np.int64):
            yield (f"{name}-{np.dtype(dtype)}", with_index(model_matrix(mdp), dtype),
                   rows.astype(dtype), columns.astype(dtype))


def assert_same_csr(indptr, indices, data, want, name):
    """The arrays match ``want``'s: values for the index arrays, bits for the data.

    scipy may narrow the index type of its result, so only values are compared there.
    """
    assert np.array_equal(indptr, want.indptr), name
    assert np.array_equal(indices, want.indices), name
    assert bits(data) == bits(want.data), name


class TestCompiledKernels:
    """``_free_rows`` and ``_backward_levels`` call the scipy kernels behind
    ``matrix[rows]``, ``matrix[:, cols]`` and CSR ``hstack`` directly; each must
    still give those operations' arrays byte for byte."""

    def test_row_index_matches_the_row_selection(self, order_cases):
        from scipy.sparse._sparsetools import csr_row_index

        seen = set()
        for name, matrix, rows, _ in kernel_cases(order_cases):
            want = matrix[rows]
            indptr = np.concatenate(([0], np.cumsum(np.diff(matrix.indptr)[rows])))
            indices, data = np.empty(indptr[-1], dtype=rows.dtype), np.empty(indptr[-1])
            csr_row_index(len(rows), rows, matrix.indptr, matrix.indices, matrix.data, indices,
                          data)
            assert_same_csr(indptr, indices, data, want, name)
            seen.add(name.partition("-")[0])
        assert {"corridor", "A", "B", "random"} <= seen

    def test_column_index_matches_the_column_selection(self, order_cases):
        from scipy.sparse._sparsetools import csr_column_index1, csr_column_index2

        seen = set()
        for name, matrix, _, columns in kernel_cases(order_cases):
            want = matrix[:, columns]
            kind = columns.dtype
            offsets = np.zeros(matrix.shape[1], dtype=kind)
            indptr = np.empty(matrix.shape[0] + 1, dtype=kind)
            csr_column_index1(len(columns), columns, *matrix.shape, matrix.indptr,
                              matrix.indices, offsets, indptr)
            indices, data = np.empty(indptr[-1], dtype=kind), np.empty(indptr[-1])
            csr_column_index2(np.argsort(columns).astype(kind), offsets, matrix.nnz,
                              matrix.indices, matrix.data, indices, data)
            assert_same_csr(indptr, indices, data, want, name)
            seen.add(name.partition("-")[0])
        assert {"corridor", "A", "B", "random"} <= seen

    def test_hstack_matches_the_sparse_hstack(self, order_cases):
        from scipy.sparse._sparsetools import csr_hstack

        rng = np.random.default_rng(20261026)
        seen = set()
        for name, matrix, rows, columns in kernel_cases(order_cases):
            left = with_index(matrix[rows][:, columns], rows.dtype)
            # one more column holding an entry on about half the rows, as a row's target mass
            ended = rng.random(len(rows)) < 0.5
            right = with_index(scipy.sparse.csr_matrix(
                (rng.random(int(ended.sum())), np.zeros(int(ended.sum()), dtype=rows.dtype),
                 np.concatenate(([0], np.cumsum(ended)))), shape=(len(rows), 1)), rows.dtype)
            want = scipy.sparse.hstack([left, right], format="csr")
            kind = left.indices.dtype
            nnz = left.nnz + right.nnz
            indptr, indices, data = (np.empty(len(rows) + 1, dtype=kind),
                                     np.empty(nnz, dtype=kind), np.empty(nnz))
            csr_hstack(2, len(rows), np.array([len(columns), 1], dtype=kind),
                       np.concatenate((left.indptr, right.indptr)),
                       np.concatenate((left.indices, right.indices)),
                       np.concatenate((left.data, right.data)), indptr, indices, data)
            assert_same_csr(indptr, indices, data, want, name)
            seen.add(name.partition("-")[0])
        assert {"corridor", "A", "B", "random"} <= seen


def level_cases(corridor_env, case_envs):
    """(name, model) for corridor, caseA and 60 fuzzed models with zero-probability
    entries, self-loops and repeated successors."""
    yield "corridor", build_mdp(corridor_env)
    yield "A", build_mdp(case_envs["A"])
    rng = np.random.default_rng(20261027)
    for i in range(60):
        mdp, _ = random_mdp(rng, max_actions=1 + i % 5)
        owner = choice_owner(mdp)
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(mdp.n_transitions()))
            change = rng.integers(3)
            if change == 0:  # a zero-probability entry, which no graph pass follows
                mdp.prob[k] = 0.0
            elif change == 1:  # a self-loop
                mdp.succ[k] = owner[np.searchsorted(mdp.choice_ptr, k, side="right") - 1]
            else:  # a successor that the row may list twice
                mdp.succ[k] = mdp.succ[int(rng.integers(mdp.n_transitions()))]
        yield f"random-{i}", mdp


class TestBackwardLevels:
    """``_backward_levels`` gives every state's BFS level and the least choice
    that enters the level below, which ``extract_policy`` plays, not only the
    support that ``qualitative_reach`` keeps."""

    @pytest.mark.parametrize("chunk", [1, 3, synth.CHUNK])
    def test_levels_match_a_one_state_at_a_time_search(self, corridor_env, case_envs,
                                                       monkeypatch, chunk):
        import scipy.sparse._sparsetools as sparsetools

        # ``CHUNK`` bounds only the stage assembly: each level stays one gather at any size
        monkeypatch.setattr(synth, "CHUNK", chunk)
        gathers = []
        gather = sparsetools.csr_row_index

        def counted(*args):
            gathers.append(args[0])
            return gather(*args)

        monkeypatch.setattr(sparsetools, "csr_row_index", counted)
        rng = np.random.default_rng(20261028)
        dropped = chosen = 0
        for name, mdp in level_cases(corridor_env, case_envs):
            preds = mdp.predecessors
            assert preds._fields == ("ptr", "choice"), name
            # the predecessor index lists the positive entries by successor, each in entry order
            entries = np.flatnonzero(mdp.prob > 0.0)
            entries = entries[np.argsort(mdp.succ[entries], kind="stable")]
            assert np.array_equal(preds.choice,
                                  np.searchsorted(mdp.choice_ptr, entries, side="right") - 1), name
            for _ in range(3):
                kept = rng.random(mdp.n_transitions()) < rng.choice([0.5, 0.9, 1.0])
                seeds = np.flatnonzero(rng.random(mdp.n_states) < 0.2)
                if not seeds.size:
                    seeds = np.array([int(rng.integers(mdp.n_states))])
                gathers.clear()
                level, via = synth._backward_levels(mdp, kept[entries], seeds)
                want = oracle_levels(mdp, kept, seeds)
                assert level.dtype == via.dtype == np.int64, name
                assert level.tolist() == want, name
                assert via.tolist() == oracle_via(mdp, kept, want), name
                # one gather per level, the last finding no new state
                assert len(gathers) == max(want) + 1, name
                dropped += not kept[entries].all()
                chosen += int((via > mdp.state_ptr[:-1]).sum())
        assert dropped >= 60
        assert chosen >= 200  # states whose first choice does not enter the level below


def oracle_via(mdp, kept, level):
    """For each state at a level d >= 1, its least choice with a positive entry ``k``,
    ``kept[k]``, into level d - 1; -1 for every other state."""
    via = [-1] * mdp.n_states
    for s in range(mdp.n_states):
        for c in range(mdp.state_ptr[s], mdp.state_ptr[s + 1]):
            entries = range(mdp.choice_ptr[c], mdp.choice_ptr[c + 1])
            if level[s] > 0 and any(mdp.prob[k] > 0.0 and kept[k]
                                    and level[mdp.succ[k]] == level[s] - 1 for k in entries):
                via[s] = c
                break
    return via


def lp_stages(mdp):
    """``(A_ub, b_ub)`` of the mission's deliver and pickup stage LPs that have free states."""
    alive = mdp.label("alive")
    deliver = alive & mdp.label("dropoff")
    switch = alive & mdp.label("pickup") & qualitative_reach(mdp, deliver, alive)
    for target in (deliver, switch):
        free = np.flatnonzero(qualitative_reach(mdp, target, alive) & ~target)
        if free.size:
            yield synth._lp_inputs(mdp, target, free)


#: run in a fresh interpreter: the corridor LP mission, whose two stage threads make the
#: first solve at once while every load of the HiGHS bindings, by any importer, takes
#: 0.2 s more; then ``import scipy.optimize``.  Prints the number of loads, whether both
#: stages entered the solve before the first load ended, whether the import gave the
#: loaded module, and the mission value
_TWO_FIRST_SOLVES = """
import importlib.machinery, json, sys, time
from hostilemdp import synth
from hostilemdp.cli import _resolve_env_path
from hostilemdp.envmodel import load_environment
from hostilemdp.mdpbuild import build_mdp

mdp = build_mdp(load_environment(_resolve_env_path("corridor")))
loaded, entered = [], []
create, solve = importlib.machinery.ExtensionFileLoader.create_module, synth._highs_ipm

def slow(loader, spec):
    if spec.name == synth.HIGHS:
        time.sleep(0.2)
        loaded.append(time.perf_counter())
    return create(loader, spec)

def entering(A_ub, b_ub):
    entered.append(time.perf_counter())
    return solve(A_ub, b_ub)

importlib.machinery.ExtensionFileLoader.create_module, synth._highs_ipm = slow, entering
strategy = synth.synthesize_mission(mdp, "lp")
import scipy.optimize, scipy.optimize._highspy._core as core
print(json.dumps([len(loaded), len(entered) == 2 and max(entered) < loaded[0],
                  core is sys.modules[synth.HIGHS], strategy.value]))
"""


def run_fresh(script, *args):
    """``script`` run with ``args`` in a new interpreter that imports this checkout's package."""
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


#: run in a fresh interpreter, so that a crash fails one case and not the session: the
#: entry point named by ``sys.argv[1]`` on a two-state model whose first successor is
#: 5000000, or for ``prefix_frequency`` on the sound model with a policy that plays
#: choice -2; prints the ValueError it raises
_OUT_OF_RANGE = """
import sys
import numpy as np
from hostilemdp import simrun, synth
from hostilemdp.mdpbuild import Mdp

goal, both = np.array([False, True]), np.array([True, True])
mdp = Mdp(states=None, action_names=["a"], state_ptr=np.array([0, 1, 2]),
          choice_action=np.array([0, 0]), choice_ptr=np.array([0, 2, 3]),
          succ=np.array([1, 0, 1]), prob=np.array([0.5, 0.5, 1.0]), init=0,
          labels={"alive": both, "dropoff": goal})
strategy = synth.MissionStrategy(0.5, np.array([0]), np.array([0]), goal, goal, 1.0 * goal,
                                 1.0 * goal, "vi")
calls = {
    "qualitative_reach": lambda: synth.qualitative_reach(mdp, goal, both),
    "max_reach_vi": lambda: synth.max_reach_vi(mdp, goal, both, positive=both),
    "max_reach_lp": lambda: synth.max_reach_lp(mdp, goal, both, positive=both),
    "extract_policy": lambda: synth.extract_policy(
        mdp, synth.ValueResult(1.0 * goal, both, "vi"), goal),
    "estimate_success": lambda: simrun.estimate_success(mdp, strategy, runs=100),
    "prefix_frequency": lambda: simrun.prefix_frequency(mdp, np.array([-2]), [0, 1], runs=1000),
}
if sys.argv[1] != "prefix_frequency":
    mdp.succ[0] = 5_000_000
try:
    calls[sys.argv[1]]()
except ValueError as exc:
    print(exc)
"""


class TestIndicesOutOfRange:
    """scipy's compiled kernels check no bound, so an index out of range in the model or
    in a policy would read or write outside an array; each entry point refuses it first."""

    @pytest.mark.parametrize("call", ["qualitative_reach", "max_reach_vi", "max_reach_lp",
                                      "extract_policy", "estimate_success", "prefix_frequency"])
    def test_is_a_value_error_not_a_crash(self, call):
        done = run_fresh(_OUT_OF_RANGE, call)
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert done.stdout == ("policy choice -2 outside [0, 2)\n" if call == "prefix_frequency"
                               else "a successor is not one of the 2 states; see validate_mdp\n")


class TestHighsIpm:
    """``_highs_ipm`` calls HiGHS as ``linprog(method="highs-ipm")`` does, without importing
    ``scipy.optimize``, and loads the bindings once."""

    def test_matches_linprog_bit_for_bit(self, corridor_mdp, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import gridenv

        # the test_pins 1100-state grid
        grid = build_mdp(load_environment(gridenv.write_grid(tmp_path / "g.json", 3, 3, 1, 9001)))
        cases = [(f"corridor-{i}", lp) for i, lp in enumerate(lp_stages(corridor_mdp))]
        cases += [(f"grid-{i}", lp) for i, lp in enumerate(lp_stages(grid))]
        for i in range(40):
            mdp, goal = random_mdp(np.random.default_rng([3535, i]), max_actions=3)
            free = np.flatnonzero(qualitative_reach(mdp, goal, np.ones(mdp.n_states, bool)) & ~goal)
            if free.size:
                cases.append((f"random-{i}", synth._lp_inputs(mdp, goal, free)))
        assert len(cases) >= 30
        for name, (A_ub, b_ub) in cases:
            want = scipy.optimize.linprog(c=np.ones(A_ub.shape[1]), A_ub=A_ub, b_ub=b_ub,
                                          bounds=(0.0, 1.0), method="highs-ipm")
            x, iterations = synth._highs_ipm(A_ub, b_ub)
            assert bits(x) == bits(want.x), name
            assert iterations == want.nit, name

    def test_a_solve_that_is_not_optimal_raises(self):
        # x >= 2 cannot hold inside the bounds [0, 1]
        A_ub = scipy.sparse.csc_matrix(np.array([[-1.0]]))
        with pytest.raises(RuntimeError, match="^LP solve failed: Infeasible$"):
            synth._highs_ipm(A_ub, np.array([-2.0]))

    def test_two_first_solves_at_once_load_the_bindings_once(self):
        done = run_fresh(_TWO_FIRST_SOLVES)
        assert done.returncode == 0, done.stderr
        loads, raced, same, value = json.loads(done.stdout.splitlines()[-1])
        assert loads == 1
        assert raced and same
        assert value == pytest.approx(0.9728657289, abs=1e-7)
