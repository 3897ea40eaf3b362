"""Monte Carlo execution: determinism, scoring semantics, trace consistency."""

import numpy as np
import pytest

from conftest import make_mdp, mask_of, policy_actions, policy_of, state_rows, toy_chain
from hostilemdp.mdpbuild import VehicleState
from hostilemdp.simrun import (
    CHUNK,
    LOST,
    OUTCOMES,
    STEP_LIMIT,
    SUCCESS,
    Estimate,
    Trace,
    classify_step,
    estimate_success,
    prefix_frequency,
    simulate_run,
)
from hostilemdp.synth import MissionStrategy, synthesize_mission


def mission_chain():
    """init -> pickup -> dropoff, all deterministic."""
    mdp = make_mdp(
        {
            0: {"m": [(1, 1.0)]},
            1: {"m": [(2, 1.0)]},
            2: {"m": [(2, 1.0)]},
        },
        labels={"alive": {0, 1, 2}, "pickup": {1}, "dropoff": {2}},
    )
    return mdp, synthesize_mission(mdp, tol=1e-12)


def hand_strategy(mdp, first=None, second=None, switch=()):
    """A strategy playing the ``{state: action}`` maps ``first`` and ``second``."""
    n = mdp.n_states
    return MissionStrategy(
        value=0.0,
        first=policy_of(mdp, first or {}),
        second=policy_of(mdp, second or {}),
        switch=mask_of(n, switch),
        sat_deliverable=np.ones(n, dtype=bool),
        values_first=np.zeros(n),
        values_second=np.zeros(n),
        method="vi",
    )


def scalar_run(mdp, strategy, rng, max_steps):
    """Reference mission run: one state at a time, one draw per step."""
    alive = mdp.label("alive")
    dropoff = mdp.label("dropoff")
    first = policy_actions(mdp, strategy.first)
    second = policy_actions(mdp, strategy.second)
    s, states, actions = mdp.init, [mdp.init], []
    satisfied = delivered = None
    while alive[s]:
        if satisfied is None and strategy.switch[s]:
            satisfied = len(actions)
        if satisfied is not None and dropoff[s]:
            delivered = len(actions)
            break
        if len(actions) >= max_steps:
            break
        a = (first if satisfied is None else second)[s]
        row = dict(state_rows(mdp, s))[a]
        u, acc = rng.random(), 0.0
        for t, p in row:
            acc += p
            if u < acc:
                break
        s = t
        states.append(s)
        actions.append(a)
    if satisfied is not None:
        outcome = SUCCESS
    elif not alive[s]:
        outcome = LOST
    else:
        outcome = STEP_LIMIT
    return Trace(states, actions, outcome, satisfied, delivered)


class TestSimulateRun:
    def test_matches_scalar_reference(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        outcomes = set()
        for seed in range(60):
            max_steps = 4 if seed % 3 == 0 else 100_000
            got = simulate_run(corridor_mdp, strat, np.random.default_rng(seed), max_steps)
            want = scalar_run(corridor_mdp, strat, np.random.default_rng(seed), max_steps)
            assert got == want
            outcomes.add(got.outcome)
        assert outcomes == set(OUTCOMES)

    def test_deterministic_chain(self):
        mdp, strat = mission_chain()
        trace = simulate_run(mdp, strat, np.random.default_rng(0))
        assert trace.outcome == SUCCESS
        assert trace.states == [0, 1, 2]
        assert trace.satisfied_step == 1
        assert trace.delivered_step == 2
        assert len(trace) == 2

    def test_success_is_scored_at_switch_entry(self):
        # the second leg dies half the time, but every run reaches the
        # switch state, so the mission estimate must still be exactly one
        mdp = make_mdp(
            {
                0: {"m": [(1, 1.0)]},
                1: {"m": [(2, 0.5), (3, 0.5)]},
                2: {"m": [(2, 1.0)]},
                3: {"m": [(3, 1.0)]},
            },
            labels={"alive": {0, 1, 2}, "pickup": {1}, "dropoff": {2}},
        )
        strat = synthesize_mission(mdp, tol=1e-12)
        assert strat.value == pytest.approx(1.0, abs=1e-12)
        est = estimate_success(mdp, strat, runs=300, master_seed=4)
        assert est.estimate == 1.0
        assert est.lost == 0
        assert 0 < est.delivered < est.runs

    def test_first_stage_hole_is_an_error(self):
        mdp, _ = mission_chain()
        empty = hand_strategy(mdp, switch={1})
        with pytest.raises(RuntimeError, match="first-stage strategy undefined at reached state 0"):
            simulate_run(mdp, empty, np.random.default_rng(0))

    def test_second_stage_hole_is_an_error(self):
        mdp, strat = mission_chain()
        broken = hand_strategy(mdp, first=policy_actions(mdp, strat.first), switch={1})
        with pytest.raises(RuntimeError, match="second-stage strategy undefined at reached state 1"):
            simulate_run(mdp, broken, np.random.default_rng(0))

    def test_step_limit_outcome(self):
        mdp = make_mdp(
            {0: {"m": [(0, 1.0)]}, 1: {"m": [(1, 1.0)]}},
            labels={"alive": {0, 1}, "pickup": {1}, "dropoff": {1}},
        )
        strat = hand_strategy(mdp, first={0: 0}, switch={1})
        trace = simulate_run(mdp, strat, np.random.default_rng(0), max_steps=50)
        assert trace.outcome == STEP_LIMIT
        assert len(trace.actions) == 50
        assert trace.satisfied_step is None

    def test_lost_dropoff_state_delivers_nothing(self):
        # state 2 carries the dropoff label but is a lost state: reaching it
        # from the switch state 1 scores the mission yet delivers nothing,
        # and reaching it straight from 0 is a plain loss
        mdp = make_mdp(
            {
                0: {"m": [(1, 0.5), (2, 0.5)]},
                1: {"m": [(2, 1.0)]},
                2: {"m": [(2, 1.0)]},
            },
            labels={"alive": {0, 1}, "pickup": {1}, "dropoff": {2}},
        )
        strat = hand_strategy(mdp, first={0: 0}, second={1: 0}, switch={1})
        rng = np.random.default_rng(0)
        traces = [simulate_run(mdp, strat, rng) for _ in range(40)]
        assert {t.outcome for t in traces} == {SUCCESS, LOST}
        for trace in traces:
            assert trace.states[-1] == 2
            assert trace.delivered_step is None
        est = estimate_success(mdp, strat, runs=400, master_seed=0)
        assert est.delivered == 0
        assert est.satisfied + est.lost == 400
        assert 0 < est.lost < 400


class TestEstimate:
    def test_value_one_chain(self):
        mdp, strat = mission_chain()
        est = estimate_success(mdp, strat, runs=64, master_seed=1)
        assert est.estimate == 1.0
        assert est.half_width == 0.0
        assert est.interval() == (1.0, 1.0)
        assert est.satisfied == est.delivered == 64
        assert est.lost == est.step_limit == 0

    def test_needs_a_run(self):
        mdp, strat = mission_chain()
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs must be at least 1"):
                estimate_success(mdp, strat, runs=runs)

    def test_same_seed_repeats(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        one = estimate_success(corridor_mdp, strat, runs=400, master_seed=11)
        again = estimate_success(corridor_mdp, strat, runs=400, master_seed=11)
        assert one == again

    def test_traces_change_no_result_across_chunks(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        runs = CHUNK + 37
        seen = []
        traced = estimate_success(corridor_mdp, strat, runs=runs, master_seed=13,
                                  trace_hook=lambda i, t: seen.append((i, t.outcome)))
        plain = estimate_success(corridor_mdp, strat, runs=runs, master_seed=13)
        assert traced == plain
        assert [i for i, _ in seen] == list(range(runs))
        outcomes = [o for _, o in seen]
        assert [outcomes.count(k) for k in OUTCOMES] == [plain.satisfied, plain.lost,
                                                         plain.step_limit]

    def test_matches_synthesized_value(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        est = estimate_success(corridor_mdp, strat, runs=20_000, master_seed=5)
        sigma = est.half_width / 1.96
        assert abs(est.estimate - strat.value) < 3.0 * sigma * 1.05

    def test_outcome_counters_partition_runs(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        est = estimate_success(corridor_mdp, strat, runs=500, master_seed=9)
        assert est.satisfied + est.lost + est.step_limit == est.runs
        assert est.delivered <= est.satisfied
        assert isinstance(est, Estimate)


class TestTraces:
    def test_traces_are_consistent_with_the_model(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        seen = {}
        estimate_success(
            corridor_mdp, strat, runs=200, master_seed=3,
            trace_hook=lambda i, t: seen.__setitem__(i, t),
        )
        assert sorted(seen) == list(range(200))
        alive = corridor_mdp.label("alive")
        for trace in seen.values():
            assert trace.outcome in OUTCOMES
            assert len(trace.states) == len(trace.actions) + 1
            for k, a in enumerate(trace.actions):
                src, dst = trace.states[k], trace.states[k + 1]
                rows = dict(state_rows(corridor_mdp, src))
                assert a in rows
                support = {t for t, p in rows[a] if p > 0}
                assert dst in support
            if trace.outcome == SUCCESS:
                assert trace.satisfied_step is not None
                assert strat.switch[trace.states[trace.satisfied_step]]
            else:
                assert trace.satisfied_step is None
            if trace.outcome == LOST:
                assert not alive[trace.states[-1]]
            if trace.delivered_step is not None:
                assert trace.satisfied_step <= trace.delivered_step
                assert corridor_mdp.label("dropoff")[trace.states[trace.delivered_step]]

    def test_classify_hand_built_states(self):
        mdp, _ = toy_chain()
        assert classify_step(mdp, 0, 1) == "step"

    def test_classify_vehicle_transitions(self, corridor_mdp):
        states = [corridor_mdp.states[i] for i in range(corridor_mdp.n_states)]
        by_key = {}
        for i, s in enumerate(states):
            by_key.setdefault((s.facet, s.region, s.alive), []).append(i)
        checked = set()
        for (facet, region, alive), members in by_key.items():
            if not alive:
                continue
            for i in members:
                a = states[i]
                assert classify_step(corridor_mdp, i, i) == "stay"
                for j in members:
                    b = states[j]
                    if b.count == a.count + 1:
                        assert classify_step(corridor_mdp, i, j) == "adversary-entered"
                        checked.add("entered")
                    elif b.count == a.count - 1:
                        assert classify_step(corridor_mdp, i, j) == "adversary-left"
                        checked.add("left")
            other = next(
                (j for j, s in enumerate(states)
                 if s.alive and (s.facet, s.region) != (facet, region)),
                None,
            )
            if other is not None:
                assert classify_step(corridor_mdp, members[0], other) == "region-change"
                checked.add("move")
        lost = next(i for i, s in enumerate(states) if not s.alive)
        live = next(i for i, s in enumerate(states) if s.alive)
        assert classify_step(corridor_mdp, live, lost) == "lost-absorb"
        assert checked == {"entered", "left", "move"}


class TestPrefixFrequency:
    def test_exact_on_deterministic_chain(self):
        mdp, strat = mission_chain()
        policy = policy_of(mdp, {0: 0, 1: 0})
        assert prefix_frequency(mdp, policy, [0, 1, 2], runs=50, seed=0) == 1.0
        assert prefix_frequency(mdp, policy, [0, 2], runs=50, seed=0) == 0.0
        assert prefix_frequency(mdp, policy, [0], runs=50, seed=0) == 1.0

    def test_needs_a_prefix(self):
        mdp, _ = mission_chain()
        with pytest.raises(ValueError):
            prefix_frequency(mdp, policy_of(mdp, {}), [], runs=10, seed=0)

    def test_needs_a_run(self):
        mdp, policy = toy_chain()
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs must be at least 1"):
                prefix_frequency(mdp, policy, [0, 1], runs=runs, seed=0)

    def test_pinned_prefix_probability(self):
        mdp, policy = toy_chain()
        freq = prefix_frequency(mdp, policy, [0, 1, 1], runs=40_000, seed=3)
        assert freq == pytest.approx(0.1, abs=0.006)
