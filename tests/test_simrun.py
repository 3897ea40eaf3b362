"""Monte Carlo execution: determinism, scoring semantics, trace consistency."""

import csv
import io
import itertools
from typing import NamedTuple, Optional

import numpy as np
import pytest

from conftest import (
    OraclePlan,
    choice_owner,
    classify_step,
    make_mdp,
    mask_of,
    oracle_chunks,
    oracle_lockstep,
    oracle_trace,
    policy_actions,
    policy_of,
    random_environment,
    state_rows,
    toy_chain,
)
from hostilemdp.mdpbuild import VehicleState, build_mdp, dump_mdp, load_mdp
from hostilemdp.simrun import (
    _EVENTS,
    BLOCK,
    CHUNK,
    LOST,
    OUTCOMES,
    STEP_LIMIT,
    SUCCESS,
    Estimate,
    _Plan,
    _blocks,
    _events,
    _lockstep,
    _mission,
    estimate_success,
    prefix_frequency,
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


class Run(NamedTuple):
    """One mission run: its states, the actions between them, and how it ended."""

    states: list
    actions: list
    outcome: str
    satisfied_step: Optional[int]
    delivered_step: Optional[int]


def one_run(mdp, strategy, rng, max_steps=100_000):
    """One mission run of ``_lockstep``, drawing one number from ``rng`` per step."""
    (outcome,), (satisfied,), (delivered,), history = _lockstep(
        mdp, _mission(mdp, strategy), mdp.init, 1, [rng], max_steps, keep=True)
    return Run([mdp.init, *(int(reached[0]) for _, reached, _ in history)],
               [int(played[0]) for *_, played in history], OUTCOMES[outcome],
               None if satisfied < 0 else int(satisfied),
               None if delivered < 0 else int(delivered))


def traced(mdp, strategy, **kw):
    """``estimate_success`` writing a trace, and the trace's rows after its header."""
    out = io.BytesIO()
    est = estimate_success(mdp, strategy, trace=out, **kw)
    rows = list(csv.reader(io.StringIO(out.getvalue().decode(), newline="")))
    assert rows[0] == ["run", "step", "state", "action", "event", "outcome"]
    return est, rows[1:]


def event(mdp, src, dst):
    """The event name the trace writer gives one step."""
    return _EVENTS[_events(mdp, np.array([src]), np.array([dst]))[0]]


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
    return Run(states, actions, outcome, satisfied, delivered)


class TestSimulateRun:
    def test_matches_scalar_reference(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        outcomes = set()
        for seed in range(60):
            max_steps = 4 if seed % 3 == 0 else 100_000
            got = one_run(corridor_mdp, strat, np.random.default_rng(seed), max_steps)
            want = scalar_run(corridor_mdp, strat, np.random.default_rng(seed), max_steps)
            assert got == want
            outcomes.add(got.outcome)
        assert outcomes == set(OUTCOMES)

    def test_deterministic_chain(self):
        mdp, strat = mission_chain()
        run = one_run(mdp, strat, np.random.default_rng(0))
        assert run == Run([0, 1, 2], [0, 0], SUCCESS, 1, 2)

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
            one_run(mdp, empty, np.random.default_rng(0))

    def test_second_stage_hole_is_an_error(self):
        mdp, strat = mission_chain()
        broken = hand_strategy(mdp, first=policy_actions(mdp, strat.first), switch={1})
        with pytest.raises(RuntimeError, match="second-stage strategy undefined at reached state 1"):
            one_run(mdp, broken, np.random.default_rng(0))

    def test_step_limit_outcome(self):
        mdp = make_mdp(
            {0: {"m": [(0, 1.0)]}, 1: {"m": [(1, 1.0)]}},
            labels={"alive": {0, 1}, "pickup": {1}, "dropoff": {1}},
        )
        strat = hand_strategy(mdp, first={0: 0}, switch={1})
        run = one_run(mdp, strat, np.random.default_rng(0), max_steps=50)
        assert run.outcome == STEP_LIMIT
        assert len(run.actions) == 50
        assert run.satisfied_step is None

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
        runs = [one_run(mdp, strat, rng) for _ in range(40)]
        assert {run.outcome for run in runs} == {SUCCESS, LOST}
        for run in runs:
            assert run.states[-1] == 2
            assert run.delivered_step is None
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

    def test_refuses_a_state_outside_the_model(self):
        # numpy would wrap -4 round to state 0 and find no row for state 7
        mdp, policy = toy_chain()
        for prefix in ([-4, 1, 1], [0, 1, 7], [4]):
            with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                prefix_frequency(mdp, policy, prefix, runs=10, seed=0)

    def test_needs_a_run(self):
        mdp, strat = mission_chain()
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs must be at least 1"):
                estimate_success(mdp, strat, runs=runs)

    def test_needs_a_step_limit_of_at_least_zero(self):
        # -1 would stop every run before its first step, as 0 does, instead of failing
        mdp, strat = mission_chain()
        with pytest.raises(ValueError, match="max_steps must be at least 0, got -1"):
            estimate_success(mdp, strat, runs=4, max_steps=-1)
        assert estimate_success(mdp, strat, runs=4, max_steps=0).step_limit == 4

    def test_same_seed_repeats(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        one = estimate_success(corridor_mdp, strat, runs=400, master_seed=11)
        again = estimate_success(corridor_mdp, strat, runs=400, master_seed=11)
        assert one == again

    def test_traces_change_no_result_across_chunks(self, corridor_mdp):
        strat = synthesize_mission(corridor_mdp, tol=1e-12)
        runs = CHUNK + 37
        est, rows = traced(corridor_mdp, strat, runs=runs, master_seed=13)
        plain = estimate_success(corridor_mdp, strat, runs=runs, master_seed=13)
        assert est == plain
        closing = [row for row in rows if not row[3]]
        assert [int(row[0]) for row in closing] == list(range(runs))
        outcomes = [row[5] for row in closing]
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
        _, rows = traced(corridor_mdp, strat, runs=200, master_seed=3)
        runs = {}
        for row in rows:
            runs.setdefault(int(row[0]), []).append(row)
        assert sorted(runs) == list(range(200))
        alive = corridor_mdp.label("alive")
        for run in runs.values():
            assert [int(row[1]) for row in run] == list(range(len(run)))
            assert len({row[5] for row in run}) == 1 and run[0][5] in OUTCOMES
            assert run[-1][3:5] == ["", ""]
            states = [int(row[2]) for row in run]
            assert states[0] == corridor_mdp.init
            for row, src, dst in zip(run, states, states[1:]):
                rows_of = dict(state_rows(corridor_mdp, src))
                a = corridor_mdp.action_names.index(row[3])
                assert a in rows_of
                assert dst in {t for t, p in rows_of[a] if p > 0}
                assert row[4] == classify_step(corridor_mdp, src, dst)
            # a run succeeds the moment it enters a switch state
            assert (run[0][5] == SUCCESS) == bool(strat.switch[states].any())
            if run[0][5] == LOST:
                assert not alive[states[-1]]

    def test_classify_hand_built_states(self):
        mdp, _ = toy_chain()
        assert event(mdp, 0, 1) == "step"
        assert event(mdp, 1, 1) == "step"

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
                assert event(corridor_mdp, i, i) == "stay"
                for j in members:
                    b = states[j]
                    if b.count == a.count + 1:
                        assert event(corridor_mdp, i, j) == "adversary-entered"
                        checked.add("entered")
                    elif b.count == a.count - 1:
                        assert event(corridor_mdp, i, j) == "adversary-left"
                        checked.add("left")
            other = next(
                (j for j, s in enumerate(states)
                 if s.alive and (s.facet, s.region) != (facet, region)),
                None,
            )
            if other is not None:
                assert event(corridor_mdp, members[0], other) == "region-change"
                checked.add("move")
        lost = next(i for i, s in enumerate(states) if not s.alive)
        live = next(i for i, s in enumerate(states) if s.alive)
        assert event(corridor_mdp, live, lost) == "lost-absorb"
        assert checked == {"entered", "left", "move"}
        # every pair of states, against the scalar classifier
        src, dst = np.divmod(np.arange(len(states) ** 2), len(states))
        assert [_EVENTS[e] for e in _events(corridor_mdp, src, dst)] == [
            classify_step(corridor_mdp, i, j) for i, j in zip(src.tolist(), dst.tolist())]


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

    def test_refuses_a_state_outside_the_model(self):
        # numpy would wrap -4 round to state 0 and find no row for state 7
        mdp, policy = toy_chain()
        for prefix in ([-4, 1, 1], [0, 1, 7], [4]):
            with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                prefix_frequency(mdp, policy, prefix, runs=10, seed=0)

    def test_needs_a_run(self):
        mdp, policy = toy_chain()
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs must be at least 1"):
                prefix_frequency(mdp, policy, [0, 1], runs=runs, seed=0)

    def test_pinned_prefix_probability(self):
        mdp, policy = toy_chain()
        freq = prefix_frequency(mdp, policy, [0, 1, 1], runs=40_000, seed=3)
        assert freq == pytest.approx(0.1, abs=0.006)


#: row lengths for the bisection; 129 needs 8 rounds, the last of them a step of 128
LENGTHS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 129)


def bisection_rows():
    """One row of seeded probabilities per length in :data:`LENGTHS`; the 9-row's third is 0."""
    rows = []
    for length in LENGTHS:
        w = np.random.default_rng([26, length, 1]).random(length)
        if length == 9:
            w[2] = 0.0
        rows.append((w / w.sum()).tolist())
    return rows


def walk(row, u):
    """The first successor whose running sum exceeds ``u``, summing left to right; the last
    if none does."""
    acc = 0.0
    for j, p in enumerate(row):
        acc += p
        if u < acc:
            return j
    return len(row) - 1


class TestBisection:
    def test_rows_cover_the_edges(self):
        # sum() adds left to right, as walk does; a draw above a total below 1 takes the last
        # successor, in the 129-row and in shorter ones
        totals = [sum(row) for row in bisection_rows()]
        assert totals[-1] < 1.0 and any(t < 1.0 for t in totals[:-1])

    @pytest.mark.parametrize("widest", LENGTHS)
    def test_first_running_sum_above_the_draw(self, widest):
        # the widest first: a round that steps out of its row reads another row's sums
        rows = [row for row in bisection_rows() if len(row) <= widest][::-1]
        # state i plays row i, whose j-th successor is state j; the rest pad the model
        n = max(LENGTHS)
        mdp = make_mdp({s: {"m": list(enumerate(rows[s])) if s < len(rows) else [(s, 1.0)]}
                        for s in range(n)})
        plan = _Plan.of(mdp, (np.arange(len(rows)),), np.ones(n, dtype=bool),
                        np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        assert plan.depth == (widest - 1).bit_length()
        at, draws = [], []
        for i, row in enumerate(rows):
            # 0, each running sum and its neighbours; above a total that rounded below 1,
            # only the infinite last sum exceeds the draw
            edges = {0.0}
            for total in itertools.accumulate(row):
                edges |= {total, np.nextafter(total, 0.0), np.nextafter(total, 2.0)}
            edges = sorted(u for u in edges if u < 1.0)
            at += [i] * len(edges)
            draws += edges
        # rows of every length side by side, so each round probes short and long rows at once
        order = np.random.default_rng(widest).permutation(len(at))
        at, draws = np.array(at)[order], np.array(draws)[order]
        got = plan.successors(plan.row[0, at], draws)
        assert got.tolist() == [walk(rows[i], u) for i, u in zip(at.tolist(), draws.tolist())]


def joined(parts):
    """One result from ``(first run, lockstep result)`` parts in run order.

    The outcome, satisfied and delivered arrays are concatenated, and the
    histories are merged step by step with run indices made global.
    """
    arrays = [np.concatenate([result[k] for _, result in parts]) for k in range(3)]
    history = []
    for k in range(max(len(result[3]) for _, result in parts)):
        pieces = [(first + h[k][0], h[k][1], h[k][2])
                  for first, (*_, h) in parts if k < len(h)]
        history.append([np.concatenate(column) for column in zip(*pieces)])
    return arrays, history


def block_result(mdp, strategy, runs, seed, max_steps):
    plan = _mission(mdp, strategy)
    return joined([(first, _lockstep(mdp, plan, mdp.init, size, rngs, max_steps, keep=True))
                   for first, size, rngs in _blocks(runs, seed)])


def chunk_result(mdp, strategy, runs, seed, max_steps):
    plan = OraclePlan.of(mdp, (strategy.first, strategy.second), mdp.label("alive"),
                         strategy.switch, mdp.label("dropoff"))
    return joined([(first, oracle_lockstep(mdp, plan, mdp.init, size, rng, max_steps, keep=True))
                   for first, size, rng in oracle_chunks(runs, seed, CHUNK)])


@pytest.fixture(scope="module")
def oracle_models(corridor_mdp, case_envs):
    random_mdp = build_mdp(random_environment(np.random.default_rng([2024, 10])))
    return {name: (mdp, synthesize_mission(mdp, tol=1e-12)) for name, mdp in (
        ("corridor", corridor_mdp), ("caseA", build_mdp(case_envs["A"])), ("random", random_mdp))}


class TestChunkOracle:
    """The block loop against the per-chunk loop it replaced, draw for draw."""

    @pytest.mark.parametrize("model", ["corridor", "caseA", "random"])
    @pytest.mark.parametrize("max_steps", [0, 1, 6, 100_000])
    @pytest.mark.parametrize("runs", [1, CHUNK - 1, CHUNK + 37, BLOCK * CHUNK + 5])
    def test_same_runs_as_the_chunk_loop(self, oracle_models, model, max_steps, runs):
        mdp, strategy = oracle_models[model]
        seed = runs + max_steps
        arrays, history = block_result(mdp, strategy, runs, seed, max_steps)
        want_arrays, want_history = chunk_result(mdp, strategy, runs, seed, max_steps)
        for got, want in zip(arrays, want_arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(history) == len(want_history)
        for got, want in zip(history, want_history):
            for a, b in zip(got, want):
                # the block loop keeps its history as int32, half the per-chunk loop's int64
                assert a.dtype == np.int32 and np.array_equal(a, b)

    def test_models_cover_every_outcome(self, oracle_models):
        for name in ("corridor", "random"):
            mdp, strategy = oracle_models[name]
            (outcome, *_), _ = block_result(mdp, strategy, CHUNK + 37, 1, 6)
            assert set(outcome.tolist()) == {0, 1, 2}, name

    def test_prefix_frequency_matches_the_chunk_loop(self):
        mdp, policy = toy_chain()
        covered = np.zeros(mdp.n_states, dtype=bool)
        covered[choice_owner(mdp)[policy]] = True
        never = np.zeros(mdp.n_states, dtype=bool)
        plan = OraclePlan.of(mdp, (policy,), covered, never, never)
        runs, prefix = BLOCK * CHUNK + 5, [0, 1, 1]
        hits = 0
        for _, size, rng in oracle_chunks(runs, 3, CHUNK):
            *_, history = oracle_lockstep(mdp, plan, prefix[0], size, rng, 2, keep=True)
            matched = np.zeros(size, dtype=np.int64)
            for target, (moved, states, _) in zip(prefix[1:], history):
                matched[moved[states == target]] += 1
            hits += int(np.count_nonzero(matched == 2))
        assert prefix_frequency(mdp, policy, prefix, runs=runs, seed=3) == hits / runs


class TestTraceOracle:
    """The trace writer against the per-row ``csv.writer`` loop it replaced, byte for byte."""

    @pytest.mark.parametrize("model", ["corridor", "caseA", "random"])
    @pytest.mark.parametrize("max_steps", [0, 3, 100_000])
    @pytest.mark.parametrize("runs", [1, CHUNK - 1, CHUNK + 37, BLOCK * CHUNK + 5])
    def test_same_bytes_as_the_row_writer(self, oracle_models, model, max_steps, runs):
        mdp, strategy = oracle_models[model]
        seed = runs + max_steps
        out = io.BytesIO()
        estimate_success(mdp, strategy, runs=runs, master_seed=seed, max_steps=max_steps,
                         trace=out)
        assert out.getvalue() == oracle_trace(mdp, strategy, runs, seed, max_steps, CHUNK)

    def test_a_dump_without_a_state_table_reads_step(self, tmp_path):
        mdp = make_mdp(
            {
                0: {"a": [(0, 0.6), (1, 0.35), (3, 0.05)], "b": [(1, 0.8), (3, 0.2)]},
                1: {"m": [(1, 0.3), (2, 0.6), (3, 0.1)]},
                2: {"m": [(2, 1.0)]},
                3: {"m": [(3, 1.0)]},
            },
            labels={"alive": {0, 1, 2}, "pickup": {1}, "dropoff": {2}},
        )
        dump_mdp(mdp, tmp_path / "m.npz")
        mdp = load_mdp(tmp_path / "m.npz")
        assert mdp.states is None
        strategy = synthesize_mission(mdp, tol=1e-12)
        est, rows = traced(mdp, strategy, runs=CHUNK + 37, master_seed=5, max_steps=4)
        assert est.satisfied and est.lost and est.step_limit
        assert {row[4] for row in rows} == {"step", ""}
        out = io.BytesIO()
        estimate_success(mdp, strategy, runs=CHUNK + 37, master_seed=5, max_steps=4, trace=out)
        assert out.getvalue() == oracle_trace(mdp, strategy, CHUNK + 37, 5, 4, CHUNK)


class TestErrorOrder:
    def test_earliest_step_and_lowest_run_of_the_block(self):
        # states 1 and 2 are holes one step out, and state 4 a hole two steps
        # out; a run reaches 1 or 2 with probability 2 q each, so whether a
        # chunk's runs reach them depends on its draws
        q = 1.0 / (2 * CHUNK)
        mdp = make_mdp(
            {
                0: {"m": [(1, q), (2, q), (3, 1.0 - 2 * q)]},
                1: {"m": [(1, 1.0)]},
                2: {"m": [(2, 1.0)]},
                3: {"m": [(4, 1.0)]},
                4: {"m": [(4, 1.0)]},
            },
            labels={"alive": {0, 1, 2, 3, 4}, "pickup": set(), "dropoff": set()},
        )
        strategy = hand_strategy(mdp, first={0: 0, 3: 0})

        def first_draws(seed, c):
            return np.random.default_rng(np.random.SeedSequence([seed, c])).random(CHUNK)

        # a seed whose chunk 0 reaches only the late hole while chunk 1 reaches
        # an early one, more than once
        seed = next(s for s in range(1000)
                    if not (first_draws(s, 0) < 2 * q).any()
                    and np.count_nonzero(first_draws(s, 1) < 2 * q) > 1)
        draws = first_draws(seed, 1)
        early = draws[np.flatnonzero(draws < 2 * q)[0]]
        state = 1 if early < q else 2
        with pytest.raises(RuntimeError,
                           match=f"^first-stage strategy undefined at reached state {state}$"):
            estimate_success(mdp, strategy, runs=2 * CHUNK, master_seed=seed)
        # the chunk loop stopped in chunk 0, at the later hole
        with pytest.raises(RuntimeError, match="reached state 4$"):
            chunk_result(mdp, strategy, 2 * CHUNK, seed, 100)
