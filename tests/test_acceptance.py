"""End-to-end acceptance checks, one test per shipped guarantee.

Every test appends exactly one verdict line to ``REPORT`` before asserting,
and a conftest hook echoes the collected lines in the terminal summary, so
each criterion's pass/fail status and measured tolerance stay visible even
with output capture on.
"""

import json
import os
import shutil
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    bundled_doc,
    estimated_rate,
    oracle_max_reach,
    policy_actions,
    random_environment,
    random_mdp,
    state_rows,
    toy_chain,
    transitions,
)
from test_mdpbuild import star_doc
from hostilemdp.belief import AdversaryBelief, enumerate_reachable, update_entered, update_left
from hostilemdp.envmodel import parse_environment, scale_rates
from hostilemdp.mdpbuild import LEFT, MdpBuilder, VehicleState, build_mdp, export_prism
from hostilemdp.simrun import estimate_success, prefix_frequency
from hostilemdp.synth import max_reach_lp, max_reach_vi, qualitative_reach, synthesize_mission

F = Fraction

REPORT: list[str] = []


def record(number: int, ok: bool, detail: str) -> None:
    REPORT.append(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def built_cases(case_envs):
    """Both bundled city variants, built and solved once, with timings."""
    out = {}
    for key, env in case_envs.items():
        t0 = time.perf_counter()
        mdp = build_mdp(env)
        built = time.perf_counter() - t0
        t0 = time.perf_counter()
        strategy = synthesize_mission(mdp)
        solved = time.perf_counter() - t0
        out[key] = (mdp, strategy, built, solved)
    return out


def test_criterion_1_rows_sum_and_lost_absorb():
    rng = np.random.default_rng(20260801)
    t0 = time.perf_counter()
    worst = 0.0
    absorbing = True
    for _ in range(100):
        env = random_environment(rng)
        mdp = build_mdp(env)
        for s in range(mdp.n_states):
            rows = [row for _, row in state_rows(mdp, s)]
            for row in rows:
                worst = max(worst, abs(sum(p for _, p in row) - 1.0))
            if not mdp.states.alive[s] and rows != [[(s, 1.0)]]:
                absorbing = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and absorbing and elapsed < 60
    record(1, ok,
           f"100 fuzzed environments (<= 5 regions, windows <= 4): "
           f"max |row sum - 1| = {worst:.1e} (tol 1e-9), "
           f"lost states absorbing: {absorbing}, {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-9
    assert absorbing
    assert elapsed < 60


def test_criterion_2_belief_closures_are_exact():
    rng = np.random.default_rng(20260802)
    deepest = 0
    for _ in range(200):
        floor = int(rng.integers(0, 4))
        ceil = floor + int(rng.integers(0, 6))
        start = int(rng.integers(floor, ceil + 1))
        end = int(rng.integers(start, ceil + 1))
        weights = [int(rng.integers(0, 10)) for _ in range(start, end + 1)]
        weights[0] = max(1, weights[0])
        weights[-1] = max(1, weights[-1])
        total = sum(weights)
        root = AdversaryBelief(floor, ceil, start,
                               tuple(F(w, total) for w in weights))
        bset = enumerate_reachable(root)
        root_width = end - start
        widths = []
        for i, member in enumerate(bset.members):
            assert sum(member.probs) == 1  # exact rational mass
            assert floor <= member.start <= member.end <= ceil
            assert member.probs[0] != 0 and member.probs[-1] != 0
            width = member.end - member.start
            widths.append(width)
            # instrumentation: an update step either keeps the support
            # window (pure shift) or shrinks it by exactly one
            for kind, child in bset.edges[i].items():
                child_width = bset.members[child].end - bset.members[child].start
                assert child_width in (width, width - 1)
        redistributions = root_width - min(widths)
        assert redistributions <= ceil - floor
        assert bset.max_redistributions <= ceil - floor
        deepest = max(deepest, redistributions)

    root = AdversaryBelief(2, 6, 2, (F(2, 10), F(1, 10), F(3, 10), F(0), F(4, 10)))
    children_exact = (
        update_entered(root) == AdversaryBelief(2, 6, 3, (F(3, 10), F(2, 10), F(4, 10), F(1, 10)))
        and update_left(root) == AdversaryBelief(2, 6, 2, (F(3, 20), F(7, 20), F(1, 20), F(9, 20)))
    )
    record(2, children_exact,
           f"200 fuzzed closures (window width <= 5): all members exact unit "
           f"mass, enumeration terminated, at most width redistributions on "
           f"any path (deepest seen: {deepest}); reference root children "
           f"exact (rational equality): {children_exact}")
    assert children_exact


def test_criterion_3_fragment_rate_and_entry_probability():
    env = parse_environment(star_doc(), name="fragment")
    builder = MdpBuilder(env)
    prim = env.primitives_from("f2", "r4")[0]
    state = VehicleState("f2", "r4", 2, 0, True, (0, 0, 0))
    nu = estimated_rate(builder, state, prim)
    row = dict(transitions(builder, state, prim))
    child = builder.belief_sets["r1"].edges[0].get(LEFT)
    p = row[state._replace(count=3, beliefs=(child, 0, 0))]
    ok = abs(nu - 3.38) <= 1e-9 and abs(p - 0.68 * 0.26) <= 0.005
    record(3, ok,
           f"four-region fragment at count 2: total rate {nu:.10f} "
           f"(target 3.38, tol 1e-9); entry-from-first-neighbour "
           f"p = {p:.6f} (target 0.68 x 0.26 = 0.1768, tol 0.005)")
    assert nu == pytest.approx(3.38, abs=1e-9)
    assert abs(p - 0.68 * 0.26) <= 0.005


def test_criterion_4_solvers_match_policy_enumeration():
    worst_vi = worst_lp = 0.0
    support_exact = True
    for i in range(50):
        mdp, target = random_mdp(np.random.default_rng([20260816, i]))
        allowed = np.ones(mdp.n_states, dtype=bool)
        vi = max_reach_vi(mdp, target, allowed, tol=1e-12)
        lp = max_reach_lp(mdp, target, allowed)
        oracle_values, oracle_support = oracle_max_reach(mdp, target)
        worst_vi = max(worst_vi, float(np.max(np.abs(vi.values - oracle_values))))
        worst_lp = max(worst_lp, float(np.max(np.abs(lp.values - oracle_values))))
        if not np.array_equal(qualitative_reach(mdp, target, allowed), oracle_support):
            support_exact = False
    ok = worst_vi < 1e-9 and worst_lp < 1e-9 and support_exact
    record(4, ok,
           f"50 random models (<= 6 states, <= 2 actions): "
           f"max |VI - enumeration| = {worst_vi:.1e}, "
           f"max |LP - enumeration| = {worst_lp:.1e} (tol 1e-9); "
           f"qualitative support exact: {support_exact}")
    assert worst_vi < 1e-9
    assert worst_lp < 1e-9
    assert support_exact


def test_criterion_5_prefix_measure():
    mdp, policy = toy_chain()
    t0 = time.perf_counter()
    freq = prefix_frequency(mdp, policy, [0, 1, 1], runs=10**6, seed=20260805)
    elapsed = time.perf_counter() - t0
    ok = abs(freq - 0.1) <= 0.001 and elapsed < 60
    record(5, ok,
           f"prefix s0 s1 s1 over 1e6 runs: frequency {freq:.6f} "
           f"in 0.1 +/- 0.001, {elapsed:.1f}s (< 60s)")
    assert abs(freq - 0.1) <= 0.001
    assert elapsed < 60


def test_criterion_6_estimator_matches_value(built_cases):
    details = []
    ok = True
    for key in ("A", "B"):
        mdp, strategy, _, _ = built_cases[key]
        est = estimate_success(mdp, strategy, runs=100_000, master_seed=60)
        sigma = est.half_width / 1.96
        deviation = abs(est.estimate - strategy.value)
        good = deviation <= 3.0 * sigma
        ok = ok and good
        details.append(
            f"case {key}: |{est.estimate:.4f} - {strategy.value:.4f}| "
            f"= {deviation:.2e} <= 3 sigma = {3.0 * sigma:.2e}: {good}"
        )
    record(6, ok, "1e5 runs each; " + "; ".join(details))
    assert ok


def test_criterion_7_case_separation(built_cases):
    mdp_a, strat_a, built_a, solved_a = built_cases["A"]
    _, strat_b, built_b, solved_b = built_cases["B"]
    gap = strat_b.value - strat_a.value
    notes = " ".join(str(n) for n in bundled_doc("city_caseA").get("notes", []))
    documented = "obstacle loss marginal" in notes
    ok = (
        gap >= 0.3
        and documented
        and built_a + solved_a < 300
        and built_b + solved_b < 300
    )
    record(7, ok,
           f"case A value {strat_a.value:.4f} < case B value {strat_b.value:.4f}, "
           f"gap {gap:.3f} (>= 0.3); states {mdp_a.n_states} (comparison figure: "
           f"1079); loss-marginal assumption documented in the bundled file: "
           f"{documented}; build+solve {built_a + solved_a:.1f}s / "
           f"{built_b + solved_b:.1f}s (< 300s each)")
    assert gap >= 0.3
    assert documented
    assert built_a + solved_a < 300
    assert built_b + solved_b < 300


def _find_prism():
    exe = shutil.which("prism")
    if exe:
        return exe
    home = os.environ.get("PRISM_HOME")
    if home:
        candidate = Path(home) / "bin" / "prism"
        if candidate.exists():
            return str(candidate)
    return None


def test_criterion_8_external_model_checker(built_cases, tmp_path):
    exe = _find_prism()
    if exe is None:
        REPORT.append(
            "criterion 8: SKIP (no 'prism' on PATH and PRISM_HOME unset; "
            "export format itself is covered by criterion 9)"
        )
        pytest.skip("external model checker not available")
    mdp, strategy, _, _ = built_cases["A"]
    sta, tra, lab = export_prism(mdp, tmp_path / "caseA")
    query = 'Pmax=? [ "alive" U ("alive" & "rp" & P>0 [ "alive" U ("alive" & "rd") ]) ]'
    result = subprocess.run(
        [exe, "-importtrans", str(tra), "-importstates", str(sta),
         "-importlabels", str(lab), "-mdp", "-pf", query],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    line = next(l for l in result.stdout.splitlines() if l.startswith("Result:"))
    external = float(line.split()[1])
    deviation = abs(external - strategy.value)
    ok = deviation <= 1e-6
    record(8, ok,
           f"external checker value {external:.10f} vs synthesized "
           f"{strategy.value:.10f}, |diff| = {deviation:.1e} (tol 1e-6)")
    assert deviation <= 1e-6


def _named(mdp, policy) -> dict[str, str]:
    return {str(s): mdp.action_names[a] for s, a in sorted(policy_actions(mdp, policy).items())}


def _policy_bytes(mdp, strategy) -> bytes:
    payload = {
        "first": _named(mdp, strategy.first),
        "second": _named(mdp, strategy.second),
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_criterion_9_rate_scale_invariance(case_envs, built_cases, tmp_path):
    mdp, strategy, _, _ = built_cases["A"]
    doubled_mdp = build_mdp(scale_rates(case_envs["A"], 2.0))
    base_files = export_prism(mdp, tmp_path / "base" / "m")
    doubled_files = export_prism(doubled_mdp, tmp_path / "doubled" / "m")
    identical = all(a.read_bytes() == b.read_bytes()
                    for a, b in zip(base_files, doubled_files))
    doubled_strategy = synthesize_mission(doubled_mdp)
    same_policy = _policy_bytes(mdp, strategy) == _policy_bytes(doubled_mdp, doubled_strategy)
    ok = identical and same_policy
    record(9, ok,
           f"all rates x2: exported .sta/.tra/.lab byte-identical: {identical}; "
           f"serialized policy byte-identical: {same_policy}")
    assert identical
    assert same_policy
