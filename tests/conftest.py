"""Shared fixtures, generators, and independent oracles.

The oracles here re-derive results with machinery deliberately different
from the package: reachability by exhaustive memoryless-policy enumeration
over dense linear solves, belief updates with plain Fraction dicts.  Tests
compare production code against these, never against itself.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from hostilemdp.envmodel import Environment, parse_environment
from hostilemdp.mdpbuild import Mdp, build_mdp
from hostilemdp.synth import MissionStrategy, extract_policy, predecessors, solve_reachability

# ---------------------------------------------------------------------------
# hand-built MDPs


def make_mdp(table, init=0, labels=None) -> Mdp:
    """Build an Mdp from ``{state: {action_name: [(succ, prob), ...]}}``.

    Global action indices follow sorted action-name order so tests can
    predict tie-breaking; states are 0..n-1 and have no state table.
    """
    n = len(table)
    names = sorted({a for acts in table.values() for a in acts})
    name_idx = {a: i for i, a in enumerate(names)}
    state_ptr, choice_action, choice_ptr, succ, prob = [0], [], [0], [], []
    for s in range(n):
        for a, row in sorted((name_idx[a], row) for a, row in table[s].items()):
            choice_action.append(a)
            succ.extend(int(t) for t, _ in row)
            prob.extend(float(p) for _, p in row)
            choice_ptr.append(len(succ))
        state_ptr.append(len(choice_action))
    return Mdp(
        states=None,
        action_names=names,
        state_ptr=np.array(state_ptr, dtype=np.int64),
        choice_action=np.array(choice_action, dtype=np.int64),
        choice_ptr=np.array(choice_ptr, dtype=np.int64),
        succ=np.array(succ, dtype=np.int64),
        prob=np.array(prob, dtype=np.float64),
        init=init,
        labels={k: mask_of(n, v) for k, v in (labels or {}).items()},
    )


def mask_of(n: int, states) -> np.ndarray:
    """Bool mask over ``n`` states, true on ``states``."""
    out = np.zeros(n, dtype=bool)
    out[list(states)] = True
    return out


def members(mask: np.ndarray) -> frozenset[int]:
    """The states a bool mask is true on."""
    return frozenset(np.flatnonzero(mask).tolist())


def policy_of(mdp: Mdp, actions: dict[int, int]) -> np.ndarray:
    """The policy playing ``actions[s]`` at each listed state, as ascending choice indices."""
    chosen = [int(mdp.state_ptr[s]) + [a for a, _ in state_rows(mdp, s)].index(actions[s])
              for s in sorted(actions)]
    return np.array(chosen, dtype=np.int64)


def policy_actions(mdp: Mdp, policy: np.ndarray) -> dict[int, int]:
    """``{state: action}`` of a policy given as choice indices."""
    owner = np.repeat(np.arange(mdp.n_states), np.diff(mdp.state_ptr))
    states = owner[policy].tolist()
    assert len(set(states)) == len(states), "policy plays two choices at one state"
    return dict(zip(states, mdp.choice_action[policy].tolist()))


def state_rows(mdp: Mdp, s: int) -> list[tuple[int, list[tuple[int, float]]]]:
    """Each choice of state ``s`` as ``(action, [(succ, prob), ...])``, read off the arrays."""
    out = []
    for c in range(mdp.state_ptr[s], mdp.state_ptr[s + 1]):
        lo, hi = mdp.choice_ptr[c], mdp.choice_ptr[c + 1]
        row = list(zip(mdp.succ[lo:hi].tolist(), mdp.prob[lo:hi].tolist()))
        out.append((int(mdp.choice_action[c]), row))
    return out


def toy_chain() -> tuple[Mdp, np.ndarray]:
    """Four-state chain whose pinned policy gives Pr(s0 s1 s1) = 0.5 * 0.2 = 0.1."""
    mdp = make_mdp({
        0: {"a1": [(1, 0.5), (2, 0.5)]},
        1: {"a1": [(0, 1.0)], "a2": [(1, 0.2), (2, 0.3), (3, 0.5)]},
        2: {"stay": [(2, 1.0)]},
        3: {"stay": [(3, 1.0)]},
    }, labels={"goal": {3}})
    policy = policy_of(mdp, {0: mdp.action_names.index("a1"), 1: mdp.action_names.index("a2")})
    return mdp, policy


# ---------------------------------------------------------------------------
# brute-force reachability oracle


def chain_reach(mdp: Mdp, pick: tuple[int, ...], target: frozenset, allowed: frozenset):
    """Reach probability of one fixed policy's chain, plus its positive set.

    ``pick[s]`` indexes into the choices of state ``s``.  States that cannot reach
    the target through allowed states under this chain get exactly zero;
    the rest come from a dense linear solve.
    """
    n = mdp.n_states
    rows = [state_rows(mdp, s)[pick[s]][1] for s in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        if s in target or s not in allowed:
            continue
        for t, p in rows[s]:
            if p > 0:
                rev[t].append(s)
    hot = set(target)
    stack = list(target)
    while stack:
        for s in rev[stack.pop()]:
            if s not in hot:
                hot.add(s)
                stack.append(s)
    free = sorted(hot - target)
    values = np.zeros(n)
    values[list(target)] = 1.0
    if free:
        idx = {s: i for i, s in enumerate(free)}
        a = np.eye(len(free))
        b = np.zeros(len(free))
        for s in free:
            for t, p in rows[s]:
                if t in target:
                    b[idx[s]] += p
                elif t in idx:
                    a[idx[s], idx[t]] -= p
        values[free] = np.linalg.solve(a, b)
    return values, hot


def oracle_max_reach(mdp: Mdp, target: np.ndarray, allowed: np.ndarray | None = None):
    """Max reach values and positive support (a bool mask) by policy enumeration.

    ``target`` and ``allowed`` are bool masks.  The support set is purely
    graph-derived (union of per-chain reachable sets), so the comparison
    with qualitative analysis is exact.
    """
    target = members(target)
    allowed = frozenset(range(mdp.n_states)) if allowed is None else members(allowed)
    best = np.zeros(mdp.n_states)
    support: set[int] = set()
    for pick in itertools.product(*(range(k) for k in np.diff(mdp.state_ptr).tolist())):
        values, hot = chain_reach(mdp, pick, target, allowed)
        np.maximum(best, values, out=best)
        support |= hot
    return best, mask_of(mdp.n_states, support)


def random_mdp(rng: np.random.Generator, max_actions: int = 2) -> tuple[Mdp, np.ndarray]:
    """Small random MDP (2..6 states, 1..``max_actions`` actions) with exact-sum rows."""
    n = int(rng.integers(2, 7))
    table = {}
    for s in range(n):
        acts = {}
        for a in range(int(rng.integers(1, max_actions + 1))):
            k = int(rng.integers(1, min(3, n) + 1))
            succs = rng.choice(n, size=k, replace=False)
            weights = rng.integers(1, 6, size=k)
            total = int(weights.sum())
            acts[f"a{a}"] = [(int(t), int(w) / total) for t, w in zip(succs, weights)]
        table[s] = acts
    k = int(rng.integers(1, 3))
    target = [int(x) for x in rng.choice(n, size=k, replace=False)]
    mdp = make_mdp(table, labels={"goal": target})
    return mdp, mdp.label("goal")


# ---------------------------------------------------------------------------
# sequential mission oracle


def sequential_mission(mdp: Mdp, method: str = "vi", **kw) -> MissionStrategy:
    """The mission solved one stage after the other on the calling thread.

    The order is deliver solve, pickup solve, then the first-stage and the
    second-stage policy, with the switch set taken from the deliver solve's
    positive set, so any difference from ``synthesize_mission`` comes from
    running the stages at once.
    """
    alive = mdp.label("alive")
    deliver = alive & mdp.label("dropoff")
    preds = predecessors(mdp)
    second = solve_reachability(mdp, deliver, alive, method=method, preds=preds, **kw)
    switch = alive & mdp.label("pickup") & second.positive
    first = solve_reachability(mdp, switch, alive, method=method, preds=preds, **kw)
    first_policy = extract_policy(mdp, first, switch, preds=preds)
    second_policy = extract_policy(mdp, second, deliver, preds=preds)
    return MissionStrategy(
        value=float(first.values[mdp.init]),
        first=first_policy,
        second=second_policy,
        switch=switch,
        sat_deliverable=second.positive,
        values_first=first.values,
        values_second=second.values,
        method=method,
    )


# ---------------------------------------------------------------------------
# belief oracle: plain nonzero Fraction dicts


def belief_as_dict(belief) -> dict[int, Fraction]:
    return dict(belief.items())


def shift_oracle(pmf: dict[int, Fraction], floor: int, ceil: int, delta: int):
    """Shift a count pmf by +-1 inside hard bounds, exactly.

    Mass pushed past a bound is spread evenly over every point of the
    shifted window (interior zeros included), which is the conditioning
    rule the belief module implements.
    """
    lo, hi = min(pmf), max(pmf)
    if delta > 0 and (lo, hi) == (ceil, ceil):
        raise ValueError("pinned at ceiling")
    if delta < 0 and (lo, hi) == (floor, floor):
        raise ValueError("pinned at floor")
    moved = {n + delta: p for n, p in pmf.items()}
    spill = sum((p for n, p in moved.items() if not floor <= n <= ceil), Fraction(0))
    kept = {n: p for n, p in moved.items() if floor <= n <= ceil}
    span = range(max(floor, lo + delta), min(ceil, hi + delta) + 1)
    if spill:
        share = spill / len(span)
        kept = {n: kept.get(n, Fraction(0)) + share for n in span}
    return {n: p for n, p in kept.items() if p}


def closure_oracle(pmf: dict[int, Fraction], floor: int, ceil: int):
    """Every pmf reachable by repeated shifts, as a set of canonical keys."""
    def key(d):
        return tuple(sorted(d.items()))

    seen = {key(pmf)}
    frontier = [pmf]
    while frontier:
        cur = frontier.pop()
        for delta in (1, -1):
            try:
                child = shift_oracle(cur, floor, ceil, delta)
            except ValueError:
                continue
            k = key(child)
            if k not in seen:
                seen.add(k)
                frontier.append(child)
    return seen


# ---------------------------------------------------------------------------
# random valid environments


def random_environment(rng: np.random.Generator, max_regions: int = 5) -> Environment:
    """A random well-formed environment document, parsed and validated.

    Connected facet graph over <= ``max_regions`` regions, adversary counts
    capped at 4, exact rational pmfs, a clean initial region.
    """
    n = int(rng.integers(1, max_regions + 1))
    rids = [f"g{i}" for i in range(n)]

    def rational_pmf(values) -> dict[str, str]:
        weights = rng.integers(0, 4, size=len(values))
        if not weights.sum():
            weights[int(rng.integers(len(values)))] = 1
        total = int(weights.sum())
        return {
            str(v): str(Fraction(int(w), total))
            for v, w in zip(values, weights) if w
        }

    regions = []
    for i, rid in enumerate(rids):
        if i == 0:
            lo, hi = 0, int(rng.integers(0, 3))
            max_level = 0
            p_init = {"0": "1"}
            p_obs = {"0": "1"}
        else:
            lo = int(rng.integers(0, 3))
            hi = min(4, lo + int(rng.integers(0, 3)))
            max_level = int(rng.integers(0, 4))
            p_init = rational_pmf(range(lo, hi + 1))
            p_obs = rational_pmf(range(max_level + 1))
        labels = []
        if i == n - 1:
            labels.append("pickup")
        if i == max(0, n - 2):
            labels.append("dropoff")
        regions.append({
            "id": rid,
            "adversaries": {"min": lo, "max": hi, "p_init": p_init},
            "obstacles": {"max_level": max_level, "p_obs": p_obs},
            "mu_enter": round(float(rng.uniform(0.01, 0.5)), 3),
            "mu_leave": round(float(rng.uniform(0.01, 0.5)), 3),
            **({"labels": labels} if labels else {}),
        })

    facets = [{"id": "f0", "regions": [rids[0]]}]
    for i in range(1, n):
        other = rids[int(rng.integers(0, i))]
        facets.append({"id": f"f{i}", "regions": [other, rids[i]]})
    if n >= 2:
        for j in range(int(rng.integers(0, 3))):
            a, b = rng.choice(n, size=2, replace=False)
            facets.append({"id": f"x{j}", "regions": [rids[int(a)], rids[int(b)]]})
    else:
        facets.append({"id": "f1", "regions": [rids[0]]})

    by_region: dict[str, list[str]] = {rid: [] for rid in rids}
    for f in facets:
        for rid in f["regions"]:
            by_region[rid].append(f["id"])

    def lost_spec(rid):
        region = next(r for r in regions if r["id"] == rid)
        levels = range(region["obstacles"]["max_level"] + 1)
        return {
            "marginal_n": "quadratic",
            "marginal_o": {str(o): round(float(rng.uniform(0, 1)), 3) for o in levels},
        }

    primitives = []
    for rid in rids:
        pairs = [
            (a, b)
            for a in by_region[rid] for b in by_region[rid]
            if a != b and rng.random() < 0.8
        ]
        if not pairs and len(by_region[rid]) >= 2:
            pairs = [(by_region[rid][0], by_region[rid][1])]
        for a, b in pairs:
            primitives.append({
                "from": a, "to": b, "region": rid,
                "rate": round(float(rng.uniform(0.05, 1.0)), 3),
                "lost": lost_spec(rid),
            })

    doc = {
        "name": f"fuzz-{rng.integers(1 << 30)}",
        "regions": regions,
        "facets": facets,
        "primitives": primitives,
        "init": {"facet": "f0", "region": rids[0]},
    }
    return parse_environment(doc)


# ---------------------------------------------------------------------------
# fixtures


def bundled_doc(name: str) -> dict:
    path = resources.files("hostilemdp.data") / f"{name}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def corridor_env() -> Environment:
    return parse_environment(bundled_doc("corridor"))


@pytest.fixture(scope="session")
def corridor_mdp(corridor_env) -> Mdp:
    return build_mdp(corridor_env)


@pytest.fixture(scope="session")
def case_envs() -> dict[str, Environment]:
    return {
        "A": parse_environment(bundled_doc("city_caseA")),
        "B": parse_environment(bundled_doc("city_caseB")),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
