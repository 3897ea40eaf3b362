"""Shared fixtures, generators, and independent oracles.

The oracles here re-derive results with machinery deliberately different
from the package: reachability by exhaustive memoryless-policy enumeration
over dense linear solves, MDP rows one state at a time, belief updates with
plain Fraction dicts.  Tests compare production code against these, never
against itself.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hostilemdp import synth
from hostilemdp.belief import ENTERED, LEFT, expectation
from hostilemdp.envmodel import DROPOFF, PICKUP, Environment, MotionPrimitive, parse_environment
from hostilemdp.mdpbuild import Mdp, MdpBuilder, VehicleState, build_mdp, ranges
from hostilemdp.synth import (MissionStrategy, ValueResult, extract_policy, max_reach_lp,
                              max_reach_vi, synthesize_mission)

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


def as_csr(arrays, columns: int):
    """A public scipy CSR matrix of ``columns`` columns over the CSR ``(indptr, indices, data)``.

    The package hands such arrays to scipy's private kernels; the oracles
    multiply and select with the public operations those kernels implement.
    """
    import scipy.sparse

    indptr, indices, data = arrays
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, columns))


def as_csc(arrays, rows: int):
    """A public scipy CSC matrix of ``rows`` rows over the CSC ``(indptr, indices, data)``,
    the twin of :func:`as_csr`."""
    import scipy.sparse

    indptr, indices, data = arrays
    return scipy.sparse.csc_matrix((data, indices, indptr), shape=(rows, len(indptr) - 1))


def model_matrix(mdp: Mdp):
    """The model as a public scipy CSR matrix, one row per choice, built from its own arrays."""
    return as_csr((mdp.choice_ptr, mdp.succ, mdp.prob), mdp.n_states)


def choice_owner(mdp: Mdp) -> np.ndarray:
    """The state that owns each choice, counted off ``state_ptr`` as ``Mdp.owner`` must give it."""
    return np.repeat(np.arange(mdp.n_states), np.diff(mdp.state_ptr))


def policy_actions(mdp: Mdp, policy: np.ndarray) -> dict[int, int]:
    """``{state: action}`` of a policy given as choice indices."""
    states = choice_owner(mdp)[policy].tolist()
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


def sequential_mission(mdp: Mdp, method: str = "vi", tol: float = 1e-9,
                       max_iter: int = 10**6) -> MissionStrategy:
    """The mission solved one stage after the other on the calling thread.

    The order is deliver solve, pickup solve, then the first-stage and the
    second-stage policy, with the switch set taken from the deliver solve's
    positive set, so any difference from ``synthesize_mission`` comes from
    running the stages at once.
    """
    def solve(target):
        if method == "lp":
            return max_reach_lp(mdp, target, alive)
        return max_reach_vi(mdp, target, alive, tol=tol, max_iter=max_iter)

    alive = mdp.label("alive")
    deliver = alive & mdp.label("dropoff")
    second = solve(deliver)
    switch = alive & mdp.label("pickup") & second.positive
    first = solve(switch)
    first_policy = extract_policy(mdp, first, switch)
    second_policy = extract_policy(mdp, second, deliver)
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


def recorded_mission(mdp: Mdp, method: str) -> tuple[MissionStrategy, dict]:
    """``synthesize_mission(mdp, method)`` with the steps of each stage recorded.

    Returns ``(strategy, steps)``.  ``steps`` maps each stage's target, as
    bytes, to the ``(step, thread)`` pairs of its solver, ``_free_rows`` and
    ``extract_policy`` calls, in call order.
    """
    steps = {}

    def recording(name, at):
        call = getattr(synth, name)

        def recorded(*args, **kw):
            # keyed by the stage's target, the argument at position ``at``
            steps.setdefault(args[at].tobytes(), []).append((name, threading.current_thread()))
            return call(*args, **kw)
        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for name, at in (("_free_rows", 1), (f"max_reach_{method}", 1), ("extract_policy", 2)):
            patch.setattr(synth, name, recording(name, at))
        return synthesize_mission(mdp, method), steps


# ---------------------------------------------------------------------------
# policy extraction reference: a one-state-at-a-time search, then progress
# tested on the forward side over every transition, as ``extract_policy``
# did before its backward search picked the choices


def oracle_levels(mdp: Mdp, kept: np.ndarray, seeds: np.ndarray) -> list[int]:
    """BFS distance to ``seeds``, one state at a time, over the model's positive entries
    ``k`` with ``kept[k]``; -1 where no kept path leads."""
    owner = choice_owner(mdp)
    into = [[] for _ in range(mdp.n_states)]
    for c in range(mdp.n_choices()):
        for k in range(mdp.choice_ptr[c], mdp.choice_ptr[c + 1]):
            if mdp.prob[k] > 0.0 and kept[k]:
                into[mdp.succ[k]].append(int(owner[c]))
    level = [-1] * mdp.n_states
    queue = collections.deque(seeds.tolist())
    for s in queue:
        level[s] = 0
    while queue:
        t = queue.popleft()
        for s in into[t]:
            if level[s] < 0:
                level[s] = level[t] + 1
                queue.append(s)
    return level


def reference_policy(mdp: Mdp, result: ValueResult, target: np.ndarray) -> np.ndarray:
    """The policy ``extract_policy`` must return, found the long way round.

    The near-maximal choices are those within ``TIE_TOL`` of their state's
    best backup.  After a search over their edges, a pass over every
    transition gives each choice the least level among its positive
    successors; a choice progresses when that is below its state's level,
    and each state plays its first progressing choice.  Raises
    ``RuntimeError`` where a positive state has no progressing choice.
    """
    owner = choice_owner(mdp)
    trans = mdp.transition_choice()
    backups = model_matrix(mdp) @ result.values
    solved = result.positive & ~target
    states = np.flatnonzero(solved)
    best = np.full(mdp.n_states, -np.inf)
    np.maximum.at(best, owner, backups)
    candidate = solved[owner] & (backups >= best[owner] - synth.TIE_TOL)
    level = np.array(oracle_levels(mdp, candidate[trans], np.flatnonzero(target)), dtype=np.int64)
    if (level[states] < 0).any():
        raise RuntimeError("a positive state has no progressing choice")
    far = int(level.max()) + 1
    dist = np.where(level < 0, far, level)
    nearest = np.full(mdp.n_choices(), far)
    np.minimum.at(nearest, trans, np.where(mdp.prob > 0.0, dist[mdp.succ], far))
    chosen = np.flatnonzero(candidate & (nearest < dist[owner]))
    return chosen[np.diff(owner[chosen], prepend=-1) != 0]


# ---------------------------------------------------------------------------
# one-state build oracle: the row of one state under one primitive, put
# together entry by entry from the environment and the belief closures, with
# no table of the builder's.  The batched build must give exactly these rows,
# in this order and with these floats.


def initial_state(builder: MdpBuilder) -> VehicleState:
    env = builder.env
    fresh = (0,) * len(builder.neighbors[env.init_region])
    return VehicleState(env.init_facet, env.init_region, 0, 0, True, fresh)


def updates(builder: MdpBuilder, state: VehicleState):
    """The neighbours that can spare, and that can take, an adversary.

    Each is (position, id, child belief); its belief has a LEFT, resp. ENTERED, update.
    """
    senders, receivers = [], []
    for i, (rid, pos) in enumerate(zip(builder.neighbors[state.region], state.beliefs)):
        edges = builder.belief_sets[rid].edges[pos]
        if LEFT in edges:
            senders.append((i, rid, edges[LEFT]))
        if ENTERED in edges:
            receivers.append((i, rid, edges[ENTERED]))
    return senders, receivers


def estimated_rate(builder: MdpBuilder, state: VehicleState, prim: MotionPrimitive) -> float:
    """Total rate of the exponential race while crossing under ``prim``."""
    region = builder.env.regions[state.region]
    rate = prim.rate
    senders, receivers = updates(builder, state)
    if state.count > region.min_adversaries and receivers:
        rate += region.mu_leave * state.count
    if state.count < region.max_adversaries:
        incoming = sum(float(expectation(builder.belief_sets[rid].members[state.beliefs[i]]))
                       for i, rid, _ in senders)
        rate += region.mu_enter * incoming
    return rate


def transitions(builder: MdpBuilder, state: VehicleState, prim: MotionPrimitive):
    """Sparse successor distribution for an alive state and a primitive."""
    if not state.alive:
        raise ValueError("lost states only support the stay action")
    env = builder.env
    region = env.regions[state.region]
    total_rate = estimated_rate(builder, state, prim)
    p_lost = prim.lost[(state.count, state.level)]
    crossing = prim.rate / total_rate

    out: dict[VehicleState, float] = {}

    def put(succ: VehicleState, prob: float):
        if prob > 0.0:
            out[succ] = out.get(succ, 0.0) + prob

    def lost_at(facet: str, region: str) -> VehicleState:
        fresh = (0,) * len(builder.neighbors[region])
        floor = env.regions[region].min_adversaries
        return VehicleState(facet, region, floor, 0, False, fresh)

    for exit_facet, q in prim.exit_facets():
        succ_region = env.successor_region(exit_facet, state.region)
        if succ_region == state.region:
            # outer boundary: no region is entered, nothing is re-observed
            moved = state._replace(facet=exit_facet)
            put(moved, crossing * q * (1.0 - p_lost))
            put(lost_at(exit_facet, state.region), crossing * q * p_lost)
            continue
        put(lost_at(exit_facet, succ_region), crossing * q * p_lost)
        entered_pos = builder.neighbors[state.region].index(succ_region)
        belief_pos = state.beliefs[entered_pos]
        fresh = (0,) * len(builder.neighbors[succ_region])
        for n2, pn in builder.belief_sets[succ_region].members[belief_pos].items():
            for o2, po in env.regions[succ_region].obstacle_items():
                base = crossing * q * float(pn) * float(po) * (1.0 - p_lost)
                if base == 0.0:
                    continue
                put(VehicleState(exit_facet, succ_region, n2, o2, True, fresh), base)

    senders, receivers = updates(builder, state)
    if state.count < region.max_adversaries:
        for i, rid, child in senders:
            expect = float(expectation(builder.belief_sets[rid].members[state.beliefs[i]]))
            prob = region.mu_enter * expect / total_rate
            if prob == 0.0:
                continue
            beliefs = state.beliefs[:i] + (child,) + state.beliefs[i + 1:]
            put(state._replace(count=state.count + 1, beliefs=beliefs), prob)
    if state.count > region.min_adversaries and receivers:
        share = region.mu_leave * state.count / (total_rate * len(receivers))
        for i, _, child in receivers:
            beliefs = state.beliefs[:i] + (child,) + state.beliefs[i + 1:]
            put(state._replace(count=state.count - 1, beliefs=beliefs), share)
    return list(out.items())


# ---------------------------------------------------------------------------
# Monte Carlo oracle: the per-chunk lockstep loop, one chunk of runs at a
# time, each chunk's runs indexed through the full-size ``cur`` and
# ``satisfied`` arrays and each draw resolved by a row-wide gather.  The
# block loop of ``simrun`` must give exactly these outcomes, steps and
# histories, from exactly these draws.


@dataclass
class OraclePlan:
    """The rows one or two policies play, as flat arrays, and state masks.

    ``row[k, s]`` is the row policy ``k`` plays at ``s`` (-1: undefined); rows
    are the policies' choices, concatenated in the order given.  Row
    ``r`` plays ``action[r]`` and leads to ``succ[ptr[r]:ptr[r + 1]]`` with
    running probability sums ``cum``; the last sum is infinite, so a draw
    above a row total that rounded below 1 takes the last successor.
    """

    row: np.ndarray
    action: np.ndarray
    ptr: np.ndarray
    succ: np.ndarray
    cum: np.ndarray
    alive: np.ndarray
    switch: np.ndarray
    dropoff: np.ndarray

    @classmethod
    def of(cls, mdp: Mdp, policies, alive, switch, dropoff):
        choice = np.concatenate(policies)
        row = np.full((len(policies), mdp.n_states), -1, dtype=np.int64)
        which = np.repeat(np.arange(len(policies)), [len(policy) for policy in policies])
        row[which, choice_owner(mdp)[choice]] = np.arange(len(choice))
        lo, hi = mdp.choice_ptr[choice], mdp.choice_ptr[choice + 1]
        length = hi - lo
        ptr = np.concatenate(([0], np.cumsum(length)))
        taken = ranges(lo, hi)
        # running sums row by row, left to right, as a scalar walk adds them
        cum = mdp.prob[taken]
        for j in range(1, int(length.max(initial=0))):
            at = ptr[:-1][length > j] + j
            cum[at] += cum[at - 1]
        cum[ptr[1:] - 1] = np.inf
        return cls(row, mdp.choice_action[choice], ptr, mdp.succ[taken], cum,
                   alive, switch, dropoff)


def oracle_lockstep(mdp: Mdp, plan: OraclePlan, start: int, runs: int,
                    rng: np.random.Generator, max_steps: int, keep: bool):
    """Advance ``runs`` runs from ``start`` together, one vectorised step at a time.

    Runs obey the mission rules of ``simrun``, with the plan's masks.  Returns
    each run's outcome (index into ``OUTCOMES``), satisfied and delivered
    steps (-1: never) and, if ``keep``, per step the runs that moved, their
    new states and actions.  ``keep`` changes no draw.
    """
    cur = np.full(runs, start, dtype=np.int64)
    satisfied = np.full(runs, -1, dtype=np.int64)
    delivered = np.full(runs, -1, dtype=np.int64)
    live = np.arange(runs)
    history = []
    for step in range(max_steps + 1):
        live = live[plan.alive[cur[live]]]
        s = cur[live]
        satisfied[live[(satisfied[live] < 0) & plan.switch[s]]] = step
        done = (satisfied[live] >= 0) & plan.dropoff[s]
        delivered[live[done]] = step
        live, s = live[~done], s[~done]
        if step == max_steps or not live.size:
            break
        r = plan.row[(satisfied[live] >= 0).astype(np.intp), s]
        if (r < 0).any():
            i = int(np.argmax(r < 0))
            phase = "second" if satisfied[live[i]] >= 0 else "first"
            where = "" if mdp.states is None else f" ({mdp.states[s[i]]!r})"
            raise RuntimeError(f"{phase}-stage strategy undefined at reached state {s[i]}{where}")
        # each run takes the first successor whose running sum exceeds its draw
        first = plan.ptr[r]
        last = plan.ptr[r + 1] - first - 1
        cols = np.minimum(np.arange(last.max() + 1), last[:, None])
        below = plan.cum[first[:, None] + cols] <= rng.random(live.size)[:, None]
        cur[live] = plan.succ[first + below.sum(axis=1)]
        if keep:
            history.append((live, cur[live], plan.action[r]))
    outcome = np.where(satisfied >= 0, 0, np.where(plan.alive[cur], 2, 1))
    return outcome, satisfied, delivered, history


def oracle_chunks(runs: int, seed: int, chunk: int):
    """Each chunk's first run, size and generator, ``chunk`` runs at a time."""
    for c, first in enumerate(range(0, runs, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        yield first, min(chunk, runs - first), rng


def classify_step(mdp: Mdp, src: int, dst: int) -> str:
    """Name the event a single transition realized, for trace output.

    Compares the vehicle columns of the two endpoints: a death is
    "lost-absorb", a facet or region change is "region-change", a count
    increase with the vehicle in place is "adversary-entered", a decrease
    "adversary-left", and an identity transition "stay".  MDPs without a
    state table (hand-built models) report "step".
    """
    t = mdp.states
    if t is None:
        return "step"
    if t.alive[src] and not t.alive[dst]:
        return "lost-absorb"
    if src == dst:
        return "stay"
    if t.facet[src] != t.facet[dst] or t.region[src] != t.region[dst]:
        return "region-change"
    if t.count[dst] > t.count[src]:
        return "adversary-entered"
    if t.count[dst] < t.count[src]:
        return "adversary-left"
    return "step"


def oracle_trace(mdp: Mdp, strategy: MissionStrategy, runs: int, seed: int, max_steps: int,
                 chunk: int) -> bytes:
    """The trace CSV of ``runs`` mission runs, written one ``csv.writer`` row at a time.

    Each chunk's runs come from ``oracle_lockstep`` and are turned into
    per-run lists of states and actions; each step's row names its event by
    :func:`classify_step`, and each run ends with a row of its last state.
    """
    plan = OraclePlan.of(mdp, (strategy.first, strategy.second), mdp.label("alive"),
                         strategy.switch, mdp.label("dropoff"))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["run", "step", "state", "action", "event", "outcome"])
    for first, size, rng in oracle_chunks(runs, seed, chunk):
        outcome, _, _, history = oracle_lockstep(mdp, plan, mdp.init, size, rng, max_steps,
                                                 keep=True)
        states = [[mdp.init] for _ in range(size)]
        actions = [[] for _ in range(size)]
        for moved, reached, played in history:
            for i, t, a in zip(moved.tolist(), reached.tolist(), played.tolist()):
                states[i].append(t)
                actions[i].append(a)
        for i, (path, acts) in enumerate(zip(states, actions)):
            name = ("success", "lost", "step-limit")[outcome[i]]
            for k, a in enumerate(acts):
                writer.writerow([first + i, k, path[k], mdp.action_names[a],
                                 classify_step(mdp, path[k], path[k + 1]), name])
            writer.writerow([first + i, len(acts), path[-1], "", "", name])
    return out.getvalue().encode()


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
# PRISM explicit-state files read back, independently of the export


def read_prism(basepath: str | Path) -> tuple[Mdp, np.ndarray]:
    """The model in ``basepath`` plus ``.sta``, ``.tra`` and ``.lab``, and the ``.sta`` rows.

    Choice ``c`` of state ``s`` in the ``.tra`` becomes the model's choice
    ``state_ptr[s] + c``, with that ``c`` as its action, and its lines keep
    their file order.  A probability is read by ``float``, which gives back
    the bits its ``repr`` was written from.  The ``.lab`` atoms ``alive``,
    ``rp`` and ``rd`` become the labels ``alive``, ``pickup`` and
    ``dropoff``, and the one ``init`` state the initial state.  The ``.sta``
    rows come back as an int array, one row of variable values per state.
    """
    base = Path(basepath)
    sta, tra, lab = (base.with_name(base.name + suffix).read_text().splitlines()
                     for suffix in (".sta", ".tra", ".lab"))
    n, n_choices, n_transitions = map(int, tra[0].split())
    rows = [line.split() for line in tra[1:]]
    assert len(rows) == n_transitions and all(len(row) == 4 for row in rows)
    s, c, t = (np.array([int(row[i]) for row in rows], dtype=np.int64) for i in range(3))
    prob = np.array([float(row[3]) for row in rows])
    counts = np.zeros(n, dtype=np.int64)
    np.maximum.at(counts, s, c + 1)
    state_ptr = np.concatenate(([0], np.cumsum(counts)))
    assert state_ptr[-1] == n_choices
    choice = state_ptr[s] + c
    order = np.argsort(choice, kind="stable")
    choice_ptr = np.concatenate(([0], np.cumsum(np.bincount(choice, minlength=n_choices))))

    names = dict(re.findall(r'(\d+)="([^"]*)"', lab[0]))
    atoms = {name: np.zeros(n, dtype=bool) for name in names.values()}
    for line in lab[1:]:
        state, _, tags = line.partition(":")
        for tag in tags.split():
            atoms[names[tag]][int(state)] = True
    (init,) = np.flatnonzero(atoms["init"])

    assert [line.partition(":")[0] for line in sta[1:]] == [str(i) for i in range(n)]
    values = np.array([line.partition(":(")[2].rstrip(")").split(",") for line in sta[1:]],
                      dtype=np.int64).reshape(n, -1)
    local = np.arange(n_choices) - np.repeat(state_ptr[:-1], counts)
    mdp = Mdp(states=None, action_names=[str(i) for i in range(int(counts.max(initial=0)))],
              state_ptr=state_ptr, choice_action=local, choice_ptr=choice_ptr,
              succ=t[order], prob=prob[order], init=int(init),
              labels={"alive": atoms["alive"], PICKUP: atoms["rp"], DROPOFF: atoms["rd"]})
    return mdp, values


# ---------------------------------------------------------------------------
# a fresh interpreter, for what one process can load or crash only once


def run_fresh(script: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` in a new interpreter that imports this checkout's package,
    in ``cwd``; its stdout and stderr are captured as text."""
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


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


@pytest.fixture(scope="session")
def case_a_lp(case_envs) -> SimpleNamespace:
    """caseA's LP mission, which takes seconds, solved once for the session.

    ``mdp``, ``strategy`` and ``steps`` are as :func:`recorded_mission` gives
    them; ``leaked`` counts the threads the mission left running and
    ``escaped`` holds the exceptions that reached ``threading.excepthook``.
    """
    mdp = build_mdp(case_envs["A"])
    escaped, before = [], threading.active_count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading, "excepthook", escaped.append)
        strategy, steps = recorded_mission(mdp, "lp")
    return SimpleNamespace(mdp=mdp, strategy=strategy, steps=steps,
                           leaked=threading.active_count() - before, escaped=escaped)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
