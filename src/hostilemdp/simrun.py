"""Monte Carlo execution of synthesized strategies.

A mission run follows the first-stage policy until it reaches a switch state
(pickup reached, delivery still possible), which is the event the mission
property scores, then follows the second-stage policy until delivery.  Runs
that die or exhaust the step budget end early; a strategy with no action at
a reached state is an execution error, not an outcome.

Every entry point runs ``_lockstep``.  Runs fall into fixed chunks of
:data:`CHUNK`, and chunk ``c`` draws from
``default_rng(SeedSequence([seed, c]))`` for its live runs in run order, so
results depend only on the seed.  A block of :data:`BLOCK` chunks advances
together, one vectorised step at a time, over compacted arrays of its live
runs.  With a trace file, each block keeps its step history as int32 arrays,
and the trace's CSV rows are gathered from it, a table of runs at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from .envmodel import DROPOFF
from .mdpbuild import SPARSETOOLS, Mdp, _tokens, _write_lines, compiled
from .synth import MissionStrategy

SUCCESS = "success"
LOST = "lost"
STEP_LIMIT = "step-limit"

OUTCOMES = (SUCCESS, LOST, STEP_LIMIT)

#: runs per chunk; chunk ``c`` draws from its own stream, so it fixes which
#: random numbers each run draws
CHUNK = 4096
#: chunks per block; a block's runs advance together, so it bounds working memory
BLOCK = 8
#: runs per table of trace rows; a table's arrays hold about a fifth of its block's history,
#: and larger tables make fewer numpy calls but leave more freed memory behind
_TABLE = 512

# event bits of a plan key: the run scores the mission, is delivered, ends; _END is the highest
_SWITCH, _DELIVER, _END = 1, 2, 4


@dataclass
class _Plan:
    """The rows one or two policies play, as flat arrays, and the events at each key.

    A run that plays policy ``k`` at state ``s`` is at key ``k * n + s``, ``n``
    the number of states.  ``row[k, s]`` is the row policy ``k`` plays at
    ``s`` (-1: undefined); rows are the policies' choices, concatenated in
    the order given.  Row ``r`` plays ``action[r]`` and leads to the keys
    ``succ[ptr[r]:ptr[r + 1]]``, of its own policy, with running
    probability sums ``cum``; the last sum is infinite, so a draw above a
    row total that rounded below 1 takes the last successor.  ``depth``
    bisection rounds find a draw's successor in the longest row.
    ``event[q]`` holds the bits of what happens to a run at key ``q``:
    :data:`_END` at a dead state; under the first policy :data:`_SWITCH` at
    a live switch state, where the run moves on to the second policy; and
    :data:`_DELIVER` with :data:`_END` at a live dropoff state reached under
    the second policy, or one that is also a switch state.
    """

    row: np.ndarray
    action: np.ndarray
    ptr: np.ndarray
    succ: np.ndarray
    cum: np.ndarray
    depth: int
    event: np.ndarray

    @classmethod
    def of(cls, mdp: Mdp, policies: Sequence[np.ndarray], alive, switch, dropoff):
        mdp.check_arrays()
        choice = _choices(mdp, policies)
        row = np.full((len(policies), mdp.n_states), -1, dtype=np.int64)
        which = np.repeat(np.arange(len(policies)), [len(policy) for policy in policies])
        row[which, mdp.owner[choice]] = np.arange(len(choice))
        length = mdp.choice_ptr[choice + 1] - mdp.choice_ptr[choice]
        ptr = np.concatenate(([0], np.cumsum(length)))
        # the rows' successors and probabilities, gathered in one pass
        succ, cum = np.empty(ptr[-1], dtype=np.int64), np.empty(ptr[-1])
        compiled(SPARSETOOLS).csr_row_index(len(choice), choice, mdp.choice_ptr, mdp.succ,
                                            mdp.prob, succ, cum)  # what ``matrix[rows]`` calls
        # running sums row by row, left to right, as a scalar walk adds them
        widest = int(length.max(initial=1))
        for j in range(1, widest):
            at = ptr[:-1][length > j] + j
            cum[at] += cum[at - 1]
        cum[ptr[1:] - 1] = np.inf
        dead = np.where(alive, 0, _END)
        deliver = np.where(alive & dropoff, _DELIVER | _END, 0)
        # under the first policy a run is delivered only where it scores, at a switch state
        phases = (dead | np.where(alive & switch, _SWITCH | deliver, 0), dead | deliver)
        event = np.concatenate(phases[:len(policies)]).astype(np.int8)
        return cls(row, mdp.choice_action[choice], ptr,
                   succ + mdp.n_states * np.repeat(which, length), cum,
                   (widest - 1).bit_length(), event)

    def successors(self, r: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The successor key row ``r[i]`` takes at draw ``u[i]``, for every ``i``.

        That is the first successor whose running sum exceeds the draw.  The
        sums never decrease along a row and the last is infinite, so
        bisection finds the last sum at or below the draw (one before the
        row if none is): halving steps from the row's start, each probe held
        at the row's end.  A round compares the probed sums with the draws
        and adds each hit, shifted by the step's bit, to ``below``; the shift
        is int64, as numpy 1.x would shift a bool into int8 and overflow.
        """
        below, last = self.ptr[r], self.ptr[1:][r]
        below -= 1
        last -= 1
        probe = np.empty_like(below)
        hit = np.empty(below.shape, dtype=bool)
        for k in reversed(range(self.depth)):
            np.minimum(np.add(below, 1 << k, out=probe), last, out=probe)
            np.less_equal(self.cum.take(probe), u, out=hit)
            below += np.left_shift(hit, k, out=probe, dtype=below.dtype)
        below += 1
        return self.succ[below]


def _choices(mdp: Mdp, policies: Sequence[np.ndarray]) -> np.ndarray:
    """The policies' choices, concatenated.

    ValueError if one is outside ``[0, n_choices)``, or if a policy is not
    ascending with one choice per state it covers: a later choice at the
    same state would replace the earlier one in the plan.
    """
    choice = np.concatenate(policies)
    outside = choice[(choice < 0) | (choice >= mdp.n_choices())]
    if outside.size:
        raise ValueError(f"policy choice {outside[0]} outside [0, {mdp.n_choices()})")
    for policy in policies:
        owner = mdp.owner[policy]
        back = np.flatnonzero(np.diff(owner) <= 0)
        if back.size:
            k = int(back[0]) + 1
            raise ValueError(f"policy plays choice {policy[k]} at state {owner[k]} after a "
                             f"choice at state {owner[k - 1]}; a policy holds one choice per "
                             "state, in ascending state order")
    return choice


def _draws(rngs: Sequence[np.random.Generator], idx: np.ndarray) -> np.ndarray:
    """One draw per live run: chunk ``c`` fills its runs' stretch of ``idx`` from ``rngs[c]``."""
    u = np.empty(idx.size)
    cuts = [0, *np.searchsorted(idx, CHUNK * np.arange(1, len(rngs))).tolist(), idx.size]
    for rng, a, b in zip(rngs, cuts, cuts[1:]):
        if a < b:
            rng.random(out=u[a:b])
    return u


def _lockstep(mdp: Mdp, plan: _Plan, start: int, runs: int,
              rngs: Sequence[np.random.Generator], max_steps: int, keep: bool):
    """Advance a block of ``runs`` runs from ``start`` together, one vectorised step at a time.

    Runs obey the mission rules above, with the plan's events.  Run ``i``
    belongs to chunk ``i // CHUNK``, and each step chunk ``c`` draws one
    number from ``rngs[c]`` per live run of the chunk, in run order.
    Returns each run's outcome (index into :data:`OUTCOMES`), satisfied and
    delivered steps (-1: never) and, if ``keep``, per step the runs that
    moved, their new states and actions, as int32 arrays.  ``keep`` changes
    no draw.
    """
    satisfied = np.full(runs, -1, dtype=np.int64)
    delivered = np.full(runs, -1, dtype=np.int64)
    # the live runs, compacted: run index (ascending) and plan key
    idx = np.arange(runs)
    q = np.full(runs, start, dtype=np.int64)
    row = plan.row.ravel()
    n = plan.row.shape[1]
    history = []
    for step in range(max_steps + 1):
        event = plan.event[q]
        # the runs that score, end or both; the others only move on
        odd = np.flatnonzero(event)
        if odd.size:
            e = event[odd]
            scored = odd[e & _SWITCH > 0]
            satisfied[idx[scored]] = step
            q[scored] += n
            end = e >= _END
            if end.any():
                ended = odd[end]
                gone = idx[ended]
                delivered[gone[e[end] & _DELIVER > 0]] = step
                kept = np.ones(idx.size, dtype=bool)
                kept[ended] = False
                kept = np.flatnonzero(kept)
                idx = idx.take(kept)
                q = q.take(kept)
        if step == max_steps or not idx.size:
            break
        r = row.take(q)
        if r.min() < 0:
            i = int(np.argmax(r < 0))
            phase, s = divmod(int(q[i]), n)
            where = "" if mdp.states is None else f" ({mdp.states[s]!r})"
            raise RuntimeError(f"{('first', 'second')[phase]}-stage strategy undefined "
                               f"at reached state {s}{where}")
        # the draws and the bisection's block-sized arrays die with the call, not a step later
        q = plan.successors(r, _draws(rngs, idx))
        if keep:
            # int32 halves a block's history; run indices, states and actions all fit
            history.append((idx.astype(np.int32), (q % n).astype(np.int32),
                            plan.action[r].astype(np.int32)))
    # a run that ended before the step limit died or was delivered, and delivery comes after
    # the switch, so an unsatisfied one was lost
    outcome = np.full(runs, OUTCOMES.index(LOST), dtype=np.int64)
    outcome[idx] = OUTCOMES.index(STEP_LIMIT)
    outcome[satisfied >= 0] = OUTCOMES.index(SUCCESS)
    return outcome, satisfied, delivered, history


def _blocks(runs: int, seed: int) -> Iterator[tuple[int, int, list[np.random.Generator]]]:
    """Each block's first run, size and per-chunk generators; chunk ``c`` seeds ``[seed, c]``."""
    for first in range(0, runs, BLOCK * CHUNK):
        size = min(BLOCK * CHUNK, runs - first)
        chunks = range(first // CHUNK, (first + size + CHUNK - 1) // CHUNK)
        yield first, size, [np.random.default_rng(np.random.SeedSequence([seed, c]))
                            for c in chunks]


def _mission(mdp: Mdp, strategy: MissionStrategy) -> _Plan:
    return _Plan.of(mdp, (strategy.first, strategy.second), mdp.label("alive"),
                    strategy.switch, mdp.label(DROPOFF))


#: a trace step's event, in order of precedence; "step" is any other move
_EVENTS = ("lost-absorb", "stay", "region-change", "adversary-entered", "adversary-left", "step")


def _events(mdp: Mdp, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each step ``src[i] -> dst[i]``'s event, an index into :data:`_EVENTS`, from the vehicle
    columns of its endpoints; on a model with no state table every step is a "step"."""
    t = mdp.states
    if t is None:
        return np.full(len(src), _EVENTS.index("step"))
    return np.select([t.alive[src] & ~t.alive[dst], src == dst,
                      (t.facet[src] != t.facet[dst]) | (t.region[src] != t.region[dst]),
                      t.count[dst] > t.count[src], t.count[dst] < t.count[src]],
                     range(5), _EVENTS.index("step"))


def _field(text: str) -> bytes:
    """``text`` as ``csv.writer`` writes it inside a row, with the comma after it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text, ""])
    return out.getvalue().encode()


class _TraceWriter:
    """The trace CSV of mission runs, written to a binary file a block at a time.

    One row per step, ``run,step,state,action,event,outcome``, naming the
    state a run was at, the action it played and the event the move realized,
    then one closing row with the run's last state and empty action and event.
    Rows come in run order, with ``csv.writer``'s quoting and CRLF line ends.
    Each field is a ``bytes`` token, formatted once and gathered.
    """

    def __init__(self, mdp: Mdp, out: BinaryIO):
        self.mdp, self.out = mdp, out
        self.state = _tokens(b"%d," % s for s in range(mdp.n_states))
        # each ends with the closing row's empty field, at index -1
        self.action = _tokens([*map(_field, mdp.action_names), b","])
        self.event = _tokens([*(e.encode() + b"," for e in _EVENTS), b","])
        self.outcome = _tokens(o.encode() + b"\r\n" for o in OUTCOMES)
        out.write(b"run,step,state,action,event,outcome\r\n")

    def block(self, first: int, outcome: np.ndarray, history) -> None:
        """Write the rows of the runs ``first:first + len(outcome)`` that ``_lockstep`` ran."""
        for lo in range(0, len(outcome), _TABLE):
            hi = min(lo + _TABLE, len(outcome))
            # each step's moves cut to the table, as the runs that moved come in ascending
            # order; sorted stably by run, each run's moves then come in step order
            cuts = [slice(*np.searchsorted(moved, (lo, hi))) for moved, _, _ in history]
            run, reached, played = (
                np.concatenate([np.zeros(0, np.int32), *(h[k][at] for h, at in zip(history, cuts))])
                for k in range(3))
            order = np.argsort(run, kind="stable")
            run, reached, played = run[order] - lo, reached[order], played[order]
            size = np.bincount(run, minlength=hi - lo) + 1
            owner = np.repeat(np.arange(hi - lo), size)
            # run g's rows start at base[g], and its k-th move reaches row base[g] + k + 1
            base = np.cumsum(size) - size
            to = np.arange(len(run)) + run + 1
            state = np.full(len(owner), self.mdp.init, dtype=np.int64)
            state[to] = reached
            action, event = np.full(len(owner), -1), np.full(len(owner), -1)
            action[to - 1] = played
            event[to - 1] = _events(self.mdp, state[to - 1], state[to])
            table = np.empty((len(owner), 6), dtype=object)
            table[:, 0] = _tokens(b"%d," % i for i in range(first + lo, first + hi))[owner]
            table[:, 1] = _tokens(b"%d," % k for k in range(int(size.max())))[
                np.arange(len(owner)) - base[owner]]
            table[:, 2] = self.state[state]
            table[:, 3] = self.action[action]
            table[:, 4] = self.event[event]
            table[:, 5] = self.outcome[outcome[lo:hi][owner]]
            _write_lines(self.out, table)


@dataclass
class Estimate:
    """Aggregated mission statistics with a 95% normal-approximation interval."""

    runs: int
    satisfied: int
    estimate: float
    half_width: float
    delivered: int
    lost: int
    step_limit: int
    master_seed: int

    def interval(self) -> tuple[float, float]:
        return (max(0.0, self.estimate - self.half_width),
                min(1.0, self.estimate + self.half_width))


def estimate_success(
    mdp: Mdp,
    strategy: MissionStrategy,
    runs: int = 10_000,
    master_seed: int = 0,
    max_steps: int = 100_000,
    trace: Optional[BinaryIO] = None,
) -> Estimate:
    """Estimate the mission success probability from independent runs.

    ``trace``, a file open for binary writing, gets a header and then, in
    run order, one CSV row per step of every run and one closing row per run
    (``run,step,state,action,event,outcome``); writing it changes no result.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    plan = _mission(mdp, strategy)
    writer = None if trace is None else _TraceWriter(mdp, trace)
    counts = np.zeros(len(OUTCOMES), dtype=np.int64)
    delivered = 0
    for first, size, rngs in _blocks(runs, master_seed):
        batch = _lockstep(mdp, plan, mdp.init, size, rngs, max_steps, keep=writer is not None)
        counts += np.bincount(batch[0], minlength=len(OUTCOMES))
        delivered += int(np.count_nonzero(batch[2] >= 0))
        if writer is not None:
            writer.block(first, batch[0], batch[3])
        # free this block's arrays before the next block makes its own
        del batch

    satisfied, lost, step_limit = (int(c) for c in counts)
    p = satisfied / runs
    half = 1.96 * float(np.sqrt(p * (1.0 - p) / runs))
    return Estimate(
        runs=runs,
        satisfied=satisfied,
        estimate=p,
        half_width=half,
        delivered=delivered,
        lost=lost,
        step_limit=step_limit,
        master_seed=master_seed,
    )


def prefix_frequency(
    mdp: Mdp,
    policy: np.ndarray,
    prefix: Sequence[int],
    runs: int = 10**6,
    seed: int = 0,
) -> float:
    """Fraction of simulated runs whose first states match ``prefix``.

    Runs start at ``prefix[0]`` and follow ``policy`` (ascending choice
    indices) for ``len(prefix) - 1`` steps; a run that reaches a state where
    the policy is undefined stops there, so it can no longer match.  A prefix
    state outside ``[0, n_states)``, a policy choice outside
    ``[0, n_choices)`` or a policy whose states do not ascend, one choice
    each, raises :class:`ValueError`.
    """
    if len(prefix) < 1:
        raise ValueError("prefix needs at least one state")
    outside = [s for s in prefix if not 0 <= s < mdp.n_states]
    if outside:
        raise ValueError(f"prefix state {outside[0]} outside [0, {mdp.n_states})")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    never = np.zeros(mdp.n_states, dtype=bool)
    plan = _Plan.of(mdp, (policy,), ~never, never, never)
    # a run ends where the policy, checked by the plan, plays nothing
    plan.event[plan.row[0] < 0] = _END
    steps = len(prefix) - 1
    hits = 0
    for _, size, rngs in _blocks(runs, seed):
        *_, history = _lockstep(mdp, plan, prefix[0], size, rngs, steps, keep=True)
        matched = np.zeros(size, dtype=np.int64)
        for target, (moved, states, _) in zip(prefix[1:], history):
            matched[moved[states == target]] += 1
        hits += int(np.count_nonzero(matched == steps))
    return hits / runs
