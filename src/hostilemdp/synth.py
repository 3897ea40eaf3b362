"""Maximum-reachability solvers and strategy synthesis.

The mission objective is a two-stage reachability property: the vehicle must
stay alive until it reaches a pickup state from which delivery is still
possible, and from there stay alive until it reaches a dropoff state.  Both
stages reduce to constrained maximum reachability, solved either by value
iteration (sparse, monotone from below) or by the standard occupation LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from .envmodel import DROPOFF, PICKUP
from .mdpbuild import Mdp, ranges


class ConvergenceError(RuntimeError):
    """Raised when value iteration exhausts its iteration budget."""

    def __init__(self, message: str, values: np.ndarray, iterations: int, residual: float):
        super().__init__(message)
        self.values = values
        self.iterations = iterations
        self.residual = residual


@dataclass
class ValueResult:
    """Per-state reachability values plus solver bookkeeping.

    ``positive`` is the bool mask of the states with a positive value.
    """

    values: np.ndarray
    positive: np.ndarray
    method: str
    iterations: Optional[int] = None
    residual: Optional[float] = None


def _backward_levels(n: int, src: np.ndarray, dst: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Breadth-first distance from each state to ``seeds`` along edges ``src -> dst``.

    Seeds sit at level 0; states that cannot reach them get -1.
    """
    order = np.argsort(dst, kind="stable")
    preds = src[order]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
    level = np.full(n, -1, dtype=np.int64)
    level[seeds] = 0
    frontier, depth = seeds, 0
    while frontier.size:
        depth += 1
        found = preds[ranges(ptr[frontier], ptr[frontier + 1])]
        frontier = np.unique(found[level[found] < 0])
        level[frontier] = depth
    return level


def _edges(mdp: Mdp, choices: np.ndarray):
    """(source state, successor) of every positive-probability transition of ``choices``."""
    trans = mdp.transition_choice()
    keep = choices[trans] & (mdp.prob > 0.0)
    return mdp.choice_state()[trans[keep]], mdp.succ[keep]


def qualitative_reach(mdp: Mdp, target: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Mask of the states with positive probability of hitting ``target`` inside ``allowed``.

    Graph fixpoint only, no numerics: grow the target set backwards through
    ``allowed`` states that have some action with a successor already inside.
    Both arguments are bool masks over the states.
    """
    src, dst = _edges(mdp, (allowed & ~target)[mdp.choice_state()])
    return _backward_levels(mdp.n_states, src, dst, np.flatnonzero(target)) >= 0


def _free_structure(mdp: Mdp, target: np.ndarray, positive: np.ndarray):
    """Index the states whose values are genuinely unknown.

    Target states are pinned to one, states outside ``positive`` to zero;
    everything else becomes a row block in a sparse choice matrix whose rows
    keep each choice's successor order, so sums and products round as a
    row-by-row walk would.
    """
    is_free = positive & ~target
    free = np.flatnonzero(is_free)
    pos_of = np.cumsum(is_free) - 1
    picked = np.flatnonzero(is_free[mdp.choice_state()])
    owner = mdp.transition_choice()
    # row index of each transition among the picked choices (-1: not picked)
    row_of = np.full(mdp.n_choices(), -1, dtype=np.int64)
    row_of[picked] = np.arange(len(picked))
    row = row_of[owner]
    into_goal = (row >= 0) & target[mdp.succ]
    into_free = (row >= 0) & is_free[mdp.succ]
    const = np.bincount(row[into_goal], weights=mdp.prob[into_goal], minlength=len(picked))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row[into_free], minlength=len(picked)))))
    matrix = scipy.sparse.csr_matrix(
        (mdp.prob[into_free], pos_of[mdp.succ[into_free]], indptr),
        shape=(len(picked), len(free)),
    )
    blocks = np.concatenate(([0], np.cumsum(np.diff(mdp.state_ptr)[free])))
    return free, matrix, const, blocks


def _assemble(mdp, target, free, x):
    values = np.zeros(mdp.n_states)
    values[target] = 1.0
    values[free] = x
    return values


def max_reach_vi(
    mdp: Mdp,
    target: np.ndarray,
    allowed: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 10**6,
    sweep_hook=None,
) -> ValueResult:
    """Value iteration for max P[allowed U target], from below.

    ``target`` and ``allowed`` are bool masks over the states.  Iterates
    x <- max(x, max_a (c_a + Q_a x)) until the sup-norm step falls
    under ``tol``; raises :class:`ConvergenceError` past ``max_iter`` sweeps.
    ``sweep_hook``, when given, receives a copy of the free-state vector
    after every sweep (free states are the positive non-target ones, in
    ascending state order).
    """
    positive = qualitative_reach(mdp, target, allowed)
    free, matrix, const, blocks = _free_structure(mdp, target, positive)
    if not free.size:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)),
                           positive, "vi", iterations=0, residual=0.0)
    x = np.zeros(len(free))
    # column j holds each state's j-th choice, or its last one when it has fewer
    ends = blocks[1:] - 1
    columns = [np.minimum(blocks[:-1] + j, ends) for j in range(int(np.diff(blocks).max()))]
    for sweep in range(1, max_iter + 1):
        y = const + matrix @ x
        grouped = y[columns[0]]
        for column in columns[1:]:
            np.maximum(grouped, y[column], out=grouped)
        new = np.maximum(x, grouped)
        residual = float(np.max(np.abs(new - x)))
        x = new
        if sweep_hook is not None:
            sweep_hook(x.copy())
        if residual <= tol:
            return ValueResult(_assemble(mdp, target, free, x),
                               positive, "vi", iterations=sweep, residual=residual)
    raise ConvergenceError(
        f"value iteration did not converge within {max_iter} sweeps "
        f"(last residual {residual:.3e})",
        _assemble(mdp, target, free, x), max_iter, residual,
    )


def max_reach_lp(
    mdp: Mdp,
    target: np.ndarray,
    allowed: np.ndarray,
) -> ValueResult:
    """LP route to the same values: minimize sum(x) over the Bellman cone.

    Each enabled action of a free state yields one constraint
    x_s >= c_a + sum_succ P(s,a,succ) x_succ; the minimal feasible point is
    the value vector.  Solved with HiGHS through scipy.
    """
    import scipy.optimize  # about 0.3 s to import, so only LP solves pay it

    positive = qualitative_reach(mdp, target, allowed)
    free, matrix, const, blocks = _free_structure(mdp, target, positive)
    if not free.size:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)), positive, "lp")
    n_choices = matrix.shape[0]
    # rows of (Q - E) x <= -c where E picks the owning state of each choice
    owner_rows = np.repeat(np.arange(len(free)), np.diff(blocks))
    picker = scipy.sparse.csr_matrix(
        (np.ones(n_choices), (np.arange(n_choices), owner_rows)),
        shape=(n_choices, len(free)),
    )
    res = scipy.optimize.linprog(
        c=np.ones(len(free)),
        A_ub=(matrix - picker).tocsc(),
        b_ub=-const,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return ValueResult(_assemble(mdp, target, free, res.x),
                       positive, "lp", iterations=int(res.nit))


_SOLVERS = {"vi": max_reach_vi, "lp": max_reach_lp}


def solve_reachability(mdp, target, allowed, method: str = "vi", **kw) -> ValueResult:
    try:
        solver = _SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}, expected one of {sorted(_SOLVERS)}")
    return solver(mdp, target, allowed, **kw)


def extract_policy(
    mdp: Mdp,
    result: ValueResult,
    target: np.ndarray,
    tie_tol: float = 1e-9,
) -> np.ndarray:
    """Memoryless policy attaining the values, defined on positive non-target states.

    Returns the ascending indices of the chosen choices, one per such state.

    Plain argmax can stall on a cycle whose value equals the maximum (the
    backup is tight along the loop), so among near-maximal actions we require
    strict progress: pick the lowest-index action with a successor closer to
    the target inside the near-maximal edge graph.
    """
    owner = mdp.choice_state()
    trans = mdp.transition_choice()
    # each backup sums p * value over the row left to right, as a walk would
    backups = np.bincount(trans, weights=mdp.prob * result.values[mdp.succ],
                          minlength=mdp.n_choices())
    solved = result.positive & ~target
    states = np.flatnonzero(solved)
    acting = np.diff(mdp.state_ptr) > 0
    best = np.zeros(mdp.n_states)
    best[acting] = np.maximum.reduceat(backups, mdp.state_ptr[:-1][acting])
    candidate = solved[owner] & (backups >= best[owner] - tie_tol)

    # BFS distances to target through candidate edges only
    level = _backward_levels(mdp.n_states, *_edges(mdp, candidate), np.flatnonzero(target))
    unreached = states[level[states] < 0]
    if unreached.size:
        raise RuntimeError(
            f"state {unreached[0]} has positive value but no progressing action; "
            f"tie tolerance {tie_tol} may be too small"
        )
    dist = np.where(level >= 0, level, np.iinfo(np.int64).max)
    closer = (mdp.prob > 0.0) & (dist[mdp.succ] < dist[owner[trans]])
    progressing = candidate & (np.bincount(trans[closer], minlength=mdp.n_choices()) > 0)
    chosen = np.flatnonzero(progressing)
    # choices are grouped by state in ascending action order: keep each state's first
    return chosen[np.unique(owner[chosen], return_index=True)[1]]


@dataclass
class MissionStrategy:
    """Two-phase strategy: head for a viable pickup, then for the dropoff.

    ``first`` and ``second`` are policies (ascending choice indices, one per
    covered state); ``switch`` and ``sat_deliverable`` are bool state masks.
    """

    value: float
    first: np.ndarray
    second: np.ndarray
    switch: np.ndarray
    sat_deliverable: np.ndarray
    values_first: np.ndarray
    values_second: np.ndarray
    method: str


def synthesize_mission(mdp: Mdp, method: str = "vi", tie_tol: float = 1e-9, **kw) -> MissionStrategy:
    """Solve the nested mission property and extract the switching strategy.

    The inner constraint (delivery still possible after pickup) is
    qualitative, so it comes from the graph fixpoint of the second stage;
    the two quantitative stages are max-reachability solves.
    """
    alive = mdp.label("alive")
    pickup = mdp.label(PICKUP)
    dropoff = mdp.label(DROPOFF)
    if not pickup.any() or not dropoff.any():
        raise ValueError("mission needs both pickup and dropoff labels on reachable states")

    second = solve_reachability(mdp, alive & dropoff, alive, method=method, **kw)
    deliverable = second.positive
    switch = alive & pickup & deliverable
    first = solve_reachability(mdp, switch, alive, method=method, **kw)

    return MissionStrategy(
        value=float(first.values[mdp.init]),
        first=extract_policy(mdp, first, switch, tie_tol=tie_tol),
        second=extract_policy(mdp, second, alive & dropoff, tie_tol=tie_tol),
        switch=switch,
        sat_deliverable=deliverable,
        values_first=first.values,
        values_second=second.values,
        method=method,
    )
