"""Maximum-reachability solvers and strategy synthesis.

The mission objective is a two-stage reachability property: the vehicle must
stay alive until it reaches a pickup state from which delivery is still
possible, and from there stay alive until it reaches a dropoff state.  Both
stages reduce to constrained maximum reachability, solved either by value
iteration (sparse, monotone from below) or by the standard occupation LP.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .envmodel import DROPOFF, PICKUP
from .mdpbuild import Mdp, ranges

#: how far below its state's best backup an action's backup may fall and
#: still count as maximal when :func:`extract_policy` picks a progressing one
TIE_TOL = 1e-9

#: held while a solver assembles its matrix, so that the two stages of a
#: mission, which solve at once, never hold two assemblies' temporaries
_ASSEMBLY = threading.Lock()


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
    ``iterations`` counts value-iteration sweeps for ``"vi"``, and HiGHS's
    interior-point iterations, without crossover, for ``"lp"``.
    """

    values: np.ndarray
    positive: np.ndarray
    method: str
    iterations: Optional[int] = None
    residual: Optional[float] = None


class Predecessors(NamedTuple):
    """The positive-probability transitions of a model, grouped by successor.

    The transitions into state ``t`` are ``ptr[t]:ptr[t + 1]``; ``src`` and
    ``choice`` give the state and the choice each one leaves from.
    """

    ptr: np.ndarray
    src: np.ndarray
    choice: np.ndarray


def predecessors(mdp: Mdp) -> Predecessors:
    """Index the positive-probability transitions of ``mdp`` by successor.

    Every graph pass of one mission reads the same index, so
    :func:`synthesize_mission` builds it once and passes it on as ``preds``
    to both stages, which read it at the same time and never write it.
    """
    # converting to CSC groups the transitions by successor in one counting sort
    by_succ = _model_matrix(mdp).tocsc()
    ptr, choice = by_succ.indptr.astype(np.int64), by_succ.indices
    positive = by_succ.data > 0.0
    if not positive.all():
        ptr = np.concatenate(([0], np.cumsum(positive)))[ptr]
        choice = choice[positive]
    owner = np.repeat(np.arange(mdp.n_states, dtype=choice.dtype), np.diff(mdp.state_ptr))
    return Predecessors(ptr, owner[choice], choice)


def _backward_levels(preds: Predecessors, keep: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Breadth-first distance from each state to ``seeds`` along the kept transitions.

    ``keep`` masks the transitions of ``preds``.  Seeds sit at level 0;
    states that cannot reach them get -1.
    """
    n = len(preds.ptr) - 1
    level = np.full(n, -1, dtype=np.int64)
    level[seeds] = 0
    fresh = np.zeros(n, dtype=bool)
    frontier, depth = seeds, 0
    while frontier.size:
        depth += 1
        into = ranges(preds.ptr[frontier], preds.ptr[frontier + 1])
        found = preds.src[into[keep[into]]]
        fresh[found[level[found] < 0]] = True
        frontier = np.flatnonzero(fresh)
        fresh[frontier] = False
        level[frontier] = depth
    return level


def qualitative_reach(
    mdp: Mdp,
    target: np.ndarray,
    allowed: np.ndarray,
    *,
    preds: Optional[Predecessors] = None,
) -> np.ndarray:
    """Mask of the states with positive probability of hitting ``target`` inside ``allowed``.

    Graph fixpoint only, no numerics: grow the target set backwards through
    ``allowed`` states that have some action with a successor already inside.
    Both arguments are bool masks over the states; ``preds`` is
    :func:`predecessors` of ``mdp``, built here when not given.
    """
    if preds is None:
        preds = predecessors(mdp)
    keep = (allowed & ~target)[preds.src]
    return _backward_levels(preds, keep, np.flatnonzero(target)) >= 0


def _model_matrix(mdp: Mdp):
    """The model as a CSR matrix, one row per choice, sharing ``mdp.prob``.

    Selecting its rows or columns copies each row's entries in their order,
    and ``csr_matvec`` sums each row left to right from +0.0, as a walk over
    the row would.  Nothing may change it in place: that would change the model.
    """
    import scipy.sparse  # about 0.2 s to import, so only commands that solve pay it

    return scipy.sparse.csr_matrix((mdp.prob, mdp.succ, mdp.choice_ptr),
                                   shape=(mdp.n_choices(), mdp.n_states))


def _free_rows(mdp: Mdp, target: np.ndarray, free: np.ndarray, choices: np.ndarray):
    """The rows ``choices`` of the model on the columns ``free``, and their target mass.

    The mass of a row is its probability of moving into ``target``, summed
    in the row's order.
    """
    picked = _model_matrix(mdp)[choices]
    goal = np.flatnonzero(target)
    return picked[:, free], picked[:, goal] @ np.ones(len(goal))


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
    *,
    preds: Optional[Predecessors] = None,
) -> ValueResult:
    """Value iteration for max P[allowed U target], from below.

    ``target`` and ``allowed`` are bool masks over the states.  Iterates
    x <- max(x, max_a (c_a + Q_a x)) until the sup-norm step falls
    under ``tol``; raises :class:`ConvergenceError` past ``max_iter`` sweeps.
    ``sweep_hook``, when given, receives a copy of the free-state vector
    after every sweep (free states are the positive non-target ones, in
    ascending state order).  ``preds`` is passed on to
    :func:`qualitative_reach`.
    """
    import scipy.sparse

    positive = qualitative_reach(mdp, target, allowed, preds=preds)
    free = np.flatnonzero(positive & ~target)
    nf = len(free)
    if not nf:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)),
                           positive, "vi", iterations=0, residual=0.0)
    # row j * nf + i of the sweep matrix is free state i's j-th choice, and is
    # empty when the state has fewer choices: an empty row gives +0.0, which
    # never exceeds a real backup
    first = mdp.state_ptr[free]
    counts = mdp.state_ptr[free + 1] - first
    slots = np.arange(int(counts.max()))[:, None]
    real = (slots < counts).ravel()
    with _ASSEMBLY:
        rows, const = _free_rows(mdp, target, free, (first + slots).ravel()[real])
        # each row's const goes last, in column nf, against an iterate entry
        # fixed at one, and is left out where it is zero: a row gives S + c,
        # which rounds as c + S does
        folded = const > 0.0
        at = rows.indptr[1:][folded]
        size = np.zeros(len(real), dtype=rows.indptr.dtype)
        size[real] = np.diff(rows.indptr) + folded
        matrix = scipy.sparse.csr_matrix(
            (np.insert(rows.data, at, const[folded]), np.insert(rows.indices, at, nf),
             np.concatenate(([0], np.cumsum(size)))),
            shape=(len(real), nf + 1),
        )
        del rows  # the sweeps read only the matrix
    width = matrix.shape[0] // nf
    # two iterates that swap each sweep; entry nf of both stays 1.0 for the const column
    xe, ne = np.zeros(nf + 1), np.zeros(nf + 1)
    xe[nf] = ne[nf] = 1.0
    for sweep in range(1, max_iter + 1):
        y = matrix @ xe
        x, new = xe[:nf], ne[:nf]
        np.max(y.reshape(width, nf), axis=0, out=new)
        np.maximum(new, x, out=new)
        # new >= x, so this is the sup-norm step
        residual = float(np.max(np.subtract(new, x, out=y[:nf])))
        xe, ne = ne, xe
        if sweep_hook is not None:
            sweep_hook(new.copy())
        if residual <= tol:
            return ValueResult(_assemble(mdp, target, free, new),
                               positive, "vi", iterations=sweep, residual=residual)
    raise ConvergenceError(
        f"value iteration did not converge within {max_iter} sweeps "
        f"(last residual {residual:.3e})",
        _assemble(mdp, target, free, xe[:nf]), max_iter, residual,
    )


def max_reach_lp(
    mdp: Mdp,
    target: np.ndarray,
    allowed: np.ndarray,
    *,
    preds: Optional[Predecessors] = None,
) -> ValueResult:
    """LP route to the same values: minimize sum(x) over the Bellman cone.

    Each enabled action of a free state yields one constraint
    x_s >= c_a + sum_succ P(s,a,succ) x_succ; the minimal feasible point is
    the value vector.  Solved by HiGHS's interior point method through scipy;
    HiGHS then runs crossover, so the answer is a vertex of the cone.  The
    solution is clipped into the declared bounds [0, 1], which HiGHS may
    overshoot by a few ulps.
    """
    import scipy.optimize  # about 0.3 s to import, so only LP solves pay it
    import scipy.sparse

    positive = qualitative_reach(mdp, target, allowed, preds=preds)
    free = np.flatnonzero(positive & ~target)
    if not free.size:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)), positive, "lp")
    first, stop = mdp.state_ptr[free], mdp.state_ptr[free + 1]
    with _ASSEMBLY:
        matrix, const = _free_rows(mdp, target, free, ranges(first, stop))
        n_choices = len(const)
        # rows of (Q - E) x <= -c where E picks the owning state of each choice
        owner_rows = np.repeat(np.arange(len(free)), stop - first)
        picker = scipy.sparse.csr_matrix(
            (np.ones(n_choices), (np.arange(n_choices), owner_rows)),
            shape=(n_choices, len(free)),
        )
        a_ub = (matrix - picker).tocsc()
        del matrix, picker, owner_rows  # HiGHS reads only A_ub
    res = scipy.optimize.linprog(
        c=np.ones(len(free)),
        A_ub=a_ub,
        b_ub=-const,
        bounds=(0.0, 1.0),
        method="highs-ipm",
    )
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return ValueResult(_assemble(mdp, target, free, np.clip(res.x, 0.0, 1.0)),
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
    *,
    preds: Optional[Predecessors] = None,
) -> np.ndarray:
    """Memoryless policy attaining the values, defined on positive non-target states.

    Returns the ascending indices of the chosen choices, one per such state.
    ``preds`` is :func:`predecessors` of ``mdp``, built here when not given.

    Plain argmax can stall on a cycle whose value equals the maximum (the
    backup is tight along the loop), so among near-maximal actions we require
    strict progress: pick the lowest-index action with a successor closer to
    the target inside the near-maximal edge graph.
    """
    if preds is None:
        preds = predecessors(mdp)
    owner = mdp.choice_state()
    # each backup sums p * value over the row left to right, as a walk would
    backups = _model_matrix(mdp) @ result.values
    solved = result.positive & ~target
    states = np.flatnonzero(solved)
    acting = np.diff(mdp.state_ptr) > 0
    best = np.zeros(mdp.n_states)
    best[acting] = np.maximum.reduceat(backups, mdp.state_ptr[:-1][acting])
    candidate = solved[owner] & (backups >= best[owner] - TIE_TOL)

    # BFS distances to target through candidate edges only
    level = _backward_levels(preds, candidate[preds.choice], np.flatnonzero(target))
    unreached = states[level[states] < 0]
    if unreached.size:
        raise RuntimeError(
            f"state {unreached[0]} has positive value but no progressing action; "
            f"tie tolerance {TIE_TOL} may be too small"
        )
    dist = np.where(level >= 0, level, np.iinfo(np.int64).max)
    closer = np.repeat(dist, np.diff(preds.ptr)) < dist[preds.src]
    progressing = np.zeros(mdp.n_choices(), dtype=bool)
    progressing[preds.choice[closer]] = True
    chosen = np.flatnonzero(progressing & candidate)
    # choices are grouped by state in ascending action order: keep each state's first
    return chosen[np.diff(owner[chosen], prepend=-1) != 0]


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


def synthesize_mission(mdp: Mdp, method: str = "vi", **kw) -> MissionStrategy:
    """Solve the nested mission property and extract the switching strategy.

    The inner constraint (delivery still possible after pickup) is
    qualitative: the switch set comes from the deliver stage's graph fixpoint
    alone, before either stage is solved.  The two max-reachability solves
    then no longer depend on each other and always run at once, with no
    option to turn that off: the pickup stage on a worker thread, the
    deliver stage on the calling thread.  Their sweeps and LP solves release
    the GIL; their matrix assembly takes turns.  A deliver-stage failure wins
    over a pickup-stage one, the worker is joined before anything is raised,
    and the policies are extracted after the join, first stage first.
    ``kw`` goes to both solvers, so a ``sweep_hook`` is called from both
    threads.
    """
    alive = mdp.label("alive")
    pickup = mdp.label(PICKUP)
    dropoff = mdp.label(DROPOFF)
    if not pickup.any() or not dropoff.any():
        raise ValueError("mission needs both pickup and dropoff labels on reachable states")

    preds = predecessors(mdp)
    deliver = alive & dropoff
    deliverable = qualitative_reach(mdp, deliver, alive, preds=preds)
    switch = alive & pickup & deliverable
    outcome: dict[str, object] = {}

    def pickup_stage():
        try:
            outcome["first"] = solve_reachability(mdp, switch, alive, method=method,
                                                  preds=preds, **kw)
        except BaseException as exc:  # re-raised on the calling thread after the join
            outcome["error"] = exc

    worker = threading.Thread(target=pickup_stage, name="hostilemdp-pickup-stage")
    worker.start()
    try:
        second = solve_reachability(mdp, deliver, alive, method=method, preds=preds, **kw)
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome.pop("error")
    first = outcome["first"]

    return MissionStrategy(
        value=float(first.values[mdp.init]),
        first=extract_policy(mdp, first, switch, preds=preds),
        second=extract_policy(mdp, second, deliver, preds=preds),
        switch=switch,
        sat_deliverable=deliverable,
        values_first=first.values,
        values_second=second.values,
        method=method,
    )
