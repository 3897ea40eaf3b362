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

from .envmodel import DROPOFF, PICKUP
from .mdpbuild import HIGHS, SPARSETOOLS, Mdp, compiled, ranges

#: how far below its state's best backup an action's backup may fall and
#: still count as maximal when :func:`extract_policy` picks a progressing one
TIE_TOL = 1e-9

#: rows that :func:`_free_rows` selects at a time; it bounds the index arrays one step holds
CHUNK = 2048


class ConvergenceError(RuntimeError):
    """Raised when value iteration exhausts its iteration budget."""

    def __init__(self, message: str, values: np.ndarray, iterations: int, residual: float):
        super().__init__(message)
        self.values, self.iterations, self.residual = values, iterations, residual


@dataclass
class ValueResult:
    """Per-state reachability values plus solver bookkeeping.

    ``positive`` is the bool mask of the states with a positive value.
    ``iterations`` counts value-iteration sweeps for ``"vi"``.  For ``"lp"`` it
    counts HiGHS's interior-point iterations without crossover, ``linprog``'s
    ``nit``, or, when the LP starts from a policy, its simplex iterations: 0 when
    that policy's basis is already optimal.
    """

    values: np.ndarray
    positive: np.ndarray
    method: str
    iterations: Optional[int] = None
    residual: Optional[float] = None


def _backward_levels(mdp: Mdp, keep: np.ndarray,
                     seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first distance from each state to ``seeds`` along the kept transitions.

    ``keep`` masks the transitions of :attr:`Mdp.predecessors`.  Returns
    ``(level, via)``: seeds sit at level 0 and states that cannot reach them
    get -1; ``via[s]`` is the least choice of ``s`` with a kept transition
    into level ``level[s] - 1``, and -1 for seeds and unreached states.
    Each level's incoming transitions are gathered by one scipy
    ``csr_row_index`` over ``ptr`` and ``choice``, with ``keep`` as the data;
    every index array is int64, so nothing is cast.
    """
    csr_row_index = compiled(SPARSETOOLS).csr_row_index  # what ``matrix[rows]`` calls
    preds, owner = mdp.predecessors, mdp.owner
    level = np.full(mdp.n_states, -1, dtype=np.int64)
    level[seeds] = 0
    via = np.full(mdp.n_states, -1, dtype=np.int64)
    unlevelled = np.ones(mdp.n_choices(), dtype=bool)  # the choices of states with no level yet
    frontier, depth = seeds, 0
    while frontier.size:
        depth += 1
        unlevelled[ranges(mdp.state_ptr[frontier], mdp.state_ptr[frontier + 1])] = False
        size = int((preds.ptr[frontier + 1] - preds.ptr[frontier]).sum())
        choice, kept = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
        csr_row_index(len(frontier), frontier, preds.ptr, preds.choice, keep, choice, kept)
        choice = choice[kept & unlevelled[choice]]
        src = owner[choice]
        level[src] = depth
        via[src] = mdp.n_choices()  # above every choice, for the least to replace
        np.minimum.at(via, src, choice)
        frontier = np.flatnonzero(level == depth)
    return level, via


def qualitative_reach(mdp: Mdp, target: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Mask of the states with positive probability of hitting ``target`` inside ``allowed``.

    Graph fixpoint only, no numerics: grow the target set backwards through
    ``allowed`` states that have some action with a successor already inside.
    Both arguments are bool masks over the states.
    """
    keep = (allowed & ~target)[mdp.owner][mdp.predecessors.choice]
    return _backward_levels(mdp, keep, np.flatnonzero(target))[0] >= 0


def _matvec(mdp: Mdp, x: np.ndarray) -> np.ndarray:
    """Each choice's sum of p * ``x[succ]``, left to right from +0.0, as a walk over a row adds."""
    mdp.check_arrays()
    if x.shape != (mdp.n_states,):
        raise ValueError(f"{x.shape} values for {mdp.n_states} states")
    y = np.zeros(mdp.n_choices())
    compiled(SPARSETOOLS).csr_matvec(mdp.n_choices(), mdp.n_states, mdp.choice_ptr, mdp.succ,
                                     mdp.prob, x, y)
    return y


def _free_rows(mdp: Mdp, target: np.ndarray, free: np.ndarray, choices: np.ndarray):
    """The rows ``choices`` of the model on the columns ``free``, each ended by its target mass.

    Returns CSR ``(indptr, indices, data)``.  A row's mass is its probability
    of moving into ``target``, summed in row order from +0.0; a non-target
    entry adds p * 0.0 = +0.0, which changes no sum.  Each nonzero mass ends
    its row, in one more column, ``len(free)``.

    The scipy kernels of ``matrix[rows]``, ``matrix[:, cols]`` and CSR
    ``hstack`` do the work on the model's own arrays.  ``csr_column_index1``
    counts every model row's free entries once.  Then, ``CHUNK`` rows at a
    time, ``csr_row_index`` gathers the rows, ``csr_column_index2`` keeps
    and renumbers their free entries in order, and ``csr_hstack`` ends each
    row with its mass.  Value iteration reads the result every sweep, so its
    index arrays are int32 where every model entry plus one per row fits.
    """
    kernels = compiled(SPARSETOOLS)
    mass = _matvec(mdp, target.astype(float))[choices]
    ended = mass > 0.0
    last_value = mass[ended]
    del mass  # not held through the chunks
    # ``before[c]``: free entries in the model's rows before row ``c``; ``offsets[j]``:
    # free columns up to column ``j``
    offsets = np.zeros(mdp.n_states, dtype=np.int64)
    before = np.empty(mdp.n_choices() + 1, dtype=np.int64)
    kernels.csr_column_index1(len(free), free, mdp.n_choices(), mdp.n_states, mdp.choice_ptr,
                              mdp.succ, offsets, before)
    position = np.argsort(free)  # in ``free``, of the free columns in ascending order
    small = mdp.n_transitions() + len(choices) <= np.iinfo(np.int32).max
    indptr = np.zeros(len(choices) + 1, dtype=np.int32 if small else np.int64)
    np.cumsum(before[choices + 1] - before[choices] + ended, out=indptr[1:])
    del before
    # each chunk's entries in the model
    sizes = np.add.reduceat(np.diff(mdp.choice_ptr)[choices], np.arange(0, len(choices), CHUNK))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=indptr.dtype)
    widths = np.array([len(free), 1])
    done = 0
    for lo, size in zip(range(0, len(choices), CHUNK), sizes.tolist()):
        hi = min(lo + CHUNK, len(choices))
        picked, values = np.empty(size, dtype=np.int64), np.empty(size)
        kernels.csr_row_index(hi - lo, choices[lo:hi], mdp.choice_ptr, mdp.succ, mdp.prob,
                              picked, values)
        # the free entries, then the end entries, as two blocks for csr_hstack
        ends = np.concatenate(([0], np.cumsum(ended[lo:hi])))
        blocks = np.concatenate((indptr[lo:hi + 1] - indptr[lo] - ends, ends))
        split, stop = blocks[hi - lo], indptr[hi] - indptr[lo]
        slot, value = np.empty(stop, dtype=np.int64), np.empty(stop)
        kernels.csr_column_index2(position, offsets, size, picked, values,
                                  slot[:split], value[:split])
        slot[split:] = 0
        value[split:] = last_value[done:done + ends[-1]]
        done += ends[-1]
        fill, joined = slice(indptr[lo], indptr[hi]), np.empty(stop, dtype=np.int64)
        kernels.csr_hstack(2, hi - lo, widths, blocks, slot, value,
                           np.empty(hi - lo + 1, dtype=np.int64), joined, data[fill])
        indices[fill] = joined
        del picked, values, slot, value, joined  # before the next chunk's are made
    return indptr, indices, data


def _sweep_matrix(mdp: Mdp, target: np.ndarray, free: np.ndarray):
    """The free states in sweep order, and VI's matrix over them as CSR ``(indptr, indices, data)``.

    The matrix has one row per choice slot: row ``j * nf + i`` is free state
    ``i``'s ``j``-th choice, or empty (+0.0, below any real backup) when the
    state has fewer.  A nonzero target mass ends its row, in column ``nf``
    against an iterate entry fixed at one: the row gives S + c, which rounds
    as c + S does.  Sweep order sorts the states by the model's row lengths
    of their choices, slot 0 first, ties in ascending order, so rows of about
    equal length sit side by side in every slot block, where ``csr_matvec``'s
    row loop runs faster.  Every row keeps its entries in their order and a
    max is exact, so no value changes by a bit.
    """
    counts = np.diff(mdp.state_ptr)[free]
    slots = np.arange(int(counts.max()))[:, None]
    choices, real = mdp.state_ptr[free] + slots, slots < counts
    lengths = np.zeros(real.shape, dtype=np.int16)  # a longer row wraps: it only sorts worse
    lengths[real] = np.diff(mdp.choice_ptr)[choices[real]]
    order = np.lexsort(lengths[::-1])
    free, real = free[order], real[:, order].ravel()
    choices = choices[:, order].ravel()[real]
    del counts, lengths, order
    ptr, indices, data = _free_rows(mdp, target, free, choices)
    indptr = np.zeros(len(real) + 1, dtype=ptr.dtype)
    indptr[1:][real] = np.diff(ptr)
    np.cumsum(indptr, out=indptr)
    return free, (indptr, indices, data)


def _lp_inputs(mdp: Mdp, target: np.ndarray, free: np.ndarray):
    """The LP's ``(A_ub, b_ub)`` over ``free``: rows (Q - E) x <= -c, E picking choice owners.

    ``A_ub`` is CSC ``(indptr, indices, data)``, made by the kernels of ``(rows - E).tocsc()``
    on :func:`_free_rows`' arrays.  E misses their end column, which ends the result with each
    row's target mass at most once; ``b_ub`` is -0.0 where a row has none.
    """
    first, stop = mdp.state_ptr[free], mdp.state_ptr[free + 1]
    choices = ranges(first, stop)
    rows, cols, kernels = len(choices), len(free) + 1, compiled(SPARSETOOLS)
    indptr, indices, data = _free_rows(mdp, target, free, choices)
    most = int(indptr[-1]) + rows  # the entries of both operands, which set scipy's index dtype
    kind = np.int32 if most <= np.iinfo(np.int32).max else np.int64
    csr, csc = ((np.empty(n + 1, kind), np.empty(most, kind), np.empty(most)) for n in (rows, cols))
    owners = np.repeat(np.arange(cols - 1, dtype=kind), stop - first)
    kernels.csr_minus_csr(rows, cols, indptr.astype(kind), indices.astype(kind), data,
                          np.arange(rows + 1, dtype=kind), owners, np.ones(rows), *csr)
    kernels.csr_tocsc(rows, cols, *csr, *csc)
    ptr, row, entry = csc
    end, nnz = ptr[-2], ptr[-1]  # the end column's entries, the target masses, close the arrays
    b_ub = -np.bincount(row[end:nnz], entry[end:nnz], rows).astype(float)  # ints if none
    return (ptr[:-1], row[:end], entry[:end]), b_ub


def _assemble(mdp, target, free, x):
    values = np.zeros(mdp.n_states)
    values[target], values[free] = 1.0, x
    return values


def _check_budget(tol: float, max_iter: int) -> None:
    if not tol >= 0.0:  # no sweep could meet a NaN or negative tolerance
        raise ValueError(f"tol must be at least 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def max_reach_vi(mdp: Mdp, target: np.ndarray, allowed: np.ndarray, tol: float = 1e-9,
                 max_iter: int = 10**6, *,
                 positive: Optional[np.ndarray] = None) -> ValueResult:
    """Value iteration for max P[allowed U target], from below.

    ``target`` and ``allowed`` are bool masks over the states.  Iterates
    x <- max_a (c_a + Q_a x) from x = 0 until the sup-norm step falls
    under ``tol``; raises :class:`ConvergenceError` past ``max_iter`` sweeps,
    and :class:`ValueError` if ``tol`` is NaN or negative or ``max_iter`` is below 1.
    ``positive`` is the stage's :func:`qualitative_reach` when the caller
    has made it already.

    A sweep is one raw ``csr_matvec`` into a zeroed buffer, as ``matrix @ x``
    makes it, and a max over the choice slots; it allocates nothing.  It
    needs no max with the last iterate: with the non-negative probabilities
    that :func:`~hostilemdp.mdpbuild.validate_mdp` accepts, every rounded
    product, sum and max is monotone in ``x``, so from x = 0 each iterate is
    at least the last, bit for bit.  The sup-norm step is computed only when
    one probe state moves by at most ``tol``, or at ``max_iter``: while the
    probe moves by more, so does the sup norm.  The probe is the first free
    state, then the one with the largest step at the last full check.  So
    the stop sweep, the returned residual and the error's residual are those
    of a full check after every sweep.
    """
    _check_budget(tol, max_iter)
    csr_matvec = compiled(SPARSETOOLS).csr_matvec  # what ``matrix @ x`` calls
    if positive is None:
        positive = qualitative_reach(mdp, target, allowed)
    free = np.flatnonzero(positive & ~target)
    if not free.size:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)),
                           positive, "vi", iterations=0, residual=0.0)
    free, (indptr, indices, data) = _sweep_matrix(mdp, target, free)
    nf, rows = len(free), len(indptr) - 1
    # two iterates that swap each sweep; entry nf of both stays 1.0 for the const column
    xe, ne = np.zeros(nf + 1), np.zeros(nf + 1)
    xe[nf] = ne[nf] = 1.0
    y, step = np.empty(rows), np.empty(nf)
    slots = y.reshape(rows // nf, nf)
    probe = 0
    for sweep in range(1, max_iter + 1):
        y.fill(0.0)  # csr_matvec adds onto y: each row sums left to right from +0.0
        csr_matvec(rows, nf + 1, indptr, indices, data, xe, y)
        x, new = xe[:nf], ne[:nf]
        np.maximum.reduce(slots, axis=0, out=new)
        xe, ne = ne, xe
        if new[probe] - x[probe] > tol and sweep < max_iter:
            continue
        # new >= x, so this is the sup-norm step
        np.subtract(new, x, out=step)
        probe = int(step.argmax())
        residual = float(step[probe])
        if residual <= tol:
            return ValueResult(_assemble(mdp, target, free, new),
                               positive, "vi", iterations=sweep, residual=residual)
    raise ConvergenceError(
        f"value iteration did not converge within {max_iter} sweeps (last residual {residual:.3e})",
        _assemble(mdp, target, free, xe[:nf]), max_iter, residual)


def _highs(A_ub, b_ub, solver: str, tight: Optional[np.ndarray] = None):
    """min sum(x) subject to A_ub x <= b_ub and 0 <= x <= 1, by HiGHS's ``solver``.

    ``A_ub`` is CSC ``(indptr, indices, data)`` of ``len(b_ub)`` rows.  This is the
    one place that fills HiGHS's model: it gets the arrays, bounds and options that
    ``linprog(method="highs-ipm")`` passes it, with ``solver`` in place of ``"ipm"``.
    With ``tight``, the run starts from the basis of every column and of every row
    but the rows ``tight``, which sit at their upper bounds.  Returns ``x`` and
    HiGHS's info, or raises :class:`RuntimeError` unless the model is optimal.
    """
    h = compiled(HIGHS)
    rows, cols, lp = len(b_ub), len(A_ub[0]) - 1, h.HighsLp()
    a = lp.a_matrix_
    lp.num_col_, lp.num_row_, a.num_col_, a.num_row_ = cols, rows, cols, rows
    a.format_ = h.MatrixFormat.kColwise
    a.start_, a.index_, a.value_ = A_ub
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = np.ones(cols), np.zeros(cols), np.ones(cols)
    lp.row_lower_, lp.row_upper_ = np.full(rows, -h.kHighsInf), b_ub
    options, highs = h.HighsOptions(), h._Highs()
    options.presolve, options.solver = "on", solver
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    highs.passOptions(options)
    highs.passModel(lp)
    if tight is not None:
        kind, basis = h.HighsBasisStatus, h.HighsBasis()
        basis.col_status = [kind.kBasic] * cols
        row_status = np.full(rows, kind.kBasic, dtype=object)
        row_status[tight] = kind.kUpper
        basis.row_status = row_status.tolist()
        basis.valid = True
        if highs.setBasis(basis) != h.HighsStatus.kOk:
            raise RuntimeError("LP solve failed: HiGHS refused the starting basis")
    highs.run()
    if (status := highs.getModelStatus()) != h.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solve failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value), highs.getInfo()


def _highs_ipm(A_ub, b_ub) -> tuple[np.ndarray, int]:
    """The LP of :func:`_highs` by interior point: ``x`` and the iteration count are
    ``linprog(method="highs-ipm")``'s, bit for bit."""
    x, info = _highs(A_ub, b_ub, "ipm")
    return x, info.ipm_iteration_count


def _highs_simplex(A_ub, b_ub, tight: np.ndarray) -> tuple[np.ndarray, int]:
    """The LP of :func:`_highs` by simplex from the basis where the rows ``tight`` hold
    with equality: ``x`` and the simplex iteration count."""
    x, info = _highs(A_ub, b_ub, "simplex", tight)
    return x, info.simplex_iteration_count


def max_reach_lp(mdp: Mdp, target: np.ndarray, allowed: np.ndarray, *,
                 positive: Optional[np.ndarray] = None,
                 start: Optional[np.ndarray] = None) -> ValueResult:
    """LP route to the same values: minimize sum(x) over the Bellman cone.

    Each enabled action of a free state yields one constraint
    x_s >= c_a + sum_succ P(s,a,succ) x_succ; the minimal feasible point is
    the value vector.  Without ``start``, :func:`_highs_ipm` finds it or
    raises; HiGHS runs crossover, so the answer is a vertex of the cone.
    ``start`` is a policy in the form :func:`extract_policy` returns, one
    choice per free state in ascending order, or :class:`ValueError` is
    raised.  Its rows are made tight, which is the optimal basis when the
    policy is optimal, and :func:`_highs_simplex` starts from there.  Simplex
    stops only at a basis that is primal and dual feasible within HiGHS's
    tolerances, so a start that is not optimal is pivoted away: it changes
    the path to the optimum, not the check of it.  Either way the answer is
    clipped into the bounds [0, 1], which HiGHS may overshoot by a few ulps.
    ``positive`` is as for :func:`max_reach_vi`.
    """
    if positive is None:
        positive = qualitative_reach(mdp, target, allowed)
    free = np.flatnonzero(positive & ~target)
    if start is not None:
        start = np.asarray(start)
        if (start.shape != free.shape or start.dtype.kind not in "iu"
                or not ((start >= 0) & (start < mdp.n_choices())).all()
                or not np.array_equal(mdp.owner[start], free)):
            raise ValueError(f"start must hold one choice of each of the {len(free)} free "
                             "states, in ascending state order")
    if not free.size:
        return ValueResult(_assemble(mdp, target, free, np.zeros(0)), positive, "lp")
    A_ub, b_ub = _lp_inputs(mdp, target, free)
    if start is None:
        x, iterations = _highs_ipm(A_ub, b_ub)
    else:
        # the rows are the free states' choices in state order, so ascending
        tight = np.searchsorted(ranges(mdp.state_ptr[free], mdp.state_ptr[free + 1]), start)
        x, iterations = _highs_simplex(A_ub, b_ub, tight)
    return ValueResult(_assemble(mdp, target, free, np.clip(x, 0.0, 1.0)),
                       positive, "lp", iterations=iterations)


def extract_policy(mdp: Mdp, result: ValueResult, target: np.ndarray) -> np.ndarray:
    """Memoryless policy attaining the values, defined on positive non-target states.

    Returns the ascending indices of the chosen choices, one per such state.

    Plain argmax can stall on a cycle whose value equals the maximum (the
    backup is tight along the loop), so among near-maximal actions we require
    strict progress: pick the lowest-index action with a positive-probability
    successor closer to the target inside the near-maximal edge graph.  The
    backward search over that graph finds it as it goes.  A state at level d
    has no near-maximal edge into a level below d - 1, or the search would
    have levelled it earlier, so a successor nearer than the state is one at
    level d - 1, and the action sought is the least that enters that level.
    """
    owner = mdp.owner
    # each backup sums p * value over the row left to right, as a walk would
    backups = _matvec(mdp, result.values)
    solved = result.positive & ~target
    states = np.flatnonzero(solved)
    acting = np.diff(mdp.state_ptr) > 0
    best = np.zeros(mdp.n_states)
    best[acting] = np.maximum.reduceat(backups, mdp.state_ptr[:-1][acting])
    candidate = solved[owner] & (backups >= best[owner] - TIE_TOL)

    level, via = _backward_levels(mdp, candidate[mdp.predecessors.choice], np.flatnonzero(target))
    unreached = states[level[states] < 0]
    if unreached.size:
        raise RuntimeError(f"state {unreached[0]} has positive value but no progressing action; "
                           f"tie tolerance {TIE_TOL} may be too small")
    return via[states]


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


def synthesize_mission(mdp: Mdp, method: str = "vi", tol: float = 1e-9,
                       max_iter: int = 10**6, *,
                       start: Optional[MissionStrategy] = None) -> MissionStrategy:
    """Solve the nested mission property and extract the switching strategy.

    The inner constraint (delivery still possible after pickup) is
    qualitative: the switch set comes from the deliver stage's graph fixpoint
    alone, which is also that stage's positive set, so ``qualitative_reach``
    runs twice.  After that first graph pass on the calling thread, each stage
    runs start to finish on its own thread: its graph pass if it needs one,
    its solve, which assembles the stage, and its policy extraction.  The
    pickup stage runs on a worker thread and the deliver stage on the calling
    thread.  The worker is joined before anything is raised, and errors win
    in the order deliver solve, pickup solve, pickup extraction, deliver
    extraction, as in the stages solved one after the other.  ``tol`` and
    ``max_iter`` go to :func:`max_reach_vi` when ``method`` is ``"vi"``.
    ``start``, a strategy of the same model such as value iteration's, is
    for ``"lp"`` only: its ``first`` policy starts the pickup stage's LP and
    its ``second`` the deliver stage's, as :func:`max_reach_lp` describes.
    """
    if method not in ("vi", "lp"):
        raise ValueError(f"unknown method {method!r}, expected one of ['lp', 'vi']")
    if start is not None and method != "lp":
        raise ValueError(f"a start applies to method 'lp' only, not {method!r}")
    _check_budget(tol, max_iter)
    alive, pickup, dropoff = mdp.label("alive"), mdp.label(PICKUP), mdp.label(DROPOFF)
    if not pickup.any() or not dropoff.any():
        raise ValueError("mission needs both pickup and dropoff labels on reachable states")

    def solve(target, policy, positive=None):
        # the solvers are looked up when called, so a wrapper set on the module is used
        if method == "lp":
            return max_reach_lp(mdp, target, alive, positive=positive, start=policy)
        return max_reach_vi(mdp, target, alive, tol=tol, max_iter=max_iter, positive=positive)

    def run(target, policy):
        result = solve(target, policy)
        return result, extract_policy(mdp, result, target)

    deliver = alive & dropoff
    # this first graph pass checks the model and builds owner and predecessors before any worker
    deliverable = qualitative_reach(mdp, deliver, alive)
    switch = alive & pickup & deliverable
    from concurrent.futures import ThreadPoolExecutor  # 4-6 ms that only a mission pays

    with ThreadPoolExecutor(1, thread_name_prefix="hostilemdp-pickup-stage") as pool:
        future = pool.submit(run, switch, None if start is None else start.first)
        second = solve(deliver, None if start is None else start.second, deliverable)
        try:
            second_policy, failed = extract_policy(mdp, second, deliver), None
        except Exception as exc:  # every pickup-stage error is raised before it
            failed = exc
    first, first_policy = future.result()
    if failed is not None:
        raise failed

    return MissionStrategy(
        value=float(first.values[mdp.init]), first=first_policy, second=second_policy,
        switch=switch, sat_deliverable=deliverable, values_first=first.values,
        values_second=second.values, method=method)
