"""Explicit MDP construction from an environment.

States track where the vehicle is (facet, region being crossed), what it
observed there (adversary count, obstacle level), whether it is still alive,
and one belief per adjacent region.  Actions are the motion primitives
leaving the current facet across the current region, plus a dummy ``stay``
action that makes lost and dead-end states absorbing.

For one state/primitive pair the outgoing row mixes three families:

* crossing completes: the vehicle reaches an exit facet, survives with
  1 - p_lost(count, level), and re-enters the world on the far side with a
  fresh observation drawn from its tracked belief about the entered region;
* an adversary enters the current region from a neighbour that can spare one
  (count + 1, that neighbour's belief conditioned on the departure);
* an adversary leaves the current region into a neighbour that can take one
  (count - 1, that neighbour's belief conditioned on the arrival).

The race between these events is exponential, so each family's weight is its
rate divided by the total estimated rate; rows therefore sum to one exactly
(up to float rounding) by construction.

Losing the vehicle ends the run, so the would-be observation and belief
components of a lost successor are unobservable; all lost mass for a landing
(facet, region) flows into one canonical absorbing state there.
"""

from __future__ import annotations

import sys
import threading
import zipfile
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import machinery, util
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .belief import ENTERED, LEFT, AdversaryBelief, BeliefSet, enumerate_reachable, expectation
from .envmodel import DROPOFF, MAX_ADVERSARIES, PICKUP, Environment

STAY = "stay"

#: how far past one :func:`validate_mdp` lets a probability, or a row's sum either way, go
ROW_TOL = 1e-9

#: most states one build round expands; it bounds the round's working arrays
BATCH = 2048

#: lines the PRISM export joins and writes at a time, and about the lines of
#: one ``.tra`` block; it bounds the text and the arrays held
CHUNK = 4096

#: the compiled scipy modules that the CSR kernels of scipy.sparse and linprog's HiGHS live in
SPARSETOOLS, HIGHS = "scipy.sparse._sparsetools", "scipy.optimize._highspy._core"
_LOADS = {SPARSETOOLS: threading.Lock(), HIGHS: threading.Lock()}


def compiled(name: str):
    """scipy's compiled module ``name``, loaded by file path, so that no scipy ``__init__`` runs.

    It is loaded once, under a lock of its own, into ``sys.modules``, where ``import`` finds it.
    """
    with _LOADS[name]:
        if name not in sys.modules:
            folder = Path(util.find_spec("scipy").origin).parent.joinpath(*name.split(".")[1:-1])
            kind = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
            spec = machinery.FileFinder(str(folder), kind).find_spec(name)
            if spec is None:
                from importlib.metadata import version
                raise RuntimeError(f"scipy {version('scipy')} lacks {name} (scipy>=1.15 has it)")
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return sys.modules[name]


class VehicleState(NamedTuple):
    """One MDP state; ``beliefs`` holds positions in each neighbour's BeliefSet."""

    facet: str
    region: str
    count: int
    level: int
    alive: bool
    beliefs: tuple[int, ...]


@dataclass(eq=False)
class StateTable:
    """The vehicle states of a model as columns, one row per state.

    State ``s`` is at facet ``facet_names[facet[s]]`` crossing region
    ``region_names[region[s]]``, observed ``count[s]`` adversaries and
    obstacle level ``level[s]``, and is alive when ``alive[s]``.  The names
    list every facet and region in declaration order.  ``beliefs`` has one
    column, or lane, per neighbour slot: lane ``i`` of a state in region
    ``r`` is its position in the BeliefSet of ``r``'s ``i``-th neighbour,
    below that closure's size ``closures[r, i]``.  ``closures`` is a
    (regions, lanes) matrix, 0 past a region's lanes, and a state's lanes
    there hold 0.  Row ``windows[r]`` is region ``r``'s obstacle level count
    and its adversary floor and ceiling: a state in ``r`` has a level below
    the first and a count between the other two.  The index columns are
    int64, ``beliefs``, ``closures`` and ``windows`` are int64 matrices and
    ``alive`` is bool.
    """

    facet_names: np.ndarray
    facet: np.ndarray
    region_names: np.ndarray
    region: np.ndarray
    count: np.ndarray
    level: np.ndarray
    alive: np.ndarray
    beliefs: np.ndarray
    closures: np.ndarray
    windows: np.ndarray

    # indexing returns one state; the table is not a sequence of them
    __iter__ = None

    def __len__(self) -> int:
        return len(self.alive)

    def __getitem__(self, s: int) -> VehicleState:
        region = self.region[s]
        return VehicleState(
            str(self.facet_names[self.facet[s]]), str(self.region_names[region]),
            int(self.count[s]), int(self.level[s]), bool(self.alive[s]),
            tuple(self.beliefs[s, :np.count_nonzero(self.closures[region])].tolist()),
        )

    def take(self, rows) -> StateTable:
        """The states ``rows``, sharing the names, closures and windows."""
        return replace(self, facet=self.facet[rows], region=self.region[rows],
                       count=self.count[rows], level=self.level[rows], alive=self.alive[rows],
                       beliefs=self.beliefs[rows])

    def lanes(self) -> np.ndarray:
        """The number of lanes of each region, in ``region_names`` order."""
        # every closure has a member, so a region's lanes are its nonzero sizes
        return np.count_nonzero(self.closures, axis=1)


class MdpFormatError(ValueError):
    """Raised when a file is not a readable MDP dump."""


#: the documented dtype of each of the model's flat arrays
_DTYPES = {"state_ptr": "int64", "choice_action": "int64", "choice_ptr": "int64", "succ": "int64",
           "prob": "float64"}


@dataclass
class Mdp:
    """Explicit sparse MDP in flat (CSR) arrays.

    State ``s`` owns choices ``state_ptr[s]:state_ptr[s + 1]``, in ascending
    order of their global action index ``choice_action[c]``.  Choice ``c``
    moves to ``succ[k]`` with probability ``prob[k]`` for ``k`` in
    ``choice_ptr[c]:choice_ptr[c + 1]``, in the order the builder produced
    them.  The four index arrays are int64 and ``prob`` is float64.
    ``states`` describes the vehicle in each state (a :class:`StateTable`;
    ``None`` for hand-built models, which have no vehicle).  Each entry of
    ``labels`` is a bool mask over the states.
    A set of states is such a mask everywhere in the package, and a policy
    is the ascending int64 array of the choices it plays, one per state it
    covers; the simulator refuses any other with a ValueError that names the
    state.  The solvers and the simulator hand these arrays, as stored, to
    scipy's CSR kernels (:func:`compiled`), one row per choice; the package
    builds no ``scipy.sparse`` matrix.  A model must not change once it has
    been solved: the outcome of :meth:`check_arrays`, :attr:`owner` and
    :attr:`predecessors` are kept for its whole life.
    """

    states: StateTable | None
    action_names: list[str]
    state_ptr: np.ndarray
    choice_action: np.ndarray
    choice_ptr: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    init: int
    labels: dict[str, np.ndarray]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.state_ptr) - 1

    def n_choices(self) -> int:
        return len(self.choice_action)

    def n_transitions(self) -> int:
        return len(self.succ)

    def label(self, name: str) -> np.ndarray:
        """The states carrying label ``name`` as a bool mask; all false if it is absent."""
        found = self.labels.get(name)
        return np.zeros(self.n_states, dtype=bool) if found is None else found

    def transition_choice(self) -> np.ndarray:
        """The choice that owns each transition."""
        return np.repeat(np.arange(self.n_choices()), np.diff(self.choice_ptr))

    def check_arrays(self) -> None:
        """Raise ValueError unless scipy's kernels, which check no bound, may read the arrays.

        Checks the dtypes, both pointers, the successor range and ``init``,
        which indexes every solver's values, once per model, before its first
        kernel call; :func:`validate_mdp` reports the same problems instead.
        """
        if self._array_problem is not None:
            raise ValueError(f"{self._array_problem}; see validate_mdp")

    @cached_property
    def _array_problem(self) -> str | None:
        n, succ = self.n_states, self.succ
        outside = len(succ) and not 0 <= succ.min() <= succ.max() < n
        problems = [*_layout_problems(self),
                    f"a successor is not one of the {n} states" if outside else None,
                    None if 0 <= self.init < n else f"initial state {self.init} out of range"]
        return next(filter(None, problems), None)

    @cached_property
    def owner(self) -> np.ndarray:
        """The state that owns each choice.

        Built on first use and kept, like :attr:`predecessors`; nothing may change it.
        """
        return np.repeat(np.arange(self.n_states), np.diff(self.state_ptr))

    @cached_property
    def predecessors(self) -> Predecessors:
        """The positive-probability transitions of the model, grouped by successor.

        Built on first use by ``csr_tocsc``, the kernel of ``tocsc()``, and
        kept: every graph pass of every solve reads the same index and never
        writes it.  Two threads may read it at once, but only one may build
        it, since ``cached_property`` takes no lock.
        """
        self.check_arrays()
        # one counting sort by successor; each successor's transitions stay in entry order
        ptr, choice, prob = (np.empty(self.n_states + 1, dtype=np.int64),
                             np.empty_like(self.succ), np.empty_like(self.prob))
        compiled(SPARSETOOLS).csr_tocsc(self.n_choices(), self.n_states, self.choice_ptr,
                                        self.succ, self.prob, ptr, choice, prob)
        positive = prob > 0.0
        if not positive.all():
            ptr = np.concatenate(([0], np.cumsum(positive)))[ptr]
            choice = choice[positive]
        return Predecessors(ptr, choice)


class Predecessors(NamedTuple):
    """The positive-probability transitions of a model, grouped by successor.

    The transitions into state ``t`` are ``ptr[t]:ptr[t + 1]``; ``choice``
    gives the choice each one leaves from, whose state is :attr:`Mdp.owner`.
    Both are int64, as the model's own index arrays are.
    """

    ptr: np.ndarray
    choice: np.ndarray


def ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], ends[i])`` over ``i``."""
    lengths = ends - starts
    total = int(lengths.sum())
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(total)


@dataclass(frozen=True)
class Violation:
    state: int
    action: int | None
    kind: str
    detail: str


def _int_array(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def _float_array(values) -> np.ndarray:
    return np.array(list(values), dtype=np.float64)


def _pointer(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(_int_array(lengths))))


class MdpBuilder:
    """Expands the reachable state space of an environment.

    The builder keeps its per-region and per-primitive tables as flat
    arrays, built once from the environment and the belief closures.
    Member ``pos`` of region ``r``'s belief closure is belief
    ``first[r] + pos``; ``left``, ``entered`` (positions, -1 where the update
    is absent), ``expect`` and ``draw_ptr`` are indexed by it.  The fresh
    observations drawn from belief ``b`` are ``draw_ptr[b]:draw_ptr[b + 1]``,
    each count then each obstacle level of ``r``: ``draw_count_p`` and
    ``draw_level_p`` give their pmf entries and ``draw_landed`` the offset
    ``count * levels[r] + level``.
    ``lane_region[r, i]`` is the ``i``-th neighbour of ``r`` (-1 past the
    neighbour count).  Facet-region pair ``p`` is ``pairs[p]``; the
    primitives leaving it are ``prim_action[prim_ptr[p]:prim_ptr[p + 1]]``,
    in declaration order.  Primitive ``j`` ends at the exits
    ``exit_ptr[j]:exit_ptr[j + 1]``, in ``exit_facets()`` order, and loses
    the vehicle at (count, level) with probability
    ``lost[lost_first[j] + count * levels[region] + level]``.  Exit ``x``
    loses it into the state of key ``lost_key[x]`` and lands it, with a
    fresh observation of offset ``d``, in ``landed_key[landed_first[x] + d]``.
    """

    def __init__(self, env: Environment):
        self.env = env
        regions = list(env.regions.values())
        # regions that start from one belief share its closure, its updates and its expectations
        closures: dict[AdversaryBelief, tuple[BeliefSet, np.ndarray, np.ndarray, np.ndarray]] = {}
        for region in regions:
            if region.initial_belief not in closures:
                bset = enumerate_reachable(region.initial_belief)
                closures[region.initial_belief] = (
                    bset,
                    _int_array(e.get(LEFT, -1) for e in bset.edges),
                    _int_array(e.get(ENTERED, -1) for e in bset.edges),
                    _float_array(float(expectation(b)) for b in bset.members))
        bsets, left, entered, expect = zip(*(closures[r.initial_belief] for r in regions))
        self.belief_sets: dict[str, BeliefSet] = dict(zip(env.regions, bsets))
        self.neighbors = env.adjacency()
        region_ids, facet_ids = list(env.regions), list(env.facets)
        region_of = {rid: r for r, rid in enumerate(region_ids)}
        facet_of = {fid: f for f, fid in enumerate(facet_ids)}
        self.floor = _int_array(r.min_adversaries for r in regions)
        self.ceil = _int_array(r.max_adversaries for r in regions)
        self.levels = _int_array(r.max_obstacle_level + 1 for r in regions)
        # every table the builder decodes shares these
        self.facet_names = np.array(facet_ids, dtype=str)
        self.region_names = np.array(region_ids, dtype=str)
        self.windows = np.column_stack((self.levels, self.floor, self.ceil))
        self.mu_enter = _float_array(r.mu_enter for r in regions)
        self.mu_leave = _float_array(r.mu_leave for r in regions)

        lanes = [[region_of[n] for n in self.neighbors[rid]] for rid in region_ids]
        self.width = max(map(len, lanes))
        self.lane_region = np.full((len(lanes), self.width), -1, dtype=np.int64)
        for r, row in enumerate(lanes):
            self.lane_region[r, :len(row)] = row
        sizes = _int_array(map(len, bsets))
        self.closures = np.where(self.lane_region >= 0, sizes[self.lane_region], 0)

        self.first = _pointer(map(len, bsets))[:-1]
        self.left, self.entered, self.expect = map(np.concatenate, (left, entered, expect))
        # a fresh observation drawn from a belief about region r: each count, then each
        # level; regions with one closure and one obstacle pmf share the list
        observed: dict[tuple, list[list[tuple[float, float, int]]]] = {}
        draws = []
        for region, bset in zip(regions, bsets):
            obstacles = tuple(region.obstacle_items())
            spec = (region.initial_belief, region.max_obstacle_level, obstacles)
            if spec not in observed:
                levels = region.max_obstacle_level + 1
                observed[spec] = [[(float(pn), float(po), n * levels + o)
                                   for n, pn in b.items() for o, po in obstacles]
                                  for b in bset.members]
            draws += observed[spec]
        self.draw_ptr = _pointer(map(len, draws))
        self.draw_count_p = _float_array(pn for group in draws for pn, _, _ in group)
        self.draw_level_p = _float_array(po for group in draws for _, po, _ in group)
        self.draw_landed = _int_array(at for group in draws for _, _, at in group)

        self.pairs = [(fid, rid) for fid, facet in env.facets.items() for rid in facet.regions]
        self.pair = np.full((len(facet_ids), len(region_ids)), -1, dtype=np.int64)
        self.pair_facet = _int_array(facet_of[fid] for fid, _ in self.pairs)
        self.pair_region = _int_array(region_of[rid] for _, rid in self.pairs)
        self.pair[self.pair_facet, self.pair_region] = np.arange(len(self.pairs))
        prims = env.primitives
        leaving: dict[tuple[str, str], list[int]] = {}
        for idx, p in enumerate(prims):
            leaving.setdefault((p.from_facet, p.region), []).append(idx)
        self.prim_ptr = _pointer(len(leaving.get(pair, ())) for pair in self.pairs)
        self.prim_action = _int_array(idx for pair in self.pairs for idx in leaving.get(pair, ()))

        self.rate = _float_array(p.rate for p in prims)
        exits = [[(e, q, env.successor_region(e, p.region), p.region) for e, q in p.exit_facets()]
                 for p in prims]
        self.exit_ptr = _pointer(map(len, exits))
        flat = [x for group in exits for x in group]
        self.exit_facet = _int_array(facet_of[e] for e, _, _, _ in flat)
        self.exit_q = _float_array(q for _, q, _, _ in flat)
        self.exit_region = _int_array(region_of[land] for _, _, land, _ in flat)
        # the lane holding the belief about the entered region; -1 on the outer boundary
        self.exit_lane = _int_array(
            -1 if land == rid else self.neighbors[rid].index(land) for _, _, land, rid in flat)
        # an exit on the outer boundary moves its state from the primitive's pair to the exit's
        self.pair_step = _int_array(
            self.pair[facet_of[e], region_of[p.region]]
            - self.pair[facet_of[p.from_facet], region_of[p.region]]
            for p, group in zip(prims, exits) for e, *_ in group)
        # primitives that share one loss table over one window share its fill
        filled: dict[tuple[int, int, int, int], int] = {}
        tables, lost_first, size = [], [], 0
        for p in prims:
            region = env.regions[p.region]
            lo, hi = region.min_adversaries, region.max_adversaries
            levels = region.max_obstacle_level + 1
            spec = (id(p.lost), lo, hi, levels)
            if spec not in filled:
                table = np.zeros((hi + 1, levels))
                for n in range(lo, hi + 1):
                    for o in range(levels):
                        table[n, o] = p.lost[(n, o)]
                tables.append(table.ravel())
                filled[spec], size = size, size + table.size
            lost_first.append(filled[spec])
        self.lost_first = _int_array(lost_first)
        self.lost = np.concatenate(tables) if tables else np.zeros(0)

        # a state's key packs these fields, mixed radix, into as few int64 words as fit
        radices = [len(self.pairs), int(self.ceil.max()) + 1, int(self.levels.max()), 2]
        radices += [max(map(len, bsets))] * self.width
        self.words: list[list[tuple[int, int, int]]] = [[]]
        # field f adds its value times scale_of[f] to word word_of[f] of a key
        self.word_of = np.zeros(len(radices), dtype=np.int64)
        self.scale_of = np.zeros(len(radices), dtype=np.int64)
        scale = 1
        for field_idx, radix in enumerate(radices):
            if scale * radix > 2**62 and self.words[-1]:
                self.words.append([])
                scale = 1
            self.words[-1].append((field_idx, scale, radix))
            self.word_of[field_idx], self.scale_of[field_idx] = len(self.words) - 1, scale
            scale *= radix
        # the vehicle starts with nothing observed and every belief at its initial member
        self.init_key = self.key(self.pair[[facet_of[env.init_facet]], region_of[env.init_region]],
                                 0, 0, True, np.zeros((1, self.width), dtype=np.int64))

        # the keys of the states each exit can lose or land the vehicle in
        land = self.exit_region
        n = len(land)
        self.lost_key = self.key(self.pair[self.exit_facet, land], self.floor[land], 0, False,
                                 np.zeros((n, self.width), dtype=np.int64))
        sizes = (self.ceil[land] + 1) * self.levels[land]
        self.landed_first = np.cumsum(sizes) - sizes
        x = np.repeat(np.arange(n), sizes)
        t = ranges(np.zeros_like(sizes), sizes)
        self.landed_key = self.key(self.pair[self.exit_facet[x], land[x]], t // self.levels[land[x]],
                                   t % self.levels[land[x]], True,
                                   np.zeros((len(x), self.width), dtype=np.int64))

    def build(self) -> Mdp:
        """Expand the reachable states breadth first, up to :data:`BATCH` states per round.

        States are numbered in order of first appearance in the rows of the
        states before them.  A row puts, for each exit in ``exit_facets()``
        order, the lost state and then the landed ones (on the outer
        boundary the moved state, then the lost one), then the entering
        adversaries lane by lane, then the leaving ones.  Each exit facet
        appears once in ``exit_facets()``, so no row puts a successor twice.
        Entries of probability zero are dropped.  A lost or dead-end state
        plays ``stay`` alone.  ``tests/conftest.py`` keeps
        this specification one state at a time, as the build's oracle.
        A round expands the next unexpanded states in number order with
        whole-array gathers; number order is breadth-first order, so a round
        holds part of one level or the end of one and the start of the next.
        :meth:`entries` does a round's work that a state's rows share once per
        state and the rest once per row, and writes each entry straight to
        its place in put order, with no sort.
        """
        env = self.env
        stay_idx = len(env.primitives)
        pending = self.init_key
        numbering = _Numbering(pending)
        parts, first_id = [pending], 0
        # grown in place, so the build never holds two copies of the model
        state_ptr, choice_action = array("q", [0]), array("q")
        choice_ptr, succ, prob = array("q", [0]), array("q"), array("d")

        while pending.size:
            keys, pending = pending[:BATCH], pending[BATCH:]
            frontier = self.decode(keys)
            pair = self.pair[frontier.facet, frontier.region]
            n_prims = self.prim_ptr[pair + 1] - self.prim_ptr[pair]
            acting = frontier.alive & (n_prims > 0)
            widths = np.where(acting, n_prims, 1)
            starts = np.cumsum(widths) - widths
            action = np.full(int(widths.sum()), stay_idx, dtype=np.int64)
            # one choice per (acting state, primitive leaving its facet-region pair)
            choice = ranges(starts[acting], starts[acting] + n_prims[acting])
            leaving = pair[acting]
            prim = self.prim_action[ranges(self.prim_ptr[leaving], self.prim_ptr[leaving + 1])]
            action[choice] = prim

            act = np.flatnonzero(acting)
            length, p, key = self.entries(keys[act], frontier.take(act), n_prims[acting], prim)
            keep = p > 0.0
            entry_choice = np.repeat(choice, length)[keep]
            p, key = p[keep], key[keep]
            ids, fresh = numbering(key)

            # a lost or dead-end state loops back to itself under stay
            idle = np.flatnonzero(~acting)
            at = np.searchsorted(entry_choice, starts[idle])
            entry_choice = np.insert(entry_choice, at, starts[idle])
            ids = np.insert(ids, at, first_id + idle)
            p = np.insert(p, at, 1.0)
            _append(state_ptr, len(choice_action) + np.cumsum(widths))
            _append(choice_action, action)
            lengths = np.bincount(entry_choice, minlength=len(action))
            _append(choice_ptr, len(succ) + np.cumsum(lengths))
            _append(succ, ids)
            _append(prob, p)
            parts.append(key[fresh])
            pending = np.concatenate((pending, parts[-1]))
            first_id += len(widths)

        states = self.decode(np.concatenate(parts))
        # a live state at a pair that no primitive leaves is a dead end, warned once per pair
        pair = self.pair[states.facet, states.region]
        stuck = pair[states.alive & (self.prim_ptr[pair + 1] == self.prim_ptr[pair])]
        warnings = []
        for dead in _first_seen(stuck)[0].tolist():
            facet, region = self.pairs[dead]
            warnings.append(
                f"dead end: no primitive leaves facet {facet!r} across region {region!r}")
        # a region label holds on every state in that region
        labels = {"alive": states.alive.copy()}
        for name in (PICKUP, DROPOFF):
            tagged = [name in region.labels for region in env.regions.values()]
            labels[name] = np.array(tagged, dtype=bool)[states.region]

        return Mdp(
            states=states,
            action_names=[p.name for p in env.primitives] + [STAY],
            state_ptr=np.frombuffer(state_ptr, dtype=np.int64),
            choice_action=np.frombuffer(choice_action, dtype=np.int64),
            choice_ptr=np.frombuffer(choice_ptr, dtype=np.int64),
            succ=np.frombuffer(succ, dtype=np.int64),
            prob=np.frombuffer(prob, dtype=np.float64),
            init=0,
            labels=labels,
            warnings=warnings,
        )

    def key(self, pair: np.ndarray, count, level, alive, beliefs: np.ndarray) -> np.ndarray:
        """One sortable key per state, equal exactly when the states are.

        A state is its facet-region pair code ``pair``, its count, level and
        alive flag, and its row of the lane matrix ``beliefs``; the scalar
        fields may be given once for every state.
        """
        # the first word holds the pair and the later ones only lanes, so every word is an array
        fields = [pair, count, level, np.asarray(alive, dtype=np.int64), *beliefs.T]
        words = [sum(fields[f] * scale for f, scale, _ in word) for word in self.words]
        if len(words) == 1:
            return words[0]
        packed = np.ascontiguousarray(np.stack(words, axis=1))
        return packed.view(np.dtype((np.void, 8 * len(words)))).ravel()

    def decode(self, keys: np.ndarray) -> StateTable:
        """The states whose keys are ``keys``."""
        words = keys.view(np.int64).reshape(len(keys), len(self.words))
        fields = {f: words[:, w] // scale % radix
                  for w, word in enumerate(self.words) for f, scale, radix in word}
        beliefs = np.zeros((len(keys), self.width), dtype=np.int64)
        for i in range(self.width):
            beliefs[:, i] = fields[4 + i]
        pair = fields[0]
        return StateTable(self.facet_names, self.pair_facet[pair], self.region_names,
                          self.pair_region[pair], fields[1], fields[2], fields[3].astype(bool),
                          beliefs, self.closures, self.windows)

    def entries(self, keys: np.ndarray, s: StateTable, n_prims: np.ndarray, prim: np.ndarray):
        """Every entry of the rows of the acting states ``s``, in the order :meth:`build` puts them.

        ``keys`` are the states' keys.  Row ``r`` plays primitive ``prim[r]``,
        and state ``s[k]`` owns the next ``n_prims[k]`` rows.  What a state's
        rows share is found once per state: its belief updates, the race's
        leaving and entering rates, and its moved successors (entering
        adversaries lane by lane, then leaving ones) with their keys and rate
        numerators.  Per row only the race total, the crossing and loss
        probabilities and the divisions by the total remain, with the float
        operations of the one-state oracle in its order.  A moved or
        outer-boundary successor's key is its state's key with field deltas
        added to its words (the count and one lane, or the pair); lost and
        landed keys come from the per-exit tables.  Each entry is written
        straight to its place: the row's start, plus its exit block's offset,
        plus its place in the block.  Returns each row's length, and each
        entry's probability and successor key.
        """
        region, count = s.region, s.count
        lanes = self.lane_region[region]
        belief = self.first[np.maximum(lanes, 0)] + s.beliefs
        left = np.where(lanes >= 0, self.left[belief], -1)
        entered = np.where(lanes >= 0, self.entered[belief], -1)
        receivers = (entered >= 0).sum(axis=1)
        can_leave = (count > self.floor[region]) & (receivers > 0)
        can_enter = count < self.ceil[region]
        leaving = np.where(can_leave, self.mu_leave[region] * count, 0.0)
        incoming = np.zeros(len(count))
        for i in range(self.width):
            incoming = incoming + np.where(left[:, i] >= 0, self.expect[belief[:, i]], 0.0)
        entering = np.where(can_enter, self.mu_enter[region] * incoming, 0.0)

        # moved successors state by state: an adversary enters from a neighbour, which
        # then holds one fewer, or leaves for one that can take it, split evenly over those
        st, col = np.nonzero(np.concatenate(
            ((left >= 0) & can_enter[:, None], (entered >= 0) & can_leave[:, None]), axis=1))
        out = col >= self.width
        via = col - self.width * out
        child = np.concatenate((left, entered), axis=1)[st, col]
        # its key: the state's key words, count field one up or down, lane field at the child
        words = keys.view(np.int64).reshape(len(keys), len(self.words))
        moved = words[st]
        moved[:, self.word_of[1]] += np.where(out, -self.scale_of[1], self.scale_of[1])
        lane = 4 + via
        moved[np.arange(len(st)), self.word_of[lane]] += (
            (child - s.beliefs[st, via]) * self.scale_of[lane])
        moved_key = moved.view(keys.dtype).ravel()
        numerator = np.where(out, self.mu_leave[region[st]] * count[st],
                             self.mu_enter[region[st]] * self.expect[belief[st, via]])
        # a leaving share divides by total * receivers, an entering one by total * 1, exactly
        divisor = np.where(out, receivers[st], 1)
        moved_ptr = np.searchsorted(st, np.arange(len(count) + 1))

        # the race total adds crossing, leaving, then entering rates (incoming lane by
        # lane), in this order; a switched-off term adds exactly 0.0
        owner = np.repeat(np.arange(len(count)), n_prims)
        total = self.rate[prim] + leaving[owner]
        total = total + entering[owner]
        p_lost = self.lost[self.lost_first[prim] + (count * self.levels[region] + s.level)[owner]]
        crossing = self.rate[prim] / total

        n_exits = self.exit_ptr[prim + 1] - self.exit_ptr[prim]
        row = np.repeat(np.arange(len(prim)), n_exits)
        x = ranges(self.exit_ptr[prim], self.exit_ptr[prim + 1])
        share = crossing[row] * self.exit_q[x]
        lost = p_lost[row]
        land, lane = self.exit_region[x], self.exit_lane[x]
        outer = lane < 0
        inner = np.flatnonzero(~outer)
        b = self.first[land[inner]] + s.beliefs[owner[row[inner]], lane[inner]]
        lo, hi = self.draw_ptr[b], self.draw_ptr[b + 1]

        # an exit block holds the lost state and the landed ones (outer boundary: the
        # moved state, then the lost one); a row is its exit blocks, then its moved states
        size = np.full(len(x), 2, dtype=np.int64)
        size[inner] = 1 + hi - lo
        n_moved = np.diff(moved_ptr)[owner]
        before = np.cumsum(n_moved) - n_moved
        ends = np.concatenate(([0], np.cumsum(size)))
        at = ends[:-1] + before[row]
        exits = ends[np.concatenate(([0], np.cumsum(n_exits)))]
        prob = np.empty(int(ends[-1] + n_moved.sum()))
        key = np.empty(len(prob), dtype=self.lost_key.dtype)

        prob[at + outer] = share * lost
        key[at + outer] = self.lost_key[x]
        # outer boundary: no region is entered, only the facet changes, so only the pair field
        o = np.flatnonzero(outer)
        prob[at[o]] = share[o] * (1.0 - lost[o])
        stepped = words[owner[row[o]]]
        stepped[:, self.word_of[0]] += self.pair_step[x[o]] * self.scale_of[0]
        key[at[o]] = stepped.view(keys.dtype).ravel()
        # crossing into a neighbour: a fresh observation from the tracked belief
        e = np.repeat(inner, hi - lo)
        j = ranges(lo, hi)
        put = j + np.repeat(at[inner] + 1 - lo, hi - lo)
        prob[put] = share[e] * self.draw_count_p[j] * self.draw_level_p[j] * (1.0 - lost[e])
        key[put] = self.landed_key[self.landed_first[x[e]] + self.draw_landed[j]]

        # row r puts its state's moved entries after its exit blocks, from exits[r + 1] + before[r]
        r = np.repeat(np.arange(len(prim)), n_moved)
        k = np.arange(len(r))
        m = k + (moved_ptr[owner] - before)[r]
        put = k + exits[1:][r]
        prob[put] = numerator[m] / (total[r] * divisor[m])
        key[put] = moved_key[m]
        return np.diff(exits) + n_moved, prob, key


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_inverse=True)``, without a stable sort.

    Int64 values in ``[0, 2**(63 - P))``, where P is the bit length of their
    count, are sorted once with each position packed into their low P bits,
    so equal values come out in position order.  Other values (multi-word
    keys, or larger ones) are ordered by an argsort.
    """
    n = len(values)
    shift = n.bit_length()
    packed = (values.dtype == np.int64 and n > 0 and values.min() >= 0
              and values.max() < 1 << (63 - shift))
    if packed:
        ordered = np.sort(values << shift | np.arange(n))
        perm = ordered & ((1 << shift) - 1)
        ordered >>= shift
    else:
        perm = np.argsort(values)
        ordered = values[perm]
    starts = np.ones(n, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    # an argsort may put equal values in any order, so there a run's first position is its least
    first = perm[starts] if packed else np.minimum.reduceat(perm, starts)
    return ordered[starts], first, inverse


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in order of first appearance, and each value's position among them."""
    distinct, first, inverse = _distinct(values)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return distinct[order], rank[inverse]


def _append(buffer: array, values: np.ndarray):
    """Append ``values`` to an ``array('q')`` or ``array('d')`` buffer."""
    buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).data.cast("B"))


class _Numbering:
    """State numbers by key; unseen keys take the next numbers in order of first appearance."""

    def __init__(self, keys: np.ndarray):
        self.keys = np.sort(keys)
        self.ids = np.argsort(keys)
        self.count = len(keys)

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's state number, and the positions where unseen states first appear."""
        # a round's entries repeat few distinct keys, so only those are looked up
        distinct, first, inverse = _distinct(keys)
        at = np.searchsorted(self.keys, distinct)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == distinct[seen]
        number = np.empty(len(distinct), dtype=np.int64)
        number[seen] = self.ids[at[seen]]
        unseen = np.flatnonzero(~seen)
        order = unseen[np.argsort(first[unseen])]
        number[order] = self.count + np.arange(len(order))
        self.keys = np.insert(self.keys, at[unseen], distinct[unseen])
        self.ids = np.insert(self.ids, at[unseen], number[unseen])
        self.count += len(order)
        return number[inverse], first[order]


def build_mdp(env: Environment) -> Mdp:
    return MdpBuilder(env).build()


def _pointer_problem(ptr: np.ndarray, length: int, items: int, what: str) -> str | None:
    if len(ptr) != length + 1:
        return f"{what} pointer has {len(ptr)} entries for {length} rows"
    if ptr[0] != 0 or ptr[-1] != items:
        return f"{what} pointer runs {ptr[0]}..{ptr[-1]}, not 0..{items}"
    if (np.diff(ptr) < 0).any():
        return f"{what} pointer decreases at row {int(np.argmax(np.diff(ptr) < 0))}"
    return None


def _layout_problems(mdp: Mdp) -> list[str | None]:
    """What keeps the arrays from being read as documented: a dtype, either pointer, or a
    probability count."""
    n = mdp.n_states
    return [
        *(f"{name} is {getattr(mdp, name).dtype}, not {want}"
          for name, want in _DTYPES.items() if getattr(mdp, name).dtype != want),
        "state pointer is empty" if n < 0
        else _pointer_problem(mdp.state_ptr, n, len(mdp.choice_action), "state"),
        _pointer_problem(mdp.choice_ptr, len(mdp.choice_action), len(mdp.succ), "choice"),
        None if len(mdp.prob) == len(mdp.succ)
        else f"{len(mdp.prob)} probabilities for {len(mdp.succ)} successors",
    ]


def validate_mdp(mdp: Mdp) -> list[Violation]:
    """Structural checks; returns violations, ordered by state, instead of raising."""
    bad: list[Violation] = []
    n = mdp.n_states
    if not 0 <= mdp.init < n:
        bad.append(Violation(mdp.init, None, "init", "initial state out of range"))
    shape = [
        *_layout_problems(mdp),
        None if mdp.states is None or len(mdp.states) == n
        else f"state table has {len(mdp.states)} states for {n} rows",
    ]
    if any(shape):
        # the arrays cannot be walked, so nothing else is checked
        return bad + [Violation(-1, None, "row-shape", d) for d in shape if d]

    owner = mdp.owner
    action = mdp.choice_action
    width = np.diff(mdp.choice_ptr)

    def flag(states, kind, details, actions=None):
        actions = [None] * len(details) if actions is None else actions
        bad.extend(Violation(int(s), a, kind, d) for s, a, d in zip(states, actions, details))

    def at_choices(choices, kind, details):
        flag(owner[choices], kind, details, action[choices].tolist())

    empty = np.flatnonzero(np.diff(mdp.state_ptr) == 0)
    flag(empty, "no-action", ["state has no enabled action"] * len(empty))
    unsorted = np.flatnonzero((owner[1:] == owner[:-1]) & (action[1:] <= action[:-1])) + 1
    flag(owner[unsorted], "action-order",
         [f"choice {c} plays action {action[c]} after {action[c - 1]}" for c in unsorted])
    unknown = np.flatnonzero((action < 0) | (action >= len(mdp.action_names)))
    at_choices(unknown, "action-range", [f"action {action[c]}" for c in unknown])
    hollow = np.flatnonzero(width == 0)
    at_choices(hollow, "empty-row", ["no successors"] * len(hollow))
    outside = np.flatnonzero((mdp.succ < 0) | (mdp.succ >= n))
    off = np.flatnonzero(~((mdp.prob >= 0.0) & (mdp.prob <= 1.0 + ROW_TOL)))
    if len(outside) or len(off):  # only these messages need each entry's choice
        trans = mdp.transition_choice()
        at_choices(trans[outside], "succ-range", [f"successor {mdp.succ[k]}" for k in outside])
        at_choices(trans[off], "prob-range", [repr(p) for p in mdp.prob[off].tolist()])
    filled = width > 0
    totals = np.zeros(len(width))
    if filled.any():
        # empty rows hold no entries, so the filled rows' starts split prob exactly
        totals[filled] = np.add.reduceat(mdp.prob, mdp.choice_ptr[:-1][filled])
    skewed = np.flatnonzero(filled & ~(np.abs(totals - 1.0) <= ROW_TOL))
    at_choices(skewed, "row-sum", [repr(t) for t in totals[skewed].tolist()])

    misshapen = [name for name, mask in sorted(mdp.labels.items())
                 if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (n,))]
    flag([-1] * len(misshapen), "label", [f"{k} label is not a bool mask" for k in misshapen])

    if mdp.states is not None:
        lost = np.flatnonzero(~mdp.states.alive)
        # a lost state plays only stay, which loops back with probability one
        single = lost[np.diff(mdp.state_ptr)[lost] == 1]
        single = single[width[mdp.state_ptr[single]] == 1]
        c = mdp.state_ptr[single]
        k = mdp.choice_ptr[c]
        stay = len(mdp.action_names) - 1
        looping = single[(action[c] == stay) & (mdp.succ[k] == single) & (mdp.prob[k] == 1.0)]
        leaky = np.setdiff1d(lost, looping)
        flag(leaky, "lost-absorbing", ["lost state is not absorbing"] * len(leaky))
        if "alive" not in misshapen:
            mismatched = np.flatnonzero(mdp.states.alive != mdp.label("alive"))
            flag(mismatched, "label", ["alive label mismatch"] * len(mismatched))
    bad.sort(key=lambda v: v.state)
    return bad


# ---------------------------------------------------------------------------
# serialization
#
# A dump is one ``.npz`` archive of rectangular arrays: the five CSR arrays,
# the label names with one bool mask row per label, and the state table's
# arrays as they are (none for a hand-built model), so it loads with
# ``allow_pickle=False``.  Archives of any other format tag are refused.

_DUMP_FORMAT = "hostile-mdp-csr-5"


def _states_from(doc, init: int) -> StateTable | None:
    keys = [f.name for f in fields(StateTable)]
    if not any(key in doc for key in keys):
        return None
    columns = {}
    for key in keys:
        kind = {"facet_names": "U", "region_names": "U", "alive": "b"}.get(key)
        columns[key] = (_array(doc, key, kind) if kind else _array(
            doc, key, "iu", ndim=1 + (key in ("beliefs", "closures", "windows"))
        ).astype(np.int64, copy=False))
    table = StateTable(**columns)
    n = len(table)
    if any(len(getattr(table, key)) != n for key in ("facet", "region", "count", "level",
                                                      "beliefs")):
        raise MdpFormatError("state columns differ in length")
    regions = len(table.region_names)
    for key, shape in (("closures", (regions, table.beliefs.shape[1])), ("windows", (regions, 3))):
        if getattr(table, key).shape != shape:
            raise MdpFormatError(f"{key} has shape {getattr(table, key).shape}, expected {shape}")
    for key, codes in (("facet_names", table.facet), ("region_names", table.region)):
        if len(codes) and (codes.min() < 0 or codes.max() >= len(getattr(table, key))):
            raise MdpFormatError(f"{key} index out of range")
    for key in ("count", "level", "beliefs", "closures"):
        column = getattr(table, key)
        if (column < 0).any():
            raise MdpFormatError(f"negative {key} {column[column < 0][0]}")
    if (table.count > MAX_ADVERSARIES).any():
        raise MdpFormatError(f"count {table.count.max()} above {MAX_ADVERSARIES}")
    _check_positions(table)
    _check_windows(table)
    # the vehicle starts with nothing observed and every belief at its initial member
    if 0 <= init < n and (table.count[init] or table.level[init] or table.beliefs[init].any()):
        raise MdpFormatError(f"initial state {table[init]} is not a fresh start")
    return table


def _check_windows(table: StateTable):
    """MdpFormatError unless each state's obstacle level and adversary count fit its region."""
    levels, floor, ceil = table.windows[table.region].T
    outside = np.flatnonzero((table.level >= levels) | (table.count < floor)
                             | (table.count > ceil))
    if len(outside):
        s = outside[0]
        raise MdpFormatError(
            f"state {s}: obstacle level {table.level[s]} or adversary count {table.count[s]} "
            f"is outside region {str(table.region_names[table.region[s]])!r}'s {levels[s]} "
            f"levels or its window [{floor[s]}, {ceil[s]}]")


def _check_positions(table: StateTable):
    """MdpFormatError unless each region's lanes come first in its row of closure sizes,
    and each lane of a state's region holds a position below its closure's size and each
    lane past them holds 0."""
    sizes = table.closures
    gaps = np.argwhere((sizes[:, 1:] > 0) & (sizes[:, :-1] == 0))
    if len(gaps):
        r, lane = gaps[0]
        raise MdpFormatError(f"region {str(table.region_names[r])!r} has closure size "
                             f"{sizes[r, lane + 1]} in lane {lane + 1}, after an empty lane")
    limit = sizes[table.region]
    inside = limit > 0
    wrong = np.argwhere(np.where(inside, table.beliefs >= limit, table.beliefs != 0))
    if len(wrong):
        s, lane = wrong[0]
        position = table.beliefs[s, lane]
        if inside[s, lane]:
            raise MdpFormatError(f"state {s}: belief position {position} is not below "
                                 f"its closure size {limit[s, lane]}")
        raise MdpFormatError(f"state {s}: belief position {position} in lane {lane} is past "
                             f"region {str(table.region_names[table.region[s]])!r}'s "
                             f"{np.count_nonzero(inside[s])} lanes")


def _labels_from(doc, n: int) -> dict[str, np.ndarray]:
    names = _array(doc, "label_names", "U")
    masks = _array(doc, "label_masks", "b", ndim=2)
    if masks.shape != (len(names), n):
        raise MdpFormatError(f"label_masks has shape {masks.shape}, expected {(len(names), n)}")
    # a later mask of the same name would silently replace the earlier one
    unique, counts = np.unique(names, return_counts=True)
    if (counts > 1).any():
        raise MdpFormatError(f"label name {str(unique[counts > 1][0])!r} is given more than once")
    return dict(zip(names.tolist(), masks))


def dump_mdp(mdp: Mdp, path: str | Path):
    """Write the MDP as one ``.npz`` archive at exactly ``path`` (see :func:`load_mdp`)."""
    label_names = sorted(mdp.labels)
    masks = np.array([mdp.labels[k] for k in label_names], dtype=bool)
    with open(path, "wb") as handle:
        np.savez(
            handle,
            format=np.array(_DUMP_FORMAT),
            action_names=np.array(mdp.action_names, dtype=str),
            state_ptr=mdp.state_ptr, choice_action=mdp.choice_action,
            choice_ptr=mdp.choice_ptr, succ=mdp.succ, prob=mdp.prob,
            init=np.array(mdp.init, dtype=np.int64),
            label_names=np.array(label_names, dtype=str),
            label_masks=masks.reshape(len(label_names), mdp.n_states),
            warnings=np.array(mdp.warnings, dtype=str),
            **({} if mdp.states is None else vars(mdp.states)),
        )


def _array(doc, key: str, kind: str, ndim: int = 1) -> np.ndarray:
    if key not in doc:
        raise MdpFormatError(f"array {key!r} is missing")
    value = doc[key]
    if value.dtype.kind not in kind or value.ndim != ndim:
        raise MdpFormatError(f"array {key!r} has dtype {value.dtype} and {value.ndim} "
                             f"dimensions, expected kind {kind!r} and {ndim}")
    return value


def load_mdp(path: str | Path) -> Mdp:
    """Read a dump written by :func:`dump_mdp`; MdpFormatError if it is not one.

    Only what decoding needs is checked here: that every array has its
    shape, that each belief position is below its closure's size and each
    lane past its region's lanes holds 0, and that each state's obstacle
    level and adversary count lie inside its region's window; run
    :func:`validate_mdp` on the result before using it.
    """
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise MdpFormatError("a single array, not an .npz archive")
            with archive:
                doc = {key: archive[key] for key in archive.files}
        tag = str(doc.get("format"))
        if tag != _DUMP_FORMAT:
            shown = tag if tag.isprintable() else repr(tag)
            raise MdpFormatError(f"format tag {shown}, expected {_DUMP_FORMAT}; "
                                 "rebuild with 'build --dump-mdp'")
        # a dump's own int64 and float64 arrays are used as read, not copied
        arrays = {key: _array(doc, key, "iu").astype(np.int64, copy=False)
                  for key in ("state_ptr", "choice_action", "choice_ptr", "succ")}
        arrays["prob"] = _array(doc, "prob", "f").astype(np.float64, copy=False)
        n = len(arrays["state_ptr"]) - 1
        if n < 0:
            raise MdpFormatError("state pointer is empty")
        init = int(_array(doc, "init", "iu", ndim=0))
        return Mdp(
            states=_states_from(doc, init),
            action_names=_array(doc, "action_names", "U").tolist(),
            init=init,
            labels=_labels_from(doc, n),
            warnings=_array(doc, "warnings", "U").tolist(),
            **arrays,
        )
    except MdpFormatError as exc:
        raise MdpFormatError(f"{path}: not a valid MDP dump ({exc})") from exc
    except (KeyError, ValueError, IndexError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        hint = "" if zipfile.is_zipfile(path) else (
            "; JSON dumps of hostile-mdp 0.1.0 are no longer read, rebuild with 'build --dump-mdp'")
        problem = f"{type(exc).__name__}: {exc}"
        raise MdpFormatError(f"{path}: not an MDP dump ({problem}){hint}") from exc


# ---------------------------------------------------------------------------
# PRISM explicit-state export


def _stream(path: Path, header: str, blocks) -> Path:
    """Write ``header``, then each block of ``blocks``: one line per row, its tokens joined.

    A block is a 2-D object array of references to token ``bytes``, so a
    token is formatted once however many lines use it.  The text is joined
    and written at most ``CHUNK`` lines at a time, so no file is held whole.
    """
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for lines in blocks:
            _write_lines(handle, lines)
    return path


def _write_lines(handle, lines: np.ndarray) -> None:
    """Write the rows of ``lines``, each its tokens joined, ``CHUNK`` lines per join: ``join``
    takes an 80-byte buffer view per token, far more than the text it makes."""
    for lo in range(0, len(lines), CHUNK):
        handle.write(b"".join(lines[lo:lo + CHUNK].ravel().tolist()))


def _tokens(values) -> np.ndarray:
    """The ``bytes`` of ``values`` as a 1-D object array, for gathers by index."""
    return np.array(list(values), dtype=object)


def _successor_order(n: int, trans: np.ndarray, succ: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """``np.lexsort((prob, succ, trans))`` for ``trans`` ascending and ``succ`` below ``n``.

    A stable sort on one combined key orders the transitions by choice and
    successor; only runs that repeat a successor in one row, which dumps and
    hand-built models can hold, are then sorted by probability.
    """
    key = trans * n + succ
    order = np.argsort(key, kind="stable")
    key = key[order]
    tied = np.flatnonzero(key[1:] == key[:-1])
    runs = np.union1d(tied, tied + 1)
    order[runs] = order[runs][np.lexsort((prob[order[runs]], key[runs]))]
    return order


def _transition_blocks(mdp: Mdp):
    """The ``.tra`` lines in blocks of whole choices, about ``CHUNK`` lines each.

    A choice longer than ``CHUNK`` lines is a block of its own.  A line is
    three tokens: its choice's ``b"s c "``, its successor's ``b"t "`` and
    ``repr(p) + "\\n"`` of its probability, one token per distinct bit
    pattern (so -0.0 keeps its own repr).
    """
    n, ptr = mdp.n_states, mdp.choice_ptr
    bits = np.sort(mdp.prob.view(np.uint64))
    distinct = np.ones(len(bits), dtype=bool)
    distinct[1:] = bits[1:] != bits[:-1]
    bits = bits[distinct]
    prob_tok = _tokens(repr(p).encode() + b"\n" for p in bits.view(np.float64).tolist())
    state_tok = _tokens(b"%d " % t for t in range(n))
    local_tok = _tokens(b"%d " % c for c in range(int(np.diff(mdp.state_ptr).max(initial=0))))
    c0 = 0
    while c0 < mdp.n_choices():
        c1 = max(c0 + 1, int(np.searchsorted(ptr, ptr[c0] + CHUNK, side="right")) - 1)
        lo, hi = ptr[c0], ptr[c1]
        trans = np.repeat(np.arange(c1 - c0), np.diff(ptr[c0:c1 + 1]))
        succ, prob = mdp.succ[lo:hi], mdp.prob[lo:hi]
        order = _successor_order(n, trans, succ, prob)
        # choices are numbered within their state
        owner = mdp.owner[c0:c1]
        prefix = state_tok[owner] + local_tok[np.arange(c0, c1) - mdp.state_ptr[owner]]
        yield np.column_stack((prefix[trans[order]], state_tok[succ[order]],
                               prob_tok[np.searchsorted(bits, prob[order].view(np.uint64))]))
        c0 = c1


def export_prism(mdp: Mdp, basepath: str | Path) -> list[Path]:
    """Write ``basepath`` plus ``.sta``, ``.tra`` and ``.lab`` for external checkers.

    ``mdp`` must pass :func:`validate_mdp`.  Each choice's successors are
    written in ascending order, by probability where one repeats.  Output
    bytes are a pure function of the MDP, so re-exporting the same model is
    byte-identical.  A ``basepath`` with no file name (``.``, ``/``, ``""``) or whose last
    part is ``..`` is refused before anything is written.
    """
    # an index out of range would name some other token
    mdp.check_arrays()
    n, table = mdp.n_states, mdp.states
    if Path(basepath).name in ("", ".."):
        raise ValueError(f"export base path {str(basepath)!r} names no file")
    basepath = Path(basepath)
    basepath.parent.mkdir(parents=True, exist_ok=True)
    sta_path, tra_path, lab_path = (basepath.with_name(basepath.name + suffix)
                                    for suffix in (".sta", ".tra", ".lab"))
    states = np.arange(n)

    if table is None:
        _stream(sta_path, "(s)", [_tokens(b"%d:(%d)\n" % (i, i) for i in range(n))[:, None]])
    else:
        # facets, regions and belief tuples are numbered in order of first appearance,
        # a tuple as one row of its lane count and its lanes
        rows = np.column_stack((table.lanes()[table.region], table.beliefs))
        _, combos = _first_seen(rows.view(np.dtype((np.void, rows.strides[0]))).ravel())
        columns = np.stack((_first_seen(table.facet)[1], _first_seen(table.region)[1],
                            table.count, table.level, table.alive.astype(np.int64)))
        values, codes = np.unique(columns, return_inverse=True)
        lines = np.column_stack((
            _tokens(b"%d:(" % i for i in range(n)),
            _tokens(b"%d," % v for v in values.tolist())[codes.reshape(columns.shape).T],
            _tokens(b"%d)\n" % b for b in range(int(combos.max(initial=-1)) + 1))[combos]))
        _stream(sta_path, "(facet,region,count,level,alive,beliefs)", [lines])
        # freed before the .tra makes its own per-state tokens
        del lines

    _stream(tra_path, f"{n} {mdp.n_choices()} {mdp.n_transitions()}", _transition_blocks(mdp))

    # internal label names -> the atoms the mission formula is written over;
    # a state's line lists the atoms it carries, coded as the bits of ``tags``
    atoms = {"init": states == mdp.init, "deadlock": np.zeros(n, dtype=bool),
             "alive": mdp.label("alive"), "rp": mdp.label(PICKUP), "rd": mdp.label(DROPOFF)}
    tags = sum(mask.astype(np.int64) << i for i, mask in enumerate(atoms.values()))
    tagged = np.flatnonzero(tags)
    names = _tokens(" ".join(str(i) for i in range(len(atoms)) if code >> i & 1).encode() + b"\n"
                    for code in range(1 << len(atoms)))
    header = " ".join(f'{i}="{name}"' for i, name in enumerate(atoms))
    _stream(lab_path, header, [np.column_stack((_tokens(b"%d: " % s for s in tagged.tolist()),
                                                names[tags[tagged]]))])

    return [sta_path, tra_path, lab_path]
