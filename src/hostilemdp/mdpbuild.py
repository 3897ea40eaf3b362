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

import zipfile
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .belief import ENTERED, LEFT, BeliefSet, enumerate_reachable, expectation
from .envmodel import DROPOFF, MAX_ADVERSARIES, PICKUP, Environment, MotionPrimitive

STAY = "stay"

#: most states one build round expands; it bounds the round's working arrays
BATCH = 512


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
    """The vehicle states of a model as columns, one entry per state.

    State ``s`` is at facet ``facet_names[facet[s]]`` crossing region
    ``region_names[region[s]]``, observed ``count[s]`` adversaries and
    obstacle level ``level[s]``, and is alive when ``alive[s]``.  Its
    beliefs, one position per neighbour of the region in the neighbour's
    BeliefSet, are ``beliefs[belief_ptr[s]:belief_ptr[s + 1]]``.  Names are
    coded in order of first appearance.  The index columns are int64 and
    ``alive`` is bool.
    """

    facet_names: np.ndarray
    facet: np.ndarray
    region_names: np.ndarray
    region: np.ndarray
    count: np.ndarray
    level: np.ndarray
    alive: np.ndarray
    belief_ptr: np.ndarray
    beliefs: np.ndarray

    # indexing returns one state; the table is not a sequence of them
    __iter__ = None

    def __len__(self) -> int:
        return len(self.alive)

    def __getitem__(self, s: int) -> VehicleState:
        lo, hi = self.belief_ptr[s], self.belief_ptr[s + 1]
        return VehicleState(
            str(self.facet_names[self.facet[s]]), str(self.region_names[self.region[s]]),
            int(self.count[s]), int(self.level[s]), bool(self.alive[s]),
            tuple(self.beliefs[lo:hi].tolist()),
        )


class MdpFormatError(ValueError):
    """Raised when a file is not a readable MDP dump."""


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
    covers.
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

    def choice_state(self) -> np.ndarray:
        """The state that owns each choice."""
        return np.repeat(np.arange(self.n_states), np.diff(self.state_ptr))

    def transition_choice(self) -> np.ndarray:
        """The choice that owns each transition."""
        return np.repeat(np.arange(self.n_choices()), np.diff(self.choice_ptr))


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


class MdpBuilder:
    """Expands the reachable state space of an environment."""

    def __init__(self, env: Environment):
        self.env = env
        self.belief_sets: dict[str, BeliefSet] = {
            rid: enumerate_reachable(region.initial_belief)
            for rid, region in env.regions.items()
        }
        self.neighbors = {rid: env.neighbors(rid) for rid in env.regions}
        # per-region caches keyed by belief position
        self._expect = {
            rid: [float(expectation(b)) for b in bset.members]
            for rid, bset in self.belief_sets.items()
        }
        self._obs_items = {
            rid: [(o, float(p)) for o, p in region.obstacle_items()]
            for rid, region in env.regions.items()
        }
        self._belief_items = {
            rid: [[(n, float(p)) for n, p in b.items()] for b in bset.members]
            for rid, bset in self.belief_sets.items()
        }
        self._prims_at: dict[tuple[str, str], list[tuple[int, MotionPrimitive]]] = {}
        for idx, prim in enumerate(env.primitives):
            self._prims_at.setdefault((prim.from_facet, prim.region), []).append((idx, prim))
        self._succ_region = {
            (fid, rid): env.successor_region(fid, rid)
            for fid, facet in env.facets.items()
            for rid in facet.regions
        }

    def initial_state(self) -> VehicleState:
        fresh = (0,) * len(self.neighbors[self.env.init_region])
        return VehicleState(self.env.init_facet, self.env.init_region, 0, 0, True, fresh)

    def _updates(self, state: VehicleState):
        """The neighbours that can spare, and that can take, an adversary.

        Each is (position, id, child belief); its belief has a LEFT, resp. ENTERED, update.
        """
        senders, receivers = [], []
        for i, (rid, pos) in enumerate(zip(self.neighbors[state.region], state.beliefs)):
            edges = self.belief_sets[rid].edges[pos]
            if LEFT in edges:
                senders.append((i, rid, edges[LEFT]))
            if ENTERED in edges:
                receivers.append((i, rid, edges[ENTERED]))
        return senders, receivers

    def estimated_rate(self, state: VehicleState, prim: MotionPrimitive) -> float:
        """Total rate of the exponential race while crossing under ``prim``."""
        region = self.env.regions[state.region]
        rate = prim.rate
        senders, receivers = self._updates(state)
        if state.count > region.min_adversaries and receivers:
            rate += region.mu_leave * state.count
        if state.count < region.max_adversaries:
            incoming = sum(self._expect[rid][state.beliefs[i]] for i, rid, _ in senders)
            rate += region.mu_enter * incoming
        return rate

    def transitions(self, state: VehicleState, prim: MotionPrimitive):
        """Sparse successor distribution for an alive state and a primitive."""
        if not state.alive:
            raise ValueError("lost states only support the stay action")
        region = self.env.regions[state.region]
        total_rate = self.estimated_rate(state, prim)
        p_lost = prim.lost[(state.count, state.level)]
        crossing = prim.rate / total_rate

        out: dict[VehicleState, float] = {}

        def put(succ: VehicleState, prob: float):
            if prob > 0.0:
                out[succ] = out.get(succ, 0.0) + prob

        def lost_at(facet: str, region: str) -> VehicleState:
            fresh = (0,) * len(self.neighbors[region])
            floor = self.env.regions[region].min_adversaries
            return VehicleState(facet, region, floor, 0, False, fresh)

        for exit_facet, q in prim.exit_facets():
            succ_region = self._succ_region[(exit_facet, state.region)]
            if succ_region == state.region:
                # outer boundary: no region is entered, nothing is re-observed
                moved = state._replace(facet=exit_facet)
                put(moved, crossing * q * (1.0 - p_lost))
                put(lost_at(exit_facet, state.region), crossing * q * p_lost)
                continue
            put(lost_at(exit_facet, succ_region), crossing * q * p_lost)
            entered_pos = self.neighbors[state.region].index(succ_region)
            belief_pos = state.beliefs[entered_pos]
            fresh = (0,) * len(self.neighbors[succ_region])
            for n2, pn in self._belief_items[succ_region][belief_pos]:
                for o2, po in self._obs_items[succ_region]:
                    base = crossing * q * pn * po * (1.0 - p_lost)
                    if base == 0.0:
                        continue
                    put(VehicleState(exit_facet, succ_region, n2, o2, True, fresh), base)

        senders, receivers = self._updates(state)
        if state.count < region.max_adversaries:
            for i, rid, child in senders:
                prob = region.mu_enter * self._expect[rid][state.beliefs[i]] / total_rate
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

    def build(self) -> Mdp:
        """Expand the reachable states breadth first, up to :data:`BATCH` states per round.

        States are numbered in order of first appearance in the rows of the
        states before them, and each row holds what :meth:`transitions` gives
        for its state and primitive, in the same order and with the same
        float operations; a lost or dead-end state plays ``stay`` alone.
        A round expands the next unexpanded states in number order with
        whole-array gathers; number order is breadth-first order, so a round
        holds part of one level or the end of one and the start of the next.
        """
        env = self.env
        look = _Lookup(self)
        stay_idx = len(env.primitives)
        pending = look.key(look.initial())
        numbering = _Numbering(pending)
        parts, first_id = [pending], 0
        # grown in place, so the build never holds two copies of the model
        state_ptr, choice_action = array("q", [0]), array("q")
        choice_ptr, succ, prob = array("q", [0]), array("q"), array("d")
        warnings: list[str] = []
        dead_ends: set[int] = set()

        while pending.size:
            frontier = look.decode(pending[:BATCH])
            pending = pending[BATCH:]
            pair = look.pair[frontier.facet, frontier.region]
            n_prims = look.prim_ptr[pair + 1] - look.prim_ptr[pair]
            acting = frontier.alive & (n_prims > 0)
            stuck = pair[frontier.alive & ~acting]
            for dead in stuck[np.sort(np.unique(stuck, return_index=True)[1])].tolist():
                if dead not in dead_ends:
                    dead_ends.add(dead)
                    facet, region = look.pairs[dead]
                    warnings.append(
                        f"dead end: no primitive leaves facet {facet!r} across region {region!r}")

            widths = np.where(acting, n_prims, 1)
            starts = np.cumsum(widths) - widths
            action = np.full(int(widths.sum()), stay_idx, dtype=np.int64)
            # one choice per (acting state, primitive leaving its facet-region pair)
            src = np.repeat(np.flatnonzero(acting), n_prims[acting])
            choice = ranges(starts[acting], starts[acting] + n_prims[acting])
            leaving = pair[acting]
            prim = look.prim_action[ranges(look.prim_ptr[leaving], look.prim_ptr[leaving + 1])]
            action[choice] = prim

            owner, rank, p, key = look.rows(frontier.take(src), prim)
            keep = p > 0.0
            entry_choice = choice[owner[keep]]
            order = np.argsort(entry_choice * look.ranks + rank[keep])
            entry_choice, p, key = entry_choice[order], p[keep][order], key[keep][order]
            ids, fresh = numbering(key)

            # a lost or dead-end state loops back to itself under stay
            idle = np.flatnonzero(~acting)
            entry_choice = np.concatenate((entry_choice, starts[idle]))
            merged = np.argsort(entry_choice, kind="stable")
            entry_choice = entry_choice[merged]
            ids = np.concatenate((ids, first_id + idle))[merged]
            p = np.concatenate((p, np.ones(len(idle))))[merged]
            if look.repeated_exits:
                entry_choice, ids, p = _merge_repeats(entry_choice, ids, p)
            _append(state_ptr, len(choice_action) + np.cumsum(widths))
            _append(choice_action, action)
            lengths = np.bincount(entry_choice, minlength=len(action))
            _append(choice_ptr, len(succ) + np.cumsum(lengths))
            _append(succ, ids)
            _append(prob, p)
            parts.append(key[fresh])
            pending = np.concatenate((pending, parts[-1]))
            first_id += len(widths)

        table = look.table(look.decode(np.concatenate(parts)))
        # a region label holds on every state in that region
        labels = {"alive": table.alive.copy()}
        for name in (PICKUP, DROPOFF):
            tagged = [name in env.regions[r].labels for r in table.region_names]
            labels[name] = np.array(tagged, dtype=bool)[table.region]

        return Mdp(
            states=table,
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


class _Columns(NamedTuple):
    """Vehicle states as columns, with regions and facets coded in declaration order.

    ``beliefs[s, i]`` is the position of lane ``i`` (the region's ``i``-th
    neighbour) in that neighbour's BeliefSet; lanes past the region's
    neighbour count hold 0.
    """

    facet: np.ndarray
    region: np.ndarray
    count: np.ndarray
    level: np.ndarray
    alive: np.ndarray
    beliefs: np.ndarray

    def take(self, rows) -> _Columns:
        return _Columns(*(column[rows] for column in self))


def _int_array(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def _float_array(values) -> np.ndarray:
    return np.array(list(values), dtype=np.float64)


def _pointer(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(_int_array(lengths))))


class _Lookup:
    """The builder's per-region and per-primitive tables as flat arrays.

    Member ``pos`` of region ``r``'s belief closure is belief
    ``first[r] + pos``; ``left``, ``entered`` (positions, -1 where the update
    is absent), ``expect`` and the ``item_*`` pmf rows are indexed by it.
    ``lane_region[r, i]`` is the ``i``-th neighbour of ``r`` (-1 past the
    neighbour count).  Facet-region pair ``p`` is ``pairs[p]``; the
    primitives leaving it are ``prim_action[prim_ptr[p]:prim_ptr[p + 1]]``,
    in ``_prims_at`` order.  Primitive ``j`` ends at the exits
    ``exit_ptr[j]:exit_ptr[j + 1]``, in ``exit_facets()`` order, and loses
    the vehicle at (count, level) with probability
    ``lost[lost_first[j] + count * levels[region] + level]``.
    """

    def __init__(self, builder: MdpBuilder):
        env = builder.env
        region_ids, facet_ids = list(env.regions), list(env.facets)
        self.region_ids, self.facet_ids = region_ids, facet_ids
        region_of = {rid: r for r, rid in enumerate(region_ids)}
        facet_of = {fid: f for f, fid in enumerate(facet_ids)}
        regions = list(env.regions.values())
        self.floor = _int_array(r.min_adversaries for r in regions)
        self.ceil = _int_array(r.max_adversaries for r in regions)
        self.levels = _int_array(r.max_obstacle_level + 1 for r in regions)
        self.mu_enter = _float_array(r.mu_enter for r in regions)
        self.mu_leave = _float_array(r.mu_leave for r in regions)

        lanes = [[region_of[n] for n in builder.neighbors[rid]] for rid in region_ids]
        self.degree = _int_array(map(len, lanes))
        self.width = int(self.degree.max())
        self.lane_region = np.full((len(lanes), self.width), -1, dtype=np.int64)
        for r, row in enumerate(lanes):
            self.lane_region[r, :len(row)] = row

        bsets = [builder.belief_sets[rid] for rid in region_ids]
        self.first = _pointer(map(len, bsets))[:-1]
        self.left = _int_array(e.get(LEFT, -1) for b in bsets for e in b.edges)
        self.entered = _int_array(e.get(ENTERED, -1) for b in bsets for e in b.edges)
        self.expect = _float_array(x for rid in region_ids for x in builder._expect[rid])
        beliefs = [items for rid in region_ids for items in builder._belief_items[rid]]
        self.item_ptr = _pointer(map(len, beliefs))
        self.item_count = _int_array(n for items in beliefs for n, _ in items)
        self.item_prob = _float_array(p for items in beliefs for _, p in items)
        obstacles = [builder._obs_items[rid] for rid in region_ids]
        self.obs_ptr = _pointer(map(len, obstacles))
        self.obs_level = _int_array(o for items in obstacles for o, _ in items)
        self.obs_prob = _float_array(p for items in obstacles for _, p in items)

        self.pairs = [(fid, rid) for fid, facet in env.facets.items() for rid in facet.regions]
        self.pair = np.full((len(facet_ids), len(region_ids)), -1, dtype=np.int64)
        self.pair_facet = _int_array(facet_of[fid] for fid, _ in self.pairs)
        self.pair_region = _int_array(region_of[rid] for _, rid in self.pairs)
        self.pair[self.pair_facet, self.pair_region] = np.arange(len(self.pairs))
        leaving = [builder._prims_at.get(pair, []) for pair in self.pairs]
        self.prim_ptr = _pointer(map(len, leaving))
        self.prim_action = _int_array(idx for group in leaving for idx, _ in group)

        prims = env.primitives
        self.rate = _float_array(p.rate for p in prims)
        exits = [[(e, q, builder._succ_region[(e, p.region)], p.region) for e, q in p.exit_facets()]
                 for p in prims]
        self.exit_ptr = _pointer(map(len, exits))
        flat = [x for group in exits for x in group]
        self.exit_facet = _int_array(facet_of[e] for e, _, _, _ in flat)
        self.exit_q = _float_array(q for _, q, _, _ in flat)
        self.exit_region = _int_array(region_of[land] for _, _, land, _ in flat)
        # the lane holding the belief about the entered region; -1 on the outer boundary
        self.exit_lane = _int_array(
            -1 if land == rid else builder.neighbors[rid].index(land) for _, _, land, rid in flat)
        self.repeated_exits = any(len({e for e, *_ in group}) < len(group) for group in exits)
        tables = []
        for p in prims:
            region = env.regions[p.region]
            table = np.zeros((region.max_adversaries + 1, region.max_obstacle_level + 1))
            for n in range(region.min_adversaries, region.max_adversaries + 1):
                for o in range(region.max_obstacle_level + 1):
                    table[n, o] = p.lost[(n, o)]
            tables.append(table.ravel())
        self.lost_first = _pointer(map(len, tables))[:-1]
        self.lost = np.concatenate(tables) if tables else np.zeros(0)

        # within one row, exit k's entries rank in [k * block, (k + 1) * block)
        # and the entering and leaving entries after every exit, lane by lane
        self.block = 2 + int(np.diff(self.item_ptr).max()) * int(np.diff(self.obs_ptr).max())
        self.after_exits = int(np.diff(self.exit_ptr).max(initial=0)) * self.block
        self.ranks = self.after_exits + 2 * self.width

        # a state's key packs these fields, mixed radix, into as few int64 words as fit
        radices = [len(self.pairs), int(self.ceil.max()) + 1, int(self.levels.max()), 2]
        radices += [max(map(len, bsets))] * self.width
        self.words: list[list[tuple[int, int, int]]] = [[]]
        scale = 1
        for field_idx, radix in enumerate(radices):
            if scale * radix > 2**62 and self.words[-1]:
                self.words.append([])
                scale = 1
            self.words[-1].append((field_idx, scale, radix))
            scale *= radix
        self.init = (facet_of[env.init_facet], region_of[env.init_region])

    def initial(self) -> _Columns:
        facet, region = self.init
        return _Columns(_int_array([facet]), _int_array([region]), _int_array([0]),
                        _int_array([0]), np.ones(1, dtype=bool),
                        np.zeros((1, self.width), dtype=np.int64))

    def key(self, s: _Columns) -> np.ndarray:
        """One sortable key per state, equal exactly when the states are."""
        fields = [self.pair[s.facet, s.region], s.count, s.level, s.alive.astype(np.int64),
                  *s.beliefs.T]
        words = [sum(fields[f] * scale for f, scale, _ in word) for word in self.words]
        if len(words) == 1:
            return words[0]
        packed = np.ascontiguousarray(np.stack(words, axis=1))
        return packed.view(np.dtype((np.void, 8 * len(words)))).ravel()

    def decode(self, keys: np.ndarray) -> _Columns:
        """The states whose keys are ``keys``."""
        words = keys.view(np.int64).reshape(len(keys), len(self.words))
        fields = {f: words[:, w] // scale % radix
                  for w, word in enumerate(self.words) for f, scale, radix in word}
        beliefs = np.zeros((len(keys), self.width), dtype=np.int64)
        for i in range(self.width):
            beliefs[:, i] = fields[4 + i]
        pair = fields[0]
        return _Columns(self.pair_facet[pair], self.pair_region[pair], fields[1], fields[2],
                        fields[3].astype(bool), beliefs)

    def rows(self, s: _Columns, prim: np.ndarray):
        """Every entry of the rows of states ``s[k]`` under primitives ``prim[k]``.

        Returns each entry's row ``k``, rank, probability and successor key;
        sorted by (row, rank), the entries are those
        :meth:`MdpBuilder.transitions` puts, in its order and each computed
        by its float operations.
        """
        region, count = s.region, s.count
        lanes = self.lane_region[region]
        belief = self.first[np.maximum(lanes, 0)] + s.beliefs
        left = np.where(lanes >= 0, self.left[belief], -1)
        entered = np.where(lanes >= 0, self.entered[belief], -1)
        receivers = (entered >= 0).sum(axis=1)
        can_leave = (count > self.floor[region]) & (receivers > 0)
        can_enter = count < self.ceil[region]
        # estimated_rate's additions in its order; a switched-off term adds exactly 0.0
        total = self.rate[prim] + np.where(can_leave, self.mu_leave[region] * count, 0.0)
        incoming = np.zeros(len(prim))
        for i in range(self.width):
            incoming = incoming + np.where(left[:, i] >= 0, self.expect[belief[:, i]], 0.0)
        total = total + np.where(can_enter, self.mu_enter[region] * incoming, 0.0)
        p_lost = self.lost[self.lost_first[prim] + count * self.levels[region] + s.level]
        crossing = self.rate[prim] / total

        n_exits = self.exit_ptr[prim + 1] - self.exit_ptr[prim]
        owner = np.repeat(np.arange(len(prim)), n_exits)
        x = ranges(self.exit_ptr[prim], self.exit_ptr[prim + 1])
        rank = (x - self.exit_ptr[prim][owner]) * self.block
        share = crossing[owner] * self.exit_q[x]
        lost = p_lost[owner]
        facet, land, lane = self.exit_facet[x], self.exit_region[x], self.exit_lane[x]
        outer = lane < 0
        n = len(x)
        families = [(owner, rank + outer, share * lost, _Columns(
            facet, land, self.floor[land], np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool),
            np.zeros((n, self.width), dtype=np.int64)))]

        # outer boundary: no region is entered, only the facet changes
        o = np.flatnonzero(outer)
        families.append((owner[o], rank[o], share[o] * (1.0 - lost[o]),
                         s.take(owner[o])._replace(facet=facet[o])))

        # crossing into a neighbour: a fresh observation from the tracked belief
        inner = np.flatnonzero(~outer)
        b = self.first[land[inner]] + s.beliefs[owner[inner], lane[inner]]
        n_obs = self.obs_ptr[land[inner] + 1] - self.obs_ptr[land[inner]]
        reps = (self.item_ptr[b + 1] - self.item_ptr[b]) * n_obs
        e = np.repeat(inner, reps)
        t = ranges(np.zeros_like(reps), reps)
        per = np.repeat(n_obs, reps)
        item = np.repeat(self.item_ptr[b], reps) + t // per
        obs = np.repeat(self.obs_ptr[land[inner]], reps) + t % per
        base = share[e] * self.item_prob[item] * self.obs_prob[obs] * (1.0 - lost[e])
        families.append((owner[e], rank[e] + 1 + t, base, _Columns(
            facet[e], land[e], self.item_count[item], self.obs_level[obs],
            np.ones(len(e), dtype=bool), np.zeros((len(e), self.width), dtype=np.int64))))

        # an adversary enters from a neighbour, which then holds one fewer
        p, i = np.nonzero((left >= 0) & can_enter[:, None])
        families.append((p, self.after_exits + i,
                         self.mu_enter[region[p]] * self.expect[belief[p, i]] / total[p],
                         _moved(s, p, i, left[p, i], +1)))
        # an adversary leaves for a neighbour, split evenly over those that can take one
        p, i = np.nonzero((entered >= 0) & can_leave[:, None])
        families.append((p, self.after_exits + self.width + i,
                         self.mu_leave[region[p]] * count[p] / (total[p] * receivers[p]),
                         _moved(s, p, i, entered[p, i], -1)))

        owner, rank, prob, succ = zip(*families)
        return (np.concatenate(owner), np.concatenate(rank), np.concatenate(prob),
                np.concatenate([self.key(states) for states in succ]))

    def table(self, s: _Columns) -> StateTable:
        """The states as a StateTable, names coded in order of first appearance."""
        facets, facet = _table(s.facet.tolist())
        regions, region = _table(s.region.tolist())
        degree = self.degree[s.region]
        return StateTable(
            facet_names=np.array([self.facet_ids[f] for f in facets], dtype=str), facet=facet,
            region_names=np.array([self.region_ids[r] for r in regions], dtype=str),
            region=region, count=s.count, level=s.level, alive=s.alive,
            belief_ptr=np.concatenate(([0], np.cumsum(degree))),
            beliefs=s.beliefs[np.arange(self.width) < degree[:, None]],
        )


def _append(buffer: array, values: np.ndarray):
    """Append ``values`` to an ``array('q')`` or ``array('d')`` buffer."""
    buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).data.cast("B"))


def _moved(s: _Columns, p: np.ndarray, lane: np.ndarray, child: np.ndarray, step: int) -> _Columns:
    """States ``s[p]`` with ``step`` more adversaries and lane ``lane`` at belief ``child``."""
    moved = s.take(p)
    moved.beliefs[np.arange(len(p)), lane] = child
    return moved._replace(count=moved.count + step)


class _Numbering:
    """State numbers by key; unseen keys take the next numbers in order of first appearance."""

    def __init__(self, keys: np.ndarray):
        self.keys = np.sort(keys)
        self.ids = np.argsort(keys)
        self.count = len(keys)

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's state number, and the positions where unseen states first appear."""
        at = np.searchsorted(self.keys, keys)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == keys[seen]
        ids = np.empty(len(keys), dtype=np.int64)
        ids[seen] = self.ids[at[seen]]
        unseen = np.flatnonzero(~seen)
        new, first, inverse = np.unique(keys[unseen], return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty(len(new), dtype=np.int64)
        number[order] = self.count + np.arange(len(new))
        ids[unseen] = number[inverse]
        where = np.searchsorted(self.keys, new)
        self.keys = np.insert(self.keys, where, new)
        self.ids = np.insert(self.ids, where, number)
        self.count += len(new)
        return ids, unseen[first[order]]


def _merge_repeats(choice: np.ndarray, succ: np.ndarray, prob: np.ndarray):
    """Fold repeated (choice, successor) entries into the first, summed in entry order."""
    entry = choice * (int(succ.max(initial=0)) + 1) + succ
    _, first, group = np.unique(entry, return_index=True, return_inverse=True)
    if len(first) == len(entry):
        return choice, succ, prob
    total = prob[first]
    later = np.setdiff1d(np.arange(len(entry)), first)
    # ufunc.at adds one index at a time, so repeats sum left to right
    np.add.at(total, group[later], prob[later])
    keep = np.sort(first)
    return choice[keep], succ[keep], total[group[keep]]


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


def validate_mdp(mdp: Mdp, tol: float = 1e-9) -> list[Violation]:
    """Structural checks; returns violations, ordered by state, instead of raising."""
    bad: list[Violation] = []
    n = mdp.n_states
    if not 0 <= mdp.init < n:
        bad.append(Violation(mdp.init, None, "init", "initial state out of range"))
    shape = [
        "state pointer is empty" if n < 0
        else _pointer_problem(mdp.state_ptr, n, len(mdp.choice_action), "state"),
        _pointer_problem(mdp.choice_ptr, len(mdp.choice_action), len(mdp.succ), "choice"),
        None if len(mdp.prob) == len(mdp.succ)
        else f"{len(mdp.prob)} probabilities for {len(mdp.succ)} successors",
        None if mdp.states is None or len(mdp.states) == n
        else f"state table has {len(mdp.states)} states for {n} rows",
    ]
    if any(shape):
        # the arrays cannot be walked, so nothing else is checked
        return bad + [Violation(-1, None, "row-shape", d) for d in shape if d]

    owner = mdp.choice_state()
    action = mdp.choice_action
    trans = mdp.transition_choice()
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
    at_choices(trans[outside], "succ-range", [f"successor {mdp.succ[k]}" for k in outside])
    off = np.flatnonzero(~((mdp.prob >= 0.0) & (mdp.prob <= 1.0 + tol)))
    at_choices(trans[off], "prob-range", [repr(p) for p in mdp.prob[off].tolist()])
    filled = width > 0
    totals = np.zeros(len(width))
    if filled.any():
        # empty rows hold no entries, so the filled rows' starts split prob exactly
        totals[filled] = np.add.reduceat(mdp.prob, mdp.choice_ptr[:-1][filled])
    skewed = np.flatnonzero(filled & ~(np.abs(totals - 1.0) <= tol))
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
# A dump is one ``.npz`` archive: the five CSR arrays, the labels, and the
# state table's columns as they are (none for a hand-built model), so it loads
# with ``allow_pickle=False``.

_DUMP_FORMAT = "hostile-mdp-csr-1"


def _table(values) -> tuple[list, np.ndarray]:
    """Distinct values (first-seen order) and each value's position among them."""
    ids: dict = {}
    codes = np.array([ids.setdefault(v, len(ids)) for v in values], dtype=np.int64)
    return list(ids), codes


def _flat(groups) -> tuple[np.ndarray, np.ndarray]:
    """Variable-length integer groups as (pointer, values)."""
    lengths = np.fromiter((len(g) for g in groups), dtype=np.int64, count=len(groups))
    values = np.fromiter((x for g in groups for x in g), dtype=np.int64,
                         count=int(lengths.sum()))
    return np.concatenate(([0], np.cumsum(lengths))), values


def _states_from(doc, init: int) -> StateTable | None:
    keys = [f.name for f in fields(StateTable)]
    if not any(key in doc for key in keys):
        return None
    columns = {}
    for key in keys:
        kind = {"facet_names": "U", "region_names": "U", "alive": "b"}.get(key)
        columns[key] = _array(doc, key, kind) if kind else _array(doc, key, "iu").astype(np.int64)
    table = StateTable(**columns)
    n, ptr = len(table), table.belief_ptr
    if any(len(getattr(table, key)) != n for key in ("facet", "region", "count", "level")) \
            or len(ptr) != n + 1:
        raise MdpFormatError("state columns differ in length")
    if ptr[0] != 0 or ptr[-1] != len(table.beliefs) or (np.diff(ptr) < 0).any():
        raise MdpFormatError("belief pointer does not cover the belief column")
    for key, codes in (("facet_names", table.facet), ("region_names", table.region)):
        if len(codes) and (codes.min() < 0 or codes.max() >= len(getattr(table, key))):
            raise MdpFormatError(f"{key} index out of range")
    # older dumps sent all lost mass to one sink state with count and level -1
    sink = ~table.alive & (table.count == -1) & (table.level == -1) & (np.diff(ptr) == 0)
    for key, column in (("count", table.count[~sink]), ("level", table.level[~sink]),
                        ("beliefs", table.beliefs)):
        if (column < 0).any():
            raise MdpFormatError(f"negative {key} {column[column < 0][0]}")
    if (table.count > MAX_ADVERSARIES).any():
        raise MdpFormatError(f"count {table.count.max()} above {MAX_ADVERSARIES}")
    # the vehicle starts with nothing observed and every belief at its initial member
    if 0 <= init < n and (table.count[init] or table.level[init]
                          or table.beliefs[ptr[init]:ptr[init + 1]].any()):
        raise MdpFormatError(f"initial state {table[init]} is not a fresh start")
    return table


def _labels_from(doc, n: int) -> dict[str, np.ndarray]:
    names = _array(doc, "label_names", "U").tolist()
    # unsigned differences wrap, so cast before the pointer is checked
    ptr = _array(doc, "label_ptr", "iu").astype(np.int64)
    members = _array(doc, "label_states", "iu").astype(np.int64)
    if len(ptr) != len(names) + 1 or ptr[0] != 0 or ptr[-1] != len(members) \
            or (np.diff(ptr) < 0).any():
        raise MdpFormatError("label pointer does not cover the label states")
    strays = members[(members < 0) | (members >= n)]
    if len(strays):
        raise MdpFormatError(f"label member {strays[0]} is not one of the {n} states")
    masks = np.zeros((len(names), n), dtype=bool)
    masks[np.repeat(np.arange(len(names)), np.diff(ptr)), members] = True
    return dict(zip(names, masks))


def dump_mdp(mdp: Mdp, path: str | Path):
    """Write the MDP as one ``.npz`` archive at exactly ``path`` (see :func:`load_mdp`)."""
    label_names = sorted(mdp.labels)
    label_ptr, label_states = _flat([np.flatnonzero(mdp.labels[k]) for k in label_names])
    with open(path, "wb") as handle:
        np.savez(
            handle,
            format=np.array(_DUMP_FORMAT),
            action_names=np.array(mdp.action_names, dtype=str),
            state_ptr=mdp.state_ptr, choice_action=mdp.choice_action,
            choice_ptr=mdp.choice_ptr, succ=mdp.succ, prob=mdp.prob,
            init=np.array(mdp.init, dtype=np.int64),
            label_names=np.array(label_names, dtype=str),
            label_ptr=label_ptr, label_states=label_states,
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

    Only what decoding needs is checked here; run :func:`validate_mdp` on the
    result before using it.
    """
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise MdpFormatError("a single array, not an .npz archive")
            with archive:
                doc = {key: archive[key] for key in archive.files}
        if doc.get("format") != _DUMP_FORMAT:
            raise MdpFormatError(f"format tag {doc.get('format')!r}, expected {_DUMP_FORMAT!r}")
        arrays = {key: _array(doc, key, "iu").astype(np.int64)
                  for key in ("state_ptr", "choice_action", "choice_ptr", "succ")}
        arrays["prob"] = _array(doc, "prob", "f").astype(np.float64)
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


def export_prism(mdp: Mdp, basepath: str | Path) -> list[Path]:
    """Write ``.sta``, ``.tra`` and ``.lab`` files for external checkers.

    Output bytes are a pure function of the MDP, so re-exporting the same
    model is byte-identical.
    """
    basepath = Path(basepath)
    basepath.parent.mkdir(parents=True, exist_ok=True)
    table = mdp.states

    sta_path = basepath.with_suffix(".sta")
    if table is None:
        lines = ["(s)"] + [f"{i}:({i})" for i in range(mdp.n_states)]
    else:
        # belief tuples are numbered in order of first appearance
        ptr, beliefs = table.belief_ptr.tolist(), table.beliefs.tolist()
        _, combos = _table(tuple(beliefs[lo:hi]) for lo, hi in zip(ptr, ptr[1:]))
        lines = ["(facet,region,count,level,alive,beliefs)"]
        lines.extend(f"{i}:({f},{r},{c},{o},{a},{b})" for i, (f, r, c, o, a, b) in enumerate(zip(
            table.facet.tolist(), table.region.tolist(), table.count.tolist(),
            table.level.tolist(), table.alive.astype(int).tolist(), combos.tolist())))
    sta_path.write_text("\n".join(lines) + "\n")

    tra_path = basepath.with_suffix(".tra")
    # each choice's successors in ascending order, choices numbered within their state
    trans = mdp.transition_choice()
    order = np.lexsort((mdp.prob, mdp.succ, trans))
    owner = mdp.choice_state()[trans[order]]
    local = trans[order] - mdp.state_ptr[owner]
    lines = [f"{mdp.n_states} {mdp.n_choices()} {mdp.n_transitions()}"]
    lines.extend(
        f"{s} {c} {t} {p!r}" for s, c, t, p in zip(
            owner.tolist(), local.tolist(), mdp.succ[order].tolist(), mdp.prob[order].tolist())
    )
    tra_path.write_text("\n".join(lines) + "\n")

    # internal label names -> the atoms the mission formula is written over
    exported = [("init", None), ("deadlock", None), ("alive", "alive"),
                ("rp", PICKUP), ("rd", DROPOFF)]
    lab_path = basepath.with_suffix(".lab")
    header = " ".join(f'{i}="{name}"' for i, (name, _) in enumerate(exported))
    masks = [(i, mdp.label(key).tolist()) for i, (_, key) in enumerate(exported) if key]
    lines = [header]
    for s in range(mdp.n_states):
        tags = [0] if s == mdp.init else []
        tags += [i for i, mask in masks if mask[s]]
        if tags:
            lines.append(f"{s}: {' '.join(str(t) for t in tags)}")
    lab_path.write_text("\n".join(lines) + "\n")

    return [sta_path, tra_path, lab_path]
