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
from .envmodel import DROPOFF, PICKUP, Environment, MotionPrimitive

STAY = "stay"


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

    @classmethod
    def of(cls, states: list[VehicleState]) -> StateTable:
        facet_names, facet = _table(s.facet for s in states)
        region_names, region = _table(s.region for s in states)
        belief_ptr, beliefs = _flat([s.beliefs for s in states])
        return cls(
            facet_names=np.array(facet_names, dtype=str), facet=facet,
            region_names=np.array(region_names, dtype=str), region=region,
            count=np.array([s.count for s in states], dtype=np.int64),
            level=np.array([s.level for s in states], dtype=np.int64),
            alive=np.array([s.alive for s in states], dtype=bool),
            belief_ptr=belief_ptr, beliefs=beliefs,
        )

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
        env = self.env
        action_names = [p.name for p in env.primitives] + [STAY]
        stay_idx = len(env.primitives)

        init = self.initial_state()
        states: list[VehicleState] = [init]
        index: dict[VehicleState, int] = {init: 0}
        state_ptr, choice_action = array("q", [0]), array("q")
        choice_ptr, succ, prob = array("q", [0]), array("q"), array("d")
        warnings: list[str] = []
        dead_ends: set[tuple[str, str]] = set()

        def intern(state: VehicleState) -> int:
            pos = index.get(state)
            if pos is None:
                pos = len(states)
                index[state] = pos
                states.append(state)
            return pos

        def absorb(pos: int):
            choice_action.append(stay_idx)
            succ.append(pos)
            prob.append(1.0)
            choice_ptr.append(len(succ))

        cursor = 0
        while cursor < len(states):
            state = states[cursor]
            if not state.alive:
                absorb(cursor)
            elif (state.facet, state.region) not in self._prims_at:
                if (state.facet, state.region) not in dead_ends:
                    dead_ends.add((state.facet, state.region))
                    warnings.append(
                        f"dead end: no primitive leaves facet {state.facet!r} "
                        f"across region {state.region!r}"
                    )
                absorb(cursor)
            else:
                for action_idx, prim in self._prims_at[(state.facet, state.region)]:
                    for target, p in self.transitions(state, prim):
                        succ.append(intern(target))
                        prob.append(p)
                    choice_action.append(action_idx)
                    choice_ptr.append(len(succ))
            state_ptr.append(len(choice_action))
            cursor += 1

        # the intern dict is not needed past here; dropping it keeps the build peak down
        index.clear()
        table = StateTable.of(states)
        # a region label holds on every state in that region
        labels = {"alive": table.alive.copy()}
        for name in (PICKUP, DROPOFF):
            tagged = [name in env.regions[r].labels for r in table.region_names]
            labels[name] = np.array(tagged, dtype=bool)[table.region]

        return Mdp(
            states=table,
            action_names=action_names,
            state_ptr=np.frombuffer(state_ptr, dtype=np.int64),
            choice_action=np.frombuffer(choice_action, dtype=np.int64),
            choice_ptr=np.frombuffer(choice_ptr, dtype=np.int64),
            succ=np.frombuffer(succ, dtype=np.int64),
            prob=np.frombuffer(prob, dtype=np.float64),
            init=0,
            labels=labels,
            warnings=warnings,
        )


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


def _states_from(doc) -> StateTable | None:
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
    return table


def _labels_from(doc, n: int) -> dict[str, np.ndarray]:
    names = _array(doc, "label_names", "U").tolist()
    ptr = _array(doc, "label_ptr", "iu")
    members = _array(doc, "label_states", "iu")
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
        return Mdp(
            states=_states_from(doc),
            action_names=_array(doc, "action_names", "U").tolist(),
            init=int(_array(doc, "init", "iu", ndim=0)),
            labels=_labels_from(doc, n),
            warnings=_array(doc, "warnings", "U").tolist(),
            **arrays,
        )
    except MdpFormatError as exc:
        raise MdpFormatError(f"{path}: not a valid MDP dump ({exc})") from exc
    except (KeyError, ValueError, IndexError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise MdpFormatError(
            f"{path}: not an MDP dump ({type(exc).__name__}: {exc}); JSON dumps of "
            f"hostile-mdp 0.1.0 are no longer read, rebuild with 'build --dump-mdp'"
        ) from exc


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
