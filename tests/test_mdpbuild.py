"""State-space construction: event races, crossing mass, lost handling, export."""

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import bundled_doc, make_mdp, random_environment, state_rows
from hostilemdp.belief import ENTERED, LEFT
from hostilemdp import mdpbuild
from hostilemdp.envmodel import DROPOFF, PICKUP, parse_environment
from hostilemdp.mdpbuild import (
    STAY,
    MdpBuilder,
    MdpFormatError,
    StateTable,
    VehicleState,
    _Lookup,
    build_mdp,
    dump_mdp,
    export_prism,
    load_mdp,
    validate_mdp,
)
from hostilemdp.synth import synthesize_mission

ARRAYS = ("state_ptr", "choice_action", "choice_ptr", "succ", "prob")
COLUMNS = [f.name for f in dataclasses.fields(StateTable)]


def assert_same_table(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


def first_lost(mdp) -> int:
    return int(np.flatnonzero(~mdp.states.alive)[0])


def star_doc():
    """Four-region fragment: r4 bordered by r1, r3, r7; one crossing f2 -> f5.

    Beliefs about the neighbours start as point masses at 2 and 3 adversaries
    and a 2/5-3/5 split, so the expected influx is 2 + 3 + 2.6 = 7.6.
    """

    def region(rid, p_init, labels=None):
        reg = {
            "id": rid,
            "adversaries": {"min": 0, "max": 4, "p_init": p_init},
            "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
            "mu_enter": 0.3,
            "mu_leave": 0.3,
        }
        if labels:
            reg["labels"] = labels
        return reg

    return {
        "regions": [
            region("r1", {"2": "1"}, labels=["pickup"]),
            region("r3", {"3": "1"}, labels=["dropoff"]),
            region("r7", {"2": "2/5", "3": "3/5"}),
            region("r4", {"0": "1"}),
        ],
        "facets": [
            {"id": "f2", "regions": ["r1", "r4"]},
            {"id": "f5", "regions": ["r3", "r4"]},
            {"id": "f8", "regions": ["r4", "r7"]},
        ],
        "primitives": [
            {
                "from": "f2",
                "to": "f5",
                "region": "r4",
                "rate": 0.5,
                "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.0}},
            }
        ],
        "init": {"facet": "f2", "region": "r4"},
    }


def pair_doc(side_p_init, side_window=(0, 2)):
    """Two regions joined at fb; the manual states under test sit in mid."""
    lo, hi = side_window
    return {
        "regions": [
            {
                "id": "mid",
                "adversaries": {"min": 0, "max": 3, "p_init": {"0": "1"}},
                "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                "mu_enter": 0.3,
                "mu_leave": 0.3,
            },
            {
                "id": "side",
                "adversaries": {"min": lo, "max": hi, "p_init": side_p_init},
                "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                "mu_enter": 0.1,
                "mu_leave": 0.1,
                "labels": ["pickup", "dropoff"],
            },
        ],
        "facets": [
            {"id": "fa", "regions": ["mid"]},
            {"id": "fb", "regions": ["mid", "side"]},
        ],
        "primitives": [
            {
                "from": "fa",
                "to": "fb",
                "region": "mid",
                "rate": 1.0,
                "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.0}},
            }
        ],
        "init": {"facet": "fa", "region": "mid"},
    }


def loop_doc(outcomes=None, marginal_n=None):
    """One region with two outer facets; the only crossing goes fa -> fb."""
    prim = {
        "from": "fa",
        "to": "fb",
        "region": "g",
        "rate": 1.0,
        "lost": {"marginal_n": marginal_n or {"0": 0.0}, "marginal_o": {"0": 1.0}},
    }
    if outcomes:
        prim["outcomes"] = outcomes
    return {
        "regions": [
            {
                "id": "g",
                "adversaries": {"min": 0, "max": 0, "p_init": {"0": "1"}},
                "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                "mu_enter": 0.5,
                "mu_leave": 0.5,
                "labels": ["pickup", "dropoff"],
            }
        ],
        "facets": [{"id": "fa", "regions": ["g"]}, {"id": "fb", "regions": ["g"]}],
        "primitives": [prim],
        "init": {"facet": "fa", "region": "g"},
    }


class TestEventRace:
    """Per-state rate and successor distribution of the exponential race."""

    def setup_method(self):
        self.env = parse_environment(star_doc(), name="star")
        self.builder = MdpBuilder(self.env)
        self.prim = self.env.primitives_from("f2", "r4")[0]
        self.state = VehicleState("f2", "r4", 2, 0, True, (0, 0, 0))

    def test_neighbour_order_is_declaration_order(self):
        assert self.env.neighbors("r4") == ("r1", "r3", "r7")

    def test_total_rate(self):
        # 0.5 crossing + 0.3 * 2 leaving + 0.3 * 7.6 expected influx
        nu = self.builder.estimated_rate(self.state, self.prim)
        assert nu == pytest.approx(3.38, abs=1e-9)

    def test_row_is_a_distribution(self):
        row = self.builder.transitions(self.state, self.prim)
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for _, p in row)

    def test_enter_probabilities_split_by_expected_count(self):
        row = dict(self.builder.transitions(self.state, self.prim))
        children = {
            rid: self.builder.belief_sets[rid].edges[0].get(LEFT)
            for rid in ("r1", "r3", "r7")
        }
        enter_r1 = self.state._replace(count=3, beliefs=(children["r1"], 0, 0))
        enter_r3 = self.state._replace(count=3, beliefs=(0, children["r3"], 0))
        enter_r7 = self.state._replace(count=3, beliefs=(0, 0, children["r7"]))
        assert row[enter_r1] == pytest.approx(0.3 * 2.0 / 3.38, abs=1e-12)
        assert row[enter_r3] == pytest.approx(0.3 * 3.0 / 3.38, abs=1e-12)
        assert row[enter_r7] == pytest.approx(0.3 * 2.6 / 3.38, abs=1e-12)
        # factored form: P(an entry wins the race) ~ 0.68, of which ~ 0.26
        # is attributable to r1; the rounded product must stay close
        assert abs(row[enter_r1] - 0.68 * 0.26) <= 0.005

    def test_enter_conditions_the_source_belief_on_a_departure(self):
        row = dict(self.builder.transitions(self.state, self.prim))
        bset = self.builder.belief_sets["r1"]
        child = bset.edges[0].get(LEFT)
        # point mass at 2 shifts down to a point mass at 1
        member = bset.members[child]
        assert dict(member.items()) == {1: 1}
        assert any(s.beliefs == (child, 0, 0) for s in row)

    def test_leave_splits_evenly_over_receivers(self):
        row = dict(self.builder.transitions(self.state, self.prim))
        expected = {}
        for i, rid in enumerate(self.env.neighbors("r4")):
            child = self.builder.belief_sets[rid].edges[0].get(ENTERED)
            beliefs = tuple(child if j == i else 0 for j in range(3))
            expected[self.state._replace(count=1, beliefs=beliefs)] = 0.3 * 2 / (3.38 * 3)
        got = {s: p for s, p in row.items() if s.count == 1}
        assert set(got) == set(expected)
        for s, p in expected.items():
            assert row[s] == pytest.approx(p, abs=1e-12)

    def test_crossing_redraws_count_from_tracked_belief(self):
        row = dict(self.builder.transitions(self.state, self.prim))
        # f5 leads to r3, whose tracked belief is still the point mass at 3
        landed = VehicleState("f5", "r3", 3, 0, True, (0,))
        assert row[landed] == pytest.approx(0.5 / 3.38, abs=1e-12)
        assert not any(s.region == "r3" and s.count != 3 for s in row)

    def test_lost_states_reject_transitions(self):
        lost = self.state._replace(alive=False)
        with pytest.raises(ValueError):
            self.builder.transitions(lost, self.prim)


class TestEventIndicators:
    """The four degenerate cases where an event family switches off."""

    @staticmethod
    def race(side_p_init, count, side_window=(0, 2)):
        env = parse_environment(pair_doc(side_p_init, side_window), name="pair")
        builder = MdpBuilder(env)
        prim = env.primitives_from("fa", "mid")[0]
        state = VehicleState("fa", "mid", count, 0, True, (0,))
        row = builder.transitions(state, prim)
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)
        deltas = {s.count - count for s, p in row if s.region == "mid" and s.alive}
        return builder.estimated_rate(state, prim), deltas

    def test_no_leave_when_neighbour_is_saturated(self):
        # belief about side is a point mass at its ceiling: nowhere to go
        nu, deltas = self.race({"2": "1"}, count=2)
        assert deltas == {1}
        assert nu == pytest.approx(1.0 + 0.3 * 2.0, abs=1e-12)

    def test_no_enter_when_neighbour_is_empty(self):
        nu, deltas = self.race({"0": "1"}, count=2)
        assert deltas == {-1}
        assert nu == pytest.approx(1.0 + 0.3 * 2.0, abs=1e-12)

    def test_no_enter_at_count_ceiling(self):
        nu, deltas = self.race({"1": "1"}, count=3)
        assert deltas == {-1}
        assert nu == pytest.approx(1.0 + 0.3 * 3.0, abs=1e-12)

    def test_no_leave_at_count_floor(self):
        nu, deltas = self.race({"1": "1"}, count=0)
        assert deltas == {1}
        assert nu == pytest.approx(1.0 + 0.3 * 1.0, abs=1e-12)


class TestCrossings:
    def test_crossing_mass_factorizes_over_fresh_observation(self, corridor_env):
        """Landing mass = crossing share x exit pmf x belief x obstacle pmf."""
        builder = MdpBuilder(corridor_env)
        init = builder.initial_state()
        for prim in corridor_env.primitives_from(init.facet, init.region):
            row = dict(builder.transitions(init, prim))
            nu = builder.estimated_rate(init, prim)
            p_lost = prim.lost[(init.count, init.level)]
            for exit_facet, q in prim.exit_facets():
                succ_rid = corridor_env.successor_region(exit_facet, init.region)
                if succ_rid == init.region:
                    continue
                region = corridor_env.regions[succ_rid]
                fresh = (0,) * len(corridor_env.neighbors(succ_rid))
                for n2, pn in region.initial_belief.items():
                    for o2, po in region.obstacle_items():
                        landed = VehicleState(exit_facet, succ_rid, n2, o2, True, fresh)
                        want = prim.rate / nu * q * float(pn) * float(po) * (1 - p_lost)
                        assert row[landed] == pytest.approx(want, abs=1e-12)

    def test_outer_boundary_keeps_observation(self):
        env = parse_environment(loop_doc(), name="loop")
        builder = MdpBuilder(env)
        state = builder.initial_state()
        prim = env.primitives_from("fa", "g")[0]
        row = builder.transitions(state, prim)
        # no region is entered, so only the facet changes
        assert row == [(state._replace(facet="fb"), 1.0)]

    def test_outcome_pmf_splits_exit_mass(self):
        outcomes = [{"facet": "fb", "p": "7/10"}, {"facet": "fa", "p": "3/10"}]
        env = parse_environment(loop_doc(outcomes=outcomes), name="loop")
        builder = MdpBuilder(env)
        state = builder.initial_state()
        prim = env.primitives_from("fa", "g")[0]
        row = dict(builder.transitions(state, prim))
        assert row[state._replace(facet="fb")] == pytest.approx(0.7, abs=1e-12)
        assert row[state] == pytest.approx(0.3, abs=1e-12)

    def test_dead_end_gets_stay_loop_and_warning(self):
        env = parse_environment(loop_doc(), name="loop")
        mdp = build_mdp(env)
        assert mdp.n_states == 2
        stuck = next(s for s in range(mdp.n_states)
                     if mdp.states[s] == VehicleState("fb", "g", 0, 0, True, ()))
        stay = len(env.primitives)
        assert state_rows(mdp, stuck) == [(stay, [(stuck, 1.0)])]
        assert any("dead end" in w and "'fb'" in w for w in mdp.warnings)


class TestLostStates:
    def test_lost_mass_lands_in_one_state_per_facet_region(self, corridor_env, corridor_mdp):
        mdp = corridor_mdp
        lost = np.flatnonzero(~mdp.states.alive).tolist()
        assert lost, "corridor should have some lossy crossings"
        seen = set()
        for i in lost:
            s = mdp.states[i]
            region = corridor_env.regions[s.region]
            # canonical shape: floor count, no obstacle, fresh beliefs
            assert s.count == region.min_adversaries
            assert s.level == 0
            assert s.beliefs == (0,) * len(corridor_env.neighbors(s.region))
            assert (s.facet, s.region) not in seen
            seen.add((s.facet, s.region))
            assert [row for _, row in state_rows(mdp, i)] == [[(i, 1.0)]]

    def test_lost_states_keep_region_labels(self, corridor_env, corridor_mdp):
        mdp = corridor_mdp
        for i in range(mdp.n_states):
            s = mdp.states[i]
            if s.alive:
                continue
            assert not mdp.label("alive")[i]
            for label in ("pickup", "dropoff"):
                holds = label in corridor_env.regions[s.region].labels
                assert mdp.label(label)[i] == holds


class TestBuildFuzz:
    def test_random_environments_build_clean(self):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            env = random_environment(rng)
            mdp = build_mdp(env)
            assert validate_mdp(mdp) == []
            assert mdp.states[mdp.init] == MdpBuilder(env).initial_state()

    def test_build_is_deterministic(self, corridor_env):
        a = build_mdp(corridor_env)
        b = build_mdp(corridor_env)
        assert_same_table(a.states, b.states)
        for name in ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.labels.keys() == b.labels.keys()
        for name in a.labels:
            assert np.array_equal(a.label(name), b.label(name)), name
        assert a.warnings == b.warnings


#: seed of the random environments whose builds are checked row by row and pinned
BATCHED_SEED = 20261018

#: sha256 of the build arrays and state-table columns of those 20 environments,
#: recorded from the state-at-a-time builder that the batched build replaced
BATCHED_DIGEST = "ef2d5bdee5b15c5a5e1a510e3f8c907043b3c0ad4f6828f507c34ad0590c12d1"


def batched_envs():
    rng = np.random.default_rng(BATCHED_SEED)
    return [random_environment(rng) for _ in range(20)]


def repeated_exit_corridor():
    """Corridor whose f2 -> f3 crossing of rp names exit f3 twice, so rows repeat successors."""
    doc = bundled_doc("corridor")
    prim = next(p for p in doc["primitives"] if p["region"] == "rp" and p["from"] == "f2")
    prim["outcomes"] = [{"facet": "f3", "p": "1/2"}, {"facet": "f2", "p": "1/4"},
                        {"facet": "f3", "p": "1/4"}]
    return parse_environment(doc, name="corridor-repeated-exit")


class TestBatchedBuild:
    """The batched build against the one-state specification ``transitions``."""

    @staticmethod
    def assert_rows_follow_transitions(env):
        builder = MdpBuilder(env)
        mdp = builder.build()
        table = mdp.states
        stay = len(env.primitives)
        for s in range(mdp.n_states):
            state = table[s]
            prims = builder._prims_at.get((state.facet, state.region), []) if state.alive else []
            rows = state_rows(mdp, s)
            if not prims:
                assert rows == [(stay, [(s, 1.0)])]
                continue
            assert [a for a, _ in rows] == [idx for idx, _ in prims]
            for (_, row), (_, prim) in zip(rows, prims):
                got = [(table[t], p) for t, p in row]
                assert got == builder.transitions(state, prim), (s, prim.name)

    @pytest.mark.parametrize("index", range(20))
    def test_random_rows_follow_transitions(self, index):
        self.assert_rows_follow_transitions(batched_envs()[index])

    def test_corridor_rows_follow_transitions(self, corridor_env):
        self.assert_rows_follow_transitions(corridor_env)

    def test_expected_influx_adds_lane_by_lane(self):
        # expectations 0.1, 0.2 and 0.3 sum to 0.6000000000000001 left to right
        # and to 0.6 right to left, so the lane order shows in every rate
        doc = star_doc()
        for rid, p_init in (("r1", "1/10"), ("r3", "1/5"), ("r7", "3/10")):
            region = next(r for r in doc["regions"] if r["id"] == rid)
            region["adversaries"]["p_init"] = {"0": str(1 - Fraction(p_init)), "1": p_init}
        self.assert_rows_follow_transitions(parse_environment(doc, name="star-influx"))

    def test_repeated_exits_sum_in_put_order(self):
        env = repeated_exit_corridor()
        self.assert_rows_follow_transitions(env)
        builder = MdpBuilder(env)
        mdp = builder.build()
        action, prim = builder._prims_at[("f2", "rp")][0]
        fresh = (0,) * len(env.neighbors("rd"))
        lane = env.neighbors("rp").index("rd")
        folded = 0
        for s in range(mdp.n_states):
            state = mdp.states[s]
            if state[:2] != ("f2", "rp") or not state.alive:
                continue
            row = {mdp.states[t]: p for a, r in state_rows(mdp, s) if a == action for t, p in r}
            crossing = prim.rate / builder.estimated_rate(state, prim)
            keep = 1.0 - prim.lost[(state.count, state.level)]
            # both f3 exits land on the same states; the second share adds to the first
            for n2, pn in builder._belief_items["rd"][state.beliefs[lane]]:
                for o2, po in builder._obs_items["rd"]:
                    landed = VehicleState("f3", "rd", n2, o2, True, fresh)
                    assert row[landed] == (crossing * 0.5 * pn * po * keep
                                           + crossing * 0.25 * pn * po * keep)
                    folded += 1
        assert folded

    def test_keys_wider_than_one_word(self):
        """Nine wide beliefs per state need more than 62 bits of key; the build still matches."""
        wide = {str(n): "1/11" for n in range(11)}

        def region(rid, p_init, high, labels=()):
            return {"id": rid, "adversaries": {"min": 0, "max": high, "p_init": p_init},
                    "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                    "mu_enter": 0.2, "mu_leave": 0.3, "labels": list(labels)}

        leaves = [f"n{i}" for i in range(8)]
        doc = {
            "regions": [region("r0", {"0": "1"}, 2), region("hub", wide, 10)] + [
                region(rid, wide, 10, [("pickup",), ("dropoff",)][i] if i < 2 else ())
                for i, rid in enumerate(leaves)],
            "facets": [{"id": "f0", "regions": ["r0"]}, {"id": "fh", "regions": ["r0", "hub"]}]
                      + [{"id": f"f{rid}", "regions": ["hub", rid]} for rid in leaves],
            "primitives": [{"from": a, "to": b, "region": "r0", "rate": 1.0,
                            "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.5}}}
                           for a, b in (("f0", "fh"), ("fh", "f0"))],
            "init": {"facet": "f0", "region": "r0"},
        }
        env = parse_environment(doc, name="wide-keys")
        assert len(_Lookup(MdpBuilder(env)).words) > 1
        self.assert_rows_follow_transitions(env)

    def test_random_builds_are_pinned(self):
        digest = hashlib.sha256()
        for env in batched_envs():
            mdp = build_mdp(env)
            for name in ARRAYS:
                digest.update(getattr(mdp, name).tobytes())
            for name in COLUMNS:
                digest.update(getattr(mdp.states, name).tobytes())
        assert digest.hexdigest() == BATCHED_DIGEST


def with_row(mdp, c, row):
    """Copy of ``mdp`` whose choice ``c`` moves along ``row`` instead."""
    lo, hi = mdp.choice_ptr[c], mdp.choice_ptr[c + 1]
    choice_ptr = mdp.choice_ptr.copy()
    choice_ptr[c + 1:] += len(row) - (hi - lo)
    return dataclasses.replace(
        mdp,
        choice_ptr=choice_ptr,
        succ=np.concatenate((mdp.succ[:lo], [t for t, _ in row], mdp.succ[hi:])).astype(np.int64),
        prob=np.concatenate((mdp.prob[:lo], [p for _, p in row], mdp.prob[hi:])),
    )


def without_choices(mdp, s):
    """Copy of ``mdp`` in which state ``s`` has no choices left."""
    first, last = mdp.state_ptr[s], mdp.state_ptr[s + 1]
    lo, hi = mdp.choice_ptr[first], mdp.choice_ptr[last]
    state_ptr = mdp.state_ptr.copy()
    state_ptr[s + 1:] -= last - first
    choice_ptr = np.delete(mdp.choice_ptr, np.arange(first + 1, last + 1))
    choice_ptr[first + 1:] -= hi - lo
    return dataclasses.replace(
        mdp, state_ptr=state_ptr, choice_ptr=choice_ptr,
        choice_action=np.delete(mdp.choice_action, np.arange(first, last)),
        succ=np.delete(mdp.succ, np.arange(lo, hi)), prob=np.delete(mdp.prob, np.arange(lo, hi)),
    )


def kinds(mdp):
    return {v.kind for v in validate_mdp(mdp)}


class TestValidation:
    def test_detects_broken_row_sum(self, corridor_mdp):
        mdp = copy.deepcopy(corridor_mdp)
        mdp.prob[mdp.choice_ptr[mdp.state_ptr[mdp.init]]] += 1e-6
        assert kinds(mdp) == {"row-sum"}

    def test_detects_leaky_lost_state(self, corridor_mdp):
        lost = first_lost(corridor_mdp)
        mdp = with_row(corridor_mdp, corridor_mdp.state_ptr[lost],
                       [(lost, 0.5), (corridor_mdp.init, 0.5)])
        assert "lost-absorbing" in kinds(mdp)

    def test_detects_missing_actions(self, corridor_mdp):
        mdp = without_choices(corridor_mdp, 3)
        assert "no-action" in kinds(mdp)

    def test_detects_empty_row(self, corridor_mdp):
        mdp = with_row(corridor_mdp, corridor_mdp.state_ptr[corridor_mdp.init], [])
        assert "empty-row" in kinds(mdp)

    def test_detects_bad_entries(self, corridor_mdp):
        mdp = copy.deepcopy(corridor_mdp)
        mdp.succ[0] = mdp.n_states + 5
        mdp.prob[1] = -0.25
        found = kinds(mdp)
        assert {"succ-range", "prob-range"} <= found

    def test_detects_action_problems(self):
        mdp = make_mdp({0: {"a": [(0, 1.0)], "b": [(0, 1.0)]}})
        swapped = copy.deepcopy(mdp)
        swapped.choice_action[:] = [1, 0]
        assert kinds(swapped) == {"action-order"}
        unknown = copy.deepcopy(mdp)
        unknown.choice_action[1] = 7
        assert kinds(unknown) == {"action-range"}

    def test_detects_bad_init_and_labels(self, corridor_mdp):
        mdp = dataclasses.replace(corridor_mdp, init=corridor_mdp.n_states)
        assert kinds(mdp) == {"init"}
        lost = first_lost(corridor_mdp)
        alive = corridor_mdp.label("alive").copy()
        alive[lost] = True
        labels = dict(corridor_mdp.labels, alive=alive)
        assert kinds(dataclasses.replace(corridor_mdp, labels=labels)) == {"label"}
        for wrong in (corridor_mdp.label("pickup")[:-1], corridor_mdp.label("pickup").astype(int)):
            labels = dict(corridor_mdp.labels, pickup=wrong)
            assert kinds(dataclasses.replace(corridor_mdp, labels=labels)) == {"label"}

    @pytest.mark.parametrize("name, tamper", [
        ("state_ptr", lambda a: a[::-1].copy()),
        ("choice_ptr", lambda a: np.concatenate((a[:5], a[6:7], a[5:6], a[7:]))),
        ("state_ptr", lambda a: a[:-1]),
        ("choice_ptr", lambda a: a + 1),
        ("prob", lambda a: a[:-1]),
        ("state_ptr", lambda a: a[:0]),
        ("states", lambda t: dataclasses.replace(t, alive=t.alive[:-1])),
    ])
    def test_broken_pointers_are_reported_not_raised(self, corridor_mdp, name, tamper):
        mdp = dataclasses.replace(corridor_mdp, **{name: tamper(getattr(corridor_mdp, name))})
        assert "row-shape" in kinds(mdp)

    def test_clean_model_passes(self, corridor_mdp):
        assert validate_mdp(corridor_mdp) == []


class TestSerialization:
    def test_dump_load_roundtrip(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.mdp"
        dump_mdp(corridor_mdp, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.mdp"]
        back = load_mdp(path)
        assert_same_table(back.states, corridor_mdp.states)
        assert back.action_names == corridor_mdp.action_names
        for name in ARRAYS:
            assert np.array_equal(getattr(back, name), getattr(corridor_mdp, name)), name
            assert getattr(back, name).dtype == getattr(corridor_mdp, name).dtype
        assert back.init == corridor_mdp.init
        assert back.labels.keys() == corridor_mdp.labels.keys()
        for name in back.labels:
            assert np.array_equal(back.label(name), corridor_mdp.label(name)), name
            assert back.label(name).dtype == bool
        assert back.warnings == corridor_mdp.warnings

    def test_named_states_roundtrip(self, tmp_path):
        """A hand-built model has no state table, before and after a dump."""
        mdp = make_mdp({0: {"go": [(1, 1.0)]}, 1: {"stay": [(1, 1.0)]}}, labels={"goal": {1}})
        dump_mdp(mdp, tmp_path / "toy.npz")
        with np.load(tmp_path / "toy.npz") as archive:
            assert not set(COLUMNS) & set(archive.files)
        back = load_mdp(tmp_path / "toy.npz")
        assert back.states is None
        assert back.n_states == 2
        for name in ARRAYS:
            assert np.array_equal(getattr(back, name), getattr(mdp, name)), name
        assert state_rows(back, 0) == [(0, [(1, 1.0)])]
        assert back.labels.keys() == {"goal"}
        assert np.array_equal(back.label("goal"), [False, True])
        assert validate_mdp(back) == []

    def test_lost_sink_dump_still_loads(self, corridor_mdp, tmp_path):
        """Dumps of models whose lost mass went to one global sink state still load.

        Such a dump was written with a sink state at facet "" in region ""
        (count and level -1, no beliefs) that every lost successor led to.
        """
        mdp, table = corridor_mdp, corridor_mdp.states
        n, stay = mdp.n_states, len(mdp.action_names) - 1
        source = mdp.choice_state()[mdp.transition_choice()]
        succ = np.where(table.alive[source] & ~table.alive[mdp.succ], n, mdp.succ)
        last = len(table.beliefs)
        columns = {
            "facet_names": np.append(table.facet_names, ""),
            "facet": np.append(table.facet, len(table.facet_names)),
            "region_names": np.append(table.region_names, ""),
            "region": np.append(table.region, len(table.region_names)),
            "count": np.append(table.count, -1), "level": np.append(table.level, -1),
            "alive": np.append(table.alive, False),
            "belief_ptr": np.append(table.belief_ptr, last), "beliefs": table.beliefs,
        }
        merged = dataclasses.replace(
            mdp, states=StateTable(**columns),
            state_ptr=np.append(mdp.state_ptr, mdp.n_choices() + 1),
            choice_action=np.append(mdp.choice_action, stay),
            choice_ptr=np.append(mdp.choice_ptr, mdp.n_transitions() + 1),
            succ=np.append(succ, n), prob=np.append(mdp.prob, 1.0),
            labels={k: np.append(v, False) for k, v in mdp.labels.items()},
        )
        dump_mdp(merged, tmp_path / "merged.npz")
        back = load_mdp(tmp_path / "merged.npz")
        assert back.n_states == n + 1
        assert back.states[n] == VehicleState("", "", -1, -1, False, ())
        assert back.action_names[stay] == STAY
        assert validate_mdp(back) == []
        assert synthesize_mission(back).value == synthesize_mission(mdp).value
        sta, tra, lab = export_prism(back, tmp_path / "merged")
        assert sta.read_text().splitlines()[-1].startswith(f"{n}:(")
        assert [path.read_bytes() for path in (sta, tra, lab)] == reference_export(back)

    def test_tampered_dump_is_reported_not_raised(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        doc["choice_ptr"] = doc["choice_ptr"][::-1].copy()
        doc["succ"] = doc["succ"] + corridor_mdp.n_states
        np.savez(path, **doc)
        assert "row-shape" in kinds(load_mdp(path))
        doc["choice_ptr"] = doc["choice_ptr"][::-1].copy()
        np.savez(path, **doc)
        assert kinds(load_mdp(path)) >= {"succ-range"}

    @pytest.mark.parametrize("member", [-1, 10**6])
    def test_out_of_range_label_member_fails_to_load(self, corridor_mdp, tmp_path, member):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        doc["label_states"] = doc["label_states"].copy()
        doc["label_states"][0] = member
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match="label member"):
            load_mdp(path)

    def test_old_json_dump_is_refused(self, tmp_path):
        path = tmp_path / "old.mdp.json"
        path.write_text(json.dumps({"states": [], "actions": [], "enabled": [], "rows": []}))
        with pytest.raises(MdpFormatError, match="JSON dumps"):
            load_mdp(path)

    @pytest.mark.parametrize("drop", ["succ", "facet", "format", "label_ptr"])
    def test_missing_array_is_a_format_error(self, corridor_mdp, tmp_path, drop):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = {k: v for k, v in archive.items() if k != drop}
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError):
            load_mdp(path)

    def test_unsigned_label_pointer_is_checked_as_signed(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        ptr = doc["label_ptr"].astype(np.uint64)
        ptr[[1, 2]] = ptr[[2, 1]]
        np.savez(path, **dict(doc, label_ptr=ptr))
        with pytest.raises(MdpFormatError, match="label pointer"):
            load_mdp(path)

    @pytest.mark.parametrize("change, words", [
        (lambda doc: doc.pop("succ"), "array 'succ' is missing"),
        (lambda doc: doc.update(succ=np.array([object()], dtype=object)), "ValueError"),
    ], ids=["missing", "pickled"])
    def test_archive_errors_give_no_json_hint(self, corridor_mdp, tmp_path, change, words):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        change(doc)
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match=words) as err:
            load_mdp(path)
        assert "JSON" not in str(err.value)

    def test_pickled_or_mistyped_arrays_are_format_errors(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        np.savez(path, **dict(doc, states=np.array([object()], dtype=object)))
        with pytest.raises(MdpFormatError):
            load_mdp(path)
        np.savez(path, **dict(doc, succ=doc["succ"].astype(float)))
        with pytest.raises(MdpFormatError):
            load_mdp(path)

    def test_export_is_byte_deterministic(self, corridor_mdp, tmp_path):
        first = export_prism(corridor_mdp, tmp_path / "a" / "model")
        second = export_prism(corridor_mdp, tmp_path / "b" / "model")
        assert [p.suffix for p in first] == [".sta", ".tra", ".lab"]
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()

    def test_export_formats(self, corridor_mdp, tmp_path):
        sta, tra, lab = export_prism(corridor_mdp, tmp_path / "model")

        tra_lines = tra.read_text().splitlines()
        n, choices, transitions = map(int, tra_lines[0].split())
        assert n == corridor_mdp.n_states
        assert choices == corridor_mdp.n_choices()
        assert transitions == corridor_mdp.n_transitions()
        assert len(tra_lines) == 1 + transitions
        src, choice, dst, p = tra_lines[1].split()
        assert (int(src), int(choice)) == (0, 0)
        assert 0.0 < float(p) <= 1.0

        sta_lines = sta.read_text().splitlines()
        assert sta_lines[0] == "(facet,region,count,level,alive,beliefs)"
        assert len(sta_lines) == 1 + n
        assert sta_lines[1].startswith("0:(")

        lab_lines = lab.read_text().splitlines()
        assert lab_lines[0] == '0="init" 1="deadlock" 2="alive" 3="rp" 4="rd"'
        assert lab_lines[1].startswith("0: 0")


def reference_export(mdp) -> list[bytes]:
    """The ``.sta``, ``.tra`` and ``.lab`` bytes of the per-line formatter the export replaced."""
    table = mdp.states
    if table is None:
        sta = ["(s)"] + [f"{i}:({i})" for i in range(mdp.n_states)]
    else:
        # belief tuples are numbered in order of first appearance
        ptr, beliefs = table.belief_ptr.tolist(), table.beliefs.tolist()
        seen: dict = {}
        combos = [seen.setdefault(tuple(beliefs[lo:hi]), len(seen))
                  for lo, hi in zip(ptr, ptr[1:])]
        sta = ["(facet,region,count,level,alive,beliefs)"]
        sta.extend(f"{i}:({f},{r},{c},{o},{a},{b})" for i, (f, r, c, o, a, b) in enumerate(zip(
            table.facet.tolist(), table.region.tolist(), table.count.tolist(),
            table.level.tolist(), table.alive.astype(int).tolist(), combos)))

    trans = mdp.transition_choice()
    order = np.lexsort((mdp.prob, mdp.succ, trans))
    owner = mdp.choice_state()[trans[order]]
    local = trans[order] - mdp.state_ptr[owner]
    tra = [f"{mdp.n_states} {mdp.n_choices()} {mdp.n_transitions()}"]
    tra.extend(f"{s} {c} {t} {p!r}" for s, c, t, p in zip(
        owner.tolist(), local.tolist(), mdp.succ[order].tolist(), mdp.prob[order].tolist()))

    exported = [("init", None), ("deadlock", None), ("alive", "alive"),
                ("rp", PICKUP), ("rd", DROPOFF)]
    lab = [" ".join(f'{i}="{name}"' for i, (name, _) in enumerate(exported))]
    masks = [(i, mdp.label(key).tolist()) for i, (_, key) in enumerate(exported) if key]
    for s in range(mdp.n_states):
        tags = [0] if s == mdp.init else []
        tags += [i for i, mask in masks if mask[s]]
        if tags:
            lab.append(f"{s}: {' '.join(str(t) for t in tags)}")
    return [("\n".join(lines) + "\n").encode() for lines in (sta, tra, lab)]


def exported_bytes(mdp, base) -> list[bytes]:
    return [path.read_bytes() for path in export_prism(mdp, base)]


def awkward_numbers_mdp():
    """Hand-built model whose rows need repr's exponent form, signed zero and repeats."""
    return make_mdp({
        0: {"a": [(1, 0.5), (1, -0.0), (2, 0.0), (1, 0.0), (2, 0.1 + 0.2), (0, 0.2)],
            "b": [(2, 1e-05), (2, 5e-324), (0, 1 - 1e-05)]},
        1: {"a": [(1, 1.0)]},
        2: {"a": [(0, 0.7), (2, 0.3)], "b": [(2, 1.0)]},
    }, init=2, labels={"alive": {0, 1, 2}, PICKUP: {1}, DROPOFF: {0, 2}})


class TestExport:
    """The streamed export writes the reference formatter's bytes."""

    def test_corridor_matches_reference(self, corridor_mdp, tmp_path):
        assert exported_bytes(corridor_mdp, tmp_path / "m") == reference_export(corridor_mdp)

    @pytest.mark.parametrize("index", range(20))
    def test_random_builds_match_reference(self, index, tmp_path):
        mdp = build_mdp(batched_envs()[index])
        assert exported_bytes(mdp, tmp_path / "m") == reference_export(mdp)

    def test_awkward_numbers_match_reference(self, tmp_path):
        mdp = awkward_numbers_mdp()
        assert validate_mdp(mdp) == []
        sta, tra, lab = exported_bytes(mdp, tmp_path / "m")
        assert [sta, tra, lab] == reference_export(mdp)
        # tied successors keep their row order, and -0.0 is not printed as 0.0
        assert b"0 0 1 -0.0\n0 0 1 0.0\n0 0 1 0.5\n0 0 2 0.0\n0 0 2 0.30000000000000004\n" in tra
        assert b"0 1 2 5e-324\n0 1 2 1e-05\n" in tra
        assert lab.splitlines()[1:] == [b"0: 2 4", b"1: 2 3", b"2: 0 2 4"]

    @pytest.mark.parametrize("target", [-1, 10**6])
    def test_out_of_range_successor_is_refused(self, corridor_mdp, tmp_path, target):
        mdp = with_row(corridor_mdp, 0, [(target, 1.0)])
        with pytest.raises(ValueError, match="not one of the"):
            export_prism(mdp, tmp_path / "m")

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_seams_keep_the_bytes(self, chunk, corridor_mdp, case_envs, tmp_path,
                                        monkeypatch):
        mdps = [corridor_mdp, build_mdp(case_envs["A"])]
        default = [exported_bytes(mdp, tmp_path / f"default{i}") for i, mdp in enumerate(mdps)]
        monkeypatch.setattr(mdpbuild, "CHUNK", chunk)
        chunked = [exported_bytes(mdp, tmp_path / f"chunk{i}") for i, mdp in enumerate(mdps)]
        assert chunked == default
