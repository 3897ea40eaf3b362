"""State-space construction: event races, crossing mass, lost handling, export."""

import copy
import dataclasses
import hashlib
import json
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bundled_doc,
    choice_owner,
    estimated_rate,
    initial_state,
    make_mdp,
    random_environment,
    random_mdp,
    read_prism,
    state_rows,
    transitions,
)
from hostilemdp.belief import ENTERED, LEFT, enumerate_reachable
from hostilemdp import mdpbuild
from hostilemdp.envmodel import DROPOFF, PICKUP, parse_environment
from hostilemdp.mdpbuild import (
    MdpBuilder,
    MdpFormatError,
    StateTable,
    VehicleState,
    build_mdp,
    dump_mdp,
    export_prism,
    load_mdp,
    validate_mdp,
)
from hostilemdp.synth import synthesize_mission

ARRAYS = ("state_ptr", "choice_action", "choice_ptr", "succ", "prob")
#: the arrays of a StateTable, every one of its fields
COLUMNS = ["facet_names", "facet", "region_names", "region", "count", "level", "alive", "beliefs",
           "closures", "windows"]


def assert_same_table(a, b):
    assert [f.name for f in dataclasses.fields(StateTable)] == COLUMNS
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


def assert_same_build(a, b):
    assert_same_table(a.states, b.states)
    for name in ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    assert a.labels.keys() == b.labels.keys()
    for name in a.labels:
        assert np.array_equal(a.label(name), b.label(name)), name
    assert a.warnings == b.warnings


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


def two_dead_ends_doc():
    """g's only crossing leads into h at fm; h's goes on to fc or fb, where nothing leaves.

    Pairs are declared with fb before fc, but fc's states appear first, and
    each of the two dead-end pairs holds a state for either adversary count of h.
    """
    def region(rid, hi, p_init, label):
        return {"id": rid, "adversaries": {"min": 0, "max": hi, "p_init": p_init},
                "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                "mu_enter": 0.5, "mu_leave": 0.5, "labels": [label]}

    lost = {"marginal_n": {"0": 0.0, "1": 0.0}, "marginal_o": {"0": 1.0}}
    return {
        "regions": [region("g", 0, {"0": "1"}, "pickup"),
                    region("h", 1, {"0": "1/2", "1": "1/2"}, "dropoff")],
        "facets": [{"id": "fa", "regions": ["g"]}, {"id": "fm", "regions": ["g", "h"]},
                   {"id": "fb", "regions": ["h"]}, {"id": "fc", "regions": ["h"]}],
        "primitives": [
            {"from": "fa", "to": "fm", "region": "g", "rate": 1.0, "lost": lost},
            {"from": "fm", "to": "fc", "region": "h", "rate": 1.0, "lost": lost,
             "outcomes": [{"facet": "fc", "p": "1/2"}, {"facet": "fb", "p": "1/2"}]},
        ],
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
        nu = estimated_rate(self.builder, self.state, self.prim)
        assert nu == pytest.approx(3.38, abs=1e-9)

    def test_row_is_a_distribution(self):
        row = transitions(self.builder, self.state, self.prim)
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for _, p in row)

    def test_enter_probabilities_split_by_expected_count(self):
        row = dict(transitions(self.builder, self.state, self.prim))
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
        row = dict(transitions(self.builder, self.state, self.prim))
        bset = self.builder.belief_sets["r1"]
        child = bset.edges[0].get(LEFT)
        # point mass at 2 shifts down to a point mass at 1
        member = bset.members[child]
        assert dict(member.items()) == {1: 1}
        assert any(s.beliefs == (child, 0, 0) for s in row)

    def test_leave_splits_evenly_over_receivers(self):
        row = dict(transitions(self.builder, self.state, self.prim))
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
        row = dict(transitions(self.builder, self.state, self.prim))
        # f5 leads to r3, whose tracked belief is still the point mass at 3
        landed = VehicleState("f5", "r3", 3, 0, True, (0,))
        assert row[landed] == pytest.approx(0.5 / 3.38, abs=1e-12)
        assert not any(s.region == "r3" and s.count != 3 for s in row)

    def test_lost_states_reject_transitions(self):
        lost = self.state._replace(alive=False)
        with pytest.raises(ValueError):
            transitions(self.builder, lost, self.prim)


class TestEventIndicators:
    """The four degenerate cases where an event family switches off."""

    @staticmethod
    def race(side_p_init, count, side_window=(0, 2)):
        env = parse_environment(pair_doc(side_p_init, side_window), name="pair")
        builder = MdpBuilder(env)
        prim = env.primitives_from("fa", "mid")[0]
        state = VehicleState("fa", "mid", count, 0, True, (0,))
        row = transitions(builder, state, prim)
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)
        deltas = {s.count - count for s, p in row if s.region == "mid" and s.alive}
        return estimated_rate(builder, state, prim), deltas

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
        init = initial_state(builder)
        for prim in corridor_env.primitives_from(init.facet, init.region):
            row = dict(transitions(builder, init, prim))
            nu = estimated_rate(builder, init, prim)
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
        state = initial_state(builder)
        prim = env.primitives_from("fa", "g")[0]
        row = transitions(builder, state, prim)
        # no region is entered, so only the facet changes
        assert row == [(state._replace(facet="fb"), 1.0)]

    def test_outcome_pmf_splits_exit_mass(self):
        outcomes = [{"facet": "fb", "p": "7/10"}, {"facet": "fa", "p": "3/10"}]
        env = parse_environment(loop_doc(outcomes=outcomes), name="loop")
        builder = MdpBuilder(env)
        state = initial_state(builder)
        prim = env.primitives_from("fa", "g")[0]
        row = dict(transitions(builder, state, prim))
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

    @pytest.mark.parametrize("batch", [1, mdpbuild.BATCH])
    def test_dead_ends_are_warned_once_per_pair_in_order_of_appearance(self, monkeypatch,
                                                                         batch):
        monkeypatch.setattr(mdpbuild, "BATCH", batch)
        mdp = build_mdp(parse_environment(two_dead_ends_doc(), name="two-dead-ends"))
        at = [(mdp.states[s].facet, mdp.states[s].count) for s in range(mdp.n_states)]
        assert at[3:] == [("fc", 0), ("fb", 0), ("fc", 1), ("fb", 1)]
        assert mdp.warnings == [
            "dead end: no primitive leaves facet 'fc' across region 'h'",
            "dead end: no primitive leaves facet 'fb' across region 'h'",
        ]


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
            assert mdp.states[mdp.init] == initial_state(MdpBuilder(env))

    def test_build_is_deterministic(self, corridor_env):
        assert_same_build(build_mdp(corridor_env), build_mdp(corridor_env))


#: seed of the random environments whose builds are checked row by row and pinned
BATCHED_SEED = 20261018

#: sha256 of the build arrays and the ``repr`` of every state's VehicleState of those
#: 20 environments; it reads no table column, so it holds whatever the table's layout
BATCHED_DIGEST = "e70fc40c6c1cd89829f317f6fe126cf3537dd76e40d039934abd8ead0f228fd3"


def batched_envs():
    rng = np.random.default_rng(BATCHED_SEED)
    return [random_environment(rng) for _ in range(20)]


def rp_crossing_corridor(outcomes):
    """Corridor whose f2 -> f3 crossing of rp ends at ``outcomes``, (facet, p) pairs."""
    doc = bundled_doc("corridor")
    prim = next(p for p in doc["primitives"] if p["region"] == "rp" and p["from"] == "f2")
    prim["outcomes"] = [{"facet": facet, "p": p} for facet, p in outcomes]
    return parse_environment(doc, name="corridor-repeated-exit")


def repeated_exit_corridor():
    """Corridor whose f2 -> f3 crossing of rp names exit f3 twice; the parser sums its shares."""
    return rp_crossing_corridor([("f3", "1/2"), ("f2", "1/4"), ("f3", "1/4")])


def wide_keys_env():
    """Nine wide beliefs per state: a state's key needs more than 62 bits."""
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
    return parse_environment(doc, name="wide-keys")


class TestBatchedBuild:
    """The batched build against the one-state specification ``transitions``."""

    @staticmethod
    def assert_rows_follow_transitions(env):
        builder = MdpBuilder(env)
        mdp = builder.build()
        table = mdp.states
        stay = len(env.primitives)
        leaving = {}
        for idx, prim in enumerate(env.primitives):
            leaving.setdefault((prim.from_facet, prim.region), []).append((idx, prim))
        for s in range(mdp.n_states):
            state = table[s]
            prims = leaving.get((state.facet, state.region), []) if state.alive else []
            rows = state_rows(mdp, s)
            if not prims:
                assert rows == [(stay, [(s, 1.0)])]
                continue
            assert [a for a, _ in rows] == [idx for idx, _ in prims]
            for (_, row), (_, prim) in zip(rows, prims):
                got = [(table[t], p) for t, p in row]
                assert got == transitions(builder, state, prim), (s, prim.name)

    @pytest.mark.parametrize("index", range(20))
    def test_random_rows_follow_transitions(self, index):
        self.assert_rows_follow_transitions(batched_envs()[index])

    def test_corridor_rows_follow_transitions(self, corridor_env):
        self.assert_rows_follow_transitions(corridor_env)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_drawn_environments_follow_transitions(self, seed):
        self.assert_rows_follow_transitions(random_environment(np.random.default_rng(seed)))

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
        action, prim = next((idx, p) for idx, p in enumerate(env.primitives)
                            if (p.from_facet, p.region) == ("f2", "rp"))
        fresh = (0,) * len(env.neighbors("rd"))
        lane = env.neighbors("rp").index("rd")
        folded = 0
        for s in range(mdp.n_states):
            state = mdp.states[s]
            if state[:2] != ("f2", "rp") or not state.alive:
                continue
            row = {mdp.states[t]: p for a, r in state_rows(mdp, s) if a == action for t, p in r}
            crossing = prim.rate / estimated_rate(builder, state, prim)
            keep = 1.0 - prim.lost[(state.count, state.level)]
            # the parser sums both f3 shares into 3/4; in powers of two the landed entries
            # are those of the two shares, summed
            for n2, pn in builder.belief_sets["rd"].members[state.beliefs[lane]].items():
                for o2, po in env.regions["rd"].obstacle_items():
                    pn, po = float(pn), float(po)  # the build's pmf tables hold floats
                    landed = VehicleState("f3", "rd", n2, o2, True, fresh)
                    assert row[landed] == (crossing * 0.5 * pn * po * keep
                                           + crossing * 0.25 * pn * po * keep)
                    folded += 1
        assert folded

    def test_a_repeated_exit_builds_the_model_of_its_summed_share(self):
        """1/10 + 2/10 is 0.30000000000000004 in floats; the exact sum is the 3/10 of a
        doc that names f3 once, so both docs build the same arrays, bit for bit."""
        named_twice = build_mdp(rp_crossing_corridor(
            [("f3", "1/10"), ("f2", "7/10"), ("f3", "2/10")]))
        named_once = build_mdp(rp_crossing_corridor([("f3", "3/10"), ("f2", "7/10")]))
        assert_same_build(named_twice, named_once)
        for name in ARRAYS:
            assert getattr(named_twice, name).tobytes() == getattr(named_once, name).tobytes()

    def test_an_underflowing_entry_drops_from_its_own_row_only(self):
        """An adversary entering at mu_enter 1e-300 underflows to 0.0 in a race of
        total 1e300, but not in one of total 1.0, so one state drops it from one row."""
        doc = bundled_doc("corridor")
        next(r for r in doc["regions"] if r["id"] == "rs")["mu_enter"] = 1e-300
        slow = next(p for p in doc["primitives"] if (p["from"], p["region"]) == ("f0", "rs"))
        slow["rate"] = 1.0
        doc["facets"].append({"id": "f4", "regions": ["rs"]})
        doc["primitives"].append(dict(slow, to="f4", rate=1e300))
        env = parse_environment(doc, name="corridor-underflow")
        self.assert_rows_follow_transitions(env)
        mdp = build_mdp(env)
        entering = {a: [p for t, p in row if mdp.states[t][1:3] == ("rs", 1)]
                    for a, row in state_rows(mdp, mdp.init)}
        assert set(entering) == {env.primitives.index(p) for p in env.primitives
                                 if p.from_facet == "f0"}
        fast = len(env.primitives) - 1
        assert entering.pop(fast) == []
        [(_, kept)] = entering.items()
        assert len(kept) == 1 and kept[0] > 0.0

    def test_keys_wider_than_one_word(self):
        """Nine wide beliefs per state need more than 62 bits of key; the build still matches."""
        env = wide_keys_env()
        builder = MdpBuilder(env)
        assert builder.init_key.dtype.itemsize > 8
        self.assert_rows_follow_transitions(env)

    @pytest.mark.parametrize("batch", [1, 7, 10**6])
    def test_rounds_of_any_size_build_the_same_model(self, monkeypatch, corridor_env, batch):
        pinned = batched_envs()
        # the two largest of the pinned environments: 405 and 137 states
        envs = [corridor_env, pinned[2], pinned[16], repeated_exit_corridor(), wide_keys_env()]
        default = [build_mdp(env) for env in envs]
        monkeypatch.setattr(mdpbuild, "BATCH", batch)
        for env, want in zip(envs, default):
            assert_same_build(build_mdp(env), want)

    def test_random_builds_are_pinned(self):
        digest = hashlib.sha256()
        for env in batched_envs():
            mdp = build_mdp(env)
            for name in ARRAYS:
                digest.update(getattr(mdp, name).tobytes())
            table = mdp.states
            digest.update(repr([table[s] for s in range(len(table))]).encode())
        assert digest.hexdigest() == BATCHED_DIGEST


def first_appearance(initial, rounds):
    """Reference numbering: each key's number, and the positions of the keys seen first."""
    ids = {}
    for key in initial.tolist():
        ids.setdefault(key, len(ids))
    for keys in rounds:
        numbers, fresh = [], []
        for pos, key in enumerate(keys.tolist()):
            if key not in ids:
                ids[key] = len(ids)
                fresh.append(pos)
            numbers.append(ids[key])
        yield numbers, fresh


def drawn_keys(kind, rng, n):
    """``n`` keys with repeats: small one-word keys, one-word keys around the packing
    limit of a round of ``n`` (``2**(63 - P)``, P the bit length of ``n``), or two-word keys."""
    if kind == "packed":
        return rng.integers(0, 50, n)
    if kind == "past the limit":
        return (1 << (63 - max(n, 1).bit_length())) + rng.integers(-3, 3, n)
    return np.ascontiguousarray(rng.integers(0, 4, (n, 2))).view(np.dtype((np.void, 16))).ravel()


KEY_KINDS = ["packed", "past the limit", "void"]


class TestNumbering:
    @pytest.mark.parametrize("kind", KEY_KINDS)
    def test_numbers_in_order_of_first_appearance(self, kind):
        rng = np.random.default_rng(5)
        initial = drawn_keys(kind, rng, 1)
        rounds = [drawn_keys(kind, rng, n) for n in (1, 5, 40, 0, 300, 77, 1000)]
        numbering = mdpbuild._Numbering(initial)
        for keys, (numbers, fresh) in zip(rounds, first_appearance(initial, rounds)):
            ids, first = numbering(keys)
            assert ids.tolist() == numbers
            assert first.tolist() == fresh

    @pytest.mark.parametrize("kind", KEY_KINDS + ["negative"])
    def test_distinct_is_unique_with_index_and_inverse(self, kind):
        rng = np.random.default_rng(6)
        for n in (0, 1, 2, 63, 64, 500):
            keys = -drawn_keys("packed", rng, n) if kind == "negative" else drawn_keys(kind, rng, n)
            want = np.unique(keys, return_index=True, return_inverse=True)
            for got, expected in zip(mdpbuild._distinct(keys), want):
                assert np.array_equal(got, expected.ravel())


class TestSharedTables:
    def test_case_a_enumerates_one_closure_per_initial_belief(self, monkeypatch, case_envs):
        beliefs = []

        def counted(belief):
            beliefs.append(belief)
            return enumerate_reachable(belief)

        monkeypatch.setattr(mdpbuild, "enumerate_reachable", counted)
        env = case_envs["A"]
        builder = MdpBuilder(env)
        assert len(env.regions) == 13 and len(beliefs) == len(set(beliefs)) == 4
        closures = {id(bset): bset for bset in builder.belief_sets.values()}
        assert sorted(map(len, closures.values())) == [1, 3, 6, 6]
        for rid, region in env.regions.items():
            assert builder.belief_sets[rid].members[0] == region.initial_belief

    def test_case_a_fills_one_loss_table_per_distinct_spec(self, case_envs):
        env = case_envs["A"]
        builder = MdpBuilder(env)
        assert len(set(builder.lost_first.tolist())) == 7
        for j, prim in enumerate(env.primitives):
            levels = env.regions[prim.region].max_obstacle_level + 1
            for (n, o), p in prim.lost.items():
                assert builder.lost[builder.lost_first[j] + n * levels + o] == p


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


def save_one_array(path, array):
    """Write ``array`` as a bare ``.npy`` file under exactly ``path``, which ``np.save`` would
    give a ``.npy`` suffix."""
    with open(path, "wb") as handle:
        np.save(handle, array)


def kinds(mdp):
    return {v.kind for v in validate_mdp(mdp)}


#: (array, tamper) pairs that leave the arrays in a shape no walk may follow
BROKEN_SHAPES = [
    ("state_ptr", lambda a: a[::-1].copy()),
    ("choice_ptr", lambda a: np.concatenate((a[:5], a[6:7], a[5:6], a[7:]))),
    ("state_ptr", lambda a: a[:-1]),
    ("choice_ptr", lambda a: a + 1),
    ("prob", lambda a: a[:-1]),
    ("state_ptr", lambda a: a[:0]),
    ("states", lambda t: dataclasses.replace(t, alive=t.alive[:-1])),
]


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

    @pytest.mark.parametrize("name, tamper", BROKEN_SHAPES)
    def test_broken_pointers_are_reported_not_raised(self, corridor_mdp, name, tamper):
        mdp = dataclasses.replace(corridor_mdp, **{name: tamper(getattr(corridor_mdp, name))})
        assert "row-shape" in kinds(mdp)

    def test_clean_model_passes(self, corridor_mdp):
        assert validate_mdp(corridor_mdp) == []

    def test_transition_owners_are_made_only_for_bad_entries(self, corridor_mdp, monkeypatch):
        calls = []
        owners = mdpbuild.Mdp.transition_choice

        def counted(mdp):
            calls.append(mdp)
            return owners(mdp)

        monkeypatch.setattr(mdpbuild.Mdp, "transition_choice", counted)
        assert validate_mdp(corridor_mdp) == []
        assert calls == []
        mdp = copy.deepcopy(corridor_mdp)
        mdp.prob[1] = -0.25
        assert [(v.state, v.kind) for v in validate_mdp(mdp)] == [
            (int(choice_owner(mdp)[0]), "prob-range"), (int(choice_owner(mdp)[0]), "row-sum")]
        assert len(calls) == 1


class TestKernelCheck:
    """``Mdp.check_arrays`` refuses, once per model and before scipy's kernels read
    the arrays, what would make them read or write outside an array."""

    @pytest.mark.parametrize("name, tamper", BROKEN_SHAPES)
    def test_a_broken_shape_is_raised_as_validate_mdp_reports_it(self, corridor_mdp, name,
                                                                  tamper):
        mdp = dataclasses.replace(corridor_mdp, **{name: tamper(getattr(corridor_mdp, name))})
        reported = [v.detail for v in validate_mdp(mdp) if v.kind == "row-shape"]
        if name == "states":  # the kernels never read the state table
            mdp.check_arrays()
            return
        with pytest.raises(ValueError, match=f"^{re.escape(reported[0])}; see validate_mdp$"):
            mdp.check_arrays()

    @pytest.mark.parametrize("successor", [-1, "n", 5_000_000])
    def test_a_successor_out_of_range_is_raised_and_still_reported(self, corridor_mdp,
                                                                   successor):
        n = corridor_mdp.n_states
        mdp = with_row(corridor_mdp, 0, [(n if successor == "n" else successor, 1.0)])
        with pytest.raises(ValueError, match=f"^a successor is not one of the {n} states; "
                                             "see validate_mdp$"):
            mdp.check_arrays()
        assert "succ-range" in kinds(mdp)

    @pytest.mark.parametrize("name, dtype", [("state_ptr", np.int32), ("choice_action", np.int32),
                                             ("choice_ptr", np.uint64), ("succ", np.int32),
                                             ("prob", np.float32)])
    def test_each_array_must_have_its_documented_dtype(self, corridor_mdp, name, dtype):
        mdp = dataclasses.replace(corridor_mdp,
                                  **{name: getattr(corridor_mdp, name).astype(dtype)})
        want = f"{name} is {np.dtype(dtype)}, not {'float64' if name == 'prob' else 'int64'}"
        with pytest.raises(ValueError, match=f"^{want}; see validate_mdp$"):
            mdp.check_arrays()
        assert [v.detail for v in validate_mdp(mdp) if v.kind == "row-shape"] == [want]

    def test_a_sound_model_is_checked_once(self, corridor_env, monkeypatch):
        calls = []
        walk = mdpbuild._layout_problems

        def counted(mdp):
            calls.append(mdp)
            return walk(mdp)

        monkeypatch.setattr(mdpbuild, "_layout_problems", counted)
        mdp = build_mdp(corridor_env)
        synthesize_mission(mdp)
        mdp.check_arrays()
        assert calls == [mdp]


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

    def test_loaded_models_export_and_decode_as_built(self, corridor_env, case_envs, tmp_path):
        """A dump read back exports the built model's bytes and holds its vehicle states."""
        rng = np.random.default_rng(20261020)
        envs = [corridor_env, case_envs["A"], case_envs["B"]]
        envs += [random_environment(rng) for _ in range(8)]
        for i, env in enumerate(envs):
            mdp = build_mdp(env)
            dump_mdp(mdp, tmp_path / f"m{i}.npz")
            back = load_mdp(tmp_path / f"m{i}.npz")
            assert exported_bytes(back, tmp_path / f"back{i}") == exported_bytes(
                mdp, tmp_path / f"built{i}"), env.name
            assert len(back.states) == len(mdp.states)
            assert all(back.states[s] == mdp.states[s] for s in range(mdp.n_states)), env.name

    def test_loaded_arrays_are_not_second_copies(self, corridor_mdp, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        read, getitem = {}, np.lib.npyio.NpzFile.__getitem__

        def recorded(archive, key):
            read[key] = getitem(archive, key)
            return read[key]

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recorded)
        back = load_mdp(path)
        for name in ARRAYS:
            assert getattr(back, name) is read[name], name
        for name in ("count", "level", "beliefs"):
            assert getattr(back.states, name) is read[name], name

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

    @pytest.mark.parametrize("labels", [{"none": set()}, {"goal": {1}, "none": set()}, {}])
    def test_empty_label_groups_roundtrip(self, tmp_path, labels):
        """Labels are one (labels, states) bool matrix even where a label, or every label, is
        empty."""
        mdp = make_mdp({0: {"go": [(1, 1.0)]}, 1: {"stay": [(1, 1.0)]}}, labels=labels)
        assert mdp.states is None
        dump_mdp(mdp, tmp_path / "toy.npz")
        with np.load(tmp_path / "toy.npz") as archive:
            masks = archive["label_masks"]
            assert masks.dtype == bool and masks.shape == (len(labels), 2)
            assert [set(np.flatnonzero(row).tolist()) for row in masks] == [
                labels[name] for name in sorted(labels)]
            assert not any(key.startswith(("closure", "window")) for key in archive.files)
        back = load_mdp(tmp_path / "toy.npz")
        assert back.states is None
        assert back.labels.keys() == labels.keys()
        for name in labels:
            assert np.array_equal(back.label(name), mdp.label(name)), name
        assert validate_mdp(back) == []

    def test_closure_sizes_roundtrip(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            assert archive["format"] == "hostile-mdp-csr-5"
            # no ragged groups: every array but the model's own CSR pointers is rectangular
            assert [key for key in archive.files if key.endswith("_ptr")] == [
                "state_ptr", "choice_ptr"]
        back = load_mdp(path)
        assert np.array_equal(back.states.closures, corridor_mdp.states.closures)
        assert np.array_equal(back.states.windows, corridor_mdp.states.windows)
        table = corridor_mdp.states
        for s in range(len(table)):
            state = table[s]
            sizes = table.closures[table.region[s]]
            assert len(state.beliefs) == np.count_nonzero(sizes)
            assert not sizes[len(state.beliefs):].any()
            assert all(0 <= b < size for b, size in zip(state.beliefs, sizes)), state

    def test_windows_are_the_regions_bounds(self, corridor_env, corridor_mdp):
        table = corridor_mdp.states
        assert table.region_names.tolist() == list(corridor_env.regions)
        for r, region in enumerate(corridor_env.regions.values()):
            assert table.windows[r].tolist() == [region.max_obstacle_level + 1,
                                                 region.min_adversaries, region.max_adversaries]
        for s in range(len(table)):
            levels, floor, ceil = table.windows[table.region[s]]
            assert table[s].level < levels and floor <= table[s].count <= ceil, table[s]

    @pytest.mark.parametrize("change, words", [
        (lambda doc: doc["level"].__setitem__(5, doc["level"][5] + 10**6),
         "state 5: obstacle level 1000000 or adversary count 2 is outside region 'rm''s 3 "
         "levels or its window [0, 2]"),
        (lambda doc: doc["level"].__setitem__(5, 3), "state 5: obstacle level 3 "),
        (lambda doc: doc["count"].__setitem__(5, 3), "adversary count 3 is outside"),
        (lambda doc: doc["windows"].__setitem__(slice(None), 0), "0 levels"),
        (lambda doc: doc.pop("windows"), "'windows' is missing"),
        (lambda doc: doc.update(windows=doc["windows"][:, :2]),
         "windows has shape (4, 2), expected (4, 3)"),
        (lambda doc: doc.update(windows=doc["windows"][1:]),
         "windows has shape (3, 3), expected (4, 3)"),
    ], ids=["level", "level past", "count", "bounds", "missing", "two bounds", "rows"])
    def test_level_or_count_outside_its_window_fails_to_load(self, corridor_mdp, tmp_path,
                                                             change, words):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = {key: value.copy() for key, value in archive.items()}
        change(doc)
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match=re.escape(words)):
            load_mdp(path)

    @pytest.mark.parametrize("change, words", [
        (lambda doc: doc["beliefs"].__setitem__(5, doc["beliefs"][5] + 10**6),
         "belief position 1000000 is not below its closure size"),
        (lambda doc: doc["closures"].__setitem__(doc["closures"] > 0, 1), "closure size 1"),
        (lambda doc: doc.update(closures=np.pad(doc["closures"], ((0, 0), (0, 1)))),
         "closures has shape (4, 3), expected (4, 2)"),
        (lambda doc: doc["beliefs"].__setitem__((7, 1), 1),
         "state 7: belief position 1 in lane 1 is past region 'rs''s 1 lanes"),
        (lambda doc: doc.pop("closures"), "'closures' is missing"),
        (lambda doc: doc.update(closures=doc["closures"][1:]),
         "closures has shape (3, 2), expected (4, 2)"),
        (lambda doc: doc["closures"].__setitem__((1, 1), -1), "negative closures -1"),
        (lambda doc: doc["closures"].__setitem__(0, doc["closures"][0, ::-1].copy()),
         "region 'rs' has closure size 6 in lane 1, after an empty lane"),
    ], ids=["position", "sizes", "lanes", "padding", "missing", "rows", "negative", "gap"])
    def test_position_past_its_closure_fails_to_load(self, corridor_mdp, tmp_path, change,
                                                     words):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = {key: value.copy() for key, value in archive.items()}
        change(doc)
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match=re.escape(words)):
            load_mdp(path)

    @pytest.mark.parametrize("tag", ["hostile-mdp-csr-1", "hostile-mdp-csr-2", "hostile-mdp-csr-3",
                                     "hostile-mdp-csr-4", "two\nlines"])
    def test_other_format_tags_are_refused(self, corridor_mdp, tmp_path, tag):
        """One format is read; an older dump, without sizes or windows or with ragged
        beliefs or named groups, is refused, not loaded unchecked."""
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = {k: v for k, v in archive.items() if k not in ("closures", "windows")}
        np.savez(path, **dict(doc, format=np.array(tag)))
        with pytest.raises(MdpFormatError) as err:
            load_mdp(path)
        shown = tag if tag.isprintable() else repr(tag)
        assert str(err.value) == (f"{path}: not a valid MDP dump (format tag {shown}, expected "
                                  "hostile-mdp-csr-5; rebuild with 'build --dump-mdp')")

    def test_repeated_label_names_fail_to_load(self, corridor_mdp, tmp_path):
        # an extra mask named like the first; a dict of the masks would keep only the later one
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        names, masks = doc["label_names"], doc["label_masks"]
        doc["label_names"] = np.append(names, names[0])
        doc["label_masks"] = np.vstack((masks, ~masks[:1]))
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match=f"label name '{names[0]}' is given more than once"):
            load_mdp(path)

    @pytest.mark.parametrize("change, words", [
        (lambda doc: doc.update(label_masks=doc["label_masks"][:, 1:]), "label_masks has shape"),
        (lambda doc: doc.update(label_masks=doc["label_masks"][1:]), "label_masks has shape"),
        (lambda doc: doc.update(label_masks=doc["label_masks"].ravel()),
         "array 'label_masks' has dtype bool and 1 dimensions"),
        (lambda doc: doc.update(label_masks=doc["label_masks"].astype(np.int64)),
         "array 'label_masks' has dtype int64"),
    ], ids=["states", "labels", "1-D", "int"])
    def test_misshapen_label_masks_fail_to_load(self, corridor_mdp, tmp_path, change, words):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        change(doc)
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError, match=re.escape(words)):
            load_mdp(path)

    @pytest.mark.parametrize("write, words", [
        # state 3 is the first with an adversary counted
        (lambda path, doc: np.savez(path, **dict(doc, init=np.array(3))),
         "(initial state VehicleState(facet='f1', region='rm', count=1, level=0, alive=True, "
         "beliefs=(0, 0)) is not a fresh start)"),
        (lambda path, doc: save_one_array(path, doc["succ"]), "(a single array, not an .npz archive)"),
    ], ids=["init", "one array"])
    def test_an_edited_corridor_dump_fails_to_load(self, corridor_mdp, tmp_path, write, words):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        write(path, doc)
        with pytest.raises(MdpFormatError) as err:
            load_mdp(path)
        assert str(err.value) == f"{path}: not a valid MDP dump {words}"

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

    def test_old_json_dump_is_refused(self, tmp_path):
        path = tmp_path / "old.mdp.json"
        path.write_text(json.dumps({"states": [], "actions": [], "enabled": [], "rows": []}))
        with pytest.raises(MdpFormatError, match="JSON dumps"):
            load_mdp(path)

    @pytest.mark.parametrize("drop", ["succ", "facet", "format", "label_masks"])
    def test_missing_array_is_a_format_error(self, corridor_mdp, tmp_path, drop):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = {k: v for k, v in archive.items() if k != drop}
        np.savez(path, **doc)
        with pytest.raises(MdpFormatError):
            load_mdp(path)

    def test_unsigned_closure_sizes_are_checked_as_signed(self, corridor_mdp, tmp_path):
        path = tmp_path / "model.npz"
        dump_mdp(corridor_mdp, path)
        with np.load(path) as archive:
            doc = dict(archive)
        sizes = doc["closures"].astype(np.uint64)
        sizes[1, 1] = 2**64 - 1
        np.savez(path, **dict(doc, closures=sizes))
        with pytest.raises(MdpFormatError, match="negative closures -1"):
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


def sta_values(table) -> list[tuple[int, ...]]:
    """Each state's ``.sta`` values, from its VehicleState alone: facets, regions and
    belief tuples are numbered in order of first appearance."""
    numbers: tuple[dict, dict, dict] = ({}, {}, {})
    rows = []
    for s in range(len(table)):
        v = table[s]
        f, r, b = (seen.setdefault(x, len(seen))
                   for seen, x in zip(numbers, (v.facet, v.region, v.beliefs)))
        rows.append((f, r, v.count, v.level, int(v.alive), b))
    return rows


def reference_export(mdp) -> list[bytes]:
    """The ``.sta``, ``.tra`` and ``.lab`` bytes of the per-line formatter the export replaced."""
    table = mdp.states
    if table is None:
        sta = ["(s)"] + [f"{i}:({i})" for i in range(mdp.n_states)]
    else:
        sta = ["(facet,region,count,level,alive,beliefs)"]
        sta.extend(f"{i}:({','.join(map(str, row))})" for i, row in enumerate(sta_values(table)))

    trans = mdp.transition_choice()
    order = np.lexsort((mdp.prob, mdp.succ, trans))
    owner = choice_owner(mdp)[trans[order]]
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


def long_choice_mdp():
    """Hand-built model whose first choice has twelve transitions, repeating every successor."""
    row = [(5, 0.1), (1, 0.05), (5, 0.05), (0, 0.1), (2, 0.1), (1, 0.1), (3, 0.05), (4, 0.1),
           (2, 0.05), (0, 0.05), (3, 0.1), (4, 0.15)]
    table = {0: {"a": row, "b": [(1, 1.0)]}, 1: {"a": [(2, 0.5), (1, 0.5)]}}
    table.update({s: {"a": [(s, 1.0)]} for s in range(2, 6)})
    return make_mdp(table, labels={"alive": set(range(6)), PICKUP: {1}, DROPOFF: {2}})


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

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_blocks_of_whole_choices_match_reference(self, chunk, corridor_mdp, case_envs,
                                                     tmp_path, monkeypatch):
        long_choice = long_choice_mdp()
        assert validate_mdp(long_choice) == []
        assert np.diff(long_choice.choice_ptr).max() > chunk
        mdps = [corridor_mdp, build_mdp(case_envs["A"]), build_mdp(repeated_exit_corridor()),
                long_choice]
        monkeypatch.setattr(mdpbuild, "CHUNK", chunk)
        for i, mdp in enumerate(mdps):
            assert exported_bytes(mdp, tmp_path / f"m{i}") == reference_export(mdp), i

    def test_export_memory_is_bounded_by_a_block(self, case_envs, tmp_path):
        mdp = build_mdp(case_envs["A"])
        tracemalloc.start()
        try:
            export_prism(mdp, tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # arrays as long as the model's transitions would take 11 MiB here; a block's take KiBs
        assert peak < 6 * 2**20

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           extras=st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), st.integers(0, 5),
                                     st.sampled_from([0.0, -0.0, 0.25, 0.5])), max_size=8),
           chunk=st.sampled_from([1, 3, mdpbuild.CHUNK]))
    def test_random_models_match_reference(self, seed, extras, chunk):
        mdp, _ = random_mdp(np.random.default_rng(seed), max_actions=3)
        mdp = with_extra_entries(mdp, extras)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(mdpbuild, "CHUNK", chunk):
            assert exported_bytes(mdp, Path(tmp) / "m") == reference_export(mdp)


def in_export_order(mdp):
    """Copy of ``mdp`` with each choice's successors in the order the export writes them."""
    order = mdpbuild._successor_order(mdp.n_states, mdp.transition_choice(), mdp.succ, mdp.prob)
    return dataclasses.replace(mdp, succ=mdp.succ[order], prob=mdp.prob[order])


def read_back_cases(corridor_env, case_envs):
    """(name, model): the bundled models, repeated exits, built fuzz environments and
    random models with zero-probability entries, repeated successors and a dead end."""
    yield "corridor", build_mdp(corridor_env)
    yield "A", build_mdp(case_envs["A"])
    yield "B", build_mdp(case_envs["B"])
    yield "repeated-exit", build_mdp(repeated_exit_corridor())
    rng = np.random.default_rng(20261031)
    for i in range(8):
        yield f"built-{i}", build_mdp(random_environment(rng))
    for i in range(24):
        mdp, _ = random_mdp(rng, max_actions=3)
        extras = [(int(rng.integers(10**6)), bool(rng.integers(2)), int(rng.integers(6)),
                   float(rng.choice([0.0, -0.0, 0.25, 0.5]))) for _ in range(i % 4)]
        mdp = with_extra_entries(mdp, extras)
        if i % 6 == 5:  # the last state plays nothing
            cut = mdp.state_ptr[-2]
            mdp = dataclasses.replace(
                mdp, state_ptr=np.append(mdp.state_ptr[:-1], cut),
                choice_action=mdp.choice_action[:cut], choice_ptr=mdp.choice_ptr[:cut + 1],
                succ=mdp.succ[:mdp.choice_ptr[cut]], prob=mdp.prob[:mdp.choice_ptr[cut]])
        labels = {name: rng.random(mdp.n_states) < share
                  for name, share in (("alive", 0.8), (PICKUP, 0.4), (DROPOFF, 0.3))}
        yield f"random-{i}", dataclasses.replace(mdp, labels=labels,
                                                 init=int(rng.integers(mdp.n_states)))


def assert_reads_back_as(read, sta, mdp, name):
    """The read model and ``.sta`` rows are ``mdp``'s, successors in export order."""
    ordered = in_export_order(mdp)
    for field in ("state_ptr", "choice_ptr", "succ"):
        assert np.array_equal(getattr(read, field), getattr(ordered, field)), (name, field)
    assert read.prob.tobytes() == ordered.prob.tobytes(), name
    assert read.init == mdp.init, name
    for label in ("alive", PICKUP, DROPOFF):
        assert np.array_equal(read.label(label), mdp.label(label)), (name, label)
    table = mdp.states
    if table is None:
        assert np.array_equal(sta, np.arange(mdp.n_states)[:, None]), name
        return
    assert sta.tolist() == [list(row) for row in sta_values(table)], name


def mission_bits(strategy):
    return [strategy.value] + [(str(a.dtype), a.tobytes()) for a in (
        strategy.first, strategy.second, strategy.switch, strategy.sat_deliverable,
        strategy.values_first, strategy.values_second)]


class TestPrismReadBack:
    """The exported files mean the model that was solved: read back by a
    reader of PRISM's explicit format that shares no code with the export,
    they give the model's arrays and the same mission bits, and their
    mission value is criterion 8's, within 1e-12 of the original model's."""

    def test_exports_read_back_as_the_model(self, corridor_env, case_envs, tmp_path):
        solved = 0
        for i, (name, mdp) in enumerate(read_back_cases(corridor_env, case_envs)):
            export_prism(mdp, tmp_path / f"m{i}")
            read, sta = read_prism(tmp_path / f"m{i}")
            assert_reads_back_as(read, sta, mdp, name)
            alive = mdp.label("alive")
            if not (alive & mdp.label(PICKUP)).any() or not (alive & mdp.label(DROPOFF)).any():
                continue
            # a reordered row may round differently, so the reordered model is the reference
            want = mission_bits(synthesize_mission(in_export_order(mdp)))
            got = synthesize_mission(read)
            assert mission_bits(got) == want, name
            assert abs(got.value - synthesize_mission(mdp).value) <= 1e-12, name
            solved += 1
        assert solved >= 15

    def test_a_tampered_export_reads_back_as_another_model(self, tmp_path):
        mdp, base = awkward_numbers_mdp(), tmp_path / "m"
        _, tra_path, lab_path = export_prism(mdp, base)
        tra, lab = tra_path.read_text(), lab_path.read_text()
        assert_reads_back_as(*read_prism(base), mdp, "as written")
        # state 0's two choices swapped
        tra_path.write_text(re.sub(r"^0 ([01]) ", lambda m: f"0 {1 - int(m[1])} ", tra,
                                   flags=re.M))
        with pytest.raises(AssertionError):
            assert_reads_back_as(*read_prism(base), mdp, "swapped")
        tra_path.write_text(tra)
        # the pickup atom, 3, dropped from every state that carries it
        lab_path.write_text(re.sub(r" 3(?= |$)", "", lab, flags=re.M))
        with pytest.raises(AssertionError):
            assert_reads_back_as(*read_prism(base), mdp, "dropped")


def with_extra_entries(mdp, extras):
    """Copy of ``mdp`` with one more entry beside transition ``k`` per ``(k, after, t, share)``.

    A zero ``share`` (0.0 or -0.0) adds that probability to successor
    ``t``; any other splits transition ``k``'s probability with a repeat of
    its successor.  The entry goes before transition ``k``, or after it.
    """
    owner = mdp.transition_choice().tolist()
    succ, prob = mdp.succ.tolist(), mdp.prob.tolist()
    for k, after, t, share in extras:
        k %= len(succ)
        if share == 0.0:
            entry = (t % mdp.n_states, share)
        else:
            entry = (succ[k], prob[k] * share)
            prob[k] -= entry[1]
        at = k + after
        succ.insert(at, entry[0])
        prob.insert(at, entry[1])
        owner.insert(at, owner[k])
    lengths = np.bincount(owner, minlength=mdp.n_choices())
    return dataclasses.replace(mdp, choice_ptr=np.concatenate(([0], np.cumsum(lengths))),
                               succ=np.array(succ, dtype=np.int64), prob=np.array(prob))
