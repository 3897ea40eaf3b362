"""Environment parsing, risk model, and rate scaling."""

import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bundled_doc, random_environment
from hostilemdp import envmodel
from hostilemdp.envmodel import (
    EnvironmentFormatError,
    adversary_loss_marginal,
    build_lost_table,
    combine_lost_marginals,
    load_environment,
    parse_environment,
    scale_rates,
)


def small_doc() -> dict:
    """Minimal two-region document used as a mutation base."""
    return {
        "regions": [
            {
                "id": "a",
                "adversaries": {"min": 0, "max": 1, "p_init": {"0": "1"}},
                "obstacles": {"max_level": 0, "p_obs": {"0": "1"}},
                "mu_enter": 0.1, "mu_leave": 0.1,
            },
            {
                "id": "b",
                "adversaries": {"min": 0, "max": 2, "p_init": {"0": "1/2", "2": "1/2"}},
                "obstacles": {"max_level": 1, "p_obs": {"0": "3/4", "1": "1/4"}},
                "mu_enter": 0.1, "mu_leave": 0.1,
                "labels": ["pickup", "dropoff"],
            },
        ],
        "facets": [
            {"id": "f0", "regions": ["a"]},
            {"id": "f1", "regions": ["a", "b"]},
            {"id": "f2", "regions": ["b"]},
        ],
        "primitives": [
            {"from": "f0", "to": "f1", "region": "a", "rate": 0.5,
             "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.0}}},
            {"from": "f1", "to": "f2", "region": "b", "rate": 0.5,
             "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.1, "1": 0.4}}},
        ],
        "init": {"facet": "f0", "region": "a"},
    }


def mutate(path, value, doc=None):
    """``doc``, a fresh :func:`small_doc` by default, with the node at ``path`` set to ``value``."""
    doc = small_doc() if doc is None else doc
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


class TestParsing:
    def test_small_doc_parses(self):
        env = parse_environment(small_doc())
        assert set(env.regions) == {"a", "b"}
        assert env.init_facet == "f0"
        assert env.neighbors("a") == ("b",)
        assert env.successor_region("f1", "a") == "b"
        assert env.successor_region("f0", "a") == "a"
        prim = env.primitives_from("f1", "b")[0]
        assert prim.name == "f1>f2"
        assert prim.lost[(2, 1)] == combine_lost_marginals(0.04, 0.4)

    def test_unknown_facet_in_primitive(self):
        doc = small_doc()
        doc["primitives"][0]["to"] = "nope"
        with pytest.raises(EnvironmentFormatError, match="unknown facet"):
            parse_environment(doc)

    def test_float_probability_rejected(self):
        doc = mutate(("regions", 1, "adversaries", "p_init"), {"0": 0.5, "2": 0.5})
        with pytest.raises(EnvironmentFormatError, match="float"):
            parse_environment(doc)

    def test_pmf_must_sum_to_one(self):
        doc = mutate(("regions", 1, "adversaries", "p_init"), {"0": "1/2", "2": "1/3"})
        with pytest.raises(EnvironmentFormatError, match="sum"):
            parse_environment(doc)

    def test_pmf_support_must_fit_window(self):
        doc = mutate(("regions", 1, "adversaries", "p_init"), {"0": "1/2", "3": "1/2"})
        with pytest.raises(EnvironmentFormatError):
            parse_environment(doc)

    def test_init_region_must_be_clean(self):
        doc = mutate(("regions", 0, "adversaries", "p_init"), {"0": "1/2", "1": "1/2"})
        with pytest.raises(EnvironmentFormatError, match="init"):
            parse_environment(doc)

    def test_same_facet_primitive_needs_labels(self):
        doc = small_doc()
        doc["primitives"].append({
            "from": "f0", "to": "f0", "region": "a", "rate": 0.5,
            "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.0}},
        })
        with pytest.raises(EnvironmentFormatError, match="same-facet"):
            parse_environment(doc)
        # at the labeled region it is allowed
        ok = small_doc()
        ok["primitives"].append({
            "from": "f2", "to": "f2", "region": "b", "rate": 0.5,
            "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.1, "1": 0.4}},
        })
        parse_environment(ok)

    def test_lost_table_must_cover_domain(self):
        doc = mutate(("primitives", 1, "lost"),
                     {"table": {"0": {"0": 0.1}}})
        with pytest.raises(EnvironmentFormatError):
            parse_environment(doc)

    def test_huge_obstacle_level_stops_at_the_first_hole(self):
        # the table's holes are not materialised, so this returns at once
        doc = mutate(("primitives", 1, "lost"), {"table": {"0": {"0": 0.1}}})
        doc["regions"][1]["obstacles"]["max_level"] = 10**18
        with pytest.raises(EnvironmentFormatError, match=r"no entry for \(count, level\) \(0, 1\)"):
            parse_environment(doc)

    def test_nonpositive_rate_rejected(self):
        doc = mutate(("primitives", 0, "rate"), 0)
        with pytest.raises(EnvironmentFormatError, match="rate"):
            parse_environment(doc)

    def test_missing_pickup_label(self):
        doc = mutate(("regions", 1, "labels"), ["dropoff"])
        with pytest.raises(EnvironmentFormatError, match="pickup"):
            parse_environment(doc)

    def test_facet_with_three_regions(self):
        doc = small_doc()
        doc["facets"][1]["regions"] = ["a", "b", "a"]
        with pytest.raises(EnvironmentFormatError):
            parse_environment(doc)

    def test_load_environment_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(EnvironmentFormatError, match="JSON"):
            load_environment(p)

    def test_load_bundled(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(bundled_doc("corridor")))
        env = load_environment(p)
        assert env.name == "corridor"  # in-file name beats the stem
        assert len(env.regions) == 4
        nameless = bundled_doc("corridor")
        del nameless["name"]
        p.write_text(json.dumps(nameless))
        assert load_environment(p).name == "c"

    def test_a_repeated_outcome_facet_gets_the_exact_sum_of_its_shares(self):
        doc = bundled_doc("corridor")
        prim = next(p for p in doc["primitives"] if p["region"] == "rp" and p["from"] == "f2")
        prim["outcomes"] = [{"facet": "f3", "p": "1/10"}, {"facet": "f2", "p": "7/10"},
                            {"facet": "f3", "p": "2/10"}]
        env = parse_environment(doc)
        [parsed] = [p for p in env.primitives if (p.from_facet, p.region) == ("f2", "rp")]
        # 3/10 once, not 1/10 + 2/10 = 0.30000000000000004 in floats
        assert parsed.outcomes == (("f3", 0.3), ("f2", 0.7))
        prim["outcomes"] = [{"facet": "f3", "p": "1/2"}, {"facet": "f3", "p": "1/4"}]
        with pytest.raises(EnvironmentFormatError, match="outcome pmf sums to 3/4, not 1"):
            parse_environment(doc)

    @pytest.mark.parametrize("doc, message", [
        (mutate(("regions", 0, "colour"), "red"), "region 'a': unknown keys ['colour']"),
        (mutate(("regions", 0, "obstacles", "max_level"), -1),
         "region 'a': negative obstacle max_level"),
        (mutate(("regions", 1, "obstacles", "p_obs"), {"0": "3/4", "2": "1/4"}),
         "region 'b': p_obs support escapes [0, 1]"),
        (mutate(("regions", 1, "labels"), ["pickup", "dropoff", "fuel"]),
         "region 'b': unknown labels ['fuel']"),
        (mutate(("primitives", 0, "lost", "table"), {"0": {"0": 0.0}}),
         "primitive f0->f1 lost: give either a table or marginals, not both"),
        (mutate(("primitives", 0, "lost"), {"table": {"0": {"0": 1.5}, "1": {"0": 0.0}}}),
         "primitive f0->f1 lost: loss probability 1.5 at (0, 0)"),
        (mutate(("regions", 0, "id"), "b"), "duplicate region id 'b'"),
        (mutate(("facets", 0, "id"), "f1"), "duplicate facet id 'f1'"),
        (mutate(("primitives", 0, "outcomes"), [{"facet": "f9", "p": "1"}]),
         "primitive f0->f1: unknown outcome facet 'f9'"),
        (mutate(("primitives", 0, "outcomes"), [{"facet": "f2", "p": "1"}]),
         "primitive f0->f1: outcome facet 'f2' does not bound 'a'"),
        (mutate(("init", "facet"), "f2"), "init: facet 'f2' does not bound region 'a'"),
        # an obstacle level in the start region, with a loss entry for it
        (mutate(("primitives", 0, "lost", "marginal_o"), {"0": 0.0, "1": 0.0},
                mutate(("regions", 0, "obstacles"),
                       {"max_level": 1, "p_obs": {"0": "1/2", "1": "1/2"}})),
         "init: initial region must have no obstacles (p_obs(0) = 1)"),
    ], ids=["unknown key", "negative max_level", "p_obs support", "unknown label",
            "table and marginals", "loss above 1", "region id twice", "facet id twice",
            "unknown outcome facet", "outcome facet elsewhere", "init facet elsewhere",
            "init obstacles"])
    def test_each_refusal_names_its_fault(self, doc, message):
        with pytest.raises(EnvironmentFormatError) as err:
            parse_environment(doc)
        assert str(err.value) == message

    def test_fuzzed_documents_parse(self):
        for i in range(25):
            env = random_environment(np.random.default_rng([3, i]))
            assert env.init_region in env.regions


class TestRiskModel:
    def test_adversary_marginal_endpoints(self):
        assert adversary_loss_marginal(0) == 0.0
        assert adversary_loss_marginal(10) == 1.0
        assert adversary_loss_marginal(3) == pytest.approx(0.09)
        for bad in (-1, 11):
            with pytest.raises(ValueError):
                adversary_loss_marginal(bad)

    def test_combine_known_value(self):
        e = math.exp(-1.0)
        assert combine_lost_marginals(e, e) == pytest.approx(math.exp(-math.sqrt(2.0)), abs=1e-15)

    def test_combine_zero_convention_and_ones(self):
        assert combine_lost_marginals(0.0, 0.7) == 0.0
        assert combine_lost_marginals(0.7, 0.0) == 0.0
        assert combine_lost_marginals(1.0, 1.0) == 1.0

    def test_combine_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            combine_lost_marginals(1.2, 0.5)
        with pytest.raises(ValueError):
            combine_lost_marginals(0.5, -0.1)

    @given(st.floats(1e-12, 1.0), st.floats(1e-12, 1.0))
    def test_combine_symmetric(self, p, q):
        assert combine_lost_marginals(p, q) == combine_lost_marginals(q, p)

    @given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
    def test_combine_monotone(self, p, q, r):
        lo, hi = sorted((p, q))
        assert combine_lost_marginals(lo, r) <= combine_lost_marginals(hi, r)

    @given(st.floats(1e-12, math.exp(-1.0)))
    def test_combine_dominates_single_marginal_below_inverse_e(self, p):
        """combine(p, 1) >= p holds exactly up to 1/e.

        sqrt(t) <= t iff t >= 1 with t = -log(p), so the joint with a certain
        co-factor dominates the marginal only while p <= 1/e; beyond that the
        inequality flips.  Both halves are pinned down here.
        """
        assert combine_lost_marginals(p, 1.0) >= p

    @given(st.floats(math.exp(-1.0) + 1e-09, 1.0 - 1e-09))
    def test_combine_reverses_above_inverse_e(self, p):
        assert combine_lost_marginals(p, 1.0) < p


class TestLostTable:
    def region(self, lo=0, hi=3, max_level=2):
        doc = small_doc()
        doc["regions"][1]["adversaries"] = {
            "min": lo, "max": hi,
            "p_init": {str(lo): "1"},
        }
        doc["regions"][1]["obstacles"] = {
            "max_level": max_level,
            "p_obs": {"0": "1"},
        }
        doc["primitives"][1]["lost"] = {
            "marginal_n": "quadratic",
            "marginal_o": {str(o): 0.0 for o in range(max_level + 1)},
        }
        return parse_environment(doc).regions["b"]

    def test_certain_obstacle_reduces_to_adversary_term(self):
        region = self.region()
        table = build_lost_table(region, adversary_loss_marginal, lambda o: 1.0)
        for n in range(region.min_adversaries, region.max_adversaries + 1):
            for o in range(region.max_obstacle_level + 1):
                expected = (0.0 if n == 0
                            else math.exp(-math.sqrt(-math.log(0.01 * n * n))))
                assert table[(n, o)] == pytest.approx(expected, abs=1e-15)

    def test_zero_adversary_marginal_gives_zero_row(self):
        region = self.region()
        table = build_lost_table(region, adversary_loss_marginal, lambda o: 0.5)
        assert all(table[(0, o)] == 0.0 for o in range(3))

    def test_certain_both_gives_certain_loss(self):
        region = self.region()
        table = build_lost_table(region, lambda n: 1.0, lambda o: 1.0)
        assert set(table.values()) == {1.0}

    def test_domain_is_full_rectangle(self):
        region = self.region(lo=1, hi=3, max_level=1)
        table = build_lost_table(region, adversary_loss_marginal, {0: 0.2, 1: 0.9})
        assert set(table) == {(n, o) for n in (1, 2, 3) for o in (0, 1)}


class TestScaleRates:
    def test_scales_everything_linearly(self):
        env = parse_environment(small_doc())
        doubled = scale_rates(env, 2.0)
        for p, q in zip(env.primitives, doubled.primitives):
            assert q.rate == 2.0 * p.rate
            assert q.lost == p.lost
        for rid in env.regions:
            assert doubled.regions[rid].mu_enter == 2.0 * env.regions[rid].mu_enter
            assert doubled.regions[rid].mu_leave == 2.0 * env.regions[rid].mu_leave
        assert scale_rates(env, 1.0).primitives[0].rate == env.primitives[0].rate

    def test_overflowing_factor_is_refused(self):
        doc = small_doc()
        doc["primitives"][0]["rate"] = 1e308
        env = parse_environment(doc)
        with pytest.raises(EnvironmentFormatError, match="f0->f1: rate inf with region .a."):
            scale_rates(env, 2.0)

    @pytest.mark.parametrize("factor", [1e-320, 1e-330])
    def test_underflowing_factor_is_refused(self, factor):
        # a subnormal or zero rate would change every ratio the builder takes
        env = parse_environment(small_doc())
        with pytest.raises(EnvironmentFormatError, match="below the normal float range"):
            scale_rates(env, factor)

    def test_structure_untouched(self):
        env = parse_environment(small_doc())
        doubled = scale_rates(env, 2.0)
        assert doubled.facets == env.facets
        assert doubled.init_facet == env.init_facet
        assert {r.id for r in doubled.regions.values()} == {"a", "b"}


def marginal_doc(marginal_o) -> dict:
    """small_doc with a third primitive, back across region b, using ``marginal_o``."""
    doc = small_doc()
    doc["primitives"].insert(1, {"from": "f2", "to": "f1", "region": "b", "rate": 0.5,
                                 "lost": {"marginal_n": "quadratic", "marginal_o": marginal_o}})
    return doc


class TestSharedLossTables:
    """A loss table built from marginals is shared by the primitives of one parse that
    have the same region window and parsed marginals, and by no others."""

    def test_one_table_per_window_and_marginals(self):
        # the same marginal written in another key order parses to the same one
        env = parse_environment(marginal_doc({"1": 0.4, "0": 0.1}))
        a, back, b = env.primitives
        assert back.lost is b.lost
        assert a.lost is not b.lost

    def test_one_marginal_over_two_windows_gives_two_tables(self):
        doc = small_doc()
        for prim in doc["primitives"]:
            prim["lost"]["marginal_o"] = {"0": 0.5, "1": 0.5}
        a, b = parse_environment(doc).primitives
        assert set(a.lost) == {(0, 0), (1, 0)}
        assert set(b.lost) == {(n, o) for n in range(3) for o in range(2)}

    def test_tables_are_not_shared_between_calls(self):
        first, second = (parse_environment(small_doc()).primitives[1] for _ in range(2))
        assert first.lost == second.lost
        assert first.lost is not second.lost

    @pytest.mark.parametrize("change", [
        lambda doc: doc["regions"][1]["adversaries"].update(max=3),
        lambda doc: doc["primitives"][1]["lost"]["marginal_o"].update({"0": 0.2}),
    ], ids=["window", "marginal"])
    def test_documents_differing_in_one_spec_get_their_own_tables(self, change):
        doc = small_doc()
        change(doc)
        parse_environment(small_doc())
        env = parse_environment(doc)
        region, prim = env.regions["b"], env.primitives[1]
        marginal_o = {int(k): v for k, v in doc["primitives"][1]["lost"]["marginal_o"].items()}
        assert prim.lost == build_lost_table(region, adversary_loss_marginal, marginal_o)

    @pytest.mark.parametrize("bad, words", [
        ({"0": 0.1}, "marginal missing value at 1"),
        ({"0": 0.1, "1": "x"}, "cannot parse number 'x'"),
    ])
    def test_a_bad_shared_marginal_names_its_first_primitive(self, bad, words):
        doc = marginal_doc(bad)
        doc["primitives"][2]["lost"]["marginal_o"] = dict(bad)
        with pytest.raises(EnvironmentFormatError) as err:
            parse_environment(doc)
        assert str(err.value).startswith("primitive f2->f1 lost")
        assert words in str(err.value)

    def test_case_a_builds_one_table_per_distinct_spec(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_lost_table(*args)

        monkeypatch.setattr(envmodel, "build_lost_table", counted)
        env = load_environment(Path(envmodel.__file__).parent / "data" / "city_caseA.json")
        assert len(env.primitives) == 60
        assert len(calls) == 7
        assert len({id(p.lost) for p in env.primitives}) == 7
