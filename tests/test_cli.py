"""Command line behaviour: exit codes, outputs, file side effects."""

import contextlib
import copy
import csv
import dataclasses
import importlib.metadata
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_doc, choice_owner
from hostilemdp import __version__, cli, synth
from hostilemdp.cli import main
from hostilemdp.envmodel import DROPOFF, PICKUP
from hostilemdp.simrun import OUTCOMES

EVENTS = {"region-change", "adversary-entered", "adversary-left",
          "lost-absorb", "stay", "step"}


class TestExitCodes:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_usage_error_without_env(self, capsys):
        for command in ("simulate", "synthesize"):
            with pytest.raises(SystemExit) as err:
                main([command])
            assert err.value.code == 2
            assert "--env or --mdp" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_env_file_exits_one(self, capsys):
        assert main(["build", "--env", "missing.json"]) == 1
        err = capsys.readouterr().err
        assert "missing.json" in err

    def test_missing_mdp_dump_exits_one(self, capsys):
        assert main(["synthesize", "--mdp", "nope.json"]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_environment_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"regions": []}')
        assert main(["validate-env", "--env", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


def corridor_with(tmp_path, change) -> str:
    """Path of a copy of the bundled corridor document after ``change(doc)``."""
    doc = bundled_doc("corridor")
    change(doc)
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    return str(path)


def region(doc, rid):
    return next(r for r in doc["regions"] if r["id"] == rid)


def single_error(capsys) -> str:
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "Traceback" not in err
    return errors[0]


def assert_violations_then_one_error(err: str) -> None:
    """``err`` lists the first 20 violations of a halved corridor model, then refuses it."""
    *violations, last = err.splitlines()[1:]
    count = int(re.search(r"fails validation with (\d+) violations", last).group(1))
    assert len(violations) == min(count, 20) > 0, err
    assert all(line.startswith("violation: state ") for line in violations)
    assert violations[0] == "violation: state 0 action 0: row-sum (0.5000000000000001)"
    assert last.startswith("error: the MDP fails validation with"), err
    assert "'build'" not in last


class TestBadInputs:
    @pytest.mark.parametrize("command", ["synthesize", "build", "simulate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_is_refused(self, tmp_path, capsys, command, value):
        env = corridor_with(tmp_path, lambda d: region(d, "rm").update(mu_enter=value))
        argv = [command, "--env", env] + (["--runs", "10"] if command == "simulate" else [])
        assert main(argv) == 1
        assert "not finite" in single_error(capsys)

    @pytest.mark.parametrize("change, words", [
        (lambda d: region(d, "rm")["adversaries"].update(min="x"), "expected an integer"),
        (lambda d: region(d, "rm")["adversaries"]["p_init"].update(a="1/2"),
         "expected an integer"),
        (lambda d: d.update(regions={r["id"]: r for r in d["regions"]}), "expected a list"),
        (lambda d: d["facets"].append(["f9", "rs"]), "expected an object"),
        (lambda d: region(d, "rm").update(labels=3), "expected a list"),
        (lambda d: region(d, "rm")["adversaries"].update(p_init=["1"]), "expected an object"),
    ])
    def test_type_errors_are_format_errors(self, tmp_path, capsys, change, words):
        assert main(["build", "--env", corridor_with(tmp_path, change)]) == 1
        assert words in single_error(capsys)

    @pytest.mark.parametrize("command", ["validate-env", "build", "synthesize"])
    @pytest.mark.parametrize("content", [b"\xff\xfe", b'{"name": "caf\xe9"}'],
                             ids=["utf-16 mark", "latin-1"])
    def test_non_utf8_environment_is_refused(self, tmp_path, capsys, command, content):
        env = tmp_path / "bad.json"
        env.write_bytes(content)
        assert main([command, "--env", str(env)]) == 1
        assert "not UTF-8 text" in single_error(capsys)

    def test_malformed_dump_exits_one(self, tmp_path, capsys):
        dump = tmp_path / "empty.json"
        dump.write_text("{}")
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        assert "not an MDP dump" in single_error(capsys)

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_invalid_dump_is_refused(self, tmp_path, capsys, command):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        doc["prob"] = doc["prob"] * 0.5
        np.savez(dump, **doc)
        capsys.readouterr()
        assert main([command, "--mdp", str(dump)]) == 1
        line = single_error(capsys)
        assert "fails validation with" in line and "row-sum" in line

    @pytest.mark.parametrize("column", ["count", "level", "beliefs"])
    @pytest.mark.parametrize("change", [np.negative, lambda a: a + 10**6],
                             ids=["negate", "add 10**6"])
    def test_out_of_range_state_columns_are_refused(self, tmp_path, capsys, column, change):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        doc[column] = change(doc[column])
        np.savez(dump, **doc)
        capsys.readouterr()
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        assert "not a valid MDP dump" in single_error(capsys)

    def test_position_past_its_closure_is_refused(self, tmp_path, capsys):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        doc["beliefs"] = doc["beliefs"].copy()
        doc["beliefs"][5] += 10**6
        np.savez(dump, **doc)
        capsys.readouterr()
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        assert "belief position 1000000 is not below" in single_error(capsys)
        # an older dump without closure sizes cannot be checked, so it is refused
        unsized = {k: v for k, v in doc.items() if k != "closures"}
        np.savez(dump, **dict(unsized, format=np.array("hostile-mdp-csr-1")))
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        line = single_error(capsys)
        assert "format tag hostile-mdp-csr-1" in line
        assert line.endswith("rebuild with 'build --dump-mdp')")

    @pytest.mark.parametrize("column, step, words", [
        ("level", 10**6, "state 5: obstacle level 1000000 "),
        ("count", 1, "state 5: obstacle level 0 or adversary count 3 is outside region 'rm'"),
    ], ids=["level", "count"])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_level_or_count_outside_its_window_is_refused(self, tmp_path, capsys, command,
                                                          column, step, words):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        doc[column] = doc[column].copy()
        doc[column][5] += step
        np.savez(dump, **doc)
        capsys.readouterr()
        assert main([command, "--mdp", str(dump)]) == 1
        assert words in single_error(capsys)

    def test_a_dump_without_windows_is_refused(self, tmp_path, capsys):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = {k: v for k, v in archive.items() if k != "windows"}
        # the previous format recorded closure sizes but no windows
        np.savez(dump, **dict(doc, format=np.array("hostile-mdp-csr-2")))
        capsys.readouterr()
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        line = single_error(capsys)
        assert "format tag hostile-mdp-csr-2, expected hostile-mdp-csr-5" in line
        assert line.endswith("rebuild with 'build --dump-mdp')")

    def test_repeated_label_name_is_refused(self, tmp_path, capsys):
        # a second pickup mask, holding the dropoff states, would replace the first
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        names, masks = doc["label_names"].tolist(), doc["label_masks"]
        dropoff = masks[names.index(DROPOFF)]
        doc["label_names"] = np.array(names + [PICKUP])
        doc["label_masks"] = np.vstack((masks, dropoff))
        np.savez(dump, **doc)
        capsys.readouterr()
        assert main(["synthesize", "--mdp", str(dump)]) == 1
        assert f"label name '{PICKUP}' is given more than once" in single_error(capsys)

    def test_export_refuses_an_invalid_build(self, tmp_path, capsys, monkeypatch):
        # the parser refuses the overflowing rates that used to build a broken
        # model, so break the built model itself
        build = cli.build_mdp

        def halved(env):
            mdp = build(env)
            return dataclasses.replace(mdp, prob=mdp.prob * 0.5)

        monkeypatch.setattr(cli, "build_mdp", halved)
        base = tmp_path / "out" / "m"
        assert main(["export", "--env", "corridor", "--out", str(base)]) == 1
        assert "fails validation with" in single_error(capsys)
        assert not base.parent.exists()

    @pytest.mark.parametrize("command", ["build", "synthesize", "simulate", "export"])
    def test_an_invalid_build_lists_its_violations(self, tmp_path, capsys, monkeypatch, command):
        """Every command, build included, lists up to 20 violations of the model it built and
        ends with one error line; build prints none of its counts."""
        build = cli.build_mdp

        def halved(env):
            mdp = build(env)
            return dataclasses.replace(mdp, prob=mdp.prob * 0.5)

        monkeypatch.setattr(cli, "build_mdp", halved)
        argv = [command, "--env", "corridor"]
        argv += ["--out", str(tmp_path / "m")] if command == "export" else []
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert not out
        assert_violations_then_one_error(err)

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_an_invalid_dump_lists_its_violations(self, tmp_path, capsys, command):
        dump = tmp_path / "model.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        with np.load(dump) as archive:
            doc = dict(archive)
        np.savez(dump, **dict(doc, prob=doc["prob"] * 0.5))
        capsys.readouterr()
        assert main([command, "--mdp", str(dump)]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert_violations_then_one_error(err)

    @pytest.mark.parametrize("out", [".", "", "/", "..", "x/.."])
    def test_export_refuses_a_base_path_without_a_file_name(self, tmp_path, capsys,
                                                            monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["export", "--env", "corridor", "--out", out]) == 1
        assert single_error(capsys) == f"error: export base path {out!r} names no file"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_unreachable_pickup_is_one_error_line(self, tmp_path, capsys, command):
        # with no primitive crossing the pickup region, no state carries its label
        def drop(doc):
            doc["primitives"] = [p for p in doc["primitives"] if p["region"] != "rp"]
        assert main([command, "--env", corridor_with(tmp_path, drop)]) == 1
        assert "pickup and dropoff labels" in single_error(capsys)

    def test_zero_mission_value_is_one_error_line_in_simulate(self, tmp_path, capsys):
        # every crossing of the pickup region loses the vehicle, so no strategy
        # plays an action at the initial state
        def doom(doc):
            for prim in doc["primitives"]:
                if prim["region"] == "rp":
                    prim["lost"] = {"marginal_n": {"0": 1.0}, "marginal_o": {"0": 1.0}}
        env = corridor_with(tmp_path, doom)
        assert main(["synthesize", "--env", env]) == 0
        assert "mission value at init: 0.0000000000" in capsys.readouterr().out
        assert main(["simulate", "--env", env, "--runs", "10"]) == 1
        assert "mission value at init is 0" in single_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--method", "lp"],
        ["synthesize", "--method", "both"],
        ["simulate", "--method", "lp", "--runs", "10"],
    ])
    def test_failed_lp_solve_is_one_error_line(self, capsys, monkeypatch, argv):
        def stalled(A_ub, b_ub):
            raise RuntimeError("LP solve failed: Iteration limit reached.")

        monkeypatch.setattr(synth, "_highs_ipm", stalled)
        assert main(argv + ["--env", "corridor"]) == 1
        assert "LP solve failed: Iteration limit reached." in single_error(capsys)

    def test_scipy_without_the_highs_extension_is_one_error_line(self, tmp_path, capsys,
                                                                monkeypatch):
        # the lookup finds a scipy package whose _highspy directory holds no compiled bindings
        (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").touch()
        (tmp_path / "scipy" / "optimize" / "_highspy" / "__init__.py").touch()
        fake = importlib.util.spec_from_file_location("scipy", tmp_path / "scipy" / "__init__.py")
        find = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *args: fake if name == "scipy" else find(name, *args))
        monkeypatch.delitem(sys.modules, synth.HIGHS, raising=False)
        assert main(["synthesize", "--env", "corridor", "--method", "lp"]) == 1
        error = single_error(capsys)
        assert f"error: scipy {importlib.metadata.version('scipy')} lacks {synth.HIGHS}" in error
        assert synth.HIGHS not in sys.modules

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_no_progressing_action_is_one_error_line(self, capsys, monkeypatch, command):
        # a negative tie tolerance leaves no action near-maximal
        monkeypatch.setattr(synth, "TIE_TOL", -1.0)
        assert main([command, "--env", "corridor"]) == 1
        assert "no progressing action" in single_error(capsys)

    @pytest.mark.parametrize("command", ["synthesize", "simulate", "export"])
    def test_underflowing_scale_is_one_error_line(self, tmp_path, capsys, command):
        argv = [command, "--env", "corridor", "--scale", "1e-320"]
        argv += ["--out", str(tmp_path / "out" / "m")] if command == "export" else []
        assert main(argv) == 1
        assert "below the normal float range" in single_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_scale_with_a_dump_is_a_usage_error(self, tmp_path, capsys, command):
        dump = tmp_path / "corridor.mdp.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        capsys.readouterr()
        for value in ("5", "1"):
            with pytest.raises(SystemExit) as err:
                main([command, "--mdp", str(dump), "--scale", value])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert "--scale" in captured.err and "--mdp" in captured.err
            assert not captured.out

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_env_with_a_dump_is_a_usage_error(self, tmp_path, capsys, command):
        dump = tmp_path / "corridor.mdp.npz"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        capsys.readouterr()
        for env in ("caseA", "corridor"):
            with pytest.raises(SystemExit) as err:
                main([command, "--mdp", str(dump), "--env", env])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert "--env" in captured.err and "--mdp" in captured.err
            assert not captured.out

    @pytest.mark.parametrize("command", ["synthesize", "export"])
    def test_overflowing_rates_name_the_field(self, tmp_path, capsys, command):
        def overflow(doc):
            for r in doc["regions"]:
                r.update(mu_enter=1e308, mu_leave=1e308)
            for prim in doc["primitives"]:
                prim["rate"] = 1e308
        argv = [command, "--env", corridor_with(tmp_path, overflow)]
        argv += ["--out", str(tmp_path / "out" / "m")] if command == "export" else []
        assert main(argv) == 1
        line = single_error(capsys)
        assert "primitive" in line and "mu_enter" in line and "overflows" in line
        assert "empty-row" not in line
        assert not (tmp_path / "out").exists()


def _positions(node, path=()):
    """Every key or index path inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


CORRIDOR = bundled_doc("corridor")
OTHER_TYPES = [None, True, "x", "1/0", [], {}, 0, -1, 2.5]
EXTREME_NUMBERS = [1e308, -1e308, 5e-324, 10**400, float("nan"), float("inf"), float("-inf")]
DROP = object()
mutations = st.tuples(
    st.sampled_from(list(_positions(CORRIDOR))),
    st.sampled_from([DROP] + OTHER_TYPES + EXTREME_NUMBERS),
)


def apply_changes(doc, changes):
    """Drop or overwrite each (path, value) of ``changes`` in ``doc``, in order.

    Each value is put in as a fresh copy: the pools share their ``{}`` and ``[]``,
    and a later change under the same position would otherwise write into the
    pool's object, nesting it in itself or carrying it into later examples.
    """
    for path, value in changes:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier change removed this position


def one_error_or_none(argv, refused: bool = False) -> str | None:
    """Run the CLI in-process and return what is wrong with how it ended, or None.

    It should exit 0, or exit 1 with exactly one ``error:`` line, which ends
    stderr; with ``refused``, only the latter.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines[1:] if line.startswith("error:")]
    endings = ((1, 1),) if refused else ((0, 0), (1, 1))
    if not lines[0].startswith("config: ") or (code, len(errors)) not in endings \
            or (code == 1 and lines[-1] != errors[0]):
        return f"{argv}: exit {code}\n{err.getvalue()}"
    return None


#: (name, change) of each way to damage one array of a dump
ARRAY_MUTATIONS = [
    ("truncate", lambda a: a[:-1]),
    ("empty", lambda a: a[:0]),
    ("negate", lambda a: -a),
    ("add 10**6", lambda a: a + 10**6),
    ("float", lambda a: a.astype(float)),
    ("str", lambda a: a.astype(str)),
    ("2-D", lambda a: a.reshape(1, -1)),
]


class TestFuzzedInputs:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(mutations, min_size=1, max_size=2),
           st.sampled_from(["synthesize", "simulate", "export"]))
    def test_exit_zero_or_one_error_line(self, changes, command):
        doc = copy.deepcopy(CORRIDOR)
        apply_changes(doc, changes)
        with tempfile.TemporaryDirectory() as where:
            env = f"{where}/env.json"
            with open(env, "w") as handle:
                json.dump(doc, handle)
            extra = {"simulate": ["--runs", "20"], "export": ["--out", f"{where}/out/m"]}
            assert one_error_or_none([command, "--env", env] + extra.get(command, [])) is None

    def test_damaged_dump_exits_zero_or_one_error_line(self, tmp_path):
        dump = tmp_path / "corridor.npz"
        assert one_error_or_none(["build", "--env", "corridor", "--dump-mdp", str(dump)]) is None
        with np.load(dump) as archive:
            doc = dict(archive)
        damaged = tmp_path / "damaged.npz"
        problems = []
        for key in doc:
            for name, change in [("drop", None)] + ARRAY_MUTATIONS:
                try:
                    value = None if change is None else change(doc[key])
                except (TypeError, ValueError, IndexError):
                    continue  # numpy cannot apply this change to this dtype or shape
                np.savez(damaged, **{k: v for k, v in doc.items() if k != key},
                         **({} if value is None else {key: value}))
                for argv in (["synthesize"], ["simulate", "--runs", "20"]):
                    problem = one_error_or_none(argv + ["--mdp", str(damaged)])
                    if problem:
                        problems.append(f"{key} {name}: {problem}")
        assert not problems, "\n".join(problems)


def _shape(path):
    return tuple("*" if isinstance(key, int) else key for key in path)


CASE_A = bundled_doc("city_caseA")
_NUMBER, _INTEGER = [None, True, "fast", [], {}], [None, True, "x", [], {}, 0.5]
_LIST, _OBJECT = [None, "x", 3, {}], [None, "x", 3, []]
_RATE = [float("nan"), -1.0, -1e-9, float("-inf")]
#: shape of a position in caseA -> what, put there, makes the document invalid: the
#: required key dropped, a value of the wrong type, a NaN or negative rate, or a
#: reference to a region that does not exist
CITY_BREAKS = {
    ("regions",): [DROP] + _LIST,
    ("facets",): [DROP] + _LIST,
    ("primitives",): [DROP] + _LIST,
    ("init",): [DROP] + _OBJECT,
    ("init", "facet"): [DROP],
    ("init", "region"): [DROP, "no-such-region"],
    ("regions", "*", "id"): [DROP],
    ("regions", "*", "adversaries"): [DROP] + _OBJECT,
    ("regions", "*", "adversaries", "min"): [DROP] + _INTEGER,
    ("regions", "*", "adversaries", "max"): [DROP] + _INTEGER,
    ("regions", "*", "adversaries", "p_init"): [DROP] + _OBJECT,
    ("regions", "*", "obstacles"): [DROP] + _OBJECT,
    ("regions", "*", "obstacles", "max_level"): [DROP] + _INTEGER,
    ("regions", "*", "obstacles", "p_obs"): [DROP] + _OBJECT,
    ("regions", "*", "mu_enter"): [DROP] + _NUMBER + _RATE,
    ("regions", "*", "mu_leave"): [DROP] + _NUMBER + _RATE,
    ("facets", "*", "id"): [DROP],
    ("facets", "*", "regions"): [DROP] + _LIST,
    ("facets", "*", "regions", "*"): ["no-such-region"],
    ("primitives", "*", "from"): [DROP],
    ("primitives", "*", "to"): [DROP],
    ("primitives", "*", "region"): [DROP, "no-such-region"],
    ("primitives", "*", "rate"): [DROP] + _NUMBER + _RATE,
    ("primitives", "*", "lost"): [DROP] + _OBJECT,
    ("primitives", "*", "lost", "marginal_n"): [DROP],
    ("primitives", "*", "lost", "marginal_o"): [DROP],
}
city_changes = st.sampled_from(
    [path for path in _positions(CASE_A) if _shape(path) in CITY_BREAKS]
).flatmap(lambda path: st.tuples(st.just(path), st.sampled_from(CITY_BREAKS[_shape(path)])))


class TestFuzzedCityDocuments:
    @settings(deadline=None, max_examples=100)
    @given(st.lists(city_changes, min_size=1, max_size=2))
    def test_every_command_refuses_with_one_error_line(self, changes):
        doc = copy.deepcopy(CASE_A)
        apply_changes(doc, changes)
        with tempfile.TemporaryDirectory() as where:
            env = f"{where}/env.json"
            with open(env, "w") as handle:
                json.dump(doc, handle)
            for command in ("validate-env", "build", "synthesize"):
                assert one_error_or_none([command, "--env", env], refused=True) is None

class TestInspection:
    def test_validate_env_bundled(self, capsys):
        assert main(["validate-env", "--env", "corridor"]) == 0
        out = capsys.readouterr().out
        assert "regions" in out
        assert "pickup: rp" in out
        assert "dropoff: rd" in out
        assert out.rstrip().endswith("ok")

    def test_beliefs_listing_and_dot(self, tmp_path, capsys):
        dot = tmp_path / "beliefs.dot"
        assert main(["beliefs", "--env", "corridor", "--region", "rm",
                     "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "reachable beliefs" in out
        assert "redistributions" in out
        assert dot.read_text().startswith("digraph")

    def test_beliefs_unknown_region(self, capsys):
        assert main(["beliefs", "--env", "corridor", "--region", "nowhere"]) == 1
        assert "unknown region" in capsys.readouterr().err

    def test_build_reports_structure(self, capsys):
        assert main(["build", "--env", "corridor"]) == 0
        out = capsys.readouterr().out
        assert "states: 33" in out
        assert "row sums and absorption checks: ok" in out
        assert "label alive" in out


def indented_strategy(mdp, strategy) -> str:
    """The ``--out`` file as ``json`` writes it, from a payload built entry by entry."""
    owner = choice_owner(mdp)

    def named(policy):
        return {str(owner[c]): mdp.action_names[mdp.choice_action[c]] for c in policy.tolist()}

    payload = {
        "value": strategy.value,
        "method": strategy.method,
        "switch": np.flatnonzero(strategy.switch).tolist(),
        "first": named(strategy.first),
        "second": named(strategy.second),
    }
    return json.dumps(payload, indent=2) + "\n"


class TestStrategyFile:
    """``synthesize --out`` writes exactly the indented JSON of its payload."""

    @pytest.mark.parametrize("env", ["corridor", "caseA"])
    def test_file_is_the_indented_payload(self, tmp_path, capsys, monkeypatch, env):
        solved = []

        def spy(mdp, **kw):
            solved.append((mdp, synth.synthesize_mission(mdp, **kw)))
            return solved[-1][1]

        monkeypatch.setattr(cli, "synthesize_mission", spy)
        out = tmp_path / "s.json"
        assert main(["synthesize", "--env", env, "--out", str(out)]) == 0
        capsys.readouterr()
        (mdp, strategy), = solved
        assert len(strategy.first) and len(strategy.second) and strategy.switch.any()
        assert out.read_text() == indented_strategy(mdp, strategy)

    def test_empty_policies_and_switch(self, corridor_mdp):
        strategy = synth.synthesize_mission(corridor_mdp)
        none = np.zeros(0, dtype=np.int64)
        empty = dataclasses.replace(strategy, first=none, second=none,
                                    switch=np.zeros(corridor_mdp.n_states, dtype=bool))
        assert cli._strategy_json(corridor_mdp, empty) == indented_strategy(corridor_mdp, empty)

    def test_names_and_values_are_escaped_as_json_does(self, corridor_mdp):
        strategy = synth.synthesize_mission(corridor_mdp)
        names = [f'"{name}"\\ \u00e9\t' for name in corridor_mdp.action_names]
        mdp = dataclasses.replace(corridor_mdp, action_names=names)
        for value in (0.1 + 0.2, 0.0, float("nan"), 1e-300):
            odd = dataclasses.replace(strategy, value=value, method='l"p')
            assert cli._strategy_json(mdp, odd) == indented_strategy(mdp, odd)


class TestSynthesize:
    def test_reports_value_and_route(self, capsys):
        assert main(["synthesize", "--env", "corridor"]) == 0
        out = capsys.readouterr().out
        assert "mission value at init: 0.97286572" in out
        assert "phase 1 (reach pickup, delivery still possible)" in out
        assert "phase 2 (reach dropoff from here)" in out
        assert "nominal route (likeliest successful crossings):" in out
        assert "(delivered)" in out

    def test_both_methods_report_agreement(self, capsys):
        assert main(["synthesize", "--env", "corridor", "--method", "both"]) == 0
        out = capsys.readouterr().out
        assert "method agreement (vi vs lp)" in out
        gap = float(out.split("max |diff| ")[1].split()[0])
        assert gap < 1e-6

    def test_dump_roundtrip_matches_direct_build(self, tmp_path, capsys):
        dump = tmp_path / "corridor.mdp.npz"
        direct = tmp_path / "direct.json"
        reloaded = tmp_path / "reloaded.json"
        assert main(["build", "--env", "corridor", "--dump-mdp", str(dump)]) == 0
        assert main(["synthesize", "--env", "corridor", "--out", str(direct)]) == 0
        assert main(["synthesize", "--mdp", str(dump), "--out", str(reloaded)]) == 0
        capsys.readouterr()
        a = json.loads(direct.read_text())
        b = json.loads(reloaded.read_text())
        assert a == b
        assert a["value"] == pytest.approx(0.9728657289, abs=1e-7)
        assert a["method"] == "vi"
        assert a["switch"]
        assert all(ac.count(">") == 1 or ac == "stay" for ac in a["first"].values())

    def test_scaling_rates_leaves_value_alone(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        scaled = tmp_path / "scaled.json"
        assert main(["synthesize", "--env", "corridor", "--out", str(plain)]) == 0
        assert main(["synthesize", "--env", "corridor", "--scale", "2.0",
                     "--out", str(scaled)]) == 0
        capsys.readouterr()
        a = json.loads(plain.read_text())
        b = json.loads(scaled.read_text())
        assert b["value"] == pytest.approx(a["value"], abs=1e-9)
        assert a["first"] == b["first"]
        assert a["second"] == b["second"]


class TestSimulate:
    def test_json_output(self, capsys):
        assert main(["simulate", "--env", "corridor", "--runs", "300",
                     "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 300
        assert payload["seed"] == 7
        assert payload["satisfied"] + payload["lost"] + payload["step_limit"] == 300
        assert 0.0 <= payload["estimate"] <= 1.0
        assert payload["interval"][0] <= payload["value"] <= payload["interval"][1]

    def test_text_output(self, capsys):
        assert main(["simulate", "--env", "corridor", "--runs", "200"]) == 0
        out = capsys.readouterr().out
        assert "mission value at init:" in out
        assert "95% interval" in out
        assert "lost:" in out and "step-limit:" in out

    def test_bad_run_counts_are_usage_errors(self, capsys):
        for flag, value in (("--runs", "0"), ("--runs", "-3"), ("--max-steps", "-1"),
                            ("--seed", "-1")):
            with pytest.raises(SystemExit) as err:
                main(["simulate", "--env", "corridor", flag, value])
            assert err.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-env", "beliefs", "build", "synthesize",
                                         "simulate", "export"])
    def test_bad_scale_is_a_usage_error(self, capsys, command):
        extra = {"beliefs": ["--region", "rm"], "export": ["--out", "unused"]}.get(command, [])
        for value in ("0", "-1", "nan", "inf"):
            with pytest.raises(SystemExit) as err:
                main([command, "--env", "corridor", "--scale", value, *extra])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert "--scale" in captured.err
            assert "Warning" not in captured.err

    def test_bad_tolerance_is_a_usage_error(self, capsys):
        for value in ("-1", "nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as err:
                main(["synthesize", "--env", "corridor", "--tol", value])
            assert err.value.code == 2
            assert "--tol" in capsys.readouterr().err
        # zero asks for the float fixpoint, which value iteration reaches
        assert main(["synthesize", "--env", "corridor", "--tol", "0"]) == 0
        assert "mission value at init: 0.97286572" in capsys.readouterr().out

    def test_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["simulate", "--env", "corridor", "--runs", "5",
                     "--seed", "1", "--trace-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"wrote {path}" in captured.err
        assert main(["simulate", "--env", "corridor", "--runs", "5", "--seed", "1"]) == 0
        assert capsys.readouterr().out == captured.out
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["run", "step", "state", "action", "event", "outcome"]
        body = rows[1:]
        assert {r[0] for r in body} == {"0", "1", "2", "3", "4"}
        for row in body:
            assert row[5] in OUTCOMES
            if row[3]:  # a played action: the event names what it did
                assert row[4] in EVENTS
            else:  # terminal row closes the run
                assert row[4] == ""
        # per-run step numbers count up from zero
        for run in "01234":
            steps = [int(r[1]) for r in body if r[0] == run]
            assert steps == list(range(len(steps)))

    def test_trace_quotes_action_names(self, tmp_path, capsys):
        # facet ids with a comma and a quote give action names csv.writer must quote
        text = json.dumps(bundled_doc("corridor")).replace('"f1"', '"f,1"').replace(
            '"f2"', '"f\\"2"')
        (tmp_path / "env.json").write_text(text)
        path = tmp_path / "trace.csv"
        assert main(["simulate", "--env", str(tmp_path / "env.json"), "--runs", "50",
                     "--seed", "2", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert {'f0>f,1', 'f,1>f"2', 'f"2>f3'} <= {row[3] for row in rows}
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        assert path.read_bytes() == out.getvalue().encode()
        assert b'"f,1>f""2"' in path.read_bytes()


#: commands that write one output file, the file's name and the option naming it
WRITERS = [
    ("synthesize", "s.json", ["--out"]),
    ("simulate", "t.csv", ["--runs", "20", "--trace-out"]),
    ("build", "m.npz", ["--dump-mdp"]),
]


class TestOutputDirectories:
    @pytest.mark.parametrize("command,name,options", WRITERS)
    def test_missing_parents_are_made_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                      command, name, options):
        path = tmp_path / "a" / "b" / name
        solve = cli.synthesize_mission
        seen = []

        def spy(mdp, **kw):
            seen.append(path.parent.is_dir())
            return solve(mdp, **kw)

        monkeypatch.setattr(cli, "synthesize_mission", spy)
        assert main([command, "--env", "corridor", *options, str(path)]) == 0
        assert path.stat().st_size > 0
        assert f"wrote {path}" in "".join(capsys.readouterr())
        # the directory is there before any solve or Monte Carlo starts
        assert seen == ([] if command == "build" else [True])

    @pytest.mark.parametrize("command,name,options", WRITERS)
    def test_an_invalid_build_leaves_no_directory(self, tmp_path, capsys, monkeypatch,
                                                  command, name, options):
        build = cli.build_mdp

        def halved(env):
            mdp = build(env)
            return dataclasses.replace(mdp, prob=mdp.prob * 0.5)

        monkeypatch.setattr(cli, "build_mdp", halved)
        path = tmp_path / "a" / "b" / name
        assert main([command, "--env", "corridor", *options, str(path)]) == 1
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("region", ["rs", "rm"])
    def test_belief_graph_makes_its_directory(self, tmp_path, capsys, region):
        path = tmp_path / "a" / "b" / "b.dot"
        assert main(["beliefs", "--env", "corridor", "--region", region, "--dot", str(path)]) == 0
        assert path.read_text().startswith("digraph")
        assert f"wrote {path}" in capsys.readouterr().out

    def test_unknown_region_leaves_no_directory(self, tmp_path, capsys):
        path = tmp_path / "a" / "b.dot"
        assert main(["beliefs", "--env", "corridor", "--region", "nowhere", "--dot", str(path)]) == 1
        assert not (tmp_path / "a").exists()


class TestExport:
    def test_writes_three_files(self, tmp_path, capsys):
        base = tmp_path / "out" / "corridor"
        assert main(["export", "--env", "corridor", "--out", str(base)]) == 0
        out = capsys.readouterr().out
        for suffix in (".sta", ".tra", ".lab"):
            assert base.with_suffix(suffix).exists()
            assert str(base.with_suffix(suffix)) in out

    def test_out_appends_extensions(self, tmp_path, capsys):
        # a dotted base keeps its dot: run.1 and run.2 do not share run.sta
        for run in ("x.1", "x.2"):
            assert main(["export", "--env", "corridor", "--out", str(tmp_path / run)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"x.{k}{suffix}" for k in (1, 2) for suffix in (".lab", ".sta", ".tra")]
        assert str(tmp_path / "x.2.tra") in capsys.readouterr().out


#: run in a fresh interpreter: the CLI commands given, then the loaded scipy
#: and concurrent.futures modules
_FRESH_RUN = """
import json, sys
from hostilemdp.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "concurrent"))))
"""


def fresh_run(tmp_path, *argvs):
    """Stdout of the commands run in a new interpreter, and the scipy and
    concurrent.futures modules it loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out, _, last = done.stdout.rstrip("\n").rpartition("\n")
    return out, json.loads(last)


class TestStartup:
    def test_cli_import_leaves_scipy_and_the_executor_unloaded(self, tmp_path):
        assert fresh_run(tmp_path) == ("", [])

    def test_commands_without_a_solve_leave_scipy_unloaded(self, tmp_path):
        out, loaded = fresh_run(
            tmp_path,
            ["validate-env", "--env", "corridor"],
            ["beliefs", "--env", "corridor", "--region", "rm"],
            ["build", "--env", "corridor", "--dump-mdp", "corridor.mdp.npz"],
            ["export", "--env", "corridor", "--out", "corridor"],
        )
        assert "wrote corridor.tra" in out
        assert loaded == []

    def test_both_methods_load_scipy_when_they_solve(self, tmp_path):
        # the LP loads scipy's HiGHS bindings, with their pybind submodules, and no other
        # module of scipy.optimize
        out, loaded = fresh_run(tmp_path, ["synthesize", "--env", "corridor", "--method", "both"])
        assert "method agreement (vi vs lp)" in out
        assert {"scipy.sparse", synth.HIGHS} <= set(loaded)
        others = [m for m in loaded if (m + ".").startswith("scipy.optimize.")
                  and not (m + ".").startswith(synth.HIGHS + ".")]
        assert others == []
