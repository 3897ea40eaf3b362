"""Command line behaviour: exit codes, outputs, file side effects."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_doc
from hostilemdp import __version__, cli
from hostilemdp.cli import main
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


def one_error_or_none(argv) -> str | None:
    """Run the CLI in-process and return what is wrong with how it ended, or None.

    It should exit 0, or exit 1 with exactly one ``error:`` line, which ends stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines[1:] if line.startswith("error:")]
    if not lines[0].startswith("config: ") or (code, len(errors)) not in ((0, 0), (1, 1)) \
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
        for path, value in changes:
            parent = doc
            try:
                for key in path[:-1]:
                    parent = parent[key]
                if value is DROP:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                continue  # an earlier change removed this position
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


class TestExport:
    def test_writes_three_files(self, tmp_path, capsys):
        base = tmp_path / "out" / "corridor"
        assert main(["export", "--env", "corridor", "--out", str(base)]) == 0
        out = capsys.readouterr().out
        for suffix in (".sta", ".tra", ".lab"):
            assert base.with_suffix(suffix).exists()
            assert str(base.with_suffix(suffix)) in out
